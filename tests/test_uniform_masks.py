"""`tables.uniform_masks` against numpy's own bounded draw: the same
values, and the generator left where `rng.integers` leaves it."""

import numpy as np
import pytest

from cubetest.tables import uniform_masks

WIDTHS = list(range(1, 34)) + [40, 62]
SHAPES = [(), 0, 1, 2, 7, (3, 5), (2, 0), (4, 1001)]
# odd-length `bytes` draws leave a high half buffered, even ones none
PREFIXES = [0, 1, 3, 4, 6, 9]


def _pair(seed, prefix):
    """Two generators in one state, after the same `bytes` draw."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if prefix:
        for rng in pair:
            rng.bytes(prefix)
    return pair


def _same_generator(rng, numpy_rng):
    """The same state, and the same next draws, 32-bit and 64-bit."""
    assert rng.bit_generator.state == numpy_rng.bit_generator.state
    assert rng.bytes(5) == numpy_rng.bytes(5)
    assert np.array_equal(rng.integers(0, 1 << 40, size=3), numpy_rng.integers(0, 1 << 40, size=3))
    assert rng.random() == numpy_rng.random()


@pytest.mark.parametrize("n", WIDTHS)
def test_same_values_and_state_as_integers(n):
    for seed in (0, 1, 2026):
        for shape in SHAPES:
            for prefix in PREFIXES:
                numpy_rng, rng = _pair(seed, prefix)
                want = numpy_rng.integers(0, 1 << n, size=shape, dtype=np.int64)
                got = uniform_masks(rng, n, shape)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want), (seed, shape, prefix)
                _same_generator(rng, numpy_rng)


@pytest.mark.parametrize("n", [1, 12, 31, 32, 33, 62])
def test_buffered_half_is_used_first_and_a_new_one_left(n):
    # an odd-length bytes draw buffers a high half; an odd count of
    # 32-bit draws after it uses that half and buffers none, an even one
    # uses it and buffers a new one.  Draws over 32 bits keep it buffered
    for count in (1, 2, 5, 6):
        numpy_rng, rng = _pair(7, 3)
        assert rng.bit_generator.state["has_uint32"] == 1
        want = numpy_rng.integers(0, 1 << n, size=count, dtype=np.int64)
        assert np.array_equal(uniform_masks(rng, n, count), want)
        state = rng.bit_generator.state
        assert state == numpy_rng.bit_generator.state
        assert state["has_uint32"] == (1 if n > 32 else (count - 1) % 2)


def test_values_cover_the_range():
    rng = np.random.default_rng(5)
    for n in (1, 3, 33):
        masks = uniform_masks(rng, n, 4000)
        assert masks.min() >= 0 and masks.max() < 1 << n
        if n <= 3:
            assert len(np.unique(masks)) == 1 << n


def test_other_bit_generators_are_refused():
    for bitgen in (np.random.MT19937(0), np.random.Philox(0), np.random.SFC64(0)):
        with pytest.raises(ValueError, match="PCG64"):
            uniform_masks(np.random.Generator(bitgen), 8, 4)


@pytest.mark.parametrize("n", [0, 63, 64])
def test_widths_outside_1_to_62_are_refused(n):
    with pytest.raises(ValueError, match="mask width"):
        uniform_masks(np.random.default_rng(0), n, 4)


@pytest.mark.parametrize("n", [1, 12, 32, 33, 62])
@pytest.mark.parametrize("prefix", [0, 3])
def test_consecutive_draws_are_one_draw(n, prefix):
    # row by row, the draws of a (height, width) block give the block
    # rng.integers draws in one call, and leave rng where that call does
    for height, width in ((1, 1), (3, 1), (4, 5), (3, 1001)):
        numpy_rng, rng = _pair(13, prefix)
        want = numpy_rng.integers(0, 1 << n, size=(height, width), dtype=np.int64)
        got = np.concatenate([uniform_masks(rng, n, (1, width)) for _ in range(height)])
        assert np.array_equal(got, want), (height, width)
        _same_generator(rng, numpy_rng)
