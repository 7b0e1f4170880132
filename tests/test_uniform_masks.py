"""`tables.uniform_masks` against its rule: mask i is the top n bits of
the i-th 64-bit word of the PCG64 bit generator, read here straight from
`random_raw`, and the generator is left where reading those words leaves
it."""

import numpy as np
import pytest

from cubetest.tables import uniform_masks
from oracles import raw_word_masks

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


def _same_generator(rng, raw_rng):
    """The same state, and the same next draws, 32-bit and 64-bit."""
    assert rng.bit_generator.state == raw_rng.bit_generator.state
    assert rng.bytes(5) == raw_rng.bytes(5)
    assert np.array_equal(rng.integers(0, 1 << 40, size=3), raw_rng.integers(0, 1 << 40, size=3))
    assert rng.random() == raw_rng.random()


@pytest.mark.parametrize("n", WIDTHS)
def test_top_bits_of_whole_words(n):
    for seed in (0, 1, 2026):
        for shape in SHAPES:
            for prefix in PREFIXES:
                raw_rng, rng = _pair(seed, prefix)
                want = raw_word_masks(raw_rng, n, shape)
                got = uniform_masks(rng, n, shape)
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want), (seed, shape, prefix)
                _same_generator(rng, raw_rng)


@pytest.mark.parametrize("n", [1, 12, 31, 32, 33, 62])
def test_buffered_half_is_neither_used_nor_changed(n):
    # an odd-length bytes draw buffers a high half; a draw of any width
    # and count leaves it buffered, and the next 32-bit draw uses it
    for count in (1, 2, 5, 6):
        rng = np.random.default_rng(7)
        rng.bytes(3)
        before = rng.bit_generator.state
        assert before["has_uint32"] == 1
        uniform_masks(rng, n, count)
        after = rng.bit_generator.state
        assert (after["has_uint32"], after["uinteger"]) == (1, before["uinteger"])
        assert after["state"] != before["state"]
        half = rng.integers(0, 1 << 32, dtype=np.uint32)
        assert half == before["uinteger"]


def test_values_cover_the_range():
    rng = np.random.default_rng(5)
    for n in (1, 3, 33):
        masks = uniform_masks(rng, n, 4000)
        assert masks.min() >= 0 and masks.max() < 1 << n
        if n <= 3:
            assert len(np.unique(masks)) == 1 << n


def test_other_bit_generators_are_refused():
    # MT19937's raw words hold 32 bits: their top bits would all be 0
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
    # row by row, the draws of a (height, width) block give the block one
    # draw gives, and leave rng where that draw does
    for height, width in ((1, 1), (3, 1), (4, 5), (3, 1001)):
        whole_rng, rng = _pair(13, prefix)
        want = uniform_masks(whole_rng, n, (height, width))
        got = np.concatenate([uniform_masks(rng, n, (1, width)) for _ in range(height)])
        assert np.array_equal(got, want), (height, width)
        _same_generator(rng, whole_rng)
