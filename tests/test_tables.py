import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubetest import tables
from cubetest.tables import (
    CubePoint,
    FunctionTable,
    lp_distance,
    make_counting_oracle,
    read_table,
    walsh_hadamard,
    write_table,
)
from oracles import (
    naive_fourier_coefficient,
    naive_lp_distance,
    naive_read_table,
    naive_write_table,
)


def random_table(n, rng):
    return FunctionTable(n, rng.uniform(0.0, 1.0, 1 << n))


class TestPoints:
    def test_indexing_is_one_based(self):
        p = CubePoint.from_string("100")
        assert (p[1], p[2], p[3]) == (1, 0, 0)
        with pytest.raises(IndexError):
            p[0]

    def test_from_string_rejects_non_bits(self):
        for s in ("102", "1a", "1 0"):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                CubePoint.from_string(s)

    def test_string_round_trip(self):
        # coordinate 1 is leftmost in the string and bit 0 of the mask
        assert CubePoint.from_string("100").mask == 1
        assert CubePoint.from_string("001").mask == 4
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            x = CubePoint(n, int(rng.integers(0, 1 << n)))
            assert CubePoint.from_string(x.to_string()) == x

    def test_mask_outside_cube_rejected(self):
        for mask in (4, -1):
            with pytest.raises(ValueError, match="bits outside the cube"):
                CubePoint(2, mask)
        with pytest.raises(ValueError, match="dimension must be in"):
            CubePoint.from_string("")

    def test_repr(self):
        assert repr(CubePoint.from_string("101")) == "CubePoint('101')"


class TestFunctionTable:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FunctionTable(1, [0.0, 1.001])
        with pytest.raises(ValueError):
            FunctionTable(1, [-0.5, 0.5])

    def test_boundary_noise_snapped(self):
        t = FunctionTable(1, [0.0, 1.0 + 1e-15])
        assert t.values[1] == 1.0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            FunctionTable(2, [0.0, 1.0])

    def test_immutable(self):
        t = FunctionTable(1, [0.0, 1.0])
        with pytest.raises(AttributeError):
            t.n = 3
        with pytest.raises(ValueError):
            t.values[0] = 0.5

    def test_equality(self):
        t = FunctionTable(1, [0.0, 0.5])
        same = FunctionTable(1, np.array([0.0, 0.5]))
        assert t == same and hash(t) == hash(same)
        assert t != FunctionTable(1, [0.0, 0.25])
        assert t != FunctionTable(2, [0.0, 0.5, 0.0, 0.5])
        assert t != t.values


class TestWalshHadamard:
    def test_constant(self):
        for c in (0.0, 0.3, 1.0):
            coefficients = walsh_hadamard(FunctionTable(3, [c] * 8))
            assert coefficients[0] == pytest.approx(c, abs=1e-15)
            assert np.all(np.abs(coefficients[1:]) < 1e-15)

    def test_read_only_array_of_its_own(self):
        f = random_table(6, np.random.default_rng(3))
        before = f.values.copy()
        coefficients = walsh_hadamard(f)
        assert type(coefficients) is np.ndarray
        assert coefficients.dtype == np.float64 and coefficients.shape == (64,)
        assert not coefficients.flags.writeable
        assert not np.shares_memory(coefficients, f.values)
        with pytest.raises(ValueError):
            coefficients[0] = 1.0
        assert np.array_equal(f.values, before)

    def test_dictator_frozen(self):
        # two-point defining expectation: hat(empty) = (0+1)/2,
        # hat({1}) = (0*1 + 1*(-1))/2
        f = FunctionTable(1, [0.0, 1.0])
        assert naive_fourier_coefficient(f.values, 1, 0) == 0.5
        assert naive_fourier_coefficient(f.values, 1, 1) == -0.5
        coefficients = walsh_hadamard(f)
        assert coefficients[0] == 0.5  # indexed by mask: hat(empty)
        assert coefficients[1] == -0.5  # hat({1})

    def test_matches_defining_expectation(self):
        rng = np.random.default_rng(5)
        f = random_table(5, rng)
        coefficients = walsh_hadamard(f)
        for t_mask in range(32):
            assert coefficients[t_mask] == pytest.approx(
                naive_fourier_coefficient(f.values, 5, t_mask), abs=1e-12
            )

    def test_round_trip(self):
        # f(x) = sum_T hat_f(T) chi_T(x), with the characters written out
        rng = np.random.default_rng(8)
        f = random_table(8, rng)
        x = np.arange(1 << 8)
        overlap = np.bitwise_and(x[:, None], x[None, :])
        parity = np.array([bin(int(v)).count("1") & 1 for v in overlap.ravel()])
        chi = (1 - 2 * parity).reshape(overlap.shape)
        back = chi @ walsh_hadamard(f)
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_parseval_up_to_n12(self):
        rng = np.random.default_rng(12)
        for n in (2, 5, 9, 12):
            f = random_table(n, rng)
            coefficients = walsh_hadamard(f)
            assert abs(np.sum(coefficients ** 2) - np.mean(f.values ** 2)) < 1e-9


class TestDistances:
    def test_constant_gap(self):
        f = FunctionTable(3, [0.0] * 8)
        g = FunctionTable(3, [1.0] * 8)
        for p in (1.0, 2.0, 3.5):
            assert lp_distance(f, g, p) == 1.0

    def test_identity(self):
        rng = np.random.default_rng(1)
        f = random_table(4, rng)
        assert lp_distance(f, f, 2.0) == 0.0

    def test_dictator_values(self):
        f = FunctionTable(2, [0.0, 1.0, 0.0, 1.0])  # x_1
        zero = FunctionTable(2, [0.0] * 4)
        assert lp_distance(f, zero, 2.0) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_dimension_mismatch(self):
        f = FunctionTable(2, [0.0] * 4)
        g = FunctionTable(3, [0.0] * 8)
        with pytest.raises(ValueError, match="dimensions differ: 2 vs 3"):
            lp_distance(f, g, 2.0)

    def test_p_below_one_rejected(self):
        f = FunctionTable(1, [0.0, 1.0])
        with pytest.raises(ValueError):
            lp_distance(f, f, 0.5)

    def test_nan_p_rejected(self):
        f = FunctionTable(1, [0.0, 1.0])
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_distance(f, f, float("nan"))

    def test_infinite_p_rejected(self):
        # unchecked, a table reads 1.0 from itself
        f = FunctionTable(1, [0.0, 1.0])
        with pytest.raises(ValueError, match="p must be >= 1 and finite, got inf"):
            lp_distance(f, f, float("inf"))

    def test_p_one_accepted(self):
        f = FunctionTable(2, [0.0, 1.0, 0.5, 0.25])
        g = FunctionTable(2, [1.0, 1.0, 0.0, 0.0])
        assert lp_distance(f, g, 1.0) == pytest.approx((1.0 + 0.0 + 0.5 + 0.25) / 4, abs=1e-15)

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        f, g = random_table(5, rng), random_table(5, rng)
        for p in (1.0, 2.0, 4.0):
            assert lp_distance(f, g, p) == pytest.approx(
                naive_lp_distance(f.values, g.values, 5, p), abs=1e-12
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            f, g, h = (random_table(4, rng) for _ in range(3))
            for p in (1.0, 2.0, 3.0):
                assert lp_distance(f, g, p) == pytest.approx(lp_distance(g, f, p), abs=1e-12)
                assert lp_distance(f, g, p) <= (
                    lp_distance(f, h, p) + lp_distance(h, g, p) + 1e-12
                )

    def test_l1_below_l2(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            f, g = random_table(5, rng), random_table(5, rng)
            assert lp_distance(f, g, 1.0) <= lp_distance(f, g, 2.0) + 1e-12


class TestQueryOracle:
    def test_counts(self):
        f = FunctionTable(2, [0.0, 0.5, 0.5, 1.0])
        oracle = make_counting_oracle(f)
        assert oracle.query_count == 0
        assert oracle.query_masks(np.array([CubePoint.from_string("10").mask])).tolist() == [0.5]
        assert oracle.query_count == 1
        oracle.query_masks(np.array([0, 1, 2, 3]))
        assert oracle.query_count == 5

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        f = random_table(4, rng)
        oracle = make_counting_oracle(f)
        masks = np.arange(16)
        assert np.array_equal(oracle.query_masks(masks), oracle.query_masks(masks))

    def test_counter_safe_under_concurrency(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(3)
        oracle = make_counting_oracle(random_table(6, rng))
        masks = np.arange(64)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: oracle.query_masks(masks), range(100)))
        assert oracle.query_count == 6400


class TestBudgetError:
    """Every size refusal raises exactly BudgetError, before allocating."""

    @staticmethod
    def _refusals(monkeypatch):
        from cubetest import cores, influence, tester

        wide = random_table(18, np.random.default_rng(4))  # 2 MiB, built before tracing
        oracle = make_counting_oracle(random_table(3, np.random.default_rng(5)))
        monkeypatch.setattr(influence, "JUNTA_SET_BUDGET", 10)
        return {
            "q": lambda: tester.TesterConfig(eps=0.25, k=2, q=tester.Q_BUDGET + 1),
            "num_parts": lambda: tester.TesterConfig(
                eps=0.25, k=2, num_parts=tester.NUM_PARTS_BUDGET + 1
            ),
            "m": lambda: influence.estimate_inf_mask(
                oracle, np.array([1]), 20_000_000_000, np.random.default_rng(0)
            ),
            "grid": lambda: cores.enumerate_cores("submodular", 1, 1e-6),
            "junta_sets": lambda: influence.closest_junta(wide, 9),
        }

    @pytest.mark.parametrize("size", ["q", "num_parts", "m", "grid", "junta_sets"])
    def test_refused_before_allocation(self, monkeypatch, size):
        refuse = self._refusals(monkeypatch)[size]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(refused.value) is tables.BudgetError
        assert "budget is" in str(refused.value)
        assert peak < 2 ** 20


class TestTableFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        f = random_table(4, rng)
        path = tmp_path / "t.tbl"
        write_table(f, path, metadata=("spec abc", "normalization 1.0"))
        g = read_table(path)
        assert g == f
        text = path.read_text()
        assert text.startswith("# spec abc")
        assert "dim 4" in text

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("dim 1\n0 0.0\n0 0.5\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_table(path)

    def test_missing_rejected(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("dim 2\n00 0.0\n10 0.5\n01 0.5\n")
        with pytest.raises(ValueError, match="missing"):
            read_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("00 0.0\n")
        with pytest.raises(ValueError, match="header"):
            read_table(path)

    @pytest.mark.parametrize("header", ["dim 2 3", "dim 2 x"])
    def test_header_of_other_than_two_tokens_rejected(self, tmp_path, header):
        # "dim 2 3" once read as a 2-dimensional table
        path = tmp_path / "t.tbl"
        path.write_text(f"{header}\n00 0.5\n10 0.5\n01 0.5\n11 0.5\n")
        with pytest.raises(ValueError, match="^malformed 'dim' header$"):
            read_table(path)
        with pytest.raises(ValueError, match="^malformed 'dim' header$"):
            naive_read_table(path)

    def test_value_range_enforced(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("dim 1\n0 0.0\n1 1.5\n")
        with pytest.raises(ValueError):
            read_table(path)

    def test_nan_does_not_hide_duplicate(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("dim 2\n00 nan\n00 0.1\n10 0\n01 0\n11 0\n")
        with pytest.raises(ValueError, match="duplicate point 00"):
            read_table(path)

    def test_lone_nan_is_not_finite(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("dim 2\n00 nan\n10 0\n01 0\n11 0\n")
        with pytest.raises(ValueError, match="table values must be finite"):
            read_table(path)

    @pytest.mark.parametrize("n", [*range(1, 11), 16])
    @pytest.mark.parametrize("metadata", [(), ("spec abc", "normalization 1.0")])
    def test_write_matches_reference(self, tmp_path, n, metadata):
        values = np.random.default_rng(n).uniform(0.0, 1.0, 1 << n)
        special = [0.0, 1.0, 0.1, 5e-324, 1e-300, 1.0 - 2.0 ** -53]
        values[: len(special)] = special[: 1 << n]
        write_table(FunctionTable(n, values), tmp_path / "block.tbl", metadata)
        naive_write_table(values, n, tmp_path / "naive.tbl", metadata)
        assert (tmp_path / "block.tbl").read_bytes() == (tmp_path / "naive.tbl").read_bytes()

    @pytest.mark.parametrize(
        "kind", ["lifted_2_junta", "lifted_3_junta", "parity_blend", "quarter_grid", "mixed_block"]
    )
    def test_few_value_tables_write_like_reference(self, tmp_path, kind):
        """Tables with few distinct values, each formatted once per block,
        write the per-line writer's bytes and read back bit for bit."""
        from cubetest.cores import CoreTable, lift_core
        from cubetest.valuations import parity_blend_table

        rng = np.random.default_rng(21)
        mixed = [-0.0, 0.0, 5e-324, 1e-05, 0.25]
        f = {
            "lifted_2_junta": lambda: lift_core(CoreTable(2, (0.0, 0.25, 0.5, 1.0)), (3, 14), 16),
            "lifted_3_junta": lambda: lift_core(
                CoreTable(3, (0.0, 0.1, 0.25, 0.5, 0.75, 0.5, 1.0, 1.0)), (13, 2, 7), 13
            ),
            "parity_blend": lambda: parity_blend_table(16),
            "quarter_grid": lambda: FunctionTable(14, rng.integers(0, 5, 1 << 14) / 4),
            "mixed_block": lambda: FunctionTable(12, np.resize(mixed, 1 << 12)),
        }[kind]()
        metadata = ("spec \u00e9\u00fc", "normalization 1.0")
        write_table(f, tmp_path / "block.tbl", metadata)
        naive_write_table(f.values, f.n, tmp_path / "naive.tbl", metadata)
        assert (tmp_path / "block.tbl").read_bytes() == (tmp_path / "naive.tbl").read_bytes()
        back = read_table(tmp_path / "block.tbl").values
        assert np.array_equal(back.view(np.uint64), f.values.view(np.uint64))

    def test_io_memory_bounded(self, tmp_path):
        """Writing an n = 16 table and reading it back, also with lone CRs
        for line ends (no newline in the file), each stay under 4 MiB."""
        f = random_table(16, np.random.default_rng(2))
        path, cr_path = tmp_path / "t.tbl", tmp_path / "cr.tbl"
        write_table(f, path)
        cr_path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        peaks = []
        for op in (lambda: write_table(f, path), lambda: read_table(path), lambda: read_table(cr_path)):
            tracemalloc.start()
            try:
                got = op()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert got is None or got == f
        assert max(peaks) < 4 * 2 ** 20


_B = tables._IO_BLOCK
_CORPUS_N = 13  # two blocks of point lines


_SHORT_N = 14  # a longer corpus, so that its short lines fill two reads


def _point_lines(n, values):
    bits = ["".join(str((m >> j) & 1) for j in range(n)) for m in range(1 << n)]
    return [f"{b} {float(v)!r}" for b, v in zip(bits, values)]


def _corpus_lines():
    return _point_lines(_CORPUS_N, np.random.default_rng(11).uniform(0.0, 1.0, 1 << _CORPUS_N))


def _short_corpus_lines():
    """Point lines whose values are all at most 8 bytes: quarters,
    4- and 6-digit decimals, -0.0, 5e-324 and 1e-05."""
    rng = np.random.default_rng(12)
    values = np.round(rng.uniform(0.0, 1.0, 1 << _SHORT_N), 4)
    values[::3] = rng.integers(0, 5, values[::3].size) / 4
    values[1::3] = np.round(rng.uniform(0.0, 1.0, values[1::3].size), 6)
    values[5:8] = [-0.0, 5e-324, 1e-05]
    lines = _point_lines(_SHORT_N, values)
    assert max(len(ln) for ln in lines) <= _SHORT_N + 1 + 8
    return lines


def _replace(k, make):
    def edit(lines):
        bits, val = lines[k].split()
        lines[k] = make(bits, val)

    return edit


def _duplicate(k, j):
    def edit(lines):
        lines[k] = lines[j]

    return edit


def _several(*edits):
    def edit(lines):
        for e in edits:
            e(lines)

    return edit


def _insert(k, extra):
    def edit(lines):
        lines[k:k] = extra

    return edit


def _merge_tokens(k):
    # Lines k and k+1 become one and three tokens whose pairs still read
    # as two well-formed points.
    def edit(lines):
        bits, val = lines[k].split()
        lines[k], lines[k + 1] = bits, f"{val} {lines[k + 1]}"

    return edit


def _shift_bit(k):
    # Line k's last bit moves to the front of line k+1's bitstring, so the
    # concatenated bitstrings still read as the two original points.
    def edit(lines):
        bits, val = lines[k].split()
        nxt_bits, nxt_val = lines[k + 1].split()
        lines[k], lines[k + 1] = f"{bits[:-1]} {val}", f"{bits[-1]}{nxt_bits} {nxt_val}"

    return edit


_R = tables._READ_BYTES
_PREFIX = f"# corpus\ndim {_CORPUS_N}\n"


def _as_read(body):
    """The text after the header of a corpus file as the reader reads it,
    every line end one newline: each read takes _R characters of it."""
    return body.replace("\r\n", "\n").replace("\r", "\n")


def _line_at(lines, offset):
    """Index and offset of the point line whose text, line end included,
    holds character `offset` of the text after the header, as read."""
    start = 0
    for i, ln in enumerate(lines):
        end = start + len(ln) + 1
        if offset < end:
            return i, start
        start = end
    raise AssertionError("the corpus is shorter than the offset")


def _straddle(make):
    # the point line holding the first character of the second read,
    # changed by `make`, begins in the first read and ends in the second
    def edit(lines):
        i, start = _line_at(lines, _R)
        bits, val = lines[i].split()
        lines[i] = make(bits, val)
        assert start < _R <= start + len(lines[i])

    return edit


def _end_at_boundary(sep):
    # pads the point line before the boundary with trailing spaces so its
    # line end is the last character of the first read
    def edit(lines):
        i, start = _line_at(lines, _R - 60)
        lines[i] += " " * (_R - 1 - start - len(lines[i]))
        body = sep.join(lines) + sep
        assert _as_read(body)[_R - 2 : _R] == " \n"
        return body

    return edit


def _crlf_split(lines):
    # a point line that fills the first read, its CRLF pair (one newline
    # as read) the first character of the second read
    i, start = _line_at(lines, _R - 60)
    lines[i] += " " * (_R - start - len(lines[i]))
    body = "\r\n".join(lines) + "\r\n"
    assert _as_read(body)[_R - 1 : _R + 1] == " \n"
    return body


def _comment_across_boundary(tail):
    # a comment line from before the boundary to past it, its character
    # _R - 1 the first character of `tail`
    def edit(lines):
        i, start = _line_at(lines, _R - 60)
        lines.insert(i, "#" + "x" * (_R - 2 - start) + tail)
        assert _as_read("\n".join(lines))[_R - 1 : _R - 1 + len(tail)] == tail

    return edit


def _cr_ends(split_crlf):
    # point lines ended by lone CRs, which read as newlines; with
    # `split_crlf`, one line fills the second read and ends in a CRLF pair,
    # one newline as read, the first character of the third read
    def edit(lines):
        i = len(lines)
        if split_crlf:
            i, start = _line_at(lines, 2 * _R - 60)
            lines[i] += " " * (2 * _R - start - len(lines[i]))
        body = "\r".join(lines[: i + 1]) + "\r\n" * (i < len(lines)) + "\r".join(lines[i + 1 :]) + "\r"
        assert not split_crlf or _as_read(body)[2 * _R - 1 : 2 * _R + 1] == " \n"
        return body

    return edit


def _no_final_newline_at_boundary(lines):
    # a comment mid-file, longer than a read, pads the file to end at a
    # read boundary, with no final newline
    extra = -len("\n".join(lines)) % _R
    lines.insert(_B // 2, "#" * (extra - 1 + _R))
    body = "\n".join(lines)
    assert len(_as_read(body)) % _R == 0 and not body.endswith("\n")
    return body


_POSITIONS = {"first": 0, "mid": _B // 2, "next_block": _B}

_CORPUS = {
    **{
        f"{kind}_{where}": _replace(k, make)
        for where, k in _POSITIONS.items()
        for kind, make in {
            "one_token": lambda b, v: b,
            "three_tokens": lambda b, v: f"{b} {v} 0.5",
            "short_bits": lambda b, v: f"{b[:-1]} {v}",
            "digit_2": lambda b, v: f"2{b[1:]} {v}",
            "non_ascii": lambda b, v: f"\u00e9{b[1:]} {v}",
            "bad_float": lambda b, v: f"{b} zero",
            "nan": lambda b, v: f"{b} nan",
            "out_of_range": lambda b, v: f"{b} 1.5",
            "two_spaces": lambda b, v: f"{b}  {v}",
            "tab": lambda b, v: f"{b}\t{v}",
            # separators str.split takes for whitespace, none of them a
            # line break in a file read as text
            "vertical_tab": lambda b, v: f"{b}\x0b{v}",
            "form_feed": lambda b, v: f"{b}\x0c{v}",
            "file_separator": lambda b, v: f"{b}\x1c{v}",
            "no_break_space": lambda b, v: f"{b}\xa0{v}",
            "arabic_indic_value": lambda b, v: f"{b} \u0660.\u0665",  # float gives 0.5
            "underscore_value": lambda b, v: f"{b} 0.2_5",  # float gives 0.25
            "leading_space": lambda b, v: f" {b} {v}",
            "trailing_space": lambda b, v: f"{b} {v} ",
            "no_value": lambda b, v: f"{b} ",
        }.items()
    },
    # the first read ends inside a line or a comment, at a multibyte
    # character, just before a CRLF pair or right after a newline
    "straddling_line": _straddle(lambda b, v: f"{b} {v}"),
    "straddling_three_tokens": _straddle(lambda b, v: f"{b} {v} 0.5"),
    "straddling_bad_float": _straddle(lambda b, v: f"{b} zero"),
    "crlf_split_at_boundary": _crlf_split,
    "newline_at_boundary": _end_at_boundary("\n"),
    "crlf_at_boundary": _end_at_boundary("\r\n"),
    "multibyte_comment_across_boundary": _comment_across_boundary("\u00e9\u00e9 note"),
    "hash_line_across_boundary": _comment_across_boundary("# note"),
    "no_final_newline_at_boundary": _no_final_newline_at_boundary,
    "cr_line_ends": _cr_ends(False),
    "crlf_split_at_cr_cut": _cr_ends(True),
    "duplicate_mid": _duplicate(_B // 2, _B // 2 - 7),
    "duplicate_next_block": _duplicate(_B, 3),
    "duplicate_last_line": _duplicate(-1, _B - 1),
    "missing_mid": lambda lines: lines.pop(_B // 2),
    "missing_next_block": lambda lines: lines.pop(_B),
    "comments_across_boundary": _insert(_B - 3, ["", "# note", "   ", "#", "\t"] * 3),
    "comment_and_blank_mid": _insert(_B // 2, ["# note", ""]),
    # an edit that returns text gives the file's point lines whole
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no_final_newline": lambda lines: "\n".join(lines),
    "no_final_newline_one_token": lambda lines: "\n".join([*lines[:-1], lines[-1].split()[0]]),
    "merged_tokens": _merge_tokens(_B // 2),
    "shifted_bit": _shift_bit(_B // 2),
    "float_before_malformed": _several(
        _replace(10, lambda b, v: f"{b} zero"), _replace(20, lambda b, v: b)
    ),
    "duplicate_before_malformed": _several(
        _duplicate(30, 12), _replace(40, lambda b, v: f"{b} {v} 1")
    ),
    "bits_before_duplicate": _several(
        _replace(_B + 5, lambda b, v: f"{b}1 {v}"), _duplicate(_B + 9, 0)
    ),
}


def _assert_reads_like_reference(path):
    try:
        expected = naive_read_table(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            read_table(path)
        assert str(got.value) == str(exc)
    else:
        got = read_table(path)
        assert got.n == expected.n
        assert np.array_equal(got.values.view(np.uint64), expected.values.view(np.uint64))


def _write_corpus(path, prefix, lines, case):
    body = _CORPUS[case](lines)
    if body is None:
        body = "\n".join(lines) + "\n"
    path.write_bytes((prefix + body).encode())


@pytest.mark.parametrize("case", sorted(_CORPUS))
def test_read_matches_reference(tmp_path, case):
    """Block-wise reading gives the per-line reader's table, or its exact
    exception type and message, on files faulty at block boundaries."""
    _write_corpus(tmp_path / "t.tbl", _PREFIX, _corpus_lines(), case)
    _assert_reads_like_reference(tmp_path / "t.tbl")


def _spy_short_values(monkeypatch):
    """Record, for each call of `tables._short_values`, whether it parsed
    the piece ("short"), left it to `float` on every token ("long") or
    raised."""
    calls = []
    short_values = tables._short_values

    def spy(*args):
        try:
            got = short_values(*args)
        except ValueError:
            calls.append("raised")
            raise
        calls.append("long" if got is None else "short")
        return got

    monkeypatch.setattr(tables, "_short_values", spy)
    return calls


_SHORT_PREFIX = f"# corpus\ndim {_SHORT_N}\n"
assert len(_SHORT_PREFIX) == len(_PREFIX)  # the edits place lines by offset


@pytest.mark.parametrize("case", sorted(_CORPUS))
def test_short_values_read_matches_reference(tmp_path, monkeypatch, case):
    """The same edits on a corpus whose values are all at most 8 bytes:
    every piece the column reader takes parses each distinct value once
    (`tables._short_values`), and the reader gives the per-line reader's
    table, or its exact exception type and message."""
    _write_corpus(tmp_path / "t.tbl", _SHORT_PREFIX, _short_corpus_lines(), case)
    calls = _spy_short_values(monkeypatch)
    _assert_reads_like_reference(tmp_path / "t.tbl")
    assert "long" not in calls


def test_each_corpus_takes_its_value_path(tmp_path, monkeypatch):
    """Unedited, every piece of the short corpus (three reads) goes
    through the short-value path, and every piece of the repr corpus,
    with its 17-digit values, through `float` on every token."""
    calls = _spy_short_values(monkeypatch)
    for prefix, lines, path in [
        (_SHORT_PREFIX, _short_corpus_lines(), "short"),
        (_PREFIX, _corpus_lines(), "long"),
    ]:
        (tmp_path / "t.tbl").write_bytes((prefix + "\n".join(lines) + "\n").encode())
        _assert_reads_like_reference(tmp_path / "t.tbl")
        assert len(calls) >= 3 and set(calls) == {path}
        calls.clear()


@pytest.mark.parametrize(
    "text",
    [
        "dim 2\r00 0.5\r10 0.25\r01 0\r11 1\r",
        "# note\rdim 2\r00 0.5\r10 0.25\n01 0\n11 1\n",
        "dim 2\r00 0.5\r00 0.25\n01 0\n11 1\n",
        "dim 2\r00 0.5\r10\n01 0\n11 1\n",
    ],
)
def test_lone_carriage_returns_read_like_reference(tmp_path, text):
    """A lone CR ends a line, as in a file read as text: point lines may
    share the header's newline-ended line."""
    path = tmp_path / "t.tbl"
    path.write_bytes(text.encode())
    _assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "data", [b"dim 1\n0 0.5\n1 \xe9\n", b"# note\ndim 1\n0 0.5\n1 0.25\n# caf\xe9\n"]
)
def test_undecodable_byte_raises_like_reference(tmp_path, data):
    """A byte the locale encoding (UTF-8) cannot decode, in a point line or
    a trailing comment of a file under 8 KiB, raises the per-line reader's
    UnicodeDecodeError, its position counted from the start of the file."""
    path = tmp_path / "t.tbl"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as expected:
        naive_read_table(path)
    with pytest.raises(UnicodeDecodeError) as got:
        read_table(path)
    assert str(got.value) == str(expected.value)
    assert f"position {data.index(0xE9)}:" in str(got.value)


# characters that break the fixed column layout, or that str.split,
# float or a file read as text treat in their own way
_FUZZ_ALPHABET = "01 5._#\t\x0b\x0c\x1c\xa0\r\n\u0660\u0665"


@st.composite
def _edited_table_text(draw):
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.sampled_from(["0", "1", "0.5", "0.25"]), min_size=1 << n, max_size=1 << n))
    text = f"dim {n}\n" + "".join(
        "".join(str((m >> j) & 1) for j in range(n)) + f" {v}\n" for m, v in enumerate(values)
    )
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        at = draw(st.integers(0, len(text) - (op != "insert")))
        char = draw(st.sampled_from(_FUZZ_ALPHABET))
        text = text[:at] + ("" if op == "delete" else char) + text[at + (op != "insert"):]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_edited_table_text())
def test_edited_files_read_like_reference(tmp_path, text):
    """On small files with characters inserted, replaced or deleted, the
    reader gives the per-line reader's table or exact exception."""
    path = tmp_path / "t.tbl"
    path.write_bytes(text.encode())
    _assert_reads_like_reference(path)
