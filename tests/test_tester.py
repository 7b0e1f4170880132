import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetest import tester
from cubetest.cores import CoreSet, CoreTable, cached_cores, lift_core
from cubetest.influence import M_BUDGET, estimate_inf_mask, influence_exact
from cubetest.tables import BudgetError, CubePoint, FunctionTable, coords_of, make_counting_oracle
from cubetest.tester import (
    TesterConfig,
    VirtualPart,
    _buckets_from_masks,
    _initial_parts,
    default_refine_rounds,
    final_check_and_learn,
    lp_epsilon_map,
    paper_constants,
    refine_parts,
    report_from_lines,
    report_to_lines,
    run_tester,
    select_initial_parts,
)
from oracles import (
    exact_stub,
    full_scan_core_statistics,
    naive_buckets_from_masks,
    naive_cell_partition,
    naive_core_statistics,
    shared_base_estimator,
)


def and_junta(n, coords):
    return lift_core(CoreTable(2, (0.0, 0.0, 0.0, 1.0)), coords, n)


def exact_queries(cfg, rounds):
    """Oracle queries of a run that used `rounds` refinement rounds,
    q + m(P + 1) + m(2^k + 1) rounds: m per part the selection estimates
    (P = num_parts) and per keep-choice of each round, plus m for each of
    those batches' base points; the core search queries nothing."""
    return cfg.q + cfg.m * (cfg.num_parts + 1) + cfg.m * ((1 << cfg.k) + 1) * rounds


class TestLpEpsilonMap:
    def test_identity_at_p2(self):
        assert lp_epsilon_map(2, 0.1) == 0.1
        assert lp_epsilon_map(1.5, 0.37) == 0.37

    def test_p4_squares(self):
        mapped = lp_epsilon_map(4, 0.1)
        assert mapped == 0.1 ** (4 / 2)
        assert mapped == pytest.approx(0.01, abs=1e-15)

    def test_p1_passthrough(self):
        assert lp_epsilon_map(1, 0.3) == 0.3

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_epsilon_map(0.9, 0.1)

    def test_infinite_p_rejected(self):
        # unchecked, eps ** inf maps every eps to 0
        with pytest.raises(ValueError, match="p must be >= 1 and finite, got inf"):
            lp_epsilon_map(float("inf"), 0.1)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            lp_epsilon_map(2, 1.5)


class TestConfig:
    def test_desk_defaults(self):
        # the accept radius a = (1/8 + 1/4)/2 sits mid-gap between the
        # grid slack and eps
        cfg = TesterConfig(eps=0.25, k=2)
        assert cfg.num_parts == 16
        assert cfg.accept_threshold == 0.1875 ** 2 == 0.03515625
        assert cfg.core_grid == 0.25

    def test_lp_map_feeds_thresholds(self):
        cfg = TesterConfig(eps=0.5, k=1, p=4, core_grid=0.125)
        eps2 = 0.5 ** 2
        assert cfg.accept_threshold == pytest.approx(((0.0625 + eps2) / 2) ** 2)

    @pytest.mark.parametrize("p, core_grid", [(4.0, 0.25), (3.0, 0.5), (2.0, 0.5)])
    def test_no_gap_needs_a_given_threshold(self, p, core_grid):
        # core_grid/2 >= eps2 leaves no radius that admits the grid slack
        # and stays under eps2; a given threshold is still taken
        eps2 = lp_epsilon_map(p, 0.25)
        with pytest.raises(ValueError, match="no accept radius fits between the grid slack") as info:
            TesterConfig(eps=0.25, k=2, p=p, core_grid=core_grid)
        assert f"core_grid/2 = {core_grid / 2}" in str(info.value)
        assert f"eps2 = {eps2}" in str(info.value)
        given = TesterConfig(eps=0.25, k=2, p=p, core_grid=core_grid, accept_threshold=0.01)
        assert given.accept_threshold == 0.01

    def test_partition_budget(self):
        # q * num_parts bits of part bounds: at the limit admitted, one
        # past it refused; the paper's constants at eps = 0.25, k = 3 fit
        assert tester.PARTITION_BITS_BUDGET == 1 << 27
        TesterConfig(eps=0.25, k=2, q=tester.Q_BUDGET, num_parts=2048)
        with pytest.raises(BudgetError, match="q \\* num_parts = 134283264 bits"):
            TesterConfig(eps=0.25, k=2, q=tester.Q_BUDGET, num_parts=2049)
        paper = paper_constants(0.25, 3)
        assert paper["q"] * paper["num_parts"] == 66_355_200
        TesterConfig(eps=0.25, k=3, **paper)

    def test_refine_rounds_reach_singletons(self):
        assert default_refine_rounds(6, 12) == math.ceil(math.log2(math.ceil(64 / 12)))
        assert default_refine_rounds(64, 12) == 61
        assert default_refine_rounds(1024, 12) == 1021

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 299), num_parts=st.integers(1, 4096))
    @example(q=1, num_parts=3)
    @example(q=64, num_parts=200_000)
    def test_default_rounds_take_every_part_to_one_pattern(self, q, num_parts):
        # `refine_parts` never runs more rounds than this: after them the
        # largest part of the equi-partition is down to at most one
        # pattern (also when num_parts > 2^q leaves parts of size 0 and
        # 1), and one halving fewer would not do
        rng = np.random.default_rng(0)
        part = max(_initial_parts({}, q, num_parts, rng), key=lambda p: p.size)
        assert part.size == -(-(1 << q) // num_parts)
        sizes = [part.size]
        for _ in range(default_refine_rounds(q, num_parts)):
            part = part.halves()[0]  # the first half takes the extra pattern
            sizes.append(part.size)
        assert sizes[-1] <= 1
        assert len(sizes) == 2 or sizes[-2] > 1

    def test_query_budget_at_desk_constants(self):
        # the cost of a run at the most rounds it can use,
        # r = default_refine_rounds(q, 16): 60 at q = 64, 1020 at q = 1024
        assert TesterConfig(eps=0.25, k=2).query_budget() == 317_064
        assert TesterConfig(eps=0.25, k=2, q=1024).query_budget() == 5_118_024

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_defaults_fill_omitted_constants(self, k, p):
        # an omitted q, m, num_parts or core_grid takes the desk default;
        # at p = 4, eps2 = 1/16 is under the default grid's slack, so the
        # threshold is given
        desk = dict(q=64, m=1000, num_parts=4 * k * k, core_grid=0.25)
        given = {"accept_threshold": 0.001} if p > 2 else {}
        assert TesterConfig(eps=0.25, k=k, p=p, **given) == TesterConfig(
            eps=0.25, k=k, p=p, **given, **desk
        )

    def test_paper_constants_at_k2(self):
        paper = paper_constants(0.25, 2)
        assert paper == dict(q=4096, m=65536, num_parts=1600, core_grid=0.00025)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_paper_constants_formulas(self, k):
        paper = paper_constants(0.5, k)
        assert paper["num_parts"] == 100 * k ** 4
        assert paper["q"] == math.ceil(2 ** k / 0.5 ** 5)
        assert paper["m"] == math.ceil(k ** 6 / 0.5 ** 5)
        assert paper["core_grid"] == pytest.approx(0.5 / 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            TesterConfig(eps=0.25, k=0)
        with pytest.raises(ValueError):
            TesterConfig(eps=0.25, k=5, num_parts=3)
        with pytest.raises(ValueError):
            TesterConfig(eps=1.2, k=2)
        # a part selection of more estimates than the budget is refused
        # on construction, before any sampling
        with pytest.raises(BudgetError, match="part selection needs 200001 influence"):
            TesterConfig(eps=0.25, k=2, num_parts=tester.NUM_PARTS_BUDGET + 1)
        assert TesterConfig(eps=0.25, k=2, num_parts=200_000).num_parts == tester.NUM_PARTS_BUDGET
        # so is a sample draw over its budget
        with pytest.raises(BudgetError, match="sampling needs 65537 sample points"):
            TesterConfig(eps=0.25, k=2, q=tester.Q_BUDGET + 1)
        assert TesterConfig(eps=0.25, k=2, q=65536).q == tester.Q_BUDGET

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_paper_constants_within_the_q_and_m_budgets(self, k):
        # the paper's q and m at eps = 0.25 reach 8,192 and 746,496 at k = 3
        paper = paper_constants(0.25, k)
        assert paper["q"] <= tester.Q_BUDGET
        assert paper["m"] <= M_BUDGET
        assert TesterConfig(eps=0.25, k=k, **paper).q == paper["q"]


class TestBuckets:
    def test_single_sample_split(self):
        buckets = _buckets_from_masks([CubePoint.from_string("1100").mask], 4)
        assert coords_of(buckets[1]) == {1, 2}
        assert coords_of(buckets[0]) == {3, 4}

    def test_identical_samples_collapse(self):
        p = CubePoint.from_string("0110")
        buckets = _buckets_from_masks([p.mask] * 3, 4)
        assert len(buckets) == 2

    def test_structural_partition(self):
        rng = np.random.default_rng(3)
        masks = [int(x) for x in rng.integers(0, 1 << 12, size=8)]
        buckets = _buckets_from_masks(masks, 12)
        total = sum(len(coords_of(mask)) for mask in buckets.values())
        assert total == 12
        # pairwise disjoint masks that cover all n coordinates
        union = 0
        for mask in buckets.values():
            assert mask & union == 0
            union |= mask
        assert union == (1 << 12) - 1

    @pytest.mark.parametrize("q", [1, 7, 8, 9, 64, 1024, 65536])
    @pytest.mark.parametrize("n", [1, 12, 24])
    def test_matches_bitwise_reference(self, q, n):
        masks = np.random.default_rng(q * 31 + n).integers(0, 1 << n, size=q, dtype=np.int64)
        buckets = _buckets_from_masks(masks, n)
        expected = naive_buckets_from_masks([int(x) for x in masks], n)
        assert list(buckets.items()) == list(expected.items())


class TestCellStream:
    """`_initial_parts` must read the generator exactly as its docstring
    says: one `rng.bytes` call for the first cells, then one call per
    redraw.  Checked against the contract spelled out in
    `naive_cell_partition`: the same parts, ranges and held pairs, the
    same halves, and the same generator state after, whether or not the
    generator holds a spare half-word."""

    @staticmethod
    def _check(seed, buckets, q, num_parts, spare):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (fast, slow):
            rng.integers(0, 1 << 32, size=spare, dtype=np.uint32)
        parts = _initial_parts(buckets, q, num_parts, fast)
        expected = naive_cell_partition(slow, buckets, q, num_parts)
        assert [(p.lo, p.size, p.held) for p in parts] == expected
        assert fast.bit_generator.state == slow.bit_generator.state
        words = [rng.integers(0, 1 << 32, size=3, dtype=np.uint32) for rng in (fast, slow)]
        assert np.array_equal(*words)
        assert fast.random() == slow.random()
        # the splits of refinement: a part's pairs into its two halves
        for part in {parts[0], parts[-1]}:
            mid = part.lo + (part.size + 1) // 2
            h0, h1 = part.halves()
            assert (h0.lo, h0.size, h0.held) == (
                part.lo, mid - part.lo, tuple(h for h in part.held if h[0] < mid)
            )
            assert (h1.lo, h1.size, h1.held) == (
                mid, part.lo + part.size - mid, tuple(h for h in part.held if h[0] >= mid)
            )
        return parts

    @pytest.mark.parametrize("spare", [0, 1])
    @pytest.mark.parametrize("q", [*range(1, 71), 300, 1024, 65536])
    def test_pattern_space_cells(self, q, spare):
        rng = np.random.default_rng((q, spare))
        num_parts = int(rng.integers(1, 50))
        count = min(1 << q, 24)
        patterns: set[int] = set()
        while len(patterns) < count:
            patterns.add(int.from_bytes(rng.bytes((q + 7) // 8), "little") % (1 << q))
        masks = rng.integers(1, 1 << 24, size=count)
        buckets = {p: int(m) for p, m in zip(sorted(patterns), masks)}
        parts = self._check((q, spare, 0), buckets, q, num_parts, spare)
        assert sorted(m for p in parts for m in p.masks) == sorted(buckets.values())

    @pytest.mark.parametrize("spare", [0, 1])
    def test_small_pattern_spaces(self, spare):
        # up to as many patterns as cells, where most first draws are
        # taken and drawn again, and more parts than cells, which leaves
        # parts of size 0
        rng = np.random.default_rng(spare)
        cases = [({}, 3, 2), ({0: 1}, 1, 1), ({0: 1, 1: 2}, 1, 2), ({3: 4}, 2, 7)]
        for _ in range(100):
            q = int(rng.integers(1, 9))
            count = int(rng.integers(0, min(1 << q, 12) + 1))
            patterns = rng.choice(1 << q, size=count, replace=False)
            buckets = {int(p): 1 << i for i, p in enumerate(patterns)}
            cases.append((buckets, q, int(rng.integers(1, 12))))
        for i, (buckets, q, num_parts) in enumerate(cases):
            for seed in range(10):
                self._check((spare, i, seed), buckets, q, num_parts, spare)

    def test_more_patterns_than_cells_refused(self):
        with pytest.raises(ValueError, match="more occupied patterns than cells"):
            _initial_parts({0: 1, 1: 2, 2: 4}, 1, 2, np.random.default_rng(0))


class TestVirtualPartition:
    """`_initial_parts` gives the occupied patterns a uniform injection
    into the 2^q cells, the law a full shuffle of pattern space gives
    them; parts and halves are fixed ranges of cells."""

    @staticmethod
    def _cells(parts):
        return [cell for part in parts for cell, _ in part.held]

    def test_items_in_a_size_five_range(self):
        """Given the items a size-5 range holds, their cells in it are a
        uniform injection: at q = 4 and 3 parts (sizes 6, 5, 5), an item in
        part 1 or 2 lies in its first 3 cells with probability 3/5, and two
        items there both do with probability (3*2)/(5*4) = 3/10."""
        buckets = {1: 0b001, 2: 0b010, 3: 0b100}
        one, in_first, two, both_first = 0, 0, 0, 0
        for seed in range(30_000):
            parts = _initial_parts(buckets, 4, 3, np.random.default_rng((12345, seed)))
            assert [(p.lo, p.size) for p in parts] == [(0, 6), (6, 5), (11, 5)]
            for part in parts[1:]:
                first = [cell < part.lo + 3 for cell, _ in part.held]
                one += len(first)
                in_first += sum(first)
                for a in range(len(first)):
                    for b in range(a + 1, len(first)):
                        two += 1
                        both_first += first[a] and first[b]
        assert abs(in_first / one - 0.6) < 0.012  # over 56,000 items
        assert abs(both_first / two - 0.3) < 0.015  # over 15,000 pairs

    def test_split_sends_a_pattern_to_the_ceil_half(self):
        """A size-5 part splits into halves of sizes 3 and 2, and the one
        pattern it holds goes to the first half with probability 3/5."""
        kept0 = trials = 0
        for seed in range(30_000):
            parts = _initial_parts({5: 0b01}, 4, 3, np.random.default_rng((777, seed)))
            part = next(p for p in parts if p.masks)
            if part.size != 5:
                continue
            h0, h1 = part.halves()
            assert (h0.lo, h0.size, h1.lo, h1.size) == (part.lo, 3, part.lo + 3, 2)
            trials += 1
            kept0 += 0b01 in h0.masks
        assert abs(kept0 / trials - 0.6) < 0.012  # over about 18,750 parts

    @pytest.mark.parametrize("q, num_parts", [(3, 3), (4, 5)])
    def test_pairwise_law_matches_a_materialized_shuffle(self, q, num_parts):
        """The chance that two of three items share a part, and that they
        share a half after one split, under the cell draw and under a full
        `rng.permutation` of the 2^q cells, against the exact values
        sum_j s_j (s_j - 1) / (T (T - 1)) over the parts (then the halves)
        of sizes s_j, T = 2^q.  20,000 runs a side at seed 2026, so a rate
        has standard error below 0.0036; the tolerance is 0.015."""
        total, runs = 1 << q, 20_000
        parts = _initial_parts({}, q, num_parts, np.random.default_rng(0))
        halves = [h for p in parts for h in p.halves()]
        exact = [
            sum(r.size * (r.size - 1) for r in ranges) / (total * (total - 1))
            for ranges in (parts, halves)
        ]
        # a cell's part (half) is the last nonempty one that starts at or below it
        starts = [[r.lo for r in ranges if r.size] for ranges in (parts, halves)]
        buckets = {0: 0b001, 3: 0b010, total - 1: 0b100}
        rng = np.random.default_rng(2026)
        drawn = []
        for _ in range(runs):
            cell_of = {m: c for p in _initial_parts(buckets, q, num_parts, rng) for c, m in p.held}
            drawn.append([cell_of[m] for m in (0b001, 0b010, 0b100)])
        shuffled = [rng.permutation(total)[:3] for _ in range(runs)]
        for cells in (np.array(drawn), np.array(shuffled)):
            for level in (0, 1):
                index = np.searchsorted(starts[level], cells, "right")
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    rate = float(np.mean(index[:, i] == index[:, j]))
                    assert abs(rate - exact[level]) < 0.015

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 9, 13])
    def test_redrawn_cells_stay_below_two_to_the_q(self, q):
        # a q-bit cell, q not a multiple of 8, is the low q bits of whole
        # bytes; with up to 12 patterns taken cells are drawn again often
        for seed in range(50):
            rng = np.random.default_rng((q, seed))
            count = min(1 << q, 12)
            patterns = rng.choice(1 << q, size=count, replace=False)
            parts = _initial_parts({int(p): 1 << i for i, p in enumerate(patterns)}, q, 3, rng)
            cells = self._cells(parts)
            assert len(set(cells)) == count
            assert all(0 <= cell < 1 << q for cell in cells)
            for part in parts:
                assert all(part.lo <= cell < part.lo + part.size for cell, _ in part.held)

    def test_as_many_patterns_as_cells(self):
        # q = 2 with 4 patterns: every cell ends up used
        for seed in range(50):
            parts = _initial_parts({p: 1 << p for p in range(4)}, 2, 3, np.random.default_rng(seed))
            assert sorted(self._cells(parts)) == [0, 1, 2, 3]
            assert sum(len(p.masks) for p in parts) == 4

    def test_sizes_partition_pattern_space(self):
        rng = np.random.default_rng(0)
        masks = [int(x) for x in rng.integers(0, 1 << 10, size=16)]
        buckets = _buckets_from_masks(masks, 10)
        parts = _initial_parts(buckets, 16, 12, rng)
        assert sum(p.size for p in parts) == 1 << 16
        assert [p.lo for p in parts] == [sum(p.size for p in parts[:j]) for j in range(12)]
        occupied = [mask for p in parts for mask in p.masks]
        assert sorted(occupied) == sorted(buckets.values())

    def test_masks_in_ascending_pattern_order(self):
        # a part holds its masks in the order of their patterns, the order
        # `_initial_parts` draws their cells in, and every split keeps it;
        # a record reads a final part only through the union of its masks
        rng = np.random.default_rng(2)
        masks = [int(x) for x in rng.integers(0, 1 << 12, size=8)]
        buckets = _buckets_from_masks(masks, 12)
        rank = {buckets[p]: i for i, p in enumerate(sorted(buckets))}
        parts = _initial_parts(buckets, 8, 3, rng)
        halves = [h for part in parts for h in part.halves()]
        assert any(len(p.masks) > 1 for p in halves)
        for part in parts + halves:
            assert [rank[m] for m in part.masks] == sorted(rank[m] for m in part.masks)
            assert part.coord_mask == sum(part.masks)

    def test_small_pattern_space_leaves_empty_parts(self):
        rng = np.random.default_rng(1)
        masks = [int(x) for x in rng.integers(0, 1 << 6, size=2)]
        buckets = _buckets_from_masks(masks, 6)
        parts = _initial_parts(buckets, 2, 12, rng)
        sizes = [p.size for p in parts]
        assert sum(sizes) == 4
        assert sizes.count(0) == 8

    def test_equal_sizes_when_parts_divide(self):
        rng = np.random.default_rng(5)
        masks = [int(x) for x in rng.integers(0, 1 << 8, size=4)]
        parts = _initial_parts(_buckets_from_masks(masks, 8), 4, 4, rng)
        assert [p.size for p in parts] == [4, 4, 4, 4]

    def test_remainder_goes_first(self):
        rng = np.random.default_rng(5)
        masks = [int(x) for x in rng.integers(0, 1 << 7, size=3)]
        parts = _initial_parts(_buckets_from_masks(masks, 7), 3, 3, rng)
        assert [p.size for p in parts] == [3, 3, 2]

    def test_halves_of_an_empty_part_are_empty(self):
        part = VirtualPart(7, 0)
        assert [(h.lo, h.size, h.masks) for h in part.halves()] == [(7, 0, ()), (7, 0, ())]


class TestStagesWithExactStub:
    def test_junta_parts_selected(self):
        n = 12
        table = and_junta(n, (3, 9))
        oracle = make_counting_oracle(table)
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        found = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
            buckets = _buckets_from_masks(masks, n)
            parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
            part_of = {}
            for idx, part in enumerate(parts):
                for mask in part.masks:
                    part_of[mask] = idx
            mask3 = next(mask for mask in buckets.values() if 3 in coords_of(mask))
            mask9 = next(mask for mask in buckets.values() if 9 in coords_of(mask))
            if part_of[mask3] == part_of[mask9]:
                continue  # selection cannot separate colliding parts
            found += 1
            selected, dropped = select_initial_parts(oracle, parts, cfg, rng, exact_stub(table))
            covered = 0
            for part in selected:
                for c in (3, 9):
                    if part.coord_mask & (1 << (c - 1)):
                        covered += 1
            assert covered == 2
            assert dropped == 0.0
        assert found >= 10

    def test_constant_function_first_subset(self):
        n = 8
        table = FunctionTable(n, [0.5] * (1 << n))
        oracle = make_counting_oracle(table)
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        rng = np.random.default_rng(5)
        masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
        buckets = _buckets_from_masks(masks, n)
        parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
        selected, dropped = select_initial_parts(oracle, parts, cfg, rng, exact_stub(table))
        assert dropped == 0.0
        assert selected[0] is parts[0] and selected[1] is parts[1]
        # refinement on a constant: every eta stays zero, singleton
        # patterns come back anyway
        final, last_eta, _ = refine_parts(oracle, selected, cfg, rng, exact_stub(table))
        assert last_eta == 0.0
        assert len(final) == 2

    @pytest.mark.parametrize("core", [(0.0, 0.0, 0.0, 1.0), (0.0,) * 7 + (1.0,)])
    def test_desk_keeps_the_relevant_parts(self, core):
        # a part holding a relevant coordinate of an AND junta has positive
        # own influence and every other part exactly 0: desk keeps the
        # relevant parts, topped up with the lowest-index others when
        # relevant coordinates collide, and the dropped parts' estimates
        # sum to 0
        n = 12
        k = int(math.log2(len(core)))
        relevant = (3, 9, 5)[:k]
        table = lift_core(CoreTable(k, core), relevant, n)
        oracle = make_counting_oracle(table)
        cfg = TesterConfig(eps=0.25, k=k, m=10)
        separated = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
            buckets = _buckets_from_masks(masks, n)
            parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
            hit = {j for j, p in enumerate(parts) for c in relevant if p.coord_mask >> (c - 1) & 1}
            separated += len(hit) == k
            others = [j for j in range(cfg.num_parts) if j not in hit]
            keep = sorted(hit | set(others[: k - len(hit)]))
            queries = oracle.query_count
            selected, dropped = select_initial_parts(oracle, parts, cfg, rng, exact_stub(table))
            assert oracle.query_count == queries
            assert [id(p) for p in selected] == [id(parts[j]) for j in keep]
            assert dropped == 0.0
        assert separated >= 15

    def test_desk_ties_go_to_the_lowest_index(self):
        # the estimator sees the part masks themselves, not their
        # complements; equal estimates keep the lower-index part
        n = 10
        table = and_junta(n, (1, 2))
        cfg = TesterConfig(eps=0.25, k=3, m=10)
        rng = np.random.default_rng(3)
        masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
        buckets = _buckets_from_masks(masks, n)
        parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
        own = np.zeros(cfg.num_parts)
        own[[4, 7, 20, 30]] = [0.5, 0.25, 0.5, 0.25]
        seen = []

        def fixed(oracle, batch, m, rng):
            seen.append(list(batch))
            return own.copy()

        selected, dropped = select_initial_parts(make_counting_oracle(table), parts, cfg, rng, fixed)
        assert seen == [[p.coord_mask for p in parts]]
        assert [id(p) for p in selected] == [id(parts[j]) for j in (4, 7, 20)]
        assert dropped == 0.25
        own[:] = 0.0
        selected, dropped = select_initial_parts(make_counting_oracle(table), parts, cfg, rng, fixed)
        assert [id(p) for p in selected] == [id(p) for p in parts[:3]]
        assert dropped == 0.0

    def test_select_query_accounting(self):
        # one batch of the 4k^2 part masks, m (4k^2 + 1) queries
        n = 8
        rng = np.random.default_rng(7)
        table = FunctionTable(n, rng.uniform(0, 1, 1 << n))
        oracle = make_counting_oracle(table)
        masks = [int(x) for x in rng.integers(0, 1 << n, size=16)]
        buckets = _buckets_from_masks(masks, n)
        for k in (1, 2, 3):
            cfg = TesterConfig(eps=0.25, k=k, q=16, m=25)
            assert cfg.num_parts == 4 * k * k
            parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
            before = oracle.query_count
            select_initial_parts(oracle, parts, cfg, rng)
            assert oracle.query_count - before == cfg.m * (cfg.num_parts + 1)

    def test_refine_isolates_single_relevant_pattern(self):
        n = 10
        table = lift_core(CoreTable(1, (0.0, 1.0)), (4,), n)
        oracle = make_counting_oracle(table)
        cfg = TesterConfig(eps=0.25, k=1, m=10)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
            parts = _initial_parts(_buckets_from_masks(masks, n), cfg.q, cfg.num_parts, rng)
            selected, _ = select_initial_parts(oracle, parts, cfg, rng, exact_stub(table))
            final, _, _ = refine_parts(oracle, selected, cfg, rng, exact_stub(table))
            assert final[0].coord_mask != 0
            assert 4 in coords_of(final[0].coord_mask)

    def test_refine_query_accounting(self):
        n = 8
        rng = np.random.default_rng(9)
        table = FunctionTable(n, rng.uniform(0, 1, 1 << n))
        oracle = make_counting_oracle(table)
        cfg = TesterConfig(eps=0.25, k=2, q=16, m=11)
        masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
        parts = _initial_parts(_buckets_from_masks(masks, n), cfg.q, cfg.num_parts, rng)
        selected, _ = select_initial_parts(oracle, parts, cfg, rng)
        before = oracle.query_count
        _, _, rounds = refine_parts(oracle, selected, cfg, rng)
        per_round = cfg.m * ((1 << cfg.k) + 1)
        assert oracle.query_count - before == per_round * rounds


def refine_with_spy(table, cfg, seed, estimator, monkeypatch):
    """Sweep and refinement from seed; returns the refinement's final
    parts, last-round estimate and rounds, its query count, and for each
    round the parts it started from."""
    started, split = [], []

    halves = VirtualPart.halves

    def spy(part):
        started.append(part)
        split.append(halves(part))
        return split[-1]

    monkeypatch.setattr(VirtualPart, "halves", spy)
    oracle = make_counting_oracle(table)
    rng = np.random.default_rng(seed)
    masks = [int(x) for x in rng.integers(0, 1 << table.n, size=cfg.q)]
    parts = _initial_parts(_buckets_from_masks(masks, table.n), cfg.q, cfg.num_parts, rng)
    selected, _ = select_initial_parts(oracle, parts, cfg, rng, estimator)
    before = oracle.query_count
    result = refine_parts(oracle, selected, cfg, rng, estimator)
    rounds = [started[i : i + cfg.k] for i in range(0, len(started), cfg.k)]
    assert len(rounds) == result[2]
    # each final part is a half of the part it came from in the last round
    assert all(any(p is h for h in halves) for p, halves in zip(result[0], split[-cfg.k :]))
    return result, oracle.query_count - before, rounds


class TestRefineStop:
    """Refinement stops after the first round that leaves every selected
    part holding at most one occupied pattern, and a round costs
    m (2^k + 1) queries."""

    @staticmethod
    def _case(name):
        if name == "dictator_k1":
            table = lift_core(CoreTable(1, (0.0, 1.0)), (4,), 10)
            return table, TesterConfig(eps=0.25, k=1, q=64, m=20, num_parts=12), estimate_inf_mask
        if name == "and_k2_q1024":
            cfg = TesterConfig(eps=0.25, k=2, q=1024, m=20, num_parts=12)
            return and_junta(12, (3, 9)), cfg, estimate_inf_mask
        if name == "subadditive_k3":
            core = cached_cores("subadditive", 3, 0.25).member(1000)
            table = lift_core(core, (2, 7, 11), 12)
            return table, TesterConfig(eps=0.25, k=3, q=64, m=20, num_parts=12), estimate_inf_mask
        # test_constant_function_first_subset's case
        table = FunctionTable(8, [0.5] * (1 << 8))
        return table, TesterConfig(eps=0.25, k=2, m=10), exact_stub(table)

    CASES = ["dictator_k1", "and_k2_q1024", "subadditive_k3", "constant_k2"]

    @pytest.mark.parametrize("name", CASES)
    def test_stops_at_first_isolating_round(self, name, monkeypatch):
        table, cfg, est = self._case(name)
        seeds = [5] if name == "constant_k2" else range(8)
        for seed in seeds:
            (final, _, r), queries, rounds = refine_with_spy(table, cfg, seed, est, monkeypatch)
            assert 1 <= r <= default_refine_rounds(cfg.q, cfg.num_parts)
            if est is estimate_inf_mask:
                assert queries == cfg.m * ((1 << cfg.k) + 1) * r
            # round r left every part isolated
            assert all(len(p.masks) <= 1 for p in final)
            # no earlier round left every part isolated
            for j in range(1, r):
                assert any(len(p.masks) > 1 for p in rounds[j])

    @pytest.mark.parametrize("name", CASES[:3])
    def test_reference_estimator_stops_at_the_same_round(self, name, monkeypatch):
        # the shared-base loop, one mask at a time, draws the batched
        # estimator's stream: the same rounds, parts, estimate and query
        # count
        table, cfg, est = self._case(name)
        for seed in range(4):
            (final, eta, r), queries, _ = refine_with_spy(table, cfg, seed, est, monkeypatch)
            reference = refine_with_spy(table, cfg, seed, shared_base_estimator, monkeypatch)
            (ref_final, ref_eta, ref_r), ref_queries, _ = reference
            assert (ref_eta, ref_r, ref_queries) == (eta, r, queries)
            assert [p.masks for p in ref_final] == [p.masks for p in final]
            assert [p.size for p in ref_final] == [p.size for p in final]


def phi_of(parts):
    """The coordinate core input j reads: the lowest coordinate of final
    part j, or None for a part with none."""
    return tuple(min(coords_of(p.coord_mask), default=None) for p in parts)


class TestFinalCheck:
    @staticmethod
    def _run_stages(table, cfg, seed, cores=None):
        """Sampling, selection and refinement from seed with the exact
        estimator, then the core search over `cores` (the submodular grid
        cores when None): its (core, statistic)."""
        if cores is None:
            cores = cached_cores("submodular", cfg.k, cfg.core_grid)
        oracle = make_counting_oracle(table)
        rng = np.random.default_rng(seed)
        est = exact_stub(table)
        masks = [int(x) for x in rng.integers(0, 1 << table.n, size=cfg.q)]
        values = oracle.query_masks(np.asarray(masks, dtype=np.int64))
        parts = _initial_parts(_buckets_from_masks(masks, table.n), cfg.q, cfg.num_parts, rng)
        selected, _ = select_initial_parts(oracle, parts, cfg, rng, est)
        final, _, _ = refine_parts(oracle, selected, cfg, rng, est)
        return final_check_and_learn(masks, values, phi_of(final), cores, cfg.accept_threshold)

    def test_lifted_core_accepts(self):
        cores = cached_cores("submodular", 2, 0.25)
        h = cores.member(40)
        table = lift_core(h, (2, 7), 10)
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        core, dist = self._run_stages(table, cfg, seed=3)
        assert core is not None
        # first passing core in enumeration order is returned
        assert dist <= cfg.accept_threshold

    def test_true_core_has_zero_statistic(self):
        # restrict the search to the planted core (both slot orders):
        # replayed samples give exact consistency, statistic 0
        cores = cached_cores("submodular", 2, 0.25)
        h = cores.member(40)
        swapped = CoreTable(2, (h.values[0], h.values[2], h.values[1], h.values[3]))
        pair = CoreSet("submodular", 2, 0.25, [h.values, swapped.values])
        table = lift_core(h, (2, 7), 10)
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        core, dist = self._run_stages(table, cfg, 3, pair)
        assert core is not None
        assert dist == 0.0

    def test_parity_blend_rejected_with_no_core_scored(self, monkeypatch):
        # the parity blend is 1/2 from every 2-junta: the spread of the
        # samples within the learned core inputs alone, W/q, exceeds a^2,
        # so the search rejects before scoring any core
        from cubetest.valuations import parity_blend_table

        scanned = []
        blocks = tester._core_score_blocks

        def spy(cores, counts, means, within, q, ranges):
            ranges = list(ranges)
            scanned.append((within / q, ranges))
            return blocks(cores, counts, means, within, q, ranges)

        monkeypatch.setattr(tester, "_core_score_blocks", spy)
        table = parity_blend_table(12)
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        assert self._run_stages(table, cfg, seed=1) == (None, None)
        [(floor, ranges)] = scanned
        assert floor > cfg.accept_threshold
        assert ranges == []

    def test_empty_core_set_rejects_at_core_search(self):
        table = and_junta(10, (1, 2))
        cfg = TesterConfig(eps=0.25, k=2, m=10)
        empty = CoreSet("submodular", 2, 0.25, np.empty((0, 4)))
        assert self._run_stages(table, cfg, 4, empty) == (None, None)


def pattern_of(masks, coord):
    """Column pattern of a coordinate: bit t is its value on sample t."""
    return sum(((m >> (coord - 1)) & 1) << t for t, m in enumerate(masks))


def refined_to(masks, patterns, n):
    """The phi of a refinement whose final parts hold the given patterns
    of the samples `masks` (None: a part with none)."""
    buckets = _buckets_from_masks(masks, n)
    return tuple(None if p is None else min(coords_of(buckets[p])) for p in patterns)


class TestCoreStatistics:
    """The sufficient-statistics core search against the dense per-sample
    formula of `oracles.naive_core_statistics`."""

    N = 10
    CASES = [("submodular", 2, (3, 8)), ("subadditive", 3, (2, 5, 9)), ("self_bounding", 2, (7, 4))]

    def _instance(self, class_tag, k, coords, q, near_core, seed):
        cores = cached_cores(class_tag, k, 0.25)
        rng = np.random.default_rng(seed)
        if len(cores) > 400:
            # the Python-loop oracle is O(|cores| * q): check a sample of
            # rows, kept in enumeration order
            rows = np.sort(rng.choice(len(cores), size=400, replace=False))
            cores = CoreSet(class_tag, k, 0.25, cores.tables[rows])
        if near_core:
            lifted = lift_core(cores.member(int(rng.integers(len(cores)))), coords, self.N)
            noisy = lifted.values + rng.normal(0.0, 0.05, 1 << self.N)
            table = FunctionTable(self.N, np.clip(noisy, 0.0, 1.0))
        else:
            table = FunctionTable(self.N, rng.uniform(0.0, 1.0, 1 << self.N))
        masks = [int(x) for x in rng.integers(0, 1 << self.N, size=q)]
        values = table.values[np.asarray(masks)]
        return cores, table, masks, values

    @staticmethod
    def _separating_threshold(stats):
        # a threshold strictly between two statistics, far from both
        # compared to rounding, so the first passing index is well defined
        s = np.unique(stats)
        for i in range(len(s) // 3, len(s) - 1):
            if s[i + 1] - s[i] > 1e-9:
                return float((s[i] + s[i + 1]) / 2)
        raise AssertionError("no separated pair of statistics")

    def _check_search(self, cores, table, masks, values, patterns, naive):
        phi = refined_to(masks, patterns, self.N)
        naive = np.asarray(naive)
        threshold = self._separating_threshold(naive)
        core, dist = final_check_and_learn(masks, values, phi, cores, threshold)
        first = int(np.flatnonzero(naive <= threshold)[0])
        assert core == cores.member(first)
        assert dist == pytest.approx(naive[first], abs=1e-12)

    @pytest.mark.parametrize("q", [16, 64, 1024])
    @pytest.mark.parametrize("near_core", [False, True])
    @pytest.mark.parametrize("class_tag,k,coords", CASES)
    def test_matches_dense_formula(self, class_tag, k, coords, q, near_core):
        cores, table, masks, values = self._instance(class_tag, k, coords, q, near_core, seed=q + k)
        patterns = tuple(pattern_of(masks, c) for c in coords)
        naive = naive_core_statistics(values, patterns, cores.tables)
        stats = full_scan_core_statistics(cores, masks, values, coords)
        assert stats.shape == (len(cores),)
        assert np.max(np.abs(stats - naive)) <= 1e-12
        self._check_search(cores, table, masks, values, patterns, naive)

    @pytest.mark.parametrize("q", [16, 1024])
    def test_unhit_core_inputs(self, q):
        # a dead part hardwires its core input to 0, so every input with
        # that bit set has no samples (n_u = 0)
        cores, table, masks, values = self._instance("subadditive", 3, (2, 5, 9), q, True, seed=7)
        phi = (2, None, 9)
        patterns = (pattern_of(masks, 2), None, pattern_of(masks, 9))
        naive = naive_core_statistics(values, patterns, cores.tables)
        stats = full_scan_core_statistics(cores, masks, values, phi)
        assert np.max(np.abs(stats - naive)) <= 1e-12
        assert np.all(stats >= 0.0)
        self._check_search(cores, table, masks, values, patterns, naive)

    # block-boundary cases: (rows, row of the first passing core or None);
    # -1 is the last row
    BOUNDARY_CASES = [
        (4095, 4094), (4095, -1), (4095, None),
        (4096, 4095), (4096, -1), (4096, None),
        (4097, 4095), (4097, 4096), (4097, -1), (4097, None),
        (8193, 4095), (8193, 4096), (8193, -1), (8193, None),
    ]

    @pytest.mark.parametrize("rows,target", BOUNDARY_CASES)
    def test_scan_across_block_boundaries(self, rows, target):
        # rows sampled in order from the 148,815 subadditive k = 3 cores,
        # so the scan crosses one or two of its CORE_SCAN_ROWS boundaries
        assert tester.CORE_SCAN_ROWS == 4096
        full = cached_cores("subadditive", 3, 0.25)
        rng = np.random.default_rng(rows)
        picked = np.sort(rng.choice(len(full), size=rows, replace=False))
        cores = CoreSet("subadditive", 3, 0.25, full.tables[picked])
        coords = (2, 5, 9)
        row = rows - 1 if target == -1 else (target if target is not None else rows // 2)
        lifted = lift_core(cores.member(row), coords, self.N)
        noisy = lifted.values + rng.normal(0.0, 0.02, 1 << self.N)
        table = FunctionTable(self.N, np.clip(noisy, 0.0, 1.0))
        # q = 16 samples, each of the 8 core inputs twice, keep the naive
        # oracle cheap and tell every pair of distinct cores apart
        masks = []
        for t, x in enumerate(rng.integers(0, 1 << self.N, size=16)):
            x = int(x)
            for j, c in enumerate(coords):
                x = (x & ~(1 << (c - 1))) | (((t >> j) & 1) << (c - 1))
            masks.append(x)
        values = table.values[np.asarray(masks)]
        patterns = tuple(pattern_of(masks, c) for c in coords)
        naive = np.asarray(naive_core_statistics(values, patterns, cores.tables))
        stats = full_scan_core_statistics(cores, masks, values, coords)
        assert stats.shape == (rows,)
        assert np.max(np.abs(stats - naive)) <= 1e-12
        phi = refined_to(masks, patterns, self.N)
        if target is None:
            threshold = float(naive.min()) / 2
            assert threshold > 1e-9
        else:
            # the noisy lift of core `row` scores below every core
            # before it: pass it and as many later cores as possible
            earlier = float(naive[:row].min())
            below = float(naive[naive < earlier].max())
            assert naive[row] <= below and earlier - below > 1e-9
            threshold = (below + earlier) / 2
        core, dist = final_check_and_learn(masks, values, phi, cores, threshold)
        if target is None:
            assert (core, dist) == (None, None)
            return
        assert int(np.flatnonzero(naive <= threshold)[0]) == row
        assert core == cores.member(row)
        assert dist == pytest.approx(naive[row], abs=1e-12)

    def test_empty_core_set(self):
        empty = CoreSet("subadditive", 3, 0.25, np.empty((0, 8)))
        _, table, masks, values = self._instance("subadditive", 3, (2, 5, 9), 16, True, seed=3)
        coords = (2, 5, 9)
        stats = full_scan_core_statistics(empty, masks, values, coords)
        assert stats.shape == (0,)
        phi = refined_to(masks, tuple(pattern_of(masks, c) for c in coords), self.N)
        assert phi == coords
        threshold = TesterConfig(eps=0.25, k=3, q=16).accept_threshold
        assert final_check_and_learn(masks, values, phi, empty, threshold) == (None, None)

    def _search_peak(self, passing):
        # subadditive k=3 has 148,815 cores: a |cores| x q float array at
        # q=1024 would take 1.16 GB, a |cores| x 2^k one 9.5 MB.  The scan
        # holds CORE_SCAN_ROWS x 2^k doubles at a time, whether it stops
        # early or, with a threshold below every score, scores every core.
        # Coordinate 9 is 1 on every sample, so no sample has a core input
        # u < 4 (n_u = 0 over the whole prefix) and no row is pruned.  The
        # samples come from a noisy lift of a core late in enumeration
        # order, close enough to pass at the default radius
        cores = cached_cores("subadditive", 3, 0.25)
        assert len(cores) == 148_815
        n, q = 12, 1024
        rng = np.random.default_rng(5)
        coords = (2, 5, 9)
        lifted = lift_core(cores.member(140_000), coords, n)
        table = FunctionTable(n, np.clip(lifted.values + rng.normal(0.0, 0.05, 1 << n), 0.0, 1.0))
        masks = [int(x) | 1 << 8 for x in rng.integers(0, 1 << n, size=q)]
        values = table.values[np.asarray(masks)]
        phi = refined_to(masks, tuple(pattern_of(masks, c) for c in coords), n)
        assert phi == coords
        cfg = TesterConfig(eps=0.25, k=3, q=q)
        counts, means, within = tester._sufficient_statistics(masks, values, coords)
        assert not np.any(counts[:4])
        if not passing:
            # between the floor W/q and the lowest score: every row is
            # scored, and none passes
            lowest = float(full_scan_core_statistics(cores, masks, values, coords).min())
            assert lowest - within / q > 1e-9
            cfg = replace(cfg, accept_threshold=(within / q + lowest) / 2)
        ranges = tester._candidate_ranges(cores, counts, means, within, q, cfg.accept_threshold)
        assert list(ranges) == [(0, len(cores))]
        tracemalloc.start()
        try:
            core, _ = final_check_and_learn(masks, values, phi, cores, cfg.accept_threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return core, peak

    def test_core_search_memory_bounded(self):
        core, peak = self._search_peak(passing=True)
        assert core is not None
        assert peak < 2 * 2 ** 20

    def test_core_search_memory_bounded_when_none_passes(self):
        core, peak = self._search_peak(passing=False)
        assert core is None
        assert peak < 2 * 2 ** 20


class TestPrunedScan:
    """`final_check_and_learn` scores only the rows `_candidate_ranges`
    leaves, the runs of rows whose shared prefix leaves room under the
    threshold, and learns the core, with the same bits of
    empirical_distance, and gives the verdict that scoring every row
    (`oracles.full_scan_core_statistics`) gives."""

    N = 10
    SETS = [("submodular", 1), ("submodular", 2), ("submodular", 3), ("subadditive", 3)]

    @staticmethod
    def _run_rows(cores, bounds, limit):
        """Rows of the runs whose prefix bound is at most `limit`."""
        rows = np.zeros(len(cores), dtype=bool)
        starts = cores.run_starts
        for j in np.flatnonzero(bounds <= limit):
            rows[starts[j] : starts[j + 1]] = True
        return rows

    def _check(self, cores, masks, values, phi, threshold):
        """The pruned search against the full scan; returns the learned
        core, its statistic and the scanned ranges."""
        q = len(masks)
        core, dist = final_check_and_learn(masks, values, phi, cores, threshold)
        stats = full_scan_core_statistics(cores, masks, values, phi)
        passing = np.flatnonzero(stats <= threshold)
        if passing.size:
            assert core == cores.member(int(passing[0]))
            assert dist == float(stats[passing[0]])
        else:
            assert (core, dist) == (None, None)
        counts, means, within = tester._sufficient_statistics(masks, values, phi)
        ranges = list(tester._candidate_ranges(cores, counts, means, within, q, threshold))
        # in order, and no two meeting
        bounds = [b for r in ranges for b in r]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        scanned = np.zeros(len(cores), dtype=bool)
        for lo, hi in ranges:
            scanned[lo:hi] = True
        assert not np.any(stats[~scanned] <= threshold)
        # the rows of exactly the runs the prefix bound keeps, up to the
        # rounding slack about the bound
        if within / q <= threshold:
            width = (1 << cores.k) >> 1
            dev = cores.run_prefixes - means[:width]
            run_bounds = (dev * dev) @ counts[:width]
            room, slack = q * threshold - within, 1e-6 * q * threshold
            assert np.all(scanned[self._run_rows(cores, run_bounds, room - slack)])
            assert not np.any(scanned & ~self._run_rows(cores, run_bounds, room + slack))
        # every scanned row gets the bits the full scan gives it
        blocks = tester._core_score_blocks(cores, counts, means, within, q, ranges)
        assert np.array_equal(np.concatenate([b for _, b in blocks] or [np.zeros(0)]), stats[scanned])
        return core, dist, ranges

    def _noisy_lifts(self, cores, rng, cases):
        """Samples of noisy lifts of random cores, some with a dead part."""
        k = cores.k
        for _ in range(cases):
            coords = tuple(int(c) + 1 for c in rng.choice(self.N, size=k, replace=False))
            lifted = lift_core(cores.member(int(rng.integers(len(cores)))), coords, self.N)
            noise = rng.normal(0.0, float(rng.choice([0.02, 0.1, 0.2])), 1 << self.N)
            table = FunctionTable(self.N, np.clip(lifted.values + noise, 0.0, 1.0))
            masks = [int(x) for x in rng.integers(0, 1 << self.N, size=int(rng.choice([16, 51, 64, 256])))]
            values = table.values[np.asarray(masks)]
            phi = coords if rng.random() < 0.8 or k == 1 else (None,) + coords[1:]
            yield masks, values, phi

    @pytest.mark.parametrize("class_tag, k", SETS)
    def test_same_search_as_the_full_scan(self, class_tag, k):
        # the default radius and thresholds equal to a score (ties at the
        # threshold)
        cores = cached_cores(class_tag, k, 0.25)
        rng = np.random.default_rng(1000 + 10 * k + len(class_tag))
        pruned = accepted = 0
        for masks, values, phi in self._noisy_lifts(cores, rng, 12):
            stats = full_scan_core_statistics(cores, masks, values, phi)
            for threshold in (0.03515625, *np.quantile(stats, [0.0, 0.001, 0.05], method="lower")):
                core, _, ranges = self._check(cores, masks, values, phi, float(threshold))
                pruned += sum(hi - lo for lo, hi in ranges) < len(cores)
                accepted += core is not None
        assert pruned > 0 and accepted > 0

    @pytest.mark.parametrize("class_tag, k", SETS[1:])
    def test_shuffled_rows_search_as_the_full_scan_in_their_order(self, class_tag, k):
        # rows out of enumeration order make many short runs; the search
        # still finds the first passing row in the set's own order
        full = cached_cores(class_tag, k, 0.25)
        rng = np.random.default_rng(2000 + k)
        cores = CoreSet(class_tag, k, 0.25, full.tables[rng.permutation(len(full))])
        assert len(cores.run_starts) - 1 > len(full.run_starts) - 1
        accepted = 0
        for masks, values, phi in self._noisy_lifts(cores, rng, 6):
            stats = full_scan_core_statistics(cores, masks, values, phi)
            for threshold in (0.03515625, *np.quantile(stats, [0.0, 0.01], method="lower")):
                core, _, _ = self._check(cores, masks, values, phi, float(threshold))
                accepted += core is not None
        assert accepted > 0

    @pytest.mark.parametrize("class_tag, k", SETS)
    def test_tie_at_the_threshold_from_the_prefix_alone(self, class_tag, k):
        # the samples read a core's own values off the prefix and values
        # off the grid on it, so the prefix bound of the core's run is its
        # whole score; at a threshold equal to that score, and q not a
        # power of 2, q * threshold - W rounds below the bound about half
        # the time, and only the widened bound keeps the run
        cores = cached_cores(class_tag, k, 0.25)
        width = (1 << k) >> 1
        rng = np.random.default_rng(3000 + k + len(class_tag))
        for _ in range(20):
            coords = tuple(int(c) + 1 for c in rng.choice(self.N, size=k, replace=False))
            row = int(rng.integers(len(cores)))
            seen = cores.tables[row].copy()
            shift = rng.uniform(0.01, 0.1, width)
            seen[:width] += np.where(seen[:width] < 0.5, shift, -shift)
            table = lift_core(CoreTable(k, tuple(seen)), coords, self.N)
            masks = [int(x) for x in rng.integers(0, 1 << self.N, size=int(rng.choice([51, 77, 100])))]
            values = table.values[np.asarray(masks)]
            stats = full_scan_core_statistics(cores, masks, values, coords)
            core, _, _ = self._check(cores, masks, values, coords, float(stats.min()))
            assert core is not None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("forced, counted", [(1 << 8, ()), (0b10, (1, 3))])
    def test_prefix_inputs_without_samples(self, forced, counted):
        # coordinate 9 (core input bit 2) on every sample: no sample has a
        # prefix input, the prefix bounds nothing and every row is
        # scanned; coordinate 2 (bit 0): only inputs 1 and 3 of the prefix
        # have samples.  Nothing divides by a count of 0
        cores = cached_cores("subadditive", 3, 0.25)
        rng = np.random.default_rng(31)
        coords = (2, 5, 9)
        lifted = lift_core(cores.member(90_000), coords, self.N)
        table = FunctionTable(self.N, np.clip(lifted.values + rng.normal(0.0, 0.05, 1 << self.N), 0.0, 1.0))
        masks = [int(x) | forced for x in rng.integers(0, 1 << self.N, size=64)]
        values = table.values[np.asarray(masks)]
        counts, _, _ = tester._sufficient_statistics(masks, values, coords)
        assert tuple(np.flatnonzero(counts[:4])) == counted
        core, _, ranges = self._check(cores, masks, values, coords, 0.03515625)
        assert core is not None
        if not counted:
            assert ranges == [(0, len(cores))]
        else:
            assert sum(hi - lo for lo, hi in ranges) < len(cores)

    def test_floor_over_threshold_scans_no_row(self):
        # W/q > a^2: every core scores at least W/q, so none is scored
        cores = cached_cores("subadditive", 3, 0.25)
        rng = np.random.default_rng(32)
        table = FunctionTable(self.N, rng.uniform(0.0, 1.0, 1 << self.N))
        masks = [int(x) for x in rng.integers(0, 1 << self.N, size=64)]
        values = table.values[np.asarray(masks)]
        _, _, within = tester._sufficient_statistics(masks, values, (2, 5, 9))
        assert within / 64 > 0.03515625
        core, _, ranges = self._check(cores, masks, values, (2, 5, 9), 0.03515625)
        assert core is None
        assert ranges == []

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_passing_row_at_each_end_of_its_run(self, end):
        # the samples read one core exactly, the first (or the last) row
        # of a run that starts (or ends) at a row not divisible by 4:
        # W = 0, that core scores 0 and every other one more than the
        # threshold, so only its run is kept, with its own bounds
        cores = cached_cores("subadditive", 3, 0.25)
        starts = cores.run_starts
        if end == "first":
            j = int(np.flatnonzero(starts[:-1] % 4)[0])
            row = int(starts[j])
        else:
            j = int(np.flatnonzero(starts[1:] % 4)[0])
            row = int(starts[j + 1]) - 1
        coords = (2, 5, 9)
        table = lift_core(cores.member(row), coords, self.N)
        rng = np.random.default_rng(33)
        masks = [int(x) for x in rng.integers(0, 1 << self.N, size=64)]
        values = table.values[np.asarray(masks)]
        counts, _, within = tester._sufficient_statistics(masks, values, coords)
        assert within == 0.0 and np.all(counts > 0)
        core, dist, ranges = self._check(cores, masks, values, coords, 1e-12)
        assert core == cores.member(row)
        assert dist == 0.0
        assert ranges == [(int(starts[j]), int(starts[j + 1]))]


@pytest.mark.parametrize("class_tag, k", TestPrunedScan.SETS)
def test_core_scores_do_not_depend_on_the_block(class_tag, k):
    # `_core_score_blocks` gives every row of any range the bits the
    # whole-set scan gives it: ranges from odd rows of each length 1 to
    # 40, ranges across each CORE_SCAN_ROWS boundary, and every row from
    # row 1 on, whose blocks all start one row past the whole scan's
    cores = cached_cores(class_tag, k, 0.25)
    rows, step = len(cores), tester.CORE_SCAN_ROWS
    rng = np.random.default_rng(4000 + 10 * k + len(class_tag))
    for q in (51, 64, 100):
        masks = [int(x) for x in rng.integers(0, 1 << 10, size=q)]
        values = rng.uniform(0.0, 1.0, q)
        phi = tuple(int(c) + 1 for c in rng.choice(10, size=k, replace=False))
        whole = full_scan_core_statistics(cores, masks, values, phi)
        ranges = [(1, rows)]
        for length in range(1, 41):
            lo = 2 * int(rng.integers((rows - 1) // 2)) + 1
            ranges.append((lo, min(lo + length, rows)))
        for edge in range(step, rows, step):
            ranges += [(edge - 1, edge + 2), (edge - 7, min(edge + 30, rows))]
        stats = tester._sufficient_statistics(masks, values, phi)
        for lo, hi in ranges:
            blocks = tester._core_score_blocks(cores, *stats, q, [(lo, hi)])
            got = np.concatenate([b for _, b in blocks])
            assert got.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


class TestAgainstPerMaskEstimator:
    """The batched selection and refinement rounds give the report that
    the shared-base reference loop, one mask at a time, gives, byte for
    byte."""

    @staticmethod
    def _instance(case, seed):
        from cubetest.valuations import make_far_instance

        if case == "criterion8":
            # acceptance criterion 8's plan: AND core, far_mode_a, q=1024
            cfg = TesterConfig(eps=0.25, k=2, q=1024, m=1000, core_grid=0.25, seed=seed)
            table = make_far_instance(
                "a", "submodular", 12, 2, 0.25, gamma=0.25,
                rng=np.random.default_rng((seed, 0xC0FE)), core_values=(0.0, 0.0, 0.0, 1.0),
            ).table
            return "submodular", cfg, table
        cfg = TesterConfig(eps=0.25, k=3, q=64, m=1000, core_grid=0.25, seed=seed)
        cores = cached_cores("subadditive", 3, 0.25)
        rng = np.random.default_rng(seed)
        core = cores.member(int(rng.integers(len(cores))))
        return "subadditive", cfg, lift_core(core, (2, 7, 11), 12)

    CASES = [("criterion8", 8000), ("criterion8", 8001), ("subadditive_k3", 1), ("subadditive_k3", 2)]

    @pytest.mark.parametrize("case, seed", CASES)
    def test_same_report(self, case, seed):
        class_tag, cfg, table = self._instance(case, seed)
        batched = run_tester(make_counting_oracle(table), class_tag, cfg)
        reference = run_tester(
            make_counting_oracle(table), class_tag, cfg, estimator=shared_base_estimator
        )
        assert batched == reference
        assert report_to_lines(batched) == report_to_lines(reference)
        assert batched.queries_used == exact_queries(cfg, batched.refine_rounds_used)


class TestRunTester:
    def test_determinism(self):
        table = and_junta(10, (2, 8))
        cfg = TesterConfig(eps=0.25, k=2, q=64, m=200, seed=11)
        r1 = run_tester(make_counting_oracle(table), "submodular", cfg)
        r2 = run_tester(make_counting_oracle(table), "submodular", cfg)
        assert r1 == r2
        assert report_to_lines(r1) == report_to_lines(r2)

    def test_query_budget_formula(self):
        # 20 random configs: a run may stop refining early and costs
        # exactly the budget's formula in the rounds it used; one that
        # used every round costs the budget
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 3))
            q = int(rng.integers(4, 20))
            num_parts = int(rng.integers(k, 10))
            m = int(rng.integers(1, 40))
            cfg = TesterConfig(
                eps=0.3, k=k, q=q, m=m, num_parts=num_parts, seed=trial, core_grid=0.5
            )
            table = FunctionTable(n, rng.uniform(0, 1, 1 << n))
            oracle = make_counting_oracle(table)
            report = run_tester(oracle, "submodular", cfg)
            if report.refine_rounds_used == default_refine_rounds(cfg.q, cfg.num_parts):
                assert report.queries_used == cfg.query_budget()
            assert report.queries_used == exact_queries(cfg, report.refine_rounds_used)
            assert report.queries_used <= cfg.query_budget()
            assert report.queries_used == oracle.query_count

    def test_report_serialization_round_trip(self):
        table = and_junta(10, (3, 9))
        cfg = TesterConfig(eps=0.25, k=2, m=100, seed=5)
        report = run_tester(make_counting_oracle(table), "submodular", cfg)
        lines = report_to_lines(report)
        back = report_from_lines("\n".join(lines))
        assert back == report
        assert f"refine_rounds_used: {report.refine_rounds_used}" in lines
        # a record written before the rounds were kept still parses
        older = [ln for ln in lines if not ln.startswith("refine_rounds_used:")]
        assert report_from_lines("\n".join(older)) == replace(report, refine_rounds_used=None)

    def test_reject_report_round_trip(self):
        from cubetest.valuations import parity_blend_table

        cfg = TesterConfig(eps=0.25, k=2, m=100, seed=5)
        report = run_tester(
            make_counting_oracle(parity_blend_table(10)), "submodular", cfg
        )
        assert report.verdict == "reject"
        back = report_from_lines("\n".join(report_to_lines(report)))
        assert back == report

    def test_learned_core_present_iff_accept(self):
        # a lifted submodular grid core, accepted at seed 3 (the AND
        # junta, 0.306 from the grid cores, is rejected at the default
        # radius)
        cfg = TesterConfig(eps=0.25, k=2, m=100, seed=3)
        core = cached_cores("submodular", 2, 0.25).member(40)
        accept_report = run_tester(
            make_counting_oracle(lift_core(core, (1, 5), 10)), "submodular", cfg
        )
        assert accept_report.verdict == "accept"
        assert accept_report.learned_core is not None
        from cubetest.valuations import parity_blend_table

        reject_report = run_tester(
            make_counting_oracle(parity_blend_table(10)), "submodular", cfg
        )
        assert reject_report.verdict == "reject"
        assert reject_report.learned_core is None


class TestNearJuntaIsolation:
    """Pipeline accuracy when the input is close to, not exactly, a junta
    (exact-influence stub, so partition randomness is the only noise)."""

    def test_low_leftover_influence(self):
        n = 12
        eps = 0.02
        rng0 = np.random.default_rng(99)
        g = and_junta(n, (3, 9))
        noise = rng0.uniform(0, 1, 1 << n)
        f = FunctionTable(n, (1 - eps) * g.values + eps * noise)
        # l2 distance to the junta is at most eps by construction
        assert np.sqrt(np.mean((f.values - g.values) ** 2)) <= eps
        # no core is searched; a grid finer than eps leaves a default
        # accept radius
        cfg = TesterConfig(eps=eps, k=2, m=10, num_parts=200, core_grid=0.02)
        oracle = make_counting_oracle(f)
        est = exact_stub(f)
        failures = 0
        runs = 40
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
            parts = _initial_parts(_buckets_from_masks(masks, n), cfg.q, cfg.num_parts, rng)
            selected, _ = select_initial_parts(oracle, parts, cfg, rng, est)
            final, _, _ = refine_parts(oracle, selected, cfg, rng, est)
            leftover = 0
            for part in final:
                leftover |= part.coord_mask
            comp = sorted(coords_of(((1 << n) - 1) & ~leftover))
            if influence_exact(f, comp) > 100 * eps ** 2:
                failures += 1
        # target rate is 19/20; at 200 parts the only failure mode is a
        # pattern collision (~1/200 per run), observed 0 of 40
        assert failures <= runs // 20

    def test_empirical_distance_tracks_true_distance(self):
        n = 12
        q = 64
        g = and_junta(n, (3, 9))
        cores = cached_cores("submodular", 2, 0.25)
        fixed_cores = [cores.member(0), cores.member(40), cores.member(200)]
        cfg = TesterConfig(eps=0.25, k=2, q=q, m=200)
        eps_prime = 0.25
        bound = 2 * math.exp(-16 * q * eps_prime ** 4) + 5 * 4 / 2 ** q
        oracle = make_counting_oracle(g)
        runs = 50
        for h in fixed_cores:
            ok = 0
            for seed in range(runs):
                rng = np.random.default_rng(seed)
                masks = [int(x) for x in rng.integers(0, 1 << n, size=q)]
                values = oracle.query_masks(np.asarray(masks, dtype=np.int64))
                parts = _initial_parts(_buckets_from_masks(masks, n), cfg.q, cfg.num_parts, rng)
                selected, _ = select_initial_parts(oracle, parts, cfg, rng)
                final, _, _ = refine_parts(oracle, selected, cfg, rng)
                # h composed with the run's projection, as an n-bit table
                reps = phi_of(final)
                idx = np.arange(1 << n)
                core_idx = np.zeros(1 << n, dtype=np.int64)
                u = np.zeros(q, dtype=np.int64)
                for j, rep in enumerate(reps):
                    if rep is None:
                        continue
                    core_idx |= ((idx >> (rep - 1)) & 1) << j
                    # bit t of the final pattern: coordinate rep on sample t
                    bits = np.array([(m >> (rep - 1)) & 1 for m in masks], dtype=np.int64)
                    u |= bits << j
                h_arr = h.as_array()
                emp = math.sqrt(float(np.mean((values - h_arr[u]) ** 2)))
                true = math.sqrt(float(np.mean((g.values - h_arr[core_idx]) ** 2)))
                if abs(emp - true) <= 3 * eps_prime:
                    ok += 1
            assert ok / runs >= 1 - bound - 0.05 - 0.037  # sampling slack on 50 runs
