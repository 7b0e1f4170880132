import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from cubetest import cores as cores_module
from cubetest.cores import (
    CoreSet,
    CoreTable,
    cached_cores,
    core_of_junta,
    dist_core_to_set,
    dist_cores_to_set,
    enumerate_cores,
    grid_levels,
    lift_core,
)
from cubetest.influence import closest_junta
from cubetest.tables import BudgetError, FunctionTable, lp_distance
from cubetest.valuations import CHECKERS, UnsupportedClassError
from oracles import NAIVE_WITNESSES, naive_lp_distance, naive_min_distance_to_cores


def exhaustive_filter(class_tag, k, gamma):
    """Oracle: generate the whole grid, in np.ndindex order, and keep the
    tables the plain-loop class definition passes at the enumeration's
    tolerance."""
    kept = []
    for flat in itertools.product(grid_levels(gamma).tolist(), repeat=1 << k):
        if NAIVE_WITNESSES[class_tag](flat, k, gamma * 1e-6) is None:
            kept.append(flat)
    return kept


class TestEnumeration:
    def test_k1_submodular_unconstrained(self):
        cores = enumerate_cores("submodular", 1, 0.5)
        assert len(cores) == 9  # every 1-variable function qualifies
        assert len(cores) == len(grid_levels(0.5)) ** 2

    def test_k2_submodular_against_filter_oracle(self):
        cores = enumerate_cores("submodular", 2, 0.5)
        oracle = exhaustive_filter("submodular", 2, 0.5)
        assert len(cores) == len(oracle) == 50
        assert {tuple(row) for row in cores.tables} == set(oracle)

    def test_k2_additive_against_filter_oracle(self):
        cores = enumerate_cores("additive", 2, 0.5)
        oracle = exhaustive_filter("additive", 2, 0.5)
        assert len(cores) == len(oracle) == 6
        assert {tuple(row) for row in cores.tables} == set(oracle)

    def test_all_checker_classes_match_filter_oracle(self):
        for tag in ("unit_demand", "subadditive", "self_bounding"):
            cores = enumerate_cores(tag, 2, 0.5)
            oracle = exhaustive_filter(tag, 2, 0.5)
            assert {tuple(row) for row in cores.tables} == set(oracle), tag

    def test_k3_subadditive_against_filter_oracle(self):
        # row for row, in grid order: the enumeration filters the grid
        # through the library's subadditivity inequalities, the oracle
        # through its own loop over every pair
        cores = enumerate_cores("subadditive", 3, 0.5)
        oracle = exhaustive_filter("subadditive", 3, 0.5)
        assert len(cores) == len(oracle) == 2700
        assert [tuple(row) for row in cores.tables] == oracle

    @pytest.mark.parametrize("class_tag", sorted(CHECKERS))
    @pytest.mark.parametrize("k, gamma", [(0, 0.5), (0, 1 / 3), (1, 1 / 3), (2, 1 / 3), (3, 1.0), (3, 0.5)])
    def test_every_class_matches_filter_oracle_in_order(self, class_tag, k, gamma):
        cores = enumerate_cores(class_tag, k, gamma)
        assert [tuple(row) for row in cores.tables.tolist()] == exhaustive_filter(class_tag, k, gamma)

    def test_k0_counts(self):
        # a constant core: any grid value, or 0 where f(empty set) = 0
        assert len(enumerate_cores("submodular", 0, 0.5)) == 3
        assert len(enumerate_cores("additive", 0, 0.5)) == 1

    # sha256 of the enumerated tables' bytes, as the point-by-point
    # depth-first enumeration produced them: values and row order
    PINNED_DIGESTS = {
        ("submodular", 2): "d3ce1fa1bf04942b430ccb0bbea9e0beef5537483057cfa3908315d265e6ab5a",
        ("submodular", 3): "5d5f1b46ac3219b59bcfa29df01bb132d28d88bdbd255eb7d6fc77a83a1086db",
        ("subadditive", 2): "1341ca4a74926945a0bdeceb1c06132000b0f6a49cc823800cefe3747fd55689",
        ("subadditive", 3): "ef0726febf4ac985c1342d0548bc6c6fb78b26fe2dd101c7c1a451ee79b6e8f9",
        ("self_bounding", 3): "8d101f977696f75a8fba7f466f547850d7e586ce4405f60dd45fa85ce272865a",
    }

    @pytest.mark.parametrize("class_tag, k", sorted(PINNED_DIGESTS))
    def test_pinned_digest(self, class_tag, k):
        cores = enumerate_cores(class_tag, k, 0.25)
        assert hashlib.sha256(cores.tables.tobytes()).hexdigest() == self.PINNED_DIGESTS[class_tag, k]

    def test_peak_memory(self):
        # the 148,815 subadditive k = 3 cores take 9.1 MB; the CoreSet
        # copy doubles that, and the grid blocks must add little more
        tracemalloc.start()
        try:
            cores = enumerate_cores("subadditive", 3, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cores) == 148815
        assert peak < 24 * 2**20

    def test_members_lift_to_class_members(self):
        for tag in ("submodular", "additive", "unit_demand"):
            cores = enumerate_cores(tag, 2, 0.25)
            rng = np.random.default_rng(1)
            sample = rng.choice(len(cores), size=min(30, len(cores)), replace=False)
            for i in sample:
                lifted = lift_core(cores.member(int(i)), (2, 5), 6)
                assert CHECKERS[tag](lifted, 1e-9) is None

    def test_closed_under_permutation(self):
        cores = enumerate_cores("submodular", 2, 0.25)
        rows = {tuple(row) for row in cores.tables.tolist()}
        for v00, v10, v01, v11 in rows:
            assert (v00, v01, v10, v11) in rows

    def test_size_bound(self):
        for tag in ("submodular", "additive", "subadditive"):
            for k, gamma in ((1, 0.5), (2, 0.5)):
                cores = enumerate_cores(tag, k, gamma)
                assert len(cores) <= len(grid_levels(gamma)) ** (1 << k)

    def test_budget_error_names_count(self, monkeypatch):
        monkeypatch.setattr(cores_module, "GRID_BUDGET", 1000)
        with pytest.raises(BudgetError, match="65536 grid functions, budget is 1000"):
            enumerate_cores("submodular", 2, 1 / 15)

    def test_k_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_cores("submodular", 4, 0.5)

    @pytest.mark.parametrize("class_tag", ["xos", "coverage", "gross_substitutes", "oxs"])
    def test_class_without_checker(self, class_tag):
        with pytest.raises(UnsupportedClassError, match=f"no membership checker for class '{class_tag}'"):
            enumerate_cores(class_tag, 2, 0.25)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            enumerate_cores("submodular", -1, 0.25)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("xos", 2, 0.25), UnsupportedClassError, "no membership checker"),
            (("submodular", -1, 0.25), ValueError, "k must be >= 0"),
            (("submodular", 4, 0.5), ValueError, "cap"),
            (("submodular", 2, 0.3), ValueError, "divide"),
            (("submodular", 1, 1e-310), ValueError, "gamma=1e-310 is too small"),
            (("submodular", 2, 1 / 15), BudgetError, "65536"),
        ],
    )
    def test_errors_before_any_grid_block(self, monkeypatch, args, error, message):
        def refuse(*_):
            raise AssertionError("built a grid block before checking the arguments")

        monkeypatch.setattr(cores_module, "_grid_blocks", refuse)
        monkeypatch.setattr(cores_module, "GRID_BUDGET", 1000)
        with pytest.raises(error, match=message):
            enumerate_cores(*args)

    def test_budget_checked_before_the_levels_exist(self):
        # (10^6 + 1)^2 grid tables at k = 1: refused before a list of a
        # million levels, or any block, takes memory
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="1000002000001"):
                enumerate_cores("submodular", 1, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_grid_levels(self):
        assert grid_levels(0.25).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert grid_levels(1.0).tolist() == [0.0, 1.0]
        assert grid_levels(1 / 3) == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-15)

    def test_grid_levels_rejects_gamma_outside_unit_interval(self):
        for gamma in (0.0, -0.25, 1.5):
            with pytest.raises(ValueError, match="gamma must be in"):
                grid_levels(gamma)

    def test_gamma_must_divide_one(self):
        with pytest.raises(ValueError, match="divide"):
            enumerate_cores("submodular", 2, 0.3)

    @pytest.mark.parametrize("tables", [np.zeros((2, 8)), np.zeros(4), np.zeros((1, 2, 4))])
    def test_core_set_refuses_rows_of_the_wrong_width(self, tables):
        with pytest.raises(ValueError, match="expected rows of 4 core values"):
            CoreSet("submodular", 2, 0.25, tables)

    def test_deterministic_order(self):
        a = enumerate_cores("submodular", 2, 0.25)
        b = enumerate_cores("submodular", 2, 0.25)
        assert np.array_equal(a.tables, b.tables)


class TestDistance:
    def test_member_distance_zero(self):
        cores = enumerate_cores("submodular", 2, 0.25)
        member = cores.member(17)
        assert dist_core_to_set(member, cores) == 0.0

    def test_zero_iff_member(self):
        cores = enumerate_cores("additive", 2, 0.5)
        inside = CoreTable(2, (0.0, 0.5, 0.5, 1.0))
        outside = CoreTable(2, (0.0, 0.0, 0.0, 1.0))
        assert dist_core_to_set(inside, cores) == 0.0
        assert dist_core_to_set(outside, cores) > 0.0

    def test_and_core_matches_naive(self):
        cores = enumerate_cores("submodular", 2, 0.25)
        g = CoreTable(2, (0.0, 0.0, 0.0, 1.0))
        d = dist_core_to_set(g, cores)
        assert d == pytest.approx(naive_min_distance_to_cores(g.values, cores.tables, 2), abs=1e-12)
        assert d == pytest.approx(np.sqrt(0.09375), abs=1e-12)

    def test_singleton_set(self):
        h = CoreTable(2, (0.0, 0.25, 0.5, 0.75))
        singleton = CoreSet("submodular", 2, 0.25, [h.values])
        g = CoreTable(2, (1.0, 0.0, 0.0, 1.0))
        expected = lp_distance(FunctionTable(2, g.values), FunctionTable(2, h.values), 2.0)
        assert dist_core_to_set(g, singleton) == pytest.approx(expected, abs=1e-12)

    def test_empty_set_rejected(self):
        empty = CoreSet("submodular", 2, 0.25, np.empty((0, 4)))
        with pytest.raises(ValueError, match="empty"):
            dist_core_to_set(CoreTable(2, (0.0,) * 4), empty)

    def test_arity_mismatch(self):
        cores = enumerate_cores("submodular", 2, 0.5)
        with pytest.raises(ValueError):
            dist_core_to_set(CoreTable(1, (0.0, 1.0)), cores)

    # unchecked, an infinite p puts every grid core 1.0 from the set,
    # members included
    @pytest.mark.parametrize("p", [float("nan"), 0.5, float("inf")])
    def test_nan_or_sub_one_p_rejected(self, p):
        cores = enumerate_cores("submodular", 2, 0.25)
        with pytest.raises(ValueError, match="p must be >= 1"):
            dist_core_to_set(CoreTable(2, (0.0, 0.0, 0.0, 1.0)), cores, p)

    def test_p_one_matches_naive(self):
        cores = enumerate_cores("submodular", 2, 0.25)
        g = CoreTable(2, (0.0, 0.0, 0.0, 1.0))
        d = dist_core_to_set(g, cores, 1.0)
        naive = min(naive_lp_distance(g.values, row, 2, 1.0) for row in cores.tables)
        assert d == pytest.approx(naive, abs=1e-12)


class TestDistanceBatch:
    @pytest.mark.parametrize(
        "class_tag, k, rows",
        [("additive", 1, 3), ("submodular", 2, 50), ("subadditive", 3, 40)],
    )
    def test_matches_one_core_at_a_time(self, class_tag, k, rows):
        # 148,815 subadditive cores span several blocks of cores and of rows
        cores = cached_cores(class_tag, k, 0.25)
        rng = np.random.default_rng(k)
        values = rng.uniform(0.0, 1.0, (rows, 1 << k))
        values[0] = cores.tables[len(cores) // 2]  # a member: distance 0
        got = dist_cores_to_set(values, cores)
        expected = [dist_core_to_set(CoreTable(k, tuple(v)), cores) for v in values]
        assert got.shape == (rows,)
        # |g|^2 - 2 g.c + |c|^2 agrees in the square; near 0 its ~1e-16
        # rounding can read as a distance of about 1e-8
        assert np.allclose(got**2, np.square(expected), rtol=0.0, atol=1e-14)
        assert got[0] < 1e-7

    def test_shape_and_empty_set_rejected(self):
        cores = enumerate_cores("submodular", 2, 0.5)
        with pytest.raises(ValueError, match="rows of 4"):
            dist_cores_to_set(np.zeros((3, 2)), cores)
        empty = CoreSet("submodular", 2, 0.25, np.empty((0, 4)))
        with pytest.raises(ValueError, match="empty"):
            dist_cores_to_set(np.zeros((3, 4)), empty)


class TestLift:
    def test_dictator(self):
        table = lift_core(CoreTable(1, (0.0, 1.0)), (1,), 3)
        assert list(table.values) == [float((m >> 0) & 1) for m in range(8)]

    def test_lift_then_closest_junta(self):
        h = CoreTable(2, (0.0, 0.25, 0.5, 1.0))
        table = lift_core(h, (2, 4), 6)
        _, dist = closest_junta(table, 2)
        assert dist < 1e-12

    def test_coordinate_order_swaps_core(self):
        h = CoreTable(2, (0.0, 0.25, 0.5, 1.0))
        a = lift_core(h, (2, 1), 4)
        b = lift_core(CoreTable(2, (0.0, 0.5, 0.25, 1.0)), (1, 2), 4)
        assert a == b

    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            lift_core(CoreTable(2, (0.0,) * 4), (3, 3), 5)

    def test_core_of_junta_inverts_lift(self):
        h = CoreTable(2, (0.1, 0.4, 0.6, 0.9))
        table = lift_core(h, (5, 2), 6)
        assert core_of_junta(table, (5, 2)) == h
