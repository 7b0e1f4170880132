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
from oracles import (
    NAIVE_WITNESSES, naive_lp_distance, naive_min_distance_to_cores, submodular_k2_class_distance
)


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

    # sha256 of the enumerated tables' bytes at gamma 1/2 and 1/4, as the
    # point-by-point depth-first enumeration produced them: values and
    # row order
    PINNED_DIGESTS = {
        ("additive", 0): (
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        ),
        ("additive", 1): (
            "89edc71daa49ea970d1e329693f8a66277447ce894970798d5f049389829ad50",
            "d1b6a58c81206d5aabf55b99babd0d1f4b6dbeba4fcdfc09dc427297f0c793b6",
        ),
        ("additive", 2): (
            "0ffcfc844a34ac626a4274199ded42697206011e836ced3303fa67d8af2e6d6f",
            "597558c417cc98fc063ccf68a0422e581059da6a516ae3efd747b93d968695aa",
        ),
        ("additive", 3): (
            "13979edaf139a8f560111160550cbdcafcfff3830432cca03a0797461e09d057",
            "d5abaa3e2ce1c393680d7e634d25231c91ea1042bf36d1335579bc28c9500e21",
        ),
        ("self_bounding", 0): (
            "9536689a4941c84ded438e9002674c39b2d5d1024a7b34232ee82e4cd4664931",
            "b775cb658293f2d9056d63a2bb64185bb77284c3a55650287f38ab52c8758828",
        ),
        ("self_bounding", 1): (
            "dd5b41c949a9fea0405678a5c101550bbff9d57eb1eb8a6139591953b63805cb",
            "8b0e533816f1dbf53fd70ba34ef1b968e55ede5ec4b626ef04c19f660cf1b81c",
        ),
        ("self_bounding", 2): (
            "351798a2418970e9a25b5cf853ca261953e0d70ee71360d858e67137f96adc39",
            "63aa53d7abb40faa9d0108f9b02fd31e77940cb60f913fa8a59f855ee6626429",
        ),
        ("self_bounding", 3): (
            "34ac72b710e7671040e9b1d12c128a280143359d6e8e97a0906e560db3881f81",
            "8d101f977696f75a8fba7f466f547850d7e586ce4405f60dd45fa85ce272865a",
        ),
        ("subadditive", 0): (
            "9536689a4941c84ded438e9002674c39b2d5d1024a7b34232ee82e4cd4664931",
            "b775cb658293f2d9056d63a2bb64185bb77284c3a55650287f38ab52c8758828",
        ),
        ("subadditive", 1): (
            "dd5b41c949a9fea0405678a5c101550bbff9d57eb1eb8a6139591953b63805cb",
            "8b0e533816f1dbf53fd70ba34ef1b968e55ede5ec4b626ef04c19f660cf1b81c",
        ),
        ("subadditive", 2): (
            "6d880a88a40f6e9c046ff85104ea8eae2d69a0312f24e9343d8277e8e2bcd1d1",
            "1341ca4a74926945a0bdeceb1c06132000b0f6a49cc823800cefe3747fd55689",
        ),
        ("subadditive", 3): (
            "1d14ed00666bcb62575e37dbe924a43a45f10baa2a53748788698c10ceb12414",
            "ef0726febf4ac985c1342d0548bc6c6fb78b26fe2dd101c7c1a451ee79b6e8f9",
        ),
        ("submodular", 0): (
            "9536689a4941c84ded438e9002674c39b2d5d1024a7b34232ee82e4cd4664931",
            "b775cb658293f2d9056d63a2bb64185bb77284c3a55650287f38ab52c8758828",
        ),
        ("submodular", 1): (
            "dd5b41c949a9fea0405678a5c101550bbff9d57eb1eb8a6139591953b63805cb",
            "8b0e533816f1dbf53fd70ba34ef1b968e55ede5ec4b626ef04c19f660cf1b81c",
        ),
        ("submodular", 2): (
            "6a96676403d5cfa78e05616a6d2ac35b32f2f63ae6c93519a4ae8f4d284e2749",
            "d3ce1fa1bf04942b430ccb0bbea9e0beef5537483057cfa3908315d265e6ab5a",
        ),
        ("submodular", 3): (
            "27c0eeec17de20c1960f7be9a1fa07bad2e7e376437cd340eeaca4f5aaea628c",
            "5d5f1b46ac3219b59bcfa29df01bb132d28d88bdbd255eb7d6fc77a83a1086db",
        ),
        ("unit_demand", 0): (
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        ),
        ("unit_demand", 1): (
            "89edc71daa49ea970d1e329693f8a66277447ce894970798d5f049389829ad50",
            "d1b6a58c81206d5aabf55b99babd0d1f4b6dbeba4fcdfc09dc427297f0c793b6",
        ),
        ("unit_demand", 2): (
            "664a6a1fc6e76ebe02c1d4e6252a1cfae88c9c1e7b491cefcf7a44809c0f7f3f",
            "ebf041c36386921f04c964c6932dd0b29d8ae5935e204bec046cd038894c39d0",
        ),
        ("unit_demand", 3): (
            "c14d4dee478cd99ce7e4ae7bedd3e3d3b7c9d3b1f907c0b3e5abad308f023fc5",
            "2beba3ff67001fba337bdef10ed1fd60d3fd85d9d7a1736a39c1f7a451223720",
        ),
    }

    @pytest.mark.parametrize("class_tag, k", sorted(PINNED_DIGESTS))
    def test_pinned_digest(self, class_tag, k):
        for gamma, digest in zip((0.5, 0.25), self.PINNED_DIGESTS[class_tag, k]):
            cores = enumerate_cores(class_tag, k, gamma)
            assert hashlib.sha256(cores.tables.tobytes()).hexdigest() == digest, gamma

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

    @pytest.mark.parametrize("class_tag, k, gamma", [
        ("submodular", 0, 0.25), ("submodular", 1, 0.25), ("submodular", 2, 0.25),
        ("subadditive", 3, 0.25), ("submodular", 3, 0.5),
    ])
    @pytest.mark.parametrize("order", ["enumerated", "shuffled"])
    def test_core_set_runs_share_their_prefix(self, class_tag, k, gamma, order):
        # the runs cover the rows in order, every row of a run shares the
        # run's first 2^(k-1) values, and runs next to each other differ
        # there, in enumeration order or any other
        tables = enumerate_cores(class_tag, k, gamma).tables
        if order == "shuffled":
            tables = tables[np.random.default_rng(k).permutation(len(tables))]
        cores = CoreSet(class_tag, k, gamma, tables)
        starts, prefixes = cores.run_starts, cores.run_prefixes
        width = (1 << k) >> 1
        assert starts[0] == 0 and starts[-1] == len(cores) and np.all(np.diff(starts) > 0)
        assert prefixes.shape == (len(starts) - 1, width)
        for j, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            assert np.array_equal(cores.tables[lo:hi, :width], np.broadcast_to(prefixes[j], (hi - lo, width)))
        assert not np.any(np.all(prefixes[1:] == prefixes[:-1], axis=1))
        assert not starts.flags.writeable and not prefixes.flags.writeable
        if (class_tag, k, order) == ("subadditive", 3, "enumerated"):
            assert len(prefixes) == 525

    def test_empty_core_set_has_no_runs(self):
        empty = CoreSet("submodular", 2, 0.25, np.empty((0, 4)))
        assert empty.run_starts.tolist() == [0]
        assert empty.run_prefixes.shape == (0, 2)

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


class TestSubmodularK2ClassDistance:
    """The exact projection oracle of `oracles.submodular_k2_class_distance`."""

    def test_known_far_cores(self):
        # the far cores of the acceptance criteria and ROADMAP item 1
        for core, dist in (((0, 0, 0, 0.9), 0.2598), ((0, 0, 0, 0.95), 0.2742), ((0, 0, 0, 1), 0.2887)):
            assert submodular_k2_class_distance(core)[0] == pytest.approx(dist, abs=1e-4)

    def test_no_feasible_point_is_closer(self):
        rng = np.random.default_rng(71)
        feasible = rng.uniform(0.0, 1.0, (20_000, 4))
        feasible = feasible[feasible[:, 1] + feasible[:, 2] >= feasible[:, 0] + feasible[:, 3]]
        for _ in range(50):
            core = rng.uniform(0.0, 1.0, 4)
            dist, nearest = submodular_k2_class_distance(core)
            x = np.array(nearest)
            assert np.all((0 <= x) & (x <= 1))
            assert x[1] + x[2] >= x[0] + x[3] - 1e-12
            if core[1] + core[2] >= core[0] + core[3]:
                assert dist == 0.0
            others = np.sqrt(np.mean((feasible - core) ** 2, axis=1))
            assert others.min() >= dist - 1e-12
