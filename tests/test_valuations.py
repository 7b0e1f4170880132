import numpy as np
import pytest

from cubetest.influence import closest_junta
from cubetest.tables import FunctionTable
from cubetest.valuations import (
    APPLICABLE_CHECKERS,
    CHECKERS,
    GENERATOR_CLASSES,
    SUBADDITIVE_GROUP_DOUBLES,
    UnsupportedClassError,
    ValuationSpec,
    check_additive,
    check_self_bounding,
    check_subadditive,
    check_submodular,
    check_unit_demand,
    checker,
    gen,
    gen_detailed,
    make_far_instance,
    parse_spec_text,
    passing,
    random_spec,
    read_spec,
    write_spec,
)
from oracles import (
    NAIVE_WITNESSES,
    naive_farthest_grid_core,
    naive_gen_values,
    naive_min_distance_to_cores,
    naive_lp_distance,
    naive_oxs_value,
    naive_subadditive_witness,
    submodular_all_pairs,
)


def and_table():
    return FunctionTable(2, [0.0, 0.0, 0.0, 1.0])


def oracle_tables():
    """(n, values) at n <= 5: random tables, grid tables (random and
    enumerated cores lifted), and generated class members, each also
    with one point moved, both rounded to a multiple of 2^-20, so every
    sum a checker forms is exact, and as they are, so sums round and a
    checker must add in the plain loop's order."""
    from cubetest.cores import cached_cores, lift_core

    rng = np.random.default_rng(2024)
    quantum = 2.0**-20
    out = []
    for n in range(1, 6):
        for _ in range(5):
            out.append((n, rng.integers(0, 2**20 + 1, 1 << n) * quantum))
            out.append((n, rng.integers(0, 5, 1 << n) / 4))
        for class_tag in CHECKERS:
            for k in range(min(n, 3) + 1):
                cores = cached_cores(class_tag, k, 0.5)
                core = cores.member(int(rng.integers(len(cores))))
                coords = tuple(int(c) + 1 for c in rng.choice(n, size=k, replace=False))
                out.append((n, lift_core(core, coords, n).values))
        for class_tag in GENERATOR_CLASSES:
            near = np.round(gen(random_spec(class_tag, n, seed=n)).values / quantum) * quantum
            out.append((n, near))
            moved = near.copy()
            moved[rng.integers(1 << n)] = rng.integers(0, 2**20 + 1) * quantum
            out.append((n, moved))
            member = gen(random_spec(class_tag, n, seed=n + 7)).values
            moved = member.copy()
            moved[rng.integers(1 << n)] = rng.uniform()
            out += [(n, member), (n, moved)]
        out += [(n, rng.uniform(0, 1, 1 << n)) for _ in range(5)]
    return out


class TestGenerators:
    def test_additive_frozen(self):
        spec = ValuationSpec("additive", 2, {"weights": (0.5, 0.5)})
        table = gen(spec)
        assert list(table.values) == [0.0, 0.5, 0.5, 1.0]

    def test_unit_demand_frozen(self):
        spec = ValuationSpec("unit_demand", 2, {"weights": (1.0, 0.4)})
        table = gen(spec)
        assert list(table.values) == [0.0, 1.0, 0.4, 1.0]

    def test_coverage_frozen(self):
        spec = ValuationSpec(
            "coverage",
            2,
            {"universe_weights": (0.5, 0.5), "cover_1": (1,), "cover_2": (1, 2)},
        )
        table = gen(spec)
        assert list(table.values) == [0.0, 0.5, 1.0, 1.0]

    def test_xos_is_clause_max(self):
        spec = ValuationSpec(
            "xos", 2, {"clause_1": (0.8, 0.1), "clause_2": (0.2, 0.6)}
        )
        table = gen(spec)
        # pointwise max of the two additive clauses, no normalization (max 0.9)
        assert list(table.values) == [0.0, 0.8, 0.6, 0.9]

    def test_oxs_matches_assignment_oracle(self):
        rows = [(1.0, 0.4, 0.2), (0.6, 0.5, 0.1)]
        spec = ValuationSpec("oxs", 3, {"demand_1": rows[0], "demand_2": rows[1]})
        table, norm = gen_detailed(spec)
        for mask in range(8):
            goods = [i for i in range(3) if mask & (1 << i)]
            expected = naive_oxs_value(rows, goods) / norm
            assert table.values[mask] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("class_tag", GENERATOR_CLASSES)
    def test_matches_plain_loop(self, class_tag):
        # maxima and the best assignment are found exactly; sums may add
        # in another order than the loop, so agree within 1e-12
        exact = class_tag in ("unit_demand", "oxs", "gross_substitutes")
        for n in range(1, 7):
            for seed in range(25):
                spec = random_spec(class_tag, n, seed)
                got, expected = gen(spec).values, naive_gen_values(spec)
                if exact:
                    assert got.tolist() == expected, (n, seed)
                else:
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=f"n={n} seed={seed}")

    @pytest.mark.parametrize("class_tag", ["additive", "unit_demand"])
    def test_generated_table_passes_own_checker_at_tol_0(self, class_tag):
        # the checker predicts with the generator's own pass.  Weights are
        # scaled to sum to at most 1, since a rescaled additive table is
        # sum(w)/t, which can round apart from the sum of the w_i/t
        for n in range(1, 7):
            for seed in range(25):
                weights = random_spec(class_tag, n, seed).params["weights"]
                spec = ValuationSpec(class_tag, n, {"weights": tuple(w / n for w in weights)})
                table, norm = gen_detailed(spec)
                assert norm == 1.0
                assert CHECKERS[class_tag](table, 0.0) is None, (n, seed)

    def test_budget_additive(self):
        spec = ValuationSpec("submodular", 3, {"weights": (0.4, 0.4, 0.4), "budget": 0.7})
        table = gen(spec)
        assert table.values[0b111] == pytest.approx(0.7, abs=1e-12)
        assert check_submodular(table) is None

    def test_normalization_recorded(self):
        spec = ValuationSpec("additive", 2, {"weights": (1.0, 1.0)})
        table, norm = gen_detailed(spec)
        assert norm == 2.0
        assert table.values[3] == 1.0
        spec_small = ValuationSpec("additive", 2, {"weights": (0.2, 0.3)})
        _, norm_small = gen_detailed(spec_small)
        assert norm_small == 1.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            gen(ValuationSpec("additive", 2, {"weights": (0.5, -0.1)}))

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen(ValuationSpec("additive", 2, {"weights": ()}))
        with pytest.raises(ValueError):
            gen(ValuationSpec("xos", 2, {}))

    @pytest.mark.parametrize("n", [0, -1, 25, 30])
    def test_dimension_checked_on_construction(self, n):
        with pytest.raises(ValueError, match=r"dimension must be in \[1\.\.24\]"):
            ValuationSpec("additive", n, {"weights": (0.5,)})

    def test_deterministic(self):
        for tag in GENERATOR_CLASSES:
            spec = random_spec(tag, 5, seed=42)
            assert gen(spec) == gen(spec)
            assert random_spec(tag, 5, seed=42) == spec


class TestCheckers:
    def test_and_violates_submodularity(self):
        witness = check_submodular(and_table())
        assert witness is not None
        assert {p.to_string() for p in witness.points} == {"10", "01"}
        assert witness.lhs == 0.0
        assert witness.rhs == 1.0

    def test_single_variable_always_submodular(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.uniform(0, 1, 2)
            vals = [a if (m & 1) == 0 else b for m in range(8)]
            assert check_submodular(FunctionTable(3, vals)) is None

    def test_coverage_instances_submodular(self):
        for seed in range(10):
            table = gen(random_spec("coverage", 6, seed))
            assert check_submodular(table) is None

    def test_local_matches_all_pairs(self):
        rng = np.random.default_rng(77)
        tables = [FunctionTable(n, rng.uniform(0, 1, 1 << n)) for n in (3, 4, 5) for _ in range(15)]
        tables += [
            and_table(),
            FunctionTable(2, [1.0, 0.0, 0.0, 1.0]),
            gen(random_spec("coverage", 5, 3)),
            gen(random_spec("additive", 5, 4)),
            FunctionTable(3, np.round(rng.uniform(0, 1, 8) * 4) / 4),
        ]
        for table in tables:
            local = check_submodular(table)
            pairwise = submodular_all_pairs(table.values, table.n)
            assert (local is None) == (pairwise is None)

    def test_subadditive_basics(self):
        assert check_subadditive(FunctionTable(3, [0.0] * 8)) is None
        witness = check_subadditive(and_table())
        assert witness is not None
        assert witness.lhs == 0.0 and witness.rhs == 1.0
        assert {p.to_string() for p in witness.points} == {"10", "01"}

    def test_submodular_zero_grounded_is_subadditive(self):
        for seed in range(10):
            table = gen(random_spec("submodular", 5, seed))
            assert table.values[0] == 0.0
            assert check_subadditive(table) is None

    def test_self_bounding_constant(self):
        assert check_self_bounding(FunctionTable(3, [0.4] * 8)) is None

    def test_self_bounding_dictator(self):
        assert check_self_bounding(FunctionTable(1, [0.0, 1.0])) is None

    def test_self_bounding_scaled_count(self):
        vals = [bin(m).count("1") / 3 for m in range(8)]
        assert check_self_bounding(FunctionTable(3, vals)) is None

    def test_additive_checker(self):
        assert check_additive(gen(ValuationSpec("additive", 3, {"weights": (0.2, 0.3, 0.4)}))) is None
        witness = check_additive(and_table())
        assert witness is not None
        assert witness.points[0].to_string() == "11"

    def test_unit_demand_checker(self):
        table = gen(random_spec("unit_demand", 5, 9))
        assert check_unit_demand(table) is None
        assert check_unit_demand(and_table()) is not None

    def test_tolerance_allows_float_noise(self):
        table = gen(random_spec("additive", 4, 1))
        noisy = FunctionTable(4, np.clip(table.values + 1e-13, 0, 1))
        assert check_additive(noisy, tol=1e-9) is None


    @pytest.mark.parametrize("class_tag", sorted(NAIVE_WITNESSES))
    def test_witness_matches_plain_loop(self, class_tag):
        outcomes = set()
        for n, values in oracle_tables():
            table = FunctionTable(n, values)
            for tol in (0.0, 1e-9, 1e-6, 1e-5, 0.05):
                witness = CHECKERS[class_tag](table, tol)
                got = None if witness is None else str(witness)
                assert got == NAIVE_WITNESSES[class_tag](values, n, tol), (n, values, tol)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_subadditive_row_blocks_match_plain_loop(self, n):
        # one table's groups hold 2^16 / 2^n >= 16 x rows here.  Planted
        # tables take values in [0.95, 1] and 0.1 at the planted points,
        # so exactly the pairs of planted points whose union is not
        # planted violate.
        from cubetest.cores import cached_cores, lift_core

        size = 1 << n
        block = SUBADDITIVE_GROUP_DOUBLES // size
        assert block >= 16
        rng = np.random.default_rng(n)
        core = cached_cores("subadditive", 3, 0.25).member(int(rng.integers(148_815)))
        cases = [lift_core(core, (2, 5, n), n).values]
        if n <= 10:
            cases.append(np.concatenate([[0.0], rng.uniform(0.5, 1.0, size - 1)]))
        x0 = block  # the second group
        for planted in (
            [x0 + 3, x0 + 12],  # row x0 + 12 flags x0 + 3 < x0 + 12 too
            [x0 + a for a in (3, 5, 6, 9, 10, 12)],  # rows flag y before and after them
            [x0 + 3, x0 + block + 4],  # the pair's y in the next group
            [1, x0 + block],  # x in the first group, y past it
        ):
            values = np.concatenate([[0.0], rng.uniform(0.95, 1.0, size - 1)])
            values[planted] = 0.1
            cases.append(values)
        verdicts = []
        for i, values in enumerate(cases):
            tol = (0.0, 1e-9)[i % 2]
            witness = check_subadditive(FunctionTable(n, values), tol)
            expected = naive_subadditive_witness(values, n, tol)
            assert (None if witness is None else str(witness)) == expected, i
            verdicts.append(expected is None)
        assert verdicts.count(True) == len(cases) - 4
        batch = np.vstack(cases)
        for rows in (batch, np.asfortranarray(batch)):
            assert passing("subadditive", rows, 1e-9).tolist() == verdicts

    @pytest.mark.parametrize("class_tag", sorted(CHECKERS))
    def test_passing_agrees_with_checker_row_by_row(self, class_tag):
        # n = 1 has no pair of coordinates and n = 2 one, so the checkers'
        # reshapes meet their edge cases
        for n in (1, 2, 3, 5):
            rng = np.random.default_rng(9)
            members = [
                gen(random_spec(tag, n, seed)).values for tag in ("additive", "unit_demand") for seed in range(5)
            ]
            rows = np.vstack([rng.uniform(0, 1, (20, 1 << n)), rng.integers(0, 3, (20, 1 << n)) / 2, members])
            expected = [CHECKERS[class_tag](FunctionTable(n, row), 1e-9) is None for row in rows]
            assert any(expected), n
            for batch in (rows, np.asfortranarray(rows)):
                assert passing(class_tag, batch, 1e-9).tolist() == expected, n

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-12])
    def test_bad_tolerance_rejected(self, tol):
        for class_tag, check in CHECKERS.items():
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                check(and_table(), tol)
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                passing(class_tag, and_table().values[None, :], tol)

    def test_checker_lookup(self, monkeypatch):
        assert checker("submodular") is CHECKERS["submodular"]
        # looked up at call time, so a replaced entry is what callers get
        monkeypatch.setitem(CHECKERS, "submodular", check_additive)
        assert checker("submodular") is check_additive
        for tag in ("xos", "coverage", "gross_substitutes", "oxs", "bogus"):
            with pytest.raises(UnsupportedClassError, match=f"for class '{tag}'"):
                checker(tag)


class TestHierarchy:
    def test_generated_instances_pass_applicable_checkers(self):
        rng = np.random.default_rng(55)
        for tag in GENERATOR_CLASSES:
            for seed in range(20):
                n = int(rng.integers(3, 8))
                table = gen(random_spec(tag, n, seed))
                for checker_tag in APPLICABLE_CHECKERS[tag]:
                    witness = CHECKERS[checker_tag](table, 1e-9)
                    assert witness is None, f"{tag} instance failed {checker_tag}: {witness}"


CHECKER_CLASSES = ("additive", "unit_demand", "submodular", "subadditive", "self_bounding")
# (class, k, gamma) for the far-core search.  At k = 2, gamma = 1/10 the
# per-candidate loop takes 4.5 s for submodular and as long or longer for
# subadditive and self_bounding, so submodular alone stands for the three
FAR_SEARCH_CASES = [
    (tag, k, gamma)
    for k in (1, 2)
    for gamma in (1 / 2, 1 / 3, 1 / 4, 1 / 10)
    for tag in CHECKER_CLASSES
    if (k, gamma) != (2, 1 / 10) or tag in ("additive", "unit_demand", "submodular")
] + [(tag, 3, 1 / 2) for tag in CHECKER_CLASSES]


class TestFarInstances:
    @pytest.mark.parametrize("class_tag, k, gamma", FAR_SEARCH_CASES)
    def test_mode_a_search_matches_per_candidate_loop(self, class_tag, k, gamma):
        from cubetest.cores import cached_cores

        inst = make_far_instance("a", class_tag, k + 1, k, 0.0, gamma=gamma)
        core_values, dist = naive_farthest_grid_core(cached_cores(class_tag, k, gamma))
        assert inst.core_values == core_values
        assert inst.certified_distance == dist

    @pytest.mark.parametrize(
        "class_tag, lp_distances",
        [
            ("subadditive", (0.25, 0.306, 0.364)),
            ("self_bounding", (0.25, 0.331, 0.369)),
            ("unit_demand", (0.5, 0.650, 0.738)),
        ],
    )
    def test_mode_a_certified_in_lp(self, class_tag, lp_distances):
        # the core is the farthest in l2 whatever p is; its certified
        # distance is its lp distance to the grid cores, as a plain loop
        # over the cores gives it (listed: l1, l2, l4 at gamma = 1/4)
        from cubetest.cores import cached_cores

        cores = cached_cores(class_tag, 2, 0.25)
        l2 = make_far_instance("a", class_tag, 8, 2, 0.0, gamma=0.25)
        for p, listed in zip((1.0, 2.0, 4.0), lp_distances):
            inst = make_far_instance("a", class_tag, 8, 2, 0.0, gamma=0.25, p=p)
            assert inst.core_values == l2.core_values
            naive = min(naive_lp_distance(inst.core_values, row, 2, p) for row in cores.tables)
            assert inst.certified_distance == pytest.approx(naive, abs=1e-12)
            assert inst.certified_distance == pytest.approx(listed, abs=5e-4)
            assert inst.class_distance_lower_bound == max(0.0, inst.certified_distance - 0.125)
        assert make_far_instance("a", class_tag, 8, 2, 0.0, gamma=0.25, p=2.0) == l2

    def test_mode_a_eps_checked_in_lp(self):
        # self_bounding's farthest core is 0.331 from the grid cores in l2
        # but 0.25 in l1: eps = 0.3 is certified at p = 2 only
        make_far_instance("a", "self_bounding", 12, 2, 0.3, gamma=0.25)
        with pytest.raises(ValueError, match="exceeds the best achievable certified distance 0.250000"):
            make_far_instance("a", "self_bounding", 12, 2, 0.3, gamma=0.25, p=1.0)

    @pytest.mark.parametrize("p", [float("nan"), 0.5, float("inf")])
    def test_mode_a_nan_or_sub_one_p_rejected(self, p):
        # unchecked, a NaN p certifies a distance of nan, and an infinite
        # one 1.0 for every core, class members such as (0, 0, 0, 0) too
        with pytest.raises(ValueError, match="p must be >= 1"):
            make_far_instance(
                "a", "submodular", 8, 2, 0.25, gamma=0.25, core_values=(0, 0, 0, 1.0), p=p
            )

    @pytest.mark.parametrize("p", [float("nan"), 0.5, float("inf")])
    def test_mode_b_p_checked(self, p):
        # unchecked, mode b certifies 0.5, which is proved only for a
        # finite p >= 1
        with pytest.raises(ValueError, match="p must be >= 1"):
            make_far_instance("b", "submodular", 8, 2, 0.25, p=p)

    def test_mode_b_certified_half(self):
        inst = make_far_instance("b", "submodular", 10, 3, 0.4)
        assert inst.certified_distance == 0.5
        # values are the even-parity indicator
        assert inst.table.values[0] == 1.0
        assert inst.table.values[1] == 0.0

    def test_mode_b_reproduced_by_closest_junta(self):
        inst = make_far_instance("b", "submodular", 8, 2, 0.4)
        _, dist = closest_junta(inst.table, 2)
        assert abs(dist - inst.certified_distance) < 1e-9

    def test_mode_b_eps_too_large(self):
        with pytest.raises(ValueError):
            make_far_instance("b", "submodular", 8, 2, 0.6)

    def test_mode_a_and_core_certified(self):
        from cubetest.cores import cached_cores

        inst = make_far_instance(
            "a", "submodular", 8, 2, 0.25, gamma=0.25, core_values=(0.0, 0.0, 0.0, 1.0)
        )
        cores = cached_cores("submodular", 2, 0.25)
        naive = naive_min_distance_to_cores(inst.core_values, cores.tables, 2)
        assert abs(inst.certified_distance - naive) < 1e-9
        assert inst.certified_distance > 0.25
        assert inst.class_distance_lower_bound == pytest.approx(
            inst.certified_distance - 0.125, abs=1e-12
        )

    def test_mode_a_argmax_search(self):
        inst = make_far_instance("a", "additive", 6, 1, 0.2, gamma=0.5)
        # 1-variable grid cores: the farthest point from the additive set
        # (f(0)=0 grid lines) is found by exhaustive search
        assert inst.certified_distance > 0.2

    def test_mode_a_eps_too_large(self):
        with pytest.raises(ValueError):
            make_far_instance(
                "a", "submodular", 8, 2, 0.9, gamma=0.25, core_values=(0.0, 0.0, 0.0, 1.0)
            )

    def test_mode_a_random_placement_deterministic(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = make_far_instance(
            "a", "submodular", 8, 2, 0.25, gamma=0.25, rng=rng1,
            core_values=(0.0, 0.0, 0.0, 1.0),
        )
        b = make_far_instance(
            "a", "submodular", 8, 2, 0.25, gamma=0.25, rng=rng2,
            core_values=(0.0, 0.0, 0.0, 1.0),
        )
        assert a.table == b.table
        assert a.coords == b.coords


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        for tag in GENERATOR_CLASSES:
            spec = random_spec(tag, 4, seed=3)
            path = tmp_path / f"{tag}.spec"
            write_spec(spec, path)
            back = read_spec(path)
            assert back == spec
            assert back.digest() == spec.digest()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_spec_text("class: additive\nweights: 0.5 0.5\n")  # missing n
        with pytest.raises(ValueError):
            parse_spec_text("just some text")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("class: additive\nn: 2\nweights: 0.5 0.25\nsed: 4\n", "sed"),
            ("class: additive\nn: 2\nweights: 0.5 0.25\nbudget: 1\n", "budget"),
            ("class: additive\nn: 2\nweights: 0.5 0.25\nschema: 1\n", "schema"),
            ("class: coverage\nn: 2\nuniverse_weights: 1\ncover_1: 1\ncover_3: 1\n", "cover_3"),
            ("class: coverage\nn: 2\nuniverse_weights: 1\ncover_0: 1\n", "cover_0"),
            ("class: xos\nn: 2\nclause_1: 0.5 0.5\nclause_3: 0.5 0.5\n", "clause_3"),
            ("class: xos\nn: 2\nclause_2: 0.5 0.5\n", "clause_2"),
            ("class: xos\nn: 2\nclause_1: 0.5 0.5\ndemand_1: 0.5 0.5\n", "demand_1"),
            ("class: oxs\nn: 2\ndemand_1: 0.5 0.5\nclause_1: 0.5 0.5\n", "clause_1"),
            ("class: gross_substitutes\nn: 2\ndemand_1: 0.5 0.5\ndemand_3: 0.5 0.5\n", "demand_3"),
            ("class: submodular\nn: 2\nweights: 0.5 0.5\nbudget: 1\nweight: 0.5\n", "weight"),
        ],
    )
    def test_unknown_key_refused(self, text, key):
        # a misspelled seed once became a class parameter, and a row after
        # a gap was dropped
        with pytest.raises(ValueError, match=f"^unknown spec key '{key}'$"):
            parse_spec_text(text)

    def test_every_class_key_accepted(self):
        spec = parse_spec_text(
            "class: coverage\nn: 3\nseed: 4\nuniverse_weights: 1 1\ncover_1: 1\ncover_3: 2\n"
        )
        assert spec.seed == 4 and set(spec.params) == {"universe_weights", "cover_1", "cover_3"}
        rows = "clause_1: 0.5 0.5\nclause_2: 0.25 0.5\nclause_3: 0.5 0\n"
        assert len(parse_spec_text(f"class: xos\nn: 2\n{rows}").params) == 3

    def test_comments_ignored(self):
        spec = parse_spec_text("# a comment\nclass: additive\nn: 2\nweights: 0.5 0.5\n")
        assert spec.class_tag == "additive"
        assert spec.params["weights"] == (0.5, 0.5)
