"""Acceptance suite: one test per criterion, at the stated tolerances.

The statistical criteria (6-8, 11-15) use 200 seeded trials against a
2/3 threshold minus Wilson-interval slack; the rest are exact or
concentration checks.  Criterion timings at desk scale (2-vCPU Xeon):
each under 2 s, 6-8 and 11-12 under 3 s together, the module about 8 s.
"""

import math

import numpy as np
import pytest

from cubetest.bench import ExperimentPlan, run_plan, wilson_halfwidth
from cubetest.cores import CoreTable, lift_core
from cubetest.influence import influence_exact, influence_fourier, junta_projection
from cubetest.tables import (
    FunctionTable, coords_of, lp_distance, make_counting_oracle, walsh_hadamard
)
from cubetest.tester import (
    TesterConfig,
    _buckets_from_masks,
    _initial_parts,
    lp_epsilon_map,
    refine_parts,
    run_tester,
    select_initial_parts,
)
from cubetest.valuations import (
    APPLICABLE_CHECKERS,
    CHECKERS,
    check_submodular,
    GENERATOR_CLASSES,
    gen,
    make_far_instance,
    parity_blend_table,
    random_spec,
)
from cubetest.influence import estimate_inf_mask
from oracles import submodular_k2_class_distance
from test_tester import exact_stub

RATE_THRESHOLD = 2 / 3 - wilson_halfwidth(2 / 3, 200)


def random_table(n, rng):
    return FunctionTable(n, rng.uniform(0.0, 1.0, 1 << n))


def random_coords(n, rng, p=0.5):
    coords = [i + 1 for i in range(n) if rng.random() < p]
    return coords


def test_criterion_01_oracle_equivalence():
    """influence_fourier == influence_exact within 1e-9, 50 tables x 50 sets."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        f = random_table(n, rng)
        spectrum = walsh_hadamard(f)
        for _ in range(50):
            coords = random_coords(n, rng)
            gap = abs(influence_fourier(spectrum, coords) - influence_exact(f, coords))
            assert gap < 1e-9


def test_criterion_02_junta_projection_optimality():
    """Inf_f(complement J) == dist_2(f, f_J)^2 within 1e-9 for all |J| <= 3,
    and f_J beats 1000 random J-juntas, over 20 random tables."""
    from itertools import combinations

    rng = np.random.default_rng(202)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        f = random_table(n, rng)
        idx = np.arange(1 << n)
        for size in range(0, 4):
            for J in combinations(range(1, n + 1), size):
                comp = [i for i in range(1, n + 1) if i not in J]
                proj = junta_projection(f, J)
                d = lp_distance(f, proj, 2.0)
                assert abs(influence_exact(f, comp) - d ** 2) < 1e-9
                class_idx = np.zeros(1 << n, dtype=np.int64)
                for pos, c in enumerate(J):
                    class_idx |= ((idx >> (c - 1)) & 1) << pos
                cores = rng.uniform(0.0, 1.0, size=(1000, 1 << size))
                junta_values = cores[:, class_idx]
                dists_sq = np.mean((f.values[None, :] - junta_values) ** 2, axis=1)
                assert d <= math.sqrt(float(dists_sq.min())) + 1e-9


def test_criterion_03_estimator_concentration():
    """Dictator influence estimate: 1000 seeded runs at m=2000, deviation
    >= 0.05 in at most 1% of runs (Hoeffding bound is ~9e-5)."""
    n = 4
    f = FunctionTable(n, [float(m & 1) for m in range(1 << n)])
    bad = 0
    for seed in range(1000):
        oracle = make_counting_oracle(f)
        est = estimate_inf_mask(oracle, np.array([1]), 2000, np.random.default_rng(seed))[0]
        assert oracle.query_count == 4000
        if abs(est - 0.25) >= 0.05:
            bad += 1
    assert bad / 1000 <= 0.01


def test_criterion_04_random_partitions_keep_far_structure():
    """Parity blend on n=12 is 1/2-far from 2-juntas; over 200 partitions
    dealt as `run_tester` deals them at the desk q = 64 and num_parts = 16
    (`_initial_parts` over the value patterns of q uniform samples), the
    fraction where some union of 2 parts has complement influence below
    eps^2/4 (eps=1/2) is at most 1/6 + 0.1."""
    from itertools import combinations

    n, k, eps = 12, 2, 0.5
    config = TesterConfig(eps=eps, k=k)
    assert (config.q, config.num_parts) == (64, 16)
    spectrum = walsh_hadamard(parity_blend_table(n))
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng((404, seed))
        masks = rng.integers(0, 1 << n, size=config.q, dtype=np.int64)
        parts = _initial_parts(_buckets_from_masks(masks, n), config.q, config.num_parts, rng)
        failures += any(
            influence_fourier(spectrum, coords_of(((1 << n) - 1) & ~(a.coord_mask | b.coord_mask)))
            < eps ** 2 / 4
            for a, b in combinations(parts, k)
        )
    assert failures / 200 <= 1 / 6 + 0.1


def test_criterion_05_generator_hierarchy():
    """100 seeded instances per generator class pass every applicable
    definitional checker."""
    rng = np.random.default_rng(505)
    for tag in GENERATOR_CLASSES:
        for seed in range(100):
            n = int(rng.integers(3, 9))
            table = gen(random_spec(tag, n, seed))
            for checker_tag in APPLICABLE_CHECKERS[tag]:
                witness = CHECKERS[checker_tag](table, 1e-9)
                assert witness is None, f"{tag} seed={seed} failed {checker_tag}: {witness}"


def test_criterion_06_tester_completeness():
    """In-class submodular 2-juntas (lifted enumerated cores, grid 1/4) are
    accepted in at least 2/3 - Wilson slack of 200 seeded trials."""
    plan = ExperimentPlan(
        class_tag="submodular",
        n=12,
        k=2,
        eps=0.25,
        trial_count=200,
        seed_base=6000,
        mode="in_class",
        overrides={"q": 64, "m": 1000, "gamma": 0.25},
    )
    summary, _ = run_plan(plan)
    assert summary.accept_rate >= RATE_THRESHOLD


def test_criterion_07_tester_soundness_far_from_juntas():
    """The parity blend (certified 1/2 from all 2-juntas) is rejected in at
    least 2/3 - Wilson slack of 200 seeded trials."""
    plan = ExperimentPlan(
        class_tag="submodular",
        n=12,
        k=2,
        eps=0.25,
        trial_count=200,
        seed_base=7000,
        mode="far_mode_b",
        overrides={"q": 64, "m": 1000, "gamma": 0.25},
    )
    summary, _ = run_plan(plan)
    assert summary.certified_distance == 0.5
    assert 1.0 - summary.accept_rate >= RATE_THRESHOLD


def test_criterion_08_tester_soundness_far_core():
    """A 2-junta with the AND core, whose certified distance to the
    enumerated submodular cores exceeds eps, is rejected in at least
    2/3 - Wilson slack of 200 seeded trials."""
    plan = ExperimentPlan(
        class_tag="submodular",
        n=12,
        k=2,
        eps=0.25,
        trial_count=200,
        seed_base=8000,
        mode="far_mode_a",
        overrides={"q": 1024, "m": 1000, "gamma": 0.25},
        core_values=(0.0, 0.0, 0.0, 1.0),
    )
    summary, _ = run_plan(plan)
    assert summary.certified_distance > plan.eps
    assert 1.0 - summary.accept_rate >= RATE_THRESHOLD


def test_criterion_09_exact_pipeline_isolates_juntas():
    """With the exact-influence stub, every run whose initial partition
    separates the two relevant patterns isolates them into the selected
    buckets; runs where the random partition collides them are excluded
    (part selection operates at part granularity and cannot split a
    part)."""
    n = 12
    table = lift_core(CoreTable(2, (0.0, 0.0, 0.0, 1.0)), (3, 9), n)
    oracle = make_counting_oracle(table)
    cfg = TesterConfig(eps=0.25, k=2, m=10)
    est = exact_stub(table)
    separated = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        masks = [int(x) for x in rng.integers(0, 1 << n, size=cfg.q)]
        buckets = _buckets_from_masks(masks, n)
        mask3 = next(mask for mask in buckets.values() if 3 in coords_of(mask))
        mask9 = next(mask for mask in buckets.values() if 9 in coords_of(mask))
        assert mask3 != mask9  # q=64 samples split the coordinates
        parts = _initial_parts(buckets, cfg.q, cfg.num_parts, rng)
        part_of = {mask: i for i, part in enumerate(parts) for mask in part.masks}
        if part_of[mask3] == part_of[mask9]:
            continue
        separated += 1
        selected, dropped = select_initial_parts(oracle, buckets, cfg, rng, est, parts=parts)
        assert dropped == 0.0
        refined = refine_parts(oracle, selected, cfg, rng, est)
        isolated = set()
        for mask in refined.final_masks:
            isolated.update(coords_of(mask))
        assert {3, 9} <= isolated, f"seed {seed}: isolated {isolated}"
    assert separated >= 35  # 47 of 50 at the desk default of 16 parts


def test_criterion_10_lp_parameter_map():
    """Spot values of the lp -> l2 parameter reduction."""
    assert lp_epsilon_map(2, 0.1) == 0.1
    mapped = lp_epsilon_map(4, 0.1)
    assert mapped == 0.1 ** (4 / 2)
    assert mapped == pytest.approx(0.01, abs=1e-15)
    assert lp_epsilon_map(1, 0.3) == 0.3


def _k3_in_class_accept_rate(class_tag, seed_base):
    plan = ExperimentPlan(
        class_tag=class_tag,
        n=12,
        k=3,
        eps=0.25,
        trial_count=200,
        seed_base=seed_base,
        mode="in_class",
        overrides={"q": 64, "m": 1000, "gamma": 0.25},
    )
    summary, _ = run_plan(plan)
    return summary.accept_rate


def test_criterion_11_tester_completeness_k3_submodular():
    """In-class submodular 3-juntas (lifted enumerated cores, grid 1/4) are
    accepted in at least 2/3 - Wilson slack of 200 seeded trials."""
    assert _k3_in_class_accept_rate("submodular", 9000) >= RATE_THRESHOLD


def test_criterion_12_tester_completeness_k3_subadditive():
    """In-class subadditive 3-juntas (lifted enumerated cores, grid 1/4) are
    accepted in at least 2/3 - Wilson slack of 200 seeded trials."""
    assert _k3_in_class_accept_rate("subadditive", 9200) >= RATE_THRESHOLD


DESK = {"q": 64, "m": 1000, "gamma": 0.25}


def test_criterion_13_tester_soundness_far_core_k3():
    """A 3-junta with the AND_3 core, 0.306 from the enumerated
    submodular cores, is rejected in at least 2/3 - Wilson slack of 200
    seeded trials at q = 64."""
    plan = ExperimentPlan(
        class_tag="submodular",
        n=12,
        k=3,
        eps=0.25,
        trial_count=200,
        seed_base=9400,
        mode="far_mode_a",
        overrides=DESK,
        core_values=(0.0,) * 7 + (1.0,),
    )
    summary, _ = run_plan(plan)
    assert summary.certified_distance > plan.eps
    assert 1.0 - summary.accept_rate >= RATE_THRESHOLD


def test_criterion_14_tester_soundness_just_past_eps():
    """A 2-junta with core (0, 0, 0, 0.95), whose exact l2 distance to
    the [0,1]-valued submodular functions (`oracles`) is 0.274 > eps, is
    rejected in at least 2/3 - Wilson slack of 200 seeded trials."""
    core = (0.0, 0.0, 0.0, 0.95)
    class_distance, _ = submodular_k2_class_distance(core)
    assert class_distance == pytest.approx(0.2742, abs=1e-4)
    plan = ExperimentPlan(
        class_tag="submodular",
        n=12,
        k=2,
        eps=0.25,
        trial_count=200,
        seed_base=9600,
        mode="far_mode_a",
        overrides=DESK,
        core_values=core,
    )
    summary, _ = run_plan(plan)
    assert class_distance > plan.eps
    assert 1.0 - summary.accept_rate >= RATE_THRESHOLD


def test_criterion_15_tester_completeness_near_juntas():
    """Budget-additive class members min(w . x, 1) that are near but not
    at 2-juntas, two weights from U(0.5, 1) and ten from 0.1 * U(0, 1)
    in shuffled positions, are accepted in at least 2/3 - Wilson slack of
    200 seeded trials."""
    n, delta, seed_base = 12, 0.1, 9800
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    accepts = 0
    for t in range(200):
        rng = np.random.default_rng((seed_base + t, 0xBA5E))
        weights = rng.permutation(np.r_[rng.uniform(0.5, 1.0, 2), delta * rng.uniform(0.0, 1.0, n - 2)])
        table = FunctionTable(n, np.minimum(bits @ weights, 1.0))
        assert check_submodular(table) is None
        config = TesterConfig(eps=0.25, k=2, q=64, m=1000, core_grid=0.25, seed=seed_base + t)
        accepts += run_tester(make_counting_oracle(table), "submodular", config).verdict == "accept"
    assert accepts / 200 >= RATE_THRESHOLD
