"""Per-seed trial outcomes of three plans, and the whole report of three
one-round runs, pinned.

For every trial: verdict, reject_stage, queries_used, refine_rounds_used,
selected_buckets, phi and the learned core's values (None on a reject),
as `bench.run_plan` gives them.  Core values are multiples of 1/4, so no
BLAS changes them; the other float fields (eta, empirical_distance) are
left out, since another BLAS may change their last bits.  A change to
the tester that keeps its RNG stream, its verdicts and the first passing
core of each search keeps every line here.

The one-round runs cap `refine_rounds` at 1, so a part the last round
keeps can still hold several occupied patterns; the tester learns from
the one with the smallest pattern value.  All their values are sums of
multiples of 1/16 over at most a few thousand terms, exact in any
summation order, so their report lines are pinned whole.
"""

import pytest

from cubetest import bench, tester
from cubetest.cores import CoreTable, cached_cores, lift_core
from cubetest.tables import coords_of, make_counting_oracle
from cubetest.tester import TesterConfig, report_to_lines, run_tester

AND_CORE = (0.0, 0.0, 0.0, 1.0)
DESK = {"q": 64, "m": 1000, "gamma": 0.25}
PLANS = {
    # acceptance criterion 8's plan at q = 1024
    "criterion_08": bench.ExperimentPlan(
        "submodular", 12, 2, 0.25, trial_count=20, seed_base=1, mode="far_mode_a",
        overrides={**DESK, "q": 1024}, core_values=AND_CORE,
    ),
    "subadditive_k3": bench.ExperimentPlan(
        "subadditive", 12, 3, 0.25, trial_count=20, seed_base=5, mode="in_class", overrides=DESK,
    ),
    "far_mode_b_n10": bench.ExperimentPlan(
        "submodular", 10, 2, 0.25, trial_count=20, seed_base=3, mode="far_mode_b", overrides=DESK,
    ),
}
# (verdict, reject_stage, queries_used, refine_rounds_used, selected_buckets, phi,
#  learned core values)
EXPECTED = {
    "criterion_08": [
        ('reject', 'core_search', 35024, 3, ((11,), (1,)), (11, 1), None),
        ('reject', 'core_search', 35024, 3, ((1,), (2,)), (1, 2), None),
        ('reject', 'core_search', 25024, 1, ((2,), (4,)), (2, 4), None),
        ('reject', 'core_search', 25024, 1, ((5,), (6,)), (5, 6), None),
        ('reject', 'core_search', 45024, 5, ((6,), (11,)), (6, 11), None),
        ('reject', 'core_search', 30024, 2, ((11,), (7,)), (11, 7), None),
        ('reject', 'core_search', 45024, 5, ((9,), (8,)), (9, 8), None),
        ('reject', 'core_search', 25024, 1, ((10,), (9,)), (10, 9), None),
        ('reject', 'core_search', 30024, 2, ((5,), (10,)), (5, 10), None),
        ('reject', 'core_search', 25024, 1, ((3,), (9,)), (3, 9), None),
        ('reject', 'core_search', 25024, 1, ((1,), (11,)), (1, 11), None),
        ('reject', 'core_search', 25024, 1, ((12,), (4,)), (12, 4), None),
        ('reject', 'core_search', 35024, 3, ((8,), (1,)), (8, 1), None),
        ('reject', 'core_search', 40024, 4, ((9,), (5,)), (9, 5), None),
        ('reject', 'core_search', 25024, 1, ((10,), (11,)), (10, 11), None),
        ('reject', 'core_search', 25024, 1, ((11,), (9,)), (11, 9), None),
        ('reject', 'core_search', 30024, 2, ((4,), (1,)), (4, 1), None),
        ('reject', 'core_search', 55024, 7, ((6,), (1,)), (6, 1), None),
        ('reject', 'core_search', 30024, 2, ((10,), (8,)), (10, 8), None),
        ('reject', 'core_search', 30024, 2, ((12,), (10,)), (12, 10), None),
    ],
    "subadditive_k3": [
        ('accept', 'none', 48064, 1, ((11,), (5,), (6,)), (11, 5, 6),
         (0.25, 0.0, 1.0, 0.5, 1.0, 0.25, 0.25, 0.25)),
        ('accept', 'none', 48064, 1, ((4,), (2,), (6,)), (4, 2, 6),
         (0.25, 0.5, 1.0, 0.0, 1.0, 1.0, 0.75, 0.25)),
        ('accept', 'none', 75064, 4, ((7,), (3,), (4,)), (7, 3, 4),
         (0.5, 0.0, 0.75, 0.75, 0.25, 0.0, 0.75, 0.5)),
        ('accept', 'none', 48064, 1, ((5,), (10,), (8,)), (5, 10, 8),
         (0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.0)),
        ('accept', 'none', 48064, 1, ((9,), (5,), (3,)), (9, 5, 3),
         (0.0, 0.0, 0.25, 0.25, 0.5, 0.0, 0.75, 0.25)),
        ('accept', 'none', 48064, 1, ((1,), (3,), (11,)), (1, 3, 11),
         (0.25, 0.75, 0.0, 0.0, 0.25, 0.5, 0.0, 0.0)),
        ('accept', 'none', 66064, 3, ((12,), (1,), (9,)), (12, 1, 9),
         (0.0, 0.75, 0.5, 1.0, 0.5, 1.0, 0.0, 0.25)),
        ('accept', 'none', 75064, 4, ((4,), (10,), (2,)), (4, 10, 2),
         (0.0, 0.0, 0.5, 0.25, 0.5, 0.5, 0.75, 0.75)),
        ('accept', 'none', 48064, 1, ((7,), (6,), (8,)), (7, 6, 8),
         (0.0, 0.0, 0.0, 0.0, 0.75, 0.5, 0.0, 0.0)),
        ('accept', 'none', 75064, 4, ((11,), (2,), (4,)), (11, 2, 4),
         (0.0, 0.5, 0.75, 1.0, 0.0, 0.0, 0.25, 0.25)),
        ('accept', 'none', 57064, 2, ((10,), (2,), (9,)), (10, 2, 9),
         (0.0, 0.5, 0.5, 0.75, 1.0, 0.75, 0.25, 0.5)),
        ('reject', 'influence_check', 66064, 3, ((), (9,), (10,)), (None, 9, 10), None),
        ('accept', 'none', 48064, 1, ((3,), (4,), (12,)), (3, 4, 12),
         (0.0, 0.0, 0.25, 0.0, 0.5, 0.25, 0.5, 0.0)),
        ('accept', 'none', 48064, 1, ((7,), (5,), (1,)), (7, 5, 1),
         (0.0, 0.5, 0.25, 0.75, 0.75, 0.75, 1.0, 0.0)),
        ('accept', 'none', 57064, 2, ((4,), (10,), (7,)), (4, 10, 7),
         (0.25, 0.25, 0.25, 0.5, 0.25, 0.0, 0.5, 0.25)),
        ('accept', 'none', 48064, 1, ((10,), (7,), (12,)), (10, 7, 12),
         (0.25, 0.0, 0.75, 0.25, 0.25, 0.25, 1.0, 0.0)),
        ('accept', 'none', 48064, 1, ((7,), (10,), (12,)), (7, 10, 12),
         (0.0, 0.25, 1.0, 1.0, 1.0, 0.5, 0.75, 0.0)),
        ('accept', 'none', 48064, 1, ((12,), (1,), (3,)), (12, 1, 3),
         (0.25, 0.0, 0.75, 0.0, 1.0, 0.75, 1.0, 0.25)),
        ('accept', 'none', 48064, 1, ((2,), (11,), (5,)), (2, 11, 5),
         (0.25, 0.25, 0.75, 0.75, 1.0, 0.0, 1.0, 0.0)),
        ('accept', 'none', 66064, 3, ((5,), (11,), (6,)), (5, 11, 6),
         (0.0, 0.5, 0.75, 0.0, 0.5, 0.5, 0.5, 0.0)),
    ],
    "far_mode_b_n10": [
        ('reject', 'influence_check', 24064, 1, ((1,), (8,)), (1, 8), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((), (8,)), (None, 8), None),
        ('reject', 'influence_check', 24064, 1, ((7,), (6,)), (7, 6), None),
        ('reject', 'influence_check', 24064, 1, ((4,), ()), (4, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((5,), ()), (5, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((4,), ()), (4, None), None),
        ('reject', 'influence_check', 39064, 4, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((2,), ()), (2, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((5,), (1,)), (5, 1), None),
        ('reject', 'influence_check', 24064, 1, ((1,), ()), (1, None), None),
        ('reject', 'influence_check', 24064, 1, ((4,), (3,)), (4, 3), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((6,), ()), (6, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
        ('reject', 'influence_check', 24064, 1, ((), ()), (None, None), None),
    ],
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_trial_outcomes_pinned(name):
    _, records = bench.run_plan(PLANS[name])
    outcomes = [
        (
            r.report.verdict,
            r.report.reject_stage,
            r.report.queries_used,
            r.report.refine_rounds_used,
            r.report.selected_buckets,
            r.report.phi,
            None if r.report.learned_core is None else r.report.learned_core.values,
        )
        for r in records
    ]
    assert outcomes == EXPECTED[name]


def _one_round_run(name):
    """(class, table, config) of a pinned one-round run."""
    small = dict(q=64, m=50, core_grid=0.25, refine_rounds=1)
    if name.startswith("and_k2"):
        table = lift_core(CoreTable(2, AND_CORE), (3, 9), 12)
        return "submodular", table, TesterConfig(0.25, 2, num_parts=4, seed=int(name[-1]), **small)
    table = lift_core(cached_cores("subadditive", 3, 0.25).member(1000), (2, 7, 11), 12)
    return "subadditive", table, TesterConfig(0.25, 3, num_parts=5, seed=2, **small)


# report_to_lines of each run; learning from a final part's largest
# pattern instead of its smallest changes every one of them
ONE_ROUND_REPORTS = {
    "and_k2_seed0": [
        "schema: cubetest-report-1",
        "verdict: accept",
        "reject_stage: none",
        "queries_used: 664",
        "selected_buckets: 3 ; 9",
        "learned_core: 0.0 0.25 0.25 0.5",
        "empirical_distance: 0.0732421875",
        "eta: gate=0.0 initial_min=0.0 refine_last=0.0",
        "phi: 3 9",
        "empty_buckets: 0 0",
        "refine_rounds_used: 1",
    ],
    "and_k2_seed1": [
        "schema: cubetest-report-1",
        "verdict: reject",
        "reject_stage: influence_check",
        "queries_used: 664",
        "selected_buckets: 9 ; 10",
        "learned_core: -",
        "empirical_distance: -",
        "eta: gate=0.16 initial_min=0.0 refine_last=0.0",
        "phi: 9 10",
        "empty_buckets: 0 0",
        "refine_rounds_used: 1",
    ],
    "subadditive_k3_seed2": [
        "schema: cubetest-report-1",
        "verdict: reject",
        "reject_stage: influence_check",
        "queries_used: 914",
        "selected_buckets: 9 ; 7 ; 8",
        "learned_core: -",
        "empirical_distance: -",
        "eta: gate=0.19 initial_min=0.0 refine_last=0.059375",
        "phi: 9 7 8",
        "empty_buckets: 0 0 0",
        "refine_rounds_used: 1",
    ],
}


@pytest.mark.parametrize("name", sorted(ONE_ROUND_REPORTS))
def test_one_round_report_pinned(name):
    class_tag, table, cfg = _one_round_run(name)
    report = run_tester(make_counting_oracle(table), class_tag, cfg)
    assert report_to_lines(report) == ONE_ROUND_REPORTS[name]


@pytest.mark.parametrize("name", sorted(ONE_ROUND_REPORTS))
def test_one_round_run_keeps_a_part_of_several_patterns(name, monkeypatch):
    # the pins above test which pattern a final part is read through only
    # if some final part still holds more than one
    split, halves = tester._split_part, []

    def spy(part, rng):
        halves.append(split(part, rng))
        return halves[-1]

    monkeypatch.setattr(tester, "_split_part", spy)
    class_tag, table, cfg = _one_round_run(name)
    report = run_tester(make_counting_oracle(table), class_tag, cfg)
    assert len(halves) == cfg.k  # one round
    kept = [
        next(h for h in pair if h.masks and tuple(sorted(coords_of(h.masks[0]))) == coords)
        for pair, coords in zip(halves, report.selected_buckets)
        if coords
    ]
    assert any(len(h.masks) > 1 for h in kept)
