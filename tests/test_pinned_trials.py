"""Per-seed trial outcomes of four plans, pinned.

For every trial: verdict, reject_stage, queries_used, refine_rounds_used,
selected_buckets, phi and the learned core's values (None on a reject),
as `bench.run_plan` gives them.  Core values are multiples of 1/4, so no
BLAS changes them; the other float fields (eta, empirical_distance) are
left out, since another BLAS may change their last bits.  A change that
keeps the tester's RNG stream, its verdicts, the first passing core of
each search and the queries each estimate spends keeps every line here.
"""

import pytest

from cubetest import bench

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
    # the one plan at p != 2, on a third checker class
    "unit_demand": bench.ExperimentPlan(
        "unit_demand", 12, 2, 0.25, p=1.0, trial_count=20, seed_base=7, mode="in_class",
        overrides=DESK,
    ),
}
# (verdict, reject_stage, queries_used, refine_rounds_used, selected_buckets, phi,
#  learned core values)
EXPECTED = {
    "criterion_08": [
        ('reject', 'core_search', 42024, 6, ((11,), (1,)), (11, 1), None),
        ('reject', 'core_search', 16024, 1, ((1,), (2,)), (1, 2), None),
        ('reject', 'core_search', 26024, 3, ((4,), (2,)), (4, 2), None),
        ('reject', 'core_search', 18024, 1, ((6,), (5,)), (6, 5), None),
        ('reject', 'core_search', 16024, 1, ((6,), (11,)), (6, 11), None),
        ('reject', 'core_search', 16024, 1, ((11,), (7,)), (11, 7), None),
        ('reject', 'core_search', 17024, 1, ((9,), (8,)), (9, 8), None),
        ('reject', 'core_search', 21024, 2, ((10,), (9,)), (10, 9), None),
        ('reject', 'core_search', 21024, 2, ((5,), (10,)), (5, 10), None),
        ('reject', 'core_search', 25024, 3, ((3,), (9,)), (3, 9), None),
        ('reject', 'core_search', 21024, 2, ((1,), (11,)), (1, 11), None),
        ('reject', 'core_search', 32024, 4, ((12,), (4,)), (12, 4), None),
        ('reject', 'core_search', 18024, 1, ((1,), (8,)), (1, 8), None),
        ('reject', 'core_search', 15024, 1, ((9,), (5,)), (9, 5), None),
        ('reject', 'core_search', 16024, 1, ((11,), (10,)), (11, 10), None),
        ('reject', 'core_search', 16024, 1, ((11,), (9,)), (11, 9), None),
        ('reject', 'core_search', 25024, 3, ((), (1,)), (None, 1), None),
        ('reject', 'core_search', 17024, 1, ((1,), (6,)), (1, 6), None),
        ('reject', 'core_search', 14024, 1, ((8,), (10,)), (8, 10), None),
        ('reject', 'core_search', 31024, 4, ((12,), (10,)), (12, 10), None),
    ],
    "subadditive_k3": [
        ('accept', 'none', 19064, 1, ((5,), (6,), (11,)), (5, 6, 11),
         (0.75, 0.75, 0.75, 0.0, 0.25, 0.75, 0.25, 0.25)),
        ('accept', 'none', 22064, 1, ((4,), (6,), (2,)), (4, 6, 2),
         (0.5, 1.0, 1.0, 1.0, 1.0, 0.0, 0.75, 0.25)),
        ('accept', 'none', 22064, 1, ((7,), (4,), (3,)), (7, 4, 3),
         (0.75, 0.0, 0.5, 0.0, 0.75, 0.75, 1.0, 0.5)),
        ('accept', 'none', 22064, 1, ((5,), (8,), (10,)), (5, 8, 10),
         (0.5, 0.25, 0.5, 0.25, 0.25, 0.0, 0.25, 0.0)),
        ('accept', 'none', 21064, 1, ((3,), (9,), (5,)), (3, 9, 5),
         (0.5, 0.5, 0.0, 0.0, 0.5, 1.0, 0.25, 0.25)),
        ('accept', 'none', 21064, 1, ((11,), (1,), (3,)), (11, 1, 3),
         (0.5, 0.5, 1.0, 0.5, 0.0, 0.0, 0.25, 0.25)),
        ('accept', 'none', 29064, 2, ((9,), (12,), (1,)), (9, 12, 1),
         (0.5, 0.5, 0.75, 1.0, 0.75, 0.0, 1.0, 0.25)),
        ('accept', 'none', 22064, 1, ((4,), (2,), (10,)), (4, 2, 10),
         (0.0, 0.0, 0.5, 0.0, 0.75, 0.75, 0.75, 0.75)),
        ('accept', 'none', 22064, 1, ((), (8,), (6,)), (None, 8, 6),
         (0.0, 0.0, 0.75, 0.0, 0.25, 0.0, 0.0, 0.0)),
        ('accept', 'none', 38064, 3, ((11,), (4,), (2,)), (11, 4, 2),
         (0.25, 1.0, 0.0, 0.0, 0.75, 1.0, 0.5, 0.25)),
        ('reject', 'core_search', 36064, 3, ((), (9,), (2,)), (None, 9, 2), None),
        ('accept', 'none', 20064, 1, ((9,), (12,), (10,)), (9, 12, 10),
         (0.25, 0.75, 0.25, 0.25, 0.75, 0.0, 1.0, 0.0)),
        ('accept', 'none', 21064, 1, ((12,), (4,), (3,)), (12, 4, 3),
         (0.0, 0.25, 1.0, 0.5, 0.25, 0.25, 0.0, 0.0)),
        ('accept', 'none', 37064, 3, ((1,), (5,), (7,)), (1, 5, 7),
         (0.25, 0.5, 0.25, 0.75, 0.75, 0.75, 1.0, 0.25)),
        ('accept', 'none', 20064, 1, ((7,), (10,), (4,)), (7, 10, 4),
         (0.75, 0.0, 0.25, 0.25, 0.75, 0.0, 0.5, 0.25)),
        ('accept', 'none', 22064, 1, ((7,), (12,), (10,)), (7, 12, 10),
         (0.75, 0.5, 0.5, 0.75, 0.25, 0.25, 0.25, 0.0)),
        ('accept', 'none', 29064, 2, ((7,), (10,), (12,)), (7, 10, 12),
         (0.5, 0.5, 1.0, 1.0, 1.0, 0.5, 0.75, 0.0)),
        ('accept', 'none', 39064, 3, ((3,), (12,), (1,)), (3, 12, 1),
         (0.5, 1.0, 0.25, 1.0, 1.0, 1.0, 0.0, 0.0)),
        ('accept', 'none', 20064, 1, ((11,), (2,), (5,)), (11, 2, 5),
         (0.75, 0.75, 0.25, 1.0, 1.0, 1.0, 0.0, 0.0)),
        ('accept', 'none', 22064, 1, ((11,), (6,), (5,)), (11, 6, 5),
         (0.0, 0.75, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0)),
    ],
    "far_mode_b_n10": [
        ('reject', 'core_search', 13064, 1, ((8,), (3,)), (8, 3), None),
        ('reject', 'core_search', 18064, 2, ((3,), (6,)), (3, 6), None),
        ('reject', 'core_search', 17064, 2, ((), (8,)), (None, 8), None),
        ('reject', 'core_search', 15064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((5,), ()), (5, None), None),
        ('reject', 'core_search', 16064, 1, ((9,), (1,)), (9, 1), None),
        ('reject', 'core_search', 15064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 24064, 3, ((5,), (3,)), (5, 3), None),
        ('reject', 'core_search', 13064, 1, ((2,), ()), (2, None), None),
        ('reject', 'core_search', 14064, 1, ((6,), (1,)), (6, 1), None),
        ('reject', 'core_search', 14064, 1, ((2,), ()), (2, None), None),
        ('reject', 'core_search', 12064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((), (1,)), (None, 1), None),
        ('reject', 'core_search', 13064, 1, ((7,), (1,)), (7, 1), None),
        ('reject', 'core_search', 15064, 1, ((4,), ()), (4, None), None),
        ('reject', 'core_search', 13064, 1, ((), (6,)), (None, 6), None),
        ('reject', 'core_search', 15064, 1, ((5,), (1,)), (5, 1), None),
        ('reject', 'core_search', 14064, 1, ((1,), ()), (1, None), None),
        ('reject', 'core_search', 13064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 16064, 1, ((10,), ()), (10, None), None),
    ],
    "unit_demand": [
        ('accept', 'none', 15064, 1, ((), (5,)), (None, 5),
         (0.0, 0.0, 1.0, 1.0)),
        ('accept', 'none', 17064, 1, ((5,), (8,)), (5, 8),
         (0.0, 0.0, 1.0, 1.0)),
        ('accept', 'none', 15064, 1, ((3,), (5,)), (3, 5),
         (0.0, 0.0, 1.0, 1.0)),
        ('accept', 'none', 25064, 3, ((), (12,)), (None, 12),
         (0.0, 0.0, 0.75, 0.75)),
        ('accept', 'none', 24064, 3, ((9,), (1,)), (9, 1),
         (0.0, 0.5, 1.0, 1.0)),
        ('accept', 'none', 15064, 1, ((11,), (2,)), (11, 2),
         (0.0, 0.5, 0.25, 0.5)),
        ('accept', 'none', 16064, 1, ((7,), ()), (7, None),
         (0.0, 0.0, 0.0, 0.0)),
        ('accept', 'none', 24064, 3, ((5,), (4,)), (5, 4),
         (0.0, 0.5, 1.0, 1.0)),
        ('reject', 'core_search', 14064, 1, ((), (10,)), (None, 10), None),
        ('accept', 'none', 19064, 2, ((12,), (10,)), (12, 10),
         (0.0, 0.5, 0.75, 0.75)),
        ('accept', 'none', 15064, 1, ((), ()), (None, None),
         (0.0, 0.0, 0.0, 0.0)),
        ('accept', 'none', 14064, 1, ((6,), (1,)), (6, 1),
         (0.0, 0.25, 0.5, 0.5)),
        ('accept', 'none', 16064, 1, ((7,), (11,)), (7, 11),
         (0.0, 0.0, 0.75, 0.75)),
        ('accept', 'none', 16064, 1, ((6,), (11,)), (6, 11),
         (0.0, 0.0, 0.75, 0.75)),
        ('accept', 'none', 19064, 2, ((8,), (10,)), (8, 10),
         (0.0, 0.5, 1.0, 1.0)),
        ('accept', 'none', 32064, 4, ((3,), (1,)), (3, 1),
         (0.0, 0.75, 0.25, 0.75)),
        ('accept', 'none', 16064, 1, ((5,), (12,)), (5, 12),
         (0.0, 0.75, 1.0, 1.0)),
        ('accept', 'none', 18064, 1, ((6,), (12,)), (6, 12),
         (0.0, 0.75, 0.5, 0.75)),
        ('accept', 'none', 15064, 1, ((6,), (4,)), (6, 4),
         (0.0, 0.25, 0.25, 0.25)),
        ('accept', 'none', 12064, 1, ((4,), (9,)), (4, 9),
         (0.0, 0.25, 0.75, 0.75)),
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
