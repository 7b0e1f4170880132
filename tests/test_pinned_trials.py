"""Per-seed trial outcomes of three plans, pinned.

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
}
# (verdict, reject_stage, queries_used, refine_rounds_used, selected_buckets, phi,
#  learned core values)
EXPECTED = {
    "criterion_08": [
        ('reject', 'core_search', 41024, 6, ((1,), (11,)), (1, 11), None),
        ('reject', 'core_search', 17024, 1, ((2,), (1,)), (2, 1), None),
        ('reject', 'core_search', 21024, 2, ((), (4,)), (None, 4), None),
        ('reject', 'core_search', 21024, 2, ((), (6,)), (None, 6), None),
        ('reject', 'core_search', 17024, 1, ((6,), (11,)), (6, 11), None),
        ('reject', 'core_search', 36024, 5, ((7,), (11,)), (7, 11), None),
        ('reject', 'core_search', 16024, 1, ((8,), (9,)), (8, 9), None),
        ('reject', 'core_search', 17024, 1, ((10,), (9,)), (10, 9), None),
        ('reject', 'core_search', 26024, 3, ((10,), (5,)), (10, 5), None),
        ('reject', 'core_search', 29024, 4, ((3,), (9,)), (3, 9), None),
        ('reject', 'core_search', 17024, 1, ((1,), (11,)), (1, 11), None),
        ('reject', 'core_search', 26024, 3, ((12,), (4,)), (12, 4), None),
        ('reject', 'core_search', 16024, 1, ((8,), (1,)), (8, 1), None),
        ('reject', 'core_search', 15024, 1, ((9,), (5,)), (9, 5), None),
        ('reject', 'core_search', 16024, 1, ((11,), (10,)), (11, 10), None),
        ('reject', 'core_search', 21024, 2, ((9,), (11,)), (9, 11), None),
        ('reject', 'core_search', 16024, 1, ((1,), (4,)), (1, 4), None),
        ('reject', 'core_search', 35024, 5, ((1,), (6,)), (1, 6), None),
        ('reject', 'core_search', 21024, 2, ((8,), (10,)), (8, 10), None),
        ('reject', 'core_search', 17024, 1, ((12,), (10,)), (12, 10), None),
    ],
    "subadditive_k3": [
        ('accept', 'none', 20064, 1, ((11,), (6,), (5,)), (11, 6, 5),
         (0.5, 0.25, 1.0, 0.25, 1.0, 0.75, 0.25, 0.25)),
        ('accept', 'none', 20064, 1, ((4,), (6,), (2,)), (4, 6, 2),
         (0.5, 0.75, 1.0, 1.0, 1.0, 0.0, 0.75, 0.25)),
        ('accept', 'none', 21064, 1, ((4,), (7,), (3,)), (4, 7, 3),
         (0.75, 0.25, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5)),
        ('accept', 'none', 20064, 1, ((8,), (5,), (10,)), (8, 5, 10),
         (0.25, 0.5, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0)),
        ('accept', 'none', 28064, 2, ((9,), (5,), (3,)), (9, 5, 3),
         (0.25, 0.0, 0.5, 0.5, 0.5, 0.0, 1.0, 0.25)),
        ('accept', 'none', 39064, 3, ((3,), (1,), (11,)), (3, 1, 11),
         (0.5, 0.0, 0.75, 0.25, 0.75, 0.0, 0.5, 0.25)),
        ('accept', 'none', 19064, 1, ((1,), (9,), (12,)), (1, 9, 12),
         (0.25, 0.75, 0.75, 0.0, 1.0, 1.0, 1.0, 0.25)),
        ('accept', 'none', 56064, 5, ((10,), (2,), (4,)), (10, 2, 4),
         (0.0, 0.5, 0.5, 0.75, 0.25, 0.75, 0.25, 0.75)),
        ('reject', 'core_search', 28064, 2, ((), (), (8,)), (None, None, 8), None),
        ('accept', 'none', 27064, 2, ((), (4,), (2,)), (None, 4, 2),
         (0.75, 0.0, 0.0, 0.0, 0.75, 0.0, 0.25, 0.0)),
        ('accept', 'none', 21064, 1, ((10,), (2,), (9,)), (10, 2, 9),
         (0.5, 0.25, 0.5, 0.75, 1.0, 0.75, 0.25, 0.5)),
        ('accept', 'none', 21064, 1, ((10,), (12,), (9,)), (10, 12, 9),
         (0.25, 0.75, 0.25, 1.0, 1.0, 0.0, 0.25, 0.0)),
        ('accept', 'none', 20064, 1, ((12,), (3,), (4,)), (12, 3, 4),
         (0.0, 0.0, 0.25, 0.25, 0.75, 0.5, 0.0, 0.0)),
        ('accept', 'none', 28064, 2, ((1,), (5,), (7,)), (1, 5, 7),
         (0.25, 0.5, 0.25, 0.75, 0.75, 0.75, 1.0, 0.25)),
        ('accept', 'none', 20064, 1, ((4,), (7,), (10,)), (4, 7, 10),
         (0.5, 0.5, 0.25, 0.0, 0.5, 0.25, 0.5, 0.25)),
        ('accept', 'none', 21064, 1, ((10,), (12,), (7,)), (10, 12, 7),
         (0.5, 0.25, 0.25, 0.25, 0.75, 0.25, 1.0, 0.0)),
        ('accept', 'none', 21064, 1, ((10,), (12,), (7,)), (10, 12, 7),
         (0.5, 0.75, 1.0, 0.75, 0.5, 0.75, 0.5, 0.0)),
        ('accept', 'none', 20064, 1, ((), (12,), (1,)), (None, 12, 1),
         (1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0)),
        ('accept', 'none', 65064, 6, ((11,), (5,), (2,)), (11, 5, 2),
         (0.5, 1.0, 1.0, 0.75, 0.5, 1.0, 0.0, 0.0)),
        ('accept', 'none', 19064, 1, ((6,), (5,), (11,)), (6, 5, 11),
         (0.0, 0.75, 1.0, 0.5, 1.0, 0.25, 0.0, 0.0)),
    ],
    "far_mode_b_n10": [
        ('reject', 'core_search', 12064, 1, ((2,), (10,)), (2, 10), None),
        ('reject', 'core_search', 15064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((3,), ()), (3, None), None),
        ('reject', 'core_search', 13064, 1, ((2,), ()), (2, None), None),
        ('reject', 'core_search', 14064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((10,), ()), (10, None), None),
        ('reject', 'core_search', 14064, 1, ((2,), (6,)), (2, 6), None),
        ('reject', 'core_search', 14064, 1, ((), (3,)), (None, 3), None),
        ('reject', 'core_search', 13064, 1, ((), (3,)), (None, 3), None),
        ('reject', 'core_search', 19064, 2, ((), (5,)), (None, 5), None),
        ('reject', 'core_search', 14064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((), (1,)), (None, 1), None),
        ('reject', 'core_search', 14064, 1, ((), (4,)), (None, 4), None),
        ('reject', 'core_search', 15064, 1, ((5,), (10,)), (5, 10), None),
        ('reject', 'core_search', 17064, 2, ((), (3,)), (None, 3), None),
        ('reject', 'core_search', 14064, 1, ((6,), ()), (6, None), None),
        ('reject', 'core_search', 12064, 1, ((7,), ()), (7, None), None),
        ('reject', 'core_search', 13064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 15064, 1, ((), ()), (None, None), None),
        ('reject', 'core_search', 14064, 1, ((2,), (4,)), (2, 4), None),
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
