"""The plan settings table (`tester.PLAN_SETTINGS`) through plan files
and the command built on them, and the trial tables `bench.run_plan`
hands the tester."""

import pytest

from cubetest import bench
from cubetest.cli import main
from cubetest.tester import TesterConfig

from oracles import naive_trial_table

ALL_FIVE = {"q": 32, "m": 200, "num_parts": 9, "gamma": 0.5, "accept_threshold": 0.15}
ALL_FIVE_PLAN = bench.ExperimentPlan(
    "submodular", 8, 2, 0.25, p=3.0, trial_count=5, seed_base=3, mode="far_mode_a",
    overrides=ALL_FIVE, core_values=(0.0, 0.0, 0.0, 1.0),
)
ALL_FIVE_BYTES = b"""schema: cubetest-plan-1
class: submodular
n: 8
k: 2
eps: 0.25
p: 3.0
trials: 5
seed_base: 3
mode: far_mode_a
q: 32
m: 200
num_parts: 9
gamma: 0.5
accept_threshold: 0.15
core_values: 0.0 0.0 0.0 1.0
"""


class TestPlanFile:
    def test_all_five_settings_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "plan.txt"
        bench.write_plan(ALL_FIVE_PLAN, path)
        assert path.read_bytes() == ALL_FIVE_BYTES
        back = bench.read_plan(path)
        assert back == ALL_FIVE_PLAN
        assert back.tester_config(seed=2) == ALL_FIVE_PLAN.tester_config(seed=2)
        bench.write_plan(back, path)
        assert path.read_bytes() == ALL_FIVE_BYTES

    def test_plan_settings_reach_the_config(self):
        cfg = ALL_FIVE_PLAN.tester_config(seed=11)
        assert cfg == TesterConfig(
            eps=0.25, k=2, p=3.0, seed=11, q=32, m=200, num_parts=9, core_grid=0.5,
            accept_threshold=0.15,
        )

    def test_plan_settings_reach_run_tester(self, tmp_path, monkeypatch):
        """Every setting a plan file may override reaches `run_tester`
        through the test command, and eps, k, p and each trial's seed
        come from the plan's own fields."""
        seen = []
        run_tester = bench.run_tester

        def spy(oracle, class_tag, config, **kwargs):
            seen.append(config)
            return run_tester(oracle, class_tag, config, **kwargs)

        monkeypatch.setattr(bench, "run_tester", spy)
        plan = bench.ExperimentPlan(
            "submodular", 8, 2, 0.25, p=3.0, trial_count=2, seed_base=4,
            overrides={"q": 16, "m": 40, "num_parts": 7, "gamma": 0.5, "accept_threshold": 0.2},
        )
        path = tmp_path / "plan.txt"
        bench.write_plan(plan, path)
        assert main(["test", str(path)]) == 0
        expected = [
            TesterConfig(
                eps=0.25, k=2, p=3.0, seed=seed, q=16, m=40, num_parts=7, core_grid=0.5,
                accept_threshold=0.2,
            )
            for seed in (4, 5)
        ]
        assert seen == expected


class TestTrialTables:
    """`run_plan` builds each trial's table as the per-trial construction
    in `oracles.naive_trial_table` does, and makes at most one far
    instance per plan."""

    PLANS = {
        "in_class_k2": dict(class_tag="submodular", n=8, k=2, mode="in_class"),
        "in_class_k3": dict(class_tag="subadditive", n=12, k=3, mode="in_class"),
        "far_mode_a_core": dict(
            class_tag="submodular", n=12, k=2, mode="far_mode_a", core_values=(0.0, 0.0, 0.0, 1.0)
        ),
        "far_mode_a_search": dict(class_tag="submodular", n=8, k=2, mode="far_mode_a"),
        "far_mode_b": dict(class_tag="submodular", n=8, k=2, mode="far_mode_b"),
    }

    @pytest.mark.parametrize("case", PLANS)
    def test_same_tables(self, monkeypatch, case):
        plan = bench.ExperimentPlan(
            eps=0.25, trial_count=6, seed_base=40, overrides={"q": 16, "m": 20, "gamma": 0.25},
            **self.PLANS[case],
        )
        tables, far_calls = [], []
        make_counting_oracle, make_far_instance = bench.make_counting_oracle, bench.make_far_instance

        def oracle_spy(table):
            tables.append(table)
            return make_counting_oracle(table)

        def far_spy(*args, **kwargs):
            far_calls.append(args[0])
            return make_far_instance(*args, **kwargs)

        monkeypatch.setattr(bench, "make_counting_oracle", oracle_spy)
        monkeypatch.setattr(bench, "make_far_instance", far_spy)
        bench.run_plan(plan)
        seeds = range(plan.seed_base, plan.seed_base + plan.trial_count)
        if plan.mode == "in_class":
            assert far_calls == []
            expected = [naive_trial_table(plan, seed) for seed in seeds]
        elif plan.mode == "far_mode_a":
            assert far_calls == ["a"]
            probe = make_far_instance(
                "a", plan.class_tag, plan.n, plan.k, plan.eps, gamma=0.25,
                core_values=plan.core_values,
            )
            expected = [naive_trial_table(plan, seed, probe.core_values) for seed in seeds]
        else:
            assert far_calls == ["b"]
            table = make_far_instance("b", plan.class_tag, plan.n, plan.k, plan.eps).table
            expected = [table] * plan.trial_count
        assert tables == expected
