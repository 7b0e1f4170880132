"""The tester settings table (`tester.SETTINGS`, `tester.PLAN_SETTINGS`)
through the files and the command built on it, and the trial tables
`bench.run_plan` hands the tester."""

import pytest

from cubetest import bench
from cubetest.cli import main
from cubetest.tester import TesterConfig, load_config, save_config

from oracles import naive_trial_table

# every setting away from its TesterConfig default
DESK_ALL = dict(
    eps=0.3, k=3, p=4.0, q=96, m=1500, num_parts=20, refine_rounds=9, inf_threshold=0.002,
    accept_threshold=0.07, core_grid=0.5, seed=17, sqrt_statistic=True, subset_budget=5000,
)
DESK_ALL_BYTES = b"""schema: cubetest-config-1
eps: 0.3
k: 3
p: 4.0
q: 96
m: 1500
num_parts: 20
refine_rounds: 9
inf_threshold: 0.002
accept_threshold: 0.07
core_grid: 0.5
seed: 17
sqrt_statistic: 1
subset_budget: 5000
# deviation q: 96 (paper profile value 1354808)
# deviation m: 1500 (paper profile value 123456791)
# deviation num_parts: 20 (paper profile value 8100)
# deviation core_grid: 0.5 (paper profile value 8.999999999999999e-05)
"""
SMALL_ALL = dict(
    eps=0.5, k=1, p=1.5, q=40, m=50, num_parts=7, refine_rounds=3, inf_threshold=0.01,
    accept_threshold=0.2, core_grid=0.125, seed=4, sqrt_statistic=True, subset_budget=777,
)
SMALL_ALL_BYTES = b"""schema: cubetest-config-1
eps: 0.5
k: 1
p: 1.5
q: 40
m: 50
num_parts: 7
refine_rounds: 3
inf_threshold: 0.01
accept_threshold: 0.2
core_grid: 0.125
seed: 4
sqrt_statistic: 1
subset_budget: 777
# deviation q: 40 (paper profile value 64)
# deviation m: 50 (paper profile value 32)
# deviation num_parts: 7 (paper profile value 100)
# deviation core_grid: 0.125 (paper profile value 0.0005)
"""
ALL_NINE = {
    "q": 32, "m": 200, "num_parts": 9, "gamma": 0.5, "refine_rounds": 4, "inf_threshold": 1e-3,
    "accept_threshold": 0.15, "sqrt_statistic": 1, "subset_budget": 4000,
}
ALL_NINE_PLAN = bench.ExperimentPlan(
    "submodular", 8, 2, 0.25, p=3.0, trial_count=5, seed_base=3, mode="far_mode_a",
    overrides=ALL_NINE, core_values=(0.0, 0.0, 0.0, 1.0),
)
ALL_NINE_BYTES = b"""schema: cubetest-plan-1
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
refine_rounds: 4
inf_threshold: 0.001
accept_threshold: 0.15
sqrt_statistic: 1
subset_budget: 4000
core_values: 0.0 0.0 0.0 1.0
"""


class TestConfigFile:
    @pytest.mark.parametrize(
        "config, expected",
        [
            (TesterConfig(**DESK_ALL), DESK_ALL_BYTES),
            (TesterConfig(**SMALL_ALL), SMALL_ALL_BYTES),
        ],
        ids=["desk", "small"],
    )
    def test_bytes_and_round_trip(self, tmp_path, config, expected):
        path = tmp_path / "cfg.txt"
        save_config(config, path)
        assert path.read_bytes() == expected
        assert load_config(path) == config

    def test_optional_keys_keep_their_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        save_config(TesterConfig(**DESK_ALL), path)
        optional = ("p:", "seed:", "sqrt_statistic:", "subset_budget:")
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(optional)]
        path.write_text("\n".join(lines) + "\n")
        fields = {key: DESK_ALL[key] for key in DESK_ALL if key not in ("p", "seed")}
        fields.update(sqrt_statistic=False, subset_budget=200_000)
        assert load_config(path) == TesterConfig(**fields)


class TestPlanFile:
    def test_all_nine_settings_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "plan.txt"
        bench.write_plan(ALL_NINE_PLAN, path)
        assert path.read_bytes() == ALL_NINE_BYTES
        back = bench.read_plan(path)
        assert back == ALL_NINE_PLAN
        assert back.overrides["sqrt_statistic"] is True
        assert back.tester_config(seed=2) == ALL_NINE_PLAN.tester_config(seed=2)
        bench.write_plan(back, path)
        assert path.read_bytes() == ALL_NINE_BYTES

    def test_plan_settings_reach_the_config(self):
        cfg = ALL_NINE_PLAN.tester_config(seed=11)
        assert cfg == TesterConfig(
            eps=0.25, k=2, p=3.0, seed=11, q=32, m=200, num_parts=9, core_grid=0.5,
            refine_rounds=4, inf_threshold=1e-3, accept_threshold=0.15, sqrt_statistic=True,
            subset_budget=4000,
        )


class TestConfigFlag:
    def test_config_settings_reach_run_tester(self, tmp_path, monkeypatch):
        """Every setting a plan may override reaches `run_tester` from
        --config; the plan's own overrides win, and eps, k, p and the
        seed come from the plan."""
        seen = []
        run_tester = bench.run_tester

        def spy(oracle, class_tag, config, **kwargs):
            seen.append(config)
            return run_tester(oracle, class_tag, config, **kwargs)

        monkeypatch.setattr(bench, "run_tester", spy)
        cfg = tmp_path / "cfg.txt"
        save_config(
            TesterConfig(
                eps=0.4, k=1, p=4.0, q=12, m=40, num_parts=7, refine_rounds=2, inf_threshold=0.003,
                accept_threshold=0.09, core_grid=0.5, seed=99, sqrt_statistic=True,
                subset_budget=50,
            ),
            cfg,
        )
        plan = bench.ExperimentPlan(
            "submodular", 8, 2, 0.25, p=3.0, trial_count=2, seed_base=4,
            overrides={"q": 16, "accept_threshold": 0.2},
        )
        path = tmp_path / "plan.txt"
        bench.write_plan(plan, path)
        assert main(["--config", str(cfg), "test", str(path)]) == 0
        expected = [
            TesterConfig(
                eps=0.25, k=2, p=3.0, seed=seed, q=16, m=40, num_parts=7, core_grid=0.5,
                refine_rounds=2, inf_threshold=0.003, accept_threshold=0.2,
                sqrt_statistic=True, subset_budget=50,
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
