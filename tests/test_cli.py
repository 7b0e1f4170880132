import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cubetest
from cubetest import bench, cores, tester, valuations
from cubetest.cli import main
from cubetest.tables import read_table, write_table
from cubetest.tester import report_from_lines
from cubetest.valuations import ValuationSpec, gen, write_spec


@pytest.fixture
def additive_spec(tmp_path):
    path = tmp_path / "additive.spec"
    write_spec(ValuationSpec("additive", 2, {"weights": (0.5, 0.5)}), path)
    return path


@pytest.fixture
def and_table_file(tmp_path):
    from cubetest.tables import FunctionTable

    path = tmp_path / "and.tbl"
    write_table(FunctionTable(2, [0.0, 0.0, 0.0, 1.0]), path)
    return path


@pytest.fixture
def dictator_file(tmp_path):
    from cubetest.tables import FunctionTable

    path = tmp_path / "dict.tbl"
    write_table(FunctionTable(3, [float((m >> 0) & 1) for m in range(8)]), path)
    return path


@pytest.fixture
def no_cube_arrays(monkeypatch):
    """Make every builder of a 2^n array raise, so that an n the program
    should have rejected fails the test instead of allocating."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a 2^n array before checking n")

    monkeypatch.setattr(valuations, "_sum_of_present", refuse)
    monkeypatch.setattr(valuations, "_max_of_present", refuse)
    monkeypatch.setattr(valuations, "parity_blend_table", refuse)
    monkeypatch.setattr(cores, "lift_core", refuse)
    monkeypatch.setattr(bench, "lift_core", refuse)


class TestGen:
    def test_writes_expected_table(self, additive_spec, tmp_path, capsys):
        out = tmp_path / "out.tbl"
        assert main(["--out", str(out), "gen", str(additive_spec)]) == 0
        table = read_table(out)
        assert list(table.values) == [0.0, 0.5, 0.5, 1.0]
        assert "# spec " in out.read_text()

    def test_byte_identical_reruns(self, additive_spec, tmp_path):
        out1, out2 = tmp_path / "a.tbl", tmp_path / "b.tbl"
        assert main(["--out", str(out1), "gen", str(additive_spec)]) == 0
        assert main(["--out", str(out2), "gen", str(additive_spec)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("class: additive\nweights: 0.5 0.5\n")  # no n
        out = tmp_path / "out.tbl"
        assert main(["--out", str(out), "gen", str(bad)]) == 2

    def test_missing_out_exit_2(self, additive_spec, capsys):
        assert main(["gen", str(additive_spec)]) == 2
        assert capsys.readouterr().err == "error: gen requires --out\n"

    def test_unknown_spec_key_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_text("class: additive\nn: 2\nweights: 0.5 0.25\nsed: 4\n")
        assert main(["--out", str(tmp_path / "out.tbl"), "gen", str(spec)]) == 2
        assert capsys.readouterr().err == "error: unknown spec key 'sed'\n"
        assert not (tmp_path / "out.tbl").exists()

    @pytest.mark.parametrize("class_tag", valuations.GENERATOR_CLASSES)
    @pytest.mark.parametrize("n", [0, 30])
    def test_dimension_checked_before_generation(self, tmp_path, capsys, no_cube_arrays, n, class_tag):
        spec = tmp_path / "s.spec"
        lines = valuations.random_spec(class_tag, 2, seed=0).canonical_lines()
        lines[1] = f"n: {n}"
        spec.write_text("\n".join(lines) + "\n")
        assert main(["--out", str(tmp_path / "out.tbl"), "gen", str(spec)]) == 2
        assert capsys.readouterr().err == "error: dimension must be in [1..24]\n"
        assert not (tmp_path / "out.tbl").exists()

    # non-finite values once reached the table: the spec failed later as
    # "table values must be finite", after a numpy RuntimeWarning for an
    # infinite weight, and a budget-additive table clamped an infinite
    # weight to its budget and was written
    NON_FINITE = {
        "additive_inf": ("additive", "weights: 0.5 inf 0.25\n", "weights must be finite, got inf"),
        "additive_nan": ("additive", "weights: 0.5 nan 0.25\n", "weights must be finite, got nan"),
        "submodular_inf_weight": (
            "submodular", "weights: 0.5 inf 0.25\nbudget: 1.0\n", "weights must be finite, got inf"
        ),
        "submodular_nan_budget": (
            "submodular", "weights: 0.5 0.5 0.25\nbudget: nan\n", "budget must be finite, got nan"
        ),
        "submodular_inf_budget": (
            "submodular", "weights: 0.5 0.5 0.25\nbudget: inf\n", "budget must be finite, got inf"
        ),
        "unit_demand_minus_inf": (
            "unit_demand", "weights: 0.5 -inf 0.25\n", "weights must be finite, got -inf"
        ),
        "xos_nan": ("xos", "clause_1: 0.5 0.5 nan\n", "clause_1 must be finite, got nan"),
        "oxs_inf": (
            "oxs", "demand_1: 0.5 0.5 0.5\ndemand_2: inf 0.5 0.5\n", "demand_2 must be finite, got inf"
        ),
        "coverage_inf": (
            "coverage", "universe_weights: 0.5 inf\ncover_1: 1 2\n",
            "universe_weights must be finite, got inf",
        ),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, case):
        class_tag, given, message = self.NON_FINITE[case]
        spec = tmp_path / "s.spec"
        spec.write_text(f"class: {class_tag}\nn: 3\n{given}")
        assert main(["--out", str(tmp_path / "out.tbl"), "gen", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.tbl").exists()

    @pytest.mark.parametrize(
        "class_tag, given, message",
        [
            ("additive", "", "spec missing 'weights' field"),
            ("unit_demand", "", "spec missing 'weights' field"),
            ("coverage", "cover_1: 1\n", "spec missing 'universe_weights' field"),
            ("submodular", "", "spec missing 'weights' field"),
            ("submodular", "weights: 0.5 0.5\n", "spec missing 'budget' field"),
            ("xos", "", "at least one clause row required"),
            ("oxs", "", "at least one demand row required"),
            ("gross_substitutes", "", "at least one demand row required"),
        ],
    )
    def test_missing_class_parameter_exit_2(self, tmp_path, capsys, class_tag, given, message):
        spec = tmp_path / "s.spec"
        spec.write_text(f"class: {class_tag}\nn: 2\n{given}")
        assert main(["--out", str(tmp_path / "out.tbl"), "gen", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheck:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_exit_2(self, and_table_file, capsys, tol):
        assert main(["check", str(and_table_file), "submodular", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: tolerance must be finite and >= 0, got {float(tol)!r}\n"
        assert captured.out == ""

    def test_violation_exit_1_with_witness(self, and_table_file, capsys):
        assert main(["check", str(and_table_file), "submodular"]) == 1
        out = capsys.readouterr().out
        assert "10" in out and "01" in out

    def test_pass_exit_0(self, tmp_path, capsys):
        from cubetest.valuations import random_spec

        table = gen(random_spec("coverage", 5, 7))
        path = tmp_path / "cov.tbl"
        write_table(table, path)
        assert main(["check", str(path), "submodular"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_unsupported_class_exit_3(self, and_table_file, capsys):
        for class_tag in ("xos", "coverage", "gross_substitutes"):
            assert main(["check", str(and_table_file), class_tag]) == 3
            captured = capsys.readouterr()
            assert captured.err == f"unsupported class: no membership checker for class {class_tag!r}\n"
            assert captured.out == ""

    def test_missing_table_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.tbl"), "submodular"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_table_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tbl"
        bad.write_text("dim 1\n0 0.1\n")
        assert main(["check", str(bad), "submodular"]) == 2


class TestInfluence:
    def test_exact_dictator(self, dictator_file, capsys):
        assert main(["influence", str(dictator_file), "1", "--mode", "exact"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.25

    def test_exact_equals_fourier(self, tmp_path, capsys):
        import numpy as np

        from cubetest.tables import FunctionTable

        rng = np.random.default_rng(19)
        path = tmp_path / "r.tbl"
        write_table(FunctionTable(6, rng.uniform(0, 1, 64)), path)
        assert main(["influence", str(path), "2,5", "--mode", "exact"]) == 0
        exact = float(capsys.readouterr().out.strip())
        assert main(["influence", str(path), "2,5", "--mode", "fourier"]) == 0
        fourier = float(capsys.readouterr().out.strip())
        assert abs(exact - fourier) < 1e-9

    def test_estimate_minimal_m(self, dictator_file, capsys):
        assert main(["influence", str(dictator_file), "1", "--mode", "estimate:1:0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value in (0.0, 0.5)  # one squared difference over 2m = 2 queries

    def test_bad_mode_exit_2(self, dictator_file):
        assert main(["influence", str(dictator_file), "1", "--mode", "bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["influence", "{table}", "1", "--mode", "estimate:500:-3"],
            ["--seed", "-5", "influence", "{table}", "1", "--mode", "estimate:500:3"],
        ],
    )
    def test_negative_estimate_seed_exit_2(self, dictator_file, capsys, argv):
        # once numpy's "expected non-negative integer", naming no field
        assert main([a.format(table=dictator_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: estimate seed must be >= 0, got -")
        assert captured.out == ""

    @pytest.mark.parametrize("coords, token", [("1,,2", "''"), ("1,a", "'a'")])
    def test_bad_coordinate_exit_2(self, dictator_file, capsys, coords, token):
        # once int()'s "invalid literal", naming neither argument nor token
        assert main(["influence", str(dictator_file), coords, "--mode", "exact"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: coords {coords!r}: {token} is not an integer coordinate\n"
        assert captured.out == ""

    def test_estimate_m_over_budget_exit_4(self, dictator_file, capsys):
        # once a 298 GiB draw and a traceback
        mode = "estimate:20000000000:1"
        assert main(["influence", str(dictator_file), "1", "--mode", mode]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "budget exceeded: influence estimate needs 20000000000 samples per mask, "
            "budget is 4194304; reduce m\n"
        )
        assert captured.out == ""

    # stdout of the three modes on one generated table, as the parent of the
    # batch-only estimator printed it: every digit, and plain floats
    PINNED_SPEC = (
        "class: submodular\nn: 6\nseed: 7\nweights: 0.31 0.17 0.53 0.29 0.11 0.43\nbudget: 0.9\n"
    )
    PINNED = {
        ("2,5", "exact"): "0.0045480468750000004\n",
        ("2,5", "fourier"): "0.004548046875\n",
        ("2,5", "estimate:500:3"): "0.0045112\n",
        ("1,3,6", "exact"): "0.046372460937500005\n",
        ("1,3,6", "fourier"): "0.04637246093749999\n",
        ("1,3,6", "estimate:500:3"): "0.04745400000000001\n",
    }

    @pytest.mark.parametrize("coords, mode", sorted(PINNED))
    def test_pinned_output(self, tmp_path, capsys, coords, mode):
        spec, table = tmp_path / "pin.spec", tmp_path / "pin.tbl"
        spec.write_text(self.PINNED_SPEC)
        assert main(["--out", str(table), "gen", str(spec)]) == 0
        capsys.readouterr()
        assert main(["influence", str(table), coords, "--mode", mode]) == 0
        captured = capsys.readouterr()
        assert "np.float64(" not in captured.out
        assert captured.out == self.PINNED[coords, mode]
        assert captured.err == ""


class TestTestCommand:
    def _small_plan(self, tmp_path, **kwargs):
        defaults = dict(
            class_tag="submodular",
            n=8,
            k=2,
            eps=0.25,
            trial_count=3,
            seed_base=5,
            mode="in_class",
            overrides={"q": 16, "m": 20, "gamma": 0.25},
        )
        defaults.update(kwargs)
        plan = bench.ExperimentPlan(**defaults)
        path = tmp_path / "plan.txt"
        bench.write_plan(plan, path)
        return plan, path

    def test_summary_written(self, tmp_path, capsys):
        _, path = self._small_plan(tmp_path)
        out = tmp_path / "summary.txt"
        assert main(["--out", str(out), "test", str(path)]) == 0
        text = out.read_text()
        assert "accept_rate:" in text
        trials = (tmp_path / "summary.txt.trials").read_text()
        assert trials.count("verdict:") == 3
        # accept_rate agrees with the per-trial records
        accepts = trials.count("verdict: accept")
        rate = float(
            next(ln for ln in text.splitlines() if ln.startswith("accept_rate:")).split(":")[1]
        )
        assert rate == accepts / 3

    def test_single_trial_matches_report(self, tmp_path):
        plan, path = self._small_plan(tmp_path, trial_count=1)
        out = tmp_path / "s.txt"
        assert main(["--out", str(out), "test", str(path)]) == 0
        summary_text = out.read_text()
        trial_text = (tmp_path / "s.txt.trials").read_text()
        report = report_from_lines(
            "\n".join(
                ln for ln in trial_text.splitlines() if not ln.startswith(("trial:", "seed:"))
            )
        )
        rate = float(
            next(ln for ln in summary_text.splitlines() if ln.startswith("accept_rate:")).split(
                ":"
            )[1]
        )
        assert rate == (1.0 if report.verdict == "accept" else 0.0)
        mean_q = float(
            next(ln for ln in summary_text.splitlines() if ln.startswith("mean_queries:")).split(
                ":"
            )[1]
        )
        assert mean_q == report.queries_used

    def test_reproducible_modulo_wall_time(self, tmp_path):
        _, path = self._small_plan(tmp_path)
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        assert main(["--out", str(out1), "test", str(path)]) == 0
        assert main(["--out", str(out2), "test", str(path)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("wall_time")]
        assert strip(out1) == strip(out2)
        assert (tmp_path / "s1.txt.trials").read_text() == (tmp_path / "s2.txt.trials").read_text()

    def test_parser_reused_after_usage_error(self, tmp_path, capsys):
        # one parser serves every main call of a process: a usage error
        # between two equal commands must leave no trace in the second
        _, path = self._small_plan(tmp_path)
        out = tmp_path / "s.txt"
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("wall_time")]

        def run():
            assert main(["--out", str(out), "test", str(path)]) == 0
            trials = (tmp_path / "s.txt.trials").read_text()
            return strip(capsys.readouterr().out), strip(out.read_text()), trials

        first = run()
        assert main(["--seed", "3", "--out", str(tmp_path / "x.txt"), "test"]) == 2
        assert run() == first

    def test_threads_match_sequential(self, tmp_path):
        _, path = self._small_plan(tmp_path, trial_count=4)
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        assert main(["--out", str(out1), "test", str(path)]) == 0
        assert main(["--out", str(out2), "--threads", "4", "test", str(path)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("wall_time")]
        assert strip(out1) == strip(out2)

    def test_num_parts_budget_exit_4(self, tmp_path, capsys, monkeypatch):
        # the part selection estimates one mask per part: refused before
        # the partition is built
        def refuse(*args, **kwargs):
            raise AssertionError("built a partition over the part budget")

        monkeypatch.setattr(tester, "_initial_parts", refuse)
        overrides = {"q": 16, "m": 5, "gamma": 0.25, "num_parts": tester.NUM_PARTS_BUDGET + 1}
        _, path = self._small_plan(tmp_path, overrides=overrides)
        assert main(["test", str(path)]) == 4
        assert capsys.readouterr().err == (
            "budget exceeded: part selection needs 200001 influence estimates, budget is 200000; "
            "reduce num_parts\n"
        )

    def test_partition_budget_exit_4(self, tmp_path, capsys, monkeypatch):
        # one q-bit range start per part: q = 65,536 and 2,049 parts would
        # hold 16.8 MB of them, refused before the sample is drawn
        def refuse(*args, **kwargs):
            raise AssertionError("built a partition over the partition budget")

        monkeypatch.setattr(tester, "_initial_parts", refuse)
        overrides = {"q": tester.Q_BUDGET, "m": 5, "gamma": 0.25, "num_parts": 2049}
        _, path = self._small_plan(tmp_path, overrides=overrides)
        assert main(["test", str(path)]) == 4
        assert capsys.readouterr().err == (
            "budget exceeded: the partition needs q * num_parts = 134283264 bits of part bounds, "
            "budget is 134217728; reduce q or num_parts\n"
        )

    def test_enumeration_budget_exit_4(self, tmp_path, capsys):
        _, path = self._small_plan(tmp_path, overrides={"q": 16, "m": 5, "gamma": 1 / 4001})
        assert main(["test", str(path)]) == 4
        assert capsys.readouterr().err.startswith("budget exceeded: enumeration would visit ")

    # plans that parse but fail once the run starts
    FAILING_PLANS = {
        "num_parts_below_k": (
            dict(overrides={"q": 16, "m": 20, "gamma": 0.25, "num_parts": 1}),
            2,
            "error: num_parts must be >= k\n",
        ),
        "k_above_cap": (dict(k=4), 2, "error: k=4 exceeds the cap 3\n"),
        # k > n once failed inside numpy's sampling or lift_core, in words
        # that named no plan field
        **{
            f"k_above_n_{mode}": (
                dict(mode=mode, edits=(("n: 8\nk: 2\n", "n: 2\nk: 3\n"),)),
                2,
                "error: k=3 exceeds n=2\n",
            )
            for mode in ("in_class", "far_mode_a", "far_mode_b")
        },
        "k_equal_n_far_mode_b": (
            dict(mode="far_mode_b", edits=(("n: 8\nk: 2\n", "n: 2\nk: 2\n"),)),
            2,
            "error: mode b requires k < n\n",
        ),
        # a negative seed once reached numpy's "expected non-negative integer"
        "seed_base_negative": (
            dict(edits=(("seed_base: 5\n", "seed_base: -1\n"),)),
            2,
            "error: seed_base must be >= 0, got -1\n",
        ),
        "seed_option_negative": (dict(argv=("--seed", "-5")), 2, "error: seed_base must be >= 0, got -5\n"),
        # q and m once went on to a 149 GiB bit matrix or a 298 GiB draw
        "q_over_cap": (
            dict(overrides={"q": 20_000_000_000, "m": 20, "gamma": 0.25}),
            4,
            "budget exceeded: sampling needs 20000000000 sample points, budget is 65536; "
            "reduce q\n",
        ),
        "m_over_cap": (
            dict(overrides={"q": 16, "m": 20_000_000_000, "gamma": 0.25}),
            4,
            "budget exceeded: influence estimate needs 20000000000 samples per mask, "
            "budget is 4194304; reduce m\n",
        ),
        # settings that were removed: refused, not read and dropped
        "refine_rounds_given": (
            dict(edits=(("gamma: 0.25\n", "gamma: 0.25\nrefine_rounds: 4\n"),)),
            2,
            "error: unknown plan key 'refine_rounds'\n",
        ),
        "sqrt_statistic_given": (
            dict(edits=(("gamma: 0.25\n", "gamma: 0.25\nsqrt_statistic: 1\n"),)),
            2,
            "error: unknown plan key 'sqrt_statistic'\n",
        ),
        # once exited 4, "budget exceeded", at the part selection, then 2
        # as an invalid setting
        "subset_budget_given": (
            dict(edits=(("gamma: 0.25\n", "gamma: 0.25\nsubset_budget: 0\n"),)),
            2,
            "error: unknown plan key 'subset_budget'\n",
        ),
        # the influence gate's threshold, whose NaN once switched the gate off
        "inf_threshold_given": (
            dict(edits=(("gamma: 0.25\n", "gamma: 0.25\ninf_threshold: nan\n"),)),
            2,
            "error: unknown plan key 'inf_threshold'\n",
        ),
        # eps2 = 0.25^1.5 = 0.125 at p = 3: no accept radius between the
        # grid slack 0.25 and eps2, so the default is refused
        "no_accept_radius_p3": (
            dict(p=3.0, overrides={"q": 16, "m": 20, "gamma": 0.5}),
            2,
            "error: no accept radius fits between the grid slack core_grid/2 = 0.25 and "
            "eps2 = 0.125; give accept_threshold or a finer core_grid\n",
        ),
        "eps_beyond_far_core": (
            dict(mode="far_mode_a", eps=0.9),
            2,
            "error: eps=0.9 exceeds the best achievable certified distance",
        ),
        "class_without_checker": (
            dict(class_tag="xos"),
            3,
            "unsupported class: no membership checker for class 'xos'\n",
        ),
        # the far core of a plan file, in modes that build no far core:
        # once ignored, so in_class ran random cores and accepted 1.0
        "core_values_in_class": (
            dict(mode="far_mode_a", core_values=(0.0, 0.0, 0.0, 1.0), edits=(("far_mode_a", "in_class"),)),
            2,
            "error: core_values is read by mode far_mode_a only, not in_class\n",
        ),
        "malformed_core_values_far_mode_b": (
            dict(
                mode="far_mode_a",
                core_values=(0.0, 0.0, 0.0, 1.0),
                edits=(("far_mode_a", "far_mode_b"), ("1.0\n", "1.0 5.0 0.5\n")),
            ),
            2,
            "error: core_values is read by mode far_mode_a only, not far_mode_b\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FAILING_PLANS))
    def test_failing_plan_exit_code(self, tmp_path, capsys, case):
        fields, code, message = self.FAILING_PLANS[case]
        # `edits`: (old, new) replacements in the written plan file, for a
        # plan that ExperimentPlan refuses to build; `argv`: options
        fields = dict(fields)
        edits = fields.pop("edits", ())
        argv = fields.pop("argv", ())
        _, path = self._small_plan(tmp_path, **fields)
        for old, new in edits:
            path.write_text(path.read_text().replace(old, new))
        assert main([*argv, "--out", str(tmp_path / "s.txt"), "test", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("n", [0, 25, 30])
    def test_plan_dimension_checked_on_construction(self, n):
        with pytest.raises(ValueError, match=r"dimension must be in \[1\.\.24\]"):
            bench.ExperimentPlan("submodular", n, 2, 0.25)

    @pytest.mark.parametrize("mode", bench.PLAN_MODES)
    @pytest.mark.parametrize("n", [0, 30])
    def test_dimension_checked_before_instances(self, tmp_path, capsys, no_cube_arrays, mode, n):
        _, path = self._small_plan(tmp_path, mode=mode)
        path.write_text(path.read_text().replace("n: 8\n", f"n: {n}\n"))
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err == "error: dimension must be in [1..24]\n"

    def test_failing_plan_process_has_no_traceback(self, tmp_path):
        _, path = self._small_plan(
            tmp_path, overrides={"q": 16, "m": 20, "gamma": 0.25, "num_parts": 1}
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cubetest.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "cubetest.cli", "test", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 2
        assert result.stderr == "error: num_parts must be >= k\n"
        assert "Traceback" not in result.stderr

    # values that once ran to exit 0: a NaN accept_threshold rejected
    # every trial at the core search
    NON_FINITE = {
        "accept_threshold_nan": (
            "accept_threshold", "nan", "accept_threshold must be finite and > 0, got nan"
        ),
        "accept_threshold_inf": (
            "accept_threshold", "inf", "accept_threshold must be finite and > 0, got inf"
        ),
        "p_nan": ("p", "nan", "p must be >= 1 and finite, got nan"),
        "p_inf": ("p", "inf", "p must be >= 1 and finite, got inf"),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_plan_setting_exit_2(self, tmp_path, case):
        key, value, message = self.NON_FINITE[case]
        _, path = self._small_plan(tmp_path)
        # a repeated key keeps its last value
        path.write_text(path.read_text() + f"{key}: {value}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cubetest.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "cubetest.cli", "test", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_config_setting_exit_2(self, tmp_path, capsys, case):
        from cubetest.tester import TesterConfig, config_to_lines

        key, value, message = self.NON_FINITE[case]
        _, path = self._small_plan(tmp_path)
        cfg = tmp_path / "cfg.txt"
        lines = config_to_lines(TesterConfig(eps=0.25, k=2, q=16, m=20))
        cfg.write_text("\n".join(lines + [f"{key}: {value}"]) + "\n")
        assert main(["--config", str(cfg), "test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_malformed_plan_exit_2(self, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("schema: cubetest-plan-1\nclass: submodular\n")
        assert main(["test", str(bad)]) == 2

    def test_config_missing_field_exit_2(self, tmp_path, capsys):
        from cubetest.tester import TesterConfig, config_to_lines

        _, path = self._small_plan(tmp_path)
        cfg = tmp_path / "cfg.txt"
        lines = config_to_lines(TesterConfig(eps=0.25, k=2, q=16, m=20))
        cfg.write_text("\n".join(ln for ln in lines if not ln.startswith("eps:")) + "\n")
        assert main(["--config", str(cfg), "test", str(path)]) == 2
        assert "config missing 'eps' field" in capsys.readouterr().err

    # misspelled keys once ran at the defaults and exited 0
    def test_unknown_plan_key_exit_2(self, tmp_path, capsys):
        _, path = self._small_plan(tmp_path)
        path.write_text(path.read_text() + "gama: 0.5\nacept_threshold: 0.9\n")
        assert main(["--out", str(tmp_path / "s.txt"), "test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown plan key 'gama'\n"
        assert captured.out == ""
        assert not (tmp_path / "s.txt").exists()

    # a misspelled key, each removed setting, and a whole config as
    # versions with refine_rounds, sqrt_statistic and subset_budget saved it
    UNKNOWN_CONFIG_KEYS = {
        "misspelled": ("subset_budgt: 5\n", "subset_budgt"),
        "inf_threshold": ("inf_threshold: 6.25e-05\n", "inf_threshold"),
        "refine_rounds": ("refine_rounds: 4\n", "refine_rounds"),
        "sqrt_statistic": ("sqrt_statistic: 1\n", "sqrt_statistic"),
        "subset_budget": ("subset_budget: 1000\n", "subset_budget"),
        "saved_with_removed_settings": (None, "refine_rounds"),
    }
    SAVED_WITH_REMOVED_SETTINGS = """schema: cubetest-config-1
eps: 0.25
k: 2
p: 2.0
q: 16
m: 20
num_parts: 16
refine_rounds: 12
inf_threshold: 6.25e-05
accept_threshold: 0.0875
core_grid: 0.25
seed: 0
sqrt_statistic: 0
subset_budget: 200000
# deviation q: 16 (paper profile value 4096)
# deviation m: 20 (paper profile value 65536)
# deviation num_parts: 16 (paper profile value 1600)
# deviation core_grid: 0.25 (paper profile value 0.00025)
"""

    @pytest.mark.parametrize("case", sorted(UNKNOWN_CONFIG_KEYS))
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, case):
        from cubetest.tester import TesterConfig, config_to_lines

        extra, key = self.UNKNOWN_CONFIG_KEYS[case]
        _, path = self._small_plan(tmp_path)
        cfg = tmp_path / "cfg.txt"
        if extra is None:
            cfg.write_text(self.SAVED_WITH_REMOVED_SETTINGS)
        else:
            lines = config_to_lines(TesterConfig(eps=0.25, k=2, q=16, m=20))
            cfg.write_text("\n".join(lines) + "\n" + extra)
        assert main(["--config", str(cfg), "test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown config key {key!r}\n"
        assert captured.out == ""

    def test_far_plan_certified_in_its_own_lp(self, tmp_path, capsys):
        # the farthest self_bounding core is 0.331 from the grid cores in
        # l2 but 0.25 in l1: the plan runs at p = 2 and is refused at p = 1
        kwargs = dict(class_tag="self_bounding", n=12, eps=0.3, mode="far_mode_a", overrides={})
        _, path = self._small_plan(tmp_path, **kwargs)
        assert main(["--out", str(tmp_path / "s.txt"), "test", str(path)]) == 0
        assert "certified_distance: 0.3307" in (tmp_path / "s.txt").read_text()
        _, path = self._small_plan(tmp_path, p=1.0, **kwargs)
        capsys.readouterr()
        assert main(["test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eps=0.3 exceeds the best achievable certified distance 0.250000\n"
        assert captured.out == ""

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_config_profile_line_refused(self, tmp_path, capsys, profile):
        # the tester has one set of constants: an old config's profile
        # line is an unknown key, refused rather than read and dropped
        from cubetest.tester import TesterConfig, config_to_lines

        _, path = self._small_plan(tmp_path)
        cfg = tmp_path / "cfg.txt"
        lines = config_to_lines(TesterConfig(eps=0.25, k=2, q=24, m=30, num_parts=10))
        cfg.write_text("\n".join(lines[:1] + [f"profile: {profile}"] + lines[1:]) + "\n")
        assert main(["--config", str(cfg), "test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown config key 'profile'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("plan_q, q", [(None, 24), (16, 16)])
    def test_config_reaches_every_trial(self, tmp_path, plan_q, q):
        # queries_used = q + m (P + 1) + m (2^k + 1) r: the sample, the
        # P = 16 part estimates of the selection and r refinement rounds of
        # 2^k estimates (each batch adds m shared base points)
        from cubetest.tester import TesterConfig, config_to_lines

        overrides = {"gamma": 0.25} if plan_q is None else {"gamma": 0.25, "q": plan_q}
        _, path = self._small_plan(tmp_path, overrides=overrides)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("\n".join(config_to_lines(TesterConfig(eps=0.25, k=2, q=24, m=30))) + "\n")
        out = tmp_path / "s.txt"
        assert main(["--out", str(out), "--config", str(cfg), "test", str(path)]) == 0
        records = (tmp_path / "s.txt.trials").read_text().split("trial: ")[1:]
        assert len(records) == 3
        for record in records:
            fields = dict(ln.split(": ", 1) for ln in record.splitlines()[1:] if ": " in ln)
            rounds = int(fields["refine_rounds_used"])
            assert int(fields["queries_used"]) == q + 30 * (16 + 1) + 30 * 5 * rounds


class TestCertify:
    @pytest.mark.parametrize("class_tag", ["xos", "coverage"])
    def test_unsupported_class_exit_3(self, and_table_file, tmp_path, capsys, class_tag):
        out = tmp_path / "cert.txt"
        assert main(["--out", str(out), "certify", str(and_table_file), class_tag, "2", "0.25"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"unsupported class: no membership checker for class {class_tag!r}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_negative_k_exit_2(self, and_table_file, capsys):
        assert main(["certify", str(and_table_file), "submodular", "-1", "0.25"]) == 2
        assert capsys.readouterr().err == "error: k must be >= 0\n"

    def test_in_class_small_distance(self, tmp_path, capsys):
        from cubetest.cores import cached_cores, lift_core

        cores = cached_cores("submodular", 2, 0.25)
        path = tmp_path / "t.tbl"
        write_table(lift_core(cores.member(40), (1, 4), 8), path)
        assert main(["certify", str(path), "submodular", "2", "0.25"]) == 0
        out = capsys.readouterr().out
        core_dist = float(
            next(ln for ln in out.splitlines() if ln.startswith("core_distance:")).split(":")[1]
        )
        assert core_dist <= 0.25  # member of the grid set, distance 0 up to grid slack

    def test_far_mode_b_junta_component(self, tmp_path, capsys):
        from cubetest.valuations import parity_blend_table

        path = tmp_path / "p.tbl"
        write_table(parity_blend_table(8), path)
        assert main(["certify", str(path), "submodular", "2", "0.25"]) == 0
        out = capsys.readouterr().out
        junta_dist = float(
            next(ln for ln in out.splitlines() if ln.startswith("junta_distance:")).split(":")[1]
        )
        assert abs(junta_dist - 0.5) < 1e-9
        bound = float(
            next(
                ln for ln in out.splitlines() if ln.startswith("class_junta_lower_bound:")
            ).split(":")[1]
        )
        assert abs(bound - 0.5) < 1e-9

    def test_and_table_matches_core_distance(self, and_table_file, capsys):
        from cubetest.cores import CoreTable, cached_cores, dist_core_to_set

        assert main(["certify", str(and_table_file), "submodular", "2", "0.25"]) == 0
        out = capsys.readouterr().out
        core_dist = float(
            next(ln for ln in out.splitlines() if ln.startswith("core_distance:")).split(":")[1]
        )
        expected = dist_core_to_set(
            CoreTable(2, (0.0, 0.0, 0.0, 1.0)), cached_cores("submodular", 2, 0.25)
        )
        assert abs(core_dist - expected) < 1e-12


# below about 5.6e-309, 1/gamma is infinite; such a gamma once ended both
# commands in an OverflowError traceback with exit 1
@pytest.mark.parametrize("command", ["certify", "test"])
def test_tiny_gamma_exit_2(tmp_path, and_table_file, command):
    plan = tmp_path / "plan.txt"
    bench.write_plan(
        bench.ExperimentPlan(
            "submodular", 8, 2, 0.25, trial_count=3, seed_base=5, mode="in_class",
            overrides={"q": 16, "m": 20, "gamma": 1e-310},
        ),
        plan,
    )
    args = {
        "certify": ["certify", str(and_table_file), "submodular", "1", "1e-310"],
        "test": ["test", str(plan)],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(cubetest.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "cubetest.cli", *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 2
    assert result.stderr == "error: gamma=1e-310 is too small: 1/gamma is not finite\n"
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("case", ["q_plan", "m_plan", "influence_estimate"])
def test_budget_refusal_allocates_little(tmp_path, dictator_file, capsys, case):
    # each refusal comes before the array it guards, which at 2 * 10^10
    # would take 149 GiB (q) or 298 GiB (m): under 1 MiB is traced
    if case == "influence_estimate":
        argv = ["influence", str(dictator_file), "1", "--mode", "estimate:20000000000:1"]
    else:
        overrides = {"q": 16, "m": 20, "gamma": 0.25, case[0]: 20_000_000_000}
        path = tmp_path / "plan.txt"
        bench.write_plan(bench.ExperimentPlan("submodular", 8, 2, 0.25, overrides=overrides), path)
        argv = ["test", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert peak < 2 ** 20


def test_cli_import_leaves_scipy_unloaded():
    # a module-level scipy.optimize import cost every command about 0.45 s
    # of CPU and 45 MB of RSS
    env = dict(os.environ, PYTHONPATH=str(Path(cubetest.__file__).parents[1]))
    code = "import sys, cubetest.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cubetest.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "gen" in result.stdout and "certify" in result.stdout


def readme_block(caption: str) -> str:
    """The fenced block that follows `caption` in README.md."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(caption) + 1
    while lines[start] != "```":
        start += 1
    end = lines.index("```", start + 1)
    return "\n".join(lines[start + 1 : end]) + "\n"


def test_readme_examples_run(tmp_path, capsys):
    spec, plan, table = tmp_path / "min.spec", tmp_path / "min.plan", tmp_path / "min.tbl"
    spec.write_text(readme_block("A minimal spec file:"))
    plan.write_text(readme_block("A minimal plan file:"))
    assert main(["--out", str(table), "gen", str(spec)]) == 0
    assert main(["check", str(table), "additive"]) == 0
    assert main(["test", str(plan)]) == 0
    assert capsys.readouterr().err == ""
