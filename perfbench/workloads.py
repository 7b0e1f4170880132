"""The benchmark's workloads: inputs made from the seed, set-up, the
operations a user runs, and the checks on each operation's output.

Every operation is an in-process ``cubetest.cli.main`` call, as the
``cubetest`` command would make it.  A tester workload's operation is one
``cubetest test`` command over a plan of a few trials; a desk workload's
operations are ``gen``, ``check`` and ``certify`` commands.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from cubetest import bench, cores, tables, tester, valuations

AND_CORE = (0.0, 0.0, 0.0, 1.0)
GAMMA = 0.25
EPS = 0.25
# seed bases come from [10^6, 10^9): never the acceptance suite's 6000/7000/8000
SEED_BASE_RANGE = (10**6, 10**9)


@dataclass
class Command:
    """One kind of command of a workload, with what its output must be."""

    kind: str
    argv: list
    expect_exit: int = 0
    units: int = 1  # operations the command completes: trials for `test`
    check: object = None  # callable(stdout) -> list of per-unit failure flags


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, failures: list, what: str) -> None:
        self.attempted += len(failures)
        bad = sum(failures)
        self.failed += bad
        if bad and len(self.problems) < 20:
            self.problems.append(f"{what}: {bad} of {len(failures)} failed")


def call_cli(main, argv):
    """Run one in-process command; returns (exit code, stdout then stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def parse_kv(text: str) -> dict:
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            entries[key.strip()] = value.strip()
    return entries


def in_core_set(values, core_set) -> bool:
    diffs = np.abs(core_set.tables - np.asarray(values, dtype=np.float64))
    return bool(np.any(np.all(diffs <= 1e-12, axis=1)))


def distinct_coords(rng, k: int, n: int) -> tuple:
    return tuple(int(c) + 1 for c in rng.choice(n, size=k, replace=False))


class TesterWorkload:
    """Repeated ``cubetest --seed <base> --out <file> test <plan>`` commands.

    Command j runs trials seed_base + j*T .. seed_base + j*T + T - 1.  The
    first ``verdict_commands`` commands always run, whatever the time
    budget, so that the verdict and query figures repeat exactly for a
    seed.
    """

    def __init__(self, plan_fields, trials_per_command, verdict_commands, far):
        self.plan_fields = plan_fields
        self.T = trials_per_command
        self.min_commands = verdict_commands
        self.round_len = 1
        self.far = far
        self.records = []  # (verdict, reject_stage, queries) of the verdict set

    def setup(self, work: Path, rng) -> None:
        self.work = work
        self.seed_base = int(rng.integers(*SEED_BASE_RANGE))
        self.plan = bench.ExperimentPlan(
            trial_count=self.T, seed_base=self.seed_base, **self.plan_fields
        )
        config = self.plan.tester_config()
        self.budget = config.query_budget()
        self.core_set = cores.cached_cores(self.plan.class_tag, self.plan.k, config.core_grid)
        self.checker = valuations.CHECKERS[self.plan.class_tag]
        if self.far:
            probe = valuations.make_far_instance(
                "a", self.plan.class_tag, self.plan.n, self.plan.k, self.plan.eps,
                gamma=config.core_grid, core_values=self.plan.core_values,
            )
            if not probe.certified_distance > self.plan.eps:
                raise RuntimeError("far instance is not certified beyond eps")
        self.plan_path = work / "plan.txt"
        bench.write_plan(self.plan, self.plan_path)
        self.core_count = len(self.core_set)
        self.search_bytes = len(self.core_set) * config.q * 8
        self.refine_estimates_per_round = 1 << self.plan.k

    def warmup_command(self) -> Command:
        # trial seeds below seed_base, outside every timed command
        return self._command(self.seed_base - self.T, "warmup", keep=False)

    def command(self, j: int) -> Command:
        return self._command(self.seed_base + j * self.T, f"test-{j}", keep=j < self.min_commands)

    def _command(self, seed_base: int, tag: str, keep: bool) -> Command:
        out = self.work / f"summary-{tag}.txt"
        argv = ["--seed", str(seed_base), "--threads", "1", "--out", str(out), "test", str(self.plan_path)]

        def check(stdout: str) -> list:
            return self._check(out, seed_base, stdout, keep)

        return Command("test", argv, units=self.T, check=check)

    def _check(self, out: Path, seed_base: int, stdout: str, keep: bool) -> list:
        """Per-trial failure flags for one finished command."""
        summary_text = out.read_text()
        records_text = Path(str(out) + ".trials").read_text()
        summary = parse_kv(summary_text)
        blocks = records_text.strip().split("\n\n")
        if (
            stdout != summary_text
            or summary.get("schema") != bench.SUMMARY_SCHEMA
            or int(summary["trials"]) != self.T
            or int(summary["seed_base"]) != seed_base
            or len(blocks) != self.T
        ):
            return [True] * self.T
        failures = []
        verdicts = []
        for i, block in enumerate(blocks):
            head = parse_kv(block)
            report = tester.report_from_lines(block)
            bad = (
                int(head["trial"]) != i
                or int(head["seed"]) != seed_base + i
                or report.queries_used > self.budget
            )
            if report.verdict == "accept":
                core = report.learned_core
                bad = bad or not in_core_set(core.values, self.core_set)
                bad = bad or self.checker(tables.FunctionTable(core.k, core.values)) is not None
            failures.append(bad)
            verdicts.append(report.verdict)
            if keep:
                self.records.append((report.verdict, report.reject_stage, report.queries_used))
        accept_rate = sum(v == "accept" for v in verdicts) / self.T
        if float(summary["accept_rate"]) != accept_rate:
            return [True] * self.T
        return failures

    def verdict_metrics(self) -> dict:
        n = len(self.records)
        wrong = "accept" if self.far else "reject"
        return {
            "verdict_trials": n,
            "wrong_verdict_rate": sum(r[0] == wrong for r in self.records) / n,
            "queries_per_trial": sum(r[2] for r in self.records) / n,
            "reject.influence_check_share": sum(r[1] == "influence_check" for r in self.records) / n,
            "reject.core_search_share": sum(r[1] == "core_search" for r in self.records) / n,
        }


class DeskWorkload:
    """A seeded mix of ``gen``, ``check`` and ``certify`` commands over
    n=16 tables (and n=12 tables for the O(4^n) subadditivity check).

    Every round runs each command kind once, in an order drawn from the
    seed; the seed also draws the valuation parameters, the lifted cores
    and their coordinates.
    """

    def setup(self, work: Path, rng) -> None:
        self.work = work
        self.rng = rng
        n = 16
        sub2 = cores.cached_cores("submodular", 2, GAMMA)
        sub3 = cores.cached_cores("submodular", 3, GAMMA)
        sadd2 = cores.cached_cores("subadditive", 2, GAMMA)
        self.core_count = len(sub2) + len(sub3) + len(sadd2)
        self.search_bytes = 0
        self.refine_estimates_per_round = 0

        self.spec = valuations.random_spec("submodular", n, int(rng.integers(2**31)))
        spec_path = work / "val.spec"
        valuations.write_spec(self.spec, spec_path)
        self.expected_gen = valuations.gen(self.spec)

        def pick(core_set):
            return core_set.member(int(rng.integers(len(core_set))))

        far16 = valuations.make_far_instance(
            "a", "submodular", n, 2, EPS, gamma=GAMMA, rng=rng, core_values=AND_CORE
        )
        far12 = valuations.make_far_instance(
            "a", "submodular", 12, 2, EPS, gamma=GAMMA, rng=rng, core_values=AND_CORE
        )
        paths = {}
        for label, table in [
            ("val16", self.expected_gen),
            ("core2_16", cores.lift_core(pick(sub2), distinct_coords(rng, 2, n), n)),
            ("core3_16", cores.lift_core(pick(sub3), distinct_coords(rng, 3, n), n)),
            ("and16", far16.table),
            ("parity16", valuations.parity_blend_table(n)),
            ("sadd12", cores.lift_core(pick(sadd2), distinct_coords(rng, 2, 12), 12)),
            ("and12", far12.table),
        ]:
            paths[label] = str(work / f"{label}.tbl")
            tables.write_table(table, paths[label])

        gen_out = work / "gen16.tbl"

        def check_gen(stdout):
            return [not stdout.startswith("wrote ") or tables.read_table(gen_out) != self.expected_gen]

        def check_pass(stdout):
            return [stdout.strip() != "pass"]

        def check_violation(stdout):
            return ["violated at" not in stdout]

        def certify(kind, label, cls, k, expect):
            out = work / f"cert-{kind}.txt"

            def check(stdout):
                written = out.read_text()
                cert = parse_kv(written)
                return [written != stdout or not expect(cert)]

            argv = ["--out", str(out), "certify", paths[label], cls, str(k), str(GAMMA)]
            return Command(kind, argv, check=check)

        def near(a, b):
            return abs(float(a) - b) <= 1e-9

        self.commands = [
            Command("gen", ["--out", str(gen_out), "gen", str(spec_path)], check=check_gen),
            Command("check_val16_submodular", ["check", paths["val16"], "submodular"], 0, check=check_pass),
            Command("check_and16_unit_demand", ["check", paths["and16"], "unit_demand"], 1, check=check_violation),
            Command("check_parity16_self_bounding", ["check", paths["parity16"], "self_bounding"], 1, check=check_violation),
            Command("check_sadd12_subadditive", ["check", paths["sadd12"], "subadditive"], 0, check=check_pass),
            Command("check_and12_subadditive", ["check", paths["and12"], "subadditive"], 1, check=check_violation),
            certify("certify_core2_k2", "core2_16", "submodular", 2,
                    lambda c: near(c["junta_distance"], 0.0) and near(c["class_junta_lower_bound"], 0.0)),
            certify("certify_and16_k2", "and16", "submodular", 2,
                    lambda c: near(c["junta_distance"], 0.0)
                    and near(c["core_distance"], far16.certified_distance)
                    and near(c["class_junta_lower_bound"], far16.class_distance_lower_bound)),
            certify("certify_parity16_k2", "parity16", "submodular", 2,
                    lambda c: float(c["junta_distance"]) == 0.5),
            certify("certify_core3_k3", "core3_16", "submodular", 3,
                    lambda c: near(c["junta_distance"], 0.0) and near(c["class_junta_lower_bound"], 0.0)),
        ]
        self.round_len = self.min_commands = len(self.commands)

    def warmup_command(self) -> Command:
        return self.commands[4]  # check_sadd12_subadditive, the cheapest command

    def command(self, j: int) -> Command:
        if j % self.round_len == 0:
            self.order = self.rng.permutation(self.round_len)
        return self.commands[int(self.order[j % self.round_len])]

    def verdict_metrics(self) -> dict:
        return {}


def make(name: str):
    if name == "refine_far_q1024":
        # the plan of acceptance criterion 8: 1021 refinement rounds per trial
        return TesterWorkload(
            dict(class_tag="submodular", n=12, k=2, eps=EPS, mode="far_mode_a",
                 overrides={"q": 1024, "m": 1000, "gamma": GAMMA}, core_values=AND_CORE),
            trials_per_command=4, verdict_commands=10, far=True,
        )
    if name == "coresearch_k3_q64":
        # 148,815 subadditive cores scanned with a |cores| x q array
        return TesterWorkload(
            dict(class_tag="subadditive", n=12, k=3, eps=EPS, mode="in_class",
                 overrides={"q": 64, "m": 1000, "gamma": GAMMA}),
            trials_per_command=8, verdict_commands=10, far=False,
        )
    if name == "desk_cli_n16":
        return DeskWorkload()
    raise ValueError(f"unknown workload {name!r}")


def rate(latencies: dict, units: dict) -> float:
    """Operations per second of one pass over every command kind, each
    kind timed at its median latency: steady against a slow outlier and
    independent of where the time budget cut the last round."""
    kinds = [k for k in latencies if latencies[k]]
    return sum(units[k] for k in kinds) / sum(median(latencies[k]) for k in kinds)

