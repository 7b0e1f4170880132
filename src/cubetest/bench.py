"""Experiment harness: seeded tester trials over generated instances,
acceptance-rate summaries, and distance certification.

A plan names a class, cube size, tester parameters and an instance mode
(in_class lifts a random enumerated core per trial; far_mode_a lifts a
core certified far from the enumerated class cores; far_mode_b uses the
full-parity blend, certified 1/2 from every k-junta).  Per-trial seeds
are seed_base + trial index, so runs reproduce exactly.  A plan may
override the settings in `tester.PLAN_SETTINGS`.  A far mode builds its
instance once per plan, and `_trial_table` builds every other table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import kvfile
from .cores import (
    CoreSet, CoreTable, cached_cores, core_of_junta, dist_core_to_set, dist_cores_to_set, lift_core
)
from .influence import closest_junta, junta_projection, junta_weights, projection_cores
from .tables import FunctionTable, check_dimension, make_counting_oracle
from .tester import PLAN_SETTINGS, TesterConfig, TesterReport, report_to_lines, run_tester
from .valuations import make_far_instance

PLAN_SCHEMA = "cubetest-plan-1"
SUMMARY_SCHEMA = "cubetest-summary-1"
CERTIFY_SCHEMA = "cubetest-certify-1"

PLAN_MODES = ("in_class", "far_mode_a", "far_mode_b")


@dataclass(frozen=True)
class ExperimentPlan:
    class_tag: str
    n: int
    k: int
    eps: float
    p: float = 2.0
    trial_count: int = 200
    seed_base: int = 0
    mode: str = "in_class"
    overrides: dict = field(default_factory=dict)
    core_values: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        check_dimension(self.n)  # before any instance builds a 2^n array
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds n={self.n}")
        if self.trial_count < 1:
            raise ValueError("trial_count must be >= 1")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be >= 0, got {self.seed_base}")
        if self.mode not in PLAN_MODES:
            raise ValueError(f"unknown instance mode {self.mode!r}")
        if self.core_values is not None and self.mode != "far_mode_a":
            raise ValueError(f"core_values is read by mode far_mode_a only, not {self.mode}")
        for key in self.overrides:
            if key not in PLAN_SETTINGS:
                raise ValueError(f"unknown plan override {key!r}")

    def tester_config(self, seed: int = 0) -> TesterConfig:
        fields = {PLAN_SETTINGS[key].field: value for key, value in self.overrides.items()}
        return TesterConfig(eps=self.eps, k=self.k, p=self.p, seed=seed, **fields)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    report: TesterReport


@dataclass(frozen=True)
class ExperimentSummary:
    plan: ExperimentPlan
    accept_rate: float
    mean_queries: float
    p50_queries: int
    p90_queries: int
    reject_core_search: int
    certified_distance: Optional[float]
    wall_time_s: float
    trial_count: int


def wilson_halfwidth(p: float, n: int) -> float:
    """Half-width of the 95% Wilson score interval around rate p at n
    trials; the CI acceptance thresholds are 2/3 minus this slack."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = 1.96
    return (z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / (1 + z * z / n)


def _trial_table(n: int, cores: CoreSet, core: Optional[CoreTable], seed: int) -> FunctionTable:
    """Trial `seed`'s table: `core`, or if it is None a random member of
    `cores`, lifted onto k distinct random coordinates of [1..n], all
    drawn from default_rng((seed, 0xC0FE))."""
    rng = np.random.default_rng((seed, 0xC0FE))
    if core is None:
        core = cores.member(int(rng.integers(len(cores))))
    coords = tuple(int(c) + 1 for c in rng.choice(n, size=cores.k, replace=False))
    return lift_core(core, coords, n)


def run_plan(plan: ExperimentPlan) -> tuple[ExperimentSummary, list[TrialRecord]]:
    start = time.perf_counter()
    config0 = plan.tester_config()
    cores = cached_cores(plan.class_tag, plan.k, config0.core_grid)

    certified: Optional[float] = None
    shared_table: Optional[FunctionTable] = None
    far_core: Optional[CoreTable] = None
    if plan.mode != "in_class":
        # one far instance per plan: every trial shares mode b's table,
        # and lifts mode a's certified core onto its own coordinates
        far = make_far_instance(
            plan.mode.removeprefix("far_mode_"),
            plan.class_tag,
            plan.n,
            plan.k,
            plan.eps,
            gamma=config0.core_grid,
            core_values=plan.core_values,
            p=plan.p,
        )
        certified = far.certified_distance
        if plan.mode == "far_mode_b":
            shared_table = far.table
        else:
            far_core = CoreTable(plan.k, far.core_values)

    records: list[TrialRecord] = []
    for t in range(plan.trial_count):
        seed = plan.seed_base + t
        config = replace(config0, seed=seed)
        if shared_table is None:
            table = _trial_table(plan.n, cores, far_core, seed)
        else:
            table = shared_table
        report = run_tester(make_counting_oracle(table), plan.class_tag, config, cores=cores)
        records.append(TrialRecord(index=t, seed=seed, report=report))

    accepts = sum(1 for r in records if r.report.verdict == "accept")
    queries = sorted(r.report.queries_used for r in records)
    summary = ExperimentSummary(
        plan=plan,
        accept_rate=accepts / plan.trial_count,
        mean_queries=sum(queries) / plan.trial_count,
        p50_queries=queries[(len(queries) - 1) // 2],
        p90_queries=queries[int(0.9 * (len(queries) - 1))],
        reject_core_search=sum(1 for r in records if r.report.reject_stage == "core_search"),
        certified_distance=certified,
        wall_time_s=time.perf_counter() - start,
        trial_count=plan.trial_count,
    )
    return summary, records


# ---------------------------------------------------------------------------
# Distance certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Exact junta distance plus a certified lower bound on the distance
    to class members that are k-juntas.

    For a size-k coordinate set K, d1_K = sqrt(sum of hat_f(T)^2 over T
    not inside K) is the l2 distance from f to its projection f_K, and
    d2_K is the l2 distance from the core of f_K to the enumerated grid
    cores.  junta_distance is the least d1_K, at K = junta_coords (ties
    to the lexicographically first K); core_distance is d2 there.  The
    class bound is the least max(d1_K, d2_K - gamma/2 - d1_K) over all K,
    clamped at 0: gamma/2 is the discretization slack of the grid.
    """

    class_tag: str
    k: int
    gamma: float
    junta_distance: float
    junta_coords: tuple[int, ...]
    core_distance: float
    discretization_slack: float
    class_junta_lower_bound: float


def certify(f: FunctionTable, class_tag: str, k: int, gamma: float) -> Certificate:
    """Certificate of f against the class's k-junta members on grid gamma.

    For every size-k coordinate set K at once, from one transform:
    d1_K = sqrt(sum of hat_f(T)^2 over T not inside K), the l2 distance
    from f to its projection f_K, and d2_K, the l2 distance from the core
    of f_K (the values sum over T inside K of hat_f(T) chi_T) to the
    enumerated cores.  Any class member living on K is at distance at
    least max(d1_K, d2_K - gamma/2 - d1_K) from f, and the bound is the
    minimum of that over K, clamped at 0.  The bound b0 at the closest
    junta's set, from junta_distance and core_distance, comes first, and
    d2_K is computed only for the sets with d1_K < b0: at any other set
    the bound is at least d1_K >= b0.
    """
    cores = cached_cores(class_tag, k, gamma)
    best_J, junta_dist = closest_junta(f, k)
    coords_sorted = tuple(sorted(best_J))
    proj = junta_projection(f, coords_sorted)
    core_dist = dist_core_to_set(core_of_junta(proj, coords_sorted), cores)
    slack = gamma / 2
    coefficients, positions, weights = junta_weights(f, k)
    d1 = np.sqrt(weights)
    bound = max(junta_dist, core_dist - slack - junta_dist)
    lower = np.flatnonzero(d1 < bound)
    if lower.size:
        d2 = dist_cores_to_set(projection_cores(coefficients, positions[lower]), cores)
        bound = min(bound, float(np.min(np.maximum(d1[lower], d2 - slack - d1[lower]))))
    return Certificate(
        class_tag=class_tag,
        k=k,
        gamma=gamma,
        junta_distance=junta_dist,
        junta_coords=coords_sorted,
        core_distance=core_dist,
        discretization_slack=slack,
        class_junta_lower_bound=max(0.0, bound),
    )


def certificate_lines(cert: Certificate) -> list[str]:
    return [
        f"schema: {CERTIFY_SCHEMA}",
        f"class: {cert.class_tag}",
        f"k: {cert.k}",
        f"gamma: {cert.gamma!r}",
        f"junta_distance: {cert.junta_distance!r}",
        "junta_coords: " + " ".join(str(c) for c in cert.junta_coords),
        f"core_distance: {cert.core_distance!r}",
        f"discretization_slack: {cert.discretization_slack!r}",
        f"class_junta_lower_bound: {cert.class_junta_lower_bound!r}",
    ]


# ---------------------------------------------------------------------------
# Plan / summary / trial-record files
# ---------------------------------------------------------------------------


def plan_to_lines(plan: ExperimentPlan) -> list[str]:
    lines = [
        f"schema: {PLAN_SCHEMA}",
        f"class: {plan.class_tag}",
        f"n: {plan.n}",
        f"k: {plan.k}",
        f"eps: {plan.eps!r}",
        f"p: {plan.p!r}",
        f"trials: {plan.trial_count}",
        f"seed_base: {plan.seed_base}",
        f"mode: {plan.mode}",
    ]
    for key in PLAN_SETTINGS:
        if key in plan.overrides:
            lines.append(f"{key}: {plan.overrides[key]}")
    if plan.core_values is not None:
        lines.append("core_values: " + " ".join(repr(v) for v in plan.core_values))
    return lines


def write_plan(plan: ExperimentPlan, path) -> None:
    kvfile.write_lines(path, plan_to_lines(plan))


_PLAN_REQUIRED = ("class", "n", "k", "eps", "trials", "seed_base", "mode")
# every key a plan file may give besides its schema
_PLAN_KEYS = {*_PLAN_REQUIRED, "p", "core_values", *PLAN_SETTINGS}


def parse_plan_text(text: str) -> ExperimentPlan:
    entries = kvfile.check(
        kvfile.parse(text, "plan"), "plan", PLAN_SCHEMA, _PLAN_REQUIRED, _PLAN_KEYS
    )
    overrides = {key: s.kind(entries[key]) for key, s in PLAN_SETTINGS.items() if key in entries}
    core_values = None
    if "core_values" in entries:
        core_values = tuple(float(tok) for tok in entries["core_values"].split())
    return ExperimentPlan(
        class_tag=entries["class"],
        n=int(entries["n"]),
        k=int(entries["k"]),
        eps=float(entries["eps"]),
        p=float(entries.get("p", 2.0)),
        trial_count=int(entries["trials"]),
        seed_base=int(entries["seed_base"]),
        mode=entries["mode"],
        overrides=overrides,
        core_values=core_values,
    )


def read_plan(path) -> ExperimentPlan:
    with open(path) as fh:
        return parse_plan_text(fh.read())


def summary_to_lines(summary: ExperimentSummary) -> list[str]:
    cert = repr(summary.certified_distance) if summary.certified_distance is not None else "-"
    return [
        f"schema: {SUMMARY_SCHEMA}",
        f"class: {summary.plan.class_tag}",
        f"n: {summary.plan.n}",
        f"k: {summary.plan.k}",
        f"eps: {summary.plan.eps!r}",
        f"p: {summary.plan.p!r}",
        f"mode: {summary.plan.mode}",
        f"trials: {summary.trial_count}",
        f"seed_base: {summary.plan.seed_base}",
        f"accept_rate: {summary.accept_rate!r}",
        f"mean_queries: {summary.mean_queries!r}",
        f"p50_queries: {summary.p50_queries}",
        f"p90_queries: {summary.p90_queries}",
        f"reject_core_search: {summary.reject_core_search}",
        f"certified_distance: {cert}",
        f"wall_time_s: {summary.wall_time_s!r}",
    ]


def write_summary(summary: ExperimentSummary, path) -> None:
    kvfile.write_lines(path, summary_to_lines(summary))


def write_trial_records(records: Sequence[TrialRecord], path) -> None:
    """One block of lines per trial, blocks separated by a blank line."""
    lines: list[str] = []
    for rec in records:
        if lines:
            lines.append("")
        lines += [f"trial: {rec.index}", f"seed: {rec.seed}"] + report_to_lines(rec.report)
    kvfile.write_lines(path, lines)
