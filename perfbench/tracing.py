"""Spans recorded from outside the program.

The tracer wraps cubetest's public functions at the module attributes
through which the program calls them, so no source under ``src/``
changes.  Spans are aggregated per (parent span, span) pair as a call
count, a total time, a self time (total minus the time of child spans)
and the oracle queries answered inside them; only trial spans also
store each duration.  A far_q1024 trial makes about 4,150
estimator calls and 8,300 oracle batches, so aggregating keeps the
traced run's overhead small.
"""

from __future__ import annotations

import time
from collections import defaultdict

# span names, one per wrapped function
CLI_MAIN = "cli.main"
RUN_PLAN = "bench.run_plan"
WRITE_RECORDS = "bench.write_trial_records"
CERTIFY = "bench.certify"
RUN_TESTER = "tester.run_tester"
SWEEP = "tester.select_initial_parts"
REFINE = "tester.refine_parts"
FINAL_CHECK = "tester.final_check_and_learn"
ESTIMATE = "influence.estimate_inf_mask"
CLOSEST_JUNTA = "influence.closest_junta"
JUNTA_PROJECTION = "influence.junta_projection"
WHT = "tables.walsh_hadamard"
ORACLE = "tables.QueryOracle.query_masks"
READ_TABLE = "tables.read_table"
WRITE_TABLE = "tables.write_table"
ENUMERATE = "cores.enumerate_cores"
DIST_TO_SET = "cores.dist_core_to_set"
LIFT_CORE = "cores.lift_core"
FAR_INSTANCE = "valuations.make_far_instance"
CHECK = "valuations.check"
GEN = "valuations.gen_detailed"


class Tracer:
    """An in-memory span tree, aggregated per (parent, name)."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds, queries]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.queries = defaultdict(int)
        self.samples = defaultdict(list)
        self.oracle_queries = 0

    def wrap(self, name, fn):
        stack = self.stack
        keep = name == RUN_TESTER  # per-trial durations, for percentiles

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (parent, name)
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_time[key] += elapsed - frame[1]
                self.queries[key] += frame[2]
                if keep:
                    self.samples[name].append(elapsed)

        traced.__wrapped__ = fn
        return traced

    def wrap_oracle(self, query_masks):
        """QueryOracle.query_masks, crediting its queries to every open span."""
        traced = self.wrap(ORACLE, query_masks)
        stack = self.stack

        def counted(oracle, masks):
            size = len(masks)
            self.oracle_queries += size
            for frame in stack:
                frame[2] += size
            return traced(oracle, masks)

        return counted

    def _sum(self, table, name, parent):
        return sum(v for (p, n), v in table.items() if n == name and (parent is None or p == parent))

    def calls_of(self, name, parent=None) -> int:
        return self._sum(self.calls, name, parent)

    def total_of(self, name, parent=None) -> float:
        return self._sum(self.total, name, parent)

    def self_of(self, name, parent=None) -> float:
        return self._sum(self.self_time, name, parent)

    def queries_of(self, name, parent=None) -> int:
        return self._sum(self.queries, name, parent)

    def all_self(self) -> float:
        return sum(self.self_time.values())


class Patches:
    """Installs a tracer's wrappers at cubetest's module attributes and
    restores the originals."""

    def __init__(self, tracer: Tracer):
        from cubetest import bench, cli, cores, influence, tables, tester, valuations

        self.cli_main = tracer.wrap(CLI_MAIN, cli.main)
        estimator = tracer.wrap(ESTIMATE, influence.estimate_inf_mask)
        run_tester = bench.run_tester

        def run_tester_with_estimator(*args, **kwargs):
            # run_tester binds estimate_inf_mask as a default argument when
            # it is defined, so the timed estimator has to be passed in
            kwargs.setdefault("estimator", estimator)
            return run_tester(*args, **kwargs)

        wrapped = {
            RUN_PLAN: bench.run_plan,
            WRITE_RECORDS: bench.write_trial_records,
            CERTIFY: bench.certify,
            SWEEP: tester.select_initial_parts,
            REFINE: tester.refine_parts,
            FINAL_CHECK: tester.final_check_and_learn,
            CLOSEST_JUNTA: bench.closest_junta,
            JUNTA_PROJECTION: bench.junta_projection,
            WHT: influence.walsh_hadamard,
            READ_TABLE: tables.read_table,
            WRITE_TABLE: tables.write_table,
            ENUMERATE: cores.enumerate_cores,
            DIST_TO_SET: cores.dist_core_to_set,
            LIFT_CORE: cores.lift_core,
            FAR_INSTANCE: valuations.make_far_instance,
            GEN: valuations.gen_detailed,
        }
        w = {name: tracer.wrap(name, fn) for name, fn in wrapped.items()}
        w[RUN_TESTER] = tracer.wrap(RUN_TESTER, run_tester_with_estimator)
        # (object, attribute, replacement); several modules import the same
        # function under its own name, and each binding is patched
        self.targets = [
            (bench, "run_plan", w[RUN_PLAN]),
            (bench, "write_trial_records", w[WRITE_RECORDS]),
            (bench, "certify", w[CERTIFY]),
            (bench, "run_tester", w[RUN_TESTER]),
            (bench, "closest_junta", w[CLOSEST_JUNTA]),
            (bench, "junta_projection", w[JUNTA_PROJECTION]),
            (bench, "dist_core_to_set", w[DIST_TO_SET]),
            (bench, "lift_core", w[LIFT_CORE]),
            (bench, "make_far_instance", w[FAR_INSTANCE]),
            (tester, "select_initial_parts", w[SWEEP]),
            (tester, "refine_parts", w[REFINE]),
            (tester, "final_check_and_learn", w[FINAL_CHECK]),
            (influence, "walsh_hadamard", w[WHT]),
            (tables, "read_table", w[READ_TABLE]),
            (tables, "write_table", w[WRITE_TABLE]),
            (tables.QueryOracle, "query_masks", tracer.wrap_oracle(tables.QueryOracle.query_masks)),
            (cores, "enumerate_cores", w[ENUMERATE]),
            (cores, "dist_core_to_set", w[DIST_TO_SET]),
            (cores, "lift_core", w[LIFT_CORE]),
            (valuations, "make_far_instance", w[FAR_INSTANCE]),
            (valuations, "gen_detailed", w[GEN]),
        ]
        # the check command looks checkers up in this dict
        self.checkers = valuations.CHECKERS
        self.checker_originals = dict(valuations.CHECKERS)
        self.checker_wrapped = {
            tag: tracer.wrap(CHECK, fn) for tag, fn in self.checker_originals.items()
        }
        self.originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in self.targets]

    def install(self) -> None:
        for obj, attr, replacement in self.targets:
            setattr(obj, attr, replacement)
        self.checkers.update(self.checker_wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in self.originals:
            setattr(obj, attr, original)
        self.checkers.update(self.checker_originals)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(names, setup: Tracer, ops: Tracer, workload, traced_ops: int, traced_wall: float) -> dict:
    """The per-layer metrics ``names`` of the traced operations; those a
    workload does not exercise read 0.  Times and counts are per
    operation: per tester trial on the tester workloads, per command on
    the desk workload."""
    m = dict.fromkeys(names, 0.0)
    per_op = 1.0 / traced_ops

    def ms(seconds):
        return seconds * 1000.0 * per_op

    trials = ops.samples.get(RUN_TESTER, [])
    if trials:
        m["bench.trial_ms.p50"] = percentile(trials, 0.5) * 1000.0
        m["bench.trial_ms.p90"] = percentile(trials, 0.9) * 1000.0
        m["bench.trial_ms.samples"] = len(trials)
    m["cli.self_ms"] = ms(ops.self_of(CLI_MAIN))
    m["bench.instance_ms"] = ms(ops.total_of(FAR_INSTANCE, RUN_PLAN) + ops.total_of(LIFT_CORE, RUN_PLAN))
    m["bench.write_records_ms"] = ms(ops.total_of(WRITE_RECORDS))
    m["bench.certify_ms"] = ms(ops.total_of(CERTIFY))
    m["tester.run.self_ms"] = ms(ops.self_of(RUN_TESTER))
    m["tester.sweep_ms"] = ms(ops.total_of(SWEEP))
    m["tester.sweep.self_ms"] = ms(ops.self_of(SWEEP))
    m["tester.sweep.estimates"] = ops.calls_of(ESTIMATE, SWEEP) * per_op
    m["tester.refine_ms"] = ms(ops.total_of(REFINE))
    m["tester.refine.self_ms"] = ms(ops.self_of(REFINE))
    m["tester.refine.estimates"] = ops.calls_of(ESTIMATE, REFINE) * per_op
    if workload.refine_estimates_per_round:
        m["tester.refine.rounds"] = m["tester.refine.estimates"] / workload.refine_estimates_per_round
    if ops.queries_of(RUN_TESTER):
        m["tester.refine.query_share"] = ops.queries_of(REFINE) / ops.queries_of(RUN_TESTER)
    m["tester.gate_ms"] = ms(ops.total_of(ESTIMATE, FINAL_CHECK))
    m["tester.core_search_ms"] = ms(ops.self_of(FINAL_CHECK))
    for key, value in workload.verdict_metrics().items():
        m[f"tester.{key}"] = value
    estimates = ops.calls_of(ESTIMATE)
    m["influence.estimate.calls"] = estimates * per_op
    m["influence.estimate_ms"] = ms(ops.total_of(ESTIMATE))
    if estimates:
        m["influence.estimate.us_per_call"] = ops.total_of(ESTIMATE) / estimates * 1e6
    m["influence.closest_junta_ms"] = ms(ops.total_of(CLOSEST_JUNTA))
    m["influence.junta_projection_ms"] = ms(ops.total_of(JUNTA_PROJECTION))
    m["influence.junta_projection.calls"] = ops.calls_of(JUNTA_PROJECTION) * per_op
    m["tables.oracle.queries"] = ops.oracle_queries * per_op
    m["tables.oracle.batches"] = ops.calls_of(ORACLE) * per_op
    m["tables.oracle_ms"] = ms(ops.total_of(ORACLE))
    m["tables.read_table_ms"] = ms(ops.total_of(READ_TABLE))
    m["tables.write_table_ms"] = ms(ops.total_of(WRITE_TABLE))
    m["tables.wht_ms"] = ms(ops.total_of(WHT))
    m["cores.enumerate_s"] = setup.total_of(ENUMERATE) + ops.total_of(ENUMERATE)
    m["cores.count"] = workload.core_count
    m["cores.search_bytes_computed"] = workload.search_bytes
    m["cores.dist_to_set_ms"] = ms(ops.total_of(DIST_TO_SET))
    m["valuations.check_ms"] = ms(ops.total_of(CHECK))
    m["valuations.gen_ms"] = ms(ops.total_of(GEN))
    m["valuations.far_instance_ms"] = ms(ops.self_of(FAR_INSTANCE))
    m["trace.traced_ops"] = traced_ops
    # the self times of all spans partition the command spans, so this is
    # the share of the benchmark's own wall clock that no span accounts for
    m["trace.unaccounted_share"] = 1.0 - ops.all_self() / traced_wall
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return m
