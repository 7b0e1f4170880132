"""Command-line harness.

Subcommands: gen, check, influence, test, certify.  Exit codes:
0 success / checker pass; 1 checker violation; 2 malformed input;
3 class without a membership checker; 4 enumeration or subset budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import bench, cores, influence, kvfile, tables, tester, valuations

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubetest",
        description="Generate, check and test valuation functions on the Boolean cube.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the input file's seed")
    parser.add_argument("--config", default=None, help="tester config file (test command)")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: trials always run in order"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a table from a valuation spec file")
    p_gen.add_argument("spec", help="valuation spec file")

    p_check = sub.add_parser("check", help="check a table against a class definition")
    p_check.add_argument("table", help="table file")
    p_check.add_argument("class_tag", help="valuation class")
    p_check.add_argument("--tol", type=float, default=valuations.DEFAULT_CHECK_TOL)

    p_inf = sub.add_parser("influence", help="influence of a coordinate set")
    p_inf.add_argument("table", help="table file")
    p_inf.add_argument("coords", help="comma-separated coordinates, e.g. 1,3,4 (empty: '-')")
    p_inf.add_argument(
        "--mode", default="exact", help="exact | fourier | estimate:<m>:<seed>"
    )

    p_test = sub.add_parser("test", help="run a seeded trial plan")
    p_test.add_argument("plan", help="experiment plan file")

    p_cert = sub.add_parser("certify", help="certified distance decomposition")
    p_cert.add_argument("table", help="table file")
    p_cert.add_argument("class_tag", help="valuation class")
    p_cert.add_argument("k", type=int)
    p_cert.add_argument("gamma", type=float)
    return parser


def _cmd_gen(args) -> int:
    try:
        spec = valuations.read_spec(args.spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        table, norm = valuations.gen_detailed(spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.out is None:
        print("error: gen requires --out", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        tables.write_table(
            table,
            args.out,
            metadata=(
                f"spec {spec.digest()}",
                f"class {spec.class_tag}",
                f"normalization {norm!r}",
            ),
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(f"wrote {args.out} (class {spec.class_tag}, n={spec.n}, normalization {norm!r})")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.class_tag not in valuations.CHECKERS:
        print(f"unsupported class: no membership checker for {args.class_tag!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        table = tables.read_table(args.table)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    witness = valuations.CHECKERS[args.class_tag](table, args.tol)
    if witness is None:
        print("pass")
        return EXIT_OK
    print(str(witness))
    return EXIT_VIOLATION


def _parse_coords(raw: str) -> list[int]:
    if raw.strip() in ("-", ""):
        return []
    return [int(tok) for tok in raw.split(",")]


def _cmd_influence(args) -> int:
    try:
        table = tables.read_table(args.table)
        coords = _parse_coords(args.coords)
        mode = args.mode
        if mode == "exact":
            value = influence.influence_exact(table, coords)
        elif mode == "fourier":
            value = influence.influence_fourier(tables.walsh_hadamard(table), coords)
        elif mode.startswith("estimate:"):
            parts = mode.split(":")
            if len(parts) != 3:
                raise ValueError("estimate mode is estimate:<m>:<seed>")
            m, seed = int(parts[1]), int(parts[2])
            if args.seed is not None:
                seed = args.seed
            oracle = tables.make_counting_oracle(table)
            value = influence.estimate_inf(oracle, coords, m, np.random.default_rng(seed))
        else:
            raise ValueError(f"unknown influence mode {mode!r}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(repr(value))
    return EXIT_OK


def _cmd_test(args) -> int:
    try:
        plan = bench.read_plan(args.plan)
        if args.seed is not None:
            plan = replace(plan, seed_base=args.seed)
        if args.config is not None:
            base = tester.load_config(args.config)
            merged = dict(
                q=base.q,
                m=base.m,
                num_parts=base.num_parts,
                gamma=base.core_grid,
                refine_rounds=base.refine_rounds,
                inf_threshold=base.inf_threshold,
                accept_threshold=base.accept_threshold,
                sqrt_statistic=int(base.sqrt_statistic),
                subset_budget=base.subset_budget,
            )
            merged.update(plan.overrides)
            plan = replace(plan, overrides=merged)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        summary, records = bench.run_plan(plan)
    except cores.EnumerationBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except influence.SubsetBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    lines = bench.summary_to_lines(summary)
    if args.out is not None:
        try:
            bench.write_summary(summary, args.out)
            bench.write_trial_records(records, str(args.out) + ".trials")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
    print("\n".join(lines))
    return EXIT_OK


def _cmd_certify(args) -> int:
    try:
        table = tables.read_table(args.table)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        cert = bench.certify(table, args.class_tag, args.k, args.gamma)
    except cores.EnumerationBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except influence.SubsetBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    lines = bench.certificate_lines(cert)
    if args.out is not None:
        try:
            kvfile.write_lines(args.out, lines)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "influence": _cmd_influence,
    "test": _cmd_test,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the malformed-input code
        return int(exc.code) if exc.code is not None else EXIT_MALFORMED
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
