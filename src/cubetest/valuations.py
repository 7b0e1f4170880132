"""Generators and definitional checkers for valuation classes on the cube,
plus construction of certified-far instances for soundness experiments.

Generators and the additive and unit-demand checkers build every table
by two doubling passes over the cube, the sum and the max of the weights
present: sums (additive, budget-additive, XOS clauses), maxima (unit
demand, XOS, coverage per universe element) and assignments grown one
demand row at a time (OXS, gross substitutes).  Generators divide by the
max value when it exceeds 1, which keeps membership in every class here.

Checkers verify the defining inequalities and report the first
violating point(s).  Each class's inequalities are written once, over a
batch of tables, so `passing`, the batch filter `cores` enumerates grid
cores with, runs the very same definition.  A tolerance that is NaN,
infinite or negative is an error.

Membership checking exists only where the definition yields a finite
procedure: additive, unit_demand, submodular, subadditive, self_bounding.
Coverage, XOS and gross-substitutes have generators but no checker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from . import kvfile
from .tables import CubePoint, FunctionTable, check_dimension, check_p

DEFAULT_CHECK_TOL = 1e-9
# most doubles in one subadditivity group, batch rows x the group's x
# rows x 2^n: one table at n = 12 is checked in 256 groups of 16 x rows,
# not 4,096 of one, and an 8,192-row batch of k = 3 cores one x at a time
SUBADDITIVE_GROUP_DOUBLES = 1 << 16

GENERATOR_CLASSES = (
    "additive",
    "coverage",
    "unit_demand",
    "oxs",
    "gross_substitutes",
    "submodular",
    "xos",
)

# Checkers every generated instance of a class must pass, following the
# inclusion hierarchy of the monotone normalized valuation classes.
APPLICABLE_CHECKERS: dict[str, tuple[str, ...]] = {
    "additive": ("additive", "submodular", "subadditive", "self_bounding"),
    "coverage": ("submodular", "subadditive", "self_bounding"),
    "unit_demand": ("unit_demand", "submodular", "subadditive", "self_bounding"),
    "oxs": ("submodular", "subadditive", "self_bounding"),
    "gross_substitutes": ("submodular", "subadditive", "self_bounding"),
    "submodular": ("submodular", "subadditive", "self_bounding"),
    "xos": ("subadditive", "self_bounding"),
}


@dataclass(frozen=True)
class ValuationSpec:
    """Concrete parameters for one generated valuation instance.

    `params` maps parameter names to tuples (weight vectors, cover index
    lists, clause rows) or scalars (the budget of the budget-additive
    construction)."""

    class_tag: str
    n: int
    params: Mapping[str, object]
    seed: int = 0

    def __post_init__(self):
        check_dimension(self.n)  # before any generator builds a 2^n array

    def canonical_lines(self) -> list[str]:
        lines = [f"class: {self.class_tag}", f"n: {self.n}", f"seed: {self.seed}"]
        for key in sorted(self.params):
            val = self.params[key]
            if isinstance(val, tuple):
                lines.append(f"{key}: " + " ".join(repr(v) for v in val))
            else:
                lines.append(f"{key}: {val!r}")
        return lines

    def digest(self) -> str:
        h = hashlib.sha256("\n".join(self.canonical_lines()).encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class ViolationWitness:
    """One or two points where a class inequality fails, with the two
    sides of the inequality (lhs < rhs strictly, beyond tolerance)."""

    points: tuple[CubePoint, ...]
    lhs: float
    rhs: float
    condition: str

    def __str__(self) -> str:
        pts = ", ".join(p.to_string() for p in self.points)
        return f"{self.condition} violated at {pts}: {self.lhs!r} < {self.rhs!r}"


def _weights(params: Mapping[str, object], key: str, n: Optional[int] = None) -> np.ndarray:
    """Parameter `key` as non-empty, finite, non-negative weights, n if n
    is given."""
    arr = np.asarray(params[key], dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{key} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{key} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    if np.any(arr < 0):
        raise ValueError(f"{key} must be non-negative")
    if n is not None and arr.size != n:
        raise ValueError(f"{key} needs {n} weights, got {arr.size}")
    return arr


def _fold_present(w: np.ndarray, op, start: float) -> np.ndarray:
    """The pass every value rule is built from: for weight rows w of
    shape (..., n), x -> `op` folded from `start` over w_i for the bits i
    of x in increasing i, and 0 at x = 0.  The table doubles one bit at a
    time, each point with top bit i being a point below 2^i op w_i."""
    n = w.shape[-1]
    out = np.empty(w.shape[:-1] + (1 << n,))
    out[..., 0] = start
    for i in range(n):
        b = 1 << i
        op(out[..., :b], w[..., i, None], out=out[..., b : 2 * b])
    out[..., 0] = 0.0
    return out


def _sum_of_present(w: np.ndarray) -> np.ndarray:
    """x -> sum of w_i over the bits i of x, added in increasing i."""
    return _fold_present(w, np.add, 0.0)


def _max_of_present(w: np.ndarray) -> np.ndarray:
    """x -> max of w_i over the bits i of x, and 0 at x = 0."""
    return _fold_present(w, np.maximum, -np.inf)


# class parameters a spec must give; the clause and demand rows of xos,
# oxs and gross_substitutes are counted in `_clause_rows` instead
_REQUIRED_PARAMS = {
    "additive": ("weights",),
    "unit_demand": ("weights",),
    "coverage": ("universe_weights",),
    "submodular": ("weights", "budget"),
}
# the prefix of the numbered rows (prefix_1, prefix_2, ...) of a class
# built from rows
_ROW_PREFIX = {"xos": "clause", "oxs": "demand", "gross_substitutes": "demand"}


def _raw_table(spec: ValuationSpec) -> np.ndarray:
    n = spec.n
    tag = spec.class_tag
    params = spec.params
    kvfile.check(params, "spec", required=_REQUIRED_PARAMS.get(tag, ()))
    if tag == "additive":
        return _sum_of_present(_weights(params, "weights", n))
    if tag == "unit_demand":
        return _max_of_present(_weights(params, "weights", n))
    if tag == "submodular":
        # budget-additive construction: min(w . x, budget)
        budget = float(params["budget"])
        if not np.isfinite(budget):
            raise ValueError(f"budget must be finite, got {budget!r}")
        if budget < 0:
            raise ValueError("budget must be non-negative")
        vals = _sum_of_present(_weights(params, "weights", n))
        return np.minimum(vals, budget, out=vals)
    if tag == "coverage":
        wu = _weights(params, "universe_weights")
        # member[u, i]: good i covers universe element u + 1
        member = np.zeros((wu.size, n))
        for i in range(n):
            cov = np.asarray(params.get(f"cover_{i + 1}", ()), dtype=np.int64)
            if np.any((cov < 1) | (cov > wu.size)):
                raise ValueError(f"cover_{i + 1} references universe elements outside [1..{wu.size}]")
            member[cov - 1, i] = 1.0
        # x covers u when one of its goods does: add w_u there, u ascending
        vals = np.zeros(1 << n)
        for u in range(wu.size):
            vals += _max_of_present(wu[u] * member[u])
        return vals
    rows = _clause_rows(spec, n, _ROW_PREFIX[tag])
    if tag == "xos":
        # the best clause, one clause's sums at a time
        vals = _sum_of_present(rows[0])
        for row in rows[1:]:
            np.maximum(vals, _sum_of_present(row), out=vals)
        return vals
    # oxs, gross_substitutes: the best assignment of x's goods to demand
    # rows, one good per row at most.  Row j takes nothing or a good i of
    # x, the rows before it sharing x - {i}: exact for weights >= 0.
    vals = _max_of_present(rows[0])
    for row in rows[1:]:
        best = vals.copy()
        for i in range(n):
            # [:, 0] and [:, 1]: the points without and with bit i
            without = vals.reshape(-1, 2, 1 << i)[:, 0]
            with_i = best.reshape(-1, 2, 1 << i)[:, 1]
            np.maximum(with_i, without + row[i], out=with_i)
        vals = best
    return vals


def _clause_rows(spec: ValuationSpec, n: int, prefix: str) -> np.ndarray:
    rows = []
    while f"{prefix}_{len(rows) + 1}" in spec.params:
        rows.append(_weights(spec.params, f"{prefix}_{len(rows) + 1}", n))
    if not rows:
        raise ValueError(f"at least one {prefix} row required")
    return np.vstack(rows)


def gen(spec: ValuationSpec) -> FunctionTable:
    """Generate the table for a valuation spec (normalized into [0,1])."""
    return gen_detailed(spec)[0]


def gen_detailed(spec: ValuationSpec) -> tuple[FunctionTable, float]:
    """Generate a table and report the normalization divisor (1.0 if none)."""
    if spec.class_tag not in GENERATOR_CLASSES:
        raise ValueError(f"no generator for class {spec.class_tag!r}")
    vals = _raw_table(spec)
    norm = max(float(vals.max()), 1.0)
    vals /= norm  # exact when norm is 1
    return FunctionTable(spec.n, vals), norm


def random_spec(class_tag: str, n: int, seed: int) -> ValuationSpec:
    """Draw random non-negative parameters for a class; deterministic in seed."""
    rng = np.random.default_rng((seed, 0xC0DE))

    def draw(count: int) -> tuple[float, ...]:
        return tuple(float(x) for x in rng.uniform(0.0, 1.0, count))

    if class_tag in ("additive", "unit_demand"):
        params = {"weights": draw(n)}
    elif class_tag == "submodular":
        params = {
            "weights": draw(n),
            "budget": float(rng.uniform(0.3, 1.0) * n / 2),
        }
    elif class_tag == "coverage":
        u_size = int(rng.integers(max(2, n // 2), 2 * n + 1))
        params = {"universe_weights": draw(u_size)}
        for i in range(1, n + 1):
            cover_size = int(rng.integers(0, u_size + 1))
            chosen = rng.choice(u_size, size=cover_size, replace=False)
            params[f"cover_{i}"] = tuple(int(u) + 1 for u in sorted(chosen))
    elif class_tag == "xos":
        clauses = int(rng.integers(1, n + 2))
        params = {f"clause_{j}": draw(n) for j in range(1, clauses + 1)}
    elif class_tag in ("oxs", "gross_substitutes"):
        comps = int(rng.integers(1, max(2, n // 2) + 1))
        params = {f"demand_{j}": draw(n) for j in range(1, comps + 1)}
    else:
        raise ValueError(f"no generator for class {class_tag!r}")
    return ValuationSpec(class_tag=class_tag, n=n, params=params, seed=seed)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

# Each class with a checker is defined once, by a generator of its
# defining inequalities over a batch of tables v of shape (rows, 2^n),
# n >= 0.  It yields groups (bad, lhs, rhs, points) in witness order:
# bad, lhs and rhs have shape (rows, m), bad[r, c] flags instance c of
# the group violated in table r, and points(c) gives the masks of that
# instance's witness points (called before the generator resumes).  A
# checker stops at the first group its one table violates; `passing`
# runs every group over a batch, fastest when the batch is column-major.


def _at(v: np.ndarray, idx) -> np.ndarray:
    """v[:, idx]; taken along the first axis of v.T, which is fast both
    for one table and for a column-major batch."""
    return np.take(v.T, idx, axis=0).T


def _arity(v: np.ndarray) -> int:
    return v.shape[-1].bit_length() - 1


def _submodular(v: np.ndarray, tol: float):
    n = _arity(v)
    rows = v.shape[0]
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            # sq[:, x_j, :, x_i] views the points with bits j and i set to
            # x_j and x_i, in increasing order of their other bits
            sq = v.T.reshape(1 << (n - 1 - j), 2, 1 << (j - i - 1), 2, bi, rows)
            lhs = (sq[:, 0, :, 1] + sq[:, 1, :, 0]).reshape(1 << (n - 2), rows).T
            rhs = (sq[:, 0, :, 0] + sq[:, 1, :, 1]).reshape(1 << (n - 2), rows).T

            def points(c):
                base = np.flatnonzero(np.arange(1 << n) & (bi | bj) == 0)[c]
                return base | bi, base | bj

            yield lhs < rhs - tol, lhs, rhs, points


def _subadditive(v: np.ndarray, tol: float):
    # pairs (x, y) and (y, x) give the same inequality, so a group of x
    # rows from x0 holds the y >= x0 alone.  Its first flagged entry is
    # the first x with a violating pair, with its first such y >= x: a
    # flagged y < x would have flagged x in the earlier row y.
    rows, size = v.shape
    block = max(1, SUBADDITIVE_GROUP_DOUBLES // (rows * size))
    idx = np.arange(size)
    for x0 in range(0, size, block):
        width = size - x0
        lhs = (v[:, x0 : x0 + block, None] + v[:, None, x0:]).reshape(rows, -1)
        rhs = _at(v, (idx[x0 : x0 + block, None] | idx[x0:]).ravel())
        yield lhs - rhs < -tol, lhs, rhs, lambda c: (x0 + c // width, x0 + c % width)


def _self_bounding(v: np.ndarray, tol: float):
    n = _arity(v)
    rows = v.shape[0]
    drop = np.zeros_like(v)
    for i in range(n):
        # x and x ^ e_i are the two halves of the bit-i reshape
        half = v.T.reshape(1 << (n - 1 - i), 2, 1 << i, rows)
        drop_half = drop.T.reshape(half.shape)
        d = half[:, 0] - half[:, 1]
        drop_half[:, 0] += np.maximum(0.0, d)
        drop_half[:, 1] -= np.minimum(0.0, d)  # adds max(0, -d) exactly
    yield v < drop - tol, v, drop, lambda c: (c,)


def _additive(v: np.ndarray, tol: float):
    # the weights f(e_i) summed by the pass the additive generator uses,
    # so a generated table is predicted with its own rounding
    predicted = _sum_of_present(_at(v, 1 << np.arange(_arity(v))))
    yield np.abs(v - predicted) > tol, v, predicted, lambda c: (c,)


def _unit_demand(v: np.ndarray, tol: float):
    predicted = _max_of_present(_at(v, 1 << np.arange(_arity(v))))
    yield np.abs(v - predicted) > tol, v, predicted, lambda c: (c,)


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def _first_violation(inequalities, f: FunctionTable, tol: float, condition: str) -> Optional[ViolationWitness]:
    _check_tol(tol)
    for bad, lhs, rhs, points in inequalities(f.values[None, :], tol):
        hit = np.flatnonzero(bad[0])
        if hit.size:
            c = int(hit[0])
            # lhs < rhs in every violated inequality; additive and unit
            # demand give value and prediction in either order
            a, b = float(lhs[0, c]), float(rhs[0, c])
            return ViolationWitness(
                points=tuple(CubePoint(f.n, int(p)) for p in points(c)),
                lhs=min(a, b),
                rhs=max(a, b),
                condition=condition,
            )
    return None


def check_submodular(f: FunctionTable, tol: float = DEFAULT_CHECK_TOL) -> Optional[ViolationWitness]:
    """Local square condition, equivalent to the pairwise definition:
    f(x|e_i) + f(x|e_j) >= f(x) + f(x|e_i|e_j) for all x with x_i = x_j = 0.
    """
    return _first_violation(_submodular, f, tol, "submodularity")


def check_subadditive(f: FunctionTable, tol: float = DEFAULT_CHECK_TOL) -> Optional[ViolationWitness]:
    """All pairs: f(x OR y) <= f(x) + f(y)."""
    return _first_violation(_subadditive, f, tol, "subadditivity")


def check_self_bounding(f: FunctionTable, tol: float = DEFAULT_CHECK_TOL) -> Optional[ViolationWitness]:
    """f(x) >= sum_i (f(x) - min(f(x), f(x xor e_i))) at every point."""
    return _first_violation(_self_bounding, f, tol, "self-bounding")


def check_additive(f: FunctionTable, tol: float = DEFAULT_CHECK_TOL) -> Optional[ViolationWitness]:
    """Recover w_i = f(e_i) and verify f(x) = sum of present weights."""
    return _first_violation(_additive, f, tol, "additivity")


def check_unit_demand(f: FunctionTable, tol: float = DEFAULT_CHECK_TOL) -> Optional[ViolationWitness]:
    """Recover w_i = f(e_i) and verify f(x) = max of present weights."""
    return _first_violation(_unit_demand, f, tol, "unit demand")


# The classes with a membership checker: each one's checker and the
# inequalities behind it
_CLASSES = {
    "additive": (check_additive, _additive),
    "unit_demand": (check_unit_demand, _unit_demand),
    "submodular": (check_submodular, _submodular),
    "subadditive": (check_subadditive, _subadditive),
    "self_bounding": (check_self_bounding, _self_bounding),
}

CHECKERS = {tag: check for tag, (check, _) in _CLASSES.items()}


class UnsupportedClassError(ValueError):
    """The class has no membership checker."""


def checker(class_tag: str):
    """The class's membership checker, looked up in CHECKERS at call time."""
    if class_tag not in CHECKERS:
        raise UnsupportedClassError(f"no membership checker for class {class_tag!r}")
    return CHECKERS[class_tag]


def passing(class_tag: str, tables: np.ndarray, tol: float) -> np.ndarray:
    """A boolean per row of `tables`, shape (rows, 2^n) with n >= 0: does
    the row pass the checker of `class_tag` (a class in CHECKERS) at
    `tol`.  Every inequality of the class is evaluated on the whole
    batch."""
    _check_tol(tol)
    ok = np.ones(len(tables), dtype=bool)
    for bad, *_ in _CLASSES[class_tag][1](tables, tol):
        ok &= ~bad.any(axis=1)
    return ok


# ---------------------------------------------------------------------------
# Certified-far instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarInstance:
    """A function with a certified distance bound used in soundness runs,
    made by `make_far_instance` in one of two modes.

    mode "b": the full-parity blend (1 + chi_[n])/2, at lp distance
    exactly 1/2 from every k-junta with k < n, for every p >= 1.  mode
    "a": a k-junta whose core is far from every enumerated grid core of
    a class; `certified_distance` is the exact minimum lp distance from
    the core to that enumerated set, in the p it was made for, and
    `class_distance_lower_bound` subtracts the gamma/2 discretization
    slack to bound the distance to the un-discretized class.
    `certified_distance` is the one compared against eps.
    """

    table: FunctionTable
    certified_distance: float
    core_values: tuple = ()
    coords: tuple = ()
    class_distance_lower_bound: float = 0.0


def parity_blend_table(n: int) -> FunctionTable:
    """(1 + chi_[n])/2: indicator of even parity."""
    idx = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        popcount += (idx >> i) & 1
    return FunctionTable(n, ((popcount % 2) == 0).astype(np.float64))


def make_far_instance(
    mode: str,
    target_class: str,
    n: int,
    k: int,
    eps: float,
    gamma: float | None = None,
    rng: np.random.Generator | None = None,
    core_values: Iterable[float] | None = None,
    p: float = 2.0,
) -> FarInstance:
    """Build a soundness instance with a certified lp distance.

    Mode "a" lifts `core_values`, or if they are None the grid core
    farthest in l2 from the class's cores (`cores.farthest_grid_core`),
    onto coordinates 1..k, or onto k random ones drawn from `rng` if
    given.  Its certified distance is the core's lp distance to the
    cores, (min_c mean |g - c|^p)^(1/p).  Raises if eps exceeds the
    certified distance: eps is compared against `certified_distance`,
    not `class_distance_lower_bound`.  Both modes refuse a p that is
    not a finite number >= 1.
    """
    check_p(p)
    if mode == "b":
        if not k < n:
            raise ValueError("mode b requires k < n")
        # the blend is 0/1-valued and balanced on every subcube fixing k < n
        # coordinates, so each value g of a k-junta there costs
        # (|g|^p + |1 - g|^p)/2 >= 2^-p: lp distance 1/2 for every p >= 1
        if eps > 0.5:
            raise ValueError(f"eps={eps} exceeds the certified junta distance 0.5")
        return FarInstance(table=parity_blend_table(n), certified_distance=0.5)
    if mode != "a":
        raise ValueError(f"unknown far-instance mode {mode!r}")
    from .cores import CoreTable, cached_cores, dist_core_to_set, farthest_grid_core, lift_core

    if gamma is None:
        raise ValueError("mode a requires gamma")
    cores = cached_cores(target_class, k, gamma)
    if core_values is not None:
        core = CoreTable(k, tuple(core_values))
    else:
        core, _ = farthest_grid_core(cores)
    best_dist = dist_core_to_set(core, cores, p)
    if eps > best_dist:
        raise ValueError(
            f"eps={eps} exceeds the best achievable certified distance {best_dist:.6f}"
        )
    if rng is None:
        coords = tuple(range(1, k + 1))
    else:
        coords = tuple(int(c) + 1 for c in rng.choice(n, size=k, replace=False))
    table = lift_core(core, coords, n)
    return FarInstance(
        table=table,
        certified_distance=best_dist,
        core_values=tuple(float(v) for v in np.asarray(core.values)),
        coords=coords,
        class_distance_lower_bound=max(0.0, best_dist - gamma / 2),
    )


# ---------------------------------------------------------------------------
# Spec file format: "key: values" lines (see `kvfile`).
# ---------------------------------------------------------------------------


def write_spec(spec: ValuationSpec, path) -> None:
    kvfile.write_lines(path, spec.canonical_lines())


def _param_keys(class_tag: str, n: int, given: Mapping[str, str]) -> set[str]:
    """The parameter keys a spec of this class may give: the class's
    required keys, cover_1 .. cover_n for coverage, and for a class built
    from rows its numbered rows from 1 up to the first one missing from
    `given`, so a later row after a gap is unknown."""
    keys = set(_REQUIRED_PARAMS.get(class_tag, ()))
    if class_tag == "coverage":
        keys.update(f"cover_{i}" for i in range(1, n + 1))
    prefix = _ROW_PREFIX.get(class_tag)
    if prefix is not None:
        i = 1
        while f"{prefix}_{i}" in given:
            keys.add(f"{prefix}_{i}")
            i += 1
    return keys


def parse_spec_text(text: str) -> ValuationSpec:
    """A spec from its text; a key its class does not take is a
    ValueError "unknown spec key ..."."""
    entries = kvfile.check(kvfile.parse(text, "spec"), "spec", required=("class", "n"))
    class_tag = entries.pop("class")
    n = kvfile.value(entries.pop("n"), int, "spec", "n")
    check_dimension(n)  # the keys a class takes depend on n
    seed = kvfile.value(entries.pop("seed", "0"), int, "spec", "seed")
    kvfile.check(entries, "spec", allowed=_param_keys(class_tag, n, entries))
    params: dict[str, object] = {}
    for key, rest in entries.items():
        if key == "budget":
            params[key] = kvfile.value(rest, float, "spec", key)
        else:
            to = int if key.startswith("cover_") else float
            params[key] = kvfile.values(rest, to, "spec", key)
    return ValuationSpec(class_tag=class_tag, n=n, params=params, seed=seed)


def read_spec(path) -> ValuationSpec:
    with open(path) as fh:
        return parse_spec_text(fh.read())
