"""Enumeration of discretized junta cores for a valuation class, and
distance computations against the enumerated set.

The enumerated set contains every grid function on {0,1}^k (values a
multiple of gamma in [0,1]) that passes the class's definitional
checker.  This is a superset of the pointwise-rounded class: rounding a
class member can break its defining inequalities, and membership in the
rounded image has no local test, so the grid-feasible set is the usable
stand-in.  It can only enlarge the accept set by gamma/2 in l-infinity,
which distance certificates account for explicitly.

Enumeration filters the whole (1/gamma + 1)^(2^k) grid through the
class's own inequalities from `valuations`, GRID_BLOCK_ROWS tables at a
time, so the enumerated set agrees with the checker by construction and
this module holds nothing specific to any class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .tables import BudgetError, FunctionTable, check_p
from .valuations import checker, passing

MAX_K = 3
# most grid functions, (1/gamma + 1)^(2^k), an enumeration may visit
GRID_BUDGET = 2_000_000
# doubles per block of the (given cores x enumerated cores) product of
# `dist_cores_to_set`: no whole matrix is built, which for the 220 sets
# of n = 12 against the 148,815 subadditive k = 3 cores would take 262 MB
DIST_BLOCK_DOUBLES = 1 << 18
# grid rows filtered at a time.  At k = 3 a block of 8,192 tables is half
# a megabyte, as is each temporary of the class's inequalities over it.
# Enumerating the subadditive k = 3 cores at gamma = 1/4 raised peak RSS
# by 18.5 MB with this size, 22.8 MB with 32,768 rows and 25.9 MB with
# 2,048, and took the least time of the three (2-vCPU Xeon, numpy 2.4)
GRID_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CoreTable:
    """A function on {0,1}^k, indexed like FunctionTable but with arity k."""

    k: int
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 1 << self.k:
            raise ValueError(f"expected {1 << self.k} values for k={self.k}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


class CoreSet:
    """Immutable enumerated collection of grid cores for one class:
    `tables` is a (cores, 2^k) array, one core's values per row, in
    enumeration order.  `run_starts` holds the first row of each maximal
    run of rows that share their first 2^(k-1) values, the prefix, then
    the row count; `run_prefixes` holds each run's prefix.  Enumeration
    order keeps rows with one prefix together (525 runs of the 148,815
    subadditive k = 3 cores at gamma = 1/4); rows in any other order make
    more, shorter runs.  The core search bounds a run's scores by its
    prefix (`tester.final_check_and_learn`)."""

    __slots__ = ("class_tag", "k", "gamma", "tables", "run_starts", "run_prefixes")

    def __init__(self, class_tag: str, k: int, gamma: float, tables):
        arr = np.asarray(tables, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 1 << k:
            raise ValueError(f"expected rows of {1 << k} core values, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        prefixes = arr[:, : (1 << k) >> 1]
        new_run = np.ones(len(arr), dtype=bool)
        new_run[1:] = np.any(prefixes[1:] != prefixes[:-1], axis=1)
        starts = np.append(np.flatnonzero(new_run), len(arr))
        prefixes = prefixes[new_run]
        for array in (starts, prefixes):
            array.flags.writeable = False
        object.__setattr__(self, "class_tag", class_tag)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "tables", arr)
        object.__setattr__(self, "run_starts", starts)
        object.__setattr__(self, "run_prefixes", prefixes)

    def __setattr__(self, name, value):
        raise AttributeError("CoreSet is immutable")

    def __len__(self) -> int:
        return self.tables.shape[0]

    def member(self, i: int) -> CoreTable:
        return CoreTable(self.k, tuple(float(v) for v in self.tables[i]))


def _grid_steps(gamma: float) -> int:
    """1/gamma; gamma must divide 1 exactly."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0,1], got {gamma}")
    inverse = 1.0 / gamma
    if not math.isfinite(inverse):
        raise ValueError(f"gamma={gamma} is too small: 1/gamma is not finite")
    steps = round(inverse)
    if abs(steps * gamma - 1.0) > 1e-9:
        raise ValueError(f"gamma={gamma} does not divide 1; use 1/integer")
    return steps


def grid_levels(gamma: float) -> np.ndarray:
    """Multiples of gamma in [0,1]; gamma must divide 1 exactly."""
    return np.array([j * gamma for j in range(_grid_steps(gamma) + 1)])


def _grid_blocks(levels: np.ndarray, size: int):
    """Every table on `size` points with values in `levels`, in np.ndindex
    order (point 0 is the most significant digit), as column-major blocks
    of GRID_BLOCK_ROWS rows."""
    shape = (len(levels),) * size
    total = len(levels) ** size
    for lo in range(0, total, GRID_BLOCK_ROWS):
        digits = np.unravel_index(np.arange(lo, min(lo + GRID_BLOCK_ROWS, total)), shape)
        yield levels[np.array(digits)].T


def enumerate_cores(class_tag: str, k: int, gamma: float) -> CoreSet:
    """All grid functions on {0,1}^k passing the class checker.

    k is capped at MAX_K = 3, since the grid is doubly
    exponential in k; the full grid size, (1/gamma + 1)^(2^k), must fit
    GRID_BUDGET, and is checked from gamma and k before any level or
    block is built (BudgetError).
    """
    checker(class_tag)  # UnsupportedClassError when the class has none
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the cap {MAX_K}")
    required = (_grid_steps(gamma) + 1) ** (1 << k)
    if required > GRID_BUDGET:
        raise BudgetError(
            f"enumeration would visit {required} grid functions, budget is {GRID_BUDGET}"
        )
    levels = grid_levels(gamma)
    tol = gamma * 1e-6
    # the list of kept blocks is freed before CoreSet copies the tables
    tables = np.concatenate(
        [block[passing(class_tag, block, tol)] for block in _grid_blocks(levels, 1 << k)]
    )
    return CoreSet(class_tag, k, gamma, tables)


@lru_cache(maxsize=32)
def cached_cores(class_tag: str, k: int, gamma: float) -> CoreSet:
    return enumerate_cores(class_tag, k, gamma)


def dist_core_to_set(g: CoreTable, cores: CoreSet, p: float = 2.0) -> float:
    """Minimum exact lp distance from g to any member of the set,
    (min_c mean |g - c|^p)^(1/p); l2 unless p is given."""
    check_p(p)
    if g.k != cores.k:
        raise ValueError(f"arities differ: {g.k} vs {cores.k}")
    if len(cores) == 0:
        raise ValueError("core set is empty")
    dev = cores.tables - g.as_array()
    if p == 2:
        return float(np.sqrt(np.mean(dev ** 2, axis=1).min()))
    return float(np.mean(np.abs(dev) ** p, axis=1).min() ** (1.0 / p))


def dist_cores_to_set(values: np.ndarray, cores: CoreSet) -> np.ndarray:
    """Entry i: the minimum l2 distance from core values[i] to any member
    of the set, as `dist_core_to_set` gives it.

    Squared distances come from |g|^2 - 2 g.c + |c|^2, the last two terms
    as one product of [g, 1] with [-2 c, |c|^2], taken in blocks of at
    most DIST_BLOCK_DOUBLES; the row minimum is clamped at 0 before the
    square root.  The squares agree with `dist_core_to_set` to about
    1e-16, so a distance near 0 may read as about 1e-8.
    """
    size = 1 << cores.k
    if values.ndim != 2 or values.shape[1] != size:
        raise ValueError(f"expected rows of {size} core values, got shape {values.shape}")
    if len(cores) == 0:
        raise ValueError("core set is empty")
    # cores per block: wide enough that each product is not a
    # matrix-vector product, narrow enough that [-2 c, |c|^2] stays small
    width = min(len(cores), DIST_BLOCK_DOUBLES >> 4)
    rows = DIST_BLOCK_DOUBLES // width
    lhs = np.hstack([values, np.ones((len(values), 1))])
    best = np.full(len(values), np.inf)
    for c_lo in range(0, len(cores), width):
        part = cores.tables[c_lo : c_lo + width]
        rhs = np.empty((size + 1, len(part)))
        np.multiply(part.T, -2.0, out=rhs[:size])
        np.einsum("ij,ij->i", part, part, out=rhs[size])
        for lo in range(0, len(values), rows):
            block = best[lo : lo + rows]
            np.minimum(block, (lhs[lo : lo + rows] @ rhs).min(axis=1), out=block)
    best += np.einsum("ij,ij->i", values, values)
    return np.sqrt(np.maximum(best, 0.0) / size)


def farthest_grid_core(cores: CoreSet) -> tuple[CoreTable, float]:
    """The grid function on {0,1}^k farthest from the set, with its
    `dist_core_to_set`: the first in np.ndindex order of the largest.

    The grid is scored a block at a time by `dist_cores_to_set`, keeping
    every candidate whose squared distance is within 1e-12 of the best so
    far; the kept ones are settled by `dist_core_to_set`, since the
    blocked squares are exact only at dyadic gamma.
    """
    kept, kept_d = np.empty((0, 1 << cores.k)), np.empty(0)
    for block in _grid_blocks(grid_levels(cores.gamma), 1 << cores.k):
        kept = np.concatenate([kept, block])
        kept_d = np.concatenate([kept_d, dist_cores_to_set(block, cores)])
        close = kept_d ** 2 >= kept_d.max() ** 2 - 1e-12
        kept, kept_d = kept[close], kept_d[close]
    candidates = [CoreTable(cores.k, tuple(float(v) for v in row)) for row in kept]
    exact = [dist_core_to_set(c, cores) for c in candidates]
    best = int(np.argmax(exact))
    return candidates[best], exact[best]


def lift_core(h: CoreTable, coords: Sequence[int], n: int) -> FunctionTable:
    """The n-variable junta reading core input j from ambient coordinate
    coords[j]; coords must be distinct and within [1..n]."""
    if len(coords) != h.k:
        raise ValueError(f"need {h.k} coordinates, got {len(coords)}")
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinates")
    if any(not 1 <= c <= n for c in coords):
        raise ValueError(f"coordinates outside [1..{n}]")
    idx = np.arange(1 << n)
    core_idx = np.zeros(1 << n, dtype=np.int64)
    for j, c in enumerate(coords):
        core_idx |= ((idx >> (c - 1)) & 1) << j
    return FunctionTable(n, h.as_array()[core_idx])


def core_of_junta(f: FunctionTable, coords: Sequence[int]) -> CoreTable:
    """Restrict a junta on `coords` to its core (reads f with the other
    coordinates at 0; exact when f is genuinely a junta on coords)."""
    k = len(coords)
    vals = []
    for u in range(1 << k):
        mask = 0
        for j, c in enumerate(coords):
            if (u >> j) & 1:
                mask |= 1 << (c - 1)
        vals.append(float(f.values[mask]))
    return CoreTable(k, tuple(vals))
