"""Influence of coordinate sets: exact, spectral and sampled estimators,
plus junta projections, closest-junta search and random partitions.

Inf_f(S) is the expected variance of f when the coordinates in S are
re-randomized.  The exact routine enumerates the full table; the
spectral routine sums squared Fourier weight on sets meeting S; the
sampled estimator is the 2m-query Monte Carlo scheme whose deviation
obeys the Hoeffding bound  Pr[|est - Inf| >= t] <= 2 exp(-2 m t^2).

`estimate_inf_mask` is the one sampled entry point.  Like a ufunc it
takes a scalar mask (and returns a float) or a 1-D batch of masks (and
returns an array).  A batch shares one draw of m base points across all
its masks (common random numbers), and each mask adds its own m fresh
completions: B masks cost m(B + 1) queries rather than 2mB.  Each
estimate keeps the law of an independent 2m-query estimate, so it stays
unbiased and keeps the Hoeffding bound; only the estimates of one batch
are dependent.  The fresh points are drawn in chunks of at most
ESTIMATE_CHUNK_POINTS, one RNG draw and one oracle call per chunk.  A
scalar mask, or a batch of one, costs 2m queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Iterable

import numpy as np

from .tables import (
    FourierSpectrum,
    FunctionTable,
    QueryOracle,
    mask_of,
    walsh_hadamard,
)

DEFAULT_SUBSET_BUDGET = 2_000_000
# fresh oracle points per chunk of a batched estimate (a chunk holds at
# least one mask; the first one also holds the m shared base points):
# bounds the draw, the answers and the differences to a few hundred KB
# whatever the batch size, and still holds a whole refinement round (2^k
# masks of m fresh points) at k <= 3 and m <= 1024; at 1 << 15 the peak
# RSS of a criterion-8 run rose by about 0.7 MB
ESTIMATE_CHUNK_POINTS = 1 << 13
# doubles per block of the (sets x degree <= k masks) product of
# `junta_weights`: a few MB of temporaries whatever the number of sets
WEIGHT_BLOCK_DOUBLES = 1 << 18


class SubsetBudgetError(ValueError):
    """A sweep would exceed its budget: the tester's part selection
    (num_parts estimates, over `tester.NUM_PARTS_BUDGET`) or
    `closest_junta`'s C(n, k) coordinate sets."""


def _axes_for(coord_mask: int, n: int) -> tuple[int, ...]:
    # table.reshape((2,)*n) puts coordinate i on axis (n - i)
    return tuple(n - i for i in range(1, n + 1) if coord_mask & (1 << (i - 1)))


def influence_exact(f: FunctionTable, S: Iterable[int]) -> float:
    """E over assignments outside S of the population variance over S."""
    s_mask = mask_of(S, f.n)
    if s_mask == 0:
        return 0.0
    grid = f.values.reshape((2,) * f.n)
    var = np.var(grid, axis=_axes_for(s_mask, f.n))
    return float(np.mean(var))


def influence_fourier(spectrum: FourierSpectrum, S: Iterable[int]) -> float:
    """Sum of squared coefficients over sets T with T intersecting S."""
    s_mask = mask_of(S, spectrum.n)
    if s_mask == 0:
        return 0.0
    masks = np.arange(1 << spectrum.n)
    meets = (masks & s_mask) != 0
    return float(np.sum(spectrum.coefficients[meets] ** 2))


def estimate_inf_mask(
    oracle: QueryOracle, s_mask: int | np.ndarray, m: int, rng: np.random.Generator
) -> float | np.ndarray:
    """Monte Carlo influence estimate from m base points shared by every
    mask and m fresh points per mask: 2m oracle queries for one mask,
    m(B + 1) for a batch of B.

    Each of the m samples fixes the coordinates outside S at a base point
    and compares f there with f at a fresh completion of S; the average
    squared difference, halved, is an unbiased estimate of Inf_f(S).

    `s_mask` is one mask (the result is a float) or a 1-D batch of masks
    (the result is an array, one estimate per mask).  The draws hold the
    m base points, then the m fresh points of each mask in order, so a
    scalar call draws and queries exactly what the first mask of a batch
    does.  Every mask sees uniform base points and fresh points drawn
    independently of them, so each estimate has the law of a separate
    2m-query estimate; the masks of a batch share the base points
    (common random numbers), which only correlates their estimates.  An
    empty batch draws nothing and queries nothing.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    masks = np.asarray(s_mask, dtype=np.int64)
    if masks.ndim > 1:
        raise ValueError("s_mask must be a scalar or a 1-D batch of masks")
    batch = masks.reshape(-1, 1)
    out = np.empty(batch.shape[0])
    size = 1 << oracle.n
    per_chunk = max(1, ESTIMATE_CHUNK_POINTS // m)
    for lo in range(0, batch.shape[0], per_chunk):
        s = batch[lo : lo + per_chunk]
        # the first chunk's draw and oracle call also hold the base points,
        # in row 0; the other rows are fresh points, which then take the
        # base's coordinates outside S
        head = int(lo == 0)
        points = rng.integers(0, size, size=(head + s.shape[0], m), dtype=np.int64)
        if head:
            base = points[0]
        points[head:] = (base & ~s) | (points[head:] & s)
        values = oracle.query_masks(points.reshape(-1)).reshape(points.shape)
        if head:
            base_values = values[0]
        diff = base_values - values[head:]
        diff *= diff
        out[lo : lo + s.shape[0]] = diff.sum(axis=1) / (2 * m)
    return float(out[0]) if masks.ndim == 0 else out


def estimate_inf(oracle: QueryOracle, S: Iterable[int], m: int, rng: np.random.Generator) -> float:
    return estimate_inf_mask(oracle, mask_of(S, oracle.n), m, rng)


def junta_projection(f: FunctionTable, J: Iterable[int]) -> FunctionTable:
    """Average f over the coordinates outside J.

    The result is a J-junta on the full n variables, constant on each
    J-equivalence class and equal to the conditional mean there; it is
    the closest J-junta to f in l2.
    """
    j_mask = mask_of(J, f.n)
    outside = ((1 << f.n) - 1) & ~j_mask
    if outside == 0:
        return FunctionTable(f.n, f.values)
    grid = f.values.reshape((2,) * f.n)
    proj = grid.mean(axis=_axes_for(outside, f.n), keepdims=True)
    return FunctionTable(f.n, np.broadcast_to(proj, grid.shape).reshape(-1))


def junta_weights(
    f: FunctionTable, k: int, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectrum of f and the Fourier weight outside every size-k set.

    Returns (coefficients, positions, weights): the Fourier coefficients
    of f; positions[i], the bit positions (coordinate - 1) of the i-th
    size-k coordinate set K in `combinations` order; and weights[i] =
    sum of hat_f(T)^2 over T not inside K, the squared l2 distance from f
    to its projection on K.  Each weight is a sum of nonnegative terms
    only: total weight minus the weight inside K would cancel to about
    1e-16 on an exact junta, a distance of about 1e-8.  The subset budget
    is checked before anything is allocated.
    """
    if k > f.n:
        raise ValueError(f"k={k} exceeds dimension {f.n}")
    count = math.comb(f.n, k)
    if count > subset_budget:
        raise SubsetBudgetError(f"closest_junta needs {count} subsets, budget is {subset_budget}")
    coefficients = walsh_hadamard(f).coefficients
    flat = chain.from_iterable(combinations(range(f.n), k))
    positions = np.fromiter(flat, dtype=np.int64, count=count * k).reshape(count, k)
    set_masks = np.bitwise_or.reduce(np.left_shift(1, positions), axis=1, initial=0)
    weights = _outside_weights(coefficients * coefficients, f.n, k, set_masks)
    return coefficients, positions, weights


def _outside_weights(sq: np.ndarray, n: int, k: int, set_masks: np.ndarray) -> np.ndarray:
    """The weight above degree k, summed directly, plus for each set the
    weight of the coefficients of degree <= k not inside it, in blocks of
    at most WEIGHT_BLOCK_DOUBLES (sets x degree <= k masks)."""
    degree = np.zeros(1, dtype=np.uint8)  # uint8: an n = 24 table adds 2^n bytes
    for _ in range(n):
        degree = np.concatenate([degree, degree + 1])
    low = np.flatnonzero(degree <= k)
    np.greater(degree, k, out=degree)  # now flags the masks above degree k
    high = np.sum(sq, where=degree.view(bool))
    sq_low = sq[low]
    rows = max(1, WEIGHT_BLOCK_DOUBLES // len(low))
    weights = np.empty(len(set_masks))
    for lo in range(0, len(set_masks), rows):
        outside = (low & ~set_masks[lo : lo + rows, None]) != 0
        weights[lo : lo + rows] = outside @ sq_low
    weights += high
    return weights


def projection_cores(coefficients: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Row i: the core of the projection of f on the i-th set of
    `positions` (as from `junta_weights`), the values
    core_of_junta(junta_projection(f, K), K) reads from a 2^n table.

    With masks[i, t] the mask of the subset of K that the bits of t pick,
    core value u is the sum over t of hat_f(masks[i, t]) chi_t(u): a
    product with the 2^k x 2^k Sylvester matrix H[t, u] = (-1)^|t & u|.
    """
    k = positions.shape[1]
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1  # bits[j, t]: bit j of t
    masks = np.left_shift(1, positions) @ bits
    sylvester = 1 - 2 * ((bits.T @ bits) & 1)
    return coefficients[masks] @ sylvester


def closest_junta(
    f: FunctionTable, k: int, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[frozenset[int], float]:
    """Best size-k coordinate set J and the l2 distance from f to f_J.

    Minimizes the influence of the complement, the Fourier weight outside
    J (see `junta_weights`), over all size-k sets; the distance is the
    square root of that weight.  Ties go to the lexicographically first J.
    """
    _, positions, weights = junta_weights(f, k, subset_budget)
    best = int(np.argmin(weights))
    return frozenset(int(p) + 1 for p in positions[best]), math.sqrt(weights[best])


@dataclass(frozen=True)
class CoordPartition:
    """Disjoint labeled parts covering a ground set."""

    ground: tuple[Hashable, ...]
    parts: tuple[frozenset, ...]

    def __post_init__(self):
        union: set = set()
        for p in self.parts:
            if union & p:
                raise ValueError("parts are not disjoint")
            union |= p
        if union != set(self.ground):
            raise ValueError("parts do not cover the ground set")


def random_partition(
    ground: Iterable[Hashable], r: int, rng: np.random.Generator
) -> CoordPartition:
    """Partition a ground set into r labeled parts, assigning every
    element an independent uniform part label; parts may be empty."""
    if r < 1:
        raise ValueError("part count must be >= 1")
    elements = sorted(ground)
    buckets: list[set] = [set() for _ in range(r)]
    for el, lab in zip(elements, rng.integers(0, r, size=len(elements))):
        buckets[int(lab)].add(el)
    return CoordPartition(ground=tuple(elements), parts=tuple(frozenset(b) for b in buckets))
