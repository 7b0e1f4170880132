"""Influence of coordinate sets: exact, spectral and sampled estimators,
plus junta projections and closest-junta search.

Inf_f(S) is the expected variance of f when the coordinates in S are
re-randomized.  The exact routine enumerates the full table; the
spectral routine sums squared Fourier weight on sets meeting S; the
sampled estimator is the 2m-query Monte Carlo scheme whose deviation
obeys the Hoeffding bound  Pr[|est - Inf| >= t] <= 2 exp(-2 m t^2).

`estimate_inf_mask` is the one sampled entry point.  It takes a 1-D
batch of masks and returns an array of one estimate per mask; one set's
estimate is entry 0 of a batch of one, which costs 2m queries.  A batch
shares one draw of m base points across all its masks (common random
numbers), and each mask adds its own m fresh completions: B nonzero
masks cost m(B + 1) queries rather than 2mB.  A mask of 0 (the empty
set) has influence 0 and every completion of it is its base point, so
it is answered 0.0 with no draw and no query, and a batch of zero masks
draws and queries nothing, not even its base points.  Each estimate keeps the law
of an independent 2m-query estimate, so it stays unbiased and keeps the
Hoeffding bound; only the estimates of one batch are dependent.  The
fresh points are drawn in chunks of at most ESTIMATE_CHUNK_POINTS, one
`tables.uniform_masks` draw and one oracle call per chunk; each fresh
point takes the base point's coordinates outside its set in place.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .tables import (
    BudgetError,
    FunctionTable,
    QueryOracle,
    mask_of,
    uniform_masks,
    walsh_hadamard,
)

# most size-k coordinate sets `junta_weights` may weigh
JUNTA_SET_BUDGET = 2_000_000
# fresh oracle points per chunk of a batched estimate (a chunk holds at
# least one nonzero mask; the first one also holds the m shared base points):
# bounds the draw, the answers and the differences to a few hundred KB
# whatever the batch size, and still holds a whole refinement round (2^k
# masks of m fresh points) at k <= 3 and m <= 1024; at 1 << 15 the peak
# RSS of a criterion-8 run rose by about 0.7 MB
ESTIMATE_CHUNK_POINTS = 1 << 13
# most samples per mask (m) an estimate may draw: past ESTIMATE_CHUNK_POINTS
# a chunk holds one mask, whose draws, answers and differences take about
# 40m bytes, 168 MB at 2^22; the paper's m at eps = 0.25, k = 3 is 746,496.
# A larger m raises BudgetError (exit 4) before anything is drawn, and in
# a tester config before the run starts
M_BUDGET = 1 << 22
# doubles per block of the (sets x degree <= k masks) product of
# `junta_weights`: a few MB of temporaries whatever the number of sets
WEIGHT_BLOCK_DOUBLES = 1 << 18


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


def influence_fourier(coefficients: np.ndarray, S: Iterable[int]) -> float:
    """Sum of squared coefficients (as from `walsh_hadamard`) over sets T
    with T intersecting S."""
    size = len(coefficients)
    s_mask = mask_of(S, size.bit_length() - 1)
    if s_mask == 0:
        return 0.0
    meets = (np.arange(size) & s_mask) != 0
    return float(np.sum(coefficients[meets] ** 2))


def check_m_budget(m: int) -> None:
    """Raise BudgetError when m samples per mask exceed M_BUDGET."""
    if m > M_BUDGET:
        raise BudgetError(
            f"influence estimate needs {m} samples per mask, budget is {M_BUDGET}; reduce m"
        )


def estimate_inf_mask(
    oracle: QueryOracle, masks: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo influence estimates of a 1-D int64 batch of B masks, in
    order, from m base points shared by every mask and m fresh points per
    nonzero mask: m(B' + 1) oracle queries for B' >= 1 nonzero masks, 2m
    for one, and none when every mask is 0.

    Each of the m samples fixes the coordinates outside S at a base point
    and compares f there with f at a fresh completion of S; the average
    squared difference, halved, is an unbiased estimate of Inf_f(S).  For
    S empty every completion is the base point, so a mask of 0 gets
    exactly 0.0 and spends no draw and no query.

    The points are one (B' + 1) x m `uniform_masks` draw, base row first,
    independent of the chunk size: the base points, then the m fresh
    points of each nonzero mask in order, so a batch of one draws and
    queries exactly what the first mask of a longer batch does.  A chunk
    draws the rows of at most ESTIMATE_CHUNK_POINTS // m nonzero masks
    (and the first chunk the base row too) in one `uniform_masks` call.
    Every mask sees uniform base points and fresh points drawn
    independently of them, so each estimate has the law of a separate
    2m-query estimate; the masks of a batch share the base points
    (common random numbers), which only correlates their estimates.  A
    batch of zero masks, or an empty one, draws nothing and queries
    nothing.  A scalar or 2-D `masks` raises ValueError, and m over
    M_BUDGET raises BudgetError.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    check_m_budget(m)
    masks = np.asarray(masks, dtype=np.int64)
    if masks.ndim != 1:
        raise ValueError("masks must be a 1-D batch")
    out = np.zeros(len(masks))
    live = np.flatnonzero(masks)
    per_chunk = max(1, ESTIMATE_CHUNK_POINTS // m)
    for lo in range(0, live.size, per_chunk):
        chunk = live[lo : lo + per_chunk]
        # the first chunk's draw and oracle call also hold the base points,
        # in row 0; the other rows are fresh points, which then take the
        # base's coordinates outside S: base ^ ((base ^ fresh) & S), in place
        head = int(lo == 0)
        points = uniform_masks(rng, oracle.n, (head + chunk.size, m))
        if head:
            base = points[0]
        fresh = points[head:]
        fresh ^= base
        fresh &= masks[chunk, None]
        fresh ^= base
        values = oracle.query_masks(points.reshape(-1)).reshape(points.shape)
        if head:
            base_values = values[0]
        diff = base_values - values[head:]
        diff *= diff
        out[chunk] = diff.sum(axis=1) / (2 * m)
    return out


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


def junta_weights(f: FunctionTable, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectrum of f and the Fourier weight outside every size-k set.

    Returns (coefficients, positions, weights): the Fourier coefficients
    of f; positions[i], the bit positions (coordinate - 1) of the i-th
    size-k coordinate set K in `combinations` order; and weights[i] =
    sum of hat_f(T)^2 over T not inside K, the squared l2 distance from f
    to its projection on K.  Each weight is a sum of nonnegative terms
    only: total weight minus the weight inside K would cancel to about
    1e-16 on an exact junta, a distance of about 1e-8.  More than
    JUNTA_SET_BUDGET sets raise BudgetError before anything is allocated.
    """
    if k > f.n:
        raise ValueError(f"k={k} exceeds dimension {f.n}")
    count = math.comb(f.n, k)
    if count > JUNTA_SET_BUDGET:
        raise BudgetError(f"closest_junta needs {count} subsets, budget is {JUNTA_SET_BUDGET}")
    coefficients = walsh_hadamard(f)
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


def closest_junta(f: FunctionTable, k: int) -> tuple[frozenset[int], float]:
    """Best size-k coordinate set J and the l2 distance from f to f_J.

    Minimizes the influence of the complement, the Fourier weight outside
    J (see `junta_weights`), over all size-k sets; the distance is the
    square root of that weight.  Ties go to the lexicographically first J.
    """
    _, positions, weights = junta_weights(f, k)
    best = int(np.argmin(weights))
    return frozenset(int(p) + 1 for p in positions[best]), math.sqrt(weights[best])
