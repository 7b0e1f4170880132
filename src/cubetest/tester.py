"""End-to-end implicit-learning tester and the lp -> l2 parameter map.

The tester draws q uniform sample points (`tables.uniform_masks`) and
groups the n coordinates by the value pattern each shows across them
(`_buckets_from_masks`).
`_initial_parts` deals the occupied patterns into a random
equi-partition of pattern space, a uniform injection into the 2^q
cells cut into ranges, which is never materialized.  The selection
keeps the k parts of largest estimated own influence (Blais, "Testing
juntas nearly optimally", STOC 2009; the source paper instead keeps the
k parts whose union has the complement of least estimated influence,
one of the tester's documented deviations, see the README).  Each kept
part is then halved round by round, keeping the half-choice with the
smallest estimated complement influence, until every part holds at most
one occupied pattern (`refine_parts`).  The core learned from the
original samples on those coordinates is compared against the
enumerated grid cores in enumeration order, and the first one whose
mean squared deviation is at most `accept_threshold` is returned; no
core passing is the one way to reject (`final_check_and_learn`; the
tests' `oracles.full_scan_core_statistics` scores every core).  A run
of cores that share their first 2^(k-1) values is skipped unscored when
those values alone put every core of the run over the threshold
(`_candidate_ranges`).

The selection and each refinement round make one batched estimator
call, so a run that used r rounds makes exactly
q + m(num_parts + 1) + m(2^k + 1) r queries (`TesterConfig.query_budget`).

`PLAN_SETTINGS` is the one table of tester settings: the five a plan
may override, each by its plan-file key ("gamma" for core_grid), with
its `TesterConfig` field and value type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import kvfile
from .cores import CoreSet, CoreTable, cached_cores
from .influence import estimate_inf_mask
from .tables import BudgetError, QueryOracle, check_p, coords_of, uniform_masks

# estimator signature: (oracle, masks, m, rng) -> influence estimates;
# like `estimate_inf_mask`, it takes a 1-D int64 array of masks and
# returns an array of their estimates in the same order
InfluenceEstimator = Callable[[QueryOracle, np.ndarray, int, np.random.Generator], np.ndarray]

REPORT_SCHEMA = "cubetest-report-1"
# most cores scored at a time by the core search, which bounds its
# working memory when it scores many rows (every row when no sample has
# a prefix input).  With the prefix-run pruning a search scores few rows:
# over the 80 searches of an 80-trial subadditive k = 3, q = 64 plan
# (148,815 cores) a search took 0.062 to 0.070 ms with blocks of any of
# 256, 1,024, 2,048, 4,096, 8,192 or 16,384 rows (best of 6 rounds, in
# three runs, 2-vCPU Xeon, numpy 2.4)
CORE_SCAN_ROWS = 4096
# most part-selection estimates (num_parts) a config may ask for; a
# config over it raises BudgetError (exit 4) before any sampling
NUM_PARTS_BUDGET = 200_000
# most sample points (q) a config may ask for: `_buckets_from_masks` holds
# an n x q int64 bit matrix, 12.6 MB at q = 2^16 and n = 24, and the
# paper's q at eps = 0.25, k = 3 is 8,192; a config over it raises
# BudgetError (exit 4) before any sampling
Q_BUDGET = 1 << 16
# most q * num_parts a config may ask for: `_initial_parts` holds one
# q-bit range start per part, 16 MiB at this limit, which admits the
# paper's q * num_parts at eps = 0.25, k = 3 (66,355,200); a config over
# it raises BudgetError (exit 4) before any sampling
PARTITION_BITS_BUDGET = 1 << 27


def lp_epsilon_map(p: float, eps: float) -> float:
    """Distance parameter for the underlying l2 tester.

    For p > 2 an l2 tester at eps^(p/2) suffices; for 1 <= p <= 2 the l2
    tester at eps itself does, since l2 testing is at least as hard at
    the same eps.
    """
    check_p(p)
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if p > 2:
        return eps ** (p / 2)
    return eps


def default_refine_rounds(q: int, num_parts: int) -> int:
    """Rounds of halving needed to take the largest part of a num_parts
    equi-partition of pattern space down to at most one pattern:
    ceil(log2(ceil(2^q / num_parts))), and at least 1."""
    per_part = -((-(1 << q)) // num_parts)
    return max(1, (per_part - 1).bit_length())


def paper_constants(eps2: float, k: int) -> dict:
    """The source paper's q, m, num_parts and core_grid at l2 distance
    eps2 (see `lp_epsilon_map`) and junta size k: q = ceil(2^k/eps2^5),
    m = ceil(k^6/eps2^5), num_parts = 100k^4, core grid eps2/1000, with
    their unspecified leading factors set to 1.  The tester's defaults
    replace them (see `TesterConfig`)."""
    return dict(
        q=math.ceil(2 ** k / eps2 ** 5),
        m=math.ceil(k ** 6 / eps2 ** 5),
        num_parts=100 * k ** 4,
        core_grid=eps2 / 1000.0,
    )


@dataclass(frozen=True)
class TesterConfig:
    """All tester constants.  The defaults q = 64, m = 1000, core grid
    1/4 and num_parts = 4k^2 (when omitted: Theta(k^2) parts keep k
    relevant coordinates apart with constant probability, Blais 2009)
    replace the paper's constants (`paper_constants`), whose guarantees
    are only asymptotic; seeded 2/3-rate experiments stand in for them.

    accept_threshold is a^2 for an l2 accept radius a.  Omitted, a is
    (core_grid/2 + eps2)/2, mid-gap between the grid slack and
    eps2 = `lp_epsilon_map(p, eps)`: a class member lies within
    core_grid/2 of a grid core, plus its junta distance, and an eps-far
    function is at least eps2 from every core; with no gap
    (core_grid/2 >= eps2) it raises ValueError.  q, num_parts or
    q * num_parts over its *_BUDGET constant raises BudgetError."""

    eps: float
    k: int
    p: float = 2.0
    q: int = 64
    m: int = 1000
    num_parts: Optional[int] = None
    accept_threshold: Optional[float] = None
    core_grid: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        eps2 = lp_epsilon_map(self.p, self.eps)
        if self.num_parts is None:
            object.__setattr__(self, "num_parts", 4 * self.k * self.k)
        if self.q < 1 or self.m < 1 or self.num_parts < 1:
            raise ValueError("q, m and num_parts must be >= 1")
        if self.num_parts < self.k:
            raise ValueError("num_parts must be >= k")
        if self.q > Q_BUDGET:
            raise BudgetError(
                f"sampling needs {self.q} sample points, budget is {Q_BUDGET}; reduce q"
            )
        if self.num_parts > NUM_PARTS_BUDGET:
            raise BudgetError(
                f"part selection needs {self.num_parts} influence estimates, budget is "
                f"{NUM_PARTS_BUDGET}; reduce num_parts"
            )
        if self.q * self.num_parts > PARTITION_BITS_BUDGET:
            raise BudgetError(
                f"the partition needs q * num_parts = {self.q * self.num_parts} bits of part "
                f"bounds, budget is {PARTITION_BITS_BUDGET}; reduce q or num_parts"
            )
        if self.accept_threshold is None:
            slack = self.core_grid / 2
            if slack >= eps2:
                raise ValueError(
                    f"no accept radius fits between the grid slack core_grid/2 = {slack} and "
                    f"eps2 = {eps2}; give accept_threshold or a finer core_grid"
                )
            object.__setattr__(self, "accept_threshold", ((slack + eps2) / 2) ** 2)
        if not (math.isfinite(self.accept_threshold) and self.accept_threshold > 0):
            raise ValueError(f"accept_threshold must be finite and > 0, got {self.accept_threshold}")

    def query_budget(self) -> int:
        """Oracle queries of a run that uses the most refinement rounds a
        run can use: q + m(B + 1) + m(2^k + 1) r, with B = num_parts and
        r = default_refine_rounds(q, num_parts).  A run that stopped after
        r' <= r rounds costs exactly that with r' in place of r."""
        q, m, k, r = self.q, self.m, self.k, default_refine_rounds(self.q, self.num_parts)
        return q + m * (self.num_parts + 1) + m * ((1 << k) + 1) * r


def _buckets_from_masks(sample_masks: Sequence[int], n: int) -> dict[int, int]:
    """The coordinates of [n] grouped by their value pattern across the
    samples: each realized pattern (an integer whose bit t-1 is a
    coordinate's value on sample t) maps to the mask of the coordinates
    that show it, in order of first appearance.  The remaining
    2^q - len(buckets) patterns are empty and implicit."""
    masks = np.asarray(sample_masks, dtype=np.int64)
    bits = ((masks >> np.arange(n, dtype=np.int64)[:, None]) & 1).astype(np.uint8)
    # Row i holds coordinate i+1's pattern as little-endian bytes: bit t of
    # the pattern is the coordinate's value on sample t.
    rows = np.packbits(bits, axis=1, bitorder="little")
    width = rows.shape[1]
    data = rows.tobytes()
    buckets: dict[int, int] = {}
    for i in range(n):
        pattern = int.from_bytes(data[i * width : (i + 1) * width], "little")
        buckets[pattern] = buckets.get(pattern, 0) | (1 << i)
    return buckets


def _union(masks: Sequence[int]) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


class VirtualPart:
    """One part of the (virtual) equi-partition of pattern space: the
    range [lo, lo + size) of cells it covers and the (cell, coordinate
    mask) pair of each occupied pattern whose cell it holds, in ascending
    pattern order, with their masks and the union of those."""

    __slots__ = ("lo", "size", "held", "masks", "coord_mask")

    def __init__(self, lo: int, size: int, held: tuple[tuple[int, int], ...] = ()):
        self.lo = lo
        self.size = size
        self.held = held
        self.masks = tuple(mask for _, mask in held)
        self.coord_mask = _union(self.masks)

    def halves(self) -> tuple[VirtualPart, VirtualPart]:
        """[lo, mid) and [mid, lo + size), mid = lo + ceil(size / 2), each
        with the pairs whose cells it holds."""
        mid = self.lo + (self.size + 1) // 2
        return (
            VirtualPart(self.lo, mid - self.lo, tuple(h for h in self.held if h[0] < mid)),
            VirtualPart(mid, self.lo + self.size - mid, tuple(h for h in self.held if h[0] >= mid)),
        )


def _initial_parts(
    buckets: Mapping[int, int], q: int, num_parts: int, rng: np.random.Generator
) -> list[VirtualPart]:
    """Draw a distinct uniform cell of [0, 2^q) for each occupied pattern,
    in ascending pattern order, and cut the cells into num_parts ranges of
    sizes as equal as 2^q allows, the longer ones first.

    Cell i is the low q bits of the i-th ceil(q/8)-byte little-endian
    word of one `rng.bytes` call; a cell already taken is drawn again
    from one more call, so the cells are a uniform injection."""
    if len(buckets) > 1 << q:
        raise ValueError("more occupied patterns than cells")
    width, top = (q + 7) // 8, (1 << q) - 1
    patterns = sorted(buckets)
    words = rng.bytes(width * len(patterns))
    base, extra = divmod(1 << q, num_parts)
    # the first `extra` parts hold base + 1 cells each, the rest base
    long_cells = extra * (base + 1)
    held: list[list[tuple[int, int]]] = [[] for _ in range(num_parts)]
    taken: set[int] = set()
    for i, pattern in enumerate(patterns):
        cell = int.from_bytes(words[i * width : (i + 1) * width], "little") & top
        while cell in taken:
            cell = int.from_bytes(rng.bytes(width), "little") & top
        taken.add(cell)
        if cell < long_cells:
            j = cell // (base + 1)
        else:
            j = extra + (cell - long_cells) // base
        held[j].append((cell, buckets[pattern]))
    return [
        VirtualPart(j * base + min(j, extra), base + (j < extra), tuple(h))
        for j, h in enumerate(held)
    ]


def select_initial_parts(
    oracle: QueryOracle,
    parts: Sequence[VirtualPart],
    config: TesterConfig,
    rng: np.random.Generator,
    estimator: InfluenceEstimator = estimate_inf_mask,
) -> tuple[list[VirtualPart], float]:
    """Choose k parts of the equi-partition for refinement: the k parts of
    largest estimated own influence, in index order; ties break to the
    lowest index.  One batched estimator call on the num_parts part
    masks, exactly m(num_parts + 1) queries.

    Returns the kept parts and the sum of the dropped parts' estimates.
    For a k-junta a part holding no relevant coordinate has influence 0,
    and its estimate is exactly 0.  Influence is subadditive, so the sum
    of the dropped parts' influences bounds that of the complement of the
    kept union.  `parts` is the drawn partition (`_initial_parts`).
    """
    own = estimator(oracle, np.array([p.coord_mask for p in parts], dtype=np.int64), config.m, rng)
    keep = sorted(int(j) for j in np.argsort(-own, kind="stable")[: config.k])
    return [parts[j] for j in keep], float(np.delete(own, keep).sum())


def refine_parts(
    oracle: QueryOracle,
    selected: Sequence[VirtualPart],
    config: TesterConfig,
    rng: np.random.Generator,
    estimator: InfluenceEstimator = estimate_inf_mask,
) -> tuple[list[VirtualPart], float, int]:
    """Halve every selected part round by round, each round keeping the
    keep-choice z (half (z >> i) & 1 of part i) whose union has the
    complement of smallest estimated influence; ties break to the
    smallest z.  A split cuts a part's range of cells in two and draws
    nothing (see `VirtualPart.halves`).  A round passes its 2^k
    complements to one estimator call, m(2^k + 1) queries.

    Refinement stops after the first round that leaves every part
    holding at most one occupied pattern: later rounds could only keep
    or drop a pattern that is already isolated.  At least one round
    runs, and at most `default_refine_rounds(q, num_parts)`, after which
    every part of the partition has size at most 1.  A part that loses
    all its patterns is carried along; a part never grows, so it has
    lost them exactly when its final size is 0.

    Returns the final parts, the last round's least estimate and the
    rounds used.
    """
    parts = list(selected)
    for rounds_used in range(1, default_refine_rounds(config.q, config.num_parts) + 1):
        halves = [p.halves() for p in parts]
        choices = [[h[(z >> i) & 1] for i, h in enumerate(halves)] for z in range(1 << len(parts))]
        unions = np.array([_union([h.coord_mask for h in c]) for c in choices], dtype=np.int64)
        estimates = estimator(oracle, ((1 << oracle.n) - 1) & ~unions, config.m, rng)
        best_z = int(np.argmin(estimates))
        parts = choices[best_z]
        if all(len(p.masks) <= 1 for p in parts):
            break
    return parts, float(estimates[best_z]), rounds_used


def _lowest_coordinates(buckets: Iterable[Sequence[int]]) -> tuple[Optional[int], ...]:
    """The coordinate core input j reads: the lowest coordinate of bucket
    j, or None for a bucket with none."""
    return tuple(min(coords) if coords else None for coords in buckets)


@dataclass(frozen=True)
class TesterReport:
    """The learned core, which alone decides the verdict, plus diagnostics
    for one tester run."""

    queries_used: int
    selected_buckets: tuple[tuple[int, ...], ...]
    learned_core: Optional[CoreTable]
    empirical_distance: Optional[float]
    eta: Mapping[str, float]
    empty_buckets: tuple[bool, ...] = ()
    refine_rounds_used: Optional[int] = None  # None when read from a record without it

    def __post_init__(self):
        if (self.empirical_distance is None) != (self.learned_core is None):
            raise ValueError("empirical_distance must be present exactly when learned_core is")

    @property
    def verdict(self) -> str:
        """"accept" when a core was learned, else "reject"."""
        return "reject" if self.learned_core is None else "accept"

    @property
    def reject_stage(self) -> str:
        """The stage that rejected: the core search, which alone decides
        the verdict, or "none" for an accept."""
        return "none" if self.verdict == "accept" else "core_search"

    @property
    def phi(self) -> tuple[Optional[int], ...]:
        """The coordinate core input j reads (`_lowest_coordinates`)."""
        return _lowest_coordinates(self.selected_buckets)


def _sufficient_statistics(
    sample_masks: Sequence[int], sample_values: np.ndarray, phi: Sequence[Optional[int]]
) -> tuple[np.ndarray, np.ndarray, float]:
    """The counts n_u and means mu_u of the sampled values at each core
    input u, and the within-group residual W.  Core c scores
    (W + sum_u n_u (c_u - mu_u)^2) / q, which equals mean_t (f_t - c_{u_t})^2
    and, as a sum of squares, is never negative."""
    masks = np.asarray(sample_masks, dtype=np.int64)
    u = np.zeros(len(masks), dtype=np.int64)
    for j, coord in enumerate(phi):
        if coord is not None:
            u |= ((masks >> (coord - 1)) & 1) << j
    fvals = np.asarray(sample_values, dtype=np.float64)
    size = 1 << len(phi)
    counts = np.bincount(u, minlength=size).astype(np.float64)
    sums = np.bincount(u, weights=fvals, minlength=size)
    means = np.divide(sums, counts, out=np.zeros(size), where=counts > 0)
    return counts, means, float(np.sum((fvals - means[u]) ** 2))


def _core_score_blocks(
    cores: CoreSet,
    counts: np.ndarray,
    means: np.ndarray,
    within: float,
    q: int,
    ranges: Iterable[tuple[int, int]],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, scores of cores start, start + 1, ...) for each block
    of at most CORE_SCAN_ROWS rows of each range [lo, hi) of `ranges`, in
    order.  Each row is summed on its own (`np.einsum`, no BLAS product),
    so a core gets the same bits in any block."""
    for lo, hi in ranges:
        for start in range(lo, hi, CORE_SCAN_ROWS):
            dev = cores.tables[start : min(start + CORE_SCAN_ROWS, hi)] - means
            dev *= dev
            stats = np.einsum("ij,j->i", dev, counts)
            stats += within
            stats /= q
            yield start, stats


def _candidate_ranges(
    cores: CoreSet, counts: np.ndarray, means: np.ndarray, within: float, q: int, threshold: float
) -> list[tuple[int, int]]:
    """Row ranges [lo, hi), in order and never meeting, outside which no
    core scores at most `threshold`.

    Every core scores at least W/q, so there are none when W/q >
    threshold.  Else a core c scores at least
    (W + sum_{u<d} n_u (c_u - mu_u)^2) / q over the first d = 2^(k-1)
    inputs, which all the rows of a run of `cores.run_starts` share; a
    run is kept when that bound, widened past rounding, is at most
    threshold (every run when n_u = 0 for all u < d), and kept runs that
    meet are merged: a range starts where keep turns on and ends where it
    turns off."""
    if within / q > threshold:
        return []
    prefix = (1 << cores.k) >> 1
    dev = cores.run_prefixes - means[:prefix]
    dev *= dev
    keep = dev @ counts[:prefix] <= q * threshold * (1 + 1e-9) - within
    turns = np.flatnonzero(np.diff(np.concatenate(([False], keep, [False]))))
    bounds = cores.run_starts[turns].tolist()
    return list(zip(bounds[0::2], bounds[1::2]))


def final_check_and_learn(
    sample_masks: Sequence[int],
    sample_values: np.ndarray,
    phi: Sequence[Optional[int]],
    cores: CoreSet,
    threshold: float,
) -> tuple[Optional[CoreTable], Optional[float]]:
    """Implicit learning against the core set, which decides the verdict:
    the learned core and its statistic, or (None, None) when no core
    passes.

    Core input j reads coordinate phi[j] (the constant 0 for None).  A
    core's statistic, the mean squared deviation of the samples from it
    (`_sufficient_statistics`), estimates
    ||f - lift(c)||^2 = ||f - E_phi f||^2 + ||E_phi f - c||^2 (Pythagoras
    for the projection E_phi onto the learned coordinates), so it charges
    f for its distance from a junta on them too, and no influence check
    is needed.  The first core in enumeration order whose statistic is at
    most `threshold` is learned: the rows of `_candidate_ranges`, the
    runs whose shared prefix leaves room under the threshold, are scored
    CORE_SCAN_ROWS at a time, up to the first block with a passing core.
    """
    q = len(sample_masks)
    counts, means, within = _sufficient_statistics(sample_masks, sample_values, phi)
    ranges = _candidate_ranges(cores, counts, means, within, q, threshold)
    for start, stats in _core_score_blocks(cores, counts, means, within, q, ranges):
        passing = np.flatnonzero(stats <= threshold)
        if passing.size:
            first = int(passing[0])
            return cores.member(start + first), float(stats[first])
    return None, None


def run_tester(
    oracle: QueryOracle,
    class_tag: str,
    config: TesterConfig,
    estimator: InfluenceEstimator = estimate_inf_mask,
) -> TesterReport:
    """All four stages in order over a single oracle and one RNG stream,
    default_rng(config.seed).

    `estimator` stands in for `estimate_inf_mask` under the same
    contract (see `InfluenceEstimator`): every call passes a 1-D int64
    batch of masks.  The part selection calls it once with its num_parts
    part masks and each refinement round once with its 2^k complement
    masks, so a run that used r rounds makes exactly
    q + m(num_parts + 1) + m(2^k + 1) r queries (see
    `TesterConfig.query_budget`); the core search makes none.

    Bucket j of the report holds the coordinates of final part j, which
    holds at most one occupied pattern, and is flagged empty when the
    part's final size is 0.  The report's eta holds "initial_min" and
    "refine_last".  initial_min is the sum of the dropped parts' own
    estimates, which estimates an upper bound on the influence of the
    complement of the kept parts (influence is subadditive).
    """
    rng = np.random.default_rng(config.seed)
    cores = cached_cores(class_tag, config.k, config.core_grid)
    start = oracle.query_count
    n = oracle.n
    sample_masks = uniform_masks(rng, n, config.q)
    sample_values = oracle.query_masks(sample_masks)
    parts = _initial_parts(_buckets_from_masks(sample_masks, n), config.q, config.num_parts, rng)
    selected, dropped = select_initial_parts(oracle, parts, config, rng, estimator)
    final, refine_last, rounds = refine_parts(oracle, selected, config, rng, estimator)
    buckets = tuple(tuple(sorted(coords_of(p.coord_mask))) for p in final)
    core, dist = final_check_and_learn(
        sample_masks, sample_values, _lowest_coordinates(buckets), cores, config.accept_threshold
    )
    return TesterReport(
        queries_used=oracle.query_count - start,
        selected_buckets=buckets,
        learned_core=core,
        empirical_distance=dist,
        eta={"initial_min": dropped, "refine_last": refine_last},
        empty_buckets=tuple(p.size == 0 for p in final),
        refine_rounds_used=rounds,
    )


# ---------------------------------------------------------------------------
# Plan settings and report serialization ("key: value" lines).
# ---------------------------------------------------------------------------


class Setting(NamedTuple):
    """One tester setting a plan may override: its `TesterConfig` field
    and the type its value is read as.  A value is written with `str`."""

    field: str
    kind: type


# the settings a plan may override, by plan key, in plan-file order; eps,
# k, p and the seed come from the plan's own fields
PLAN_SETTINGS = {
    "q": Setting("q", int),
    "m": Setting("m", int),
    "num_parts": Setting("num_parts", int),
    "gamma": Setting("core_grid", float),
    "accept_threshold": Setting("accept_threshold", float),
}


_REPORT_REQUIRED = (
    "verdict",
    "reject_stage",
    "queries_used",
    "selected_buckets",
    "learned_core",
    "empirical_distance",
    "eta",
    "phi",
    "empty_buckets",
)
# the required lines that follow from the others: `report_from_lines`
# takes each only as `report_to_lines` writes it
_REPORT_DERIVED = ("verdict", "reject_stage", "phi")


def report_to_lines(report: TesterReport) -> list[str]:
    buckets = " ; ".join(
        " ".join(str(c) for c in coords) if coords else "-" for coords in report.selected_buckets
    )
    core = "-" if report.learned_core is None else " ".join(map(repr, report.learned_core.values))
    dist = repr(report.empirical_distance) if report.empirical_distance is not None else "-"
    eta = " ".join(f"{k}={v!r}" for k, v in sorted(report.eta.items()))
    phi = " ".join(str(c) if c is not None else "-" for c in report.phi)
    empty = " ".join(str(int(b)) for b in report.empty_buckets)
    lines = [
        f"schema: {REPORT_SCHEMA}",
        f"verdict: {report.verdict}",
        f"reject_stage: {report.reject_stage}",
        f"queries_used: {report.queries_used}",
        f"selected_buckets: {buckets}",
        f"learned_core: {core}",
        f"empirical_distance: {dist}",
        f"eta: {eta}",
        f"phi: {phi}",
        f"empty_buckets: {empty}",
    ]
    if report.refine_rounds_used is not None:
        lines.append(f"refine_rounds_used: {report.refine_rounds_used}")
    return lines


def _count(text: str, key: str, least: int) -> int:
    count = kvfile.value(text, int, "report", key)
    if count < least:
        raise ValueError(f"report key {key!r}: {count} is below {least}")
    return count


def report_from_lines(text: str) -> TesterReport:
    """The report in `text`.  A number that does not parse, a core of
    other than 2^k values (k >= 1), a field that disagrees with the
    buckets (a core's k, the count of empty flags, a flag other than 0
    or 1, a bucket flagged empty that holds a coordinate), an empirical
    distance on a record with no core or none on one with a core,
    queries_used below 0, refine_rounds_used below 1, and a line of
    `_REPORT_DERIVED` other than the one `report_to_lines` writes for
    the rest name their key."""
    entries = kvfile.check(kvfile.parse(text), "report", REPORT_SCHEMA, _REPORT_REQUIRED)
    buckets = tuple(
        kvfile.values(chunk, int, "report", "selected_buckets") if chunk.strip() != "-" else ()
        for chunk in entries["selected_buckets"].split(";")
    )
    core = None
    if entries["learned_core"] != "-":
        vals = kvfile.values(entries["learned_core"], float, "report", "learned_core")
        k = len(vals).bit_length() - 1
        if k < 1 or len(vals) != 1 << k:
            raise ValueError(f"report key 'learned_core': {len(vals)} values, not 2^k for a k >= 1")
        if k != len(buckets):
            raise ValueError(f"report key 'learned_core': k = {k} for {len(buckets)} buckets")
        core = CoreTable(k, vals)
    stated = entries["empirical_distance"]
    dist = None if stated == "-" else kvfile.value(stated, float, "report", "empirical_distance")
    if (dist is None) != (core is None):
        had = "no" if core is None else "a"
        raise ValueError(f"report key 'empirical_distance': {stated!r} on a record with {had} core")
    eta = {}
    for tok in entries["eta"].split():
        key, _, val = tok.partition("=")
        eta[key] = kvfile.value(val, float, "report", "eta")
    empty = kvfile.values(entries["empty_buckets"], int, "report", "empty_buckets")
    if len(empty) != len(buckets):
        raise ValueError(f"report key 'empty_buckets': {len(empty)} flags for {len(buckets)} buckets")
    if not set(empty) <= {0, 1}:
        raise ValueError("report key 'empty_buckets': a flag other than 0 or 1")
    if any(flag and coords for flag, coords in zip(empty, buckets)):
        raise ValueError("report key 'empty_buckets': a bucket flagged empty holds a coordinate")
    rounds = entries.get("refine_rounds_used")
    report = TesterReport(
        queries_used=_count(entries["queries_used"], "queries_used", 0),
        selected_buckets=buckets,
        learned_core=core,
        empirical_distance=dist,
        eta=eta,
        empty_buckets=tuple(map(bool, empty)),
        refine_rounds_used=None if rounds is None else _count(rounds, "refine_rounds_used", 1),
    )
    written = kvfile.parse("\n".join(report_to_lines(report)))
    for key in _REPORT_DERIVED:
        if entries[key] != written[key]:
            raise ValueError(f"report key {key!r}: {entries[key]!r} is not {written[key]!r}")
    return report
