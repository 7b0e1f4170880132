"""End-to-end implicit-learning tester and the lp -> l2 parameter map.

The tester draws q uniform sample points and groups the n coordinates
by the value pattern each shows across them (`_buckets_from_masks`).
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
original samples on those coordinates is compared against every
enumerated grid core, and the first one whose mean squared deviation is
at most `accept_threshold` is returned; no core passing is the one way
to reject (`final_check_and_learn`, `core_statistics`).

The selection and each refinement round make one batched estimator
call, so a run that used r rounds makes exactly
q + m(num_parts + 1) + m(2^k + 1) r queries (`TesterConfig.query_budget`).

`SETTINGS` is the one table of tester settings: for each, its
config-file key, `TesterConfig` field and value type.  Config files are
written and read through it, and `PLAN_SETTINGS` names the five a plan
may override, by plan-file key ("gamma" for core_grid).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import kvfile
from .cores import CoreSet, CoreTable, cached_cores
from .influence import estimate_inf_mask
from .tables import BudgetError, QueryOracle, check_p, coords_of

# estimator signature: (oracle, masks, m, rng) -> influence estimates;
# like `estimate_inf_mask`, it takes a 1-D int64 array of masks and
# returns an array of their estimates in the same order
InfluenceEstimator = Callable[[QueryOracle, np.ndarray, int, np.random.Generator], np.ndarray]

CONFIG_SCHEMA = "cubetest-config-1"
REPORT_SCHEMA = "cubetest-report-1"
# cores scored at a time by the core search.  Over the 64 searches of an
# 80-trial subadditive k = 3, q = 64 plan (148,815 cores), a search took
# 0.52 ms with blocks of 1,024 rows, 0.40 ms with 4,096, 0.41 ms with
# 8,192 and 0.52 ms with 16,384 (2-vCPU Xeon, numpy 2.4, OpenBLAS).
# Keep it a multiple of 4: OpenBLAS's matrix-vector product then gives
# every row the bits of one whole-array product; blocks of 2, 3 or 6
# rows changed the last bits of all of 100 random score vectors
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
    replace them (see `TesterConfig`); `profile_deviations` lists how a
    config differs from them."""
    return dict(
        q=math.ceil(2 ** k / eps2 ** 5),
        m=math.ceil(k ** 6 / eps2 ** 5),
        num_parts=100 * k ** 4,
        core_grid=eps2 / 1000.0,
    )


@dataclass(frozen=True)
class TesterConfig:
    """All tester constants.  The defaults q = 64, m = 1000, core grid
    1/4 and num_parts = 4k^2 (when omitted) replace the paper's constants
    (`paper_constants`), whose guarantees are only asymptotic; seeded
    2/3-rate experiments stand in for them.  Theta(k^2) parts keep k
    relevant coordinates apart with constant probability (Blais 2009).

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
            if not slack < eps2:
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


def profile_deviations(config: TesterConfig) -> list[str]:
    """Differences between this config and the paper's constants."""
    paper = paper_constants(lp_epsilon_map(config.p, config.eps), config.k)
    return [
        f"{name}: {getattr(config, name)} (paper value {value})"
        for name, value in paper.items()
        if getattr(config, name) != value
    ]


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


@dataclass(frozen=True)
class VirtualPart:
    """One part of the (virtual) equi-partition of pattern space: the
    range [lo, lo + size) of cells it covers and the (cell, coordinate
    mask) pair of each occupied pattern whose cell it holds, in ascending
    pattern order, with their masks and the union of those."""

    lo: int
    size: int
    held: tuple[tuple[int, int], ...] = ()
    masks: tuple[int, ...] = field(init=False)
    coord_mask: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(mask for _, mask in self.held))
        object.__setattr__(self, "coord_mask", _union(self.masks))

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
    los = [j * base + min(j, extra) for j in range(num_parts)]
    held: list[list[tuple[int, int]]] = [[] for _ in los]
    taken: set[int] = set()
    for i, pattern in enumerate(patterns):
        cell = int.from_bytes(words[i * width : (i + 1) * width], "little") & top
        while cell in taken:
            cell = int.from_bytes(rng.bytes(width), "little") & top
        taken.add(cell)
        held[bisect.bisect_right(los, cell) - 1].append((cell, buckets[pattern]))
    sizes = [base + 1] * extra + [base] * (num_parts - extra)
    return [VirtualPart(lo, size, tuple(h)) for lo, size, h in zip(los, sizes, held)]


def select_initial_parts(
    oracle: QueryOracle,
    buckets: Mapping[int, int],
    config: TesterConfig,
    rng: np.random.Generator,
    estimator: InfluenceEstimator = estimate_inf_mask,
    parts: Optional[Sequence[VirtualPart]] = None,
) -> tuple[list[VirtualPart], float]:
    """Choose k parts of the equi-partition for refinement: the k parts of
    largest estimated own influence, in index order; ties break to the
    lowest index.  One batched estimator call on the num_parts part
    masks, exactly m(num_parts + 1) queries.

    Returns the kept parts and the sum of the dropped parts' estimates.
    For a k-junta a part holding no relevant coordinate has influence 0,
    and its estimate is exactly 0.  Influence is subadditive, so the sum
    of the dropped parts' influences bounds that of the complement of the
    kept union.

    The partition is the one stage that reads `buckets`; from then on a
    part is its coordinate masks.  `parts` lets a caller supply the
    partition (built with `_initial_parts`) to observe it directly.
    """
    if parts is None:
        parts = _initial_parts(buckets, config.q, config.num_parts, rng)
    own = estimator(oracle, np.array([p.coord_mask for p in parts], dtype=np.int64), config.m, rng)
    keep = sorted(int(j) for j in np.argsort(-own, kind="stable")[: config.k])
    return [parts[j] for j in keep], float(np.delete(own, keep).sum())


@dataclass(frozen=True)
class RefinementResult:
    # each final part's mask, that of its one occupied pattern; 0 for a
    # part with none
    final_masks: tuple[int, ...]
    part_went_empty: tuple[bool, ...]
    last_round_eta: float
    rounds_used: int


def refine_parts(
    oracle: QueryOracle,
    selected: Sequence[VirtualPart],
    config: TesterConfig,
    rng: np.random.Generator,
    estimator: InfluenceEstimator = estimate_inf_mask,
) -> RefinementResult:
    """Halve every selected part round by round, each round keeping the
    keep-choice z (half (z >> i) & 1 of part i) whose union has the
    complement of smallest estimated influence; ties break to the
    smallest z.  A split cuts a part's range of cells in two and draws
    nothing (see `VirtualPart.halves`).  A round passes its 2^k complements to one estimator call,
    m(2^k + 1) queries.

    Refinement stops after the first round that leaves every part
    holding at most one occupied pattern: later rounds could only keep
    or drop a pattern that is already isolated.  At least one round
    runs, and at most `default_refine_rounds(q, num_parts)`, after which
    every part of the partition has size at most 1.  A part that loses
    all its patterns is carried along as empty and flagged; a part never
    grows, so it is flagged exactly when its final size is 0.
    """
    k = len(selected)
    parts = list(selected)
    for rounds_used in range(1, default_refine_rounds(config.q, config.num_parts) + 1):
        halves = [p.halves() for p in parts]
        choices = [[h[(z >> i) & 1] for i, h in enumerate(halves)] for z in range(1 << k)]
        unions = np.array([_union([h.coord_mask for h in c]) for c in choices], dtype=np.int64)
        estimates = estimator(oracle, ((1 << oracle.n) - 1) & ~unions, config.m, rng)
        best_z = int(np.argmin(estimates))
        parts = choices[best_z]
        last_eta = float(estimates[best_z])
        if all(len(p.masks) <= 1 for p in parts):
            break
    return RefinementResult(
        final_masks=tuple(p.masks[0] if p.masks else 0 for p in parts),
        part_went_empty=tuple(p.size == 0 for p in parts),
        last_round_eta=last_eta,
        rounds_used=rounds_used,
    )


@dataclass(frozen=True)
class TesterReport:
    """Verdict plus diagnostics for one tester run."""

    verdict: str  # accept | reject
    reject_stage: str  # core_search | none
    queries_used: int
    selected_buckets: tuple[tuple[int, ...], ...]
    learned_core: Optional[CoreTable]
    empirical_distance: Optional[float]
    eta: Mapping[str, float]
    phi: tuple[Optional[int], ...] = ()
    empty_buckets: tuple[bool, ...] = ()
    refine_rounds_used: Optional[int] = None  # None when read from a record without it

    def __post_init__(self):
        if (self.verdict == "accept") != (self.learned_core is not None):
            raise ValueError("learned_core must be present exactly when accepting")


def _sufficient_statistics(
    sample_masks: Sequence[int], sample_values: np.ndarray, phi: Sequence[Optional[int]]
) -> tuple[np.ndarray, np.ndarray, float]:
    """The counts n_u and means mu_u of the sampled values at each core
    input u, and the within-group residual W; see `core_statistics`."""
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
    cores: CoreSet, counts: np.ndarray, means: np.ndarray, within: float, q: int, lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, scores of cores start, start + 1, ...) for each block
    of at most CORE_SCAN_ROWS of the rows [lo, hi), in enumeration order."""
    for start in range(lo, hi, CORE_SCAN_ROWS):
        dev = cores.tables[start : min(start + CORE_SCAN_ROWS, hi)] - means
        dev *= dev
        stats = dev @ counts
        stats += within
        stats /= q
        yield start, stats


def core_statistics(
    cores: CoreSet,
    sample_masks: Sequence[int],
    sample_values: np.ndarray,
    phi: Sequence[Optional[int]],
) -> np.ndarray:
    """Mean squared deviation of the sampled values from every core.

    Bit j of sample t's core input u_t is coordinate phi[j] of the
    sample (0 when phi[j] is None).  With n_u and mu_u the count and
    mean of the sampled values at core input u, and
    W = sum_t (f_t - mu_{u_t})^2 the residual within groups, core c
    scores (W + sum_u n_u (c_u - mu_u)^2) / q.  This equals
    mean_t (f_t - c_{u_t})^2 and, as a sum of squares, is never
    negative.  Scored CORE_SCAN_ROWS cores at a time, in
    O(CORE_SCAN_ROWS * 2^k) memory, this is the full-scan reference for
    `final_check_and_learn`'s pruned scan.
    """
    stats = _sufficient_statistics(sample_masks, sample_values, phi)
    blocks = [s for _, s in _core_score_blocks(cores, *stats, len(sample_masks), 0, len(cores))]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def _scan_range(
    cores: CoreSet, counts: np.ndarray, means: np.ndarray, within: float, q: int, threshold: float
) -> tuple[int, int]:
    """Rows [lo, hi) outside which no core scores at most `threshold`:
    none when W/q > threshold, since every core scores at least W/q, and
    else the run of rows, column 0 being non-decreasing (`CoreSet`), with
    n_0 (c_0 - mu_0)^2 <= q * threshold - W, every row when n_0 = 0.  The
    radius about mu_0 is widened past any rounding.  lo and hi are
    rounded out to multiples of 4 (hi to at most the row count), since
    OpenBLAS scores a block's last (rows mod 4) rows by a path whose last
    bits can differ, which only the full scan's own last rows may take."""
    if within / q > threshold:
        return 0, 0
    if counts[0] == 0:
        return 0, len(cores)
    radius = math.sqrt(max(q * threshold - within, 0.0) / counts[0]) * (1 + 1e-9) + 1e-12
    column = cores.tables[:, 0]
    lo = bisect.bisect_left(column, means[0] - radius) & ~3
    hi = bisect.bisect_right(column, means[0] + radius)
    return lo, min(len(cores), (hi + 3) & ~3)


def final_check_and_learn(
    sample_masks: Sequence[int],
    sample_values: np.ndarray,
    refinement: RefinementResult,
    cores: CoreSet,
    config: TesterConfig,
) -> TesterReport:
    """Implicit learning against the core set, which decides the verdict.

    Core input j reads the lowest coordinate of final bucket j (the
    constant 0 for an empty one).  A core's statistic, the mean squared
    deviation of the samples from it (`core_statistics`), estimates
    ||f - lift(c)||^2 = ||f - E_phi f||^2 + ||E_phi f - c||^2 (Pythagoras
    for the projection E_phi onto the learned coordinates), so it charges
    f for its distance from a junta on them too, and no influence check
    is needed.  The first core in enumeration order whose statistic is at
    most accept_threshold is learned, with the statistic as the report's
    empirical_distance: the rows of `_scan_range` are scored
    CORE_SCAN_ROWS at a time, up to the first block with a passing core.
    queries_used is 0 and eta empty; `run_tester` fills them in.
    """
    bucket_coords = tuple(tuple(sorted(coords_of(mask))) for mask in refinement.final_masks)
    phi = tuple(coords[0] if coords else None for coords in bucket_coords)
    q, threshold = len(sample_masks), config.accept_threshold
    counts, means, within = _sufficient_statistics(sample_masks, sample_values, phi)
    lo, hi = _scan_range(cores, counts, means, within, q, threshold)
    core, dist = None, None
    for start, stats in _core_score_blocks(cores, counts, means, within, q, lo, hi):
        passing = np.flatnonzero(stats <= threshold)
        if passing.size:
            first = int(passing[0])
            core, dist = cores.member(start + first), float(stats[first])
            break
    return TesterReport(
        verdict="reject" if core is None else "accept",
        reject_stage="core_search" if core is None else "none",
        queries_used=0,
        selected_buckets=bucket_coords,
        learned_core=core,
        empirical_distance=dist,
        eta={},
        phi=phi,
        empty_buckets=refinement.part_went_empty,
        refine_rounds_used=refinement.rounds_used,
    )


def run_tester(
    oracle: QueryOracle,
    class_tag: str,
    config: TesterConfig,
    estimator: InfluenceEstimator = estimate_inf_mask,
    cores: Optional[CoreSet] = None,
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

    The report's eta holds "initial_min" and "refine_last".  initial_min
    is the sum of the dropped parts' own estimates, which estimates an
    upper bound on the influence of the complement of the kept parts
    (influence is subadditive).
    """
    rng = np.random.default_rng(config.seed)
    if cores is None:
        cores = cached_cores(class_tag, config.k, config.core_grid)
    start = oracle.query_count
    n = oracle.n
    sample_masks = rng.integers(0, 1 << n, size=config.q, dtype=np.int64)
    sample_values = oracle.query_masks(sample_masks)
    buckets = _buckets_from_masks(sample_masks, n)
    selected, dropped = select_initial_parts(oracle, buckets, config, rng, estimator)
    refinement = refine_parts(oracle, selected, config, rng, estimator)
    report = final_check_and_learn(sample_masks, sample_values, refinement, cores, config)
    eta = {"initial_min": dropped, "refine_last": refinement.last_round_eta}
    return replace(report, queries_used=oracle.query_count - start, eta=eta)


# ---------------------------------------------------------------------------
# Config and report serialization ("key: value" lines).
# ---------------------------------------------------------------------------


class Setting(NamedTuple):
    """One tester setting: its `TesterConfig` field, the type its value is
    read as, and whether a config file must give it (an optional one
    left out keeps the field's default).  A value is written with `str`."""

    field: str
    kind: type
    required: bool = True


# every tester setting by its config-file key, in config-file order
SETTINGS = {
    "eps": Setting("eps", float),
    "k": Setting("k", int),
    "p": Setting("p", float, required=False),
    "q": Setting("q", int),
    "m": Setting("m", int),
    "num_parts": Setting("num_parts", int),
    "accept_threshold": Setting("accept_threshold", float),
    "core_grid": Setting("core_grid", float),
    "seed": Setting("seed", int, required=False),
}
# the settings a plan may override, by plan key, in plan-file order; eps,
# k, p and the seed come from the plan's own fields
PLAN_SETTINGS = {
    plan_key: SETTINGS[key]
    for plan_key, key in (
        ("q", "q"), ("m", "m"), ("num_parts", "num_parts"), ("gamma", "core_grid"),
        ("accept_threshold", "accept_threshold"),
    )
}


def config_to_lines(config: TesterConfig) -> list[str]:
    lines = [f"schema: {CONFIG_SCHEMA}"]
    for key, setting in SETTINGS.items():
        lines.append(f"{key}: {getattr(config, setting.field)}")
    for note in profile_deviations(config):
        lines.append(f"# deviation {note}")
    return lines


def save_config(config: TesterConfig, path) -> None:
    kvfile.write_lines(path, config_to_lines(config))


_CONFIG_REQUIRED = tuple(key for key, s in SETTINGS.items() if s.required)
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


def load_config(path) -> TesterConfig:
    with open(path) as fh:
        entries = kvfile.check(
            kvfile.parse(fh.read()), "config", CONFIG_SCHEMA, _CONFIG_REQUIRED, SETTINGS
        )
    return TesterConfig(
        **{s.field: s.kind(entries[key]) for key, s in SETTINGS.items() if key in entries}
    )


def report_to_lines(report: TesterReport) -> list[str]:
    buckets = " ; ".join(
        " ".join(str(c) for c in coords) if coords else "-" for coords in report.selected_buckets
    )
    core = (
        " ".join(repr(v) for v in report.learned_core.values)
        if report.learned_core is not None
        else "-"
    )
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


def report_from_lines(text: str) -> TesterReport:
    entries = kvfile.check(kvfile.parse(text), "report", REPORT_SCHEMA, _REPORT_REQUIRED)
    buckets = tuple(
        tuple(int(tok) for tok in chunk.split()) if chunk.strip() != "-" else ()
        for chunk in entries["selected_buckets"].split(";")
    )
    core = None
    if entries["learned_core"] != "-":
        vals = tuple(float(tok) for tok in entries["learned_core"].split())
        core = CoreTable(int(math.log2(len(vals))), vals)
    dist = None if entries["empirical_distance"] == "-" else float(entries["empirical_distance"])
    eta = {}
    for tok in entries["eta"].split():
        key, _, val = tok.partition("=")
        eta[key] = float(val)
    phi = tuple(None if tok == "-" else int(tok) for tok in entries["phi"].split())
    empty = tuple(bool(int(tok)) for tok in entries["empty_buckets"].split())
    rounds = entries.get("refine_rounds_used")
    return TesterReport(
        verdict=entries["verdict"],
        reject_stage=entries["reject_stage"],
        queries_used=int(entries["queries_used"]),
        selected_buckets=buckets,
        learned_core=core,
        empirical_distance=dist,
        eta=eta,
        phi=phi,
        empty_buckets=empty,
        refine_rounds_used=None if rounds is None else int(rounds),
    )
