"""End-to-end implicit-learning tester and the lp -> l2 parameter map.

The tester draws q uniform sample points, maps each value pattern the
n coordinates show across those samples to the mask of the coordinates
that show it, and picks k parts of a random equi-partition of pattern
space whose union should capture all the influence.  Each selected
part is then halved round by round, keeping the half-choice with the
smallest estimated complement influence, and refinement stops after
the first round that leaves every part holding at most one occupied
pattern, which is all implicit learning needs; that round comes by
`default_refine_rounds(q, num_parts)`, after which every part holds at
most one pattern.  A final influence gate rejects if the complement of
the surviving buckets still carries more than `inf_threshold` influence;
otherwise the core learned from the original samples is compared
against every enumerated grid core, and the first one whose mean
squared deviation is at most `accept_threshold` is returned.

The core search reads the samples only through per-core-input
sufficient statistics: the count n_u and mean mu_u of the sampled
values at each core input u, and the within-group residual
W = sum_t (f_t - mu_{u_t})^2.  Core c's mean squared deviation is then
(W + sum_u n_u (c_u - mu_u)^2) / q.  The cores are scored in enumeration
order, CORE_SCAN_ROWS at a time, and the scan stops at the first block
that holds a passing core, so a search costs at most O(|cores| * 2^k)
time and O(CORE_SCAN_ROWS * 2^k) working memory, whatever q is.

Pattern space has 2^q elements and is never materialized.
`_initial_parts`, the one place that reads the pattern -> mask dict,
gives each occupied pattern (one realized by some coordinate) a
distinct uniform cell of [0, 2^q), drawing again a cell already taken:
a uniform injection of the occupied patterns into the cells, which is
the law a full shuffle of pattern space gives them.  Parts are fixed
ranges of cells, and a split cuts a range [lo, lo + s) at
lo + ceil(s/2), so a part stores its range and the cells and coordinate
masks it holds, in ascending pattern order, and refinement draws
nothing of its own.

The selection keeps the k parts of largest estimated own influence
(Blais, "Testing juntas nearly optimally", STOC 2009), one estimate
per part.  The source paper instead keeps the k parts whose union has
the complement of least estimated influence, over all C(num_parts, k)
unions; this rule is one of the tester's documented deviations from
the paper (see the README).

Each stage passes its whole batch of masks to one estimator call: the
selection its B = num_parts part masks, each refinement round the
complements of its 2^k candidate unions, the gate a batch of one.  A
batch shares one set of m base points across its masks (see
`estimate_inf_mask`), and each estimate keeps the law of a separate
2m-query estimate, so B masks cost m(B + 1) queries and a run that used
r refinement rounds costs exactly q + m(B + 1) + m(2^k + 1) r + 2m;
`TesterConfig.query_budget()` is that cost at the most rounds a run can
use, r = `default_refine_rounds(q, num_parts)`.

`SETTINGS` is the one table of tester settings: for each, its
config-file key, `TesterConfig` field and value type.  Config files are
written and read through it, and `PLAN_SETTINGS` names the six a plan
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
    Omitted thresholds are derived from eps after the lp -> l2 map.
    q above Q_BUDGET or num_parts above NUM_PARTS_BUDGET raises
    BudgetError."""

    eps: float
    k: int
    p: float = 2.0
    q: int = 64
    m: int = 1000
    num_parts: Optional[int] = None
    inf_threshold: Optional[float] = None
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
        if self.inf_threshold is None:
            object.__setattr__(self, "inf_threshold", eps2 ** 2 / 1000.0)
        if self.accept_threshold is None:
            object.__setattr__(self, "accept_threshold", 0.35 * eps2)
        for name in ("inf_threshold", "accept_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def query_budget(self) -> int:
        """Oracle queries of a run that uses the most refinement rounds a
        run can use: q + m(B + 1) + m(2^k + 1) r + 2m, with B = num_parts
        and r = default_refine_rounds(q, num_parts).  A run that stopped
        after r' <= r rounds costs exactly that with r' in place of r."""
        q, m, k, r = self.q, self.m, self.k, default_refine_rounds(self.q, self.num_parts)
        return q + m * (self.num_parts + 1) + m * ((1 << k) + 1) * r + 2 * m


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
    reject_stage: str  # influence_check | core_search | none
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


def _core_score_blocks(
    cores: CoreSet,
    sample_masks: Sequence[int],
    sample_values: np.ndarray,
    phi: Sequence[Optional[int]],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, scores of cores lo, lo + 1, ...) for each block of
    CORE_SCAN_ROWS cores, in enumeration order; see `core_statistics`."""
    q = len(sample_masks)
    masks = np.asarray(sample_masks, dtype=np.int64)
    u = np.zeros(q, dtype=np.int64)
    for j, coord in enumerate(phi):
        if coord is not None:
            u |= ((masks >> (coord - 1)) & 1) << j
    fvals = np.asarray(sample_values, dtype=np.float64)
    size = 1 << len(phi)
    counts = np.bincount(u, minlength=size).astype(np.float64)
    sums = np.bincount(u, weights=fvals, minlength=size)
    means = np.divide(sums, counts, out=np.zeros(size), where=counts > 0)
    within = float(np.sum((fvals - means[u]) ** 2))
    for lo in range(0, len(cores), CORE_SCAN_ROWS):
        dev = cores.tables[lo : lo + CORE_SCAN_ROWS] - means
        dev *= dev
        stats = dev @ counts
        stats += within
        stats /= q
        yield lo, stats


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
    negative.  The result joins the per-block scores that
    `final_check_and_learn` scans, CORE_SCAN_ROWS cores at a time, so
    its temporaries take O(CORE_SCAN_ROWS * 2^k) memory rather than
    O(|cores| * q).
    """
    blocks = [stats for _, stats in _core_score_blocks(cores, sample_masks, sample_values, phi)]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def final_check_and_learn(
    oracle: QueryOracle,
    sample_masks: Sequence[int],
    sample_values: np.ndarray,
    refinement: RefinementResult,
    cores: CoreSet,
    config: TesterConfig,
    rng: np.random.Generator,
    estimator: InfluenceEstimator = estimate_inf_mask,
) -> TesterReport:
    """Influence gate, then implicit learning against the core set.

    The final buckets are the refinement's final masks, and the gate
    estimates the complement of their union.  The projection reads, for
    each final bucket, the lowest-index coordinate it contains; an empty
    bucket feeds the constant 0 to the corresponding core input.  The
    acceptance statistic is the mean of squared deviations between the
    sampled values and the candidate core's values on the projected
    samples (see `core_statistics`: (W + sum_u n_u (c_u - mu_u)^2) / q),
    compared with accept_threshold; the report's empirical_distance is
    that statistic.  The first passing core in enumeration order
    is learned: the cores are scored CORE_SCAN_ROWS at a time and the
    scan stops at the first block that holds a passing core, in
    O(CORE_SCAN_ROWS * 2^k) working memory.  The report's queries_used
    is 0 and its eta holds only "gate"; `run_tester` fills in the run's
    count and the other stages' entries.
    """
    bucket_coords = tuple(tuple(sorted(coords_of(mask))) for mask in refinement.final_masks)
    complement = ((1 << oracle.n) - 1) & ~_union(refinement.final_masks)
    gate = float(estimator(oracle, np.array([complement], dtype=np.int64), config.m, rng)[0])
    phi = tuple(coords[0] if coords else None for coords in bucket_coords)
    core, dist, stage = None, None, "influence_check"
    if not gate > config.inf_threshold:
        stage = "core_search"
        for lo, stats in _core_score_blocks(cores, sample_masks, sample_values, phi):
            passing = np.flatnonzero(stats <= config.accept_threshold)
            if passing.size:
                first = int(passing[0])
                core, dist, stage = cores.member(lo + first), float(stats[first]), "none"
                break
    return TesterReport(
        verdict="reject" if core is None else "accept",
        reject_stage=stage,
        queries_used=0,
        selected_buckets=bucket_coords,
        learned_core=core,
        empirical_distance=dist,
        eta={"gate": gate},
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
    part masks, each refinement round once with its 2^k complement
    masks, and the gate once with a batch of one, so a run that used r rounds makes
    exactly q + m(num_parts + 1) + m(2^k + 1) r + 2m queries (see
    `TesterConfig.query_budget`).

    The report's eta holds "initial_min", "refine_last" and "gate".
    initial_min is the sum of the dropped parts' own estimates, which
    estimates an upper bound on the influence of the complement of the
    kept parts (influence is subadditive).
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
    report = final_check_and_learn(
        oracle, sample_masks, sample_values, refinement, cores, config, rng, estimator
    )
    eta = {"initial_min": dropped, "refine_last": refinement.last_round_eta}
    return replace(report, queries_used=oracle.query_count - start, eta={**eta, **report.eta})


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
    "inf_threshold": Setting("inf_threshold", float),
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
        ("inf_threshold", "inf_threshold"), ("accept_threshold", "accept_threshold"),
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
