"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written from the raw definitions with
plain Python loops, sharing no code path with the library's vectorized
implementations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cubetest.cores import (
    CoreTable, cached_cores, core_of_junta, dist_core_to_set, grid_levels, lift_core
)
from cubetest.influence import junta_projection
from cubetest.tables import MAX_DIMENSION, FunctionTable
from cubetest.valuations import make_far_instance


def popcount(x: int) -> int:
    return bin(x).count("1")


def naive_fourier_coefficient(values, n: int, t_mask: int) -> float:
    """Defining expectation: (1/2^n) * sum_x f(x) * (-1)^{|x & T|}."""
    total = 0.0
    for x in range(1 << n):
        sign = -1.0 if popcount(x & t_mask) % 2 else 1.0
        total += float(values[x]) * sign
    return total / (1 << n)


def naive_influence(values, n: int, s_coords) -> float:
    """Mean over outside assignments of the population variance over S."""
    s_mask = 0
    for c in s_coords:
        s_mask |= 1 << (c - 1)
    out_bits = [i for i in range(n) if not s_mask & (1 << i)]
    in_bits = [i for i in range(n) if s_mask & (1 << i)]
    if not in_bits:
        return 0.0
    total = 0.0
    for out_assign in itertools.product((0, 1), repeat=len(out_bits)):
        base = 0
        for bit, val in zip(out_bits, out_assign):
            base |= val << bit
        samples = []
        for in_assign in itertools.product((0, 1), repeat=len(in_bits)):
            point = base
            for bit, val in zip(in_bits, in_assign):
                point |= val << bit
            samples.append(float(values[point]))
        mean = sum(samples) / len(samples)
        total += sum((s - mean) ** 2 for s in samples) / len(samples)
    return total / (1 << len(out_bits))


def naive_lp_distance(values_f, values_g, n: int, p: float) -> float:
    total = sum(abs(float(a) - float(b)) ** p for a, b in zip(values_f, values_g))
    return (total / (1 << n)) ** (1.0 / p)


def submodular_all_pairs(values, n: int, tol: float = 1e-9):
    """The pairwise definition f(x) + f(y) >= f(x&y) + f(x|y); returns the
    first violating (x, y) or None."""
    for x in range(1 << n):
        for y in range(1 << n):
            lhs = float(values[x]) + float(values[y])
            rhs = float(values[x & y]) + float(values[x | y])
            if lhs < rhs - tol:
                return (x, y)
    return None


def _witness(condition: str, points, lhs: float, rhs: float, n: int) -> str:
    """A violation as `str(ViolationWitness)` prints it."""
    pts = ", ".join(_bitstring(p, n) for p in points)
    return f"{condition} violated at {pts}: {lhs!r} < {rhs!r}"


def naive_submodular_witness(values, n: int, tol: float):
    """First pair i < j, then first x without bits i and j, with
    f(x|e_i) + f(x|e_j) < f(x) + f(x|e_i|e_j) - tol; None if there is none."""
    v = [float(a) for a in values]
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            for x in range(1 << n):
                if x & bi or x & bj:
                    continue
                lhs = v[x | bi] + v[x | bj]
                rhs = v[x] + v[x | bi | bj]
                if lhs < rhs - tol:
                    return _witness("submodularity", (x | bi, x | bj), lhs, rhs, n)
    return None


def naive_subadditive_witness(values, n: int, tol: float):
    """First x, then first y, with f(x) + f(y) - f(x|y) < -tol."""
    v = [float(a) for a in values]
    for x in range(1 << n):
        for y in range(1 << n):
            lhs = v[x] + v[y]
            rhs = v[x | y]
            if lhs - rhs < -tol:
                return _witness("subadditivity", (x, y), lhs, rhs, n)
    return None


def naive_self_bounding_witness(values, n: int, tol: float):
    """First x with f(x) < sum_i max(0, f(x) - f(x xor e_i)) - tol, the sum
    taken over i ascending."""
    v = [float(a) for a in values]
    for x in range(1 << n):
        drop = 0.0
        for i in range(n):
            drop += max(0.0, v[x] - v[x ^ (1 << i)])
        if v[x] < drop - tol:
            return _witness("self-bounding", (x,), v[x], drop, n)
    return None


def _pointwise_witness(v, predicted, n: int, tol: float, condition: str):
    for x in range(1 << n):
        if abs(v[x] - predicted[x]) > tol:
            a, b = v[x], predicted[x]
            return _witness(condition, (x,), min(a, b), max(a, b), n)
    return None


def naive_additive_witness(values, n: int, tol: float):
    """First x where f(x) differs by more than tol from the sum, over the
    bits i of x ascending, of f(e_i)."""
    v = [float(a) for a in values]
    predicted = []
    for x in range(1 << n):
        total = 0.0
        for i in range(n):
            if x & (1 << i):
                total += v[1 << i]
        predicted.append(total)
    return _pointwise_witness(v, predicted, n, tol, "additivity")


def naive_unit_demand_witness(values, n: int, tol: float):
    """First x where f(x) differs by more than tol from the largest f(e_i)
    over the bits i of x (0 at the empty set)."""
    v = [float(a) for a in values]
    predicted = [max((v[1 << i] for i in range(n) if x & (1 << i)), default=0.0) for x in range(1 << n)]
    return _pointwise_witness(v, predicted, n, tol, "unit demand")


# class tag -> plain-loop witness string (or None) of (values, n, tol)
NAIVE_WITNESSES = {
    "additive": naive_additive_witness,
    "unit_demand": naive_unit_demand_witness,
    "submodular": naive_submodular_witness,
    "subadditive": naive_subadditive_witness,
    "self_bounding": naive_self_bounding_witness,
}


def naive_junta_projection(values, n: int, j_coords):
    """Average f over the coordinates outside J, by direct grouping."""
    j_mask = 0
    for c in j_coords:
        j_mask |= 1 << (c - 1)
    out = [0.0] * (1 << n)
    for x in range(1 << n):
        cls = x & j_mask
        group = [float(values[y]) for y in range(1 << n) if (y & j_mask) == cls]
        out[x] = sum(group) / len(group)
    return out


def naive_closest_junta(values, n: int, k: int):
    """Search all size-k sets, scoring each by the exact l2 distance to
    the averaged projection; first minimizer wins."""
    best = None
    best_dist = math.inf
    for J in itertools.combinations(range(1, n + 1), k):
        proj = naive_junta_projection(values, n, J)
        d = naive_lp_distance(values, proj, n, 2.0)
        if d < best_dist - 1e-15:
            best_dist = d
            best = J
    return best, best_dist


def naive_min_distance_to_cores(core_values, member_rows, k: int) -> float:
    """Plain loop minimum l2 distance from a core to a list of cores."""
    best = math.inf
    size = 1 << k
    for row in member_rows:
        total = sum((float(core_values[i]) - float(row[i])) ** 2 for i in range(size))
        best = min(best, math.sqrt(total / size))
    return best


def submodular_k2_class_distance(core_values) -> tuple[float, tuple[float, ...]]:
    """Exact l2 distance from a 2-junta with core c to the submodular
    functions with values in [0, 1], with the nearest core.

    Submodularity is kept by averaging out coordinates, and averaging is
    an l2 contraction that fixes the junta, so a nearest class member is
    a 2-junta on the same coordinates, and the distance is that of c from
    its projection x onto {x in [0,1]^4 : x1 + x2 >= x0 + x3} (one
    submodular inequality; bit 0 of the index is the first coordinate).
    With a = (-1, 1, 1, -1), the KKT conditions give
    x = clip(c + lam * a, 0, 1) at the least lam >= 0 with a . x >= 0;
    a . x is non-decreasing in lam, so a bisection on lam finds it."""
    c = np.asarray(core_values, dtype=np.float64)
    a = np.array([-1.0, 1.0, 1.0, -1.0])

    def x(lam):
        return np.clip(c + lam * a, 0.0, 1.0)

    lo, hi = 0.0, 2.0  # a . x(2) = 2 for every c in [0, 1]^4
    if a @ x(0.0) >= 0:
        hi = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if a @ x(mid) < 0 else (lo, mid)
    nearest = x(hi)
    return math.sqrt(float(np.mean((c - nearest) ** 2))), tuple(float(v) for v in nearest)


def naive_certify_bound(f: FunctionTable, cores, gamma: float) -> float:
    """The class bound of `bench.certify` as a loop over the coordinate
    sets K: project f on K, take the projection's l2 distance d1 from f
    and its core's distance d2 from the cores, and minimize
    max(d1, d2 - gamma/2 - d1).  Unlike the rest of this module it calls
    the library's projection and per-core distance, which have their own
    oracle tests."""
    bound = math.inf
    for K in itertools.combinations(range(1, f.n + 1), cores.k):
        pK = junta_projection(f, K)
        d1 = _l2(f, pK)
        d2 = dist_core_to_set(core_of_junta(pK, K), cores)
        bound = min(bound, max(d1, d2 - gamma / 2 - d1))
    return max(0.0, bound)


def naive_farthest_grid_core(cores) -> tuple[tuple[float, ...], float]:
    """The far-core search of `make_far_instance` mode "a" as one
    `dist_core_to_set` call per grid candidate, in np.ndindex order,
    keeping the first of the largest: (core values, distance)."""
    levels = grid_levels(cores.gamma)
    best, best_dist = None, -1.0
    for flat in np.ndindex(*([len(levels)] * (1 << cores.k))):
        candidate = CoreTable(cores.k, tuple(levels[j] for j in flat))
        d = dist_core_to_set(candidate, cores)
        if d > best_dist:
            best, best_dist = candidate, d
    return tuple(float(v) for v in best.values), best_dist


def naive_trial_table(plan, seed: int, far_core_values=None) -> FunctionTable:
    """Trial `seed`'s table of an in_class or far_mode_a plan, built on
    its own from default_rng((seed, 0xC0FE)): for in_class a random
    enumerated core lifted onto random coordinates, for far_mode_a a
    fresh `make_far_instance` of the given core with that generator."""
    gamma = plan.tester_config().core_grid
    rng = np.random.default_rng((seed, 0xC0FE))
    if plan.mode == "far_mode_a":
        return make_far_instance(
            "a", plan.class_tag, plan.n, plan.k, plan.eps,
            gamma=gamma, rng=rng, core_values=far_core_values, p=plan.p,
        ).table
    cores = cached_cores(plan.class_tag, plan.k, gamma)
    core = cores.member(int(rng.integers(len(cores))))
    coords = tuple(int(c) + 1 for c in rng.choice(plan.n, size=plan.k, replace=False))
    return lift_core(core, coords, plan.n)


def _l2(f: FunctionTable, g: FunctionTable) -> float:
    return float(np.sqrt(np.mean((f.values - g.values) ** 2)))


def naive_oxs_value(demand_rows, goods) -> float:
    """Best total value over injective assignments of goods to demand
    rows (each row contributes the weight of its assigned good)."""
    goods = list(goods)
    rows = list(range(len(demand_rows)))
    best = 0.0
    k = min(len(goods), len(rows))
    for chosen_goods in itertools.permutations(goods, k):
        for chosen_rows in itertools.combinations(rows, k):
            total = sum(
                float(demand_rows[r][g]) for r, g in zip(chosen_rows, chosen_goods)
            )
            best = max(best, total)
    return best


def _goods(x: int, n: int) -> list[int]:
    return [i for i in range(n) if x & (1 << i)]


def naive_additive_value(weights, goods) -> float:
    total = 0.0
    for i in goods:
        total += float(weights[i])
    return total


def naive_unit_demand_value(weights, goods) -> float:
    return max((float(weights[i]) for i in goods), default=0.0)


def naive_coverage_value(universe_weights, covers, goods) -> float:
    """Total weight of the universe elements (1-based) the goods' covers
    reach."""
    covered = set()
    for i in goods:
        covered.update(covers[i])
    return sum(float(universe_weights[u - 1]) for u in sorted(covered))


def naive_xos_value(clauses, goods) -> float:
    return max(naive_additive_value(row, goods) for row in clauses)


def _numbered_rows(params, prefix: str) -> list:
    rows = []
    while f"{prefix}_{len(rows) + 1}" in params:
        rows.append(params[f"{prefix}_{len(rows) + 1}"])
    return rows


def naive_gen_values(spec) -> list[float]:
    """A spec's table by its class definition, one bundle at a time,
    divided by its maximum when that exceeds 1."""
    n, params = spec.n, spec.params
    if spec.class_tag == "additive":
        rule = lambda goods: naive_additive_value(params["weights"], goods)
    elif spec.class_tag == "unit_demand":
        rule = lambda goods: naive_unit_demand_value(params["weights"], goods)
    elif spec.class_tag == "submodular":
        rule = lambda goods: min(naive_additive_value(params["weights"], goods), float(params["budget"]))
    elif spec.class_tag == "coverage":
        covers = [params.get(f"cover_{i + 1}", ()) for i in range(n)]
        rule = lambda goods: naive_coverage_value(params["universe_weights"], covers, goods)
    elif spec.class_tag == "xos":
        rule = lambda goods: naive_xos_value(_numbered_rows(params, "clause"), goods)
    else:
        rule = lambda goods: naive_oxs_value(_numbered_rows(params, "demand"), goods)
    raw = [rule(_goods(x, n)) for x in range(1 << n)]
    top = max(raw)
    return [v / top for v in raw] if top > 1.0 else raw


def naive_core_statistics(sample_values, final_patterns, core_rows) -> list[float]:
    """Dense core-search statistic: for each core row, the mean over
    samples t of (f_t - row[u_t])^2, where bit j of u_t is bit t of final
    pattern j (0 when that pattern is None)."""
    q = len(sample_values)
    inputs = []
    for t in range(q):
        u = 0
        for j, pattern in enumerate(final_patterns):
            if pattern is not None:
                u |= ((pattern >> t) & 1) << j
        inputs.append(u)
    out = []
    for row in core_rows:
        total = sum((float(sample_values[t]) - float(row[inputs[t]])) ** 2 for t in range(q))
        out.append(total / q)
    return out


def per_mask_estimator(oracle, masks, m, rng):
    """Influence estimator that makes one draw of m base points, one of m
    fresh points and two oracle calls per mask, one mask at a time; takes
    a 1-D batch of masks, like `influence.estimate_inf_mask`."""
    size = 1 << oracle.n
    out = []
    for mask in masks:
        mask = int(mask)
        base = rng.integers(0, size, size=m, dtype=np.int64)
        fresh = rng.integers(0, size, size=m, dtype=np.int64)
        resampled = (base & ~mask) | (fresh & mask)
        v1 = oracle.query_masks(base)
        v2 = oracle.query_masks(resampled)
        out.append(float(np.sum((v1 - v2) ** 2) / (2 * m)))
    return np.array(out, dtype=np.float64)


def shared_base_estimator(oracle, masks, m, rng):
    """Influence estimator that makes one draw of m base points and one
    oracle call on them per call, then, mask by mask, one draw of m fresh
    points and one oracle call on their completions of the base; takes a
    1-D batch of masks, like `influence.estimate_inf_mask`.  An empty
    batch draws and queries nothing."""
    out = []
    if len(masks):
        size = 1 << oracle.n
        base = rng.integers(0, size, size=m, dtype=np.int64)
        v1 = oracle.query_masks(base)
        for mask in masks:
            mask = int(mask)
            fresh = rng.integers(0, size, size=m, dtype=np.int64)
            v2 = oracle.query_masks((base & ~mask) | (fresh & mask))
            out.append(float(np.sum((v1 - v2) ** 2) / (2 * m)))
    return np.array(out, dtype=np.float64)


def naive_buckets_from_masks(sample_masks, n: int) -> dict[int, int]:
    """Coordinate buckets built one bit at a time: coordinate i's pattern
    has bit t equal to bit (i-1) of sample t, and each pattern maps to
    the mask of its coordinates, patterns in first-seen order."""
    grouped: dict[int, int] = {}
    for i in range(1, n + 1):
        pattern = 0
        for t, msk in enumerate(sample_masks):
            pattern |= ((int(msk) >> (i - 1)) & 1) << t
        grouped[pattern] = grouped.get(pattern, 0) | (1 << (i - 1))
    return grouped


def naive_cell_partition(rng, buckets, q: int, num_parts: int) -> list:
    """The cell partition spelled out from its contract, as (lo, size,
    held) per part: the patterns in ascending order take the low q bits
    of successive ceil(q/8)-byte little-endian words of one `rng.bytes`
    call, a taken cell is drawn again from one `rng.bytes` call per
    attempt, and part j covers [lo_j, lo_j + size_j), the first
    2^q mod num_parts parts one cell longer."""
    width = (q + 7) // 8
    patterns = sorted(buckets)
    stream = int.from_bytes(rng.bytes(width * len(patterns)), "little")
    cells: list[int] = []
    for i in range(len(patterns)):
        cell = (stream >> (8 * width * i)) % (1 << q)
        while cell in cells:
            cell = int.from_bytes(rng.bytes(width), "little") % (1 << q)
        cells.append(cell)
    sizes = [(1 << q) // num_parts + (j < (1 << q) % num_parts) for j in range(num_parts)]
    out = []
    lo = 0
    for size in sizes:
        held = tuple(
            (cell, buckets[p]) for p, cell in zip(patterns, cells) if lo <= cell < lo + size
        )
        out.append((lo, size, held))
        lo += size
    return out


def _bitstring(mask: int, n: int) -> str:
    return "".join(str((mask >> j) & 1) for j in range(n))


def naive_write_table(values, n: int, path, metadata=()) -> None:
    """Table file writer, one point per line: metadata comments, the
    `dim n` header, then `bitstring repr(value)` for each mask in order."""
    lines = [f"# {m}" for m in metadata]
    lines.append(f"dim {n}")
    for mask in range(1 << n):
        lines.append(f"{_bitstring(mask, n)} {float(values[mask])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def naive_read_table(path):
    """Table file reader, one stripped line at a time, with the library's
    error messages; a point counts as set once read, whatever its value."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("table file must start with a 'dim n' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("malformed 'dim' header")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ValueError("malformed 'dim' header") from exc
    if not 0 < n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside [1..{MAX_DIMENSION}]")
    values = [None] * (1 << n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed table line: {ln!r}")
        bits, val = parts
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ValueError(f"bad bitstring {bits!r} for dimension {n}")
        mask = sum(int(c) << j for j, c in enumerate(bits))
        if values[mask] is not None:
            raise ValueError(f"duplicate point {bits}")
        values[mask] = float(val)
    for mask, v in enumerate(values):
        if v is None:
            raise ValueError(f"missing point {_bitstring(mask, n)}")
    return FunctionTable(n, values)
