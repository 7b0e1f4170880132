"""`bench.certify` against the per-set loop it replaced, on exact juntas,
and within its memory bound."""

import math
import tracemalloc

import numpy as np
import pytest

from cubetest import bench
from cubetest.bench import certify
from cubetest.cores import cached_cores, dist_cores_to_set, lift_core
from cubetest.influence import closest_junta
from cubetest.tables import FunctionTable
from cubetest.valuations import make_far_instance, parity_blend_table
from oracles import naive_certify_bound

CLASSES = ("submodular", "subadditive", "self_bounding", "additive", "unit_demand")
INPUTS = ("random", "dyadic", "third", "and_far", "parity")


def _coords(rng, n, k):
    return tuple(int(c) + 1 for c in rng.choice(n, size=k, replace=False))


def _input(kind, class_tag, n, k, rng):
    """A table and the grid to certify it on."""
    if kind == "random":
        return FunctionTable(n, rng.uniform(0.0, 1.0, 1 << n)), 0.25
    if kind in ("dyadic", "third"):
        gamma = 0.25 if kind == "dyadic" else 1 / 3
        cores = cached_cores(class_tag, k, gamma)
        core = cores.member(int(rng.integers(len(cores))))
        return lift_core(core, _coords(rng, n, k), n), gamma
    if kind == "and_far":
        and_core = (0.0,) * ((1 << k) - 1) + (1.0,)
        far = make_far_instance("a", class_tag, n, k, 0.0, gamma=0.25, rng=rng, core_values=and_core)
        return far.table, 0.25
    return parity_blend_table(n), 0.25


def _oracle_cases():
    # every input on every class where the loop is cheap; elsewhere one
    # input per class, rotating with (n, k).  The loop takes about 0.45 s
    # per subadditive k = 3 table at n = 8 and 1.3 s per submodular k = 3
    # table at n = 16, so those are kept few.
    for n in (4, 8, 12, 16):
        for k in (1, 2, 3):
            every_input = n == 4 or (n <= 12 and k <= 2) or (n == 16 and k == 1)
            for i, class_tag in enumerate(CLASSES):
                if k == 3 and n > 8 and class_tag == "subadditive":
                    continue
                if (n, k) == (16, 3) and class_tag not in ("submodular", "additive"):
                    continue
                for j, kind in enumerate(INPUTS):
                    if every_input or j == (i + n + k) % len(INPUTS):
                        yield pytest.param(n, k, class_tag, kind, id=f"n{n}-k{k}-{class_tag}-{kind}")


@pytest.mark.parametrize("n, k, class_tag, kind", _oracle_cases())
def test_bound_matches_per_set_loop(n, k, class_tag, kind):
    rng = np.random.default_rng((n, k, CLASSES.index(class_tag), INPUTS.index(kind)))
    f, gamma = _input(kind, class_tag, n, k, rng)
    cert = certify(f, class_tag, k, gamma)
    expected = naive_certify_bound(f, cached_cores(class_tag, k, gamma), gamma)
    assert abs(cert.class_junta_lower_bound - expected) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", [*INPUTS, "noisy_constant"])
def test_pruned_bound_matches_per_set_loop(monkeypatch, k, kind):
    """Only the sets with d1_K below the bound at the closest junta's set
    are scored against the cores: none on lifted junta cores, the parity
    blend and uniform random tables (whose cores lie near the class, so
    the bound there is the least d1_K, at that set); on the far AND core
    that set alone (its core term is the bound, above its d1_K); and every
    set on a table near a constant the class excludes (additive cores are
    0 at the empty input)."""
    n, class_tag = 12, "additive" if kind == "noisy_constant" else "submodular"
    rng = np.random.default_rng((k, INPUTS.index(kind) if kind in INPUTS else 9))
    if kind == "noisy_constant":
        f, gamma = FunctionTable(n, 0.5 + rng.uniform(-0.02, 0.02, 1 << n)), 0.25
    else:
        f, gamma = _input(kind, class_tag, n, k, rng)
    scored = []

    def counting(values, cores):
        scored.append(len(values))
        return dist_cores_to_set(values, cores)

    monkeypatch.setattr(bench, "dist_cores_to_set", counting)
    cert = certify(f, class_tag, k, gamma)
    expected = naive_certify_bound(f, cached_cores(class_tag, k, gamma), gamma)
    assert abs(cert.class_junta_lower_bound - expected) <= 1e-12
    assert scored == {"noisy_constant": [math.comb(n, k)], "and_far": [1]}.get(kind, [])


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_non_dyadic_junta_is_at_distance_zero(n, k):
    # grid 1/3 values are not dyadic, so the transform leaves ~1e-17
    # outside the junta; total weight minus the weight inside the junta
    # cancelled to up to 1e-8 of distance
    cores = cached_cores("submodular", k, 1 / 3)
    rng = np.random.default_rng((n, k))
    for _ in range(4):
        coords = tuple(int(c) + 1 for c in rng.choice(n, size=k, replace=False))
        f = lift_core(cores.member(int(rng.integers(len(cores)))), coords, n)
        J, junta_dist = closest_junta(f, k)
        cert = certify(f, "submodular", k, 1 / 3)
        assert junta_dist <= 1e-12
        assert cert.junta_distance <= 1e-12
        assert cert.class_junta_lower_bound <= 1e-12


def test_lifted_third_core_reported_example():
    core = cached_cores("submodular", 2, 1 / 3).member(63)
    f = lift_core(core, (4, 6), 12)
    assert closest_junta(f, 2) == (frozenset({4, 6}), pytest.approx(0.0, abs=1e-12))


def test_memory_bounded_by_blocks():
    # 220 sets against 148,815 subadditive cores: one sets x cores matrix
    # would take 262 MB
    cores = cached_cores("subadditive", 3, 0.25)
    assert len(cores) == 148_815
    f = FunctionTable(12, np.random.default_rng(7).uniform(0.0, 1.0, 1 << 12))
    tracemalloc.start()
    try:
        cert = certify(f, "subadditive", 3, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.class_junta_lower_bound > 0.0
    assert peak < 32 * 2**20
