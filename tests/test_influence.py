import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cubetest import influence
from cubetest.influence import (
    ESTIMATE_CHUNK_POINTS,
    M_BUDGET,
    closest_junta,
    estimate_inf_mask,
    influence_exact,
    influence_fourier,
    junta_projection,
    junta_weights,
    projection_cores,
)
from cubetest.cores import CoreTable, core_of_junta, lift_core
from cubetest.tables import (
    BudgetError,
    FunctionTable,
    QueryOracle,
    lp_distance,
    make_counting_oracle,
    walsh_hadamard,
)
from oracles import (
    naive_closest_junta,
    naive_influence,
    naive_junta_projection,
    per_mask_estimator,
    shared_base_estimator,
)


def random_table(n, rng):
    return FunctionTable(n, rng.uniform(0.0, 1.0, 1 << n))


def dictator(n):
    vals = [(m >> 0) & 1 for m in range(1 << n)]
    return FunctionTable(n, [float(v) for v in vals])


class TestInfluenceExact:
    def test_empty_set(self):
        rng = np.random.default_rng(0)
        assert influence_exact(random_table(5, rng), []) == 0.0

    def test_dictator_frozen(self):
        # four-point enumeration on n=2: Var of a uniform bit is 1/4
        f = dictator(2)
        assert naive_influence(f.values, 2, [1]) == 0.25
        assert influence_exact(f, [1]) == 0.25
        assert influence_exact(f, [2]) == 0.0

    def test_full_set_is_variance(self):
        rng = np.random.default_rng(4)
        f = random_table(6, rng)
        assert influence_exact(f, range(1, 7)) == pytest.approx(
            float(np.var(f.values)), abs=1e-12
        )

    def test_matches_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = random_table(n, rng)
            coords = [i + 1 for i in range(n) if rng.random() < 0.5]
            assert influence_exact(f, coords) == pytest.approx(
                naive_influence(f.values, n, coords), abs=1e-12
            )


class TestInfluenceFourier:
    def test_empty_set(self):
        rng = np.random.default_rng(1)
        sp = walsh_hadamard(random_table(4, rng))
        assert influence_fourier(sp, []) == 0.0

    def test_dictator(self):
        sp = walsh_hadamard(dictator(1))
        assert influence_fourier(sp, [1]) == pytest.approx(0.25, abs=1e-15)

    def test_matches_exact(self):
        rng = np.random.default_rng(6)
        f = random_table(6, rng)
        sp = walsh_hadamard(f)
        for _ in range(30):
            coords = [i + 1 for i in range(6) if rng.random() < 0.5]
            assert abs(influence_fourier(sp, coords) - influence_exact(f, coords)) < 1e-9


class TestEstimateInf:
    """One set's estimate: entry 0 of a batch of one mask."""

    def test_constant_is_exactly_zero(self):
        f = FunctionTable(4, [0.7] * 16)
        for seed in (0, 1, 99):
            oracle = make_counting_oracle(f)
            est = estimate_inf_mask(oracle, np.array([0b101]), 5, np.random.default_rng(seed))
            assert est.shape == (1,)
            assert est[0] == 0.0

    def test_query_accounting_is_2m(self):
        rng = np.random.default_rng(2)
        oracle = make_counting_oracle(random_table(5, rng))
        estimate_inf_mask(oracle, np.array([0b10]), 37, rng)
        assert oracle.query_count == 74
        estimate_inf_mask(oracle, np.array([0b11]), 1, rng)
        assert oracle.query_count == 76

    def test_m_below_one_rejected(self):
        rng = np.random.default_rng(2)
        oracle = make_counting_oracle(random_table(3, rng))
        with pytest.raises(ValueError):
            estimate_inf_mask(oracle, np.array([0b1]), 0, rng)

    @pytest.mark.parametrize("m", [M_BUDGET + 1, 20_000_000_000])
    def test_m_over_budget_refused_before_drawing(self, m):
        oracle = make_counting_oracle(random_table(3, np.random.default_rng(2)))
        rng = np.random.default_rng(5)
        with pytest.raises(BudgetError) as refused:
            estimate_inf_mask(oracle, np.array([0b1]), m, rng)
        assert str(refused.value) == (
            f"influence estimate needs {m} samples per mask, budget is {M_BUDGET}; reduce m"
        )
        assert oracle.query_count == 0
        assert rng.integers(0, 1 << 62) == np.random.default_rng(5).integers(0, 1 << 62)

    def test_dictator_concentrates(self):
        # m=10^4 puts the Hoeffding bound at 2e^-8; over 1000 seeded runs
        # at least 99% must land within 0.02 of the exact 1/4
        f = dictator(4)
        bad = 0
        for seed in range(1000):
            oracle = make_counting_oracle(f)
            est = estimate_inf_mask(oracle, np.array([0b1]), 10_000, np.random.default_rng(seed))
            if abs(est[0] - 0.25) >= 0.02:
                bad += 1
        assert bad / 1000 <= 0.01

    def test_estimator_mean_unbiased(self):
        # 1e4 seeded runs, sample mean within 3 standard errors of exact
        rng = np.random.default_rng(33)
        f = random_table(5, rng)
        coords = [1, 4]
        exact = influence_exact(f, coords)
        runs = 10_000
        estimates = np.empty(runs)
        for i in range(runs):
            oracle = make_counting_oracle(f)
            est = estimate_inf_mask(oracle, np.array([0b1001]), 50, np.random.default_rng(i))
            estimates[i] = est[0]
        se = estimates.std(ddof=1) / math.sqrt(runs)
        assert abs(estimates.mean() - exact) <= 3 * se

    def test_variance_never_grows_with_m(self):
        rng = np.random.default_rng(7)
        f = random_table(5, rng)
        variances = []
        for m in (100, 1000, 10_000):
            ests = []
            for seed in range(200):
                oracle = make_counting_oracle(f)
                est = estimate_inf_mask(oracle, np.array([0b11]), m, np.random.default_rng(seed))
                ests.append(est[0])
            variances.append(np.var(ests))
        assert variances[0] > variances[1] > variances[2]



def hashed_oracle(n):
    """Oracle on {0,1}^n with no table: a multiplicative hash of the point
    mapped to [0, 1), so n can exceed what a table could hold."""

    def evaluate(masks):
        h = (masks.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(44)
        return h.astype(np.float64) / float(1 << 20)

    return QueryOracle(n, evaluate)


class TestEstimateBatch:
    """A batch of masks gives the same bits, the same query count, m(B + 1)
    for B masks, and the same RNG state afterwards as the shared-base
    reference loop; batches of one made in sequence give all three as the
    per-mask reference does, 2m queries each; and a batch of one gives
    what the first mask of a longer batch gives."""

    def _compare(self, make_oracle, n, m, count, seed=0):
        masks = np.random.default_rng(seed).integers(0, 1 << n, size=count, dtype=np.int64)
        runs = {}
        for how in ("batch", "shared_base", "one_mask", "per_mask", "first"):
            oracle = make_oracle()
            rng = np.random.default_rng(seed + 1)
            if how == "batch":
                est = estimate_inf_mask(oracle, masks, m, rng)
            elif how == "shared_base":
                est = shared_base_estimator(oracle, masks, m, rng)
            elif how == "one_mask":
                est = [estimate_inf_mask(oracle, masks[i : i + 1], m, rng)[0] for i in range(count)]
            elif how == "per_mask":
                est = per_mask_estimator(oracle, masks, m, rng)
            else:
                est = estimate_inf_mask(oracle, masks[:1], m, rng)
            after = rng.integers(0, 1 << 62, size=4)
            runs[how] = (np.asarray(est, dtype=np.float64), oracle.query_count, after)
        for got, want, queries in (
            (runs["batch"], runs["shared_base"], m * (count + 1)),
            (runs["one_mask"], runs["per_mask"], 2 * m * count),
        ):
            assert got[0].shape == (count,)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1] == queries
            assert np.array_equal(got[2], want[2])
        assert runs["first"][0].tobytes() == runs["batch"][0][:1].tobytes()
        assert runs["first"][0].tobytes() == runs["one_mask"][0][:1].tobytes()

    @pytest.mark.parametrize("m", [1, 37, 1000])
    def test_matches_one_mask_calls(self, m):
        table = random_table(9, np.random.default_rng(m))
        self._compare(lambda: make_counting_oracle(table), 9, m, 20)

    @pytest.mark.parametrize("m", [37, 1000])
    def test_crosses_chunk_cap(self, m):
        count = 2 * ESTIMATE_CHUNK_POINTS // m + 3
        assert count * m > 2 * ESTIMATE_CHUNK_POINTS  # at least three chunks of fresh points
        table = random_table(8, np.random.default_rng(5))
        self._compare(lambda: make_counting_oracle(table), 8, m, count)

    def test_n40_custom_oracle(self):
        self._compare(lambda: hashed_oracle(40), 40, 37, 30)

    @pytest.mark.parametrize("masks", [0b101, np.int64(0b101), np.zeros((2, 2), dtype=np.int64)])
    def test_scalar_and_two_dimensional_refused(self, masks):
        oracle = make_counting_oracle(random_table(5, np.random.default_rng(0)))
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="masks must be a 1-D batch"):
            estimate_inf_mask(oracle, masks, 10, rng)
        assert oracle.query_count == 0
        assert rng.integers(0, 1 << 62) == np.random.default_rng(3).integers(0, 1 << 62)

    def test_empty_batch(self):
        oracle = make_counting_oracle(random_table(5, np.random.default_rng(0)))
        rng = np.random.default_rng(3)
        est = estimate_inf_mask(oracle, np.empty(0, dtype=np.int64), 10, rng)
        assert isinstance(est, np.ndarray) and est.shape == (0,)
        assert oracle.query_count == 0
        assert rng.integers(0, 1 << 62) == np.random.default_rng(3).integers(0, 1 << 62)

    def test_memory_bounded_by_chunks(self):
        # 2,000 masks at m=1000 are 2 M fresh points: one unchunked draw
        # and its answers would take 32 MB; chunks keep the peak under 1 MB
        oracle = make_counting_oracle(random_table(12, np.random.default_rng(2)))
        masks = np.random.default_rng(3).integers(0, 1 << 12, size=2000, dtype=np.int64)
        tracemalloc.start()
        try:
            est = estimate_inf_mask(oracle, masks, 1000, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (2000,)
        assert oracle.query_count == (2000 + 1) * 1000
        assert peak < 4 * 2 ** 20

    def test_each_mask_keeps_the_independent_law(self):
        # Sharing the base points leaves each mask's estimate with the law
        # of a separate 2m-query estimate.  Over 4,000 seeded batches on
        # one random 0/1-valued n = 6 table: each mask's mean lies within
        # 4 standard errors of influence_exact (a two-sided 99.99%
        # interval), and its share of deviations >= t is at most the
        # Hoeffding bound 2 exp(-2 m t^2), about 0.16 at m = 20, t = 0.25,
        # as criterion 3 checks for one mask
        n, m, t, runs = 6, 20, 0.25, 4000
        f = FunctionTable(n, np.random.default_rng(21).integers(0, 2, 1 << n).astype(float))
        masks = np.array([0b1, 0b100000, 0b11, 0b101010, 0b111000, 0b111111, 0], dtype=np.int64)
        exact = np.array([influence_exact(f, [i + 1 for i in range(n) if s >> i & 1]) for s in masks])
        estimates = np.empty((runs, len(masks)))
        for seed in range(runs):
            oracle = make_counting_oracle(f)
            estimates[seed] = estimate_inf_mask(oracle, masks, m, np.random.default_rng(seed))
            assert oracle.query_count == m * (len(masks) + 1)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(estimates.mean(axis=0) - exact) <= 4 * se)
        deviation_share = np.mean(np.abs(estimates - exact) >= t, axis=0)
        assert np.all(deviation_share <= 2 * math.exp(-2 * m * t * t))

class TestInfluenceFacts:
    def test_monotone_and_subadditive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = random_table(n, rng)
            S = [i + 1 for i in range(n) if rng.random() < 0.4]
            T = [i + 1 for i in range(n) if rng.random() < 0.4]
            union = sorted(set(S) | set(T))
            inf_s = influence_exact(f, S)
            inf_t = influence_exact(f, T)
            inf_u = influence_exact(f, union)
            assert inf_s <= inf_u + 1e-9
            assert inf_u <= inf_s + inf_t + 1e-9

    def test_complement_influence_is_squared_junta_distance(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            f = random_table(6, rng)
            for j_size in (0, 1, 2):
                J = sorted(rng.choice(6, size=j_size, replace=False) + 1)
                comp = [i for i in range(1, 7) if i not in J]
                d = lp_distance(f, junta_projection(f, J), 2.0)
                assert abs(influence_exact(f, comp) - d ** 2) < 1e-9

    def test_projection_beats_random_juntas(self):
        rng = np.random.default_rng(29)
        f = random_table(6, rng)
        J = (2, 5)
        d_proj = lp_distance(f, junta_projection(f, J), 2.0)
        class_idx = np.zeros(1 << 6, dtype=np.int64)
        for pos, c in enumerate(J):
            class_idx |= ((np.arange(1 << 6) >> (c - 1)) & 1) << pos
        for _ in range(1000):
            core = rng.uniform(0.0, 1.0, 4)
            g = FunctionTable(6, core[class_idx])
            assert d_proj <= lp_distance(f, g, 2.0) + 1e-9

    def test_root_influence_lipschitz_in_l2(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            f = random_table(6, rng)
            g = random_table(6, rng)
            eps = lp_distance(f, g, 2.0)
            for s_mask in range(64):
                coords = [i + 1 for i in range(6) if s_mask & (1 << i)]
                gap = abs(
                    math.sqrt(influence_exact(f, coords))
                    - math.sqrt(influence_exact(g, coords))
                )
                assert gap <= eps + 1e-9


class TestJuntaProjection:
    def test_full_set_identity(self):
        rng = np.random.default_rng(3)
        f = random_table(5, rng)
        assert junta_projection(f, range(1, 6)) == f

    def test_empty_set_constant(self):
        rng = np.random.default_rng(3)
        f = random_table(5, rng)
        proj = junta_projection(f, [])
        assert np.allclose(proj.values, np.mean(f.values))

    def test_half_sum_frozen(self):
        # f = (x1 + x2)/2, J = {1}: averaging over x2 gives x1/2 + 1/4
        vals = [((m >> 0) & 1) / 2 + ((m >> 1) & 1) / 2 for m in range(4)]
        f = FunctionTable(2, vals)
        proj = junta_projection(f, [1])
        expected = [0.25, 0.75, 0.25, 0.75]
        assert np.allclose(proj.values, expected, atol=1e-15)
        assert lp_distance(f, proj, 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(25)
        f = random_table(5, rng)
        for J in ([1], [2, 4], [1, 3, 5]):
            assert np.allclose(
                junta_projection(f, J).values,
                naive_junta_projection(f.values, 5, J),
                atol=1e-12,
            )


class TestClosestJunta:
    def test_exact_junta_recovered(self):
        rng = np.random.default_rng(41)
        core = rng.uniform(0.0, 1.0, 4)
        class_idx = np.zeros(1 << 6, dtype=np.int64)
        for pos, c in enumerate((3, 6)):
            class_idx |= ((np.arange(1 << 6) >> (c - 1)) & 1) << pos
        f = FunctionTable(6, core[class_idx])
        J, dist = closest_junta(f, 2)
        assert dist < 1e-9
        # a random core makes both coordinates influential
        assert J == {3, 6}

    def test_half_sum_tie_break(self):
        vals = [((m >> 0) & 1) / 2 + ((m >> 1) & 1) / 2 for m in range(4)]
        f = FunctionTable(2, vals)
        J, dist = closest_junta(f, 1)
        assert J == frozenset({1})
        assert dist == pytest.approx(0.25, abs=1e-12)

    def test_parity_blend(self):
        from cubetest.valuations import parity_blend_table

        f = parity_blend_table(6)
        J, dist = closest_junta(f, 5)
        assert dist == pytest.approx(0.5, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(43)
        f = random_table(5, rng)
        J, dist = closest_junta(f, 2)
        naive_J, naive_dist = naive_closest_junta(f.values, 5, 2)
        assert dist == pytest.approx(naive_dist, abs=1e-9)
        assert tuple(sorted(J)) == naive_J

    def test_budget(self, monkeypatch):
        rng = np.random.default_rng(2)
        f = random_table(10, rng)
        monkeypatch.setattr(influence, "JUNTA_SET_BUDGET", 10)
        with pytest.raises(BudgetError, match="needs 252 subsets, budget is 10"):
            closest_junta(f, 5)


class TestJuntaWeights:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6, 8])
    def test_weight_is_projection_distance(self, k):
        f = random_table(8, np.random.default_rng(50 + k))
        coefficients, positions, weights = junta_weights(f, k)
        assert np.array_equal(coefficients, walsh_hadamard(f))
        assert positions.shape == (math.comb(8, k), k)
        for i, K in enumerate(itertools.combinations(range(1, 9), k)):
            assert tuple(positions[i] + 1) == K
            proj = junta_projection(f, K)
            assert weights[i] == pytest.approx(np.mean((f.values - proj.values) ** 2), abs=1e-14)

    @pytest.mark.parametrize("k", [2, 5])
    def test_exact_junta_weighs_nothing_outside(self, k):
        core = np.random.default_rng(k).uniform(0.0, 1.0, 1 << k) / 3
        coords = (2, 3, 5, 7, 8)[:k]
        f = lift_core(CoreTable(k, tuple(core)), coords, 9)
        _, positions, weights = junta_weights(f, k)
        best = int(np.argmin(weights))
        assert tuple(positions[best] + 1) == coords
        assert weights[best] < 1e-28

    def test_budget_checked_first(self, monkeypatch):
        f = random_table(10, np.random.default_rng(2))
        monkeypatch.setattr(influence, "JUNTA_SET_BUDGET", 10)
        with pytest.raises(BudgetError):
            junta_weights(f, 5)
        with pytest.raises(ValueError, match="exceeds dimension"):
            junta_weights(f, 11)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_projection_cores(self, k):
        f = random_table(7, np.random.default_rng(60 + k))
        coefficients, positions, _ = junta_weights(f, k)
        got = projection_cores(coefficients, positions)
        for row, K in zip(got, itertools.combinations(range(1, 8), k)):
            expected = core_of_junta(junta_projection(f, K), K).values
            assert np.allclose(row, expected, rtol=0.0, atol=1e-14)

