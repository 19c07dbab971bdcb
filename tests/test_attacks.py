import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import ks_2samp, norm, rankdata

from collusion_audit import accounting, attacks, defaults
from collusion_audit.attacks import CoalitionConfig, SweepResult

# master seed of the full_sim vs sufficient_stat equivalence runs
MODE_EQUIVALENCE_SEED = 1


def calibrated_policy(eps, n):
    return accounting.PolicyParams.calibrated(
        eps_acc=eps, delta_acc=1e-6, n_queries=n, k_max=100, delta_policy=1e-3
    )


class TestMannWhitneyAuc:
    def test_all_ties(self):
        assert attacks.mann_whitney_auc([1.0] * 5, [1.0] * 7) == 0.5

    def test_perfect_separation(self):
        assert attacks.mann_whitney_auc([1, 2], [0]) == 1.0

    def test_midrank_oracle(self):
        # brute force over the 6 pairs: (0<1)x2, (1=1)x2 half, (2>1)x2
        assert attacks.mann_whitney_auc([0, 1, 2], [1, 1]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attacks.mann_whitney_auc([], [1.0])

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(0.3, 1, 50), rng.normal(0, 1, 60)
        a = attacks.mann_whitney_auc(x, y)
        assert attacks.mann_whitney_auc(y, x) == pytest.approx(1 - a, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 5, 20).astype(float)
        y = rng.integers(0, 5, 15).astype(float)
        brute = np.mean([(xi > yi) + 0.5 * (xi == yi) for xi in x for yi in y])
        assert attacks.mann_whitney_auc(x, y) == pytest.approx(brute, abs=1e-12)

    @settings(max_examples=25)
    @given(st.lists(st.floats(-50, 50).map(lambda v: round(v, 6)),
                    min_size=2, max_size=30),
           st.lists(st.floats(-50, 50).map(lambda v: round(v, 6)),
                    min_size=2, max_size=30))
    def test_monotone_transform_invariance(self, x, y):
        a = attacks.mann_whitney_auc(x, y)
        ax = attacks.mann_whitney_auc(np.exp(np.array(x) / 50), np.exp(np.array(y) / 50))
        af = attacks.mann_whitney_auc(3 * np.array(x) + 2, 3 * np.array(y) + 2)
        assert a == pytest.approx(ax, abs=1e-9)
        assert a == pytest.approx(af, abs=1e-9)
        assert 0.0 <= a <= 1.0


class TestDelongSe:
    def test_perfect_separation_zero(self):
        assert attacks.delong_se([2, 3, 4], [0, 1]) == 0.0

    def test_iid_normal_magnitude(self):
        rng = np.random.default_rng(7)
        se = attacks.delong_se(rng.normal(0, 1, 10_000), rng.normal(0, 1, 10_000))
        assert se == pytest.approx(0.004, abs=0.0008)

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            attacks.delong_se([1.0], [0.0, 1.0])

    def test_bootstrap_agreement(self):
        rng = np.random.default_rng(11)
        m = n = 400
        x = np.where(rng.random(m) < 0.3, rng.normal(1.2, 1, m), rng.normal(0, 1, m))
        y = rng.normal(0, 1, n)
        se = attacks.delong_se(x, y)
        boots = []
        for _ in range(1000):
            bx = x[rng.integers(0, m, m)]
            by = y[rng.integers(0, n, n)]
            boots.append(attacks.mann_whitney_auc(bx, by))
        bse = float(np.std(boots, ddof=1))
        assert abs(se - bse) / bse <= 0.15


def rankdata_auc(x, y):
    """mann_whitney_auc as written on scipy.stats.rankdata."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    ranks = rankdata(np.concatenate([x, y]))
    return float((ranks[: x.size].sum() - x.size * (x.size + 1) / 2.0) / (x.size * y.size))


def rankdata_delong_se(x, y):
    """delong_se as written on scipy.stats.rankdata."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    m, n = x.size, y.size
    all_ranks = rankdata(np.concatenate([x, y]))
    v10 = (all_ranks[:m] - rankdata(x)) / n
    v01 = 1.0 - (all_ranks[m:] - rankdata(y)) / m
    return float(math.sqrt(np.var(v10, ddof=1) / m + np.var(v01, ddof=1) / n))


# few distinct values, so ties are common, with both zeros, both infinities and NaN
tied_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, math.inf, -math.inf,
                               math.nan]) | st.floats(-3, 3, allow_nan=False)


def same_bits(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestMidranks:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(tied_floats, max_size=40))
    def test_matches_scipy_rankdata(self, values):
        a = np.array(values, dtype=np.float64)
        assert np.array_equal(attacks._midranks(a), rankdata(a), equal_nan=True)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(tied_floats, min_size=2, max_size=30),
           st.lists(tied_floats, min_size=2, max_size=30))
    def test_auc_and_se_keep_their_bits(self, x, y):
        assert same_bits(attacks.mann_whitney_auc(x, y), rankdata_auc(x, y))
        with np.errstate(invalid="ignore"):
            assert same_bits(attacks.delong_se(x, y), rankdata_delong_se(x, y))


class TestCoalitionConfig:
    @pytest.mark.parametrize("K, n_background", [(0, 50), (-1, 50), (51, 50), (1, 0)])
    def test_topk_K_outside_background_rejected(self, K, n_background):
        with pytest.raises(ValueError, match="1 <= K <= n_background"):
            CoalitionConfig(k=1, n_per_account=5, adversary="topk_hit", K=K,
                            n_background=n_background)

    def test_topk_K_range_ends_accepted(self):
        for K in (1, 50):
            CoalitionConfig(k=1, n_per_account=5, adversary="topk_hit", K=K, n_background=50)

    def test_diversified_rho_validation(self):
        with pytest.raises(ValueError):
            CoalitionConfig(k=2, n_per_account=5, adversary="diversified")
        with pytest.raises(ValueError):
            CoalitionConfig(k=2, n_per_account=5, adversary="diversified", rho=1.5)


class TestRunSweep:
    def test_bayes_lr_equals_pooled_mean_exactly(self):
        grid = [(k, 4.0) for k in (1, 2, 5, 10, 20)]
        kw = dict(n_per_account=1000)
        pooled = attacks.run_sweep(grid, CoalitionConfig(k=1, adversary="pooled_mean", **kw),
                                   500, "sufficient_stat", 5)
        bayes = attacks.run_sweep(grid, CoalitionConfig(k=1, adversary="bayes_lr", **kw),
                                  500, "sufficient_stat", 5)
        for key in pooled.auc:
            assert abs(pooled.auc[key] - bayes.auc[key]) <= 1e-4

    def test_full_sim_topk_statistics_pinned(self):
        # per-trial hit counts of a small full_sim sweep, as first recorded
        cfg = CoalitionConfig(k=1, n_per_account=20, adversary="topk_hit")
        res = attacks.run_sweep([(1, 16.0), (5, 4.0)], cfg, 20, "full_sim", 3)
        h = hashlib.sha256()
        for key in sorted(res.stats):
            for stats in res.stats[key]:
                h.update(np.asarray(stats, dtype=np.float64).tobytes())
        assert h.hexdigest() == (
            "5055449de1f53cf832afb4ac24d02f179312ed5975b52ff65d1177ee07fa53fa")

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            attacks.run_sweep([(1, 4.0)], CoalitionConfig(k=1, n_per_account=10),
                              1, "sufficient_stat", 0)

    def test_mode_equivalence_small_cell(self):
        cfg = CoalitionConfig(k=5, n_per_account=100)
        full = attacks.run_sweep([(5, 4.0)], cfg, 2000,
                                 "full_sim", MODE_EQUIVALENCE_SEED)
        suff = attacks.run_sweep([(5, 4.0)], cfg, 2000,
                                 "sufficient_stat",
                                 MODE_EQUIVALENCE_SEED + 1)
        key = (5, 4.0)
        comb = math.sqrt(full.delong_se[key] ** 2 + suff.delong_se[key] ** 2)
        assert abs(full.auc[key] - suff.auc[key]) <= 2 * comb
        # pooled-mean statistics come from the same distribution
        _, p = ks_2samp(full.stats[key][0], suff.stats[key][0])
        assert p > 0.01

    def test_cells_independently_reproducible(self):
        cfg = CoalitionConfig(k=1, n_per_account=100)
        a = attacks.run_sweep([(2, 1.0)], cfg, 100, "sufficient_stat", 3)
        b = attacks.run_sweep([(2, 1.0), (5, 1.0)], cfg, 100, "sufficient_stat", 3)
        assert a.auc[(2, 1.0)] == b.auc[(2, 1.0)]


POOL_GRID = [(1, 4.0), (2, 4.0), (5, 8.0), (3, 16.0), (20, 16.0)]


@pytest.mark.parametrize("adversary, mode", [
    (adversary, mode) for adversary in attacks.ADVERSARIES
    for mode in ("full_sim", "sufficient_stat")])
def test_pooled_sweep_equals_one_cell_sweeps(adversary, mode, monkeypatch):
    # more worker threads than cores: no draw depends on the schedule
    cfg = CoalitionConfig(k=1, n_per_account=8, adversary=adversary,
                          rho=0.5 if adversary == "diversified" else None)
    monkeypatch.setattr(attacks.os, "cpu_count", lambda: 8)
    pooled = attacks.run_sweep(POOL_GRID, cfg, 30, mode, 4)
    assert list(pooled.auc) == POOL_GRID
    for cell in POOL_GRID:
        one = attacks.run_sweep([cell], cfg, 30, mode, 4)
        for a, b in zip(pooled.stats[cell], one.stats[cell]):
            assert np.array_equal(a, b)
        assert pooled.auc[cell] == one.auc[cell]
        assert pooled.delong_se[cell] == one.delong_se[cell]
        assert pooled.predicted.get(cell) == one.predicted.get(cell)


def test_empty_grid_gives_empty_sweep():
    res = attacks.run_sweep([], CoalitionConfig(k=1, n_per_account=10),
                            10, "sufficient_stat", 0)
    assert res.grid == [] and res.auc == {} and res.stats == {}


def quad_hit_prob(bg, planted, sigma, K):
    """Reference for attacks._topk_hit_prob: adaptive quadrature over the
    planted noise of the Poisson-binomial CDF, the pmf built by
    polynomial convolution."""
    def integrand(z):
        pmf = np.array([1.0])
        for q in ndtr((bg - planted) / sigma - z):
            pmf = np.convolve(pmf, [1.0 - q, q])
        return norm.pdf(z) * pmf[:K].sum()
    return quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


class TestExactTopk:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 28.9, 115.6])
    @pytest.mark.parametrize("K, n_background", [(1, 3), (3, 3), (1, 50), (5, 50)])
    def test_hit_prob_matches_quadrature(self, sigma, K, n_background):
        rng = np.random.default_rng(n_background * 10 + K)
        bg = attacks._background_scores(rng, (2, n_background), 32)
        got = attacks._topk_hit_prob(bg, (1.0, 0.0), sigma, K)
        assert got.shape == (2, 2)
        for t in range(2):
            for b, planted in enumerate((1.0, 0.0)):
                assert got[t, b] == pytest.approx(
                    quad_hit_prob(bg[t], planted, sigma, K), abs=1e-9)

    def test_hit_prob_matches_monte_carlo(self):
        # two million simulated queries through the full_sim hit counter
        rng = np.random.default_rng(5)
        bg = attacks._background_scores(rng, (10,), 32)
        cfg = CoalitionConfig(k=1, n_per_account=200_000, adversary="topk_hit", K=3,
                              n_background=10)
        hits = sum(attacks._topk_hits(rng, cfg, 1.0, bg, 1.0) for _ in range(10))
        p = attacks._topk_hit_prob(bg[None, :], (1.0,), 1.0, 3)[0, 0]
        n = 10 * cfg.n_per_account
        assert 0.1 < p < 0.9
        assert abs(hits / n - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_counts_are_integers_in_range(self):
        cfg = CoalitionConfig(k=2, n_per_account=30, adversary="topk_hit")
        res = attacks.run_sweep([(2, 16.0), (5, 4.0)], cfg, 300, "sufficient_stat", 0)
        for (k, _), stats in res.stats.items():
            for s in stats:
                assert np.all(s == np.round(s))
                assert np.all((0 <= s) & (s <= k * cfg.n_per_account))
            assert stats[0].mean() > stats[1].mean()

    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_draws_do_not_depend_on_block_size(self, block, monkeypatch):
        cfg = CoalitionConfig(k=1, n_per_account=50, adversary="topk_hit")

        def sweep():
            return attacks.run_sweep([(5, 8.0)], cfg, 40,
                                     "sufficient_stat", 2).stats[(5, 8.0)]

        reference = sweep()
        monkeypatch.setattr(attacks, "_TOPK_BLOCK", block)
        for a, b in zip(sweep(), reference):
            assert np.array_equal(a, b)


class TestGates:
    def _synthetic(self, aucs, ses=0.004, predicted=None):
        grid = sorted(aucs)
        res = SweepResult(grid=grid, auc=dict(aucs), delong_se={g: ses for g in grid},
                          trials=1000, mode="sufficient_stat", adversary="pooled_mean")
        if predicted:
            res.predicted = dict(predicted)
        return res

    def test_flat_sweep_fails_p1(self):
        aucs = {(k, 4.0): 0.5 for k in (1, 2, 5, 10, 20)}
        rep = attacks.check_gates(self._synthetic(aucs))
        assert not rep.p1_pass

    def test_needs_three_k(self):
        with pytest.raises(ValueError):
            attacks.check_gates(self._synthetic({(1, 4.0): 0.5, (2, 4.0): 0.5}))

    def test_needs_three_k_on_the_highest_eps_row(self):
        # three values of k over the grid, but P1 fits only the eps=4 row:
        # a line through its two noise points has no residual and so an
        # unbounded t-stat
        aucs = {(1, 1.0): 0.5, (2, 1.0): 0.5, (5, 1.0): 0.5,
                (1, 4.0): 0.500, (2, 4.0): 0.501}
        with pytest.raises(ValueError, match="highest-eps row"):
            attacks.check_gates(self._synthetic(aucs))

    def test_synthetic_null_passes_p3(self):
        # sweep drawn from the closed form plus N(0, se^2) jitter
        rng = np.random.default_rng(0)
        se = 0.004
        aucs, preds = {}, {}
        for k in (1, 2, 5, 10, 20):
            for eps in (1.0, 2.0, 4.0):
                p = calibrated_policy(eps, 10_000)
                mu = accounting.auc_prediction(p, k)
                preds[(k, eps)] = mu
                aucs[(k, eps)] = mu + rng.normal(0, se)
        rep = attacks.check_gates(self._synthetic(aucs, se, preds))
        assert rep.p3_pass_count >= 13
        assert rep.p1_pass

    def test_real_sweep_gates(self):
        cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N)
        res = attacks.run_sweep(attacks.SCALAR_GRID, cfg, 2000, "sufficient_stat",
                                defaults.EXPERIMENT_SEEDS["scalar_sweep"])
        rep = attacks.check_gates(res)
        assert rep.p1_pass
        assert rep.p3_total == 15


class TestExternalVsSame:
    def test_k1_arms_agree(self):
        cfg = CoalitionConfig(k=1, n_per_account=100, adversary="topk_hit")
        rows = attacks.external_vs_same([(1, 16.0)], 400, 1, cfg)
        (k, e, a_s, se_s, a_e, se_e, d, comb) = rows[0]
        assert k == 1
        assert abs(d) <= 3 * comb
