"""Coalition adversaries and sweep statistics.

Simulates the k-account membership-inference games (pooled mean, Bayes
likelihood ratio, diversified multi-target split, top-K hit counting),
computes Mann-Whitney AUC with DeLong standard errors, and runs the
falsification gates over sweep grids.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from . import accounting, defaults
from .encoding import hash_fields

__all__ = [
    "CoalitionConfig",
    "SweepResult",
    "GateReport",
    "run_sweep",
    "mann_whitney_auc",
    "delong_se",
    "check_gates",
    "external_vs_same",
    "cell_seed",
]

ADVERSARIES = ("pooled_mean", "bayes_lr", "diversified", "topk_hit")
REGIMES = ("same_tenant", "external_m4")

SCALAR_GRID = [(k, e) for e in (1.0, 2.0, 4.0) for k in (1, 2, 5, 10, 20)]
TOPK_GRID = [(k, e) for e in (4.0, 8.0, 16.0) for k in (1, 2, 5, 10, 20)]

# Trapezoid rule over the planted slot's standard-normal noise z for the
# exact top-K hit probability: nodes 0.2*i for i = -45..45. The weight
# beyond |z| = 9 is below 1e-18 and the integrand varies on the unit scale
# in z whatever sigma is, so the rule is accurate to about 1e-12.
_Z_NODES = 0.2 * np.arange(-45, 46)
_Z_WEIGHTS = 0.2 * np.exp(-0.5 * _Z_NODES**2) / math.sqrt(2.0 * math.pi)
_TOPK_BLOCK = 256  # trials per block of the hit-probability DP (bounds its memory)
_TOPK_DIM = 32  # dimension of the simulated top-K documents and probe


@dataclass(frozen=True)
class CoalitionConfig:
    k: int
    n_per_account: int
    regime: str = "same_tenant"
    adversary: str = "pooled_mean"
    rho: float | None = None  # diversified only
    K: int = 5
    n_background: int = 50

    def __post_init__(self):
        if self.k < 1 or self.n_per_account < 1:
            raise ValueError("k and n_per_account must be >= 1")
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.adversary == "diversified":
            if self.rho is None or not 0.0 < self.rho <= 1.0:
                raise ValueError("diversified adversary needs rho in (0, 1]")
        if self.adversary == "topk_hit" and not 1 <= self.K <= self.n_background:
            raise ValueError("topk_hit needs 1 <= K <= n_background")

    @property
    def n_target_accounts(self) -> int:
        if self.adversary == "diversified":
            return math.ceil(self.rho * self.k)
        return self.k


@dataclass
class SweepResult:
    grid: list
    auc: dict
    delong_se: dict
    trials: int
    mode: str
    adversary: str
    predicted: dict = field(default_factory=dict)
    # (k, eps) -> (in_stats, out_stats), each cell's paired trial statistics
    stats: dict = field(default_factory=dict)


@dataclass
class GateReport:
    p1_slope: float
    p1_tstat: float
    p1_pass: bool
    p3_pass_count: int
    p3_total: int
    p3_max_dev_se: float
    p2_collapse_rms: float  # diagnostic only, never gates the report
    growth_factor: float


def cell_seed(master_seed: int, k: int, eps_acc: float, mode: str, regime: str = "same_tenant") -> int:
    """Stable per-cell seed so every cell is independently reproducible.

    Deliberately excludes the adversary so that monotone-transform
    adversaries (bayes_lr vs pooled_mean) see identical draws.
    """
    digest = hash_fields("cell", master_seed, k, float(eps_acc), mode, regime)
    return int.from_bytes(digest[:8], "big")


def _bayes_llr(pooled_mean, m_draws: int, mu0: float, mu1: float, sigma: float):
    """Exact Gaussian log-likelihood ratio of a pooled sample; a strictly
    monotone transform of the pooled mean."""
    return m_draws * (mu0 - mu1) * (pooled_mean - 0.5 * (mu0 + mu1)) / sigma**2


def _topk_hits(rng, config: CoalitionConfig, planted_score: float, bg_scores, sigma: float) -> int:
    """Pooled count of queries whose planted slot survives top-K selection."""
    kn = config.k * config.n_per_account
    noise = rng.standard_normal((kn, config.n_background + 1), dtype=np.float32)
    noisy_bg = noise[:, :-1] * np.float32(sigma)
    noisy_bg += np.asarray(bg_scores, dtype=np.float32)
    noisy_p = planted_score + noise[:, -1] * np.float32(sigma)
    # the planted slot beats the K-th largest background score iff fewer
    # than K background scores are >= it
    beaten_by = np.count_nonzero(noisy_bg >= noisy_p[:, None], axis=1)
    return int(np.count_nonzero(beaten_by < config.K))


def _topk_hit_prob(bg, planted, sigma: float, K: int):
    """Probability that a planted slot survives noisy top-K selection.

    ``bg`` is (T, n_bg) background scores and ``planted`` a sequence of B
    planted scores; returns (T, B). Every score gets independent N(0,
    sigma^2) noise. Given the noise sigma*z on a planted score s,
    background j is at or above the planted slot with probability
    q_j = Phi((bg_j - s)/sigma - z), independently over j, and the slot
    survives iff at most K - 1 of them are: a Poisson-binomial CDF,
    computed by a K-wide DP over j and integrated over z on the fixed
    trapezoid nodes.
    """
    bg = np.asarray(bg, dtype=np.float64)
    planted = np.asarray(planted, dtype=np.float64)
    offset = planted[:, None] / sigma + _Z_NODES  # (B, nodes)
    # pmf[c]: probability that c of the backgrounds so far are at or above
    # the planted slot, for c < K (mass beyond K - 1 is dropped)
    pmf = np.zeros((K, bg.shape[0]) + offset.shape)
    pmf[0] = 1.0
    for j in range(bg.shape[1]):
        q = ndtr(bg[:, j, None, None] / sigma - offset)  # (T, B, nodes)
        carry = pmf[:-1] * q
        pmf *= 1.0 - q
        pmf[1:] += carry
    return np.clip(pmf.sum(axis=0) @ _Z_WEIGHTS, 0.0, 1.0)


def _simulate_scalar_cell(rng, config, sigma: float, trials: int, mode: str):
    """Vectorized paired-trial statistics for the scalar adversaries at
    delta_gap = 1 (mu0 = 1, mu1 = 0)."""
    # a diversified coalition pools only its ceil(rho*k) accounts that probe
    # q*; the rest spend their budget on directions that carry no signal
    m = config.n_target_accounts * config.n_per_account
    if mode == "sufficient_stat":
        s_in = rng.normal(1.0, sigma / math.sqrt(m), trials)
        s_out = rng.normal(0.0, sigma / math.sqrt(m), trials)
    else:
        # simulate the individual per-query releases, then pool
        s_in = np.empty(trials)
        s_out = np.empty(trials)
        for t in range(trials):
            s_in[t] = rng.normal(1.0, sigma, m).mean()
            s_out[t] = rng.normal(0.0, sigma, m).mean()
    if config.adversary == "bayes_lr":
        s_in = _bayes_llr(s_in, m, 1.0, 0.0, sigma)
        s_out = _bayes_llr(s_out, m, 1.0, 0.0, sigma)
    return s_in, s_out


def _background_scores(rng, shape, d: int):
    """Scores <q*, x_j> of uniform-sphere documents x_j: the first
    coordinate of a normalized Gaussian (rotation invariance)."""
    z = rng.standard_normal((*shape, d))
    return z[..., 0] / np.linalg.norm(z, axis=-1)


def _simulate_topk_cell(rng, config, sigma: float, trials: int):
    """Paired top-K hit counts with a fresh background per trial."""
    s_in = np.empty(trials)
    s_out = np.empty(trials)
    for t in range(trials):
        bg = _background_scores(rng, (config.n_background,), _TOPK_DIM)
        s_in[t] = _topk_hits(rng, config, 1.0, bg, sigma)
        s_out[t] = _topk_hits(rng, config, 0.0, bg, sigma)
    return s_in, s_out


def _exact_topk_cell(rng, config, sigma: float, trials: int):
    """Paired top-K hit counts drawn from their exact law: given a trial's
    background, each of the kn queries hits independently with the same
    probability p_b, so the pooled count is Binomial(kn, p_b). All
    backgrounds are drawn before all counts, so the draws do not depend
    on the block size."""
    p = np.empty((trials, 2))
    for lo in range(0, trials, _TOPK_BLOCK):
        bg = _background_scores(rng, (min(_TOPK_BLOCK, trials - lo), config.n_background),
                                _TOPK_DIM)
        p[lo:lo + len(bg)] = _topk_hit_prob(bg, (1.0, 0.0), sigma, config.K)
    counts = rng.binomial(config.k * config.n_per_account, p).astype(float)
    return counts[:, 0], counts[:, 1]


def run_sweep(
    grid,
    config: CoalitionConfig,
    trials: int,
    mode: str,
    master_seed: int = 0,
) -> SweepResult:
    """T paired trials per (k, eps_acc) cell, with sigma calibrated and
    the pooled-mean AUC predicted under ``defaults.POLICY_TEMPLATE``.

    ``sufficient_stat`` draws each trial's statistic from its exact law:
    the pooled mean from N(mu_b, sigma^2/(kn)) for pooled_mean / bayes_lr /
    diversified, and for topk_hit the hit count from Binomial(kn, p_b),
    with p_b computed from a fresh background (see ``_topk_hit_prob``).
    ``full_sim`` simulates every release and is the reference.

    Cells are simulated on worker threads, one per CPU. Each cell draws
    from its own generator seeded by ``cell_seed``, so no result depends
    on the thread count or the schedule. Everything else (sigma, seeds,
    AUC, standard errors, predictions) runs on the calling thread, and
    results are stored in grid order.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if mode not in ("full_sim", "sufficient_stat"):
        raise ValueError(f"unknown mode {mode!r}")
    delta_acc = defaults.DELTA_ACC
    result = SweepResult(
        grid=list(grid), auc={}, delong_se={}, trials=trials, mode=mode,
        adversary=config.adversary,
    )
    if config.adversary != "topk_hit":
        def simulate(rng, cfg, sigma, trials):
            return _simulate_scalar_cell(rng, cfg, sigma, trials, mode)
    elif mode == "sufficient_stat":
        simulate = _exact_topk_cell
    else:
        simulate = _simulate_topk_cell
    # the cells' numpy/scipy loops release the GIL, so threads overlap them;
    # results are read once the pool has joined, so this thread waits once
    workers = min(os.cpu_count() or 1, max(len(result.grid), 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        cells = []
        for k, eps in result.grid:
            cfg = replace(config, k=k)
            sigma = accounting.calibrate_sigma(eps, delta_acc, cfg.n_per_account)
            rng = np.random.default_rng(cell_seed(master_seed, k, eps, mode, cfg.regime))
            cells.append((k, eps, cfg, pool.submit(simulate, rng, cfg, sigma, trials)))
    for k, eps, cfg, cell in cells:
        s_in, s_out = cell.result()
        key = (k, eps)
        result.auc[key] = mann_whitney_auc(s_in, s_out)
        result.delong_se[key] = delong_se(s_in, s_out)
        if config.adversary in ("pooled_mean", "bayes_lr"):
            policy = accounting.PolicyParams.calibrated(
                eps_acc=eps, n_queries=cfg.n_per_account, **defaults.POLICY_TEMPLATE)
            result.predicted[key] = accounting.auc_prediction(policy, k)
        result.stats[key] = (s_in, s_out)
    return result


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``, each run of tied values sharing the mean of
    its positions (scipy.stats.rankdata's default); every rank is NaN when
    any value is. Midranks are half-integers, so they are exact."""
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    if a.size and np.isnan(ranked[-1]):  # NaN sorts last
        return np.full(a.size, np.nan)
    # 0-based start of each run of equal values and its length
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    counts = np.diff(np.r_[starts, a.size])
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    return ranks


def mann_whitney_auc(in_stats, out_stats) -> float:
    """Pr[in > out] + 1/2 Pr[in = out] over all pairs, via midranks."""
    x = np.asarray(in_stats, dtype=np.float64)
    y = np.asarray(out_stats, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sample")
    ranks = _midranks(np.concatenate([x, y]))
    return float((ranks[: x.size].sum() - x.size * (x.size + 1) / 2.0) / (x.size * y.size))


def delong_se(in_stats, out_stats) -> float:
    """DeLong standard error sqrt(S10/m + S01/n) from placement values."""
    x = np.asarray(in_stats, dtype=np.float64)
    y = np.asarray(out_stats, dtype=np.float64)
    m, n = x.size, y.size
    if m < 2 or n < 2:
        raise ValueError("need at least 2 observations per sample")
    all_ranks = _midranks(np.concatenate([x, y]))
    v10 = (all_ranks[:m] - _midranks(x)) / n          # placements of members
    v01 = 1.0 - (all_ranks[m:] - _midranks(y)) / m    # placements of non-members
    s10 = np.var(v10, ddof=1)
    s01 = np.var(v01, ddof=1)
    return float(math.sqrt(s10 / m + s01 / n))


def check_gates(sweep: SweepResult) -> GateReport:
    """Falsification gates over a sweep.

    P1: positive advantage-vs-sqrt(k) slope (t > 2) on the highest-eps row.
    P3: per-cell agreement with the closed-form prediction within 2 DeLong
    standard errors, counted against the binomial 95% expectation.
    P2 (scaling collapse) is reported as a diagnostic RMS only.
    """
    eps_max = max(e for _, e in sweep.grid)
    row = sorted((k, auc) for (k, e), auc in sweep.auc.items() if e == eps_max)
    if len(row) < 3:
        raise ValueError("gates need >= 3 values of k on the highest-eps row")
    xs = np.sqrt([k for k, _ in row])
    adv = np.array([2.0 * (a - 0.5) for _, a in row])
    # OLS slope with intercept, t-stat from residual variance
    X = np.column_stack([np.ones_like(xs), xs])
    beta, res, *_ = np.linalg.lstsq(X, adv, rcond=None)
    slope = float(beta[1])
    dof = len(row) - 2
    rss = float(np.sum((adv - X @ beta) ** 2))
    var_slope = (rss / max(dof, 1)) / float(np.sum((xs - xs.mean()) ** 2))
    tstat = slope / math.sqrt(var_slope) if var_slope > 0 else math.inf
    # P3
    devs = []
    for key in sweep.auc:
        if key in sweep.predicted and sweep.delong_se[key] > 0:
            devs.append(abs(sweep.auc[key] - sweep.predicted[key]) / sweep.delong_se[key])
    p3_total = len(devs)
    p3_pass = sum(1 for dv in devs if dv <= 2.0)
    # P2 diagnostic: spread of advantage around a single curve in sqrt(k)*eps
    pairs = sorted(sweep.auc)
    u = np.array([math.sqrt(k) * e for k, e in pairs])
    a = np.array([2.0 * (sweep.auc[p] - 0.5) for p in pairs])
    coef = np.polyfit(u, a, 2)
    p2_rms = float(np.sqrt(np.mean((a - np.polyval(coef, u)) ** 2)))
    growth = math.nan
    if (1, eps_max) in sweep.auc and (20, eps_max) in sweep.auc:
        a1 = 2.0 * (sweep.auc[(1, eps_max)] - 0.5)
        a20 = 2.0 * (sweep.auc[(20, eps_max)] - 0.5)
        growth = a20 / a1 if a1 > 0 else math.inf
    return GateReport(
        p1_slope=slope,
        p1_tstat=float(tstat),
        p1_pass=slope > 0 and tstat > 2.0,
        p3_pass_count=p3_pass,
        p3_total=p3_total,
        p3_max_dev_se=max(devs) if devs else 0.0,
        p2_collapse_rms=p2_rms,
        growth_factor=growth,
    )


def external_vs_same(grid, T: int, master_seed: int, config: CoalitionConfig) -> list:
    """Run the ``full_sim`` sweep once per regime at k = 1. The regime
    enters only ``cell_seed``, so the two arms are two draws from one law
    and any AUC gap is sampling noise: a null check of the sweep, not a
    model of external attackers.

    Returns one row per cell:
    (k, eps, auc_same, se_same, auc_ext, se_ext, delta_auc, combined_se).
    """
    rows = []
    for regime in ("same_tenant", "external_m4"):
        res = run_sweep(grid, replace(config, k=1, regime=regime), T, "full_sim", master_seed)
        if regime == "same_tenant":
            same = res
        else:
            ext = res
    for key in sorted(same.auc):
        d_auc = ext.auc[key] - same.auc[key]
        comb = math.sqrt(same.delong_se[key] ** 2 + ext.delong_se[key] ** 2)
        rows.append((*key, same.auc[key], same.delong_se[key],
                     ext.auc[key], ext.delong_se[key], d_auc, comb))
    return rows
