"""Query-correlation coalition-size estimator and its calibration.

Clusters ledger queries by cosine proximity (connected components of the
theta-threshold graph; identical-query hash collisions are cosine-1 edges
and need no special casing), reports the largest multi-account cluster as
the coalition estimate, and calibrates the threshold on a synthetic
account population against three collusion patterns:

  P-A  identical probe q* from every colluding account
  P-B  jittered probes normalize(q* + zeta * eta)
  P-C  probes drawn iid from a small set of fixed paraphrase intents

Calibration exploits the structure of the patterns for speed: detection
at threshold theta is equivalent to the maximum cross-account cosine
reaching theta, and the colluder block's internal connectivity follows
from an angle bound, so the full quadratic clustering only runs on the
rare trials where a null account actually attaches. A property test
checks these fast paths against the generic estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .harness import random_unit_vectors

__all__ = [
    "EstimatorParams",
    "CalibrationReport",
    "CoalitionEstimate",
    "estimate",
    "calibrate",
    "DEFAULT_THETA_GRID",
    "PATTERNS",
]

PATTERNS = ("P-A", "P-B", "P-C")
DEFAULT_THETA_GRID = tuple(np.round(np.linspace(0.20, 0.95, 16), 10))
DEFAULT_K_TRUE = (2, 5, 10, 20)
_COS_TOL = 1e-12


@dataclass(frozen=True)
class EstimatorParams:
    theta: float
    window_tau: int | None = None  # pairwise logical-time gap, None = whole window

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")


@dataclass(frozen=True)
class CoalitionEstimate:
    largest_cluster_accounts: int


@dataclass
class CalibrationReport:
    theta_grid: list
    null_fpr: dict                 # theta -> FPR
    khat_by_pattern: dict          # (pattern, k_true, theta) -> mean k_hat
    operating_theta: float
    tpr: dict = field(default_factory=dict)         # (pattern, k_true) -> TPR at theta*
    khat_exact_rate: dict = field(default_factory=dict)  # fraction of trials k_hat == k_true


def _component_account_counts(accounts, adj: np.ndarray) -> list:
    n_comp, labels = connected_components(csr_matrix(adj), directed=False)
    counts = []
    accounts = np.asarray(accounts)
    for c in range(n_comp):
        counts.append(len(set(accounts[labels == c])))
    return counts


def estimate(queries, params: EstimatorParams) -> CoalitionEstimate:
    """Generic estimator: queries are (account_id, embedding, timestamp).

    Embeddings more than 1e-6 from unit norm are normalised (the others
    are used as given), a zero or non-finite embedding has no edges, and
    embeddings of different dimension are never linked: each dimension is
    clustered on its own and the largest cluster over all of them counts.
    """
    groups = {}
    for account, vector, timestamp in queries:
        vector = np.asarray(vector, dtype=np.float64)
        accounts, rows, times = groups.setdefault(vector.shape, ([], [], []))
        accounts.append(account)
        rows.append(vector)
        times.append(timestamp)
    largest = 1
    for accounts, rows, times in groups.values():
        Q = np.asarray(rows)
        norms = np.linalg.norm(Q, axis=1)
        usable = np.isfinite(norms) & (norms > 0)
        off = usable & (np.abs(norms - 1.0) > 1e-6)
        Q[off] /= norms[off, None]
        adj = (Q @ Q.T) >= params.theta - _COS_TOL
        adj[~usable] = False
        adj[:, ~usable] = False
        if params.window_tau is not None:
            ts = np.asarray(times, dtype=np.int64)
            adj &= np.abs(ts[:, None] - ts[None, :]) <= params.window_tau
        np.fill_diagonal(adj, False)
        largest = max(largest, *_component_account_counts(accounts, adj))
    return CoalitionEstimate(largest)


# --- calibration ----------------------------------------------------------

def _cross_account_gram(Q: np.ndarray, n_per_account: int) -> np.ndarray:
    """Gram matrix of queries laid out in contiguous per-account blocks,
    each account's own block set to -2 (below any cosine)."""
    G = Q @ Q.T
    for a in range(len(Q) // n_per_account):
        lo = a * n_per_account
        G[lo:lo + n_per_account, lo:lo + n_per_account] = -2.0
    return G


def _max_cross_account_cos(Q: np.ndarray, n_per_account: int) -> float:
    """Max cosine over pairs of queries from distinct accounts."""
    return float(_cross_account_gram(Q, n_per_account).max())


def _cross_account_pairs(Q: np.ndarray, n_per_account: int, theta: float):
    """(i, j) query pairs from distinct accounts with cosine >= theta."""
    G = _cross_account_gram(Q, n_per_account)
    ii, jj = np.nonzero(np.triu(G >= theta - _COS_TOL, 1))
    return list(zip(ii.tolist(), jj.tolist()))


def _spurious_component_max(pairs, n_per_account: int) -> int:
    """Largest distinct-account count over components formed by the given
    cross-account edges (0 when there are no edges)."""
    if not pairs:
        return 0
    nodes = sorted({i for p in pairs for i in p})
    idx = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for i, j in pairs:
        adj[idx[i], idx[j]] = adj[idx[j], idx[i]] = True
    accounts = [v // n_per_account for v in nodes]
    return max(_component_account_counts(accounts, adj))


def _colluder_queries(rng, pattern: str, k: int, n: int, d: int,
                      jitter: float, intent_set: int):
    """Colluder query block plus the anchor directions that characterize
    it (used for the cheap attachment test)."""
    qstar = random_unit_vectors(rng, 1, d)[0]
    if pattern == "P-A":
        return np.tile(qstar, (k * n, 1)), qstar[None, :]
    if pattern == "P-C":
        intents = random_unit_vectors(rng, intent_set, d)
        choices = rng.integers(0, intent_set, size=k * n)
        return intents[choices], intents
    if pattern == "P-B":
        eta = random_unit_vectors(rng, k * n, d)
        q = qstar[None, :] + jitter * eta
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return q, q
    raise ValueError(pattern)


def _colluders_connected(Q_col: np.ndarray, pattern: str, k: int, n: int,
                         theta: float) -> bool:
    """Exact-but-cheap connectivity check for the colluder block."""
    if pattern == "P-A":
        return True
    if pattern == "P-C":
        # accounts are linked whenever they share an intent (cosine-1 edge);
        # treat intents as nodes of a bipartite account-intent graph
        intents_per_account = [set() for _ in range(k)]
        # recover intent identity by exact vector match against the uniques
        uniq, inv = np.unique(Q_col, axis=0, return_inverse=True)
        for q_idx, intent in enumerate(inv):
            intents_per_account[q_idx // n].add(int(intent))
        reached = {0}
        frontier = set(intents_per_account[0])
        changed = True
        while changed:
            changed = False
            for a in range(k):
                if a not in reached and intents_per_account[a] & frontier:
                    reached.add(a)
                    frontier |= intents_per_account[a]
                    changed = True
        return len(reached) == k
    # P-B: angle bound — every query is within arccos(c0) of q*, so any
    # pair is within twice that
    qstar = Q_col.mean(axis=0)
    qstar /= np.linalg.norm(qstar)
    c0 = float(np.min(Q_col @ qstar))
    if math.cos(2.0 * math.acos(min(1.0, c0))) >= theta:
        return True
    G = Q_col @ Q_col.T
    np.fill_diagonal(G, 1.0)
    n_comp, _ = connected_components(csr_matrix(G >= theta - _COS_TOL), directed=False)
    return n_comp == 1


def calibrate(
    harness_params: dict | None = None,
    theta_grid=DEFAULT_THETA_GRID,
    trials: int = 200,
    jitter: float = 0.10,
    intent_set: int = 5,
    k_true_set=DEFAULT_K_TRUE,
    seed: int = 0,
    khat_curve: bool = False,
    khat_curve_trials: int = 20,
) -> CalibrationReport:
    """Threshold calibration on the synthetic account population.

    Null arm: A accounts issuing iid uniform unit-sphere queries; a false
    positive at theta is any cross-account pair at cosine >= theta.
    Alternative arms: k_true accounts replaced by one of the collusion
    patterns; TPR and the k_hat distribution are evaluated at the
    operating threshold. ``khat_curve=True`` additionally fills the mean
    k_hat over the whole grid via the generic estimator (slow; intended
    for figure regeneration only).
    """
    hp = {"A": 30, "n": 100, "d": 32}
    if harness_params:
        hp.update(harness_params)
    A, n, d = hp["A"], hp["n"], hp["d"]
    rng = np.random.default_rng(seed)
    theta_grid = list(theta_grid)

    # null arm
    null_max = np.empty(trials)
    for t in range(trials):
        Q = random_unit_vectors(rng, A * n, d).astype(np.float32)
        null_max[t] = _max_cross_account_cos(Q, n)
    null_fpr = {th: float(np.mean(null_max >= th - _COS_TOL)) for th in theta_grid}
    operating = next((th for th in sorted(theta_grid) if null_fpr[th] <= 0.05),
                     max(theta_grid))

    report = CalibrationReport(
        theta_grid=theta_grid, null_fpr=null_fpr, khat_by_pattern={},
        operating_theta=float(operating),
    )

    # alternative arms at the operating threshold; null pools shared
    # across the 12 (pattern, k_true) cells within a trial index
    arm_rng = np.random.default_rng(rng.integers(0, 2**63))
    khat_sum = {(p, k): 0.0 for p in PATTERNS for k in k_true_set}
    detect_count = {(p, k): 0 for p in PATTERNS for k in k_true_set}
    exact_count = {(p, k): 0 for p in PATTERNS for k in k_true_set}
    for t in range(trials):
        null_pool = random_unit_vectors(arm_rng, (A - min(k_true_set)) * n, d).astype(np.float32)
        null_pairs_all = _cross_account_pairs(null_pool, n, operating)
        for pattern in PATTERNS:
            for k in k_true_set:
                nulls = null_pool[: (A - k) * n]
                Q_col, anchors = _colluder_queries(
                    arm_rng, pattern, k, n, d, jitter, intent_set
                )
                connected = _colluders_connected(Q_col, pattern, k, n, operating)
                attach = float((nulls @ anchors.astype(np.float32).T).max()) >= operating - _COS_TOL
                if connected and not attach:
                    pairs = [p for p in null_pairs_all
                             if p[0] < (A - k) * n and p[1] < (A - k) * n]
                    spurious = _spurious_component_max(pairs, n)
                    k_hat = max(k, spurious)
                else:
                    # rare slow path: fall back to the generic estimator
                    queries = (
                        [(f"c{i // n}", Q_col[i], i) for i in range(len(Q_col))]
                        + [(f"u{i // n}", nulls[i].astype(np.float64)
                            / np.linalg.norm(nulls[i]), i) for i in range(len(nulls))]
                    )
                    k_hat = estimate(queries, EstimatorParams(
                        theta=operating)).largest_cluster_accounts
                khat_sum[(pattern, k)] += k_hat
                detect_count[(pattern, k)] += k_hat >= 2
                exact_count[(pattern, k)] += k_hat == k
    for key, s in khat_sum.items():
        report.khat_by_pattern[(*key, float(operating))] = s / trials
        report.tpr[key] = detect_count[key] / trials
        report.khat_exact_rate[key] = exact_count[key] / trials

    if khat_curve:
        curve_rng = np.random.default_rng(rng.integers(0, 2**63))
        for th in theta_grid:
            for pattern in PATTERNS:
                for k in k_true_set:
                    tot = 0.0
                    for _ in range(khat_curve_trials):
                        Q_col, _ = _colluder_queries(
                            curve_rng, pattern, k, n, d, jitter, intent_set
                        )
                        nulls = random_unit_vectors(curve_rng, (A - k) * n, d)
                        queries = (
                            [(f"c{i // n}", Q_col[i], i) for i in range(len(Q_col))]
                            + [(f"u{i // n}", nulls[i], i) for i in range(len(nulls))]
                        )
                        tot += estimate(queries, EstimatorParams(
                            theta=float(th))).largest_cluster_accounts
                    report.khat_by_pattern[(pattern, k, float(th))] = tot / khat_curve_trials
    return report
