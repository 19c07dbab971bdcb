"""Query-correlation coalition-size estimator and its calibration.

Clusters ledger queries by cosine proximity (connected components of the
theta-threshold graph; identical-query hash collisions are cosine-1 edges
and need no special casing), reports the largest multi-account cluster as
the coalition estimate, and calibrates the threshold on a synthetic
account population against three collusion patterns:

  P-A  identical probe q* from every colluding account
  P-B  jittered probes normalize(q* + zeta * eta)
  P-C  probes drawn iid from a small set of fixed paraphrase intents

The threshold graph is built one block of Gram rows at a time over the
upper triangle (``_gram_blocks``), so n queries take O(n^2 d) time. The
estimator keeps per block only the joins that give the graph's
components (``_component_edges``), folded into a forest once they
outnumber the nodes: O(_BLOCK_ROWS * n) memory however dense a cluster
is (2,000 identical probes are 2 million edges).
The calibration's null pools keep every edge, each block's read with one
flat nonzero over its thresholded cosines, split into (row, col) by
divmod (``_edges``). Components come from scipy's connected_components.

Calibration exploits the structure of the patterns for speed: detection
at threshold theta is equivalent to the maximum cross-account cosine
reaching theta, P-C connectivity follows from the intents each account
drew, and P-B connectivity usually from an angle bound, so the generic
estimator only runs on the rare trials where a null account actually
attaches. Whether one does (``_reaches``) is checked only on the blocks
of null queries that meet a spherical cap around the anchors' mean
direction c: a null query at cosine >= theta with an anchor lies within
arccos(theta - m) + alpha of c, where m covers _COS_TOL and the float
dot product's rounding (32 d eps) and alpha is the anchors' largest angle
from c plus 1e-6 rad; the cap test itself keeps 1e-6 of slack. A block is
checked whole or skipped, never cut to its cap rows, because BLAS
rounding depends on the operand's shape. Property tests check these fast
paths, and the blocked graph, against the dense n x n Gram and the full
scans they replace.
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
# calibration population: P-B jitter scale zeta and P-C intent-set size
_JITTER = 0.10
_INTENT_SET = 5
_COS_TOL = 1e-12
# Gram rows computed at a time: a block holds _BLOCK_ROWS x n cosines
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class EstimatorParams:
    theta: float

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


def _gram_blocks(Q: np.ndarray):
    """The strict upper triangle of ``Q @ Q.T``, one block of rows at a time.

    Yields ``(lo, G)``: ``G[r, c] = Q[lo + r] . Q[lo + c]`` for up to
    _BLOCK_ROWS rows from ``lo`` and every column from ``lo``, set to -inf
    where ``c <= r``. Memory is one block, _BLOCK_ROWS * n cosines: the
    n x n product is never formed, and each block is written over the
    previous one, so a caller must be done with a block before it asks for
    the next. Each product keeps its own (rows, n - lo) shape, on which
    BLAS rounding depends.
    """
    n = len(Q)
    below = np.tri(_BLOCK_ROWS, dtype=bool)
    store = np.empty(min(n, _BLOCK_ROWS) * n, dtype=Q.dtype)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = Q[lo:lo + _BLOCK_ROWS]
        m = len(rows)
        G = np.matmul(rows, Q[lo:].T, out=store[:m * (n - lo)].reshape(m, n - lo))
        np.copyto(G[:, :m], -np.inf, where=below[:m, :m])
        yield lo, G


def _edges(Q: np.ndarray, theta: float):
    """Index arrays (rows, cols), rows < cols, of the pairs of ``Q`` at
    cosine >= theta (within _COS_TOL), in row-major order. Each block's
    edges come from one flat nonzero split by divmod: the same indices as
    the 2-d ``np.nonzero``, which is 3 to 13 times slower on a 128 x 2800
    block."""
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for lo, G in _gram_blocks(Q):
        r, c = np.divmod(np.flatnonzero(G >= theta - _COS_TOL), G.shape[1])
        rows.append(r + lo)
        cols.append(c + lo)
    return np.concatenate(rows), np.concatenate(cols)


def _component_edges(Q: np.ndarray, theta: float):
    """Index arrays (rows, cols) of a graph on the rows of ``Q`` with the
    same connected components, and the same nodes with an edge, as
    ``_edges(Q, theta)``, in at most n edges (2n + _BLOCK_ROWS**2 while a
    block is added): O(n) memory however dense a cluster is. In each
    block of Gram rows, each column with an edge is joined to the first
    row it meets, and each row to the first rows of the columns it meets,
    so the two ends of every edge stay connected; once the joins
    outnumber the nodes, ``_stars`` folds them into a forest."""
    n = len(Q)
    rows, cols = np.empty(0, np.intp), np.empty(0, np.intp)
    for lo, G in _gram_blocks(Q):
        B = G >= theta - _COS_TOL
        hit = np.flatnonzero(B.any(axis=0))
        if len(hit) == 0:
            continue
        first = B[:, hit].argmax(axis=0)
        order = np.argsort(first, kind="stable")
        heads, starts = np.unique(first[order], return_index=True)
        r, j = np.nonzero(np.logical_or.reduceat(B[:, hit[order]], starts, axis=1))
        rows = np.concatenate([rows, lo + first, lo + r])
        cols = np.concatenate([cols, lo + hit, lo + heads[j]])
        if len(rows) > n:
            rows, cols = _stars(rows, cols, n)
    return rows, cols


def _components(rows, cols, n: int):
    """(count, labels) of the connected components of the graph on n
    nodes with the undirected edges (rows, cols)."""
    graph = csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=False)


def _touched(rows, cols, n: int):
    """(labels, nodes): the component label of each of n nodes in the graph
    with the edges (rows, cols), and the nodes with an edge, ascending."""
    _, labels = _components(rows, cols, n)
    has_edge = np.zeros(n, dtype=bool)
    has_edge[rows] = True
    has_edge[cols] = True
    return labels, np.flatnonzero(has_edge)


def _stars(rows, cols, n: int):
    """Edges (hubs, spokes), hubs < spokes, from the smallest node of each
    component of the graph with the edges (rows, cols) on n nodes to each
    of its other nodes: the same components, and the same nodes with an
    edge where no component is one node with a self-loop, in fewer edges
    than nodes."""
    labels, nodes = _touched(rows, cols, n)
    _, first, which = np.unique(labels[nodes], return_index=True, return_inverse=True)
    hubs = nodes[first[which]]
    spoke = hubs != nodes
    return hubs[spoke], nodes[spoke]


def _most_accounts(rows, cols, accounts: np.ndarray) -> int:
    """Most distinct accounts in one connected component of the graph with
    the edges (rows, cols) on the nodes 0..len(accounts)-1, where
    ``accounts`` holds each node's account as a non-negative int; 0 when
    there is no edge. Only the nodes with an edge are counted: every other
    component is one node of one account."""
    if len(rows) == 0:
        return 0
    labels, nodes = _touched(rows, cols, len(accounts))
    stride = int(accounts.max()) + 1
    component_accounts = np.unique(labels[nodes].astype(np.int64) * stride + accounts[nodes])
    return int(np.bincount(component_accounts // stride).max())


def estimate(queries, params: EstimatorParams) -> CoalitionEstimate:
    """Generic estimator: queries are (account_id, embedding, timestamp)
    triples, and the timestamp is ignored: the whole window is clustered.

    Embeddings more than 1e-6 from unit norm are normalised (the others
    are used as given), a zero or non-finite embedding has no edges, and
    embeddings of different dimension are never linked: each dimension is
    clustered on its own and the largest cluster over all of them counts.
    """
    groups = {}
    for account, vector, _ in queries:
        vector = np.asarray(vector, dtype=np.float64)
        accounts, rows = groups.setdefault(vector.shape, ([], []))
        accounts.append(account)
        rows.append(vector)
    largest = 1
    for accounts, rows in groups.values():
        Q = np.asarray(rows)
        norms = np.linalg.norm(Q, axis=1)
        usable = np.isfinite(norms) & (norms > 0)
        off = usable & (np.abs(norms - 1.0) > 1e-6)
        Q[off] /= norms[off, None]
        ids = {}
        codes = np.array([ids.setdefault(a, len(ids)) for a in accounts])[usable]
        rows, cols = _component_edges(Q[usable], params.theta)
        largest = max(largest, _most_accounts(rows, cols, codes))
    return CoalitionEstimate(largest)


# --- calibration ----------------------------------------------------------

def _max_cross_account_cos(Q: np.ndarray, n_per_account: int) -> float:
    """Max cosine over pairs of queries from distinct accounts (-inf when
    there is no such pair); the queries are laid out in contiguous
    per-account blocks of n_per_account."""
    best = -np.inf
    for lo, G in _gram_blocks(Q):
        hi = lo + len(G)
        for start in range(lo - lo % n_per_account, hi, n_per_account):
            end = start + n_per_account
            # the account's rows, up to its last column (the columns
            # before its first query are below the diagonal already)
            G[max(start, lo) - lo:min(end, hi) - lo, :end - lo] = -np.inf
        best = max(best, float(G.max()))
    return best


def _reaches(X: np.ndarray, Y: np.ndarray, theta: float) -> bool:
    """Whether some row of X has cosine >= theta with some row of Y (rows
    of unit norm up to rounding), checked one block of X's rows at a time.

    Only the blocks holding a row in the spherical cap around Y's mean
    direction c are checked. A row at cosine >= theta with some y is
    within arccos(theta - m) of it, m = _COS_TOL + 32 d eps covering the
    dot product's rounding, so by the triangle inequality on angles it is
    within reach = arccos(theta - m) + alpha of c, alpha being the largest
    angle of a row of Y from c plus 1e-6 rad; the cap test
    x.c >= cos(reach) - 1e-6 runs in float64. Whole blocks are skipped,
    never rows: BLAS rounding depends on the operand's shape, so a checked
    block gives the same product as in the full scan. With reach >= pi,
    or a zero or non-finite c, every block is checked.
    """
    starts = range(0, len(X), _BLOCK_ROWS)
    with np.errstate(all="ignore"):
        U = Y / np.linalg.norm(Y.astype(np.float64), axis=1, keepdims=True)
        c = U.sum(axis=0)
        c /= np.linalg.norm(c)
        m = _COS_TOL + 32 * X.shape[1] * max(np.finfo(X.dtype).eps, np.finfo(Y.dtype).eps)
        reach = (math.acos(max(-1.0, theta - m))
                 + float(np.arccos(np.clip(U @ c, -1.0, 1.0)).max()) + 1e-6)
        if reach < math.pi:
            hits = np.flatnonzero(X @ c >= math.cos(reach) - 1e-6)
            starts = np.unique(hits // _BLOCK_ROWS) * _BLOCK_ROWS
    return any(float((X[lo:lo + _BLOCK_ROWS] @ Y.T).max()) >= theta - _COS_TOL
               for lo in starts)


def _colluder_queries(rng, pattern: str, k: int, n: int, d: int,
                      jitter: float, intent_set: int):
    """Colluder query block, the anchor directions that characterize it
    (used for the cheap attachment test) and, for P-C, each query's
    intent index (None for the other patterns)."""
    qstar = random_unit_vectors(rng, 1, d)[0]
    if pattern == "P-A":
        return np.tile(qstar, (k * n, 1)), qstar[None, :], None
    if pattern == "P-C":
        intents = random_unit_vectors(rng, intent_set, d)
        choices = rng.integers(0, intent_set, size=k * n)
        return intents[choices], intents, choices
    if pattern == "P-B":
        eta = random_unit_vectors(rng, k * n, d)
        q = qstar[None, :] + jitter * eta
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return q, q, None
    raise ValueError(pattern)


def _colluders_connected(Q_col: np.ndarray, choices, pattern: str, k: int, n: int,
                         theta: float) -> bool:
    """Exact-but-cheap connectivity check for the colluder block."""
    if pattern == "P-A":
        return True
    if pattern == "P-C":
        # accounts are linked whenever they share an intent (cosine-1
        # edge): one component of the bipartite account-intent graph
        _, labels = _components(np.arange(k * n) // n, k + choices,
                                k + int(choices.max()) + 1)
        return bool(np.all(labels[:k] == labels[0]))
    # P-B: angle bound — every query is within arccos(c0) of q*, so any
    # pair is within twice that, which bounds its cosine while <= pi
    qstar = Q_col.mean(axis=0)
    qstar /= np.linalg.norm(qstar)
    c0 = float(np.min(Q_col @ qstar))
    if c0 >= 0.0 and math.cos(2.0 * math.acos(min(1.0, c0))) >= theta:
        return True
    return _components(*_component_edges(Q_col, theta), k * n)[0] == 1


def _generic_khat(Q_col, nulls, n: int, theta: float) -> int:
    """The generic estimator's coalition size on colluder queries Q_col and
    null queries ``nulls``, each laid out in per-account blocks of n."""
    queries = ([(f"c{i // n}", Q_col[i], i) for i in range(len(Q_col))]
               + [(f"u{i // n}", nulls[i], i) for i in range(len(nulls))])
    return estimate(queries, EstimatorParams(theta=theta)).largest_cluster_accounts


def calibrate(
    harness_params: dict | None = None,
    theta_grid=DEFAULT_THETA_GRID,
    trials: int = 200,
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
    if trials < 1:
        raise ValueError(f"calibrate needs trials >= 1, got {trials}")
    if khat_curve and khat_curve_trials < 1:
        raise ValueError(f"calibrate needs khat_curve_trials >= 1, got {khat_curve_trials}")
    hp = {"A": 30, "n": 100, "d": 32}
    if harness_params:
        hp.update(harness_params)
    A, n, d = hp["A"], hp["n"], hp["d"]
    if not all(1 <= k <= A for k in k_true_set):
        raise ValueError(f"calibrate needs k_true_set within 1..A={A}, got {tuple(k_true_set)}")
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
        # every edge, same-account ones included: they join components
        # in the generic estimator too
        null_rows, null_cols = _edges(null_pool, operating)
        null_accounts = np.arange(len(null_pool)) // n
        for pattern in PATTERNS:
            for k in k_true_set:
                nulls = null_pool[: (A - k) * n]
                Q_col, anchors, choices = _colluder_queries(
                    arm_rng, pattern, k, n, d, _JITTER, _INTENT_SET
                )
                connected = _colluders_connected(Q_col, choices, pattern, k, n, operating)
                if connected and not _reaches(nulls, anchors.astype(np.float32), operating):
                    inside = null_cols < len(nulls)  # rows < cols
                    spurious = _most_accounts(null_rows[inside], null_cols[inside],
                                              null_accounts)
                    k_hat = max(k, spurious)
                else:
                    # rare slow path: fall back to the generic estimator
                    k_hat = _generic_khat(Q_col, [row.astype(np.float64) / np.linalg.norm(row)
                                                  for row in nulls], n, operating)
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
                        Q_col, _, _ = _colluder_queries(
                            curve_rng, pattern, k, n, d, _JITTER, _INTENT_SET
                        )
                        nulls = random_unit_vectors(curve_rng, (A - k) * n, d)
                        tot += _generic_khat(Q_col, nulls, n, float(th))
                    report.khat_by_pattern[(pattern, k, float(th))] = tot / khat_curve_trials
    return report
