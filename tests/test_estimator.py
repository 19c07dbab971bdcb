import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from collusion_audit import estimator as est_mod
from collusion_audit.estimator import EstimatorParams, calibrate, estimate
from collusion_audit.harness import random_unit_vectors

COS_TOL = 1e-12


def queries_from(accounts, Q):
    return [(a, q, t) for t, (a, q) in enumerate(zip(accounts, Q))]


# --- the dense reference: the n x n Gram that the blocked code replaces ----

def dense_component_account_counts(accounts, adj):
    n_comp, labels = connected_components(csr_matrix(adj), directed=False)
    accounts = np.asarray(accounts)
    return [len(set(accounts[labels == c])) for c in range(n_comp)]


def dense_estimate(queries, params):
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
        with np.errstate(invalid="ignore", over="ignore"):
            adj = (Q @ Q.T) >= params.theta - COS_TOL
        adj[~usable] = False
        adj[:, ~usable] = False
        np.fill_diagonal(adj, False)
        largest = max(largest, *dense_component_account_counts(accounts, adj))
    return largest


def dense_cross_account_gram(Q, n_per_account):
    G = Q @ Q.T
    for a in range(len(Q) // n_per_account):
        lo = a * n_per_account
        G[lo:lo + n_per_account, lo:lo + n_per_account] = -2.0
    return G


def dense_spurious_component_max(pairs, n_per_account):
    if not pairs:
        return 0
    nodes = sorted({i for p in pairs for i in p})
    idx = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for i, j in pairs:
        adj[idx[i], idx[j]] = adj[idx[j], idx[i]] = True
    return max(dense_component_account_counts([v // n_per_account for v in nodes], adj))


def dense_intents_connected(Q_col, k, n):
    """P-C connectivity with the intents recovered from the vectors."""
    _, inv = np.unique(Q_col, axis=0, return_inverse=True)
    intents_per_account = [set() for _ in range(k)]
    for q_idx, intent in enumerate(inv.ravel()):
        intents_per_account[q_idx // n].add(int(intent))
    reached, frontier, changed = {0}, set(intents_per_account[0]), True
    while changed:
        changed = False
        for a in range(k):
            if a not in reached and intents_per_account[a] & frontier:
                reached.add(a)
                frontier |= intents_per_account[a]
                changed = True
    return len(reached) == k


def dense_queries_connected(Q_col, theta):
    G = Q_col @ Q_col.T
    np.fill_diagonal(G, 1.0)
    return connected_components(csr_matrix(G >= theta - COS_TOL), directed=False)[0] == 1


def aligned_block(rng, k, n, d, cos=0.99):
    """k accounts, n queries each, all within arccos(cos) of one anchor."""
    anchor = random_unit_vectors(rng, 1, d)[0]
    out, accounts = [], []
    for a in range(k):
        for _ in range(n):
            u = random_unit_vectors(rng, 1, d)[0]
            u -= (u @ anchor) * anchor
            u /= np.linalg.norm(u)
            s = cos + (1 - cos) * rng.random()
            out.append(s * anchor + np.sqrt(1 - s * s) * u)
            accounts.append(f"acct{a}")
    return accounts, np.asarray(out)


class TestEstimateTrivial:
    def test_empty_is_one(self):
        assert estimate([], EstimatorParams(0.5)).largest_cluster_accounts == 1

    def test_single_account_is_one(self):
        rng = np.random.default_rng(0)
        Q = random_unit_vectors(rng, 10, 8)
        qs = queries_from(["a"] * 10, Q)
        assert estimate(qs, EstimatorParams(-1.0)).largest_cluster_accounts == 1

    def test_theta_minus_one_counts_all_accounts(self):
        rng = np.random.default_rng(1)
        A = 7
        Q = random_unit_vectors(rng, A * 3, 16)
        qs = queries_from([f"a{i // 3}" for i in range(A * 3)], Q)
        assert estimate(qs, EstimatorParams(-1.0)).largest_cluster_accounts == A

    def test_anchor_pattern_exact_recovery(self):
        rng = np.random.default_rng(2)
        accounts, Q = aligned_block(rng, 6, 4, 32, cos=0.995)
        null = random_unit_vectors(rng, 20 * 4, 32)
        accounts += [f"n{i // 4}" for i in range(80)]
        qs = queries_from(accounts, np.vstack([Q, null]))
        assert estimate(qs, EstimatorParams(0.8)).largest_cluster_accounts == 6

    def test_non_unit_rows_normalised(self):
        # raw inner product 0.25, cosine 0.9998
        qs = [("a", np.array([0.5, 0.0]), 0), ("b", np.array([0.5, 0.01]), 1)]
        assert estimate(qs, EstimatorParams(0.9)).largest_cluster_accounts == 2

    def test_zero_vector_has_no_edges(self):
        qs = [("a", np.zeros(4), 0), ("b", np.zeros(4), 1), ("c", np.eye(4)[0], 2)]
        assert estimate(qs, EstimatorParams(-1.0)).largest_cluster_accounts == 1

    def test_dimensions_never_linked(self):
        qs = [("a", np.eye(16)[0], 0), ("b", np.eye(8)[0], 1), ("c", np.eye(8)[0], 2)]
        assert estimate(qs, EstimatorParams(-1.0)).largest_cluster_accounts == 2


class TestEstimateProperties:
    def test_khat_monotone_in_theta(self):
        rng = np.random.default_rng(3)
        accounts, Q = aligned_block(rng, 5, 3, 16, cos=0.9)
        qs = queries_from(accounts, Q)
        khats = [estimate(qs, EstimatorParams(th)).largest_cluster_accounts
                 for th in np.linspace(-0.99, 0.99, 25)]
        assert all(a >= b for a, b in zip(khats, khats[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        accounts, Q = aligned_block(rng, 4, 3, 16)
        qs = queries_from(accounts, Q)
        perm = rng.permutation(len(qs))
        a = estimate(qs, EstimatorParams(0.8))
        b = estimate([qs[i] for i in perm], EstimatorParams(0.8))
        assert a.largest_cluster_accounts == b.largest_cluster_accounts

    def test_evasion_below_threshold(self):
        # colluders that keep every pairwise cosine below theta evade detection
        d = 16
        Q = np.eye(d)[:5]  # orthogonal queries
        qs = queries_from([f"a{i}" for i in range(5)], Q)
        assert estimate(qs, EstimatorParams(0.5)).largest_cluster_accounts == 1

    def test_rotated_colluder_queries_change_estimate(self):
        rng = np.random.default_rng(6)
        accounts, Q = aligned_block(rng, 4, 3, 16)
        params = EstimatorParams(0.8)
        before = estimate(queries_from(accounts, Q), params).largest_cluster_accounts
        # rotate one colluder's queries past the threshold boundary
        Q2 = Q.copy()
        Q2[:3] = np.eye(16)[:3]
        assert estimate(queries_from(accounts, Q2), params).largest_cluster_accounts != before

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.1, max_value=0.95))
    def test_fast_null_path_matches_generic(self, seed, theta):
        rng = np.random.default_rng(seed)
        A, n, d = 6, 4, 8
        Q = random_unit_vectors(rng, A * n, d)
        detected_fast = est_mod._max_cross_account_cos(Q.copy(), n) >= theta - 1e-12
        qs = queries_from([f"a{i // n}" for i in range(A * n)], Q)
        detected_generic = estimate(qs, EstimatorParams(theta)).largest_cluster_accounts >= 2
        assert detected_fast == detected_generic

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(897)  # a same-account edge joins two cross-account components
    def test_spurious_component_matches_generic(self, seed):
        rng = np.random.default_rng(seed)
        A, n, d, theta = 8, 3, 4, 0.45  # low d/theta to force edges
        Q = random_unit_vectors(rng, A * n, d)
        rows, cols = est_mod._edges(Q.copy(), theta)
        fast = est_mod._most_accounts(rows, cols, np.arange(A * n) // n)
        qs = queries_from([f"a{i // n}" for i in range(A * n)], Q)
        generic = estimate(qs, EstimatorParams(theta)).largest_cluster_accounts
        assert max(fast, 1) == generic


def edge_ends_most_accounts(rows, cols, accounts):
    """``_most_accounts`` as first written: np.unique over the
    (component, account) codes of both ends of every edge."""
    if len(rows) == 0:
        return 0
    _, labels = est_mod._components(rows, cols, len(accounts))
    ends = np.concatenate([rows, cols])
    stride = int(accounts.max()) + 1
    component_accounts = np.unique(labels[ends].astype(np.int64) * stride + accounts[ends])
    return int(np.bincount(component_accounts // stride).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 9), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_most_accounts_matches_edge_ends_formula(graph):
    accounts, edges = graph
    accounts = np.array(accounts)
    rows = np.array([i for i, _ in edges], dtype=np.intp)
    cols = np.array([j for _, j in edges], dtype=np.intp)
    assert (est_mod._most_accounts(rows, cols, accounts)
            == edge_ends_most_accounts(rows, cols, accounts))


def window(seed, n, d, n_accounts):
    """n queries with duplicated rows (cosine exactly 1), rows of another
    dimension, and zero, non-finite and non-unit rows."""
    rng = np.random.default_rng(seed)
    pools = {dim: random_unit_vectors(rng, max(1, n // 3), dim) for dim in (d, d + 1)}
    queries = []
    for t in range(n):
        dim = d + 1 if rng.random() < 0.1 else d
        v = pools[dim][rng.integers(len(pools[dim]))].copy()
        kind = rng.random()
        if kind < 0.05:
            v[:] = 0.0
        elif kind < 0.1:
            v[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind < 0.3:
            v *= rng.uniform(0.1, 3.0)
        elif kind < 0.5:
            v += 0.3 * random_unit_vectors(rng, 1, dim)[0]
        queries.append((f"acct{rng.integers(n_accounts)}", v, int(rng.integers(3 * n + 1))))
    return queries


class TestBlockedMatchesDense:
    """The row-blocked threshold graph against the dense n x n Gram, at the
    shipped block height and at a small one that puts many block
    boundaries inside each pool."""

    @settings(max_examples=60, deadline=None)
    @given(block=st.sampled_from([5, est_mod._BLOCK_ROWS]),
           size=st.sampled_from(["one", "below", "equal", "above", "several"]),
           seed=st.integers(0, 2**32 - 1),
           d=st.integers(1, 4),
           n_accounts=st.integers(1, 6),
           theta=st.one_of(st.just(1.0), st.just(-1.0), st.floats(-1.0, 1.0)))
    def test_estimate(self, block, size, seed, d, n_accounts, theta):
        n = {"one": 1, "below": block - 1, "equal": block, "above": block + 1,
             "several": 2 * block + 3}[size]
        queries = window(seed, n, d, n_accounts)  # random timestamps
        params = EstimatorParams(theta)
        with mock.patch.object(est_mod, "_BLOCK_ROWS", block):
            got = estimate(queries, params).largest_cluster_accounts
            # the timestamp is ignored: the whole window is clustered
            untimed = estimate([(a, v, 0) for a, v, _ in queries], params)
        assert got == untimed.largest_cluster_accounts == dense_estimate(queries, params)

    def test_duplicates_at_theta_one(self):
        rng = np.random.default_rng(8)
        probe, other = random_unit_vectors(rng, 2, 16)
        n = 2 * est_mod._BLOCK_ROWS + 7
        rows = [probe if i % 50 == 0 else other if i % 50 == 1 else
                random_unit_vectors(rng, 1, 16)[0] for i in range(n)]
        accounts = [f"a{i % 9}" for i in range(n)]
        queries = queries_from(accounts, rows)
        probe_accounts = len({accounts[i] for i in range(0, n, 50)})
        got = estimate(queries, EstimatorParams(1.0)).largest_cluster_accounts
        assert got == dense_estimate(queries, EstimatorParams(1.0)) == probe_accounts > 2

    @settings(max_examples=40, deadline=None)
    @given(block=st.sampled_from([5, est_mod._BLOCK_ROWS]),
           n_per_account=st.sampled_from([1, 3, 7, 13, 100]),
           n_accounts=st.integers(2, 80),
           seed=st.integers(0, 2**32 - 1),
           d=st.integers(2, 8),
           theta=st.floats(0.0, 0.99),
           keep_accounts=st.integers(1, 80))
    def test_calibration_helpers(self, block, n_per_account, n_accounts, seed, d, theta,
                                 keep_accounts):
        # account runs of 7, 13 or 100 queries straddle the block boundaries
        n_accounts = max(2, min(n_accounts, 700 // n_per_account))
        rng = np.random.default_rng(seed)
        Q = random_unit_vectors(rng, n_accounts * n_per_account, d).astype(np.float32)
        cut = min(keep_accounts, n_accounts) * n_per_account
        with mock.patch.object(est_mod, "_BLOCK_ROWS", block):
            top = est_mod._max_cross_account_cos(Q, n_per_account)
            rows, cols = est_mod._edges(Q, theta)
        ii, jj = np.nonzero(np.triu(Q @ Q.T >= theta - COS_TOL, 1))
        assert np.array_equal(rows, ii) and np.array_equal(cols, jj)
        assert top == float(dense_cross_account_gram(Q, n_per_account).max())
        pairs = list(zip(ii.tolist(), jj.tolist()))
        inside = cols < cut
        got = est_mod._most_accounts(rows[inside], cols[inside],
                                     np.arange(len(Q)) // n_per_account)
        assert got == dense_spurious_component_max(
            [p for p in pairs if p[1] < cut], n_per_account)

    @settings(max_examples=40, deadline=None)
    @given(pattern=st.sampled_from(["P-B", "P-C"]),
           seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 8),
           n=st.integers(1, 6),
           intent_set=st.integers(1, 12),
           jitter=st.floats(0.0, 2.0),
           theta=st.floats(0.0, 0.99))
    # jittered probes more than pi/2 from their mean: twice that angle
    # bounds no cosine
    @example(pattern="P-B", seed=5206, k=2, n=3, intent_set=1, jitter=2.0, theta=0.0)
    def test_colluder_connectivity(self, pattern, seed, k, n, intent_set, jitter, theta):
        rng = np.random.default_rng(seed)
        Q_col, _, choices = est_mod._colluder_queries(rng, pattern, k, n, 4, jitter, intent_set)
        with mock.patch.object(est_mod, "_BLOCK_ROWS", 5):
            got = est_mod._colluders_connected(Q_col, choices, pattern, k, n, theta)
        if pattern == "P-C":
            assert got == dense_intents_connected(Q_col, k, n)
        else:
            assert got == dense_queries_connected(Q_col, theta)


def full_scan_reaches(X, Y, theta):
    """``_reaches`` without its cap filter: every block of X's rows."""
    return any(float((X[lo:lo + est_mod._BLOCK_ROWS] @ Y.T).max()) >= theta - COS_TOL
               for lo in range(0, len(X), est_mod._BLOCK_ROWS))


def plant_at_angle(rng, X, Y, angle, count):
    """``count`` rows of X replaced by unit vectors at ``angle`` from a
    row of Y drawn at random."""
    for _ in range(count):
        y = Y[rng.integers(len(Y))]
        y = y / np.linalg.norm(y)
        u = random_unit_vectors(rng, 1, len(y))[0]
        u -= (u @ y) * y
        u /= np.linalg.norm(u)
        X[rng.integers(len(X))] = np.cos(angle) * y + np.sin(angle) * u


class CountedProducts(np.ndarray):
    """An array that counts the matrix products it enters as the left
    operand against a matrix (the block checks of ``_reaches``); its
    slices share the count."""

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __matmul__(self, other):
        if np.ndim(other) == 2:
            self.products.append(len(self))
        return np.asarray(self) @ other


class TestReachesCapFilter:
    """``_reaches`` checks only the blocks of X with a row in the cap
    around Y's mean direction, and agrees with the full scan."""

    @settings(max_examples=300, deadline=None)
    @given(block=st.sampled_from([5, 128]),
           dtype=st.sampled_from([np.float32, np.float64]),
           d=st.integers(2, 64),
           anchors=st.sampled_from(["P-A", "P-B", "P-C", "antipodal", "single"]),
           theta=st.one_of(st.sampled_from([-1.0, 0.0, 0.95, 1.0]), st.floats(-1.0, 1.0)),
           n_rows=st.integers(1, 300),
           planted=st.integers(0, 3),
           offset=st.sampled_from([-1e-7, 1e-7]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_scan(self, block, dtype, d, anchors, theta, n_rows, planted,
                               offset, seed):
        rng = np.random.default_rng(seed)
        if anchors in est_mod.PATTERNS:
            _, Y, _ = est_mod._colluder_queries(
                rng, anchors, int(rng.integers(1, 5)), int(rng.integers(1, 20)), d,
                float(rng.uniform(0.0, 0.5)), int(rng.integers(1, 8)))
        else:
            Y = random_unit_vectors(rng, 1, d)
            if anchors == "antipodal":
                Y = np.vstack([Y, -Y])  # mean direction zero
        X = random_unit_vectors(rng, n_rows, d)
        angle = min(max(np.arccos(theta) + offset, 0.0), np.pi)
        plant_at_angle(rng, X, Y, angle, planted)
        X, Y = X.astype(dtype), Y.astype(dtype)
        with mock.patch.object(est_mod, "_BLOCK_ROWS", block):
            assert est_mod._reaches(X, Y, theta) == full_scan_reaches(X, Y, theta)

    def test_null_blocks_are_skipped(self):
        # calibrate's default population at theta 0.8: the P-B anchors of
        # k = 20 colluders against the (A - k) * n null queries
        rng = np.random.default_rng(0)
        A, n, d, k, theta = 30, 100, 32, 20, 0.8
        nulls = random_unit_vectors(rng, (A - k) * n, d).astype(np.float32)
        _, anchors, _ = est_mod._colluder_queries(rng, "P-B", k, n, d, 0.10, 5)
        anchors = anchors.astype(np.float32)
        X = nulls.view(CountedProducts)
        X.products = []
        assert not est_mod._reaches(X, anchors, theta)
        assert X.products == []
        assert not full_scan_reaches(nulls, anchors, theta)
        # a null row on an anchor: only its block is checked
        X[300] = anchors[7]
        assert est_mod._reaches(X, anchors, theta)
        assert X.products == [est_mod._BLOCK_ROWS]


def plain(x):
    if isinstance(x, tuple):
        return tuple(plain(v) for v in x)
    return x if isinstance(x, str) else float(x)


def report_digest(rep):
    fields = [plain(tuple(rep.theta_grid)), rep.operating_theta]
    for table in (rep.null_fpr, rep.khat_by_pattern, rep.tpr, rep.khat_exact_rate):
        fields.append(sorted((plain(k), float(v)) for k, v in table.items()))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestCalibrationReportPinned:
    """Reports recorded with the dense-Gram calibration; the blocked one
    must reproduce them exactly."""

    def test_default_population(self):
        assert report_digest(calibrate(trials=5, seed=2)) == (
            "4d2eb7a2ca4ad83cf0799618497037edd0e85cf4a42efe819a2c94c3e67c8e40")

    def test_small_population_with_khat_curve(self):
        # low d: spurious multi-account components, the slow path, and
        # pools of 600 queries that cross block boundaries
        rep = calibrate(harness_params={"A": 12, "n": 50, "d": 8},
                        theta_grid=(0.6, 0.7, 0.8, 0.9), trials=10, seed=2,
                        k_true_set=(2, 5), khat_curve=True, khat_curve_trials=1)
        assert report_digest(rep) == (
            "1023a2fd1379316c6e67ebf4625e2c307f24989d09a954d1748790c9497b1193")


def test_estimate_memory_is_blocked():
    # the dense path would allocate a 20,000 x 20,000 float64 Gram (3.2 GB)
    rng = np.random.default_rng(7)
    n, d = 20_000, 64
    Q = random_unit_vectors(rng, n, d)
    probe = Q[0].copy()
    Q[:50] = probe + 0.05 * Q[:50]  # 5 accounts send 10 jittered probes each
    accounts = [f"c{i // 10}" if i < 50 else f"u{i // 100}" for i in range(n)]
    queries = queries_from(accounts, Q)
    tracemalloc.start()
    try:
        got = estimate(queries, EstimatorParams(0.8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.largest_cluster_accounts == 5
    assert peak < 300 * 2**20


def touched_partition(rows, cols, n):
    """The node sets of the components of the graph on n nodes with the
    edges (rows, cols), each cut to the nodes with an edge."""
    graph = csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    parts = {}
    for node in sorted(set(rows.tolist()) | set(cols.tolist())):
        parts.setdefault(labels[node], set()).add(node)
    return sorted(map(sorted, parts.values()))


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from([5, est_mod._BLOCK_ROWS]),
       seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 300),
       d=st.integers(2, 6),
       copies=st.integers(0, 200),
       theta=st.floats(0.0, 0.99))
def test_component_edges_keep_components_and_nodes_with_an_edge(block, seed, n, d, copies, theta):
    # copies of a few rows make dense clusters: blocks with more edges
    # than columns
    rng = np.random.default_rng(seed)
    Q = random_unit_vectors(rng, n, d)
    Q[rng.integers(0, n, copies % n)] = Q[rng.integers(0, 1 + n // 20, copies % n)]
    with mock.patch.object(est_mod, "_BLOCK_ROWS", block):
        rows, cols = est_mod._edges(Q, theta)
        c_rows, c_cols = est_mod._component_edges(Q, theta)
    assert touched_partition(c_rows, c_cols, n) == touched_partition(rows, cols, n)
    assert len(c_rows) <= n


def test_dense_cluster_memory_is_linear():
    # 2,000 identical probes are 2 million edges: the edge list and the
    # sparse graph built from it took 89 MB in the calibration's slow path
    rng = np.random.default_rng(3)
    probe = random_unit_vectors(rng, 1, 32)
    Q = np.vstack([np.repeat(probe, 2000, axis=0), random_unit_vectors(rng, 1000, 32)])
    accounts = [f"c{i // 100}" if i < 2000 else f"u{i // 100}" for i in range(3000)]
    queries = queries_from(accounts, Q)
    tracemalloc.start()
    try:
        got = estimate(queries, EstimatorParams(0.8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.largest_cluster_accounts == 20
    assert peak < 16 * 2**20


class TestCalibrateSmoke:
    def test_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            calibrate(trials=0)

    def test_k_true_beyond_population_rejected(self):
        # k = 5 of A = 3 accounts would cut the null pool at a negative stop
        with pytest.raises(ValueError, match="k_true_set"):
            calibrate(harness_params={"A": 3, "n": 5, "d": 8}, k_true_set=(2, 5), trials=1)

    def test_khat_curve_without_trials_rejected(self):
        with pytest.raises(ValueError, match="khat_curve_trials"):
            calibrate(harness_params={"A": 6, "n": 5, "d": 8}, trials=1, k_true_set=(2,),
                      khat_curve=True, khat_curve_trials=0)

    def test_fast_path_matches_generic_estimator(self):
        # with _reaches always true every cell runs the generic estimator
        # on the same draws; low d makes null components that only
        # same-account edges join
        kw = dict(harness_params={"A": 8, "n": 3, "d": 6}, theta_grid=(0.6,), trials=20,
                  k_true_set=(2,), seed=0)
        fast = calibrate(**kw)
        with mock.patch.object(est_mod, "_reaches", lambda *args: True):
            generic = calibrate(**kw)
        assert fast.khat_by_pattern == generic.khat_by_pattern
        assert fast.khat_exact_rate == generic.khat_exact_rate

    def test_small_calibration(self):
        rep = calibrate(harness_params={"A": 8, "n": 10, "d": 16},
                        theta_grid=(0.4, 0.6, 0.8), trials=20,
                        k_true_set=(2, 5), seed=0)
        assert set(rep.null_fpr) == {0.4, 0.6, 0.8}
        assert all(0.0 <= v <= 1.0 for v in rep.null_fpr.values())
        # FPR is non-increasing in theta
        fprs = [rep.null_fpr[t] for t in (0.4, 0.6, 0.8)]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        assert rep.operating_theta in (0.4, 0.6, 0.8)
        for p in est_mod.PATTERNS:
            for k in (2, 5):
                assert 0.0 <= rep.tpr[(p, k)] <= 1.0
                assert 0.0 <= rep.khat_exact_rate[(p, k)] <= 1.0

    def test_calibration_deterministic(self):
        kw = dict(harness_params={"A": 6, "n": 5, "d": 8},
                  theta_grid=(0.5, 0.9), trials=10, k_true_set=(2,), seed=3)
        a, b = calibrate(**kw), calibrate(**kw)
        assert a.null_fpr == b.null_fpr
        assert a.tpr == b.tpr
