import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collusion_audit import estimator as est_mod
from collusion_audit.estimator import EstimatorParams, calibrate, estimate
from collusion_audit.harness import random_unit_vectors


def queries_from(accounts, Q, ts=None):
    if ts is None:
        ts = range(len(accounts))
    return [(a, q, t) for a, q, t in zip(accounts, Q, ts)]


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

    def test_window_tau_splits_stale_pairs(self):
        rng = np.random.default_rng(5)
        accounts, Q = aligned_block(rng, 2, 1, 16, cos=0.999)
        qs = queries_from(accounts, Q, ts=[0, 1000])
        assert estimate(qs, EstimatorParams(0.9)).largest_cluster_accounts == 2
        assert estimate(qs, EstimatorParams(0.9, window_tau=10)).largest_cluster_accounts == 1

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
    def test_spurious_component_matches_generic(self, seed):
        rng = np.random.default_rng(seed)
        A, n, d, theta = 8, 3, 4, 0.45  # low d/theta to force edges
        Q = random_unit_vectors(rng, A * n, d)
        pairs = est_mod._cross_account_pairs(Q.copy(), n, theta)
        fast = est_mod._spurious_component_max(pairs, n)
        qs = queries_from([f"a{i // n}" for i in range(A * n)], Q)
        generic = estimate(qs, EstimatorParams(theta)).largest_cluster_accounts
        assert max(fast, 1) == generic


class TestCalibrateSmoke:
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
