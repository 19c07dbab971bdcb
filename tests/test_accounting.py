import math
import sys
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collusion_audit import accounting as acc

# Cross-check oracles: textbook forms no experiment or verdict reads, kept
# here to pin the accountant in src/ against them.

PerQueryBudget = namedtuple("PerQueryBudget", "eps_q delta_q")
# delta_term = k * delta_acc, reported separately from the tanh term
MiaBounds = namedtuple("MiaBounds", "adv_upper adv_lower auc_prediction delta_term")


def calibrate_per_query(policy):
    """Per-query (eps_q, delta_q) whose n-fold advanced composition meets
    the per-account budget, with delta_q = delta_acc / n."""
    eps_acc, delta_acc, n = policy.eps_acc, policy.delta_acc, policy.n_queries
    eps_q = eps_acc / math.sqrt(2.0 * n * math.log(1.0 / delta_acc))
    return PerQueryBudget(eps_q=eps_q, delta_q=delta_acc / n)


def advanced_composition(eps0, delta0, m, delta_slack):
    """m-fold adaptive composition of (eps0, delta0)-DP mechanisms:
    (sqrt(2 m ln(1/delta_slack)) eps0 + m eps0 (e^eps0 - 1),
    m delta0 + delta_slack), for eps0 in (0, 1] (the lemma's hypothesis)."""
    if not 0.0 < eps0 <= 1.0:
        raise ValueError("advanced composition requires eps0 in (0, 1]")
    eps_total = (math.sqrt(2.0 * m * math.log(1.0 / delta_slack)) * eps0
                 + m * eps0 * (math.exp(eps0) - 1.0))
    return eps_total, m * delta0 + delta_slack


def mia_bounds(policy, k):
    """Membership-inference advantage bounds for a k-coalition: tanh of
    half the composed epsilon above (the sqrt(k) shortcut when eps_acc <=
    1), the constructed pooled-mean attack's advantage below."""
    if policy.eps_acc <= 1.0:
        adv_upper = math.tanh(0.5 * math.sqrt(k) * policy.eps_acc)
    else:
        adv_upper = math.tanh(0.5 * acc.joint_epsilon_upper(policy, k).epsilon)
    delta_q = policy.delta_acc / policy.n_queries
    adv_lower = ((1.0 / math.sqrt(2.0 * math.pi)) * math.sqrt(k) * policy.eps_acc
                 / (4.0 * math.sqrt(math.log(1.0 / policy.delta_acc)
                                    * math.log(1.25 / delta_q))))
    return MiaBounds(adv_upper=adv_upper, adv_lower=adv_lower,
                     auc_prediction=acc.auc_prediction(policy, k),
                     delta_term=k * policy.delta_acc)


def auc_prediction_sigma_form(delta_gap, sigma, k, n_queries):
    """acc.auc_prediction in mechanism coordinates:
    Phi(gap sqrt(kn) / (sqrt2 sigma))."""
    return acc.normal_cdf(delta_gap * math.sqrt(k * n_queries) / (math.sqrt(2.0) * sigma))


def make_policy(eps=1.0, delta=1e-6, n=10_000, k_max=100, delta_policy=1e-3):
    return acc.PolicyParams.calibrated(eps, delta, n, k_max, delta_policy)


class TestPolicyParams:
    def test_well_formedness_gate(self):
        with pytest.raises(ValueError):
            acc.PolicyParams(eps_acc=1, delta_acc=1e-6, n_queries=10, sigma=1.0,
                             k_max=100, delta_policy=5e-5)

    def test_free_form_allowed(self):
        acc.PolicyParams(eps_acc=1, delta_acc=1e-6, n_queries=10, sigma=3.0,
                         k_max=10, delta_policy=1e-3)

    def test_domain_errors(self):
        for kwargs in (
            dict(eps_acc=0.0), dict(eps_acc=math.nan), dict(eps_acc=math.inf),
            dict(delta_acc=0.0), dict(delta_acc=1.0), dict(n_queries=0),
            dict(sigma=0.0), dict(sigma=math.nan), dict(sigma=math.inf), dict(k_max=0),
            dict(top_k=0), dict(top_k=3.0), dict(top_k=True),
        ):
            base = dict(eps_acc=1, delta_acc=1e-6, n_queries=10, sigma=1.0,
                        k_max=10, delta_policy=1e-3)
            base.update(kwargs)
            with pytest.raises(ValueError):
                acc.PolicyParams(**base)

    # ln(1/delta) is inf for a subnormal delta, so the bounds would read 0 or inf
    def test_subnormal_delta_acc_rejected(self):
        with pytest.raises(ValueError, match="delta_acc"):
            acc.PolicyParams(eps_acc=1, delta_acc=5e-324, n_queries=10, sigma=1.0,
                             k_max=10, delta_policy=1e-3)

    def test_calibrated_subnormal_delta_acc_rejected(self):
        with pytest.raises(ValueError, match="delta_acc"):
            acc.PolicyParams.calibrated(1.0, 5e-324, 10, 10, 1e-3)

    def test_subnormal_slack_rejected(self):
        # delta_policy - k_max * delta_acc is one ulp of 1e-300: subnormal
        with pytest.raises(ValueError, match="ill-formed"):
            acc.PolicyParams(eps_acc=1, delta_acc=1e-300, n_queries=10, sigma=1.0,
                             k_max=1, delta_policy=math.nextafter(1e-300, 1.0))

    def test_smallest_normal_delta_accepted(self):
        p = acc.PolicyParams(eps_acc=1, delta_acc=sys.float_info.min, n_queries=10,
                             sigma=1.0, k_max=10, delta_policy=1e-3)
        assert 0.0 < acc.epsilon_audit(p)[0] < math.inf


class TestCalibration:
    def test_per_query_single(self):
        p = acc.PolicyParams(eps_acc=1, delta_acc=1e-6, n_queries=1, sigma=1.0,
                             k_max=1, delta_policy=1e-3)
        b = calibrate_per_query(p)
        assert b.eps_q == pytest.approx(1.0 / math.sqrt(2 * math.log(1e6)), rel=1e-12)
        assert b.eps_q == pytest.approx(0.1902, abs=1e-4)
        assert b.delta_q == 1e-6

    def test_per_query_many(self):
        b = calibrate_per_query(make_policy())
        assert b.eps_q == pytest.approx(1.902e-3, rel=5e-4)
        assert b.delta_q == pytest.approx(1e-10)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            acc.calibrate_sigma(0.0, 1e-6, 10)

    def test_sigma_value(self):
        sigma = acc.calibrate_sigma(4.0, 1e-6, 10_000)
        oracle = math.sqrt(
            2 * 10_000 * math.log(1e6) * 2 * math.log(1.25 / 1e-10)
        ) / 4.0
        assert sigma == pytest.approx(oracle, rel=1e-12)
        assert sigma == pytest.approx(896.6, abs=1.0)

    def test_round_trip_per_query_guarantee(self):
        # Delta*sqrt(2 ln(1.25/delta_q))/sigma recovers eps_q to 1e-12
        p = make_policy(eps=2.0, n=5000)
        b = calibrate_per_query(p)
        eps_q = math.sqrt(2 * math.log(1.25 / b.delta_q)) / p.sigma
        assert eps_q == pytest.approx(b.eps_q, rel=1e-12)

    def test_composition_round_trip_leading_term(self):
        # n-fold advanced composition of the per-query budget recovers the
        # per-account epsilon in its leading term
        for eps in (0.5, 1.0, 4.0):
            p = make_policy(eps=eps)
            b = calibrate_per_query(p)
            leading = math.sqrt(2 * p.n_queries * math.log(1 / p.delta_acc)) * b.eps_q
            assert leading == pytest.approx(eps, abs=1e-9)


class TestAdvancedComposition:
    def test_single_fold(self):
        e0, d0 = 0.3, 1e-8
        eps, delta = advanced_composition(e0, d0, 1, d0)
        assert eps == pytest.approx(
            math.sqrt(2 * math.log(1 / d0)) * e0 + e0 * (math.exp(e0) - 1), rel=1e-12
        )
        assert delta == pytest.approx(2 * d0)

    def test_worked_example(self):
        eps, delta = advanced_composition(0.1, 1e-8, 100, 1e-6)
        oracle = math.sqrt(200 * math.log(1e6)) * 0.1 + 10 * (math.exp(0.1) - 1)
        assert eps == pytest.approx(oracle, rel=1e-12)
        assert eps == pytest.approx(6.309, abs=2e-3)
        assert delta == pytest.approx(100e-8 + 1e-6)

    def test_monotone_in_m(self):
        vals = [advanced_composition(0.2, 1e-9, m, 1e-7)[0] for m in range(1, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_lemma_hypothesis(self):
        with pytest.raises(ValueError):
            advanced_composition(1.5, 1e-8, 10, 1e-6)


class TestJointBounds:
    def test_leading_terms_match_headlines(self):
        p = make_policy(eps=1.0)
        assert acc.joint_epsilon_upper(p, 10).leading == pytest.approx(math.sqrt(10))
        assert acc.joint_epsilon_upper(p, 50).leading == pytest.approx(math.sqrt(50))

    def test_per_account_recovery(self):
        p = make_policy(eps=1.0)
        assert acc.joint_epsilon_upper(p, 1).leading == pytest.approx(1.0, rel=1e-12)
        assert acc.joint_epsilon_rdp(p, 1).leading == pytest.approx(1.0, rel=1e-12)

    def test_delta_joint(self):
        p = make_policy()
        b = acc.joint_epsilon_upper(p, 7, delta_slack=1e-5)
        assert b.delta == pytest.approx(1e-5 + 7e-6)

    def test_rdp_residual_quarter(self):
        for eps in (0.5, 1.0, 2.0, 4.0):
            for k in (1, 5, 20):
                p = make_policy(eps=eps)
                up = acc.joint_epsilon_upper(p, k)
                rd = acc.joint_epsilon_rdp(p, k)
                assert rd.residual / up.residual == pytest.approx(0.25, rel=1e-12)
                assert rd.leading == pytest.approx(up.leading, rel=1e-12)

    def test_rdp_worked_example(self):
        p = make_policy(eps=1.0)
        b = acc.joint_epsilon_rdp(p, 10)
        assert b.epsilon == pytest.approx(math.sqrt(10) + 10 / (4 * math.log(1e6)),
                                          rel=1e-9)
        assert b.epsilon == pytest.approx(3.343, abs=2e-3)

    @given(st.integers(min_value=2, max_value=100))
    def test_sqrt_k_scaling_exact(self, k):
        p = make_policy(eps=0.7)
        r = acc.joint_epsilon_upper(p, k).leading / acc.joint_epsilon_upper(p, 1).leading
        assert r == pytest.approx(math.sqrt(k), rel=1e-12)

    def test_k_domain(self):
        with pytest.raises(ValueError):
            acc.joint_epsilon_upper(make_policy(), 0)
        with pytest.raises(ValueError):
            acc.joint_epsilon_rdp(make_policy(), 0)


class TestRdpAccountant:
    def test_accumulate_linearity(self):
        state = acc.RdpState()
        for _ in range(7):
            state = acc.rdp_accumulate(state, 1.0, 5.0)
        for alpha in state.alpha_grid:
            assert state.rho_at(alpha) == pytest.approx(7 * alpha / 50.0, rel=1e-12)
        assert state.query_count == 7

    def test_empty_grid_noop(self):
        state = acc.RdpState(alpha_grid=())
        state = acc.rdp_accumulate(state, 1.0, 5.0)
        assert state.rho == {}
        with pytest.raises(ValueError):
            acc.rdp_to_dp(state, 1e-6)

    def test_functional_update(self):
        s0 = acc.RdpState()
        s1 = acc.rdp_accumulate(s0, 1.0, 5.0)
        assert s0.query_count == 0 and s1.query_count == 1

    def test_zero_divergence_floor(self):
        state = acc.RdpState()
        assert acc.rdp_to_dp(state, 1e-6) == pytest.approx(math.log(1e6) / 63)

    def test_single_update_grid_minimum(self):
        state = acc.rdp_accumulate(acc.RdpState(), 1.0, 10.0)
        # independent grid-minimization oracle
        oracle = min(a / 200.0 + math.log(1e6) / (a - 1) for a in range(2, 65))
        assert acc.rdp_to_dp(state, 1e-6) == pytest.approx(oracle, rel=1e-12)
        assert acc.rdp_to_dp(state, 1e-6) == pytest.approx(0.531, abs=2e-3)

    def test_grid_refinement_monotone(self):
        coarse = acc.RdpState(alpha_grid=(2, 8, 32))
        fine = acc.RdpState(alpha_grid=(2, 4, 8, 16, 32, 64))
        for _ in range(3):
            coarse = acc.rdp_accumulate(coarse, 1.0, 4.0)
            fine = acc.rdp_accumulate(fine, 1.0, 4.0)
        assert acc.rdp_to_dp(fine, 1e-6) <= acc.rdp_to_dp(coarse, 1e-6)

    def test_accumulated_vs_closed_forms(self):
        # kn Gaussian updates at the RDP-calibrated scale: the grid
        # accountant sits between the closed-form RDP bound (continuous
        # optimum, slightly below the grid minimum) and the
        # advanced-composition bound
        n = 100
        for k in (1, 2, 5, 10, 20, 50):
            for eps in (1.0, 2.0, 4.0):
                p = make_policy(eps=eps, n=n)
                sigma = acc.rdp_route_sigma(eps, p.delta_acc, n)
                state = acc.RdpState()
                step = 1.0 / (2 * sigma**2)
                state = acc.RdpState(
                    rho={a: k * n * a * step for a in state.alpha_grid},
                    query_count=k * n,
                )
                grid_eps = acc.rdp_to_dp(state, p.delta_acc)
                closed = acc.joint_epsilon_rdp(p, k).epsilon
                upper = acc.joint_epsilon_upper(p, k).epsilon
                assert closed <= grid_eps * (1 + 1e-9)
                # the grid minimum sits within a few percent of the
                # continuous optimum (worst at large sqrt(k)*eps where the
                # optimal order falls between grid points)
                assert grid_eps <= closed * 1.03 + 1e-9
                assert grid_eps <= upper + 1e-9


class TestMiaAndAuc:
    def test_lower_bound_value(self):
        p = make_policy(eps=1.0)
        b = mia_bounds(p, 1)
        oracle = (1 / math.sqrt(2 * math.pi)) / (
            4 * math.sqrt(math.log(1e6) * math.log(1.25e10))
        )
        assert b.adv_lower == pytest.approx(oracle, rel=1e-12)
        assert b.adv_lower == pytest.approx(0.00557, abs=5e-5)
        assert b.delta_term == pytest.approx(1e-6)

    def test_upper_vanishes_at_zero(self):
        p = make_policy(eps=1e-9)
        assert mia_bounds(p, 1).adv_upper == pytest.approx(0.0, abs=1e-9)

    def test_sandwich_on_grid(self):
        for k in (1, 2, 5, 10, 20, 50, 100):
            for eps in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
                b = mia_bounds(make_policy(eps=eps), k)
                assert b.adv_lower <= b.adv_upper

    def test_continuous_auc_dominates_binary_advantage(self):
        for k in (1, 2, 5):
            for eps in (0.05, 0.1, 0.2):
                if math.sqrt(k) * eps <= 1.0:
                    b = mia_bounds(make_policy(eps=eps), k)
                    assert b.adv_lower <= 2 * (b.auc_prediction - 0.5) + 1e-12

    def test_large_eps_uses_general_tanh(self):
        p = make_policy(eps=4.0)
        b = mia_bounds(p, 5)
        assert b.adv_upper == pytest.approx(
            math.tanh(0.5 * acc.joint_epsilon_upper(p, 5).epsilon), rel=1e-12
        )

    def test_auc_prediction_value(self):
        p = make_policy(eps=4.0)
        assert acc.auc_prediction(p, 10) == pytest.approx(0.5985, abs=1e-4)

    def test_auc_limits_and_monotonicity(self):
        p = make_policy(eps=2.0)
        assert acc.auc_prediction(p, 0) == pytest.approx(0.5)
        vals = [acc.auc_prediction(p, k) for k in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.5 <= v < 1 for v in vals)

    def test_two_forms_agree_under_calibration(self):
        for eps in (1.0, 2.0, 4.0):
            for k in (1, 5, 20):
                p = make_policy(eps=eps)
                via_eps = acc.auc_prediction(p, k)
                via_sigma = auc_prediction_sigma_form(1.0, p.sigma, k, p.n_queries)
                assert abs(via_eps - via_sigma) <= 1e-12


class TestEpsilonAudit:
    def test_headline_table(self):
        for k_max, eps, expected in ((10, 1.0, 3.16), (50, 1.0, 7.07),
                                     (50, 2.0, 14.14), (100, 1.0, 10.00)):
            p = make_policy(eps=eps, k_max=k_max, delta_policy=1e-3)
            headline, dp = acc.epsilon_audit(p, headline=True)
            assert round(headline, 2) == expected
            assert dp == p.delta_policy

    def test_degenerate_full_mode(self):
        p = make_policy(eps=1.0, k_max=1, delta_policy=2e-6)
        full, _ = acc.epsilon_audit(p)
        residual = acc.joint_epsilon_upper(p, 1).residual
        assert full == pytest.approx(1.0 + residual, rel=1e-12)

    def test_ill_formed_policy(self):
        with pytest.raises(ValueError):
            make_policy(k_max=100, delta_policy=5e-5)


def closed_form_epsilon_audit(policy):
    """The full-mode audit epsilon written out as one closed form, the
    reference ``epsilon_audit`` must match bit for bit."""
    delta_comp = policy.delta_policy - policy.k_max * policy.delta_acc
    log_acc = math.log(1.0 / policy.delta_acc)
    return (math.sqrt(policy.k_max) * policy.eps_acc
            * math.sqrt(math.log(1.0 / delta_comp) / log_acc)
            + policy.k_max * policy.eps_acc**2 / log_acc)


@st.composite
def valid_policies(draw):
    """Well-formed calibrated policies, delta_comp = delta_policy -
    k_max * delta_acc anywhere in (0, 1): below delta_acc too."""
    delta_acc = draw(st.floats(1e-12, 0.05))
    k_max = draw(st.integers(1, 200))
    floor = k_max * delta_acc
    if floor >= 1.0:
        k_max, floor = 1, delta_acc
    # delta_policy just above the floor (a residue-sized delta_comp) or anywhere up to 1
    delta_policy = draw(st.one_of(
        st.just(math.nextafter(floor, 1.0)),
        st.floats(floor, 1.0, exclude_min=True, exclude_max=True),
    ))
    return acc.PolicyParams.calibrated(
        draw(st.floats(1e-3, 50.0)), delta_acc, draw(st.integers(1, 10**6)),
        k_max, delta_policy)


class TestOneCompositionBound:
    """Equivalence gate: the audit epsilon issued through
    ``joint_epsilon_upper``, and sigma for a unit score gap, equal their
    closed forms with ``==``."""

    @settings(max_examples=300)
    @given(valid_policies())
    # the shipped audit policy: delta_comp = 1e-5 - 10 * 1e-6 is a rounding
    # residue of 1.69e-21, far below delta_acc
    @example(make_policy(k_max=10, delta_policy=1e-5))
    # delta_comp = delta_acc exactly
    @example(make_policy(k_max=1, delta_policy=2e-6))
    def test_epsilon_audit_matches_closed_form(self, policy):
        assert acc.epsilon_audit(policy)[0] == closed_form_epsilon_audit(policy)

    @settings(max_examples=300)
    @given(st.floats(1e-3, 50.0), st.floats(1e-12, 0.5), st.integers(1, 10**6))
    def test_sigma_matches_unit_gap_form(self, eps_acc, delta_acc, n):
        delta_q = delta_acc / n
        gap = 1.0
        oracle = gap * math.sqrt(
            2.0 * n * math.log(1.0 / delta_acc) * 2.0 * math.log(1.25 / delta_q)
        ) / eps_acc
        assert acc.calibrate_sigma(eps_acc, delta_acc, n) == oracle

    @given(valid_policies(), st.floats(sys.float_info.min, 1.0, exclude_max=True))
    def test_any_slack_in_open_unit_interval(self, policy, slack):
        # subnormal slacks are refused (below): they overflow 1/slack
        bound = acc.joint_epsilon_upper(policy, policy.k_max, slack)
        assert 0 < bound.epsilon < math.inf
        assert bound.delta == slack + policy.k_max * policy.delta_acc

    @pytest.mark.parametrize("slack", [0.0, 1.0, -1e-9, 1.5, math.nan, 5e-324,
                                       sys.float_info.min / 2])
    def test_slack_outside_open_unit_interval_rejected(self, slack):
        with pytest.raises(ValueError, match="delta_slack"):
            acc.joint_epsilon_upper(make_policy(), 3, slack)


@settings(max_examples=30)
@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.integers(min_value=1, max_value=50),
)
def test_pure_functions_are_deterministic(eps, k):
    p1 = make_policy(eps=eps)
    p2 = make_policy(eps=eps)
    assert acc.joint_epsilon_upper(p1, k) == acc.joint_epsilon_upper(p2, k)
    assert acc.auc_prediction(p1, k) == acc.auc_prediction(p2, k)
