"""Acceptance suite: one test per stated criterion.

Each heavy experiment is run once at its shipped default seed via a
module-scoped fixture and shared across the criteria that consume it, so
``pytest -v`` emits exactly one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import adversarial
from collusion_audit import accounting, attacks, audit, defaults, estimator
from collusion_audit.accounting import PolicyParams
from collusion_audit.attacks import SCALAR_GRID, TOPK_GRID, CoalitionConfig
from collusion_audit.audit import VerificationPlan, run_audit, sample_plan, zk_cost
from collusion_audit.encoding import sha256
from collusion_audit.estimator import EstimatorParams
from collusion_audit.harness import TenantIndex, random_unit_vectors
from collusion_audit import ledger as lg

SEEDS = defaults.EXPERIMENT_SEEDS
# master seed of the full_sim vs sufficient_stat equivalence runs
MODE_EQUIVALENCE_SEED = 1


@pytest.fixture(scope="module")
def scalar_sweep():
    cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N, adversary="pooled_mean")
    return attacks.run_sweep(SCALAR_GRID, cfg, defaults.SCALAR_TRIALS, "sufficient_stat",
                             SEEDS["scalar_sweep"])


@pytest.fixture(scope="module")
def topk_sweep():
    cfg = CoalitionConfig(k=1, n_per_account=defaults.TOPK_N, adversary="topk_hit")
    return attacks.run_sweep(TOPK_GRID, cfg, defaults.TOPK_TRIALS, "full_sim", SEEDS["topk_sweep"])


@pytest.fixture(scope="module")
def calibration_report():
    return estimator.calibrate(trials=200, seed=SEEDS["estimator_calibration"])


def policy_for(eps, k_max=100, n=defaults.SCALAR_N):
    return PolicyParams.calibrated(eps, defaults.DELTA_ACC, n, k_max, 1e-3)


def test_criterion_01_epsilon_audit_headline_table():
    expected = {(10, 1.0): 3.16, (50, 1.0): 7.07, (50, 2.0): 14.14, (100, 1.0): 10.00}
    for (k_max, eps), target in expected.items():
        policy = policy_for(eps, k_max=k_max)
        headline, delta = accounting.epsilon_audit(policy, headline=True)
        assert round(headline, 2) == target
        assert delta == policy.delta_policy


def test_criterion_02_scalar_sweep_matches_prediction(scalar_sweep):
    res = scalar_sweep
    within = 0
    for (k, eps) in SCALAR_GRID:
        dev = abs(res.auc[(k, eps)] - res.predicted[(k, eps)])
        within += dev <= 2 * res.delong_se[(k, eps)]
    assert within >= 13
    target_adv = {1: 0.061, 2: 0.077, 5: 0.125, 10: 0.192, 20: 0.275}
    for k, adv in target_adv.items():
        got = 2 * (res.auc[(k, 4.0)] - 0.5)
        assert abs(got - adv) <= 2 * (2 * res.delong_se[(k, 4.0)])


def test_criterion_03_gate_p1_slope_and_growth(scalar_sweep):
    rep = attacks.check_gates(scalar_sweep)
    assert rep.p1_slope > 0
    assert rep.p1_tstat > 2
    assert rep.p1_pass
    assert 3.5 <= rep.growth_factor <= 5.5


def test_criterion_04_topk_transfer(topk_sweep):
    res = topk_sweep
    for cell, target in (((1, 16.0), 0.598), ((20, 16.0), 0.814), ((20, 4.0), 0.611)):
        assert abs(res.auc[cell] - target) <= 3 * res.delong_se[cell]


def test_criterion_05_alternative_adversaries():
    seed = SEEDS["alt_adversaries"]
    pooled = attacks.run_sweep(
        SCALAR_GRID, CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N,
                                     adversary="pooled_mean"),
        2000, "sufficient_stat", seed)
    bayes = attacks.run_sweep(
        SCALAR_GRID, CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N,
                                     adversary="bayes_lr"),
        2000, "sufficient_stat", seed)
    for cell in SCALAR_GRID:
        assert abs(pooled.auc[cell] - bayes.auc[cell]) <= 1e-4
    for rho, target in ((0.5, 0.593), (0.25, 0.580)):
        cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N,
                              adversary="diversified", rho=rho)
        res = attacks.run_sweep([(20, 4.0)], cfg, 2000, "sufficient_stat", seed)
        assert abs(res.auc[(20, 4.0)] - target) <= 3 * res.delong_se[(20, 4.0)]


def test_criterion_06_external_vs_same_tenant():
    cfg = CoalitionConfig(k=1, n_per_account=defaults.TOPK_N, adversary="topk_hit")
    rows = attacks.external_vs_same(TOPK_GRID, 2000, SEEDS["external_vs_same"], cfg)
    assert len(rows) == 15
    for (k, eps, a_s, se_s, a_e, se_e, delta, comb) in rows:
        assert abs(delta) <= max(0.022, 2 * comb)


def test_criterion_07_estimator_calibration(calibration_report):
    rep = calibration_report
    for th in rep.theta_grid:
        if th <= 0.70 + 1e-9:
            assert rep.null_fpr[th] == 1.0
    assert rep.operating_theta == pytest.approx(0.80)
    assert rep.null_fpr[rep.operating_theta] <= 0.05
    for pattern in estimator.PATTERNS:
        for k in (2, 5, 10, 20):
            assert rep.tpr[(pattern, k)] == 1.0
            assert rep.khat_exact_rate[(pattern, k)] == 1.0


def test_criterion_08_rdp_residual_and_accountant():
    for eps in (1.0, 2.0, 4.0):
        policy = policy_for(eps)
        for k in (2, 10, 50):
            adv = accounting.joint_epsilon_upper(policy, k)
            rdp = accounting.joint_epsilon_rdp(policy, k)
            assert rdp.residual == pytest.approx(adv.residual / 4.0, rel=1e-12)
            state = accounting.RdpState()
            for _ in range(k):
                state = accounting.rdp_accumulate(state, 1.0,
                                                  accounting.rdp_route_sigma(
                                                      policy.eps_acc, policy.delta_acc,
                                                      policy.n_queries))
            grid_eps = accounting.rdp_to_dp(state, policy.delta_policy)
            closed = accounting.joint_epsilon_upper(policy, k,
                                                    policy.delta_policy).epsilon
            # the discrete alpha grid gives up at most a few percent
            assert grid_eps <= closed * 1.03 + 1e-9


def test_criterion_09_sampling_guarantee():
    plan = sample_plan(0.01, 2.0 ** -20)
    assert plan.s == 1387
    rng = np.random.default_rng(0)
    n, n_bad = 150_000, 1500
    detections = sum(
        bool(np.any(rng.choice(n, size=plan.s, replace=False) < n_bad))
        for _ in range(1000)
    )
    assert detections == 1000


def test_criterion_10_ledger_and_adversarial_mutations():
    # exhaustive inclusion and extension at N = 257
    led = lg.MerkleLedger()
    for i in range(257):
        led.append(lg.QueryRecord("a", "t", sha256(b"q%d" % i),
                                  sha256(b"k%d" % i), i + 1))
    for pos in range(257):
        proof = lg.prove_inclusion(led, pos)
        assert lg.verify_inclusion(led.root, len(led), led.leaf(pos), proof)
    for i in range(0, 258, 16):
        for j in range(i, 258):
            proof = lg.prove_extension(led, i, j)
            assert lg.verify_extension(led.root_at(i), i, led.root_at(j), j, proof)

    # six adversarial-provider mutations each FAIL on the right check
    def run_with(misbehavior, published_root=None):
        rng = np.random.default_rng(0)
        indices = [TenantIndex("tenant-a", random_unit_vectors(rng, 12, 16)),
                   TenantIndex("tenant-b", random_unit_vectors(rng, 12, 16))]
        policy = PolicyParams.calibrated(1.0, 1e-6, 5, 10, 1e-5)
        service = audit.AuditService(policy, indices, b"\x07" * 32)
        receipts = []
        for a in range(3):
            for _ in range(5):
                q = random_unit_vectors(rng, 1, 16)[0]
                _, rc = adversarial.attest_query(service, q, f"acct{a}", "tenant-a",
                                                 misbehavior)
                receipts.append((rc, service.public_key))
        adversarial.publish(service, misbehavior)
        return run_audit(service.ledger, service.commitments, policy, receipts,
                         EstimatorParams(0.80), VerificationPlan(mode="full"),
                         published_root=published_root)

    expected = {
        "wrong_sigma": "noise_derivation",
        "wrong_embedder_digest": "embedder_consistency",
        "select_then_noise": "noise_then_select",
        "cross_tenant_opening": "tenant_containment",
        "drop_receipted_record": "receipt_consistency",
    }
    for misbehavior, check in expected.items():
        verdict = run_with(misbehavior)
        assert verdict.status == "FAIL", misbehavior
        assert verdict.witnesses[0]["check"] == check, misbehavior
    verdict = run_with(None, published_root=sha256(b"inflated"))
    assert verdict.status == "FAIL"
    assert verdict.witnesses[0]["check"] == "ledger_extension"
    assert run_with(None).status == "PASS"


def test_criterion_11_zk_cost_model():
    for mode, points in audit._COST_TABLE.items():
        for N, constraints in points:
            est = zk_cost(mode, int(N))
            assert abs(est.constraints - constraints) / constraints <= 0.15
    opt = zk_cost("optimized", 100_000)
    assert opt.constraints == pytest.approx(8.8e6, rel=0.05)
    assert opt.prove_seconds == pytest.approx(8.8, rel=0.05)


def test_criterion_12_mode_equivalence():
    cfg = CoalitionConfig(k=5, n_per_account=100)
    full = attacks.run_sweep([(5, 4.0)], cfg, 2000, "full_sim", MODE_EQUIVALENCE_SEED)
    suff = attacks.run_sweep([(5, 4.0)], cfg, 2000,
                             "sufficient_stat", MODE_EQUIVALENCE_SEED + 1)
    cell = (5, 4.0)
    comb = math.sqrt(full.delong_se[cell] ** 2 + suff.delong_se[cell] ** 2)
    assert abs(full.auc[cell] - suff.auc[cell]) <= 2 * comb
    _, p = ks_2samp(full.stats[cell][0], suff.stats[cell][0])
    assert p > 0.01


def test_criterion_13_topk_mode_equivalence():
    cfg = CoalitionConfig(k=1, n_per_account=200, adversary="topk_hit")
    cell = (5, 16.0)
    full = attacks.run_sweep([cell], cfg, 2000, "full_sim", MODE_EQUIVALENCE_SEED)
    exact = attacks.run_sweep([cell], cfg, 2000,
                              "sufficient_stat", MODE_EQUIVALENCE_SEED + 1)
    comb = math.sqrt(full.delong_se[cell] ** 2 + exact.delong_se[cell] ** 2)
    assert abs(full.auc[cell] - exact.auc[cell]) <= 2 * comb
    for arm in (0, 1):  # in-arm and out-arm hit counts
        _, p = ks_2samp(full.stats[cell][arm], exact.stats[cell][arm])
        assert p > 0.01
