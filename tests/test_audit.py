import math

import numpy as np
import pytest

from collusion_audit import audit
from collusion_audit.accounting import PolicyParams
from collusion_audit.audit import (
    AuditService,
    VerificationPlan,
    attest_query,
    run_audit,
    sample_plan,
    verify_record,
    zk_cost,
)
from collusion_audit.encoding import sha256
from collusion_audit.estimator import EstimatorParams
from collusion_audit.harness import TenantIndex, random_unit_vectors
from collusion_audit.ledger import load_ledger, save_ledger

EST_PARAMS = EstimatorParams(theta=0.80)


def make_policy(eps=1.0, n=5, k_max=10):
    return PolicyParams.calibrated(eps, 1e-6, n, k_max, 1e-5)


def make_service(policy=None, misbehavior=None, seed=0, d=16, docs=12):
    rng = np.random.default_rng(seed)
    indices = [
        TenantIndex("tenant-a", random_unit_vectors(rng, docs, d)),
        TenantIndex("tenant-b", random_unit_vectors(rng, docs, d)),
    ]
    return AuditService(policy or make_policy(), indices, b"\x07" * 32,
                        misbehavior=misbehavior)


def serve_window(service, n_accounts=3, queries_per_account=5, d=16, seed=1):
    """Honest accounts issuing iid queries; returns (receipt, pk) pairs."""
    rng = np.random.default_rng(seed)
    receipts = []
    for a in range(n_accounts):
        tenant = "tenant-a" if a % 2 == 0 else "tenant-b"
        for _ in range(queries_per_account):
            q = random_unit_vectors(rng, 1, d)[0]
            _, receipt = attest_query(service, q, f"acct{a}", tenant)
            receipts.append((receipt, service.public_key))
    return receipts


FULL = VerificationPlan(mode="full")


class TestSamplePlan:
    def test_reference_size(self):
        plan = sample_plan(0.01, 2.0 ** -20)
        assert plan.s == 1387
        assert plan.s == math.ceil(math.log(2.0 ** 20) / 0.01)

    def test_beta_one(self):
        assert sample_plan(1.0, 0.5).s == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_plan(0.0, 0.5)
        with pytest.raises(ValueError):
            sample_plan(0.5, 1.0)

    def test_undersized_plan_rejected(self):
        with pytest.raises(ValueError):
            VerificationPlan(mode="sampled", s=100, beta=0.01, eta=2.0 ** -20)

    def test_detection_guarantee_simulation(self):
        # abstract index sampling: a beta-fraction of a large window is
        # violating; s samples must catch one in every one of 1000 runs
        plan = sample_plan(0.01, 2.0 ** -20)
        n = 150_000
        n_bad = int(0.01 * n)
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(1000):
            sample = rng.choice(n, size=plan.s, replace=False)
            hits += int(np.any(sample < n_bad))
        assert hits == 1000


class TestHonestAudit:
    def test_end_to_end_pass(self):
        service = make_service()
        receipts = serve_window(service)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert verdict.checks["commitment_integrity"] == "ok"
        assert verdict.checks["record_claims"] == "ok"
        assert verdict.checks["ledger_extension"] == "ok"
        assert verdict.checks["receipt_consistency"] == "ok"
        assert verdict.checks["policy_cap"] == "ok"
        assert verdict.eps_audit_headline == pytest.approx(math.sqrt(10), abs=5e-3)
        assert verdict.eps_audit_full is not None
        # the full bound carries the residual composition term on top of
        # the leading sqrt(k_max) headline
        assert verdict.eps_audit_full >= verdict.eps_audit_headline

    def test_verdict_deterministic(self):
        service = make_service()
        receipts = serve_window(service)
        a = run_audit(service.ledger, service.commitments, service.policy,
                      receipts, EST_PARAMS, FULL)
        b = run_audit(service.ledger, service.commitments, service.policy,
                      receipts, EST_PARAMS, FULL)
        assert a.to_json_dict() == b.to_json_dict()

    def test_every_claim_ok_per_record(self):
        service = make_service()
        serve_window(service)
        for rec in service.ledger.records:
            claims = verify_record(rec, service.commitments, service.policy)
            assert all(v == "ok" for v in claims.values())

    def test_sampled_mode_passes(self):
        service = make_service()
        receipts = serve_window(service)
        plan = VerificationPlan(mode="sampled", s=5, beta=0.9, eta=0.05)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, plan, seed=4)
        assert verdict.status == "PASS"
        assert verdict.sampled == {"s": 5, "beta": 0.9, "eta": 0.05}

    def test_reloaded_ledger_fails_with_witness(self, tmp_path):
        # persistence keeps records and roots but not the attestation
        # witnesses, so the claims cannot be re-executed
        service = make_service()
        receipts = serve_window(service)
        path = tmp_path / "ledger.bin"
        save_ledger(service.ledger, path)
        reloaded = load_ledger(path)
        assert reloaded.root == service.ledger.root
        verdict = run_audit(reloaded, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses == [{
            "check": "embedder_consistency",
            "witness": "record 0: record carries no attestation witness",
        }]


class TestAdversarialProvider:
    """Each provider mutation must FAIL with a witness on the right check."""

    @pytest.mark.parametrize("misbehavior,check", [
        ("wrong_sigma", "noise_derivation"),
        ("wrong_embedder_digest", "embedder_consistency"),
        ("select_then_noise", "noise_then_select"),
        ("cross_tenant_opening", "tenant_containment"),
        ("drop_receipted_record", "receipt_consistency"),
    ])
    def test_mutation_battery(self, misbehavior, check):
        service = make_service(misbehavior=misbehavior)
        receipts = serve_window(service)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses
        assert verdict.witnesses[0]["check"] == check
        assert verdict.eps_audit_headline is None
        assert verdict.eps_audit_full is None

    def test_inflated_ledger_root(self):
        service = make_service()
        receipts = serve_window(service)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL,
                            published_root=sha256(b"inflated"))
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "ledger_extension"

    def test_policy_cap_violation(self):
        # 12 colluding accounts replaying one probe against k_max = 10
        service = make_service(policy=make_policy(n=1, k_max=10))
        rng = np.random.default_rng(9)
        probe = random_unit_vectors(rng, 1, 16)[0]
        receipts = []
        for a in range(12):
            _, receipt = attest_query(service, probe, f"colluder{a}", "tenant-a")
            receipts.append((receipt, service.public_key))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "policy_cap"
        assert "12" in verdict.witnesses[0]["witness"]

    def test_wrong_policy_commitment(self):
        service = make_service()
        receipts = serve_window(service)
        other = make_policy(eps=2.0)
        verdict = run_audit(service.ledger, service.commitments, other,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "commitment_integrity"


class TestZkCost:
    def test_reference_table_within_tolerance(self):
        for mode, points in audit._COST_TABLE.items():
            for N, constraints in points:
                est = zk_cost(mode, int(N))
                assert abs(est.constraints - constraints) / constraints <= 0.15

    def test_optimized_1e5(self):
        est = zk_cost("optimized", 100_000)
        assert est.constraints == pytest.approx(8.8e6, rel=0.05)
        assert est.prove_seconds == pytest.approx(8.8, rel=0.05)
        assert est.setup_seconds == pytest.approx(est.prove_seconds / 2)
        assert est.verify_ms == 8.0

    def test_sumcheck_ops(self):
        est = zk_cost("optimized", 1024, d=384)
        assert est.sumcheck_field_ops == 384 * 10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zk_cost("quantum", 100)
        with pytest.raises(ValueError):
            zk_cost("naive", 0)

    def test_naive_dominates_optimized(self):
        for N in (1_000, 10_000, 100_000, 1_000_000):
            assert zk_cost("naive", N).constraints > zk_cost("optimized", N).constraints
