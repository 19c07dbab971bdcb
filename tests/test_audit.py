import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adversarial
from adversarial import rewrite_witnesses
from collusion_audit import audit, defaults, harness, ledger
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
from collusion_audit.encoding import hash_fields, sha256
from collusion_audit.estimator import EstimatorParams
from collusion_audit.harness import (
    NOISE_DERIVATION,
    NoiseSeedRecord,
    TenantIndex,
    derive_noise_block,
    random_unit_vectors,
)
from collusion_audit.ledger import (
    MerkleLedger,
    issue_receipt,
    load_ledger,
    record_core_digest,
    save_ledger,
)

EST_PARAMS = EstimatorParams(theta=0.80)


def make_policy(eps=1.0, n=5, k_max=10):
    return PolicyParams.calibrated(eps, 1e-6, n, k_max, 1e-5)


def make_service(policy=None, seed=0, d=16, docs=12):
    rng = np.random.default_rng(seed)
    indices = [
        TenantIndex("tenant-a", random_unit_vectors(rng, docs, d)),
        TenantIndex("tenant-b", random_unit_vectors(rng, docs, d)),
    ]
    return AuditService(policy or make_policy(), indices, b"\x07" * 32)


def serve_window(service, n_accounts=3, queries_per_account=5, d=16, seed=1,
                 misbehavior=None):
    """Accounts issuing iid queries to a provider that is honest unless
    ``misbehavior`` names a fault of ``adversarial``; returns (receipt,
    pk) pairs."""
    rng = np.random.default_rng(seed)
    receipts = []
    for a in range(n_accounts):
        tenant = "tenant-a" if a % 2 == 0 else "tenant-b"
        for _ in range(queries_per_account):
            q = random_unit_vectors(rng, 1, d)[0]
            _, receipt = adversarial.attest_query(service, q, f"acct{a}", tenant,
                                                  misbehavior)
            receipts.append((receipt, service.public_key))
    adversarial.publish(service, misbehavior)
    return receipts


FULL = VerificationPlan(mode="full")

BLOB_FIELDS = [f.name for f in dataclasses.fields(audit.AttestationBlob)]
WINDOW_FIELDS = [f.name for f in dataclasses.fields(audit.WindowWitness)]
# every field of the witness, and the record's own entry in the openings
WITNESS_FIELDS = [*BLOB_FIELDS, *WINDOW_FIELDS, "opened_embeddings"]


def witness_value(blob, tenant_id, field):
    """A field of ``blob`` or of its window, or, for "opened_embeddings",
    the window's opening of ``tenant_id``."""
    if field == "opened_embeddings":
        return blob.window.openings[tenant_id]
    return getattr(blob.window if field in WINDOW_FIELDS else blob, field)


def edit_witness(blob, tenant_id, field, value):
    """``blob`` with ``field`` (as :func:`witness_value` reads it) set to
    ``value``; a window edit makes a new window, which the other records
    of the window do not share."""
    if field == "opened_embeddings":
        field, value = "openings", {**blob.window.openings, tenant_id: value}
    if field in WINDOW_FIELDS:
        return dataclasses.replace(blob, window=dataclasses.replace(
            blob.window, **{field: value}))
    return dataclasses.replace(blob, **{field: value})


def topk_digest(service, rec, K, sigma):
    """``rec``'s top-K digest re-executed at K and sigma."""
    core = record_core_digest(rec.account_id, rec.tenant_id, rec.query_digest,
                              rec.timestamp)
    return audit.noise_then_select(
        service.witness.openings[rec.tenant_id], rec.tenant_id, rec.attestation.query_vector,
        K, NoiseSeedRecord(service.witness.window_seed, core, sigma))


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
        with pytest.raises(ValueError):
            VerificationPlan(mode="sampled", s=5, beta=0.0, eta=0.5)

    def test_undersized_plan_rejected(self):
        with pytest.raises(ValueError):
            VerificationPlan(mode="sampled", s=100, beta=0.01, eta=2.0 ** -20)

    def test_fractional_sample_size_rejected(self):
        # large enough for the guarantee, but rng.choice takes no 20.5
        with pytest.raises(ValueError, match="integer"):
            VerificationPlan(mode="sampled", s=20.5, beta=0.5, eta=0.01)

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

    def test_one_account_one_query_window_passes(self):
        service = make_service(policy=make_policy(n=1))
        receipts = serve_window(service, n_accounts=1, queries_per_account=1)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"

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

    def test_committed_top_k_is_served_and_verified(self):
        # no K is passed anywhere: both sides read the policy's top_k
        service = make_service(policy=PolicyParams.calibrated(1.0, 1e-6, 5, 10, 1e-5,
                                                              top_k=3))
        receipts = serve_window(service)
        rec = service.ledger.record(0)
        assert rec.topk_digest == topk_digest(service, rec, 3, service.policy.sigma)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"

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
        service = make_service()
        receipts = serve_window(service, misbehavior=misbehavior)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses
        assert verdict.witnesses[0]["check"] == check
        assert verdict.eps_audit_headline is None
        assert verdict.eps_audit_full is None

    def test_select_then_noise_publishes_the_clean_top_k(self):
        # the fault is in the serving, not only in the witness
        service = make_service()
        serve_window(service, misbehavior="select_then_noise")
        K, records = service.policy.top_k, service.ledger.records
        assert all(topk_digest(service, rec, K, 0.0) == rec.topk_digest for rec in records)
        assert any(topk_digest(service, rec, K, service.policy.sigma) != rec.topk_digest
                   for rec in records)

    def test_top_k_other_than_committed(self):
        # commits top_k = 5 and serves every query at K = 3
        service = make_service()
        committed = service.policy
        service.policy = dataclasses.replace(committed, top_k=3)
        receipts = serve_window(service)
        verdict = run_audit(service.ledger, service.commitments, committed,
                            receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{
            "check": "noise_then_select",
            "witness": "record 0: re-executed noise-then-select top-K differs "
                       "from ledger digest"}]

    def test_inflated_ledger_root(self):
        service = make_service()
        receipts = serve_window(service)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL,
                            published_root=sha256(b"inflated"))
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "ledger_extension"
        # an earlier snapshot of the same ledger is not its root either
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL,
                            published_root=service.ledger.root_at(7))
        assert verdict.witnesses == [{"check": "ledger_extension",
                                      "witness": "published root is not the audited "
                                                 "ledger's root"}]

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

    def test_coalition_recorded_under_one_account(self):
        # the 12 colluders above, all recorded under acct0 so the cap sees
        # one account, each handed a receipt signed under its own id
        service = make_service(policy=make_policy(n=1, k_max=10))
        probe = random_unit_vectors(np.random.default_rng(9), 1, 16)[0]
        receipts = []
        for a in range(12):
            record, receipt = attest_query(service, probe, "acct0", "tenant-a")
            relabelled = issue_receipt(dataclasses.replace(record, account_id=f"colluder{a}"),
                                       receipt.leaf_position, receipt.ledger_root_at_issue,
                                       service.signing_key)
            receipts.append((relabelled, service.public_key))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{
            "check": "receipt_consistency",
            "witness": "forgery_witness: ledger record account differs from receipt"}]
        assert verdict.eps_audit_headline is None

    def test_wrong_policy_commitment(self):
        service = make_service()
        receipts = serve_window(service)
        other = make_policy(eps=2.0)
        verdict = run_audit(service.ledger, service.commitments, other,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "commitment_integrity"

    def test_commitments_published_after_window_opened(self):
        service = make_service()
        receipts = serve_window(service)
        late = dataclasses.replace(service.commitments,
                                   published_at=service.ledger.record(0).timestamp)
        verdict = run_audit(service.ledger, late, service.policy, receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{"check": "commitment_integrity",
                                      "witness": "commitments published after window opened"}]

    def test_noise_derivation_is_committed(self):
        # a c_policy that does not name the noise derivation (the form
        # before noise-v2), or names it but not top_k (the form before
        # policy-v2), is another policy, not a silent switch
        service = make_service()
        receipts = serve_window(service)
        p = service.policy
        fields = (p.eps_acc, p.delta_acc, p.sigma, p.k_max, p.delta_policy, p.window_id)
        for old_form in (fields, (NOISE_DERIVATION, *fields)):
            old = dataclasses.replace(service.commitments, c_policy=hash_fields(*old_form))
            verdict = run_audit(service.ledger, old, p, receipts, EST_PARAMS, FULL)
            assert verdict.status == "FAIL"
            assert verdict.witnesses == [{"check": "commitment_integrity",
                                          "witness": "policy digest mismatch"}]
            claims = verify_record(service.ledger.record(0), old, p)
            assert claims["noise_derivation"] == "policy does not match c_policy"


class TestAdaptiveCoalition:
    """``policy_cap`` bounds non-adaptive coalitions only: 20 colluders
    against k_max = 10, each sending one probe at cosine c = 0.85 to the
    target, pairwise c^2 = 0.7225 below theta = 0.80. A robust coalition
    predicate has to turn the xfail into a pass on purpose."""

    def audit(self, colluder_queries):
        rng = np.random.default_rng(21)
        service = AuditService(make_policy(n=1, k_max=10),
                               [TenantIndex("victim", random_unit_vectors(rng, 64, 32))],
                               b"\x07" * 32)
        honest = random_unit_vectors(rng, 10, 32)
        queries = [(f"colluder{a}", q) for a, q in enumerate(colluder_queries)]
        queries += [(f"honest{a}", q) for a, q in enumerate(honest)]
        receipts = []
        for account, q in queries:
            _, receipt = attest_query(service, q, account, "victim")
            receipts.append((receipt, service.public_key))
        return run_audit(service.ledger, service.commitments, service.policy,
                         receipts, EST_PARAMS, FULL)

    def target(self):
        return random_unit_vectors(np.random.default_rng(5), 1, 32)[0]

    def test_replayed_target_fails_policy_cap(self):
        verdict = self.audit([self.target()] * 20)
        assert verdict.witnesses == [{
            "check": "policy_cap",
            "witness": "cluster of 20 accounts exceeds k_max=10"}]

    def probes(self):
        return adversarial.orthogonal_probes(np.random.default_rng(6), self.target(), 20,
                                             0.85)

    def test_probes_sit_below_theta(self):
        probes = self.probes()
        gram = probes @ probes.T
        assert np.allclose(np.diag(gram), 1.0)
        assert np.allclose(gram[~np.eye(20, dtype=bool)], 0.85**2)
        assert np.allclose(probes @ self.target(), 0.85)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="policy_cap bounds non-adaptive coalitions only")
    def test_orthogonal_probes_fail_policy_cap(self):
        verdict = self.audit(self.probes())
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "policy_cap"


class TestQueryBinding:
    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_swapped_query_vectors_fail_in_sampled_mode(self, seed):
        # 12 accounts replay one probe against k_max = 10; the provider
        # hides the coalition from the estimator by swapping every
        # witness query vector for a random one, and the one sampled
        # record still re-executes (the noise dominates the scores)
        service = make_service(policy=make_policy(n=1, k_max=10))
        probe = random_unit_vectors(np.random.default_rng(9), 1, 16)[0]
        receipts = []
        for a in range(12):
            _, receipt = attest_query(service, probe, f"colluder{a}", "tenant-a")
            receipts.append((receipt, service.public_key))
        rng = np.random.default_rng(seed)
        swapped = rewrite_witnesses(service.ledger, lambda pos, blob: dataclasses.replace(
            blob, query_vector=random_unit_vectors(rng, 1, 16)[0]))
        plan = VerificationPlan(mode="sampled", s=1, beta=1.0, eta=0.5)
        verdict = run_audit(swapped, service.commitments, service.policy,
                            receipts, EST_PARAMS, plan, seed=seed)
        assert verdict.status == "FAIL"
        assert verdict.witnesses[0]["check"] == "embedder_consistency"
        assert verdict.witnesses[0]["witness"].startswith("record ")
        assert "query digest" in verdict.witnesses[0]["witness"]

    def test_missing_query_vector_is_not_skipped(self):
        service = make_service()
        receipts = serve_window(service)
        stripped = rewrite_witnesses(service.ledger, lambda pos, blob: (
            dataclasses.replace(blob, query_vector=None) if pos == 7 else blob))
        plan = VerificationPlan(mode="sampled", s=1, beta=1.0, eta=0.5)
        verdict = run_audit(stripped, service.commitments, service.policy,
                            receipts, EST_PARAMS, plan, seed=0)
        assert verdict.witnesses == [{
            "check": "embedder_consistency",
            "witness": "record 7: no query vector witness",
        }]


class TestMalformedWitness:
    """A malformed witness yields a named witness, never an exception."""

    @pytest.mark.parametrize("field,value,check,witness", [
        ("query_vector", None, "noise_then_select",
         "witness query vector is missing or not of the index dimension"),
        ("query_vector", np.full(17, 17 ** -0.5), "noise_then_select",
         "witness query vector is missing or not of the index dimension"),
        ("opened_embeddings", None, "tenant_containment",
         "opened embeddings are not an (N, d) array"),
        ("opened_embeddings", np.full(16, 0.25), "tenant_containment",
         "opened embeddings are not an (N, d) array"),
        ("window_seed", None, "noise_derivation",
         "witness seed inconsistent with c_seed"),
    ])
    def test_run_audit_names_the_claim(self, field, value, check, witness):
        # record 4 alone refers to the edited witness; for a window field
        # that is a forged window, the other records keep the served one
        service = make_service()
        receipts = serve_window(service)
        tenant = service.ledger.record(4).tenant_id
        broken = rewrite_witnesses(service.ledger, lambda pos, blob: (
            edit_witness(blob, tenant, field, value) if pos == 4 else blob))
        claims = verify_record(broken.record(4), service.commitments, service.policy)
        assert claims[check] == witness
        verdict = run_audit(broken, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{"check": check, "witness": f"record 4: {witness}"}]

    def test_scaled_committed_index_fails(self):
        # committed and served as scaled, so containment holds; the noise
        # is calibrated to unit-norm documents, so no epsilon is issued
        rng = np.random.default_rng(0)
        indices = [TenantIndex("tenant-a", random_unit_vectors(rng, 12, 16)),
                   TenantIndex("tenant-b", random_unit_vectors(rng, 12, 16))]
        indices[0].embeddings *= 2
        service = AuditService(make_policy(), indices, b"\x07" * 32)
        receipts = serve_window(service)
        claims = verify_record(service.ledger.record(0), service.commitments,
                               service.policy)
        assert claims["tenant_containment"] == "ok"
        assert claims["noise_then_select"] == "opened embeddings are not unit-norm"
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "FAIL"
        assert verdict.witnesses == [{
            "check": "noise_then_select",
            "witness": "record 0: opened embeddings are not unit-norm",
        }]
        assert verdict.eps_audit_headline is None

    def test_committed_seed_not_32_bytes(self):
        # c_seed commits to a 31-byte seed, which every record's window holds
        service = make_service()
        receipts = serve_window(service)
        seed = b"\x07" * 31
        commitments = dataclasses.replace(service.commitments, c_seed=sha256(seed))
        window = dataclasses.replace(service.witness, window_seed=seed)
        broken = rewrite_witnesses(service.ledger, lambda pos, blob: dataclasses.replace(
            blob, window=window))
        verdict = run_audit(broken, commitments, service.policy, receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{"check": "noise_derivation",
                                      "witness": "record 0: witness seed is not 32 bytes"}]

    def test_k_beyond_the_opened_index(self):
        # a policy committed to more documents than the index holds
        service = make_service(docs=12)
        serve_window(service)
        policy = dataclasses.replace(service.policy, top_k=13)
        commitments = dataclasses.replace(service.commitments,
                                          c_policy=ledger.policy_commitment(policy))
        claims = verify_record(service.ledger.record(0), commitments, policy)
        assert claims["noise_then_select"] == (
            "top_k=13 exceeds the opened index of 12 documents")

    @pytest.mark.parametrize("submit", [
        lambda receipt, pk: (dataclasses.replace(receipt, leaf_position=-1), pk),
        lambda receipt, pk: (dataclasses.replace(receipt, leaf_position=2 ** 64), pk),
        lambda receipt, pk: (dataclasses.replace(receipt, leaf_position=True), pk),
        lambda receipt, pk: (dataclasses.replace(receipt, signature="not bytes"), pk),
        lambda receipt, pk: (dataclasses.replace(receipt, account_id=None), pk),
        lambda receipt, pk: (None, pk),
        lambda receipt, pk: (receipt, None),
        lambda receipt, pk: (receipt, pk.public_bytes_raw()),
        lambda receipt, pk: receipt,
        lambda receipt, pk: (receipt,),
        lambda receipt, pk: (receipt, pk, pk),
        lambda receipt, pk: None,
    ], ids=["negative", "beyond-uint64", "bool", "str-signature", "none-account",
            "none-receipt", "none-key", "bytes-key", "bare-receipt", "1-tuple", "3-tuple",
            "none-entry"])
    def test_malformed_receipt(self, submit):
        # evidence that does not hold, or a key that is not the committed
        # one, is set aside and counted, not charged to the provider
        service = make_service()
        receipts = serve_window(service)
        receipts[3] = submit(*receipts[3])
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert verdict.receipts_rejected == 1
        assert verdict.checks["receipt_consistency"] == "ok"


def ref_verify_receipt(receipt, public_key, ledger_):
    """``ledger.verify_receipt`` as it was before receipts were checked as
    evidence: every receipt's signature first, under the key submitted
    with it, then the journal; any failure is a witness. The reference
    the evidence check is compared against."""
    if not isinstance(receipt, ledger.Receipt) or not isinstance(
            public_key, ledger.Ed25519PublicKey):
        return ledger.ReceiptCheck("forgery_witness", "malformed receipt: not a Receipt and an "
                                   f"Ed25519 key: {type(receipt).__name__}, "
                                   f"{type(public_key).__name__}")
    pos = receipt.leaf_position
    if not isinstance(receipt.signature, bytes):
        return ledger.ReceiptCheck("forgery_witness", "malformed receipt: signature is not bytes")
    if type(pos) is not int or not 0 <= pos < 2**64:
        return ledger.ReceiptCheck("forgery_witness",
                                   f"malformed receipt: leaf position {pos!r} is not a uint64")
    try:
        public_key.verify(receipt.signature, receipt.signed_payload())
    except ledger.InvalidSignature:
        return ledger.ReceiptCheck("forgery_witness", "bad signature")
    except (TypeError, ValueError) as exc:
        return ledger.ReceiptCheck("forgery_witness", f"malformed receipt: {exc}")
    if pos >= len(ledger_):
        return ledger.ReceiptCheck("non_inclusion_witness", "position beyond ledger")
    rec = ledger_.record(pos)
    if rec.query_digest != receipt.query_digest or rec.topk_digest != receipt.topk_digest:
        return ledger.ReceiptCheck("forgery_witness", "ledger record digest mismatch")
    if rec.account_id != receipt.account_id:
        return ledger.ReceiptCheck("forgery_witness", "ledger record account differs from receipt")
    if ledger_.root_at(pos + 1) != receipt.ledger_root_at_issue:
        return ledger.ReceiptCheck("forgery_witness", "root at issue inconsistent with ledger")
    return ledger.ReceiptCheck("consistent")


def ref_unsigned(check) -> bool:
    """Whether the reference turned the receipt down for its signature or
    its form, not for what the journal says."""
    return check.detail == "bad signature" or check.detail.startswith("malformed receipt")


# Values of a receipt field's type; digests and roots include those of
# other records, so that each journal check is reached.
def receipt_values(service, field):
    led = service.ledger
    n = len(led)
    return {
        "account_id": st.sampled_from(["", "acct0", "acct1", "acct2", "acct9"]),
        "query_digest": st.one_of(st.binary(min_size=32, max_size=32), st.sampled_from(
            [led.record(i).query_digest for i in range(n)])),
        "topk_digest": st.one_of(st.binary(min_size=32, max_size=32), st.sampled_from(
            [led.record(i).topk_digest for i in range(n)])),
        "leaf_position": st.one_of(st.integers(0, n + 1), st.integers(0, 2**64 - 1)),
        "ledger_root_at_issue": st.one_of(st.binary(min_size=32, max_size=32),
                                          st.sampled_from([led.root_at(i)
                                                           for i in range(n + 1)])),
        "signature": st.binary(min_size=64, max_size=64),
    }[field]


# Values no receipt field may hold: another type, a length other than 32
# bytes, an int beyond uint64, a str with no UTF-8 encoding.
WRONG_TYPES = [None, True, -1, 2**64, 1.5, "x", "\ud800", b"", b"\x00" * 31,
               bytearray(32), np.uint64(3)]


def wrong_values(field):
    """The values of WRONG_TYPES ``field`` may not hold: any encodable str
    is an account, and bytes of any length a signature."""
    if field == "account_id":
        return [v for v in WRONG_TYPES if v != "x"]
    if field == "signature":
        return [v for v in WRONG_TYPES if not isinstance(v, bytes)]
    return WRONG_TYPES


class TestReceiptEvidence:
    """A receipt is an account's evidence against the provider: only one
    that contradicts the journal under the committed key's valid
    signature FAILs the audit; others are set aside and counted."""

    @pytest.mark.parametrize("submitted", ["own", "committed"])
    def test_account_signed_receipt_is_rejected(self, submitted):
        # an account signs, with its own key, a receipt for a real record
        # whose root at issue is no snapshot; the reference charged it to
        # the provider
        service = make_service()
        receipts = serve_window(service)
        sk, own = ledger.generate_test_keypair(b"\x0a" * 32)
        receipt = issue_receipt(service.ledger.record(4), 4, sha256(b"no snapshot"), sk)
        assert ref_verify_receipt(receipt, own, service.ledger) == ledger.ReceiptCheck(
            "forgery_witness", "root at issue inconsistent with ledger")
        receipts.append((receipt, own if submitted == "own" else service.public_key))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert verdict.receipts_rejected == 1
        assert verdict.checks["receipt_consistency"] == "ok"

    def test_committed_key_that_does_not_load(self):
        service = make_service()
        receipts = serve_window(service)
        commitments = dataclasses.replace(service.commitments, c_receipt_key="k" * 32)
        verdict = run_audit(service.ledger, commitments, service.policy, receipts,
                            EST_PARAMS, FULL)
        (witness,) = verdict.witnesses
        assert witness["check"] == "commitment_integrity"
        assert witness["witness"].startswith("committed receipt key does not load: ")

    def test_receipts_under_another_committed_key(self):
        # the provider committed one key and signs with another: none of
        # its receipts counts as evidence, which is why an account checks
        # a receipt under c_receipt_key when it gets it
        service = make_service()
        receipts = serve_window(service)
        other = ledger.generate_test_keypair(b"\x0b" * 32)[1].public_bytes_raw()
        commitments = dataclasses.replace(service.commitments, c_receipt_key=other)
        verdict = run_audit(service.ledger, commitments, service.policy, receipts,
                            EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert verdict.receipts_rejected == len(receipts)

    def test_signature_checks_only_on_contradicting_receipts(self, monkeypatch):
        calls = []
        valid = ledger._signature_valid  # the one place the ledger verifies
        monkeypatch.setattr(ledger, "_signature_valid",
                            lambda *args: calls.append(1) or valid(*args))
        service = make_service()
        receipts, pk = serve_window(service), service.public_key
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS" and verdict.receipts_rejected == 0
        assert calls == []
        # three forked receipts the key never signed, then one it signed
        fork = sha256(b"forked root")
        unsigned = [(dataclasses.replace(r, ledger_root_at_issue=fork), pk)
                    for r, _ in receipts[:3]]
        signed = issue_receipt(service.ledger.record(5), 5, fork, service.signing_key)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            [*receipts, *unsigned, (signed, pk)], EST_PARAMS, FULL)
        assert verdict.receipts_rejected == 3
        assert verdict.witnesses == [{
            "check": "receipt_consistency",
            "witness": "forgery_witness: root at issue inconsistent with ledger"}]
        assert len(calls) == 4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pos=st.integers(0, 14),
           field=st.sampled_from([f.name for f in dataclasses.fields(ledger.Receipt)]),
           wrong_type=st.booleans(), signer=st.sampled_from([None, "committed", "other"]))
    def test_matches_reference_where_the_signature_holds(self, data, pos, field,
                                                         wrong_type, signer):
        service, honest = honest_window()
        receipts = list(honest)
        receipt, pk = receipts[pos]
        value = data.draw(st.sampled_from(wrong_values(field)) if wrong_type
                          else receipt_values(service, field))
        receipt = dataclasses.replace(receipt, **{field: value})
        if signer is not None and field != "signature":
            key = (service.signing_key if signer == "committed"
                   else ledger.generate_test_keypair(b"\x0a" * 32)[0])
            try:
                receipt = dataclasses.replace(receipt,
                                              signature=key.sign(receipt.signed_payload()))
            except (TypeError, ValueError, OverflowError):  # no canonical encoding
                pass
        try:
            ref = ref_verify_receipt(receipt, pk, service.ledger)
        except OverflowError:  # the reference raises on an int account beyond uint64
            ref = ledger.ReceiptCheck("forgery_witness", "malformed receipt: overflow")
        new = ledger.verify_receipt(receipt, pk, service.ledger)
        if ref_unsigned(ref):
            assert new.status in ("consistent", "rejected")
        elif wrong_type:
            # signed, but a field without its type is no evidence
            assert new.status == "rejected"
        else:
            assert new == ref
        receipts[pos] = (receipt, pk)
        verdict = run_audit(service.ledger, service.commitments, service.policy, receipts,
                            EST_PARAMS, FULL)
        assert_named_verdict(verdict)
        if new.status in ("consistent", "rejected"):
            assert verdict.status == "PASS"
            assert verdict.receipts_rejected == (new.status == "rejected")
        else:
            assert verdict.witnesses == [{"check": "receipt_consistency",
                                          "witness": f"{new.status}: {new.detail}"}]


class TestIndexRootMemo:
    """An audit checks each window witness once and each tenant opening
    once, when a verified record names it; a forged window is another
    object and gets its own check."""

    def test_forged_opening_after_honest_records(self):
        # tenant-a's opening in the served window is already checked when
        # record 15's forged window is reached; it must be checked too
        service = make_service()
        receipts = serve_window(service)
        q = random_unit_vectors(np.random.default_rng(5), 1, 16)[0]
        _, receipt = attest_query(service, q, "acct0", "tenant-a")
        receipts.append((receipt, service.public_key))
        window = adversarial.cross_tenant_opening(service.witness)
        forged = rewrite_witnesses(service.ledger, lambda pos, blob: (
            dataclasses.replace(blob, window=window) if pos == 15 else blob))
        verdict = run_audit(forged, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{
            "check": "tenant_containment",
            "witness": "record 15: opened embeddings do not match the tenant's committed root",
        }]

    def test_signed_zero_is_another_opening(self):
        # -0.0 == 0.0 by value, but the two hash differently: a check that
        # compared values would pass the forged opening on the honest root
        rng = np.random.default_rng(3)
        vectors = random_unit_vectors(rng, 12, 16)
        vectors[:, :4] = 0.0
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        indices = [TenantIndex("tenant-a", vectors),
                   TenantIndex("tenant-b", random_unit_vectors(rng, 12, 16))]
        service = AuditService(make_policy(), indices, b"\x07" * 32)
        receipts = serve_window(service)
        opening = vectors.copy()
        assert opening[3, 2] == 0.0 and math.copysign(1.0, opening[3, 2]) == 1.0
        opening[3, 2] = -0.0
        assert np.array_equal(opening, vectors)

        def flip_zero(pos, blob):
            if pos != 1:  # records 0-4 query tenant-a; record 0 stays honest
                return blob
            return edit_witness(blob, "tenant-a", "opened_embeddings", opening)

        forged = rewrite_witnesses(service.ledger, flip_zero)
        assert forged.record(0).tenant_id == forged.record(1).tenant_id == "tenant-a"
        verdict = run_audit(forged, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.witnesses == [{
            "check": "tenant_containment",
            "witness": "record 1: opened embeddings do not match the tenant's committed root",
        }]

    def test_one_root_build_per_opened_index(self, monkeypatch):
        service = make_service(docs=12)
        receipts = serve_window(service)  # 15 records over two tenants
        calls = []
        build = audit.index_root  # the binding verify_record uses
        monkeypatch.setattr(audit, "index_root",
                            lambda opened: calls.append(1) or build(opened))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert len(calls) == 2
        calls.clear()
        for pos in range(len(service.ledger)):  # no table: one build per call
            verify_record(service.ledger.record(pos), service.commitments, service.policy)
        assert len(calls) == 15

    def test_one_seed_hash_and_policy_digest_per_window(self, monkeypatch):
        service = make_service()
        receipts = serve_window(service)  # 15 records, one window
        seed, seed_hashes, policy_digests = service.witness.window_seed, [], []
        sha, commit = audit.sha256, ledger.policy_commitment  # the bindings audit uses
        monkeypatch.setattr(audit, "sha256", lambda data: (
            seed_hashes.append(1) if data == seed else None) or sha(data))
        monkeypatch.setattr(ledger, "policy_commitment",
                            lambda p: policy_digests.append(1) or commit(p))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        assert len(seed_hashes) == 1
        assert len(policy_digests) == 2  # run_audit's step 1, then the window's check


class TestDigestsPinned:
    def test_audit_e2e_window(self):
        # the audit_e2e window at seed 1, served as the CLI serves it: the
        # index commitment, the top-K digest and with them the ledger root
        # are pinned byte for byte
        rng = np.random.default_rng(1)
        policy = PolicyParams.calibrated(eps_acc=1.0, delta_acc=defaults.DELTA_ACC,
                                         n_queries=5, k_max=10, delta_policy=1e-5,
                                         window_id="W-e2e")
        indices = [TenantIndex("victim", random_unit_vectors(rng, 12, 16)),
                   TenantIndex("other", random_unit_vectors(rng, 8, 16))]
        service = AuditService(policy, indices,
                               bytes(rng.integers(0, 256, 32, dtype=np.uint8)))
        for a in range(3):
            for _ in range(5):
                attest_query(service, random_unit_vectors(rng, 1, 16)[0], f"acct{a}",
                             "victim")
        assert service.ledger.root.hex() == (
            "22a07988fc4c530eb5684a0d8bade876bdca9da1c3bcbfda0b801eb5de6a1a68")
        assert service.commitments.c_idx["victim"].hex() == (
            "46cd31a5d4bf8e9e0bdc5ddf8599581dc336de8eea538d388dc98ebbd47581ed")
        assert service.ledger.record(0).topk_digest.hex() == (
            "5567c3070b10b7d1bf793647b3ca8b37c6358ec53fda4c4a80e555de493a2cd0")
        assert service.commitments.c_policy.hex() == (
            "562f2bddf0ade7c26e85527c68a10baa0d24257d9d7e7362c3061fc88c346361")

    def test_fail_verdict_json(self):
        # one verdict of the mutation battery, serialised as the CLI writes
        # verdict.json
        service = make_service()
        receipts = serve_window(service, misbehavior="drop_receipted_record")
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert json.dumps(verdict.to_json_dict(), indent=2, sort_keys=True) == (
            '{\n  "checks": {\n    "commitment_integrity": "ok",\n'
            '    "ledger_extension": "ok",\n'
            '    "receipt_consistency": "non_inclusion_witness: position beyond ledger",\n'
            '    "record_claims": "ok"\n  },\n  "delta_policy": 1e-05,\n'
            '  "eps_audit_full": null,\n  "eps_audit_headline": null,\n'
            '  "k_max": 10,\n  "receipts_rejected": 0,\n  "sampled": null,\n'
            '  "status": "FAIL",\n'
            '  "witnesses": [\n    {\n      "check": "receipt_consistency",\n'
            '      "witness": "non_inclusion_witness: position beyond ledger"\n'
            '    }\n  ]\n}')


class TestFilteredTopK:
    """Tenants of 300 documents, above ``harness._FILTER_MIN_N``: serving
    and the audit's re-execution both rank through the filtered top K."""

    DOCS = 300

    def reference_order(self, service, rec):
        """``rec``'s positions by noisy score from ``derive_noise_block``
        over every document, stable-sorted: the unfiltered relation."""
        core = record_core_digest(rec.account_id, rec.tenant_id, rec.query_digest,
                                  rec.timestamp)
        embeddings = service.witness.openings[rec.tenant_id]
        noise = derive_noise_block(service.witness.window_seed, core, len(embeddings),
                                   service.policy.sigma)
        noisy = embeddings @ rec.attestation.query_vector + noise
        return np.argsort(-noisy, kind="stable").tolist()

    @staticmethod
    def digest(tenant_id, positions):
        return hash_fields("topk", *positions, *(f"{tenant_id}/doc{p}" for p in positions))

    def test_honest_window_passes(self):
        assert harness._FILTER_MIN_N < self.DOCS
        service = make_service(docs=self.DOCS)
        receipts = serve_window(service)
        K = service.policy.top_k
        for rec in service.ledger.records:
            top = self.reference_order(service, rec)[:K]
            assert rec.topk_digest == self.digest(rec.tenant_id, top)
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"
        # the served positions are in the leaves: a change in what the
        # filter selects moves the root
        assert service.ledger.root.hex() == (
            "8692f05df860503e06a59b145d6fb0832a462448dbac0afc15eee65017b84859")

    def test_forged_topk_digest_fails(self):
        # the honest top K with its K-th position swapped for the (K+1)-th
        service = make_service(docs=self.DOCS)
        receipts = serve_window(service)
        K, last = service.policy.top_k, len(service.ledger) - 1
        forged = MerkleLedger()
        for pos, rec in enumerate(service.ledger.records):
            if pos == last:
                order = self.reference_order(service, rec)
                rec = dataclasses.replace(rec, topk_digest=self.digest(
                    rec.tenant_id, [*order[:K - 1], order[K]]))
            forged.append(rec)
        verdict = run_audit(forged, service.commitments, service.policy, receipts,
                            EST_PARAMS, FULL)
        assert verdict.witnesses == [{
            "check": "noise_then_select",
            "witness": f"record {last}: re-executed noise-then-select top-K differs "
                       "from ledger digest"}]


class TestUnusualEstimatorInputs:
    """Valid but unusual windows reach the estimator and get a verdict."""

    def test_non_unit_query(self):
        service = make_service()
        receipts = serve_window(service)
        q = 2.0 * random_unit_vectors(np.random.default_rng(5), 1, 16)[0]
        _, receipt = attest_query(service, q, "acct9", "tenant-a")
        receipts.append((receipt, service.public_key))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"

    def test_tenants_of_different_dimension(self):
        rng = np.random.default_rng(0)
        indices = [TenantIndex("wide", random_unit_vectors(rng, 12, 16)),
                   TenantIndex("narrow", random_unit_vectors(rng, 12, 8))]
        service = AuditService(make_policy(), indices, b"\x07" * 32)
        receipts = []
        for tenant, d in (("wide", 16), ("narrow", 8)):
            _, receipt = attest_query(service, random_unit_vectors(rng, 1, d)[0],
                                      f"acct-{tenant}", tenant)
            receipts.append((receipt, service.public_key))
        verdict = run_audit(service.ledger, service.commitments, service.policy,
                            receipts, EST_PARAMS, FULL)
        assert verdict.status == "PASS"


@functools.cache
def honest_window():
    service = make_service()
    return service, tuple(serve_window(service))


def replacements(value) -> list:
    """None, values of the wrong type or shape, and, for an array, the
    array rescaled (a non-unit query), cut to another dimension, cut
    short, transposed, zeroed and cast."""
    out = [None, "x", 3, -1, 1.5, float("nan"), b"\x00" * 32, [1.0, 2.0],
           np.zeros(()), np.zeros((2, 2)), np.zeros(0), np.ones(17),
           np.full(16, np.nan), np.array(["a", "b"]), np.ones(16, dtype=bool),
           np.ones(16, dtype=complex)]
    if isinstance(value, np.ndarray):
        out += [2.0 * value, value[..., :8], value[:5], value.T, np.zeros_like(value),
                value.astype(np.float32), value.astype(int)]
    return out


# Values of the wrong type cannot be put in a ledger (the leaf hash has no
# encoding for them), so record fields get other values of their type.
RECORD_VALUES = {
    "account_id": st.sampled_from(["", "acct9", "acct1"]),
    "tenant_id": st.sampled_from(["", "tenant-b", "tenant-z"]),
    "query_digest": st.binary(min_size=32, max_size=32),
    "topk_digest": st.binary(min_size=32, max_size=32),
}
CHECKS = set(audit.CLAIMS) | {"commitment_integrity", "ledger_extension",
                              "receipt_consistency", "policy_cap"}


# Mutations that leave some receipt pointing off its record: re-signed at
# another position, with another position's root at issue, with another
# record's digests or with another record's account, or the ledger cut at
# the front or the back.
RECEIPT_MOVES = ("shifted_position", "other_root_at_issue", "other_record_digests",
                 "other_account", "front_cut", "back_cut")
# Mutations every receipt survives, so the window PASSes.
RECEIPT_SHUFFLES = ("receipts_reordered", "receipt_duplicated")
# Records re-timestamped: one re-appended, or all reordered.
RECORD_EDITS = ("record_reappended", "records_reordered")


def assert_named_verdict(verdict):
    """A verdict, and if it FAILs, one witness naming a check."""
    assert isinstance(verdict, audit.AuditVerdict)
    assert verdict.status in ("PASS", "FAIL")
    if verdict.status == "FAIL":
        (witness,) = verdict.witnesses
        assert witness["check"] in CHECKS
        assert isinstance(witness["witness"], str) and witness["witness"]
        assert verdict.checks[witness["check"]] == witness["witness"]


class TestTotality:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pos=st.integers(0, 14),
           field=st.sampled_from(["attestation", *WITNESS_FIELDS, *RECORD_VALUES]),
           sampled=st.booleans())
    def test_mutated_record_gets_a_verdict(self, data, pos, field, sampled):
        service, receipts = honest_window()
        rec = service.ledger.record(pos)
        if field in RECORD_VALUES:
            rec = dataclasses.replace(rec, **{field: data.draw(RECORD_VALUES[field])})
        elif field == "attestation":
            rec = dataclasses.replace(rec, attestation=data.draw(
                st.sampled_from(replacements(None))))
        else:
            value = witness_value(rec.attestation, rec.tenant_id, field)
            rec = dataclasses.replace(rec, attestation=edit_witness(
                rec.attestation, rec.tenant_id, field,
                data.draw(st.sampled_from(replacements(value)))))
        mutated = MerkleLedger()
        for i, old in enumerate(service.ledger.records):
            mutated.append(rec if i == pos else old)
        plan = VerificationPlan(mode="sampled", s=1, beta=1.0, eta=0.5) if sampled else FULL
        verdict = run_audit(mutated, service.commitments, service.policy, list(receipts),
                            EST_PARAMS, plan, seed=pos)
        assert_named_verdict(verdict)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           mutation=st.sampled_from([*RECEIPT_MOVES, *RECEIPT_SHUFFLES, *RECORD_EDITS]),
           pos=st.integers(0, 14), sampled=st.booleans())
    def test_mutated_window_gets_a_verdict(self, data, mutation, pos, sampled):
        service, honest = honest_window()
        records, receipts = list(service.ledger.records), list(honest)
        n, pk = len(records), service.public_key

        def resign(record, position, size):
            # the provider's own key, so the signature check passes
            return issue_receipt(record, position, service.ledger.root_at(size),
                                 service.signing_key), pk

        if mutation == "shifted_position":
            other = data.draw(st.integers(0, n).filter(lambda p: p != pos))
            receipts[pos] = resign(records[pos], other, pos + 1)
        elif mutation == "other_root_at_issue":
            receipts[pos] = resign(records[pos], pos, data.draw(st.integers(0, n).filter(
                lambda size: size != pos + 1)))
        elif mutation == "other_record_digests":
            other = data.draw(st.integers(0, n - 1).filter(lambda p: p != pos))
            receipts[pos] = resign(records[other], pos, pos + 1)
        elif mutation == "other_account":
            account = data.draw(st.sampled_from(sorted(
                {r.account_id for r in records} - {records[pos].account_id})))
            receipts[pos] = resign(dataclasses.replace(records[pos], account_id=account),
                                   pos, pos + 1)
        elif mutation == "front_cut":
            records = records[pos + 1:]
        elif mutation == "back_cut":
            records = records[:pos]
        elif mutation == "receipts_reordered":
            receipts = data.draw(st.permutations(receipts))
        elif mutation == "receipt_duplicated":
            receipts.insert(data.draw(st.integers(0, n)), receipts[pos])
        elif mutation == "record_reappended":
            records.append(dataclasses.replace(records[pos],
                                               timestamp=records[-1].timestamp + 1))
        else:  # records_reordered, timestamps renumbered so the ledger takes them
            records = [dataclasses.replace(rec, timestamp=ts) for ts, rec
                       in enumerate(data.draw(st.permutations(records)), 1)]
        mutated = MerkleLedger()
        for rec in records:
            mutated.append(rec)
        plan = VerificationPlan(mode="sampled", s=1, beta=1.0, eta=0.5) if sampled else FULL
        verdict = run_audit(mutated, service.commitments, service.policy, receipts,
                            EST_PARAMS, plan, seed=pos)
        assert_named_verdict(verdict)
        if mutation in RECEIPT_MOVES:
            assert verdict.witnesses[0]["check"] == "receipt_consistency"
        elif mutation in RECEIPT_SHUFFLES:
            assert verdict.status == "PASS"


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


    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zk_cost("quantum", 100)
        with pytest.raises(ValueError):
            zk_cost("naive", 0)

    def test_naive_dominates_optimized(self):
        for N in (1_000, 10_000, 100_000, 1_000_000):
            assert zk_cost("naive", N).constraints > zk_cost("optimized", N).constraints
