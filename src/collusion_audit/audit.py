"""Four-phase audit protocol: attestation, sampled verification, the
coalition policy-cap check, and epsilon issuance.

The attestation backend is *transparent*: witnesses disclose the window
seed, the query vector, and the opened index embeddings so the verifier
can re-execute the retrieval bit-exactly; all but the query vector is one
``WindowWitness`` per window, checked once per audit. This simulates a
trusted verifier running the ZK relation; it deliberately does NOT
provide cryptographic hiding (the hidden-seed semantics survives only as
an API-surface boundary). The Appendix-style cost model reports what a
Groth16 instantiation of the same relation would cost.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from . import accounting, estimator as est_mod, ledger as ledger_mod
from .encoding import hash_fields, sha256
from .harness import NoiseSeedRecord, embedding_digest, is_unit_norm, topk_retrieve
from .ledger import (
    CommitmentBundle,
    MerkleLedger,
    QueryRecord,
    Receipt,
    commit_phase_a,
    index_root,
    issue_receipt,
    record_core_digest,
    verify_receipt,
)

__all__ = [
    "WindowWitness",
    "AttestationBlob",
    "VerificationPlan",
    "AuditVerdict",
    "ZkCostEstimate",
    "AuditService",
    "attest_query",
    "verify_record",
    "sample_plan",
    "run_audit",
    "zk_cost",
    "noise_then_select",
    "CLAIMS",
]

# the digest of the embedder every window is served and audited under
_EMBEDDER_DIGEST = hash_fields("embedder", "unit-v1")

CLAIMS = (
    "embedder_consistency",
    "noise_derivation",
    "noise_then_select",
    "tenant_containment",
)


def noise_then_select(embeddings: np.ndarray, tenant_id: str, query: np.ndarray,
                      K: int, noise: NoiseSeedRecord) -> bytes:
    """The relation the provider serves and the verifier re-executes: noise
    every score of the tenant's index as ``noise`` binds it, select the top
    K, and digest the result as H("topk", positions..., names...), the
    document at position p being named ``f"{tenant_id}/doc{p}"``."""
    positions = topk_retrieve(embeddings, query, K, noise)
    return hash_fields("topk", *positions, *(f"{tenant_id}/doc{p}" for p in positions))


@dataclass(frozen=True, eq=False)
class WindowWitness:
    """The witness every record of one window shares; compared and hashed
    by identity, so an audit checks each window object once."""

    embedder_digest: bytes
    window_seed: bytes
    sigma: float
    openings: dict  # tenant id -> its (N, d) embeddings, in position order


@dataclass(frozen=True)
class AttestationBlob:
    """Witness for the four per-query claims (verifier-only surface): the
    window's witness and the record's own query vector. The noise is not
    part of it: the verifier re-derives it from the record core, once,
    inside the noise-then-select re-execution."""

    window: WindowWitness
    query_vector: np.ndarray


def _sample_size(beta: float, eta: float) -> int:
    """ceil(ln(1/eta)/beta): uniformly sampled records that detect any
    beta-fraction violation except with probability eta."""
    if not (0 < beta <= 1 and 0 < eta < 1):
        raise ValueError("beta in (0, 1] and eta in (0, 1) required")
    return math.ceil(math.log(1.0 / eta) / beta)


@dataclass(frozen=True)
class VerificationPlan:
    mode: str                  # "full" | "sampled"
    s: int = 0
    beta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.mode not in ("full", "sampled"):
            raise ValueError("mode must be full or sampled")
        if self.mode == "sampled" and self.s < _sample_size(self.beta, self.eta):
            raise ValueError("sample size below the detection guarantee")


@dataclass
class AuditVerdict:
    status: str                # PASS | FAIL
    delta_policy: float
    k_max: int
    checks: dict = field(default_factory=dict)   # check name -> "ok" | witness str
    eps_audit_headline: float | None = None      # present iff PASS
    eps_audit_full: float | None = None
    sampled: dict | None = None                  # {s, beta, eta} in sampled mode
    receipts_rejected: int = 0                   # submitted receipts set aside
    witnesses: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def sample_plan(beta: float, eta: float) -> VerificationPlan:
    """The smallest sampled plan that detects any beta-fraction violation
    except with probability eta."""
    return VerificationPlan(mode="sampled", s=_sample_size(beta, eta), beta=beta, eta=eta)


class AuditService:
    """Provider-side state for one audit window: policy, per-tenant
    indices, the ledger, the receipt signing key, and the window witness
    (committed seed, embedder digest, openings) every attested record
    refers to."""

    def __init__(self, policy, indices, window_seed: bytes,
                 signing_seed: bytes = b"\x01" * 32):
        self.policy = policy
        self.indices = {ix.tenant_id: ix for ix in indices}
        self.signing_key, self.public_key = ledger_mod.generate_test_keypair(signing_seed)
        self.ledger = MerkleLedger()
        self.commitments = commit_phase_a(policy, _EMBEDDER_DIGEST, indices, window_seed,
                                          self.public_key)
        self.witness = WindowWitness(_EMBEDDER_DIGEST, window_seed, policy.sigma,
                                     {t: ix.embeddings for t, ix in self.indices.items()})
        self._clock = 0

    def next_timestamp(self) -> int:
        self._clock += 1
        return self._clock


def attest_query(service: AuditService, query: np.ndarray, account_id: str,
                 tenant_id: str) -> tuple[QueryRecord, Receipt]:
    """Serve one query: retrieve the policy's top-K with committed-seed
    noise, append the attested record, and issue a signed receipt."""
    ts = service.next_timestamp()
    q_digest = embedding_digest(query)
    core = record_core_digest(account_id, tenant_id, q_digest, ts)
    noise = NoiseSeedRecord(service.witness.window_seed, core, service.policy.sigma)
    record = QueryRecord(
        account_id=account_id, tenant_id=tenant_id, query_digest=q_digest,
        topk_digest=noise_then_select(service.indices[tenant_id].embeddings, tenant_id,
                                      query, service.policy.top_k, noise),
        timestamp=ts, attestation=AttestationBlob(
            service.witness, np.asarray(query, dtype=np.float64)),
    )
    root, pos = service.ledger.append(record)
    return record, issue_receipt(record, pos, root, service.signing_key)


def _real_array(value, ndim: int) -> bool:
    return (isinstance(value, np.ndarray) and value.ndim == ndim
            and value.dtype.kind in "iuf")


def _window_claims(window: WindowWitness, commitments: CommitmentBundle,
                   policy) -> tuple[str, str]:
    """A1 (embedder consistency) and A2 (the noise derives from the
    committed seed at the committed sigma): facts of the window, the same
    for each of its records."""
    embedder = ("ok" if isinstance(window.embedder_digest, bytes)
                and window.embedder_digest == commitments.c_emb
                else "embedder digest differs from c_emb")
    if (not isinstance(window.window_seed, bytes)
            or sha256(window.window_seed) != commitments.c_seed):
        noise = "witness seed inconsistent with c_seed"
    elif len(window.window_seed) != 32:  # c_seed commits to any bytes
        noise = "witness seed is not 32 bytes"
    elif (not isinstance(window.sigma, (int, float))
          or not math.isclose(window.sigma, policy.sigma, rel_tol=1e-12)):
        noise = "witness sigma differs from committed policy"
    elif ledger_mod.policy_commitment(policy) != commitments.c_policy:
        noise = "policy does not match c_policy"
    else:
        noise = "ok"
    return embedder, noise


def _opening_claims(window: WindowWitness, tenant_id: str,
                    commitments: CommitmentBundle) -> tuple[str, object, bool]:
    """A4 for one tenant's opening in the window: (containment claim, the
    opening, whether the committed root contains it and it is unit-norm)."""
    openings = window.openings
    opened = openings.get(tenant_id) if isinstance(openings, dict) else None
    if not _real_array(opened, 2):
        return "opened embeddings are not an (N, d) array", None, False
    committed = commitments.c_idx.get(tenant_id)
    if committed is None or index_root(opened) != committed:
        return "opened embeddings do not match the tenant's committed root", opened, False
    return "ok", opened, is_unit_norm(opened)


def verify_record(record: QueryRecord, commitments: CommitmentBundle,
                  policy, *, window_checks: dict | None = None) -> dict:
    """Re-execute one record's four claims against the commitments: the
    window witness (seed, sigma, policy, embedder, the opening of the
    record's tenant), then noise-then-select at the committed top_k.
    ``window_checks`` maps a window to its A1/A2 results and (window,
    tenant id) to that opening's A4 result and unit norm; one table passed
    to every call of an audit checks each once. Without it the call
    checks the window itself.

    Returns claim -> "ok" or a short witness string; a malformed witness
    yields a witness, never an exception.
    """
    blob = record.attestation
    # e.g. a ledger reloaded from disk
    if not isinstance(blob, AttestationBlob) or not isinstance(blob.window, WindowWitness):
        return {claim: "record carries no attestation witness" for claim in CLAIMS}
    window = blob.window
    table = {} if window_checks is None else window_checks
    if window not in table:
        table[window] = _window_claims(window, commitments, policy)
    opening = (window, record.tenant_id)
    if opening not in table:
        table[opening] = _opening_claims(window, record.tenant_id, commitments)
    embedder, noise_claim = table[window]
    containment, opened, unit_norm = table[opening]
    result = {"embedder_consistency": embedder, "noise_derivation": noise_claim,
              "tenant_containment": containment}

    # A3: noise-then-select re-execution reproduces the published top-K
    query = blob.query_vector
    if noise_claim != "ok" or containment != "ok":
        result["noise_then_select"] = "not evaluated: prerequisite claim failed"
    elif not _real_array(query, 1) or len(query) != opened.shape[1]:
        result["noise_then_select"] = ("witness query vector is missing or not of "
                                       "the index dimension")
    elif policy.top_k > len(opened):
        result["noise_then_select"] = (f"top_k={policy.top_k} exceeds the opened index "
                                       f"of {len(opened)} documents")
    elif not unit_norm:
        # sigma is calibrated to unit-norm documents: a scaled index widens
        # the score gap the noise has to hide
        result["noise_then_select"] = "opened embeddings are not unit-norm"
    else:
        core = record_core_digest(record.account_id, record.tenant_id,
                                  record.query_digest, record.timestamp)
        noise = NoiseSeedRecord(window.window_seed, core, policy.sigma)
        digest = noise_then_select(opened, record.tenant_id, query, policy.top_k, noise)
        result["noise_then_select"] = (
            "ok" if digest == record.topk_digest
            else "re-executed noise-then-select top-K differs from ledger digest"
        )
    return result


def _fail(verdict: AuditVerdict, check: str, witness: str) -> AuditVerdict:
    verdict.status = "FAIL"
    verdict.checks[check] = witness
    verdict.witnesses.append({"check": check, "witness": witness})
    return verdict


def run_audit(ledger: MerkleLedger, commitments: CommitmentBundle, policy,
              receipts: list, estimator_params: est_mod.EstimatorParams,
              plan: VerificationPlan, seed: int = 0,
              published_root: bytes | None = None) -> AuditVerdict:
    """Phase D verification: commitments, per-record claims (full or
    sampled) at the committed top_k, the published root plus receipt
    consistency, the coalition policy-cap check, then epsilon issuance.
    Stops at the first witnessed violation. Each window witness, and each
    opening a verified record names, is checked once per call.

    ``receipts`` is a list of (Receipt, public key) pairs submitted by
    accounts. The key must be the committed receipt key
    (``commitments.c_receipt_key``), and the receipt is checked under
    that key (``verify_receipt``); an entry that is no pair, a receipt
    submitted with another key, malformed, or contradicting the journal
    without the committed key's valid signature is set aside (counted in
    ``receipts_rejected``).
    ``published_root`` is the root the provider advertises (defaults to
    the recomputed ledger root).
    """
    verdict = AuditVerdict(status="PASS", delta_policy=policy.delta_policy,
                           k_max=policy.k_max)
    if plan.mode == "sampled":
        verdict.sampled = {"s": plan.s, "beta": plan.beta, "eta": plan.eta}

    # step 1: commitment integrity
    if ledger_mod.policy_commitment(policy) != commitments.c_policy:
        return _fail(verdict, "commitment_integrity", "policy digest mismatch")
    if len(ledger) and commitments.published_at >= ledger.record(0).timestamp:
        return _fail(verdict, "commitment_integrity",
                     "commitments published after window opened")
    try:
        receipt_key = Ed25519PublicKey.from_public_bytes(commitments.c_receipt_key)
    except (TypeError, ValueError) as exc:
        return _fail(verdict, "commitment_integrity",
                     f"committed receipt key does not load: {exc}")
    verdict.checks["commitment_integrity"] = "ok"

    # step 2: per-record claim verification
    n = len(ledger)
    if plan.mode == "full" or plan.s >= n:
        positions = range(n)
    else:
        rng = np.random.default_rng(seed)
        positions = sorted(rng.choice(n, size=plan.s, replace=False).tolist())
    window_checks: dict = {}  # this audit's only; see verify_record
    for pos in positions:
        claims = verify_record(ledger.record(pos), commitments, policy,
                               window_checks=window_checks)
        for claim, status in claims.items():
            if status != "ok" and not status.startswith("not evaluated"):
                return _fail(verdict, claim, f"record {pos}: {status}")
    verdict.checks["record_claims"] = "ok"

    # step 3: the published root is the audited ledger's, and each receipt
    # matches the root journal at its position; those lookups are what
    # hold the provider to an append-only history
    if published_root is not None and published_root != ledger.root:
        return _fail(verdict, "ledger_extension",
                     "published root is not the audited ledger's root")
    verdict.checks["ledger_extension"] = "ok"
    for entry in receipts:
        try:
            receipt, key = entry
        except (TypeError, ValueError):  # not a (receipt, key) pair
            verdict.receipts_rejected += 1
            continue
        if not (isinstance(key, Ed25519PublicKey) and key == receipt_key):
            verdict.receipts_rejected += 1
            continue
        check = verify_receipt(receipt, receipt_key, ledger)
        if check.status == "rejected":
            verdict.receipts_rejected += 1
        elif not check.consistent:
            return _fail(verdict, "receipt_consistency",
                         f"{check.status}: {check.detail}")
    verdict.checks["receipt_consistency"] = "ok"

    # step 4: coalition estimate and policy cap, over the query vectors
    # the receipts bind: every record's witness vector must hash to its
    # ledger query digest. The cap bounds non-adaptive coalitions only:
    # colluders whose probes are pairwise less similar than theta (e.g.
    # c * target + sqrt(1 - c^2) * orthonormal, c^2 < theta) pass it
    queries = []
    for pos in range(n):
        rec = ledger.record(pos)
        query = getattr(rec.attestation, "query_vector", None)
        if not _real_array(query, 1):
            return _fail(verdict, "embedder_consistency",
                         f"record {pos}: no query vector witness")
        if embedding_digest(query) != rec.query_digest:
            return _fail(verdict, "embedder_consistency",
                         f"record {pos}: witness query vector does not match "
                         "the ledger query digest")
        queries.append((rec.account_id, query, rec.timestamp))
    largest = est_mod.estimate(queries, estimator_params).largest_cluster_accounts
    if largest > policy.k_max:
        return _fail(verdict, "policy_cap",
                     f"cluster of {largest} accounts exceeds k_max={policy.k_max}")
    verdict.checks["policy_cap"] = "ok"

    # step 5: epsilon issuance — depends only on the declared policy cap,
    # never on the empirical cluster size
    full, _ = accounting.epsilon_audit(policy)
    headline, _ = accounting.epsilon_audit(policy, headline=True)
    verdict.eps_audit_full = full
    verdict.eps_audit_headline = headline
    return verdict


# --- cost model -----------------------------------------------------------

# reference constraint counts for the two circuit styles at four index sizes
_COST_TABLE = {
    "optimized": [(1e3, 9.8e4), (1e4, 8.9e5), (1e5, 8.8e6), (1e6, 8.8e7)],
    "naive": [(1e3, 8.7e5), (1e4, 8.6e6), (1e5, 8.6e7), (1e6, 8.6e8)],
}


def _fit_linear(points):
    N = np.array([p[0] for p in points])
    c = np.array([p[1] for p in points])
    X = np.column_stack([np.ones_like(N), N])
    (base, slope), *_ = np.linalg.lstsq(X, c, rcond=None)
    return float(base), float(slope)


_COST_FIT = {mode: _fit_linear(pts) for mode, pts in _COST_TABLE.items()}


@dataclass(frozen=True)
class ZkCostEstimate:
    mode: str
    index_size: int
    constraints: float
    prove_seconds: float
    setup_seconds: float
    verify_ms: float


def zk_cost(mode: str, N: int) -> ZkCostEstimate:
    """Groth16-style cost extrapolation: constraints = base + per_doc * N
    (least-squares fit to the reference table), proving at ~1 us per
    constraint, trusted setup at half the proving time, verification a
    constant ~8 ms."""
    if mode not in _COST_FIT:
        raise ValueError(f"unknown mode {mode!r}")
    if N < 1:
        raise ValueError("N must be >= 1")
    base, per_doc = _COST_FIT[mode]
    constraints = base + per_doc * N
    prove = constraints * 1e-6
    return ZkCostEstimate(
        mode=mode, index_size=N, constraints=constraints,
        prove_seconds=prove, setup_seconds=prove / 2.0, verify_ms=8.0,
    )
