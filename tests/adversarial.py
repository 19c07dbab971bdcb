"""A dishonest provider for the audit tests.

``audit.AuditService`` and ``audit.attest_query`` serve only honestly.
The misbehaviours of the mutation battery are built here from the same
public pieces (``noise_then_select``, ``WindowWitness``,
``AttestationBlob``, ``QueryRecord``, ``MerkleLedger.append`` and
``issue_receipt``):

* ``wrong_sigma`` serves every query with noise at half the committed
  sigma and claims that sigma in its window witness;
  ``select_then_noise`` selects on clean scores and claims the committed
  sigma.
* ``wrong_embedder_digest`` and ``cross_tenant_opening`` serve honestly
  and then publish a forged window witness in every record's place. The
  witness is not part of the ledger leaf, so roots and receipts stay
  valid.
* ``drop_receipted_record`` serves honestly and then rebuilds the ledger
  without its last record, whose account holds a receipt for it.

:func:`orthogonal_probes` is a coalition, not a provider fault: honestly
served probes that all lean on one target yet sit below the estimator's
similarity threshold pairwise.

Serve with :func:`attest_query`, then call :func:`publish`, which puts
the ledger the provider shows the verifier in ``service.ledger``.
"""

import dataclasses

import numpy as np

from collusion_audit import audit
from collusion_audit.encoding import sha256
from collusion_audit.harness import NoiseSeedRecord, embedding_digest
from collusion_audit.ledger import (
    MerkleLedger,
    QueryRecord,
    issue_receipt,
    record_core_digest,
)

# misbehaviour -> (served sigma, witness sigma) as multiples of the policy's
NOISE_FAULTS = {"wrong_sigma": (0.5, 0.5), "select_then_noise": (0.0, 1.0)}


def attest_query(service, query, account_id, tenant_id, misbehavior=None):
    """``audit.attest_query``, except that the misbehaviours in
    ``NOISE_FAULTS`` serve with the wrong noise."""
    if misbehavior not in NOISE_FAULTS:
        return audit.attest_query(service, query, account_id, tenant_id)
    served, claimed = (f * service.policy.sigma for f in NOISE_FAULTS[misbehavior])
    ts = service.next_timestamp()
    q_digest = embedding_digest(query)
    core = record_core_digest(account_id, tenant_id, q_digest, ts)
    window = dataclasses.replace(service.witness, sigma=claimed)
    record = QueryRecord(
        account_id=account_id, tenant_id=tenant_id, query_digest=q_digest,
        topk_digest=audit.noise_then_select(
            service.witness.openings[tenant_id], tenant_id, query,
            service.policy.top_k, NoiseSeedRecord(service.witness.window_seed, core, served)),
        timestamp=ts, attestation=audit.AttestationBlob(
            window, np.asarray(query, dtype=np.float64)),
    )
    root, pos = service.ledger.append(record)
    return record, issue_receipt(record, pos, root, service.signing_key)


def rewrite_witnesses(ledger, edit):
    """The same records and roots, each attestation replaced by
    ``edit(position, blob)``; the witness is not part of the leaf."""
    out = MerkleLedger()
    for pos, rec in enumerate(ledger.records):
        out.append(dataclasses.replace(rec, attestation=edit(pos, rec.attestation)))
    assert out.root == ledger.root
    return out


def rogue_embedder(window):
    return dataclasses.replace(window, embedder_digest=sha256(b"rogue embedder"))


def cross_tenant_opening(window):
    """Each tenant's opening with its first document swapped for the first
    document of the next tenant (in the window's order)."""
    tenants = list(window.openings)
    openings = {
        t: np.vstack([window.openings[tenants[(i + 1) % len(tenants)]][:1],
                      window.openings[t][1:]])
        for i, t in enumerate(tenants)
    }
    return dataclasses.replace(window, openings=openings)


WITNESS_FAULTS = {"wrong_embedder_digest": rogue_embedder,
                  "cross_tenant_opening": cross_tenant_opening}


def publish(service, misbehavior=None):
    """Replace ``service.ledger`` by the ledger the provider publishes."""
    if misbehavior in WITNESS_FAULTS:
        forged = WITNESS_FAULTS[misbehavior](service.witness)
        service.ledger = rewrite_witnesses(
            service.ledger, lambda pos, blob: dataclasses.replace(blob, window=forged))
    elif misbehavior == "drop_receipted_record":
        rebuilt = MerkleLedger()
        for rec in service.ledger.records[:-1]:
            rebuilt.append(rec)
        service.ledger = rebuilt


def orthogonal_probes(rng, target, n, c):
    """n unit probes c * target + sqrt(1 - c^2) * u_a, the u_a orthonormal
    and orthogonal to the unit ``target``: each probe has cosine c with the
    target and every two probes have cosine exactly c^2. Needs n < d."""
    d = len(target)
    basis, _ = np.linalg.qr(np.column_stack([target, rng.standard_normal((d, n))]))
    return c * target + np.sqrt(1.0 - c * c) * basis[:, 1:].T
