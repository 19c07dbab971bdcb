"""Phase A commitments and the append-only query ledger.

Merkle tree in the transparency-log style (RFC 6962 / RFC 9162 section
2.1): leaves are domain-separated with 0x00 and interior nodes with 0x01,
the root of an n-leaf tree splits at the largest power of two strictly
less than n, and both inclusion (audit path) and consistency (append-only
extension) proofs are supported. Receipts are Ed25519-signed over the
canonical serialization of their fields.

``MerkleLedger`` stores the hash of every complete, aligned power-of-two
subtree. On an n-leaf ledger the operations cost, in SHA-256 calls:

  append             the record digest and its leaf hash, the subtrees it
                     completes (amortised one) and popcount(n) - 1 to fold
                     the new root: at most floor(log2 n) + 2 in all
  prove_inclusion,   one node per level, each read from the store except at
  prove_extension    most one on the right edge, which is folded from stored
                     subtrees: O(log n); the sizes of the two roots of an
                     extension are a dict lookup
  verify_receipt     none: the signature check, then the record and the
                     root at issue read from the root journal, O(1)

The tenant-index commitment ``index_root`` over an (N, d) array costs
3N - 1 SHA-256 calls (a digest and a leaf hash per row, N - 1 interior
nodes; one for N = 0), read from one big-endian copy of the array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import canonical, create_file, hash_fields, sha256
from .harness import NOISE_DERIVATION

__all__ = [
    "CommitmentBundle",
    "QueryRecord",
    "Receipt",
    "MerkleProof",
    "ConsistencyProof",
    "MerkleLedger",
    "merkle_root",
    "index_root",
    "commit_phase_a",
    "prove_inclusion",
    "verify_inclusion",
    "prove_extension",
    "verify_extension",
    "issue_receipt",
    "verify_receipt",
    "generate_test_keypair",
    "policy_commitment",
    "record_digest",
    "record_core_digest",
    "save_ledger",
    "load_ledger",
]

_LEAF = b"\x00"
_NODE = b"\x01"
_EMPTY_MARKER = b"collusion-audit/empty-ledger"


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE + left + right)


def _split(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    return 1 << ((n - 1).bit_length() - 1)


def merkle_root(leaves: list) -> bytes:
    """Root over already-hashed leaves; empty tree commits to a fixed marker.

    Pairs nodes level by level; an odd trailing node moves up unchanged,
    which builds the same tree as splitting at the largest power of two.
    """
    if not leaves:
        return sha256(_EMPTY_MARKER)
    level = list(leaves)
    while len(level) > 1:
        pairs = iter(level)
        paired = [_node_hash(left, right) for left, right in zip(pairs, pairs)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


@dataclass(frozen=True)
class MerkleProof:
    leaf_position: int
    path: tuple  # ((sibling_hash, side), ...)


@dataclass(frozen=True)
class ConsistencyProof:
    old_size: int
    new_size: int
    hashes: tuple


@dataclass(frozen=True)
class QueryRecord:
    account_id: str
    tenant_id: str
    query_digest: bytes
    topk_digest: bytes
    timestamp: int
    attestation: object = None  # AttestationBlob; opaque to the ledger

    def __post_init__(self):
        if len(self.query_digest) != 32 or len(self.topk_digest) != 32:
            raise ValueError("digests must be 32 bytes")
        if self.timestamp < 0:
            raise ValueError("timestamp must be nonnegative")


def record_core_digest(account_id: str, tenant_id: str, query_digest: bytes,
                       timestamp: int) -> bytes:
    """Digest of the pre-noise record core: this is the record digest the
    noise derivation binds to, so it cannot depend on the (noise-derived)
    top-K output."""
    return hash_fields("record-core", account_id, tenant_id, query_digest, timestamp)


def record_digest(record: QueryRecord) -> bytes:
    """Ledger leaf preimage: the full record including the top-K digest."""
    return hash_fields(
        "record", record.account_id, record.tenant_id, record.query_digest,
        record.topk_digest, record.timestamp,
    )


@dataclass(frozen=True)
class CommitmentBundle:
    c_emb: bytes
    c_idx: dict          # tenant_id -> vector-commitment root
    c_seed: bytes
    c_policy: bytes
    published_at: int    # logical timestamp; must precede the window

    def __post_init__(self):
        for name in ("c_emb", "c_seed", "c_policy"):
            if len(getattr(self, name)) != 32:
                raise ValueError(f"{name} must be 32 bytes")


def policy_commitment(policy) -> bytes:
    """H("policy-v2" || noise derivation || eps_acc || delta_acc || sigma ||
    k_max || delta_policy || window || top_k) in exactly that serialization
    order; the tag names this field list."""
    return hash_fields(
        "policy-v2", NOISE_DERIVATION, policy.eps_acc, policy.delta_acc,
        policy.sigma, policy.k_max, policy.delta_policy, policy.window_id,
        policy.top_k,
    )


def index_root(embeddings) -> bytes:
    """Tenant-index commitment: the Merkle root over the embedding digests
    of an (N, d) array's rows, in position order.

    Each leaf hashes the row's big-endian doubles, the bytes
    ``harness.embedding_digest`` hashes, read from one big-endian copy of
    the array. Anything but a 2-D array raises ValueError: the rows of a
    1-D vector would be numpy scalars in native byte order.
    """
    rows = np.ascontiguousarray(embeddings, dtype=">f8")
    if rows.ndim != 2:
        raise ValueError(f"index_root takes an (N, d) array, not {rows.ndim}-D")
    return merkle_root([_leaf_hash(sha256(row)) for row in rows])


def commit_phase_a(policy, embedder_artifact_digest: bytes, indices: list,
                   window_seed: bytes) -> CommitmentBundle:
    """Pre-window commitments: embedder artifact, per-tenant index roots,
    hashed window seed, and the policy digest, published at logical time
    0, before the first record's timestamp."""
    if len(window_seed) != 32:
        raise ValueError("window seed must be 32 bytes")
    c_idx = {}
    for index in indices:
        if index.tenant_id in c_idx:
            raise ValueError(f"duplicate tenant id {index.tenant_id!r}")
        c_idx[index.tenant_id] = index_root(index.embeddings)
    return CommitmentBundle(
        c_emb=embedder_artifact_digest,
        c_idx=c_idx,
        c_seed=sha256(window_seed),
        c_policy=policy_commitment(policy),
        published_at=0,
    )


class MerkleLedger:
    """Append-only ledger of query records with published roots.

    Single writer; readers may take proofs against any published root
    snapshot. ``_levels[h][i]`` is the hash of the complete subtree over
    leaves [i * 2**h, (i + 1) * 2**h), level 0 holding the leaves; a
    subtree is stored once its last leaf is appended and never changes,
    so every prefix snapshot reads the same stored hashes. The root
    journal lists the root at every size, and ``_sizes`` maps each root
    back to the first size that had it. Costs are in the module docstring.
    """

    def __init__(self):
        self._records: list[QueryRecord] = []
        self._levels: list[list[bytes]] = [[]]
        self._roots: list[bytes] = [merkle_root([])]  # root journal, index = size
        self._sizes: dict[bytes, int] = {self._roots[0]: 0}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple:
        """A copy of all records; ``record`` reads one without copying."""
        return tuple(self._records)

    def record(self, position: int) -> QueryRecord:
        return self._records[position]

    @property
    def root(self) -> bytes:
        return self._roots[-1]

    def root_at(self, size: int) -> bytes:
        return self._roots[size]

    def leaf(self, position: int) -> bytes:
        return self._levels[0][position]

    def append(self, record: QueryRecord) -> tuple[bytes, int]:
        """Append a record; returns (new_root, leaf_position)."""
        if self._records and record.timestamp <= self._records[-1].timestamp:
            raise ValueError("timestamp regression")
        node = _leaf_hash(record_digest(record))
        self._records.append(record)
        levels = self._levels
        levels[0].append(node)
        h = 0
        while len(levels[h]) % 2 == 0:  # a left sibling is waiting: merge up
            node = _node_hash(levels[h][-2], node)
            h += 1
            if h == len(levels):
                levels.append([])
            levels[h].append(node)
        n = len(self._records)
        root = self._subtree(0, n)
        self._sizes.setdefault(root, n)
        self._roots.append(root)
        return root, n - 1

    def _subtree(self, lo: int, hi: int) -> bytes:
        """Hash of the tree over leaves [lo, hi), lo < hi <= len(self).

        lo must be a multiple of the largest power of two <= hi - lo, which
        holds for every node of the tree: the range then splits, largest
        first, into stored subtrees, folded right to left.
        """
        nodes = []
        while lo < hi:
            h = (hi - lo).bit_length() - 1
            nodes.append(self._levels[h][lo >> h])
            lo += 1 << h
        node = nodes.pop()
        while nodes:
            node = _node_hash(nodes.pop(), node)
        return node


def prove_inclusion(ledger: MerkleLedger, position: int, size: int | None = None) -> MerkleProof:
    """Audit path of a leaf in the size-leaf prefix: siblings from the leaf
    to the root as (hash, side) with side 'L'/'R' telling the verifier
    where the sibling sits."""
    n = len(ledger) if size is None else size
    if not 0 <= position < n <= len(ledger):
        raise IndexError("position out of range")
    path = []
    lo, hi = 0, n
    while hi - lo > 1:
        mid = lo + _split(hi - lo)
        if position < mid:
            path.append((ledger._subtree(mid, hi), "R"))
            hi = mid
        else:
            path.append((ledger._subtree(lo, mid), "L"))
            lo = mid
    return MerkleProof(position, tuple(reversed(path)))


def verify_inclusion(root: bytes, leaf_digest: bytes, proof: MerkleProof) -> bool:
    """True iff hashing leaf_digest up the path reconstructs root."""
    h = leaf_digest
    for sibling, side in proof.path:
        h = _node_hash(sibling, h) if side == "L" else _node_hash(h, sibling)
    return h == root


def _consistency(ledger: MerkleLedger, m: int, n: int) -> list:
    """Transparency-log consistency proof between the m-leaf and the n-leaf
    prefix, 0 < m < n: descend from the n-leaf root towards leaf m,
    collecting the sibling left behind at each split, inner hashes first."""
    hashes = []
    lo, hi, start = 0, n, True
    while m != hi:
        mid = lo + _split(hi - lo)
        if m <= mid:
            hashes.append(ledger._subtree(mid, hi))
            hi = mid
        else:
            hashes.append(ledger._subtree(lo, mid))
            lo, start = mid, False
    if not start:  # the m-prefix is not a subtree of the n-tree's left edge
        hashes.append(ledger._subtree(lo, hi))
    hashes.reverse()
    return hashes


def prove_extension(old_root: bytes, new_root: bytes, ledger: MerkleLedger) -> ConsistencyProof:
    """Consistency proof that old_root is a prefix snapshot of new_root."""
    old_size = ledger._sizes.get(old_root)
    new_size = ledger._sizes.get(new_root)
    if old_size is None or new_size is None or old_size > new_size:
        raise ValueError("roots do not correspond to prefix snapshots")
    if old_size == 0 or old_size == new_size:
        hashes = ()
    else:
        hashes = tuple(_consistency(ledger, old_size, new_size))
    return ConsistencyProof(old_size, new_size, hashes)


def _root_from_consistency(size: int, total: int, hashes: list,
                           old_root: bytes, start: bool = True):
    """Recompute (old_root, new_root) from a consistency proof.

    Mirrors the recursive proof generator: the proof list carries inner
    hashes first, so each level pops its own sibling off the end before
    recursing. When the prefix aligns with a subtree boundary (start base
    case) the proof omits the prefix root and the claimed old_root is
    folded into the new-root computation directly.
    """
    if size == total:
        if start:
            return old_root, old_root
        h = hashes.pop()
        return h, h
    k = _split(total)
    if size <= k:
        right = hashes.pop()
        inner = _root_from_consistency(size, k, hashes, old_root, start)
        return inner[0], _node_hash(inner[1], right)
    left = hashes.pop()
    inner = _root_from_consistency(size - k, total - k, hashes, old_root, False)
    return _node_hash(left, inner[0]), _node_hash(left, inner[1])


def verify_extension(old_root: bytes, new_root: bytes, proof: ConsistencyProof) -> bool:
    """Verifier-side check that new_root extends old_root append-only."""
    if proof.old_size == proof.new_size:
        return old_root == new_root and not proof.hashes
    if proof.old_size == 0:
        return old_root == merkle_root([]) and not proof.hashes
    if not 0 < proof.old_size < proof.new_size:
        return False
    hashes = list(proof.hashes)
    try:
        got = _root_from_consistency(proof.old_size, proof.new_size, hashes, old_root)
    except IndexError:
        return False
    return not hashes and got == (old_root, new_root)


# --- receipts -------------------------------------------------------------

@dataclass(frozen=True)
class Receipt:
    account_id: str
    query_digest: bytes
    topk_digest: bytes
    leaf_position: int
    ledger_root_at_issue: bytes
    signature: bytes

    def signed_payload(self) -> bytes:
        return canonical(
            "receipt", self.account_id, self.query_digest, self.topk_digest,
            self.leaf_position, self.ledger_root_at_issue,
        )


@dataclass(frozen=True)
class ReceiptCheck:
    status: str          # consistent | forgery_witness | non_inclusion_witness
    detail: str = ""

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


def generate_test_keypair(seed: bytes = b"\x00" * 32):
    """Deterministic Ed25519 test keypair (NOT a production PKI)."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    key = Ed25519PrivateKey.from_private_bytes(seed)
    return key, key.public_key()


def issue_receipt(record: QueryRecord, position: int, root: bytes,
                  signing_key: Ed25519PrivateKey) -> Receipt:
    receipt = Receipt(
        account_id=record.account_id,
        query_digest=record.query_digest,
        topk_digest=record.topk_digest,
        leaf_position=position,
        ledger_root_at_issue=root,
        signature=b"",
    )
    sig = signing_key.sign(receipt.signed_payload())
    return Receipt(**{**receipt.__dict__, "signature": sig})


def verify_receipt(receipt: Receipt, public_key: Ed25519PublicKey,
                   ledger: MerkleLedger) -> ReceiptCheck:
    """Check signature, ledger presence, digest and account equality, and
    that the root at issue is the journal's root at the receipt's
    position, which one append-only tree extends to the current root by
    construction. Each failure mode is a named witness class, never a
    bare False or an exception."""
    if not isinstance(receipt, Receipt) or not isinstance(public_key, Ed25519PublicKey):
        return ReceiptCheck("forgery_witness", "malformed receipt: not a Receipt and an "
                            f"Ed25519 key: {type(receipt).__name__}, {type(public_key).__name__}")
    pos = receipt.leaf_position
    if not isinstance(receipt.signature, bytes):
        return ReceiptCheck("forgery_witness", "malformed receipt: signature is not bytes")
    if type(pos) is not int or not 0 <= pos < 2**64:
        return ReceiptCheck("forgery_witness",
                            f"malformed receipt: leaf position {pos!r} is not a uint64")
    try:
        public_key.verify(receipt.signature, receipt.signed_payload())
    except InvalidSignature:
        return ReceiptCheck("forgery_witness", "bad signature")
    except (TypeError, ValueError) as exc:  # a field with no canonical encoding
        return ReceiptCheck("forgery_witness", f"malformed receipt: {exc}")
    if pos >= len(ledger):
        return ReceiptCheck("non_inclusion_witness", "position beyond ledger")
    rec = ledger.record(pos)
    if rec.query_digest != receipt.query_digest or rec.topk_digest != receipt.topk_digest:
        return ReceiptCheck("forgery_witness", "ledger record digest mismatch")
    if rec.account_id != receipt.account_id:
        # the coalition cap counts the ledger's accounts, not the receipts'
        return ReceiptCheck("forgery_witness", "ledger record account differs from receipt")
    # the root at issue must be the (pos+1)-prefix snapshot
    if ledger.root_at(pos + 1) != receipt.ledger_root_at_issue:
        return ReceiptCheck("forgery_witness", "root at issue inconsistent with ledger")
    return ReceiptCheck("consistent")


# --- persistence ----------------------------------------------------------

def save_ledger(ledger: MerkleLedger, path) -> None:
    """Length-prefixed record file plus a root journal alongside, each
    created as a new file (``create_file``)."""
    with create_file(path, "wb") as fh:
        for rec in ledger.records:
            blob = canonical(rec.account_id, rec.tenant_id, rec.query_digest,
                             rec.topk_digest, rec.timestamp)
            fh.write(len(blob).to_bytes(4, "big") + blob)
    with create_file(str(path) + ".roots", "wb") as fh:
        for i in range(len(ledger) + 1):
            fh.write(ledger.root_at(i))


def _read_field(buf: bytes, off: int) -> tuple[bytes, int]:
    ln = int.from_bytes(buf[off:off + 4], "big")
    return buf[off + 4:off + 4 + ln], off + 4 + ln


def load_ledger(path) -> MerkleLedger:
    """Rebuild a ledger from ``save_ledger`` output. Raises ValueError
    unless the root journal exists, holds one root per size 0..n, and
    matches the roots recomputed from the records."""
    ledger = MerkleLedger()
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0
    while off < len(data):
        blob_len = int.from_bytes(data[off:off + 4], "big")
        blob = data[off + 4:off + 4 + blob_len]
        off += 4 + blob_len
        p = 0
        account, p = _read_field(blob, p)
        tenant, p = _read_field(blob, p)
        qd, p = _read_field(blob, p)
        td, p = _read_field(blob, p)
        ts, p = _read_field(blob, p)
        ledger.append(QueryRecord(
            account_id=account.decode(), tenant_id=tenant.decode(),
            query_digest=qd, topk_digest=td,
            timestamp=int.from_bytes(ts, "big"),
        ))
    roots_path = str(path) + ".roots"
    if not os.path.exists(roots_path):
        raise ValueError(f"root journal {roots_path} is missing")
    with open(roots_path, "rb") as fh:
        journal = fh.read()
    n = len(ledger)
    if len(journal) != 32 * (n + 1):
        raise ValueError(f"root journal holds {len(journal)} bytes; {n} records "
                         f"need 32*({n}+1) = {32 * (n + 1)}")
    if journal != b"".join(ledger._roots):
        raise ValueError("root journal does not match records")
    return ledger
