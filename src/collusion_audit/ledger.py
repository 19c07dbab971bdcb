"""Phase A commitments and the append-only query ledger.

Merkle tree in the transparency-log style (RFC 9162 section 2.1, the
successor to RFC 6962): leaves are domain-separated with 0x00, interior
nodes with 0x01, and an n-leaf root splits at the largest power of two
below n. Inclusion and consistency (append-only extension) proofs are
RFC 9162's, checked from the leaf position and the caller's sizes. Receipts
are Ed25519-signed over the canonical serialization of their fields,
under the receipt key that the Phase A commitments hold. A receipt is an
account's evidence against the provider: only one that contradicts the
journal and carries the committed key's valid signature shows a violation.

``MerkleLedger`` stores the hash of every complete, aligned power-of-two
subtree. On an n-leaf ledger the operations cost, in SHA-256 calls:

  append             the record digest and its leaf hash, the subtrees it
                     completes (amortised one) and popcount(n) - 1 to fold
                     the new root: at most floor(log2 n) + 2 in all
  prove_inclusion,   one node per level, each read from the store except at
  prove_extension    most one on the right edge, which is folded from stored
                     subtrees: O(log n)
  verify_inclusion,  one per proof hash, two for a left sibling of an
  verify_extension   extension: O(log n)
  verify_receipt     none: O(1) journal lookups (the record and the root at
                     issue), plus one Ed25519 check only for a receipt that
                     contradicts the journal

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
    tree_size: int
    hashes: tuple  # sibling hashes, leaf to root


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
    c_receipt_key: bytes  # the provider's raw Ed25519 public key
    published_at: int    # logical timestamp; must precede the window

    def __post_init__(self):
        for name in ("c_emb", "c_seed", "c_policy", "c_receipt_key"):
            if len(getattr(self, name)) != 32:
                raise ValueError(f"{name} must be 32 bytes")
        if not isinstance(self.c_idx, dict):
            raise ValueError("c_idx must be a dict of tenant roots")
        if type(self.published_at) is not int or self.published_at < 0:
            raise ValueError("published_at must be a nonnegative int")


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
                   window_seed: bytes, receipt_key: Ed25519PublicKey) -> CommitmentBundle:
    """Pre-window commitments: embedder artifact, per-tenant index roots,
    hashed window seed, the policy digest and the raw receipt key,
    published at logical time 0, before the first record's timestamp."""
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
        c_receipt_key=receipt_key.public_bytes_raw(),
        published_at=0,
    )


class MerkleLedger:
    """Append-only ledger of query records with published roots.

    Single writer; readers may take proofs against any published root
    snapshot. ``_levels[h][i]`` is the hash of the complete subtree over
    leaves [i * 2**h, (i + 1) * 2**h), level 0 holding the leaves; a
    subtree is stored once its last leaf is appended and never changes,
    so every prefix snapshot reads the same stored hashes. The root
    journal lists the root at every size; costs are in the module docstring.
    """

    def __init__(self):
        self._records: list[QueryRecord] = []
        self._levels: list[list[bytes]] = [[]]
        self._roots: list[bytes] = [merkle_root([])]  # root journal, index = size

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
    """Audit path of a leaf in the size-leaf prefix: the sibling hashes
    from the leaf up to the root (RFC 9162 section 2.1.3.1)."""
    n = len(ledger) if size is None else size
    if not 0 <= position < n <= len(ledger):
        raise IndexError("position out of range")
    hashes = []
    lo, hi = 0, n
    while hi - lo > 1:
        mid = lo + _split(hi - lo)
        if position < mid:
            hashes.append(ledger._subtree(mid, hi))
            hi = mid
        else:
            hashes.append(ledger._subtree(lo, mid))
            lo = mid
    return MerkleProof(position, n, tuple(reversed(hashes)))


def prove_extension(ledger: MerkleLedger, old_size: int, new_size: int) -> ConsistencyProof:
    """Consistency proof that the old_size-leaf prefix is a prefix of the
    new_size-leaf one (RFC 9162 section 2.1.4.1), empty if old_size is 0
    or new_size: the audit path in the new tree of the node over leaves
    [old_size - 2**t, old_size), 2**t the largest power of two dividing
    old_size, led by that node unless it is the whole old tree."""
    if not 0 <= old_size <= new_size <= len(ledger):
        raise IndexError("sizes out of range")
    if old_size in (0, new_size):
        return ConsistencyProof(old_size, new_size, ())
    t = (old_size & -old_size).bit_length() - 1
    # the node's own audit path is its last leaf's, less the t levels inside it
    hashes = prove_inclusion(ledger, old_size - 1, new_size).hashes[t:]
    if old_size != 1 << t:
        hashes = (ledger._subtree(old_size - (1 << t), old_size), *hashes)
    return ConsistencyProof(old_size, new_size, hashes)


def _well_formed(hashes, *sizes) -> bool:
    """Sizes that are uint64 ints, as RFC 9162's are, and a tuple of 32-byte hashes."""
    return (all(type(s) is int and 0 <= s < 2**64 for s in sizes) and isinstance(hashes, tuple)
            and all(isinstance(h, bytes) and len(h) == 32 for h in hashes))


def _sides(fn: int, sn: int) -> list:
    """Whether each sibling from node fn up to the root is a left one, sn
    being the last node of fn's level (RFC 9162 sections 2.1.3.2, 2.1.4.2):
    a last node that is a left child moves up until it is a right child."""
    sides = []
    while sn:
        left = bool(fn & 1) or fn == sn
        sides.append(left)
        shift = (fn & -fn).bit_length() if left else 1
        fn >>= shift
        sn >>= shift
    return sides


def verify_inclusion(root: bytes, size: int, leaf_digest: bytes, proof: MerkleProof) -> bool:
    """True iff leaf_digest is the leaf at proof.leaf_position of the
    size-leaf tree with this root (RFC 9162 section 2.1.3.2): the position
    and the size, held with the root as in a signed tree head, decide each
    sibling's side. False, never an exception, for a malformed or wrong-size proof."""
    if not (isinstance(proof, MerkleProof)
            and _well_formed(proof.hashes, proof.leaf_position, proof.tree_size)
            and proof.tree_size == size and proof.leaf_position < proof.tree_size):
        return False
    sides = _sides(proof.leaf_position, proof.tree_size - 1)
    node = leaf_digest
    for sibling, left in zip(proof.hashes, sides):
        node = _node_hash(sibling, node) if left else _node_hash(node, sibling)
    return len(sides) == len(proof.hashes) and node == root


def verify_extension(old_root: bytes, old_size: int, new_root: bytes, new_size: int,
                     proof: ConsistencyProof) -> bool:
    """True iff new_root, over new_size leaves, extends old_root, over the
    first old_size of them (RFC 9162 section 2.1.4.2). False, never an
    exception, for a malformed or wrong-size proof."""
    if not (isinstance(proof, ConsistencyProof)
            and _well_formed(proof.hashes, proof.old_size, proof.new_size)
            and (proof.old_size, proof.new_size) == (old_size, new_size)):
        return False
    m, n, hashes = proof.old_size, proof.new_size, proof.hashes
    if m >= n:
        return m == n and not hashes and old_root == new_root
    if m == 0:
        return not hashes and old_root == merkle_root([])
    t = (m & -m).bit_length() - 1  # the path's first node, as prove_extension says
    if m == 1 << t:
        hashes = (old_root, *hashes)
    sides = _sides((m - 1) >> t, (n - 1) >> t)
    if len(sides) != len(hashes) - 1:
        return False
    old = new = hashes[0]
    for sibling, left in zip(hashes[1:], sides):
        if left:
            old = _node_hash(sibling, old)
        new = _node_hash(sibling, new) if left else _node_hash(new, sibling)
    return old == old_root and new == new_root


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
    status: str  # consistent | rejected | forgery_witness | non_inclusion_witness
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


def _malformed(receipt) -> str:
    """Why ``receipt`` is not a Receipt whose fields have their types, or
    "" when it is one."""
    if not isinstance(receipt, Receipt):
        return f"not a Receipt: {type(receipt).__name__}"
    if not isinstance(receipt.account_id, str):
        return "account is not a str"
    for name in ("query_digest", "topk_digest", "ledger_root_at_issue"):
        value = getattr(receipt, name)
        if not isinstance(value, bytes) or len(value) != 32:
            return f"{name} is not 32 bytes"
    if not isinstance(receipt.signature, bytes):
        return "signature is not bytes"
    pos = receipt.leaf_position
    if type(pos) is not int or not 0 <= pos < 2**64:
        return f"leaf position {pos!r} is not a uint64"
    return ""


def _contradiction(receipt: Receipt, ledger: MerkleLedger) -> ReceiptCheck | None:
    """The witness a well-formed receipt would be against the journal, or
    None when the ledger holds its record and its root at issue."""
    pos = receipt.leaf_position
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
    return None


def _signature_valid(public_key: Ed25519PublicKey, signature: bytes, payload: bytes) -> bool:
    """The one Ed25519 verification the ledger makes."""
    try:
        public_key.verify(signature, payload)
    except InvalidSignature:
        return False
    return True


def verify_receipt(receipt: Receipt, public_key: Ed25519PublicKey,
                   ledger: MerkleLedger) -> ReceiptCheck:
    """Check a receipt against the journal, as evidence signed under
    ``public_key``, the committed receipt key.

    A receipt whose fields do not have their types is ``rejected``. A
    receipt the journal agrees with (the record at its position has its
    digests and account, and the journal's root at that position is its
    root at issue) shows no violation and is ``consistent`` whatever its
    signature: one append-only tree extends that root to the current one
    by construction. Only a receipt that contradicts the journal has its
    signature checked: valid, it is the named witness of a provider
    violation; invalid, the receipt is ``rejected``. Never raises,
    whatever the receipt.
    """
    reason = _malformed(receipt)
    if reason:
        return ReceiptCheck("rejected", f"malformed receipt: {reason}")
    witness = _contradiction(receipt, ledger)
    if witness is None:
        return ReceiptCheck("consistent")
    try:
        payload = receipt.signed_payload()
    except ValueError as exc:  # a str with no UTF-8 encoding
        return ReceiptCheck("rejected", f"malformed receipt: {exc}")
    if not _signature_valid(public_key, receipt.signature, payload):
        return ReceiptCheck("rejected", "bad signature")
    return witness


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


def _fields(buf: bytes) -> list:
    """The fields of a concatenation of 4-byte-length-prefixed fields."""
    fields, off = [], 0
    while off < len(buf):
        ln = int.from_bytes(buf[off:off + 4], "big")
        fields.append(buf[off + 4:off + 4 + ln])
        off += 4 + ln
    return fields


def load_ledger(path) -> MerkleLedger:
    """Rebuild a ledger from ``save_ledger`` output. Raises ValueError
    unless every record has five fields, its digests 32 bytes and its
    timestamp 8, and the root journal exists, holds one root per size
    0..n, and matches the roots recomputed from the records."""
    ledger = MerkleLedger()
    with open(path, "rb") as fh:
        data = fh.read()
    for blob in _fields(data):
        fields = _fields(blob)
        if [len(f) for f in fields[2:]] != [32, 32, 8]:
            raise ValueError(f"record {len(ledger)}: field widths {[len(f) for f in fields]}")
        account, tenant, qd, td, ts = fields
        ledger.append(QueryRecord(account.decode(), tenant.decode(), qd, td,
                                  int.from_bytes(ts, "big")))
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
