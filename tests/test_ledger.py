import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from collusion_audit import ledger as lg
from collusion_audit.accounting import PolicyParams
from collusion_audit.encoding import canonical, sha256
from collusion_audit.harness import TenantIndex, embedding_digest, random_unit_vectors


def rec(i, account="a", tenant="t"):
    return lg.QueryRecord(account, tenant, sha256(b"q%d" % i),
                          sha256(b"k%d" % i), i + 1)


def build(n):
    led = lg.MerkleLedger()
    for i in range(n):
        led.append(rec(i))
    return led


# Reference oracle: the recursive RFC 6962 construction over leaf lists
# that the ledger used before it stored subtree hashes. Roots, the root
# journal and proofs must match it byte for byte.

def _ref_split(n):
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def _ref_node(left, right):
    return sha256(b"\x01" + left + right)


def ref_root(leaves):
    if not leaves:
        return sha256(b"collusion-audit/empty-ledger")
    if len(leaves) == 1:
        return leaves[0]
    k = _ref_split(len(leaves))
    return _ref_node(ref_root(leaves[:k]), ref_root(leaves[k:]))


def ref_audit_path(leaves, m):
    if len(leaves) <= 1:
        return []
    k = _ref_split(len(leaves))
    if m < k:
        return ref_audit_path(leaves[:k], m) + [ref_root(leaves[k:])]
    return ref_audit_path(leaves[k:], m - k) + [ref_root(leaves[:k])]


def ref_consistency(leaves, m, start=True):
    n = len(leaves)
    if m == n:
        return [] if start else [ref_root(leaves)]
    k = _ref_split(n)
    if m <= k:
        return ref_consistency(leaves[:k], m, start) + [ref_root(leaves[k:])]
    return ref_consistency(leaves[k:], m - k, False) + [ref_root(leaves[:k])]


def assert_inclusion_matches(led, leaves, pos, size):
    proof = lg.prove_inclusion(led, pos, size)
    assert proof == lg.MerkleProof(pos, size, tuple(ref_audit_path(leaves[:size], pos))), (
        pos, size)


def assert_extension_matches(led, leaves, i, j):
    proof = lg.prove_extension(led, i, j)
    expected = () if i in (0, j) else tuple(ref_consistency(leaves[:j], i))
    assert (proof.old_size, proof.new_size, proof.hashes) == (i, j, expected), (i, j)


class TestMerkleTree:
    def test_single_leaf_root(self):
        led = build(1)
        proof = lg.prove_inclusion(led, 0)
        assert proof.hashes == ()
        assert led.root == led.leaf(0)

    def test_empty_root_is_marker(self):
        assert lg.MerkleLedger().root == lg.merkle_root([])

    def test_incremental_equals_rebuild(self):
        led = build(23)
        rebuilt = build(23)
        assert led.root == rebuilt.root
        assert led.root == lg.merkle_root([led.leaf(i) for i in range(23)])

    def test_inclusion_exhaustive_small(self):
        for n in (1, 2, 3, 5, 8, 13, 21, 33):
            led = build(n)
            for pos in range(n):
                proof = lg.prove_inclusion(led, pos)
                assert lg.verify_inclusion(led.root, n, led.leaf(pos), proof)
                assert len(proof.hashes) <= int(np.ceil(np.log2(max(n, 2))))

    def test_tampered_sibling_fails(self):
        led = build(9)
        proof = lg.prove_inclusion(led, 4)
        bad_path = list(proof.hashes)
        h = bad_path[1]
        bad_path[1] = bytes([h[0] ^ 1]) + h[1:]
        assert not lg.verify_inclusion(led.root, 9, led.leaf(4),
                                       lg.MerkleProof(4, 9, tuple(bad_path)))

    def test_inclusion_fuzz_corruption(self):
        rng = np.random.default_rng(0)
        led = build(57)
        for _ in range(200):
            pos = int(rng.integers(0, 57))
            proof = lg.prove_inclusion(led, pos)
            if not proof.hashes:
                continue
            i = int(rng.integers(0, len(proof.hashes)))
            byte = int(rng.integers(0, 32))
            h = proof.hashes[i]
            mutated = list(proof.hashes)
            mutated[i] = (h[:byte] + bytes([h[byte] ^ (1 << int(rng.integers(0, 8)))])
                          + h[byte + 1:])
            assert not lg.verify_inclusion(led.root, 57, led.leaf(pos),
                                           lg.MerkleProof(pos, 57, tuple(mutated)))

    def test_out_of_range_position(self):
        led = build(4)
        with pytest.raises(IndexError):
            lg.prove_inclusion(led, 4)
        with pytest.raises(IndexError):  # a size beyond the ledger
            lg.prove_inclusion(led, 0, 5)


class TestExtension:
    def test_identity_extension(self):
        led = build(10)
        proof = lg.prove_extension(led, 10, 10)
        assert lg.verify_extension(led.root, 10, led.root, 10, proof)

    def test_from_empty_exhaustive(self):
        for n in range(1, 65):
            led = build(n)
            proof = lg.prove_extension(led, 0, n)
            assert lg.verify_extension(led.root_at(0), 0, led.root, n, proof)

    def test_all_prefix_pairs_small(self):
        led = build(33)
        for i in range(34):
            for j in range(i, 34):
                proof = lg.prove_extension(led, i, j)
                assert lg.verify_extension(led.root_at(i), i, led.root_at(j), j, proof)

    def test_deleted_middle_leaf_invalid(self):
        led = build(12)
        old_root = led.root_at(8)
        # provider rewrites history without record 3
        forged = lg.MerkleLedger()
        for i in range(12):
            if i != 3:
                forged.append(rec(i))
        assert forged.root != led.root
        with pytest.raises(IndexError):  # the forged ledger holds 11 records
            lg.prove_extension(forged, 8, 12)
        # a proof from the forged ledger cannot verify against the old root
        proof = lg.prove_extension(forged, 8, 11)
        assert not lg.verify_extension(old_root, 8, forged.root, 11, proof)

    def test_out_of_range_sizes_rejected(self):
        led = build(6)
        for old_size, new_size in ((-1, 3), (4, 3), (0, 7), (7, 7)):
            with pytest.raises(IndexError):
                lg.prove_extension(led, old_size, new_size)

    def test_timestamp_regression_rejected(self):
        led = build(3)
        with pytest.raises(ValueError):
            led.append(lg.QueryRecord("a", "t", sha256(b"x"), sha256(b"y"), 1))


class TestReferenceOracle:
    def test_every_position_and_prefix_pair_small(self):
        for n in range(71):
            led = build(n)
            leaves = [led.leaf(i) for i in range(n)]
            assert [led.root_at(s) for s in range(n + 1)] == [
                ref_root(leaves[:s]) for s in range(n + 1)]
            for pos in range(n):
                assert_inclusion_matches(led, leaves, pos, n)
            for i in range(n + 1):
                assert_extension_matches(led, leaves, i, n)
        # every prefix snapshot of the 70-leaf ledger, which has stored
        # subtrees beyond each prefix
        for j in range(n + 1):
            for i in range(j + 1):
                assert_extension_matches(led, leaves, i, j)
            for pos in range(j):
                assert_inclusion_matches(led, leaves, pos, j)

    @pytest.mark.parametrize("n", [1000, 4097])
    def test_random_positions_and_pairs_large(self, n):
        rng = np.random.default_rng(n)
        led = build(n)
        leaves = [led.leaf(i) for i in range(n)]
        for _ in range(25):
            j = int(rng.integers(1, n + 1))
            i = int(rng.integers(0, j + 1))
            assert led.root_at(j) == ref_root(leaves[:j])
            assert_extension_matches(led, leaves, i, j)
            assert_inclusion_matches(led, leaves, int(rng.integers(0, j)), j)
            assert_inclusion_matches(led, leaves, int(rng.integers(0, n)), n)

    def test_merkle_root_matches_reference(self):
        leaves = [sha256(b"leaf%d" % i) for i in range(2001)]
        for n in list(range(301)) + [2000, 2001]:
            assert lg.merkle_root(leaves[:n]) == ref_root(leaves[:n]), n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_proofs_match_reference(n, data):
    led = build(n)
    leaves = [led.leaf(i) for i in range(n)]
    j = data.draw(st.integers(min_value=1, max_value=n))
    i = data.draw(st.integers(min_value=0, max_value=j))
    pos = data.draw(st.integers(min_value=0, max_value=j - 1))
    assert led.root_at(j) == ref_root(leaves[:j])
    assert_extension_matches(led, leaves, i, j)
    assert_inclusion_matches(led, leaves, pos, j)


# What a proof may not hold: a size that is not a uint64 int, a hash that
# is not 32 bytes.
BAD_SIZES = [-1, True, False, 2**64, 1.0, "1", None]
BAD_HASHES = [b"", b"\x00" * 31, b"\x00" * 33, bytearray(32), "0" * 32, None]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_verifiers_bind_position_and_refuse_malformed_proofs(n, data):
    # RFC 9162 checks: the position and the sizes decide the side of each
    # sibling, and a malformed proof is False, never an exception
    led = build(n)
    j = data.draw(st.integers(min_value=1, max_value=n))
    i = data.draw(st.integers(min_value=0, max_value=j))
    pos = data.draw(st.integers(min_value=0, max_value=j - 1))
    root, old_root, leaf = led.root_at(j), led.root_at(i), led.leaf(pos)
    inclusion, extension = lg.prove_inclusion(led, pos, j), lg.prove_extension(led, i, j)
    assert lg.verify_inclusion(root, j, leaf, inclusion)
    assert lg.verify_extension(old_root, i, root, j, extension)
    other = data.draw(st.integers(min_value=0, max_value=j - 1))
    if led.leaf(other) != leaf:
        relabelled = dataclasses.replace(inclusion, leaf_position=other)
        assert lg.verify_inclusion(root, j, leaf, relabelled) is False
    size = data.draw(st.sampled_from(BAD_SIZES))
    for field in ("leaf_position", "tree_size"):
        bad = dataclasses.replace(inclusion, **{field: size})
        assert lg.verify_inclusion(root, j, leaf, bad) is False, (field, size)
    for field in ("old_size", "new_size"):
        bad = dataclasses.replace(extension, **{field: size})
        assert lg.verify_extension(old_root, i, root, j, bad) is False, (field, size)
    bad_hash = data.draw(st.sampled_from(BAD_HASHES))
    for proof, verify in ((inclusion, lambda p: lg.verify_inclusion(root, j, leaf, p)),
                          (extension, lambda p: lg.verify_extension(old_root, i, root, j, p))):
        at = data.draw(st.integers(min_value=0, max_value=len(proof.hashes)))
        hashes = proof.hashes[:at] + (bad_hash,) + proof.hashes[at + 1:]
        assert verify(dataclasses.replace(proof, hashes=hashes)) is False, (at, bad_hash)
        assert verify(dataclasses.replace(proof, hashes=None)) is False
        assert verify(None) is False


def test_verifiers_take_the_size_from_the_caller():
    # the hashes of a 3-leaf proof fold to root_at(3) under a claimed size
    # of 4 too; the caller's size, held with the root, refuses them
    led = build(4)
    inclusion = lg.prove_inclusion(led, 0, 3)
    assert lg.verify_inclusion(led.root_at(3), 3, led.leaf(0), inclusion)
    assert not lg.verify_inclusion(led.root_at(3), 3, led.leaf(0),
                                   lg.MerkleProof(0, 4, inclusion.hashes))
    extension = lg.prove_extension(led, 1, 3)
    assert lg.verify_extension(led.root_at(1), 1, led.root_at(3), 3, extension)
    assert not lg.verify_extension(led.root_at(1), 1, led.root_at(3), 3,
                                   lg.ConsistencyProof(1, 4, extension.hashes))


class _CountingJournal(list):
    """Root journal that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def __contains__(self, value):
        self.reads += len(self)
        return super().__contains__(value)

    def index(self, *args):
        self.reads += len(self)
        return super().index(*args)


def test_hash_counts_are_logarithmic(monkeypatch):
    n = 2 ** 12 + 1
    log_n = math.ceil(math.log2(n))
    calls = [0]
    real_sha256 = lg.sha256

    def counting_sha256(data):
        calls[0] += 1
        return real_sha256(data)

    def hashes(fn, *args):
        before = calls[0]
        result = fn(*args)
        return result, calls[0] - before

    monkeypatch.setattr(lg, "sha256", counting_sha256)
    sk, pk = lg.generate_test_keypair()
    led = lg.MerkleLedger()
    receipts = []
    for i in range(n):
        r = rec(i)
        (root, pos), cost = hashes(led.append, r)
        assert cost <= log_n + 2, (i, cost)
        if pos in (0, 1, 2 ** 11 - 1, 2 ** 11, 2 ** 12 - 1, 2 ** 12):
            receipts.append(lg.issue_receipt(r, pos, root, sk))
    for rc in receipts:
        check, cost = hashes(lg.verify_receipt, rc, pk, led)
        assert check.consistent
        assert cost == 0, (rc.leaf_position, cost)  # read from the root journal
    cases = [(i, j, led.root_at(i), led.root_at(j))
             for i, j in ((0, n), (1, n), (2 ** 11 + 1, n), (n, n), (7, 2 ** 12))]
    led._roots = _CountingJournal(led._roots)
    for i, j, old_root, new_root in cases:
        proof, cost = hashes(lg.prove_extension, led, i, j)
        assert cost <= log_n
        valid, cost = hashes(lg.verify_extension, old_root, i, new_root, j, proof)
        assert valid and cost <= 2 * len(proof.hashes) + 1
    assert led._roots.reads == 0  # a proof is asked for by sizes


class TestBinding:
    def test_random_sequence_pairs_distinct_roots(self):
        rng = np.random.default_rng(0)
        seen = {}
        for trial in range(100_000):
            n = int(rng.integers(1, 4))
            leaves = [sha256(int(rng.integers(0, 2**63)).to_bytes(8, "big"))
                      for _ in range(n)]
            root = lg.merkle_root(leaves)
            key = tuple(leaves)
            if root in seen:
                assert seen[root] == key  # same sequence, not a collision
            seen[root] = key

    def test_avalanche_on_index_commitment(self):
        rng = np.random.default_rng(1)
        policy = PolicyParams.calibrated(1.0, 1e-6, 10, 10, 1e-3)
        idx_a = TenantIndex("alpha", random_unit_vectors(rng, 4, 8))
        idx_b = TenantIndex("beta", random_unit_vectors(rng, 4, 8))
        seed, key = b"\x09" * 32, lg.generate_test_keypair()[1]
        bundle = lg.commit_phase_a(policy, sha256(b"emb"), [idx_a, idx_b], seed, key)
        # flip one embedding of one tenant
        emb = idx_a.embeddings.copy()
        emb[2] = -emb[2]
        idx_a2 = TenantIndex("alpha", emb)
        bundle2 = lg.commit_phase_a(policy, sha256(b"emb"), [idx_a2, idx_b], seed, key)
        assert bundle.c_idx["alpha"] != bundle2.c_idx["alpha"]
        assert bundle.c_idx["beta"] == bundle2.c_idx["beta"]
        assert bundle.c_seed == bundle2.c_seed

    def test_duplicate_tenants_rejected(self):
        rng = np.random.default_rng(2)
        policy = PolicyParams.calibrated(1.0, 1e-6, 10, 10, 1e-3)
        idx = TenantIndex("t", random_unit_vectors(rng, 2, 4))
        with pytest.raises(ValueError):
            lg.commit_phase_a(policy, sha256(b"e"), [idx, idx], b"\x00" * 32,
                              lg.generate_test_keypair()[1])

    def test_empty_tenant_set(self):
        policy = PolicyParams.calibrated(1.0, 1e-6, 10, 10, 1e-3)
        bundle = lg.commit_phase_a(policy, sha256(b"e"), [], b"\x00" * 32,
                                   lg.generate_test_keypair()[1])
        assert bundle.c_idx == {}

    def test_receipt_key_committed_raw(self):
        policy = PolicyParams.calibrated(1.0, 1e-6, 10, 10, 1e-3)
        _, pk = lg.generate_test_keypair(b"\x05" * 32)
        bundle = lg.commit_phase_a(policy, sha256(b"e"), [], b"\x00" * 32, pk)
        assert bundle.c_receipt_key == pk.public_bytes_raw()
        with pytest.raises(ValueError, match="c_receipt_key must be 32 bytes"):
            dataclasses.replace(bundle, c_receipt_key=bundle.c_receipt_key[:31])

    @pytest.mark.parametrize("field,value", [
        ("c_idx", [1]), ("c_idx", None), ("published_at", "x"), ("published_at", None),
        ("published_at", True), ("published_at", -1), ("published_at", 0.0),
    ])
    def test_malformed_index_roots_or_time_rejected(self, field, value):
        policy = PolicyParams.calibrated(1.0, 1e-6, 10, 10, 1e-3)
        bundle = lg.commit_phase_a(policy, sha256(b"e"), [], b"\x00" * 32,
                                   lg.generate_test_keypair()[1])
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(bundle, **{field: value})


def ref_index_root(embeddings):
    """The index commitment as first defined: one embedding digest per row."""
    return lg.merkle_root([lg._leaf_hash(embedding_digest(v)) for v in embeddings])


@st.composite
def index_arrays(draw):
    """2-D arrays of every dtype and memory layout an opening can have,
    with signed zeros, NaN, infinities and subnormals among the values."""
    n, d = draw(st.integers(0, 70)), draw(st.integers(0, 40))
    dtype = np.dtype(draw(st.sampled_from(["<f8", "<f4", "<i8", ">f8"])))
    layout = draw(st.sampled_from(["C", "F", "row-strided", "column-strided"]))
    if dtype.kind == "i":
        elements = st.integers(-2**63, 2**63 - 1)
    else:
        info = np.finfo(dtype)
        specials = [-0.0, math.nan, math.inf, -math.inf, float(info.smallest_subnormal),
                    -float(info.smallest_subnormal)]
        elements = st.one_of(st.sampled_from(specials), st.floats(width=info.bits))
    shape = {"row-strided": (2 * n, d), "column-strided": (n, 2 * d)}.get(layout, (n, d))
    E = draw(hnp.arrays(dtype, shape, elements=elements))
    return {"C": E, "F": np.asfortranarray(E), "row-strided": E[::2],
            "column-strided": E[:, ::2]}[layout]


class TestIndexRoot:
    @settings(max_examples=300, deadline=None)
    @given(index_arrays())
    def test_equals_one_digest_per_row(self, E):
        assert lg.index_root(E) == ref_index_root(E)

    def test_pinned_root_and_hash_count(self, monkeypatch):
        # root recorded with ref_index_root; 3N - 1 hashes as the ledger
        # module's docstring states
        E = random_unit_vectors(np.random.default_rng(2000), 2000, 64)
        calls = []
        monkeypatch.setattr(lg, "sha256", lambda data: calls.append(1) or sha256(data))
        assert lg.index_root(E).hex() == (
            "c289bc6e38ac94cf0ca9c4ce2100926e6aab442c823a1305f1f7cf3843eaf4ba")
        assert len(calls) == 3 * 2000 - 1

    @pytest.mark.parametrize("value", [np.float64(0.5), np.full(16, 0.25),
                                       np.zeros((2, 3, 4))],
                             ids=["0-d", "1-d", "3-d"])
    def test_only_two_dimensional_arrays(self, value):
        with pytest.raises(ValueError, match=r"\(N, d\) array"):
            lg.index_root(value)


class TestReceipts:
    def setup_method(self):
        self.sk, self.pk = lg.generate_test_keypair()

    def _ledger_with_receipts(self, n=9):
        led = lg.MerkleLedger()
        receipts = []
        for i in range(n):
            r = rec(i)
            root, pos = led.append(r)
            receipts.append(lg.issue_receipt(r, pos, root, self.sk))
        return led, receipts

    def test_honest_receipts_consistent(self):
        led, receipts = self._ledger_with_receipts()
        for rc in receipts:
            assert lg.verify_receipt(rc, self.pk, led).consistent

    def test_bad_signature_on_consistent_receipt_is_consistent(self):
        # the journal holds what the receipt says: no violation to show,
        # so its signature is never read
        led, receipts = self._ledger_with_receipts()
        unsigned = dataclasses.replace(receipts[0], signature=bytes(64))
        assert lg.verify_receipt(unsigned, self.pk, led).consistent

    def test_bad_signature_on_inconsistent_receipt_is_rejected(self):
        # a receipt that would fail the provider, unsigned by its key, is
        # set aside; the same receipt under the key's signature is a witness
        led, receipts = self._ledger_with_receipts()
        forked = dataclasses.replace(receipts[0], ledger_root_at_issue=sha256(b"fork"))
        assert lg.verify_receipt(forked, self.pk, led) == lg.ReceiptCheck(
            "rejected", "bad signature")
        signed = dataclasses.replace(forked, signature=self.sk.sign(forked.signed_payload()))
        assert lg.verify_receipt(signed, self.pk, led) == lg.ReceiptCheck(
            "forgery_witness", "root at issue inconsistent with ledger")

    def test_rewritten_record_is_forgery_witness(self):
        led, receipts = self._ledger_with_receipts(5)
        # provider rewrites record 2's top-K digest after issuing the receipt
        rewritten = lg.MerkleLedger()
        for i, r in enumerate(led.records):
            if i == 2:
                r = lg.QueryRecord(r.account_id, r.tenant_id, r.query_digest,
                                   sha256(b"rewritten"), r.timestamp)
            rewritten.append(r)
        chk = lg.verify_receipt(receipts[2], self.pk, rewritten)
        assert chk.status == "forgery_witness"

    def test_dropped_record_is_non_inclusion_witness(self):
        led, receipts = self._ledger_with_receipts(5)
        truncated = lg.MerkleLedger()
        for r in led.records[:-1]:
            truncated.append(r)
        chk = lg.verify_receipt(receipts[-1], self.pk, truncated)
        assert chk.status == "non_inclusion_witness"

    def test_append_only_invariant_over_run(self):
        led, _ = self._ledger_with_receipts(20)
        for i in range(21):
            for j in range(i, 21):
                proof = lg.prove_extension(led, i, j)
                assert lg.verify_extension(led.root_at(i), i, led.root_at(j), j, proof)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        led = build(17)
        path = tmp_path / "ledger.bin"
        lg.save_ledger(led, path)
        back = lg.load_ledger(path)
        assert back.root == led.root
        assert back.records == led.records

    def test_corrupt_journal_detected(self, tmp_path):
        led = build(5)
        path = tmp_path / "ledger.bin"
        lg.save_ledger(led, path)
        journal = (tmp_path / "ledger.bin.roots").read_bytes()
        (tmp_path / "ledger.bin.roots").write_bytes(journal[:40] + b"\x00" + journal[41:])
        with pytest.raises(ValueError):
            lg.load_ledger(path)

    def test_missing_journal_rejected(self, tmp_path):
        path = tmp_path / "ledger.bin"
        lg.save_ledger(build(5), path)
        (tmp_path / "ledger.bin.roots").unlink()
        with pytest.raises(ValueError, match="root journal .* is missing"):
            lg.load_ledger(path)

    def test_dropped_record_rejected(self, tmp_path):
        # the record file loses its last record; the journal still has 6 roots
        path = tmp_path / "ledger.bin"
        lg.save_ledger(build(5), path)
        lg.save_ledger(build(4), tmp_path / "short.bin")
        path.write_bytes((tmp_path / "short.bin").read_bytes())
        with pytest.raises(ValueError, match=r"holds 192 bytes; 4 records need"):
            lg.load_ledger(path)

    @pytest.mark.parametrize("qd, ts", [(sha256(b"q")[:31], (2).to_bytes(8, "big")),
                                        (sha256(b"q"), b"\xff" * 9),
                                        (sha256(b"q"), (2).to_bytes(7, "big"))])
    def test_non_canonical_field_width_rejected(self, tmp_path, qd, ts):
        # a 9-byte timestamp once reached the canonical encoding and raised
        # OverflowError there
        path = tmp_path / "ledger.bin"
        lg.save_ledger(build(1), path)
        blob = canonical("a", "t", qd, sha256(b"k"), ts)
        with open(path, "ab") as fh:
            fh.write(len(blob).to_bytes(4, "big") + blob)
        with pytest.raises(ValueError, match=r"record 1: field widths \[1, 1, "):
            lg.load_ledger(path)

    def test_resave_replaces_both_files(self, tmp_path):
        # a save creates each file anew: hard links to the first save's
        # files keep its bytes, and the path holds what a fresh save writes
        path, fresh, links = tmp_path / "ledger.bin", tmp_path / "fresh.bin", tmp_path / "links"
        lg.save_ledger(build(5), path)
        links.mkdir()
        first = {}
        for suffix in ("", ".roots"):
            os.link(f"{path}{suffix}", links / f"l{suffix}")
            first[suffix] = Path(f"{path}{suffix}").read_bytes()
        lg.save_ledger(build(7), path)
        lg.save_ledger(build(7), fresh)
        for suffix in ("", ".roots"):
            assert Path(f"{path}{suffix}").read_bytes() == Path(f"{fresh}{suffix}").read_bytes()
            assert (links / f"l{suffix}").read_bytes() == first[suffix]
            assert first[suffix] != Path(f"{path}{suffix}").read_bytes()
        assert lg.load_ledger(path).root == build(7).root


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_inclusion_holds_at_random_positions(n, data):
    led = build(n)
    pos = data.draw(st.integers(min_value=0, max_value=n - 1))
    proof = lg.prove_inclusion(led, pos)
    assert lg.verify_inclusion(led.root, n, led.leaf(pos), proof)
