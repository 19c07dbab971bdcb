import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from collusion_audit import harness as hs


def noise_record(sigma=1.0, seed_byte=0, digest_byte=1):
    return hs.NoiseSeedRecord(bytes([seed_byte]) * 32, bytes([digest_byte]) * 32, sigma)


def _box_muller(word_bytes, sigma):
    u1 = (int.from_bytes(word_bytes[:8], "big") + 0.5) / 2.0**64
    u2 = (int.from_bytes(word_bytes[8:16], "big") + 0.5) / 2.0**64
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def reference_noise(seed, digest, i, sigma):
    # the noise-v2 draw written out once per coordinate: bytes [16i, 16i+16)
    # of the SHAKE-256 stream over the length-prefixed (tag, seed, digest)
    preimage = b"".join(len(f).to_bytes(4, "big") + f for f in (b"noise-v2", seed, digest))
    stream = hashlib.shake_256(preimage).digest(16 * (i + 1))
    return _box_muller(stream[16 * i:16 * i + 16], sigma)


def reference_noise_v1(seed, digest, i, sigma):
    # the retired noise-v1 draw: one SHA-256 per coordinate
    return _box_muller(hashlib.sha256(seed + digest + i.to_bytes(8, "big") + bytes(8)).digest(),
                       sigma)


def reference_topk(embeddings, query, K, noise):
    # the full path: noise every score with derive_noise_block, then take
    # the first K of a stable sort
    scores = np.asarray(embeddings, dtype=np.float64) @ np.asarray(query, dtype=np.float64)
    if noise.sigma > 0:
        scores = scores + hs.derive_noise_block(noise.window_seed, noise.query_record_digest,
                                                len(scores), noise.sigma)
    return tuple(int(i) for i in np.argsort(-scores, kind="stable")[:K])


def dispatch_digests():
    # the 4096-coordinate noise block, and the top K over a fixed battery
    # of index sizes, sigmas and K, each as a SHA-256 hex digest
    block = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 4096, 1.0)
    rng = np.random.default_rng(2024)
    tops = []
    for n in (70, 257, 2000, 5000):
        emb = hs.random_unit_vectors(rng, n, 32)
        for sigma in (1e-12, 1.0, 30.0, 1e6):
            for K in (1, 5, 10):
                query = hs.random_unit_vectors(rng, 1, 32)[0]
                noise = hs.NoiseSeedRecord(rng.bytes(32), rng.bytes(32), sigma)
                tops.append(hs.topk_retrieve(emb, query, K, noise))
    return (hashlib.sha256(block.astype(">f8").tobytes()).hexdigest(),
            hashlib.sha256(repr(tops).encode()).hexdigest())


class TestTenantIndex:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            hs.TenantIndex("t", np.array([[1.0, 1.0]]))


class TestDeriveNoise:
    def test_deterministic(self):
        a = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 6, 2.0)
        b = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 6, 2.0)
        assert a.tolist() == b.tolist()

    def test_known_value_is_stable(self):
        # frozen regression value: bit-exact across platforms/runs
        block = hs.derive_noise_block(b"\x00" * 32, b"\x00" * 32, 1, 1.0)
        assert block[0] == -1.0486476680507755

    def test_known_block_is_stable(self):
        block = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 4096, 1.0)
        assert block.dtype == np.float64 and block.shape == (4096,)
        assert hashlib.sha256(block.astype(">f8").tobytes()).hexdigest() == (
            "bccf7d4a215c670b2958c564b968a5eed5e0da835469b1b4d90d2ecd09699d04"
        )

    @pytest.mark.parametrize("sigma", [0.0, 0.37, 2.0])
    def test_block_equals_scalar_draws(self, sigma):
        seed, digest = b"\x03" * 32, b"\x04" * 32
        block = hs.derive_noise_block(seed, digest, 300, sigma)
        assert block.tolist() == [reference_noise(seed, digest, i, sigma) for i in range(300)]

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            seed, digest = rng.bytes(32), rng.bytes(32)
            sigma = float(rng.uniform(0.0, 8.0))
            block = hs.derive_noise_block(seed, digest, 40, sigma)
            assert block.tolist() == [reference_noise(seed, digest, i, sigma) for i in range(40)]

    def test_word_to_float_rounds_as_python(self):
        # round-half-even boundaries of the uint64 -> float64 conversion,
        # in a long array too so that vectorised cast loops are covered
        words = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**54 + 2, 2**54 + 6,
                 2**62 + 2**9 - 1, 2**62 + 2**9, 2**62 + 2**9 + 1, 2**62 + 3 * 2**9,
                 2**63 - 1, 2**63, 2**63 + 2**10 - 1, 2**63 + 2**10, 2**63 + 2**10 + 1,
                 2**63 + 3 * 2**10, 2**64 - 2**11, 2**64 - 2**10 - 1, 2**64 - 2**10,
                 2**64 - 2**10 + 1, 2**64 - 2, 2**64 - 1]
        for array in (np.array(words, np.uint64), np.tile(np.array(words, np.uint64), 100)):
            floats = array.astype(np.float64)
            assert floats.tolist() == [float(w) for w in array.tolist()]
            uniforms = (floats + 0.5) / 2.0**64
            assert uniforms.tolist() == [(w + 0.5) / 2.0**64 for w in array.tolist()]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_blocks(self, n):
        seed, digest = b"\x05" * 32, b"\x06" * 32
        block = hs.derive_noise_block(seed, digest, n, 0.8)
        assert block.dtype == np.float64 and block.shape == (n,)
        expected = np.array([reference_noise(seed, digest, i, 0.8) for i in range(n)],
                            dtype=np.float64)
        assert block.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32),
           digest=st.binary(min_size=32, max_size=32),
           n=st.integers(0, 70),
           sigma=st.one_of(st.just(0.0),
                           st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)))
    def test_block_bits_equal_reference(self, seed, digest, n, sigma):
        # compared as bytes: value equality would take -0.0 for 0.0
        block = hs.derive_noise_block(seed, digest, n, sigma)
        expected = np.array([reference_noise(seed, digest, i, sigma) for i in range(n)],
                            dtype=np.float64)
        assert block.tobytes() == expected.tobytes()

    def test_scales_linearly_in_sigma(self):
        v1 = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 1, 1.0)[0]
        v3 = hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 1, 3.0)[0]
        assert v3 == pytest.approx(3 * v1, rel=1e-12)

    def test_moments_and_independence(self):
        seed = b"\x05" * 32
        n = 1_000_000
        # distinct record digests, chunked for speed
        draws = np.empty(n)
        chunk = 4096
        for start in range(0, n, chunk):
            m = min(chunk, n - start)
            digest = start.to_bytes(32, "big")
            draws[start:start + m] = hs.derive_noise_block(seed, digest, m, 1.0)[:m]
        assert abs(np.var(draws) - 1.0) <= 0.01
        assert abs(np.mean(draws)) <= 0.005
        # lag-1 autocorrelation
        r = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(r) < 0.01
        # noise freshness: no duplicate draws
        assert len(np.unique(draws)) == n

    @staticmethod
    def _draws(derive, n=200_000, chunk=4096):
        # the layout of test_moments_and_independence
        seed, draws = b"\x05" * 32, np.empty(n)
        for start in range(0, n, chunk):
            m = min(chunk, n - start)
            draws[start:start + m] = derive(seed, start.to_bytes(32, "big"), m)
        return draws

    def test_same_law_as_v1(self):
        # noise-v2 changes the bits, not the law: two-sample KS against the
        # retired v1 derivation, and each version against N(0, 1)
        v2 = self._draws(lambda seed, digest, m: hs.derive_noise_block(seed, digest, m, 1.0))
        v1 = self._draws(lambda seed, digest, m: [reference_noise_v1(seed, digest, i, 1.0)
                                                  for i in range(m)])
        assert stats.ks_2samp(v1, v2).pvalue >= 0.01
        assert stats.kstest(v1, "norm").pvalue >= 0.01
        assert stats.kstest(v2, "norm").pvalue >= 0.01

    def test_bits_do_not_depend_on_simd_dispatch(self):
        # numpy picks SIMD kernels by CPU feature at run time; with the
        # AVX-512 dispatch targets switched off (ignored on a CPU without
        # them) the noise block must hash the same, and so must the top K
        # over a battery, whose candidate filter reads numpy's log/cos
        code = "import test_harness as t; print(*t.dispatch_digests())"
        path = os.pathsep.join([str(Path(hs.__file__).parents[1]), str(Path(__file__).parent)])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
                   PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == list(dispatch_digests())

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            hs.derive_noise_block(b"\x01" * 32, b"\x02" * 32, 4, sigma)
        with pytest.raises(ValueError):
            noise_record(sigma)

    @pytest.mark.parametrize("sigma", [1e-12, 1.0, 1e6])
    def test_estimate_error_far_inside_slack(self, sigma):
        # the candidate filter of topk_retrieve assumes numpy's log/cos
        # estimate of the noise lies within slack (at least 1e-9 * sigma) of
        # the libm values; pin a margin of 10**6 on top of that
        seed, digest = b"\x07" * 32, b"\x08" * 32
        u1, u2 = hs._uniforms(seed, digest, 100_000)
        error = np.abs(hs._box_muller_estimate(u1, u2, sigma)
                       - hs.derive_noise_block(seed, digest, 100_000, sigma))
        assert error.max() <= 1e-6 * hs._SLACK * sigma


class TestTopkRetrieve:
    def test_exact_match_wins_noiseless(self):
        assert hs.topk_retrieve(np.eye(6), np.eye(6)[3], 1, noise_record(0.0)) == (3,)

    def test_full_k_is_permutation(self):
        out = hs.topk_retrieve(np.eye(5), np.eye(5)[0], 5, noise_record(3.0))
        assert sorted(out) == [0, 1, 2, 3, 4]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            hs.topk_retrieve(np.eye(4), np.eye(4)[0], 5, noise_record(1.0))

    @pytest.mark.parametrize("K", [0, -1])
    def test_k_below_one(self, K):
        # a slice [:K] would return no position at 0 and N - 1 at -1
        with pytest.raises(ValueError):
            hs.topk_retrieve(np.eye(4), np.eye(4)[0], K, noise_record(1.0))

    def test_tie_break_lowest_index(self):
        # two identical embeddings, no noise: lower position ranks first
        emb = np.vstack([np.eye(3)[0], np.eye(3)[0], np.eye(3)[1]])
        assert hs.topk_retrieve(emb, np.eye(3)[0], 2, noise_record(0.0)) == (0, 1)

    def test_tenant_isolation(self):
        # retrieval depends only on the supplied embeddings: mutating an
        # unrelated index cannot change the output
        rng = np.random.default_rng(0)
        emb = hs.random_unit_vectors(rng, 8, 4)
        other = hs.random_unit_vectors(rng, 8, 4)
        q = hs.random_unit_vectors(rng, 1, 4)[0]
        before = hs.topk_retrieve(emb, q, 3, noise_record(1.0))
        other[:] = 0.0  # canary mutation outside the index
        assert hs.topk_retrieve(emb, q, 3, noise_record(1.0)) == before
        assert all(p < len(emb) for p in before)

    def test_determinism_under_fixed_record(self):
        rng = np.random.default_rng(1)
        emb = hs.random_unit_vectors(rng, 10, 6)
        q = hs.random_unit_vectors(rng, 1, 6)[0]
        a = hs.topk_retrieve(emb, q, 4, noise_record(2.0))
        assert hs.topk_retrieve(emb, q, 4, noise_record(2.0)) == a

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           n=st.integers(1, 3000),
           d=st.integers(1, 8),
           rng_seed=st.integers(0, 2**32 - 1),
           duplicates=st.booleans(),
           scale=st.sampled_from([1.0, 1e6]),
           sigma=st.sampled_from([0.0, 1e-12, 1.0, 30.0, 1e6]),
           special=st.sampled_from([None, math.nan, math.inf, -math.inf]))
    def test_equals_full_noise_then_stable_sort(self, data, n, d, rng_seed, duplicates, scale,
                                                 sigma, special):
        # duplicate rows tie exactly at sigma 0, and also under noise when
        # the scores are so large (scale 1e6) that sigma 1e-12 rounds away
        K = data.draw(st.integers(1, min(n, 10)), label="K")
        rng = np.random.default_rng(rng_seed)
        emb = hs.random_unit_vectors(rng, n, d)
        if duplicates:
            emb = emb[rng.integers(0, n // 4 + 1, n)]  # each row one of n // 4 + 1
        query = scale * hs.random_unit_vectors(rng, 1, d)[0]
        if special is not None:
            query[rng.integers(0, d)] = special
        noise = hs.NoiseSeedRecord(rng.bytes(32), rng.bytes(32), sigma)
        assert hs.topk_retrieve(emb, query, K, noise) == reference_topk(emb, query, K, noise)
