"""Multi-tenant noise-then-select retrieval simulator.

Implements the retrieval service (inner-product scores, per-coordinate
Gaussian noise added *before* top-K selection) over a tenant's embeddings
array, with noise derived deterministically from a committed window seed
so the audit protocol can re-execute every query bit-exactly, plus the
embedding digest that index commitments and query digests share. The
noise derivation is named by ``NOISE_DERIVATION`` ("noise-v2": one
SHAKE-256 stream per record), and the policy commitment binds that name.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .encoding import canonical, sha256

__all__ = [
    "TenantIndex",
    "NoiseSeedRecord",
    "topk_retrieve",
    "NOISE_DERIVATION",
    "derive_noise_block",
    "embedding_digest",
    "is_unit_norm",
    "random_unit_vectors",
]

_NORM_TOL = 1e-9


def random_unit_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n iid draws from the uniform distribution on the unit sphere in R^d."""
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def embedding_digest(vector: np.ndarray) -> bytes:
    """Canonical digest of one embedding or query vector (big-endian
    doubles)."""
    raw = np.asarray(vector, dtype=">f8").tobytes()
    return sha256(raw)


def is_unit_norm(embeddings: np.ndarray) -> bool:
    """Whether every row of an (N, d) array has norm within 1e-9 of 1."""
    norms = np.linalg.norm(embeddings, axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= _NORM_TOL))


@dataclass
class TenantIndex:
    """One tenant's document index: unit-norm embeddings, the document at
    position p being named ``f"{tenant_id}/doc{p}"``."""

    tenant_id: str
    embeddings: np.ndarray  # shape (N, d)

    def __post_init__(self):
        self.embeddings = np.atleast_2d(np.asarray(self.embeddings, dtype=np.float64))
        if not is_unit_norm(self.embeddings):
            raise ValueError("embeddings must be unit-norm to 1e-9")


@dataclass(frozen=True)
class NoiseSeedRecord:
    """Binds one query's noise to the committed window seed.

    Holds the seed itself (service side); the published commitment is
    H(seed). Noise is a pure function of (seed, record digest, sigma).
    """

    window_seed: bytes
    query_record_digest: bytes
    sigma: float

    def __post_init__(self):
        if len(self.window_seed) != 32 or len(self.query_record_digest) != 32:
            raise ValueError("seed and record digest must be 32 bytes")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


# names the derivation below; ``ledger.policy_commitment`` hashes it into
# c_policy, so provider and verifier agree on it or the audit FAILs
NOISE_DERIVATION = "noise-v2"


def derive_noise_block(
    window_seed: bytes, record_digest: bytes, n_coords: int, sigma: float
) -> np.ndarray:
    """N(0, sigma^2) noise for score coordinates 0..n_coords-1.

    One SHAKE-256 call over canonical(NOISE_DERIVATION, seed,
    record_digest) yields 16 * n_coords bytes; coordinate i reads its two
    big-endian 64-bit words u1, u2 from bytes [16i, 16i + 16), maps each
    word w to (w + 0.5) / 2**64 and takes the cos branch of Box-Muller.

    The word-to-float conversion (round-half-even, as Python's int ->
    float), sqrt and the products are correctly rounded in numpy. log and
    cos go through libm's ``math.log``/``math.cos``: numpy picks its SIMD
    log/cos kernels by CPU feature at run time and they can differ from
    libm in the last bit, so a numpy transform could give a provider and
    a verifier on different CPUs different noise.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    stream = hashlib.shake_256(canonical(NOISE_DERIVATION, window_seed, record_digest))
    words = np.frombuffer(stream.digest(16 * n_coords), ">u8").reshape(n_coords, 2)
    u1, u2 = ((words.astype(np.float64) + 0.5) / 2.0**64).T
    log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, n_coords)
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64,
                         n_coords)
    return sigma * np.sqrt(-2.0 * log_u1) * cos_u2


def topk_retrieve(
    embeddings: np.ndarray, query: np.ndarray, K: int, noise: NoiseSeedRecord
) -> tuple:
    """Noise-then-select retrieval over an (N, d) embeddings array: noise
    every score at ``noise.sigma``, then return the positions of the K
    largest (ties broken toward the lower position)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if not 1 <= K <= len(embeddings):
        raise ValueError("K must lie in 1..index size")
    scores = embeddings @ np.asarray(query, dtype=np.float64)
    if noise.sigma > 0:
        scores = scores + derive_noise_block(
            noise.window_seed, noise.query_record_digest, len(embeddings), noise.sigma
        )
    return tuple(int(i) for i in np.argsort(-scores, kind="stable")[:K])
