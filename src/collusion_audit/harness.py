"""Multi-tenant noise-then-select retrieval simulator.

Implements the retrieval service (inner-product scores, per-coordinate
Gaussian noise added *before* top-K selection) over a tenant's embeddings
array, with noise derived deterministically from a committed window seed
so the audit protocol can re-execute every query bit-exactly, plus the
embedding digest that index commitments and query digests share. The
noise derivation is named by ``NOISE_DERIVATION`` ("noise-v2": one
SHAKE-256 stream per record), and the policy commitment binds that name.

``derive_noise_block`` is the reference definition of the noise.
``topk_retrieve`` returns the same top K without deriving all of it:
numpy's vector log/cos estimate every noisy score, and the exact libm
noise is computed only for the candidates whose estimate lies within
2 * slack of the K-th largest estimate (slack = 1e-9 * (|t~| + sigma),
about 10**6 times numpy's error). The candidates contain the exact top
K: every estimate is within slack of its exact score, so the K-th
estimate is too, and a position reaching the exact K-th score t has an
estimate >= t - slack >= t~ - 2 * slack.
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
# relative half-width of the candidate filter in ``topk_retrieve``, and the
# smallest normal double, which keeps it above 0 for a subnormal sigma
_SLACK = 1e-9
_TINY = np.finfo(np.float64).tiny
# the index size from which the filter pays: it adds about 17 us of fixed
# numpy work a call and saves about 0.24 us of libm per coordinate it
# leaves out, so it breaks even near N = 70 (x86-64, 2 cores, numpy 2.4)
_FILTER_MIN_N = 70


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
        _check_sigma(self.sigma)


# names the derivation below; ``ledger.policy_commitment`` hashes it into
# c_policy, so provider and verifier agree on it or the audit FAILs
NOISE_DERIVATION = "noise-v2"


def _uniforms(window_seed: bytes, record_digest: bytes, n_coords: int) -> np.ndarray:
    """The (u1, u2) uniform pairs of coordinates 0..n_coords-1, as a
    (2, n_coords) array: one SHAKE-256 call yields 16 * n_coords bytes,
    coordinate i reads two big-endian 64-bit words w from bytes
    [16i, 16i + 16) and maps each to (w + 0.5) / 2**64."""
    stream = hashlib.shake_256(canonical(NOISE_DERIVATION, window_seed, record_digest))
    words = np.frombuffer(stream.digest(16 * n_coords), ">u8").reshape(n_coords, 2)
    return ((words.astype(np.float64) + 0.5) / 2.0**64).T


def _box_muller(u1: np.ndarray, u2: np.ndarray, sigma: float) -> np.ndarray:
    """The cos branch of Box-Muller with libm's log and cos: the exact
    noise-v2 values."""
    log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, len(u2))
    return sigma * np.sqrt(-2.0 * log_u1) * cos_u2


def _box_muller_estimate(u1: np.ndarray, u2: np.ndarray, sigma: float) -> np.ndarray:
    """``_box_muller`` in the same operation order with numpy's vector
    log and cos: within a few ulps of the exact values, not bit-equal."""
    return sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")


def derive_noise_block(
    window_seed: bytes, record_digest: bytes, n_coords: int, sigma: float
) -> np.ndarray:
    """N(0, sigma^2) noise for score coordinates 0..n_coords-1: the
    reference definition of noise-v2.

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
    _check_sigma(sigma)
    return _box_muller(*_uniforms(window_seed, record_digest, n_coords), sigma)


def _candidates(estimate: np.ndarray, K: int, sigma: float) -> np.ndarray:
    """The positions whose estimated noisy score is >= t~ - 2 * slack, t~
    being the K-th largest estimate; all positions when an estimate is
    not finite."""
    n = len(estimate)
    if not np.isfinite(estimate).all():
        return np.arange(n)
    t = np.partition(estimate, n - K)[n - K]
    slack = _SLACK * (abs(t) + sigma) + _TINY
    return np.flatnonzero(estimate >= t - 2.0 * slack)


def topk_retrieve(
    embeddings: np.ndarray, query: np.ndarray, K: int, noise: NoiseSeedRecord
) -> tuple:
    """Noise-then-select retrieval over an (N, d) embeddings array: noise
    every score at ``noise.sigma``, then return the positions of the K
    largest (ties broken toward the lower position).

    The result is that of adding ``derive_noise_block`` to all N scores
    and stable-sorting them, but the exact libm noise is computed only
    for candidates (filter, then refine). Every noisy score is estimated
    with numpy's log/cos; t~ is the K-th largest estimate and the
    candidates are the positions whose estimate is >= t~ - 2 * slack, with
    slack = 1e-9 * (|t~| + sigma) plus the smallest normal double. The
    candidates are then ranked on their exact scores, lowest position
    first among ties. Below ``_FILTER_MIN_N`` positions the filter costs
    more than it saves, and every position is a candidate.

    Invariant: the candidates contain every position whose exact score
    reaches the exact K-th score t, so they hold the exact top K with its
    ties. Proof: every estimate is within slack of its exact score, so at
    least N - K + 1 estimates are <= t + slack and t~ <= t + slack; a
    position with exact score >= t then has estimate >= t - slack >=
    t~ - 2 * slack. (numpy's log/cos differ from libm's by a few ulps,
    about 1e-16 * sigma, and the sum adds one ulp of the score: slack is
    wider by six orders of magnitude.) When an estimate is not finite (a
    NaN or infinite query) all N positions are candidates, which keeps
    NaN scores last.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = len(embeddings)
    if not 1 <= K <= n:
        raise ValueError("K must lie in 1..index size")
    scores = embeddings @ np.asarray(query, dtype=np.float64)
    if noise.sigma > 0:
        u1, u2 = _uniforms(noise.window_seed, noise.query_record_digest, n)
        if n >= _FILTER_MIN_N:
            keep = _candidates(scores + _box_muller_estimate(u1, u2, noise.sigma), K,
                               noise.sigma)
            noisy = scores[keep] + _box_muller(u1[keep], u2[keep], noise.sigma)
            return tuple(int(keep[i]) for i in np.argsort(-noisy, kind="stable")[:K])
        scores = scores + _box_muller(u1, u2, noise.sigma)
    return tuple(int(i) for i in np.argsort(-scores, kind="stable")[:K])
