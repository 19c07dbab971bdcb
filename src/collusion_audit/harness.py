"""Multi-tenant noise-then-select retrieval simulator.

Implements the retrieval service (inner-product scores, per-coordinate
Gaussian noise added *before* top-K selection), with noise derived
deterministically from a committed window seed so the audit protocol can
re-execute every query bit-exactly, plus embedding digests and the
embedding file format.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoding import sha256

__all__ = [
    "TenantIndex",
    "NoiseSeedRecord",
    "RetrievalOutput",
    "topk_retrieve",
    "derive_noise_block",
    "embedding_digest",
    "index_leaf_digests",
    "load_embeddings",
    "save_embeddings",
    "random_unit_vectors",
]

_NORM_TOL = 1e-9


def random_unit_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n iid draws from the uniform distribution on the unit sphere in R^d."""
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def embedding_digest(vector: np.ndarray) -> bytes:
    """Canonical digest of one embedding (big-endian doubles)."""
    raw = np.asarray(vector, dtype=">f8").tobytes()
    return sha256(raw)


@dataclass
class TenantIndex:
    """One tenant's document index: unit-norm embeddings plus doc ids."""

    tenant_id: str
    embeddings: np.ndarray  # shape (N, d)
    doc_ids: list = field(default_factory=list)

    def __post_init__(self):
        self.embeddings = np.atleast_2d(np.asarray(self.embeddings, dtype=np.float64))
        if not self.doc_ids:
            self.doc_ids = [f"{self.tenant_id}/doc{i}" for i in range(len(self.embeddings))]
        if len(self.doc_ids) != len(self.embeddings):
            raise ValueError("doc_ids and embeddings must be parallel")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):
            raise ValueError("embeddings must be unit-norm to 1e-9")

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def index_leaf_digests(index: TenantIndex) -> list:
    """Per-embedding digests in index order (vector-commitment leaves)."""
    return [embedding_digest(v) for v in index.embeddings]


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


@dataclass(frozen=True)
class RetrievalOutput:
    topk_positions: tuple
    topk_doc_ids: tuple


# coordinate || counter on the way in, the two leading 64-bit words of the
# digest on the way out
_U64_PAIR = struct.Struct(">QQ")


def derive_noise_block(
    window_seed: bytes, record_digest: bytes, n_coords: int, sigma: float
) -> np.ndarray:
    """N(0, sigma^2) noise for score coordinates 0..n_coords-1.

    H(seed || record_digest || coordinate_8B_BE || counter) is expanded in
    counter mode into 64-bit uniforms fed through Box-Muller; bit-exact
    wherever SHA-256 and IEEE-754 agree. The shared prefix is hashed once
    and its SHA-256 state copied per coordinate.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    prefix = hashlib.sha256(window_seed + record_digest)
    pack, unpack = _U64_PAIR.pack, _U64_PAIR.unpack_from
    log, cos, sqrt, two_pi = math.log, math.cos, math.sqrt, 2.0 * math.pi
    draws = []
    for coordinate in range(n_coords):
        h = prefix.copy()
        h.update(pack(coordinate, 0))
        w1, w2 = unpack(h.digest())
        u1 = (w1 + 0.5) / 2.0**64
        u2 = (w2 + 0.5) / 2.0**64
        draws.append(sigma * sqrt(-2.0 * log(u1)) * cos(two_pi * u2))
    return np.array(draws)


def topk_retrieve(
    index: TenantIndex, query: np.ndarray, K: int, noise: NoiseSeedRecord
) -> RetrievalOutput:
    """Noise-then-select retrieval: noise every score at ``noise.sigma``,
    then take the K largest (ties broken toward the lower position index)."""
    if K > len(index):
        raise ValueError("K exceeds index size")
    scores = index.embeddings @ np.asarray(query, dtype=np.float64)
    if noise.sigma > 0:
        scores = scores + derive_noise_block(
            noise.window_seed, noise.query_record_digest, len(index), noise.sigma
        )
    order = np.argsort(-scores, kind="stable")
    top = order[:K]
    return RetrievalOutput(
        topk_positions=tuple(int(i) for i in top),
        topk_doc_ids=tuple(index.doc_ids[i] for i in top),
    )


_EMB_MAGIC = b"EMB1"


def save_embeddings(path, embeddings: np.ndarray) -> None:
    """Flat binary embedding file: magic, then d and N as 64-bit
    little-endian, then N*d little-endian doubles."""
    arr = np.atleast_2d(np.asarray(embeddings, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<qq", arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def load_embeddings(path) -> np.ndarray:
    """Inverse of :func:`save_embeddings`; supports externally produced
    (trained-embedder) indices."""
    with open(path, "rb") as fh:
        if fh.read(4) != _EMB_MAGIC:
            raise ValueError("bad embedding file magic")
        d, n = struct.unpack("<qq", fh.read(16))
        data = np.frombuffer(fh.read(8 * d * n), dtype="<f8")
    if data.size != d * n:
        raise ValueError("truncated embedding file")
    return data.reshape(n, d).astype(np.float64)
