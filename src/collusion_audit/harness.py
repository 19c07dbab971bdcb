"""Multi-tenant noise-then-select retrieval simulator.

Implements the retrieval service (inner-product scores, per-coordinate
Gaussian noise added *before* top-K selection) and the scalar release
mechanism used by the lower-bound construction, with noise derived
deterministically from a committed window seed so the audit protocol can
re-execute every query bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoding import hash_fields, sha256

__all__ = [
    "TenantIndex",
    "WorldPair",
    "NoiseSeedRecord",
    "RetrievalOutput",
    "make_world_pair",
    "scalar_mechanism",
    "topk_retrieve",
    "derive_noise",
    "derive_noise_block",
    "score_gap",
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


@dataclass
class WorldPair:
    """Neighboring indices differing in one planted document.

    World b=0 plants the target x_* at the slot after the shared
    background; world b=1 plants the decoy x_*' at the same slot.
    """

    base: TenantIndex
    target: np.ndarray
    decoy: np.ndarray
    probe: np.ndarray
    delta_gap: float

    @property
    def planted_position(self) -> int:
        return len(self.base)

    def planted(self, b: int) -> np.ndarray:
        return self.target if b == 0 else self.decoy

    def world_index(self, b: int) -> TenantIndex:
        emb = np.vstack([self.base.embeddings, self.planted(b)[None, :]])
        ids = list(self.base.doc_ids) + ["planted"]
        return TenantIndex(self.base.tenant_id, emb, ids)


def make_world_pair(
    d: int, delta_gap: float, n_background: int, seed, tenant_id: str = "victim"
) -> WorldPair:
    """Build the lower-bound world pair: probe q* = x_*, decoy at inner
    product 1 - delta_gap from q* (orthogonal when delta_gap = 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 < delta_gap <= 1.0:
        raise ValueError("delta_gap must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    target = random_unit_vectors(rng, 1, d)[0]
    # orthogonal helper direction via Gram-Schmidt
    u = random_unit_vectors(rng, 1, d)[0]
    u -= np.dot(u, target) * target
    u /= np.linalg.norm(u)
    c = 1.0 - delta_gap
    decoy = c * target + math.sqrt(max(0.0, 1.0 - c * c)) * u
    decoy /= np.linalg.norm(decoy)
    background = random_unit_vectors(rng, n_background, d)
    base = TenantIndex(tenant_id, background) if n_background else TenantIndex(
        tenant_id, np.empty((0, d)), doc_ids=[]
    )
    return WorldPair(
        base=base, target=target, decoy=decoy, probe=target.copy(),
        delta_gap=float(np.dot(target, target) - np.dot(target, decoy)),
    )


def score_gap(world: WorldPair) -> float:
    """Realized <q*, x_*> - <q*, x_*'>."""
    return float(np.dot(world.probe, world.target) - np.dot(world.probe, world.decoy))


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

    @property
    def window_seed_commitment(self) -> bytes:
        return sha256(self.window_seed)


@dataclass(frozen=True)
class RetrievalOutput:
    topk_positions: tuple
    topk_doc_ids: tuple


# coordinate || counter on the way in, the two leading 64-bit words of the
# digest on the way out
_U64_PAIR = struct.Struct(">QQ")


def _gaussian_draws(
    window_seed: bytes, record_digest: bytes, coordinates, sigma: float
) -> list:
    """N(0, sigma^2) draws at the given score coordinates.

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
    for coordinate in coordinates:
        h = prefix.copy()
        h.update(pack(coordinate, 0))
        w1, w2 = unpack(h.digest())
        u1 = (w1 + 0.5) / 2.0**64
        u2 = (w2 + 0.5) / 2.0**64
        draws.append(sigma * sqrt(-2.0 * log(u1)) * cos(two_pi * u2))
    return draws


def derive_noise(
    window_seed: bytes, record_digest: bytes, coordinate: int, sigma: float
) -> float:
    """One deterministic N(0, sigma^2) draw for a score coordinate."""
    return _gaussian_draws(window_seed, record_digest, (coordinate,), sigma)[0]


def derive_noise_block(
    window_seed: bytes, record_digest: bytes, n_coords: int, sigma: float
) -> np.ndarray:
    """Noise for coordinates 0..n_coords-1, equal element-wise to
    :func:`derive_noise` at each coordinate."""
    return np.array(_gaussian_draws(window_seed, record_digest, range(n_coords), sigma))


def scalar_mechanism(world: WorldPair, b: int, noise: NoiseSeedRecord) -> float:
    """The lower-bound scalar release <q*, x^(b)> + N(0, sigma^2)."""
    if b not in (0, 1):
        raise ValueError("world bit must be 0 or 1")
    z = derive_noise(noise.window_seed, noise.query_record_digest, 0, noise.sigma)
    return float(np.dot(world.probe, world.planted(b))) + z


def topk_retrieve(
    index: TenantIndex,
    query: np.ndarray,
    K: int,
    sigma: float,
    noise_base: NoiseSeedRecord,
) -> RetrievalOutput:
    """Noise-then-select retrieval: noise every score, then take the K
    largest (ties broken toward the lower position index)."""
    if K > len(index):
        raise ValueError("K exceeds index size")
    scores = index.embeddings @ np.asarray(query, dtype=np.float64)
    if sigma > 0:
        scores = scores + derive_noise_block(
            noise_base.window_seed, noise_base.query_record_digest, len(index), sigma
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
