"""Counter-based splittable random streams.

Every draw is a pure function of an ``(seed, stream, counter)`` triple, so
replaying a key reproduces the same bits on any platform, and chains can be
advanced in any interleaving without perturbing each other's sequences.  This
is what lets a kernel driven block-by-block through a state machine consume
exactly the same randomness as the same kernel run as one monolithic loop.

Conventions:

* one counter increment per scalar draw (a d-dimensional normal consumes d),
* normals come from the inverse CDF applied to the uniform output, so a
  block boundary can fall between any two draws without desynchronizing the
  counter,
* no cryptographic claims; the mixer is a splitmix64-style finalizer chain.

The rounds that depend only on ``(seed, stream)`` are computed once per
stream and cached (:func:`_stream_hash`), so a draw pays only for mixing in
its counter, as in counter-based generators (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1

# splitmix64 multipliers / increments (Steele, Lea & Flood 2014)
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xC2B2AE3D27D4EB4F
_COUNTER_SALT = 0x165667B19E3779F9

_INV_2_53 = 2.0 ** -53

# (seed, stream) pairs whose hash is kept; a batch holds one stream per chain
_STREAM_CACHE_SIZE = 4096


class RngKey(NamedTuple):
    """Immutable position in a random stream."""

    seed: int
    stream: int
    counter: int


def key(seed: int, stream: int = 0, counter: int = 0) -> RngKey:
    """Build a key, reducing all fields to 64-bit unsigned range."""
    return RngKey(seed & _MASK64, stream & _MASK64, counter & _MASK64)


def _mix64(x: int) -> int:
    # splitmix64 finalizer; a bijection on 64-bit ints
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _stream_hash(seed: int, stream: int) -> int:
    """The counter-independent half of :func:`_bits`.

    A chain draws from one ``(seed, stream)`` pair for its whole run, so the
    result is cached; the cache is bounded and evicts least-recently used
    pairs, which only costs a recomputation.
    """
    return _mix64(_mix64(seed + _GOLDEN) ^ _mix64(stream + _STREAM_SALT))


def _counter_bits(h: int, counter: int) -> int:
    """Finish :func:`_bits` from a stream hash ``h`` by mixing in the counter.

    Written flat because this sits on the hot path of every draw.
    """
    x = (counter + _COUNTER_SALT) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    x = h ^ x ^ (x >> 31)
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def _bits(seed: int, stream: int, counter: int) -> int:
    """64 pseudo-random bits for one (seed, stream, counter) triple.

    Equivalent to chained :func:`_mix64` rounds,
    ``mix(mix(mix(seed + G) ^ mix(stream + S)) ^ mix(counter + C))``.
    """
    return _counter_bits(_stream_hash(seed, stream), counter)


def split(k: RngKey, n_streams: int) -> list[RngKey]:
    """Derive ``n_streams`` child keys with pairwise-distinct streams.

    Child stream ids are a bijective mix of ``parent_stream * GOLDEN + i + 1``,
    so the ids produced by one call never collide with each other.  Counters
    are reset to 0.  Total and deterministic.
    """
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    base = (k.stream * _GOLDEN) & _MASK64
    return [RngKey(k.seed, _mix64(base + i + 1), 0) for i in range(n_streams)]


def uniform(k: RngKey) -> tuple[float, RngKey]:
    """One uniform variate in [0, 1); advances the counter by 1."""
    u = (_bits(k.seed, k.stream, k.counter) >> 11) * _INV_2_53
    return u, RngKey(k.seed, k.stream, (k.counter + 1) & _MASK64)


def normal(k: RngKey) -> tuple[float, RngKey]:
    """One standard normal variate; advances the counter by 1.

    Uses the inverse CDF on the open-interval uniform
    ``(bits53 + 0.5) * 2^-53`` so the result is always finite.
    """
    b = _bits(k.seed, k.stream, k.counter) >> 11
    z = float(ndtri((b + 0.5) * _INV_2_53))
    return z, RngKey(k.seed, k.stream, (k.counter + 1) & _MASK64)


def normal_vec(k: RngKey, dim: int, chol_factor: np.ndarray | None = None
               ) -> tuple[np.ndarray, RngKey]:
    """Draw ``L @ z`` with ``z`` a standard normal vector; consumes ``dim`` counters.

    ``chol_factor`` must be a dim x dim lower-triangular matrix with positive
    diagonal; ``None`` means the identity.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if chol_factor is not None:
        L = np.asarray(chol_factor, dtype=float)
        if L.shape != (dim, dim):
            raise ValueError(f"chol_factor has shape {L.shape}, expected {(dim, dim)}")
        if np.any(np.triu(L, 1) != 0.0) or np.any(np.diag(L) <= 0.0):
            raise ValueError("chol_factor must be lower-triangular with positive diagonal")
    z = np.empty(dim)
    seed, stream, counter = k
    h = _stream_hash(seed, stream)
    for i in range(dim):
        b = _counter_bits(h, counter) >> 11
        z[i] = ndtri((b + 0.5) * _INV_2_53)
        counter = (counter + 1) & _MASK64
    out = z if chol_factor is None else L @ z
    return out, RngKey(seed, stream, counter)


def uniform_block(k: RngKey, count: int) -> tuple[np.ndarray, RngKey]:
    """Vectorized batch of ``count`` uniforms from consecutive counters.

    Bit-identical to ``count`` successive :func:`uniform` calls; used where
    many draws are needed at once (statistical self-tests, analysis Monte
    Carlo).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ctrs = np.arange(count, dtype=np.uint64) + np.uint64(k.counter)
    h_sc = np.uint64(_stream_hash(k.seed, k.stream))
    h = _mix64_np(h_sc ^ _mix64_np(ctrs + np.uint64(_COUNTER_SALT)))
    u = (h >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return u, RngKey(k.seed, k.stream, (k.counter + count) & _MASK64)


def _mix64_np(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MIX_A)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MIX_B)
    return x ^ (x >> np.uint64(31))
