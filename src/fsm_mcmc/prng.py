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

The rounds that depend only on ``(seed, stream)`` (:func:`_stream_hash`)
are computed once per stream and kept with its window (below), so a draw
pays only for mixing in its counter, as in counter-based generators (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).

Windows.  Because a draw depends on nothing but its counter, draws can be
computed ahead of use.  :func:`uniform` and :func:`normal_vec` read from a
*window* of the 64 draws whose counters share ``counter // 64``; a window
is filled in one numpy pass (the uniforms and the normals of all 64
counters) the first time a draw inside it is asked for.  The array
primitives used give the same bits as the scalar definition :func:`_bits`
(the float conversions are exact, and array ``ndtri`` equals scalar
``ndtri``).  Windows are aligned to multiples of 64 and 2**64 is one, so no
window straddles the counter wrap.

The store holds one window per ``(seed, stream)``, with the stream's hash:
moving to the next window replaces the stream's previous one and reuses the
hash, so a run that replays a stream from its start (the second regime on
the same streams) recomputes its draws.  At most ``_WINDOW_STORE_SIZE``
streams are kept, about 3 kB each; the stream stored first is evicted, which
only costs a refill and one hash.  A batch of more chains than that refills
a window on every draw.
"""

from __future__ import annotations

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

_WINDOW = 64                        # draws per window; a power of two
_WINDOW_BASE = _MASK64 ^ (_WINDOW - 1)  # counter & _WINDOW_BASE = window start
# streams whose window is kept; a batch holds one stream per chain
_WINDOW_STORE_SIZE = 4096
_SALTED_OFFSETS = np.arange(_WINDOW, dtype=np.uint64) + np.uint64(_COUNTER_SALT)

# (seed, stream) -> (window start, uniforms as a list, normals as an array,
# stream hash)
_windows: dict[tuple[int, int], tuple[int, list[float], np.ndarray, int]] = {}


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


_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))
_U_MIX_A, _U_MIX_B = np.uint64(_MIX_A), np.uint64(_MIX_B)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    # _mix64 on a uint64 array, whose arithmetic wraps modulo 2**64; returns
    # a new array
    x = x ^ (x >> _U30)
    x *= _U_MIX_A
    x ^= x >> _U27
    x *= _U_MIX_B
    x ^= x >> _U31
    return x


def _stream_hash(seed: int, stream: int) -> int:
    """The counter-independent half of :func:`_bits`.

    A chain draws from one ``(seed, stream)`` pair for its whole run, so the
    window store keeps the result with the stream's window.
    """
    return _mix64(_mix64(seed + _GOLDEN) ^ _mix64(stream + _STREAM_SALT))


def _bits(seed: int, stream: int, counter: int) -> int:
    """64 pseudo-random bits for one (seed, stream, counter) triple.

    The scalar definition of every draw, equal to chained :func:`_mix64`
    rounds ``mix(mix(mix(seed + G) ^ mix(stream + S)) ^ mix(counter + C))``.
    """
    return _mix64(_stream_hash(seed, stream) ^ _mix64(counter + _COUNTER_SALT))


def _bits_np(stream_hash: int, salted: np.ndarray) -> np.ndarray:
    """:func:`_bits` over an array of counters already offset by ``_COUNTER_SALT``."""
    return _mix64_np(np.uint64(stream_hash) ^ _mix64_np(salted))


def _fill_window(seed: int, stream: int, base: int, old):
    """Compute and store the window of draws at counters ``base .. base + 63``.

    ``base`` is a multiple of 64 and ``old`` the stream's stored window, or
    None.  Uniforms are ``bits53 * 2^-53`` and normals
    ``ndtri((bits53 + 0.5) * 2^-53)``, each float step exact or rounded as
    the scalar definition rounds it.
    """
    if old is None:
        h = _stream_hash(seed, stream)
        if len(_windows) >= _WINDOW_STORE_SIZE:
            del _windows[next(iter(_windows))]
    else:
        h = old[3]
    b53 = (_bits_np(h, _SALTED_OFFSETS + np.uint64(base)) >> _U11).astype(np.float64)
    window = (base, (b53 * _INV_2_53).tolist(), ndtri((b53 + 0.5) * _INV_2_53), h)
    _windows[seed, stream] = window
    return window


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
    # the window lookup is written out here and in normal_vec because it
    # sits on the hot path of every draw
    seed, stream, counter = k
    base = counter & _WINDOW_BASE
    w = _windows.get((seed, stream))
    if w is None or w[0] != base:
        w = _fill_window(seed, stream, base, w)
    return w[1][counter - base], RngKey(seed, stream, (counter + 1) & _MASK64)


def normal_vec(k: RngKey, dim: int) -> tuple[np.ndarray, RngKey]:
    """A standard normal vector; consumes ``dim`` counters.

    Each entry is the inverse CDF at the open-interval uniform
    ``(bits53 + 0.5) * 2^-53`` of its counter, so the result is always finite.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    seed, stream, counter = k
    base = counter & _WINDOW_BASE
    w = _windows.get((seed, stream))
    if w is None or w[0] != base:
        w = _fill_window(seed, stream, base, w)
    i = counter - base
    if i + dim <= _WINDOW:
        z = w[2][i:i + dim].copy()  # the caller owns its vector, not a view
    else:
        z = np.empty(dim)
        done = _WINDOW - i
        z[:done] = w[2][i:]
        while done < dim:  # the following windows, each filled afresh
            base = (base + _WINDOW) & _MASK64
            take = min(_WINDOW, dim - done)
            w = _fill_window(seed, stream, base, w)
            z[done:done + take] = w[2][:take]
            done += take
    return z, RngKey(seed, stream, (counter + dim) & _MASK64)


def uniform_block(k: RngKey, count: int) -> tuple[np.ndarray, RngKey]:
    """Vectorized batch of ``count`` uniforms from consecutive counters.

    Bit-identical to ``count`` successive :func:`uniform` calls, for
    statistical tests that need many draws at once; it neither reads nor
    fills the window store.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    salted = np.arange(count, dtype=np.uint64) + np.uint64(k.counter) \
        + np.uint64(_COUNTER_SALT)
    h = _stream_hash(k.seed, k.stream)
    u = (_bits_np(h, salted) >> _U11).astype(np.float64) * _INV_2_53
    return u, RngKey(k.seed, k.stream, (k.counter + count) & _MASK64)
