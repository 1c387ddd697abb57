import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from fsm_mcmc import prng


def test_key_masks_to_64_bits():
    k = prng.key(2**70 + 5, stream=2**64, counter=-1 & (2**64 - 1))
    assert k.seed == (2**70 + 5) & (2**64 - 1)
    assert k.stream == 0


def test_uniform_is_deterministic():
    k = prng.key(7, 3, 42)
    assert prng.uniform(k) == prng.uniform(k)
    u, k2 = prng.uniform(k)
    assert 0.0 <= u < 1.0
    assert (k2.seed, k2.stream, k2.counter) == (7, 3, 43)


def test_counter_advance_preserves_seed_and_stream():
    k = prng.key(1, 9)
    for _ in range(5):
        _, k = prng.uniform(k)
    assert (k.seed, k.stream) == (1, 9)
    assert k.counter == 5


def test_golden_bit_patterns_are_stable():
    # frozen outputs pin cross-run, cross-platform reproducibility
    u0, _ = prng.uniform(prng.key(0))
    u1, _ = prng.uniform(prng.key(123, 4, 567))
    z0 = prng.normal_vec(prng.key(0), 1)[0][0]
    assert u0 == prng.uniform(prng.key(0))[0]
    golden = (u0, u1, z0)
    again = (prng.uniform(prng.key(0))[0],
             prng.uniform(prng.key(123, 4, 567))[0],
             _normal_definition(0, 0, 0))
    assert golden == again
    assert prng._bits(0, 0, 0) == prng._bits(0, 0, 0)


def test_split_single_stream():
    k = prng.key(seed=7, stream=0)
    (child,) = prng.split(k, 1)
    assert child.seed == 7
    assert child.counter == 0
    assert prng.split(k, 1) == [child]


def test_split_streams_pairwise_distinct():
    k = prng.key(99, stream=12345)
    kids = prng.split(k, 64)
    streams = {c.stream for c in kids}
    assert len(streams) == 64
    assert all(c.counter == 0 and c.seed == 99 for c in kids)


def test_split_is_deterministic_and_prefix_stable():
    k = prng.key(5, 11)
    assert prng.split(k, 3) == prng.split(k, 3)
    assert prng.split(k, 8)[:3] == prng.split(k, 3)


def test_split_rejects_zero_streams():
    with pytest.raises(ValueError):
        prng.split(prng.key(0), 0)


def test_uniform_block_matches_scalar_path():
    k = prng.key(3, 21, 100)
    block, k_end = prng.uniform_block(k, 50)
    scalars = []
    kk = k
    for _ in range(50):
        u, kk = prng.uniform(kk)
        scalars.append(u)
    assert np.array_equal(block, np.array(scalars))
    assert k_end == kk


def test_uniform_mean_of_one_million_draws():
    # Monte-Carlo band: 3 * sqrt(1/12) / 1e3 rounded up to the contract value
    u, _ = prng.uniform_block(prng.key(2024), 1_000_000)
    assert abs(u.mean() - 0.5) < 0.002


def test_split_streams_uncorrelated():
    k1, k2 = prng.split(prng.key(77), 2)
    a, _ = prng.uniform_block(k1, 100_000)
    b, _ = prng.uniform_block(k2, 100_000)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_normal_vec_counter_stride_is_dim():
    k = prng.key(4, 4, 10)
    _, k2 = prng.normal_vec(k, 5)
    assert k2.counter == 15


def test_normal_mean_of_one_million_draws():
    # the normals' transformation, over the block path the scalar path is
    # bit-equal to (verified separately for uniforms)
    k = prng.key(555)
    bits53, _ = prng.uniform_block(k, 1_000_000)
    z = ndtri(bits53 + 0.5 * 2.0**-53)
    # spot-check the vectorized reconstruction against the definition
    for i in range(3):
        assert _normal_definition(555, 0, i) == z[i]
    assert abs(z.mean()) < 0.003


def _chained_bits(seed, stream, counter):
    # the draw's definition: chained splitmix rounds over seed, stream, counter
    mix = prng._mix64
    key_part = mix(mix(seed + prng._GOLDEN) ^ mix(stream + prng._STREAM_SALT))
    return mix(key_part ^ mix(counter + prng._COUNTER_SALT))


def _uniform_definition(seed, stream, counter):
    return (_chained_bits(seed, stream, counter) >> 11) * 2.0**-53


def _normal_definition(seed, stream, counter):
    # the inverse CDF at (bits53 + 0.5) * 2^-53, clamped below 1
    b53 = _chained_bits(seed, stream, counter) >> 11
    return float(ndtri(min((b53 + 0.5) * 2.0**-53, 1.0 - 2.0**-53)))


# a counter whose 53 top bits are all ones under key(0, 0, .), found by
# inverting _mix64: there (2^53 - 1) + 0.5 rounds to 2^53, so p would be 1.0
_ALL_ONES_COUNTER = 11880369234240959800


def test_normal_is_finite_where_the_unclamped_p_is_one():
    assert _chained_bits(0, 0, _ALL_ONES_COUNTER) >> 11 == 2**53 - 1
    b53 = float(2**53 - 1)
    assert (b53 + 0.5) * 2.0**-53 == 1.0
    expect = float(ndtri(1.0 - 2.0**-53))
    assert math.isfinite(expect) and expect > 8.0
    assert _normal_definition(0, 0, _ALL_ONES_COUNTER) == expect
    z, _ = prng.normal_vec(prng.key(0, 0, _ALL_ONES_COUNTER), 1)
    assert list(z) == [expect]
    # the same draw in the middle of a vector, read from its window
    z, _ = prng.normal_vec(prng.key(0, 0, _ALL_ONES_COUNTER - 3), 5)
    assert list(z) == [_normal_definition(0, 0, _ALL_ONES_COUNTER - 3 + j)
                       for j in range(5)]
    assert z[3] == expect and np.all(np.isfinite(z))


_EDGES = (0, 1, 2**63, 2**64 - 1)


def test_bits_match_chained_definition_at_edge_values():
    for seed in _EDGES:
        for stream in _EDGES:
            for counter in _EDGES:
                assert prng._bits(seed, stream, counter) == \
                    _chained_bits(seed, stream, counter)
    # frozen outputs of the definition pin the bits across releases
    assert prng._bits(0, 0, 0) == 0xA59389B7C5F29906
    assert prng._bits(2**64 - 1, 2**64 - 1, 2**64 - 1) == 0xFC0A381582C08AE5
    assert prng._bits(123, 4, 567) == 0x020AE3640CF82910
    assert prng._bits(7, 2**63, 0) == 0xB50DE724A4EDBEBA


def test_draws_across_counter_wrap_match_definition():
    k = prng.key(5, 2**64 - 1, 2**64 - 2)
    expect = [_uniform_definition(5, 2**64 - 1, c) for c in (2**64 - 2, 2**64 - 1, 0, 1)]
    got = []
    kk = k
    for _ in range(4):
        u, kk = prng.uniform(kk)
        got.append(u)
    assert got == expect
    assert kk.counter == 2
    block, k_end = prng.uniform_block(k, 4)
    assert list(block) == expect and k_end == kk
    vec, k_vec = prng.normal_vec(k, 4)
    assert list(vec) == [_normal_definition(5, 2**64 - 1, 2**64 - 2 + i) for i in range(4)]
    assert k_vec == kk


# counters at and next to window edges, near the 2**64 wrap included
_WINDOW_EDGES = st.sampled_from([0, 64, 128, 2**32, 2**63, 2**64 - 64, 2**64 - 128])
_START_COUNTERS = st.builds(lambda edge, off: (edge + off) & (2**64 - 1),
                            _WINDOW_EDGES, st.integers(-70, 70))
_DRAWS = st.lists(st.tuples(st.integers(0, 2),                     # stream
                            st.one_of(st.none(), st.integers(1, 70))),  # uniform or normal dim
                  min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), starts=st.tuples(*[_START_COUNTERS] * 3), draws=_DRAWS)
def test_window_draws_match_definition_in_any_interleaving(seed, starts, draws):
    streams = (1, 2**64 - 1, prng._mix64(seed))
    keys = [prng.key(seed, s, c) for s, c in zip(streams, starts)]
    for i, dim in draws:
        k = keys[i]
        if dim is None:
            u, keys[i] = prng.uniform(k)
            assert u == _uniform_definition(k.seed, k.stream, k.counter)
        else:
            z, keys[i] = prng.normal_vec(k, dim)
            assert list(z) == [_normal_definition(k.seed, k.stream, k.counter + j)
                               for j in range(dim)]
        assert keys[i] == (k.seed, k.stream, (k.counter + (dim or 1)) & (2**64 - 1))


def test_window_store_is_bounded_and_eviction_keeps_draws_exact():
    size = prng._WINDOW_STORE_SIZE
    keys = [prng.key(seed, prng._mix64(seed * 7919 + 3), 3) for seed in range(size + 100)]
    for k in keys:
        assert prng.uniform(k)[0] == _uniform_definition(*k)
    assert len(prng._windows) <= size
    # the first streams' windows have been evicted; their draws are refilled unchanged
    assert all((k.seed, k.stream) not in prng._windows for k in keys[:100])
    for k in keys[:100]:
        assert prng.uniform(k)[0] == _uniform_definition(*k)
        z, _ = prng.normal_vec(k, 3)
        assert list(z) == [_normal_definition(k.seed, k.stream, 3 + j) for j in range(3)]
    assert len(prng._windows) <= size


def test_one_window_per_stream():
    k = prng.key(41, 43, 0)
    _, k = prng.normal_vec(k, 100)  # crosses from the first window into the second
    assert prng._windows[41, 43][0] == 64
    prng.uniform(prng.key(41, 43, 5))  # back in the first window: refilled
    assert prng._windows[41, 43][0] == 0


@pytest.mark.parametrize("counter, dim", [(3, 1), (3, 5), (61, 4), (3, 100)])
def test_normal_vectors_are_read_only(monkeypatch, counter, dim):
    # within one window a view of the window's normals; across windows
    # (61 + 4 and 3 + 100 cross) a fresh array; both refuse writes
    monkeypatch.setattr(prng, "_windows", {})
    k = prng.key(8, 13, counter)
    z, _ = prng.normal_vec(k, dim)
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        z += 1.0
    want = [_normal_definition(8, 13, counter + j) for j in range(dim)]
    assert list(z) == want
    # the window the vector came from still serves the definition's draws
    assert list(prng.normal_vec(k, dim)[0]) == want
    start = (counter + dim - 1) & ~63
    assert list(prng._windows[8, 13][2]) == [_normal_definition(8, 13, start + j)
                                             for j in range(64)]


def test_counter_mix_is_shared_by_streams_and_kept_per_window_start(monkeypatch):
    monkeypatch.setattr(prng, "_windows", {})
    monkeypatch.setattr(prng, "_counter_mix", {})
    for stream in range(50):
        for counter in (3, 70):
            k = prng.key(2, stream, counter)
            assert prng.uniform(k)[0] == _uniform_definition(*k)
    assert set(prng._counter_mix) == {0, 64}
    assert not prng._counter_mix[0].flags.writeable


def test_counter_mix_store_is_bounded_and_eviction_keeps_draws_exact(monkeypatch):
    monkeypatch.setattr(prng, "_counter_mix", {})
    size = prng._COUNTER_MIX_SIZE
    keys = [prng.key(6, 17, 64 * b + 5) for b in range(size + 100)]
    for k in keys:
        assert prng.uniform(k)[0] == _uniform_definition(*k)
    assert len(prng._counter_mix) <= size
    # the first window starts have been evicted; their draws are remixed unchanged
    assert all(k.counter - 5 not in prng._counter_mix for k in keys[:100])
    for k in keys[:100]:
        assert prng.uniform(k)[0] == _uniform_definition(*k)
        z, _ = prng.normal_vec(k, 3)
        assert list(z) == [_normal_definition(6, 17, k.counter + j) for j in range(3)]
    assert len(prng._counter_mix) <= size


def test_draws_return_rng_keys():
    k = prng.key(3, 5, 62)
    for draw in (lambda: prng.uniform(k), lambda: prng.normal_vec(k, 1),
                 lambda: prng.normal_vec(k, 4), lambda: prng.uniform_block(k, 4)):
        _, k2 = draw()
        assert type(k2) is prng.RngKey
        assert k2 == prng.key(3, 5, k2.counter)
        assert (k2.seed, k2.stream) == (k2[0], k2[1]) == (3, 5)
        assert hash(k2) == hash(prng.key(3, 5, k2.counter))
