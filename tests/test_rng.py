import numpy as np
import pytest

from angmf.errors import DomainError
from angmf.rng import RngState

# Frozen outputs of the documented splitmix64-based mapping.  These pin the
# bit-level contract; any change to the mixing constants or the counter
# convention must show up here.
SEQ_SEED42 = [
    3559393546817448020,
    6457831781006907122,
    2382528251700990883,
    8883407297044859226,
]
U01_SEED42 = [0.1929551108095181, 0.35007976232568105]
FIRST_SEED42_STREAM7 = 641420066701727405
FIRST_SEED_ALL_ONES = 5910544259114856398


def test_known_u64_sequence():
    r = RngState(42)
    assert [r.next_u64() for _ in range(4)] == SEQ_SEED42


def test_known_uniforms():
    r = RngState(42)
    got = [r.uniform(), r.uniform()]
    assert got == U01_SEED42
    # uniform is exactly the top 53 bits of the u64 stream
    assert got[0] == (SEQ_SEED42[0] >> 11) * 2.0**-53


def test_stream_and_seed_masking():
    assert RngState(42, stream=7).next_u64() == FIRST_SEED42_STREAM7
    assert RngState(2**64 - 1).next_u64() == FIRST_SEED_ALL_ONES
    # seeds wrap mod 2**64
    a = RngState(2**64 + 5)
    b = RngState(5)
    assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]


def test_scalar_and_vector_paths_identical():
    r1 = RngState(99, stream=3)
    r2 = RngState(99, stream=3)
    scalars = np.array([r1.uniform() for _ in range(257)])
    block = r2.uniform(257)
    assert np.array_equal(scalars, block)
    assert r1.counter == r2.counter == 257


def test_chunked_draws_match_single_block():
    r1 = RngState(5)
    r2 = RngState(5)
    parts = np.concatenate([r1.uniform(3), [r1.uniform()], r1.uniform(5)])
    assert np.array_equal(parts, r2.uniform(9))


def test_counter_resume():
    r = RngState(21, stream=2)
    r.uniform(10)
    tail = [r.next_u64() for _ in range(4)]
    resumed = RngState(21, stream=2, counter=10)
    assert [resumed.next_u64() for _ in range(4)] == tail


def test_spawn_is_stream_constructor():
    root = RngState(77)
    child = root.spawn(9)
    assert child.counter == 0
    fresh = RngState(77, stream=9)
    assert [child.next_u64() for _ in range(5)] == [fresh.next_u64() for _ in range(5)]
    # spawning does not advance the parent
    assert root.counter == 0


def test_streams_disjoint_prefixes():
    seen = set()
    for stream in range(20):
        r = RngState(123, stream=stream)
        block = tuple(r.next_u64() for _ in range(8))
        assert block not in seen
        seen.add(block)
        assert len(set(block)) == 8


def test_uniform_range_and_mean():
    u = RngState(2024).uniform(20000)
    assert u.shape == (20000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_uniform_rejects_negative_count():
    with pytest.raises(DomainError):
        RngState(0).uniform(-1)


def test_uniform_zero_count():
    r = RngState(8)
    out = r.uniform(0)
    assert out.shape == (0,)
    assert r.counter == 0
