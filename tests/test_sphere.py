import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angmf.errors import DegenerateVector
from angmf.sphere import angle_between, as_unit, dot3, log_map, normalize, tangent_basis

from conftest import random_rotation, random_unit

# 1/sqrt(3) to 20 digits, frozen from an independent high-precision run.
INV_SQRT3 = 0.57735026918962576451


def test_normalize_axis_exact():
    out = normalize([0.0, 0.0, 2.0])
    assert out.tolist() == [0.0, 0.0, 1.0]


def test_normalize_ones():
    out = normalize([1.0, 1.0, 1.0])
    assert np.allclose(out, INV_SQRT3, rtol=0.0, atol=1e-15)


def test_normalize_extreme_scales():
    # the max-component prescale must keep tiny and huge inputs exact
    base = normalize([3.0, -4.0, 12.0])
    for s in (1e-300, 1e-30, 1e30, 1e300):
        out = normalize(np.array([3.0, -4.0, 12.0]) * s)
        assert np.allclose(out, base, rtol=0.0, atol=1e-15)


def test_normalize_batch_matches_rows():
    gen = np.random.default_rng(0)
    v = gen.standard_normal((8, 3)) * 10.0
    batch = normalize(v)
    assert batch.shape == (8, 3)
    for i in range(8):
        assert np.array_equal(batch[i], normalize(v[i]))
    assert np.allclose(np.linalg.norm(batch, axis=-1), 1.0, atol=1e-15)


def test_normalize_zero_raises():
    with pytest.raises(DegenerateVector):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateVector):
        normalize(np.zeros((4, 3)))


def test_normalize_bad_last_axis():
    with pytest.raises(DegenerateVector):
        normalize([1.0, 2.0])
    with pytest.raises(DegenerateVector):
        as_unit(np.zeros((4, 2)))


def test_as_unit_accepts_drift():
    v = np.array([0.0, 0.0, 1.0]) * (1.0 + 5e-7)
    out = as_unit(v)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15


COMPONENTS = st.floats(-1e6, 1e6, allow_nan=False) | st.floats(-1e-300, 1e-300, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(v=st.lists(COMPONENTS, min_size=3, max_size=3).filter(lambda c: any(c)), drift=st.floats(-9e-7, 9e-7))
def test_as_unit_is_bit_idempotent(v, drift):
    once = as_unit(normalize(v) * (1.0 + drift))
    assert np.array_equal(as_unit(once), once)
    u = normalize(v)
    assert np.array_equal(as_unit(u), u)  # normalize's output is already unit


# normalize is not bit-idempotent.  A second pass moved 246,024 of 1M
# standard-normal rows, and over 32M rows of four families (standard
# normal; uniform with one shared scale in 1e+-300; standard normal with
# per-component scales in 1e+-300; one zero component) no component moved
# by more than 3 ulps.
NORMALIZE_REPEAT_ULPS = 3


def _ulps(a, b):
    """Elementwise distance between float64 arrays in representable steps (+-0.0 are 0 apart)."""
    ia, ib = (np.asarray(x, dtype=np.float64).view(np.int64) for x in (a, b))
    ia, ib = (np.where(i < 0, np.int64(-(2**63)) - i, i) for i in (ia, ib))
    return np.abs(ia - ib)


@settings(max_examples=500, deadline=None)
@given(v=st.lists(COMPONENTS, min_size=3, max_size=3).filter(lambda c: any(c)))
def test_normalize_is_unit_and_nearly_idempotent(v):
    once = normalize(v)
    assert as_unit(once).tobytes() == once.tobytes()
    assert _ulps(normalize(once), once).max() <= NORMALIZE_REPEAT_ULPS


def test_normalize_repeat_moves_rows_by_at_most_the_bound():
    v = np.random.default_rng(9).standard_normal((100_000, 3))
    once = normalize(v)
    assert as_unit(once).tobytes() == once.tobytes()
    moved = _ulps(normalize(once), once)
    assert moved.max() == NORMALIZE_REPEAT_ULPS  # the bound is reached, so it is not loose
    assert 0.2 < np.mean(moved.any(axis=1)) < 0.3


def test_as_unit_rejects_drift():
    with pytest.raises(DegenerateVector):
        as_unit([0.0, 0.0, 1.1])
    with pytest.raises(DegenerateVector):
        as_unit([0.0, 0.0, 0.0])


# ±0.0, subnormals, the smallest normal, overflowing and underflowing
# squares, NaN of both signs and a payload, and ±inf
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-200, 1.5e-154, 1e154, 1e308, -1e308,
                     1.0, -1.0, 3.0, 1e16, np.nan, -np.nan, np.inf, -np.inf,
                     np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64)])


def _same_numbers(a, b):
    """Bit equality wherever ``b`` is a number, and NaN at the same places."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(b)
    return a.shape == b.shape and np.array_equal(np.isnan(a), nan) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (100_000, 3), (2, 5, 3), (480, 640, 3)])
@pytest.mark.parametrize("values", ["wide", "specials"])
def test_dot3_bit_equal_to_sum(shape, values):
    gen = np.random.default_rng([len(shape), shape[0]])
    if values == "wide":
        u = gen.standard_normal(shape) * np.exp(gen.uniform(-40.0, 40.0, shape))
        v = gen.standard_normal(shape)
    else:
        u, v = gen.choice(SPECIALS, shape), gen.choice(SPECIALS, shape)
    with np.errstate(all="ignore"):
        assert _same_numbers(dot3(u, v), np.sum(u * v, axis=-1))
        assert _same_numbers(np.sqrt(dot3(u, u)), np.linalg.norm(u, axis=-1))
        # one vector against many, and a strided view like the MLP's head columns
        w = u.reshape(-1, 3)
        assert _same_numbers(dot3(v.reshape(-1, 3)[0], w), np.sum(v.reshape(-1, 3)[0] * w, axis=-1))
        z = np.concatenate([w, w[:, :1]], axis=1)[:, :3]
        assert _same_numbers(np.sqrt(dot3(z, z)), np.linalg.norm(z, axis=1))
        # float32 products are taken in float64, as after a float64 copy
        f = u.astype(np.float32)
        assert _same_numbers(dot3(f, v), np.sum(f.astype(np.float64) * v, axis=-1))


def test_dot3_signed_zero_and_grouping():
    # np.sum adds from +0.0: an all -0.0 row sums to +0.0
    z = np.full((4, 3), -0.0)
    assert not np.signbit(dot3(z, np.ones(3))).any()
    assert not np.signbit(np.sum(z, axis=-1)).any()
    u, v = np.array([-0.0, 0.0, -0.0]), np.array([1.0, -1.0, 1.0])
    assert not np.signbit(dot3(u, v)) and not np.signbit(np.sum(u * v))
    # left grouping: (1e16 + 1) + 1 rounds back to 1e16
    u = np.array([1e16, 1.0, 1.0])
    assert dot3(u, np.ones(3)) == np.sum(u) == 1e16


def test_angle_between_basics():
    ez = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    assert angle_between(ez, ez) == 0.0
    assert angle_between(ez, -ez) == math.pi
    assert angle_between(ez, ex) == math.pi / 2


def test_angle_between_clamps():
    # dot of a unit vector with itself can drift past 1; acos must not NaN
    u = normalize([1.0, 1.0, 1.0])
    assert angle_between(u, u) == 0.0
    assert angle_between(-u, u) == math.pi


def test_angle_between_symmetry_and_rotation_invariance():
    gen = np.random.default_rng(7)
    for _ in range(50):
        u = random_unit(gen)
        v = random_unit(gen)
        a = angle_between(u, v)
        assert 0.0 <= a <= math.pi
        assert angle_between(v, u) == a
        rot = random_rotation(gen)
        b = angle_between(rot @ u, rot @ v)
        assert abs(a - b) < 1e-12


def test_angle_between_vectorized():
    gen = np.random.default_rng(3)
    u = random_unit(gen, 16)
    v = random_unit(gen, 16)
    a = angle_between(u, v)
    assert a.shape == (16,)
    for i in range(16):
        assert a[i] == angle_between(u[i], v[i])


def test_tangent_basis_orthonormal_right_handed():
    gen = np.random.default_rng(11)
    mus = np.vstack([np.eye(3), -np.eye(3), random_unit(gen, 40)])
    for mu in mus:
        e1, e2 = tangent_basis(mu)
        assert abs(np.dot(e1, mu)) < 1e-14
        assert abs(np.dot(e2, mu)) < 1e-14
        assert abs(np.dot(e1, e2)) < 1e-14
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-14
        assert abs(np.linalg.norm(e2) - 1.0) < 1e-14
        assert np.allclose(np.cross(e1, e2), mu, atol=1e-14)


def test_tangent_basis_batched():
    gen = np.random.default_rng(13)
    mu = random_unit(gen, 6)
    e1, e2 = tangent_basis(mu)
    assert e1.shape == (6, 3) and e2.shape == (6, 3)
    for i in range(6):
        s1, s2 = tangent_basis(mu[i])
        assert np.array_equal(e1[i], s1)
        assert np.array_equal(e2[i], s2)


def test_log_map_keeps_tiny_angles():
    # acos(t) and sqrt(1 - t^2) keep only about 8 digits of a 1e-9 angle;
    # the reference is atan2(|s x mu|, s . mu) in long double on the same
    # float64 inputs
    gen = np.random.default_rng(17)
    alpha = 1e-9
    for _ in range(20):
        rot = random_rotation(gen)
        mu = rot[:, 2]
        s = rot @ np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        got, u = log_map(mu, s[None, :])
        mu_l, s_l = mu.astype(np.longdouble), s.astype(np.longdouble)
        ref = float(np.arctan2(np.linalg.norm(np.cross(s_l, mu_l)), np.dot(s_l, mu_l)))
        assert abs(got[0] - ref) <= 1e-6 * ref
        assert abs(float(np.arccos(np.clip(s @ mu, -1.0, 1.0))) - ref) > 1e-6 * ref
        assert np.allclose(u[0], rot[:, 0], rtol=0.0, atol=1e-6)


def test_log_map_angles_and_tangents():
    gen = np.random.default_rng(19)
    mu = random_unit(gen)
    s = np.vstack([random_unit(gen, 50), mu, -mu])
    alpha, u = log_map(mu, s)
    assert np.allclose(alpha[:50], angle_between(s[:50], mu), rtol=0.0, atol=1e-7)
    assert alpha[50] < 1e-15 and math.pi - alpha[51] < 1e-15
    assert np.allclose(u[:50] @ mu, 0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(u[:50], axis=1), 1.0, atol=1e-15)
    # exp map back: cos(alpha) mu + sin(alpha) u reproduces each sample
    back = np.cos(alpha[:50, None]) * mu + np.sin(alpha[:50, None]) * u[:50]
    assert np.allclose(back, s[:50], rtol=0.0, atol=1e-15)
    assert np.all(u[50:] == 0.0)  # no tangent direction at or opposite mu


def test_log_map_per_row_mu_matches_row_loop():
    gen = np.random.default_rng(23)
    mu = random_unit(gen, 40)
    s = np.vstack([random_unit(gen, 38), mu[38], -mu[39]])
    alpha, u = log_map(mu, s)
    for i in range(40):
        a_i, u_i = log_map(mu[i], s[i])
        assert alpha[i] == a_i and np.array_equal(u[i], u_i)
