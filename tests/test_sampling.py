import math

import numpy as np
import pytest
from scipy.stats import kstest

from angmf import (
    AngMFParams,
    RngState,
    VonMFParams,
    angmf_error_cdf,
    invert_error_cdf,
    sample_angmf,
    sample_vonmf,
)
from angmf import sampling
from angmf.errors import DomainError
from angmf.sphere import normalize

E_ALPHA_K1 = 1.1301368068173820266
COTH5_MINUS_INV5 = 0.80009080398201937554
EZ = np.array([0.0, 0.0, 1.0])


# --------------------------------------------------------- cdf inversion


def test_invert_exact_endpoints():
    for kappa in (0.0, 1.0, 17.5, 400.0, 1e6, 1e308):
        assert invert_error_cdf(kappa, 0.0) == 0.0
        assert invert_error_cdf(kappa, 1.0) == math.pi
        assert invert_error_cdf(kappa, np.array([1.0, 0.0, 0.5]))[:2].tolist() == [math.pi, 0.0]


def test_invert_round_trip():
    u = np.linspace(0.001, 0.999, 97)
    for kappa in (0.0, 0.5, 2.0, 10.0, 80.0):
        alpha = invert_error_cdf(kappa, u)
        assert np.all((alpha > 0.0) & (alpha < math.pi))
        assert np.all(np.diff(alpha) > 0.0)
        back = angmf_error_cdf(kappa, alpha)
        assert np.max(np.abs(back - u)) < 1e-10


ROUND_TRIP_KAPPAS = np.concatenate([[0.0], np.logspace(-8, 6, 29)])
_K = np.arange(1.0, 65.0)
# a midrange grid, the RNG's extreme outputs k 2^-53 and 1 - k 2^-53, and
# uniforms far below the RNG's resolution
ROUND_TRIP_US = np.concatenate(
    [np.linspace(0.0, 1.0, 1001), _K * 2.0**-53, 1.0 - _K * 2.0**-53, np.logspace(-300, -17, 40)]
)


@pytest.mark.parametrize("kappa", ROUND_TRIP_KAPPAS)
def test_invert_round_trip_contract(kappa):
    alpha = invert_error_cdf(kappa, ROUND_TRIP_US)
    assert np.all((alpha >= 0.0) & (alpha <= math.pi))
    assert np.max(np.abs(angmf_error_cdf(kappa, alpha) - ROUND_TRIP_US)) <= 1e-10


def test_invert_builds_one_table_per_call(monkeypatch):
    calls = []

    def counted(kappa, alpha):
        calls.append(np.size(alpha))
        return angmf_error_cdf(kappa, alpha)

    monkeypatch.setattr(sampling, "angmf_error_cdf", counted)
    u = np.linspace(0.0, 1.0, 10_000)
    invert_error_cdf(5.0, u)  # the table spans [0, pi]
    invert_error_cdf(50.0, u)  # [0, 40/kappa], plus pi
    assert calls == [sampling.TABLE_CELLS + 1, sampling.TABLE_CELLS + 2]


@pytest.mark.parametrize("kappa", [np.array([1.0]), [1.0, 2.0], np.ones((2, 2))])
def test_invert_rejects_non_scalar_kappa(kappa):
    with pytest.raises(DomainError):
        invert_error_cdf(kappa, 0.5)


def test_invert_median_kappa_zero():
    # kappa = 0 error angle is arccos(1 - 2u); u = 1/2 gives pi/2
    assert abs(invert_error_cdf(0.0, 0.5) - math.pi / 2.0) < 1e-12


def test_invert_scalar_vs_array():
    # 12.7 and 12.8 sit on either side of the table's switch from [0, pi] to [0, 40/kappa]
    u = np.array([0.0, 2.0**-53, 1e-300, 0.1, 0.6, 0.93, 1.0 - 2.0**-53, 1.0])
    for kappa in (0.0, 1e-8, 3.0, 12.7, 12.8, 300.0, 1e6, 1e308):
        arr = invert_error_cdf(kappa, u)
        assert np.all(np.isfinite(arr))
        assert [invert_error_cdf(kappa, float(ui)) for ui in u] == arr.tolist()


def test_invert_domain_error():
    with pytest.raises(DomainError):
        invert_error_cdf(1.0, -0.1)
    with pytest.raises(DomainError):
        invert_error_cdf(1.0, 1.1)
    with pytest.raises(DomainError):
        invert_error_cdf(1.0, np.array([0.5, 2.0]))


# ------------------------------------------------------------- samplers


@pytest.mark.parametrize("sampler,make", [(sample_angmf, AngMFParams), (sample_vonmf, VonMFParams)])
def test_samples_unit_and_deterministic(sampler, make):
    p = make(normalize([0.2, -0.4, 0.89]), 3.0)
    a = sampler(p, 500, RngState(7))
    b = sampler(p, 500, RngState(7))
    assert a.shape == (500, 3)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12
    c = sampler(p, 500, RngState(7, stream=1))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("sampler,make", [(sample_angmf, AngMFParams), (sample_vonmf, VonMFParams)])
def test_sampler_edge_counts(sampler, make):
    p = make(EZ, 1.0)
    assert sampler(p, 0, RngState(0)).shape == (0, 3)
    with pytest.raises(DomainError):
        sampler(p, -1, RngState(0))


def test_draw_order_is_radial_then_azimuth():
    # documented contract: count radial uniforms first, then count azimuths
    p = AngMFParams(EZ, 2.0)
    rng = RngState(11)
    got = sample_angmf(p, 8, rng)
    ref = RngState(11)
    u = ref.uniform(8)
    phi = 2.0 * math.pi * ref.uniform(8)
    alpha = invert_error_cdf(2.0, u)
    want = np.stack(
        [np.sin(alpha) * np.cos(phi), np.sin(alpha) * np.sin(phi), np.cos(alpha)], axis=1
    )
    # tangent_basis at +z is (e1, e2) with cross(e1, e2) = mu; compare angles
    assert np.allclose(np.arccos(np.clip(got[:, 2], -1, 1)), alpha, atol=1e-12)
    assert np.allclose(got[:, 2], want[:, 2], atol=1e-12)
    assert rng.counter == 16


def test_angmf_error_angles_ks():
    for kappa in (0.0, 1.0, 5.0):
        p = AngMFParams(EZ, kappa)
        s = sample_angmf(p, 20000, RngState(100 + int(kappa)))
        alpha = np.arccos(np.clip(s @ EZ, -1.0, 1.0))
        stat = kstest(alpha, lambda a: angmf_error_cdf(kappa, a)).statistic
        assert stat < 0.02


def test_angmf_mean_angle_kappa_one():
    p = AngMFParams(normalize([1.0, 2.0, -1.0]), 1.0)
    s = sample_angmf(p, 100000, RngState(42))
    alpha = np.arccos(np.clip(s @ p.mu, -1.0, 1.0))
    assert abs(alpha.mean() - E_ALPHA_K1) < 0.01


def test_angmf_kappa_zero_uniform():
    s = sample_angmf(AngMFParams(EZ, 0.0), 100000, RngState(3))
    assert np.linalg.norm(s.mean(axis=0)) < 0.02
    # cos(polar angle) should be Uniform[-1, 1]
    stat = kstest(s[:, 2], "uniform", args=(-1.0, 2.0)).statistic
    assert stat < 0.01


def test_angmf_huge_kappa_concentrates():
    mu = normalize([0.3, 0.1, 0.95])
    s = sample_angmf(AngMFParams(mu, 1e6), 2000, RngState(5))
    alpha = np.arccos(np.clip(s @ mu, -1.0, 1.0))
    assert np.max(alpha) < 1e-2


def test_angmf_azimuthal_symmetry():
    s = sample_angmf(AngMFParams(EZ, 2.0), 100000, RngState(17))
    assert abs(s[:, 0].mean()) < 0.01
    assert abs(s[:, 1].mean()) < 0.01
    # x and y should carry equal variance
    assert abs(s[:, 0].var() - s[:, 1].var()) < 0.01


def test_vonmf_resultant_kappa_five():
    mu = normalize([0.0, 0.6, 0.8])
    s = sample_vonmf(VonMFParams(mu, 5.0), 100000, RngState(23))
    t = s @ mu
    assert abs(t.mean() - COTH5_MINUS_INV5) < 0.005


def test_vonmf_kappa_zero_uniform():
    s = sample_vonmf(VonMFParams(EZ, 0.0), 100000, RngState(29))
    assert np.linalg.norm(s.mean(axis=0)) < 0.02
    stat = kstest(s[:, 2], "uniform", args=(-1.0, 2.0)).statistic
    assert stat < 0.01


def test_vonmf_cosine_ks():
    # analytic cdf of t on [-1, 1]: (exp(kappa t) - exp(-kappa)) / (2 sinh kappa)
    kappa = 2.0
    s = sample_vonmf(VonMFParams(EZ, kappa), 20000, RngState(31))
    t = np.clip(s @ EZ, -1.0, 1.0)

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return (np.exp(kappa * x) - math.exp(-kappa)) / (2.0 * math.sinh(kappa))

    stat = kstest(t, cdf).statistic
    assert stat < 0.02


def test_vonmf_u_zero_guard():
    # u = 0 with kappa large enough that exp(-2k) underflows must yield a
    # valid antipodal sample, not NaN
    class ZeroFirst:
        def __init__(self):
            self.inner = RngState(0)
            self.calls = 0

        def uniform(self, n=None):
            self.calls += 1
            if self.calls == 1:
                return np.zeros(n)
            return self.inner.uniform(n)

    s = sample_vonmf(VonMFParams(EZ, 500.0), 3, ZeroFirst())
    assert np.all(np.isfinite(s))
    assert np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-12)
    assert np.allclose(s @ EZ, -1.0, atol=1e-12)
