import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from angmf import (
    AngMFParams,
    VonMFParams,
    angmf_error_cdf,
    angmf_error_pdf,
    angmf_nll,
    angmf_nll_grad,
    angmf_pdf,
    expected_angular_error,
    vonmf_nll,
    vonmf_nll_grad,
    vonmf_pdf,
)
from angmf.distributions import angmf_nll_at, angmf_nll_rows
from angmf.errors import DegenerateVector, DomainError, ShapeError
from angmf.sphere import normalize, tangent_basis

from conftest import random_unit

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])

# Frozen 20-digit oracles from an independent high-precision evaluation of
# the closed forms.  float64 can hold ~17 of those digits; the asserts pin
# the last representable ulp or two.
INV_4PI = 0.079577471545947667884
VONMF_PDF_K1_ALIGNED = 0.18406549961659597719
VONMF_PDF_K1_ANTI = 0.024910556524700641418
VONMF_PDF_K1_PERP = 0.06771391313789565899
VONMF_NLL_K1_ALIGNED = -0.83856063842880436639
VONMF_NLL_K1_PERP = 0.16143936157119563361
VONMF_NLL_K50_ALIGNED = -4.605170185988091368
VONMF_NLL_K1E4_ALIGNED = -9.9034875525361280455
ANGMF_PDF_K1_ALIGNED = 0.30512427088161927317
ANGMF_PDF_K1_ANTI = 0.013185615302171398369
ANGMF_NLL_K1_ALIGNED = -0.65084092656474267013
ANGMF_NLL_K1_PERP = 0.91995540023015394911
ANGMF_NLL_K1E4_ALIGNED = -18.420680753952365422
ANGMF_CDF_K1_HALFPI = 0.75930776016444383297
ANGMF_CDF_K5_03 = 0.45713819209704066936
ANGMF_EPDF_K1_HALFPI = 0.39853681533838668043
LSK_1EM6 = 1.6666666666666111104e-13
COTH_MINUS_INV_1EM6 = 3.3333333333331111107e-7
E_ALPHA = {
    0.0: 1.5707963267948966192,
    0.25: 1.4544019327065082463,
    1.0: 1.1301368068173820266,
    3.0: 0.60025350455385191165,
    10.0: 0.19801980198026936855,
    50.0: 0.039984006397441023591,
    1e4: 0.00019999999800000002,
}


def close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- params


def test_params_validation():
    p = AngMFParams([0.0, 0.0, 1.0], 2.5)
    assert p.kappa == 2.5
    assert np.array_equal(p.mu, EZ)
    with pytest.raises(DomainError):
        AngMFParams(EZ, -0.1)
    with pytest.raises(DomainError):
        VonMFParams(EZ, float("nan"))
    with pytest.raises(DomainError):
        VonMFParams(EZ, float("inf"))
    with pytest.raises(DegenerateVector):
        AngMFParams([0.0, 0.0, 2.0], 1.0)


def test_params_renormalize_small_drift():
    p = VonMFParams(EZ * (1.0 + 1e-8), 1.0)
    assert abs(np.linalg.norm(p.mu) - 1.0) < 1e-15


def test_params_frozen():
    p = AngMFParams(EZ, 1.0)
    with pytest.raises(Exception):
        p.kappa = 2.0


# ----------------------------------------------------------------- vonMF


def test_vonmf_pdf_frozen_values():
    p = VonMFParams(EZ, 1.0)
    assert close(vonmf_pdf(p, EZ), VONMF_PDF_K1_ALIGNED)
    assert close(vonmf_pdf(p, -EZ), VONMF_PDF_K1_ANTI)
    assert close(vonmf_pdf(p, EX), VONMF_PDF_K1_PERP)


def test_vonmf_uniform_at_kappa_zero():
    p = VonMFParams(EZ, 0.0)
    gen = np.random.default_rng(1)
    for n in random_unit(gen, 10):
        assert close(vonmf_pdf(p, n), INV_4PI)
        assert abs(vonmf_nll(p, n)) < 1e-15


def test_vonmf_nll_frozen_values():
    p = VonMFParams(EZ, 1.0)
    assert close(vonmf_nll(p, EZ), VONMF_NLL_K1_ALIGNED)
    assert close(vonmf_nll(p, EX), VONMF_NLL_K1_PERP)
    assert close(vonmf_nll(VonMFParams(EZ, 50.0), EZ), VONMF_NLL_K50_ALIGNED)


def test_vonmf_large_kappa_stable():
    # log(sinh k / k) overflows if evaluated naively at k = 1e4
    p = VonMFParams(EZ, 1e4)
    v = vonmf_nll(p, EZ)
    assert math.isfinite(v)
    assert close(v, VONMF_NLL_K1E4_ALIGNED, rel=1e-13)
    assert vonmf_pdf(p, -EZ) == 0.0  # underflow to zero, not NaN


def test_vonmf_tiny_kappa_series():
    p = VonMFParams(EZ, 1e-6)
    assert close(vonmf_nll(p, EX), LSK_1EM6, rel=1e-10)
    g = vonmf_nll_grad(p, EX)
    assert close(g.d_kappa, COTH_MINUS_INV_1EM6, rel=1e-10)


def test_vonmf_pdf_nll_consistency():
    gen = np.random.default_rng(2)
    for kappa in (0.0, 0.3, 1.0, 5.0, 30.0):
        mu = random_unit(gen)
        p = VonMFParams(mu, kappa)
        for n in random_unit(gen, 5):
            assert close(vonmf_pdf(p, n), math.exp(-vonmf_nll(p, n)) / (4.0 * math.pi), rel=1e-12)


def test_vonmf_pdf_integrates_to_one():
    # integrate p * sin(alpha) over alpha, times 2 pi for azimuth
    for kappa in (0.0, 0.5, 2.0, 10.0):
        p = VonMFParams(EZ, kappa)

        def band(a):
            n = np.array([math.sin(a), 0.0, math.cos(a)])
            return vonmf_pdf(p, n) * 2.0 * math.pi * math.sin(a)

        total, err = quad(band, 0.0, math.pi, limit=200)
        assert abs(total - 1.0) < 1e-9


# ----------------------------------------------------------------- AngMF


def test_angmf_pdf_frozen_values():
    p = AngMFParams(EZ, 1.0)
    assert close(angmf_pdf(p, EZ), ANGMF_PDF_K1_ALIGNED)
    assert close(angmf_pdf(p, -EZ), ANGMF_PDF_K1_ANTI)


def test_angmf_uniform_at_kappa_zero():
    p = AngMFParams(EZ, 0.0)
    gen = np.random.default_rng(3)
    for n in random_unit(gen, 10):
        assert close(angmf_pdf(p, n), INV_4PI)


def test_angmf_nll_frozen_values():
    p = AngMFParams(EZ, 1.0)
    assert close(angmf_nll(p, EZ), ANGMF_NLL_K1_ALIGNED)
    assert close(angmf_nll(p, EX), ANGMF_NLL_K1_PERP)
    # perp minus aligned is exactly kappa * pi/2
    assert close(angmf_nll(p, EX) - angmf_nll(p, EZ), math.pi / 2.0)


def test_angmf_large_kappa_stable():
    p = AngMFParams(EZ, 1e4)
    v = angmf_nll(p, EZ)
    assert math.isfinite(v)
    assert close(v, ANGMF_NLL_K1E4_ALIGNED, rel=1e-13)
    assert angmf_pdf(p, -EZ) == 0.0


def test_angmf_pdf_nll_consistency():
    gen = np.random.default_rng(4)
    for kappa in (0.0, 0.3, 1.0, 5.0, 30.0):
        mu = random_unit(gen)
        p = AngMFParams(mu, kappa)
        for n in random_unit(gen, 5):
            assert close(angmf_pdf(p, n), math.exp(-angmf_nll(p, n)) / (2.0 * math.pi), rel=1e-12)


def test_angmf_nll_monotone_in_angle():
    p = AngMFParams(EZ, 2.0)
    angles = np.linspace(0.0, math.pi, 50)
    vals = [angmf_nll(p, np.array([math.sin(a), 0.0, math.cos(a)])) for a in angles]
    assert np.all(np.diff(vals) > 0.0)


def test_angmf_pdf_integrates_to_one():
    for kappa in (0.0, 0.5, 2.0, 10.0):
        p = AngMFParams(EZ, kappa)

        def band(a):
            n = np.array([math.sin(a), 0.0, math.cos(a)])
            return angmf_pdf(p, n) * 2.0 * math.pi * math.sin(a)

        total, err = quad(band, 0.0, math.pi, limit=200)
        assert abs(total - 1.0) < 1e-9


# ------------------------------------------------------- error pdf / cdf


def test_error_pdf_frozen_and_endpoints():
    assert close(angmf_error_pdf(1.0, math.pi / 2.0), ANGMF_EPDF_K1_HALFPI)
    assert angmf_error_pdf(3.0, 0.0) == 0.0
    # sin(pi) rounds to ~1.2e-16 in float, so only near-zero is attainable
    assert abs(angmf_error_pdf(3.0, math.pi)) < 1e-18


def test_error_pdf_kappa_zero_is_half_sine():
    a = np.linspace(0.0, math.pi, 21)
    assert np.allclose(angmf_error_pdf(0.0, a), 0.5 * np.sin(a), atol=1e-15)


def test_error_cdf_frozen_and_endpoints():
    assert close(angmf_error_cdf(1.0, math.pi / 2.0), ANGMF_CDF_K1_HALFPI)
    assert close(angmf_error_cdf(5.0, 0.3), ANGMF_CDF_K5_03)
    for kappa in (0.0, 0.7, 4.0, 100.0):
        assert angmf_error_cdf(kappa, 0.0) == 0.0
        assert close(angmf_error_cdf(kappa, math.pi), 1.0)


def test_error_cdf_monotone_and_bounded():
    a = np.linspace(0.0, math.pi, 301)
    for kappa in (0.0, 0.5, 2.0, 20.0, 500.0):
        c = angmf_error_cdf(kappa, a)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert np.all(np.diff(c) >= -1e-15)


def test_error_cdf_matches_pdf_derivative():
    # central difference of the cdf reproduces the pdf
    for kappa in (0.25, 1.0, 6.0):
        for a in (0.2, 0.9, 1.7, 2.9):
            h = 1e-6
            fd = (angmf_error_cdf(kappa, a + h) - angmf_error_cdf(kappa, a - h)) / (2.0 * h)
            assert close(fd, angmf_error_pdf(kappa, a), rel=1e-5)


def test_error_cdf_matches_pdf_quadrature():
    for kappa in (0.0, 0.8, 3.0, 15.0):
        for a in (0.3, 1.2, 2.5):
            val, err = quad(lambda x: angmf_error_pdf(kappa, x), 0.0, a, limit=200)
            assert close(val, angmf_error_cdf(kappa, a), rel=1e-9)


def test_error_pdf_cdf_domain_errors():
    with pytest.raises(DomainError):
        angmf_error_pdf(1.0, -0.01)
    with pytest.raises(DomainError):
        angmf_error_cdf(1.0, math.pi + 0.01)
    with pytest.raises(DomainError):
        angmf_error_pdf(-1.0, 0.5)


def test_error_functions_broadcast():
    k = np.array([0.5, 2.0])
    a = np.array([0.3, 1.1])
    pdf = angmf_error_pdf(k, a)
    cdf = angmf_error_cdf(k, a)
    assert pdf.shape == (2,) and cdf.shape == (2,)
    assert pdf[0] == angmf_error_pdf(0.5, 0.3)
    assert cdf[1] == angmf_error_cdf(2.0, 1.1)


# ---------------------------------------------------------------- E[alpha]


def test_expected_error_frozen_values():
    for kappa, want in E_ALPHA.items():
        assert close(expected_angular_error(kappa), want, rel=1e-15)
    # kappa = 0 must be exactly pi/2, not merely close
    assert expected_angular_error(0.0) == math.pi / 2.0


def test_expected_error_matches_quadrature():
    for kappa in (0.0, 0.25, 1.0, 3.0, 10.0, 50.0):
        val, err = quad(lambda a: a * angmf_error_pdf(kappa, a), 0.0, math.pi, limit=200)
        assert close(val, expected_angular_error(kappa), rel=1e-9)


def test_expected_error_monotone_decreasing():
    k = np.linspace(0.0, 40.0, 400)
    e = expected_angular_error(k)
    assert e.shape == (400,)
    assert np.all(np.diff(e) < 0.0)
    assert np.all(e > 0.0)


def test_expected_error_past_kappa_squared_overflow():
    # kappa^2 overflows above sqrt(max float) ~ 1.34e154; E[alpha] = 2/kappa there
    k = math.sqrt(np.finfo(float).max)
    for _ in range(4):
        k = math.nextafter(k, 0.0)
    prev = math.inf
    for _ in range(9):
        e = expected_angular_error(k)
        if math.isinf(k * k):
            assert e == 2.0 / k
        assert 0.0 < e <= prev
        prev = e
        k = math.nextafter(k, math.inf)
    assert expected_angular_error(1e200) == 2e-200
    assert expected_angular_error(np.finfo(float).max) == 2.0 / np.finfo(float).max


# ------------------------------------------------------------- properties

MAX_FLOAT = float(np.finfo(float).max)
KAPPAS = st.floats(0.0, MAX_FLOAT)
# tiny kappa, where E[alpha] and the cdf sit on their rounding noise
TINY_KAPPAS = st.floats(0.0, 1e-9)
ALPHAS = st.floats(0.0, math.pi)


@settings(max_examples=300, deadline=None)
@given(kappa=KAPPAS | TINY_KAPPAS, alpha=ALPHAS)
@example(kappa=1e200, alpha=0.0)
@example(kappa=1e200, alpha=1e-300)
@example(kappa=MAX_FLOAT, alpha=math.pi)
def test_error_pdf_is_finite_and_nonnegative(kappa, alpha):
    p = angmf_error_pdf(kappa, alpha)
    assert math.isfinite(p) and p >= 0.0


@settings(max_examples=300, deadline=None)
@given(kappa=KAPPAS | TINY_KAPPAS, lo=ALPHAS, gap=st.floats(0.0, 1e-12) | st.floats(0.0, 4.0))
@example(kappa=0.4768032089305137, lo=3.0, gap=1.0)
@example(kappa=MAX_FLOAT, lo=1.0, gap=1.0)
def test_error_cdf_bounded_monotone_with_exact_endpoints(kappa, lo, gap):
    hi = min(lo + gap, math.pi)
    c_lo, c_hi = angmf_error_cdf(kappa, lo), angmf_error_cdf(kappa, hi)
    assert 0.0 <= c_lo <= 1.0 and 0.0 <= c_hi <= 1.0
    # 1 - exp(-k a)(cos a + k sin a) rounds a few ulps of 1 either way; the
    # same slack as test_error_cdf_monotone_and_bounded
    assert c_hi >= c_lo - 1e-15
    assert angmf_error_cdf(kappa, 0.0) == 0.0
    assert angmf_error_cdf(kappa, math.pi) == 1.0


@settings(max_examples=300, deadline=None)
@given(kappa=KAPPAS | TINY_KAPPAS)
@example(kappa=1e200)
@example(kappa=1e308)
@example(kappa=MAX_FLOAT)
def test_expected_error_finite_in_range(kappa):
    e = expected_angular_error(kappa)
    assert math.isfinite(e) and 0.0 <= e <= math.pi / 2.0  # E[0] == pi/2: test_expected_error_frozen_values


@settings(max_examples=500, deadline=None)
@given(lo=KAPPAS | TINY_KAPPAS, gap=st.floats(0.0, 1e-3) | st.floats(0.0, 1e6))
@example(lo=1.3407807929942596e154, gap=1e-15)
@example(lo=1e300, gap=1e6)
def test_expected_error_does_not_increase(lo, gap):
    hi = min(lo + lo * gap, MAX_FLOAT)
    e_lo, e_hi = expected_angular_error(lo), expected_angular_error(hi)
    # the rounding of pi exp(-k pi) / (1 + exp(-k pi)) lets E rise by up to
    # two of its ulps (4.4e-16 near pi/2) for kappa below 1e-10
    assert e_hi <= e_lo + 2.0 * np.spacing(e_lo)


# --------------------------------------------------------------- gradients


def _geodesic_fd(nll, mu, direction, h=1e-6):
    """Directional derivative of nll along a tangent direction at mu."""
    plus = normalize(mu + h * direction)
    minus = normalize(mu - h * direction)
    return (nll(plus) - nll(minus)) / (2.0 * h)


@pytest.mark.parametrize("family", ["angmf", "vonmf"])
def test_gradients_match_finite_differences(family):
    gen = np.random.default_rng(5 if family == "angmf" else 6)
    make = AngMFParams if family == "angmf" else VonMFParams
    nll_fn = angmf_nll if family == "angmf" else vonmf_nll
    grad_fn = angmf_nll_grad if family == "angmf" else vonmf_nll_grad
    for _ in range(40):
        mu = random_unit(gen)
        kappa = float(gen.uniform(0.05, 30.0))
        alpha = float(gen.uniform(0.01, math.pi - 0.01))
        e1, e2 = tangent_basis(mu)
        phi = float(gen.uniform(0.0, 2.0 * math.pi))
        n = math.cos(alpha) * mu + math.sin(alpha) * (math.cos(phi) * e1 + math.sin(phi) * e2)
        n = normalize(n)
        g = grad_fn(make(mu, kappa), n)
        assert not g.clamped
        # tangency
        assert abs(np.dot(g.d_mu, mu)) < 1e-10 * max(1.0, np.linalg.norm(g.d_mu))
        # kappa direction
        h = 1e-6 * max(1.0, kappa)
        fd_k = (nll_fn(make(mu, kappa + h), n) - nll_fn(make(mu, kappa - h), n)) / (2.0 * h)
        assert close(fd_k, g.d_kappa, rel=1e-5)
        # two tangent directions
        for e in (e1, e2):
            fd = _geodesic_fd(lambda m: nll_fn(make(m, kappa), n), mu, e)
            assert abs(fd - np.dot(g.d_mu, e)) < 1e-5 * max(1.0, abs(fd))


def test_angmf_dkappa_is_alpha_minus_mean():
    gen = np.random.default_rng(8)
    for _ in range(10):
        mu = random_unit(gen)
        n = random_unit(gen)
        kappa = float(gen.uniform(0.0, 20.0))
        g = angmf_nll_grad(AngMFParams(mu, kappa), n)
        alpha = math.acos(float(np.clip(np.dot(mu, n), -1.0, 1.0)))
        assert close(g.d_kappa, alpha - expected_angular_error(kappa), rel=1e-14)


def test_angmf_grad_clamped_flag():
    p = AngMFParams(EZ, 3.0)
    g = angmf_nll_grad(p, EZ)
    assert g.clamped
    assert np.all(np.isfinite(g.d_mu))
    n = normalize([0.05, 0.0, 1.0])
    assert not angmf_nll_grad(p, n).clamped


def test_vonmf_grad_not_clamped_at_pole():
    # the cosine-based gradient is regular at the pole
    g = vonmf_nll_grad(VonMFParams(EZ, 3.0), EZ)
    assert not g.clamped
    assert np.allclose(g.d_mu, 0.0, atol=1e-15)
    assert close(g.d_kappa, (1.0 / math.tanh(3.0) - 1.0 / 3.0) - 1.0, rel=1e-14)


def test_grad_shape_errors():
    p = AngMFParams(EZ, 1.0)
    with pytest.raises(ShapeError):
        angmf_nll_grad(p, np.ones((2, 3)))
    with pytest.raises(ShapeError):
        angmf_nll(p, np.ones(4))
    with pytest.raises(ShapeError):
        vonmf_pdf(VonMFParams(EZ, 1.0), np.ones(2))


# ---------------------------------------------------------------- row nll


def test_batch_nll_matches_scalar_mean():
    gen = np.random.default_rng(9)
    mu = random_unit(gen, 6)
    n_gt = random_unit(gen, 6)
    kappa = gen.uniform(0.1, 10.0, size=6)
    want = np.mean([angmf_nll(AngMFParams(mu[i], kappa[i]), n_gt[i]) for i in range(6)])
    assert close(float(np.mean(angmf_nll_rows(mu, kappa, n_gt))), want, rel=1e-13)


def test_nll_at_mean_angle_is_mean_nll():
    # the nll is linear in the angle, which the MLE fit relies on
    gen = np.random.default_rng(11)
    n_gt = random_unit(gen, 7)
    p = AngMFParams(EZ, 2.5)
    alphas = [math.acos(max(-1.0, min(1.0, float(np.dot(p.mu, n))))) for n in n_gt]
    want = np.mean([angmf_nll(p, n) for n in n_gt])
    assert close(angmf_nll_at(2.5, float(np.mean(alphas))), want, rel=1e-13)
