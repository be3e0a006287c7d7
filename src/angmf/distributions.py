"""The angular von Mises-Fisher family and its classic companion.

Densities on the unit sphere for mean direction ``mu`` and concentration
``kappa >= 0``, written with ``t = mu . n`` and ``alpha = acos(t)``:

    vonMF:  p(n) = kappa * exp(kappa t) / (4 pi sinh kappa)
    AngMF:  p(n) = (kappa^2 + 1) * exp(-kappa alpha)
                   / (2 pi (1 + exp(-kappa pi)))

Both reduce to the uniform density 1 / (4 pi) at kappa = 0.  The AngMF
negative log likelihood drops the constant log(2 pi), so the density is
exp(-nll) / (2 pi); the vonMF one drops log(4 pi) the same way.  Both
pdfs are computed exactly so, from their nll: one formula per density.
The AngMF error angle comes from ``sphere.angle_between``, the only
arccos of a dot product in the package.  Penalizing the angle itself
(instead of its cosine) is what gives AngMF closed forms for the
error-angle pdf, cdf and mean, and a gradient in kappa that vanishes
exactly when kappa matches the observed mean angular error.

Numerical policy: dot products are clamped to [-1, 1] before acos.  The
AngMF mu gradient is -kappa times the unit tangent of ``sphere.log_map``.
The vonMF nll is ``kappa (1 - t) + log(sinh k / k) - k``, whose last term is
``log(-expm1(-2k) / k) - log 2``, or a short Taylor series below 1e-4;
past the kappa whose square overflows, log(kappa^2 + 1) is 2 log kappa.
exp(-kappa pi) is clamped below at e^-700 (kappa > 700/pi ~ 223), where
numpy's exp underflows at several times the cost, and no output bit moves:
pi e^-700 < 3.2e-304 is far below half an ulp of 2 kappa / (kappa^2 + 1)
>= 1.5e-154 in E[alpha], 1 + e^-700 is exactly 1 in the error cdf and pdf,
and log1p(e^-700) is lost against log(kappa^2 + 1) >= 10.8 in the nll.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .sphere import angle_between, as_unit, dot3, log_map

__all__ = [
    "VonMFParams",
    "AngMFParams",
    "NllGradient",
    "vonmf_pdf",
    "vonmf_nll",
    "vonmf_nll_grad",
    "angmf_pdf",
    "angmf_nll",
    "angmf_nll_at",
    "angmf_nll_rows",
    "angmf_nll_grad",
    "angmf_grad_rows",
    "angmf_error_pdf",
    "angmf_error_cdf",
    "expected_angular_error",
]

_K2_FINITE = math.sqrt(np.finfo(np.float64).max)  # the largest kappa whose square is finite
# E[alpha] goes in blocks this size, whose temporaries stay in cache and grow no heap
_EAE_BLOCK = 16384


@dataclass(frozen=True)
class _DirectionalParams:
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mu", as_unit(self.mu))
        k = float(self.kappa)
        if not (math.isfinite(k) and k >= 0.0):
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        object.__setattr__(self, "kappa", k)


class VonMFParams(_DirectionalParams):
    """Parameters of a von Mises-Fisher density on the sphere."""


class AngMFParams(_DirectionalParams):
    """Parameters of an angular von Mises-Fisher density on the sphere."""


@dataclass(frozen=True)
class NllGradient:
    """Gradient of a per-sample nll.  ``d_mu`` is tangent to mu."""

    d_mu: np.ndarray
    d_kappa: float


def _direction(n):
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (3,):
        raise ShapeError(f"expected a single direction of shape (3,), got {n.shape}")
    return as_unit(n)


def _log_sinh_over_k_minus_k(k):
    """log(sinh(k) / k) - k = log((1 - exp(-2k)) / 2k) of one float, stable over the whole kappa range (0 at k = 0)."""
    if k < 1e-4:
        k2 = k * k
        # sinh(k)/k = 1 + k^2/6 + k^4/120 + k^6/5040 + O(k^8)
        return float(np.log1p(k2 / 6.0 + k2 * k2 / 120.0 + k2 * k2 * k2 / 5040.0) - k)
    # a float -2k overflows to -inf without a warning, where expm1(-2k) is -1 anyway
    return float(np.log(-np.expm1(-2.0 * k) / k) - math.log(2.0))


def _coth_minus_inv(k):
    """coth(k) - 1/k of one float, through a series below 1e-4, where the difference cancels."""
    if k < 1e-4:
        # coth(k) - 1/k = k/3 - k^3/45 + 2 k^5/945 - k^7/4725 + O(k^9)
        return k / 3.0 - k**3 / 45.0 + 2.0 * k**5 / 945.0 - k**7 / 4725.0
    return float(1.0 / np.tanh(k) - 1.0 / k)


def _exp_neg_pi_k(k):
    """exp(-pi k) with the exponent clamped at -700 (module docstring); pi k may overflow to inf for huge k."""
    with np.errstate(over="ignore"):
        return np.exp(np.maximum(-math.pi * k, -700.0))


def vonmf_pdf(params, n):
    """von Mises-Fisher density at direction ``n``, ``exp(-vonmf_nll) / (4 pi)``."""
    nll = vonmf_nll(params, n)
    try:
        return math.exp(-nll) / (4.0 * math.pi)
    except OverflowError:  # only near n = mu past kappa = 9e307, where the density is still finite
        return math.exp(-nll - math.log(4.0 * math.pi))


def vonmf_nll(params, n_gt):
    """Negative log likelihood of ``n_gt`` under vonMF, without the log(4 pi) constant."""
    t = float(np.clip(dot3(params.mu, _direction(n_gt)), -1.0, 1.0))
    return params.kappa * (1.0 - t) + _log_sinh_over_k_minus_k(params.kappa)


def vonmf_nll_grad(params, n_gt):
    """Gradient of :func:`vonmf_nll` in (mu, kappa).

    ``d_mu`` is the tangent-space gradient (the radial component is
    projected out); ``d_kappa`` uses the stable coth(k) - 1/k form.
    """
    mu, k = params.mu, params.kappa
    n = _direction(n_gt)
    t = min(1.0, max(-1.0, float(dot3(mu, n))))
    d_kappa = _coth_minus_inv(k) - t
    d_mu = -k * (n - t * mu)
    d_mu = d_mu - dot3(d_mu, mu) * mu
    return NllGradient(d_mu=d_mu, d_kappa=d_kappa)


def angmf_pdf(params, n):
    """Angular von Mises-Fisher density at direction ``n``, ``exp(-angmf_nll) / (2 pi)``."""
    try:
        return math.exp(-angmf_nll(params, n)) / (2.0 * math.pi)
    except OverflowError:  # only at n = mu, where kappa^2 + 1 is past the float range too
        return math.inf


def angmf_nll(params, n_gt):
    """AngMF nll of ``n_gt`` without the log(2 pi) constant: one row of :func:`angmf_nll_rows`."""
    return float(angmf_nll_rows(params.mu, params.kappa, _direction(n_gt)))


def angmf_nll_at(kappa, alpha):
    """AngMF nll ``-log(kappa^2 + 1) + log(1 + exp(-kappa pi)) + kappa alpha`` at error angle ``alpha``.

    Linear in alpha, so a mean nll is its value at the mean angle.  Past
    ``_K2_FINITE``, where kappa^2 overflows, log(kappa^2 + 1) is 2 log kappa
    to float resolution; kappa alpha overflows to +inf only where the true
    nll is past the float range too.  Broadcasts over array arguments.
    """
    with np.errstate(over="ignore"):
        log_norm = np.log1p(kappa * kappa)
        big = np.greater(kappa, _K2_FINITE)
        if np.any(big):
            log_norm = np.where(big, 2.0 * np.log(np.maximum(kappa, 1.0)), log_norm)
        return -log_norm + np.log1p(_exp_neg_pi_k(kappa)) + kappa * alpha


def angmf_nll_rows(mu, kappa, n_gt):
    """Per-row AngMF nll for (N, 3) ``mu`` and ``n_gt`` and (N,) ``kappa``, or for one (3,) row."""
    return angmf_nll_at(kappa, angle_between(mu, n_gt))


def angmf_grad_rows(mu, kappa, n_gt):
    """Per-row AngMF nll gradient ``(d_mu, d_kappa)`` for the inputs of ``angmf_nll_rows``.

    ``d_mu = -kappa u``, with ``u`` the unit tangent of :func:`sphere.log_map`
    from mu toward n_gt.  ``d_kappa = acos(mu . n_gt) - E[alpha]``
    vanishes exactly when kappa explains the observed angle.
    """
    d_kappa = angle_between(mu, n_gt) - expected_angular_error(kappa)
    d_mu = -kappa[:, None] * log_map(mu, n_gt)[1]
    return d_mu, d_kappa


def angmf_nll_grad(params, n_gt):
    """Gradient of :func:`angmf_nll` in (mu, kappa); one row of :func:`angmf_grad_rows`."""
    n = _direction(n_gt)
    d_mu, d_kappa = angmf_grad_rows(params.mu[None, :], np.array([params.kappa]), n[None, :])
    return NllGradient(d_mu=d_mu[0], d_kappa=float(d_kappa[0]))


def _check_kappa(kappa):
    k = np.asarray(kappa, dtype=np.float64)
    if k.size and not (k.min() >= 0.0 and math.isfinite(k.max())):  # a NaN fails both
        raise DomainError("kappa must be finite and >= 0")
    return k


def _check_alpha(alpha):
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= math.pi)):
        raise DomainError("alpha must lie in [0, pi]")
    return a


def _error_cdf_pdf(k, a):
    """Unchecked, unclipped error-angle cdf and pdf, sharing one exp, sin and cos.

    ``kappa alpha`` overflows only where ``exp(-kappa alpha)`` is 0, which is
    the right value there, so the overflow is not reported.
    """
    z = _exp_neg_pi_k(k)
    with np.errstate(over="ignore", invalid="ignore"):
        e, s, c = np.exp(-k * a), np.sin(a), np.cos(a)
        return (1.0 - e * (c + k * s)) / (1.0 + z), ((k * s) * (k * e) + e * s) / (1.0 + z)


def angmf_error_pdf(kappa, alpha):
    """Density of the error angle alpha = acos(mu . n) under AngMF.

    ``exp(-kappa alpha) sin(alpha) (kappa^2 + 1) / (1 + exp(-kappa pi))``
    on [0, pi].  Broadcasts over array arguments.
    """
    k = _check_kappa(kappa)
    out = _error_cdf_pdf(k, _check_alpha(alpha))[1]
    return out if out.ndim else float(out)


def angmf_error_cdf(kappa, alpha):
    """P[error angle <= alpha] under AngMF; 0 at alpha = 0 and 1 at alpha = pi.

    ``(1 - exp(-kappa alpha) (cos alpha + kappa sin alpha)) / (1 + exp(-kappa pi))``.
    Broadcasts over array arguments.
    """
    k = _check_kappa(kappa)
    a = _check_alpha(alpha)
    out = np.clip(_error_cdf_pdf(k, a)[0], 0.0, 1.0)
    at_pi = a == math.pi
    if np.any(at_pi):  # sin(pi) is 1.2e-16 in floats, which can leave the value an ulp short of 1
        out = np.where(at_pi, 1.0, out)
    return out if out.ndim else float(out)


def expected_angular_error(kappa):
    """Mean error angle E[alpha] in radians under AngMF.

    ``2 kappa / (kappa^2 + 1) + pi exp(-kappa pi) / (1 + exp(-kappa pi))``.
    Returns exactly pi/2 at kappa = 0 and decreases toward 0 as kappa
    grows, which is what makes it usable as a per-pixel uncertainty
    measure.  Broadcasts over array arguments, which go through in blocks
    of ``_EAE_BLOCK`` elements; a scalar is one block of one.
    """
    kappa = np.asarray(kappa, dtype=None if isinstance(kappa, np.ndarray) else np.float64)  # arrays convert by block
    out = np.empty(kappa.shape)
    flat_k, flat_out = kappa.reshape(-1), out.reshape(-1)
    for s in range(0, kappa.size, _EAE_BLOCK):
        k = _check_kappa(flat_k[s:s + _EAE_BLOCK])
        z = _exp_neg_pi_k(k)
        with np.errstate(over="ignore", invalid="ignore"):
            block = 2.0 * k / (k * k + 1.0) + math.pi * (z / (1.0 + z))
        if k.max() > _K2_FINITE:  # k^2 overflows there, where 2 k / (k^2 + 1) is 2 / k
            block = np.where(k > _K2_FINITE, 2.0 / np.maximum(k, 1.0), block)
        flat_out[s:s + _EAE_BLOCK] = block
    return out if out.ndim else float(out)
