"""The angular von Mises-Fisher family and its classic companion.

Densities on the unit sphere for mean direction ``mu`` and concentration
``kappa >= 0``, written with ``t = mu . n`` and ``alpha = acos(t)``:

    vonMF:  p(n) = kappa * exp(kappa t) / (4 pi sinh kappa)
    AngMF:  p(n) = (kappa^2 + 1) * exp(-kappa alpha)
                   / (2 pi (1 + exp(-kappa pi)))

Both reduce to the uniform density 1 / (4 pi) at kappa = 0.  The AngMF
negative log likelihood drops the constant log(2 pi), so the density is
recovered as exp(-nll) / (2 pi); the vonMF one drops log(4 pi) the same
way.  Penalizing the angle itself (instead of its cosine) is what gives
AngMF closed forms for the error-angle pdf, cdf and mean, and a gradient
in kappa that vanishes exactly when kappa matches the observed mean
angular error.

Numerical policy: dot products are clamped to [-1, 1] before acos on
value paths and to +/-(1 - 1e-7) on gradient paths (flagged in the
result); log(sinh k) goes through ``k + log1p(-exp(-2k)) - log 2`` above
k = 20 and through a short Taylor series below 1e-4.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .sphere import angle_between, as_unit

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

# Gradient-path clamp for the dot product; acos is singular at +/-1.
GRAD_DOT_CLAMP = 1.0 - 1e-7
_K2_FINITE = math.sqrt(np.finfo(np.float64).max)  # the largest kappa whose square is finite


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
    clamped: bool = False


def _dot(mu, n):
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (3,):
        raise ShapeError(f"expected a single direction of shape (3,), got {n.shape}")
    return float(np.clip(np.dot(mu, n), -1.0, 1.0))


def _log_sinh_over_k(k):
    """log(sinh(k) / k), stable over the whole kappa range (0 at k = 0)."""
    k = np.asarray(k, dtype=np.float64)
    out = np.empty_like(k)
    small = k < 1e-4
    big = k > 20.0
    mid = ~(small | big)
    ks = k[small]
    k2 = ks * ks
    # sinh(k)/k = 1 + k^2/6 + k^4/120 + k^6/5040 + O(k^8)
    out[small] = np.log1p(k2 / 6.0 + k2 * k2 / 120.0 + k2 * k2 * k2 / 5040.0)
    km = k[mid]
    out[mid] = np.log(np.sinh(km) / km)
    kb = k[big]
    out[big] = kb + np.log1p(-np.exp(-2.0 * kb)) - math.log(2.0) - np.log(kb)
    return out


def _coth_minus_inv(k):
    """coth(k) - 1/k, stable near 0 (series) and for large k."""
    k = np.asarray(k, dtype=np.float64)
    out = np.empty_like(k)
    small = k < 1e-4
    big = k > 20.0
    mid = ~(small | big)
    ks = k[small]
    # coth(k) - 1/k = k/3 - k^3/45 + 2 k^5/945 - k^7/4725 + O(k^9)
    out[small] = ks / 3.0 - ks**3 / 45.0 + 2.0 * ks**5 / 945.0 - ks**7 / 4725.0
    km = k[mid]
    out[mid] = 1.0 / np.tanh(km) - 1.0 / km
    kb = k[big]
    ez = np.exp(-2.0 * kb)
    out[big] = 1.0 - 1.0 / kb + 2.0 * ez / (1.0 - ez)
    return out


def _exp_neg_pi_k(k):
    """exp(-pi k); pi k may overflow to inf for huge k, which rightly gives 0."""
    with np.errstate(over="ignore"):
        return np.exp(-math.pi * k)


def vonmf_pdf(params, n):
    """von Mises-Fisher density at direction ``n``."""
    t = _dot(params.mu, n)
    k = params.kappa
    log_c = float(_log_sinh_over_k(k))
    return math.exp(k * t - log_c) / (4.0 * math.pi)


def vonmf_nll(params, n_gt):
    """Negative log likelihood of ``n_gt`` under vonMF, without the log(4 pi) constant."""
    t = _dot(params.mu, n_gt)
    k = params.kappa
    return float(_log_sinh_over_k(k)) - k * t


def vonmf_nll_grad(params, n_gt):
    """Gradient of :func:`vonmf_nll` in (mu, kappa).

    ``d_mu`` is the tangent-space gradient (the radial component is
    projected out); ``d_kappa`` uses the stable coth(k) - 1/k form.
    """
    mu, k = params.mu, params.kappa
    n = np.asarray(n_gt, dtype=np.float64)
    if n.shape != (3,):
        raise ShapeError(f"expected a single direction of shape (3,), got {n.shape}")
    raw = float(np.dot(mu, n))
    t = min(1.0, max(-1.0, raw))
    d_kappa = float(_coth_minus_inv(k)) - t
    d_mu = -k * (n - t * mu)
    d_mu = d_mu - np.dot(d_mu, mu) * mu
    return NllGradient(d_mu=d_mu, d_kappa=d_kappa, clamped=abs(raw) > 1.0)


def angmf_pdf(params, n):
    """Angular von Mises-Fisher density at direction ``n``."""
    t = _dot(params.mu, n)
    k = params.kappa
    alpha = math.acos(t)
    return (k * k + 1.0) * math.exp(-k * alpha) / (2.0 * math.pi * (1.0 + math.exp(-k * math.pi)))


def angmf_nll(params, n_gt):
    """Negative log likelihood of ``n_gt`` under AngMF, without the log(2 pi) constant."""
    return float(angmf_nll_at(params.kappa, math.acos(_dot(params.mu, n_gt))))


def angmf_nll_at(kappa, alpha):
    """AngMF nll ``-log(kappa^2 + 1) + log(1 + exp(-kappa pi)) + kappa alpha`` at error angle ``alpha``.

    Linear in alpha, so a mean nll is its value at the mean angle.
    Broadcasts over array arguments.
    """
    return -np.log1p(kappa * kappa) + np.log1p(_exp_neg_pi_k(kappa)) + kappa * alpha


def angmf_nll_rows(mu, kappa, n_gt):
    """Per-row AngMF nll for (N, 3) ``mu`` and ``n_gt`` and (N,) ``kappa``."""
    return angmf_nll_at(kappa, angle_between(mu, n_gt))


def angmf_grad_rows(mu, kappa, n_gt):
    """Per-row AngMF nll gradient ``(d_mu, d_kappa, clamped)`` for the inputs of ``angmf_nll_rows``.

    ``d_mu`` is tangent to mu.  ``d_kappa = acos(mu . n_gt) - E[alpha]``
    vanishes exactly when kappa explains the observed angle.  Rows whose
    dot product is clamped to +/-(1 - 1e-7) on the mu path are flagged.
    """
    t_raw = np.sum(mu * n_gt, axis=1)
    alpha = np.arccos(np.clip(t_raw, -1.0, 1.0))
    d_kappa = alpha - expected_angular_error(kappa)

    tg = np.clip(t_raw, -GRAD_DOT_CLAMP, GRAD_DOT_CLAMP)
    sin_a = np.sqrt(1.0 - tg * tg)
    d_mu = (-kappa / sin_a)[:, None] * (n_gt - tg[:, None] * mu)
    d_mu = d_mu - np.sum(d_mu * mu, axis=1, keepdims=True) * mu
    return d_mu, d_kappa, np.abs(t_raw) > GRAD_DOT_CLAMP


def angmf_nll_grad(params, n_gt):
    """Gradient of :func:`angmf_nll` in (mu, kappa); one row of :func:`angmf_grad_rows`."""
    n = np.asarray(n_gt, dtype=np.float64)
    if n.shape != (3,):
        raise ShapeError(f"expected a single direction of shape (3,), got {n.shape}")
    d_mu, d_kappa, clamped = angmf_grad_rows(params.mu[None, :], np.array([params.kappa]), n[None, :])
    return NllGradient(d_mu=d_mu[0], d_kappa=float(d_kappa[0]), clamped=bool(clamped[0]))


def _check_kappa(kappa):
    k = np.asarray(kappa, dtype=np.float64)
    if not np.all(np.isfinite(k) & (k >= 0.0)):
        raise DomainError("kappa must be finite and >= 0")
    return k


def _check_alpha(alpha):
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= math.pi)):
        raise DomainError("alpha must lie in [0, pi]")
    return a


def angmf_error_pdf(kappa, alpha):
    """Density of the error angle alpha = acos(mu . n) under AngMF.

    ``exp(-kappa alpha) sin(alpha) (kappa^2 + 1) / (1 + exp(-kappa pi))``
    on [0, pi].  Broadcasts over array arguments.
    """
    k = _check_kappa(kappa)
    a = _check_alpha(alpha)
    z = _exp_neg_pi_k(k)
    with np.errstate(over="ignore", invalid="ignore"):
        e, s = np.exp(-k * a), np.sin(a)
        out = ((k * s) * (k * e) + e * s) / (1.0 + z)
    return out if out.ndim else float(out)


def angmf_error_cdf(kappa, alpha):
    """P[error angle <= alpha] under AngMF; 0 at alpha = 0 and 1 at alpha = pi.

    ``(1 - exp(-kappa alpha) (cos alpha + kappa sin alpha)) / (1 + exp(-kappa pi))``.
    Broadcasts over array arguments.
    """
    k = _check_kappa(kappa)
    a = _check_alpha(alpha)
    z = _exp_neg_pi_k(k)
    with np.errstate(over="ignore"):  # k alpha overflows only where exp(-k alpha) is 0
        out = (1.0 - np.exp(-k * a) * (np.cos(a) + k * np.sin(a))) / (1.0 + z)
    out = np.clip(out, 0.0, 1.0)
    at_pi = a == math.pi
    if np.any(at_pi):  # sin(pi) is 1.2e-16 in floats, which can leave the value an ulp short of 1
        out = np.where(at_pi, 1.0, out)
    return out if out.ndim else float(out)


def expected_angular_error(kappa):
    """Mean error angle E[alpha] in radians under AngMF.

    ``2 kappa / (kappa^2 + 1) + pi exp(-kappa pi) / (1 + exp(-kappa pi))``.
    Returns exactly pi/2 at kappa = 0 and decreases toward 0 as kappa
    grows, which is what makes it usable as a per-pixel uncertainty
    measure.  Broadcasts over array arguments.
    """
    k = _check_kappa(kappa)
    z = _exp_neg_pi_k(k)
    with np.errstate(over="ignore", invalid="ignore"):
        out = 2.0 * k / (k * k + 1.0) + math.pi * (z / (1.0 + z))
    big = k > _K2_FINITE
    if np.any(big):  # k^2 overflows there, where 2 k / (k^2 + 1) is 2 / k
        out = np.where(big, 2.0 / np.maximum(k, 1.0), out)
    return out if out.ndim else float(out)
