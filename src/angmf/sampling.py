"""Exact samplers for both sphere families.

Each sample costs one radial uniform and one azimuth uniform.  Draw order
is part of the determinism contract: a call first consumes ``count``
radial draws, then ``count`` azimuth draws, from the supplied
:class:`RngState`.

The AngMF radial angle comes from numerically inverting its closed-form
cdf; the vonMF cosine has an analytic inverse cdf.  Both routes are exact
(no rejection step), so sample statistics converge to the closed-form
moments at the usual 1/sqrt(N) rate.
"""

import math

import numpy as np

from .distributions import angmf_error_cdf
from .errors import DomainError
from .rng import RngState
from .sphere import tangent_basis

__all__ = ["RngState", "invert_error_cdf", "draw_angmf", "sample_angmf", "sample_vonmf"]


def invert_error_cdf(kappa, u, iters=60):
    """Solve ``angmf_error_cdf(kappa, alpha) = u`` for alpha by bisection.

    60 halvings of [0, pi] narrow the bracket to ~3e-18, far below the
    1e-10 contract, at a fixed cost per call.  Broadcasts over ``u``.
    """
    u_in = np.asarray(u, dtype=np.float64)
    if not np.all((u_in >= 0.0) & (u_in <= 1.0)):
        raise DomainError("u must lie in [0, 1]")
    lo = np.zeros(u_in.shape)
    hi = np.full(u_in.shape, math.pi)
    for _ in range(int(iters)):
        mid = 0.5 * (lo + hi)
        below = angmf_error_cdf(kappa, mid) < u_in
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    alpha = 0.5 * (lo + hi)
    alpha = np.where(u_in == 0.0, 0.0, alpha)
    alpha = np.where(u_in == 1.0, math.pi, alpha)
    return alpha if alpha.ndim else float(alpha)


def _frame(mu, alpha, phi):
    e1, e2 = tangent_basis(mu)
    sin_a = np.sin(alpha)
    return (
        np.cos(alpha)[:, None] * mu
        + (sin_a * np.cos(phi))[:, None] * e1
        + (sin_a * np.sin(phi))[:, None] * e2
    )


def draw_angmf(mu, kappa, count, rng):
    """``count`` AngMF draws around one (3,) ``mu`` or around (count, 3) per-row means."""
    u = rng.uniform(count)
    phi = 2.0 * math.pi * rng.uniform(count)
    alpha = invert_error_cdf(kappa, u)
    return _frame(mu, alpha, phi)


def sample_angmf(params, count, rng):
    """Draw ``count`` exact AngMF samples as a (count, 3) array."""
    count = int(count)
    if count < 0:
        raise DomainError(f"cannot draw {count} samples")
    return draw_angmf(params.mu, params.kappa, count, rng)


def sample_vonmf(params, count, rng):
    """Draw ``count`` exact vonMF samples as a (count, 3) array.

    The cosine of the polar angle has inverse cdf
    ``t = 1 + log(u + (1 - u) exp(-2 kappa)) / kappa``; kappa = 0 falls
    back to a uniform cosine (uniform sphere sampling).
    """
    count = int(count)
    if count < 0:
        raise DomainError(f"cannot draw {count} samples")
    k = params.kappa
    u = rng.uniform(count)
    phi = 2.0 * math.pi * rng.uniform(count)
    if k == 0.0:
        t = 1.0 - 2.0 * u
    else:
        with np.errstate(divide="ignore"):
            t = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * k)) / k
        t = np.maximum(t, -1.0)  # u == 0 with exp(-2k) underflowed
    alpha = np.arccos(np.clip(t, -1.0, 1.0))
    return _frame(params.mu, alpha, phi)
