"""Exact samplers for both sphere families.

Each sample costs one radial uniform and one azimuth uniform.  Draw order
is part of the determinism contract: a call first consumes ``count``
radial draws, then ``count`` azimuth draws, from the supplied
:class:`~angmf.rng.RngState`.

The AngMF radial angle comes from numerically inverting its closed-form
cdf (:func:`invert_error_cdf`): one table of the cdf per call brackets
every uniform, and a fixed number of bracket-safeguarded Newton steps,
which share one exp, sin and cos between the cdf and its pdf, solve each
to within a few 1e-16 of u.  The vonMF cosine has an analytic inverse
cdf.  Both routes are exact (no rejection step), so sample statistics
converge to the closed-form moments at the usual 1/sqrt(N) rate.
"""

import math

import numpy as np

from .distributions import _error_cdf_pdf, angmf_error_cdf
from .errors import DomainError
from .sphere import tangent_basis

__all__ = ["invert_error_cdf", "draw_angmf", "sample_angmf", "sample_vonmf"]

TABLE_CELLS = 2048
NEWTON_STEPS = 4
# Past alpha = 40/kappa, 1 - F < 41 e^{-40} ~ 2e-16, so the table stops
# there and [40/kappa, pi] is its last cell.
_TABLE_TAIL = 40.0
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# The most draws one sampler call takes: its (count, 3) float64 output alone is 96 GiB
MAX_COUNT = 2**32


def invert_error_cdf(kappa, u):
    """Solve ``angmf_error_cdf(kappa, alpha) = u`` for alpha; broadcasts over ``u``.

    ``kappa`` must be a scalar.  One cdf table of ``TABLE_CELLS`` equal
    cells over [0, min(pi, 40/kappa)], plus pi, brackets every u.  The start
    is the linear interpolant in the cell; in the first cell it is the
    small-angle root ``sqrt(2u (1 + e^{-kappa pi}) / (kappa^2 + 1))``, and in
    the last its mirror about pi (while e^{-kappa pi} > 0), where a linear
    start converges slowly.  Each of ``NEWTON_STEPS`` steps shrinks the
    bracket by the sign of F - u, then takes the Newton point if it lies in
    the closed bracket and the midpoint otherwise.  u = 0 gives exactly 0
    and u = 1 exactly pi.
    """
    k = np.asarray(kappa, dtype=np.float64)
    if k.ndim:
        raise DomainError(f"kappa must be a scalar, got shape {k.shape}")
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise DomainError("u must lie in [0, 1]")
    k = float(k)
    top = math.pi if k * math.pi <= _TABLE_TAIL else _TABLE_TAIL / k
    grid = np.linspace(0.0, top, TABLE_CELLS + 1)
    if top < math.pi:
        grid = np.append(grid, math.pi)
    # the cdf dips by a few 1e-16 near 0; a non-decreasing table keeps every bracket valid
    table = np.maximum.accumulate(angmf_error_cdf(k, grid))

    target = np.minimum(u, _BELOW_ONE)  # u = 1 is set to pi below
    j = np.searchsorted(table, target, side="right") - 1  # table[j] <= target < table[j + 1]
    lo, hi = grid[j], grid[j + 1]
    z = math.exp(-math.pi * k)
    # F ~ (kappa^2 + 1) alpha^2 / (2 (1 + z)) next to 0, and 1 - F is z times
    # that expression in pi - alpha next to pi
    root_scale = math.sqrt(2.0 * (1.0 + z)) / math.hypot(k, 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = lo + (target - table[j]) / (table[j + 1] - table[j]) * (hi - lo)
        a = np.where(j == 0, root_scale * np.sqrt(target), a)
        if z > 0.0:
            a = np.where(j == grid.size - 2, math.pi - root_scale * np.sqrt((1.0 - target) / z), a)
        a = np.clip(a, lo, hi)
        for _ in range(NEWTON_STEPS):
            f, pdf = _error_cdf_pdf(k, a)
            below = f < target
            lo = np.where(below, a, lo)
            hi = np.where(below, hi, a)
            # closed test: a row already at its root keeps it (its step is 0)
            step = a - (f - target) / pdf
            a = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    a = np.where(u == 0.0, 0.0, a)
    a = np.where(u == 1.0, math.pi, a)
    return a if a.ndim else float(a)


def _check_count(count):
    count = int(count)
    if not 0 <= count <= MAX_COUNT:
        raise DomainError(f"cannot draw {count} samples")
    return count


def _frame(mu, alpha, phi):
    e1, e2 = tangent_basis(mu)
    sin_a = np.sin(alpha)
    return (
        np.cos(alpha)[..., None] * mu
        + (sin_a * np.cos(phi))[..., None] * e1
        + (sin_a * np.sin(phi))[..., None] * e2
    )


def draw_angmf(mu, kappa, u, v):
    """AngMF draws from radial uniforms ``u`` and azimuth uniforms ``v``, around one (3,) ``mu`` or one per draw."""
    return _frame(mu, invert_error_cdf(kappa, u), 2.0 * math.pi * v)


def sample_angmf(params, count, rng):
    """Draw ``count`` exact AngMF samples as a (count, 3) array."""
    count = _check_count(count)
    return draw_angmf(params.mu, params.kappa, rng.uniform(count), rng.uniform(count))  # radial, then azimuth


def sample_vonmf(params, count, rng):
    """Draw ``count`` exact vonMF samples as a (count, 3) array.

    The cosine of the polar angle has inverse cdf
    ``t = 1 + log(u + (1 - u) exp(-2 kappa)) / kappa``; kappa = 0 falls
    back to a uniform cosine (uniform sphere sampling).
    """
    count = _check_count(count)
    k = params.kappa
    u = rng.uniform(count)
    phi = 2.0 * math.pi * rng.uniform(count)
    if k == 0.0:
        t = 1.0 - 2.0 * u
    else:
        with np.errstate(divide="ignore"):
            t = 1.0 + np.log(u + (1.0 - u) * math.exp(-2.0 * k)) / k
    alpha = np.arccos(np.clip(t, -1.0, 1.0))  # the clip maps -inf (u == 0, exp(-2k) underflowed) to -1
    return _frame(params.mu, alpha, phi)
