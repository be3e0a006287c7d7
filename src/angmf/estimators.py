"""Direction estimators: extrinsic mean, geodesic median, AngMF maximum likelihood."""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AngMFParams, angmf_nll_at, expected_angular_error
from .errors import DegenerateResultant, EmptyBatch, ShapeError
from .sphere import log_map, normalize, tangent_basis

__all__ = [
    "mean_direction",
    "spherical_median",
    "SphericalMedianReport",
    "fit_angmf_mle",
    "FitReport",
]

MAX_ITER = 10000  # iteration cap of spherical_median
KAPPA_CEILING = 1e6  # kappa above this is treated as divergence (all samples collapsing onto mu)


def _as_samples(samples):
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != 3:
        raise ShapeError(f"expected samples of shape (N, 3), got {s.shape}")
    if s.shape[0] == 0:
        raise EmptyBatch("no samples")
    return s


def mean_direction(samples):
    """Normalized resultant of the samples.

    Raises DegenerateResultant when the resultant norm falls below 1e-12
    (e.g. an antipodal pair), in which case no direction is meaningful.
    """
    s = _as_samples(samples)
    r = s.sum(axis=0)
    if np.linalg.norm(r) < 1e-12:
        raise DegenerateResultant("sample directions cancel out")
    return normalize(r)


@dataclass(frozen=True)
class SphericalMedianReport:
    direction: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float


def _start_direction(s):
    try:
        return mean_direction(s)
    except DegenerateResultant:
        return s[0].copy()


def _tangent_newton_step(mu, u, cot, pull):
    """Newton step H^-1 * pull in the tangent plane at mu.

    The tangent Hessian of a single geodesic distance alpha_j is
    cot(alpha_j) * (I - u_j u_j^T): zero curvature along the geodesic,
    cot(alpha) across it.  ``pull`` is the descent direction (negative
    gradient) of some cot-weighted sum of those distances.  Returns None
    unless the assembled 2x2 system is safely positive definite and the
    step small enough to trust.
    """
    e1, e2 = tangent_basis(mu)
    w1 = u @ e1
    w2 = u @ e2
    h11 = float(np.sum(cot * w2 * w2))
    h22 = float(np.sum(cot * w1 * w1))
    h12 = float(-np.sum(cot * w1 * w2))
    det = h11 * h22 - h12 * h12
    if h11 <= 0.0 or det <= 0.0:
        return None
    g1 = float(np.dot(pull, e1))
    g2 = float(np.dot(pull, e2))
    r1 = (h22 * g1 - h12 * g2) / det
    r2 = (h11 * g2 - h12 * g1) / det
    step = r1 * e1 + r2 * e2
    if np.linalg.norm(step) > 0.5:
        return None
    return step


def spherical_median(samples, tol=1e-8, full_output=False):
    """Geodesic median: the direction minimizing the summed angles to the samples.

    Runs Weiszfeld-style reweighted updates on the sphere (the classic
    fixed point, exponential-map retraction) with step damping whenever a
    candidate genuinely increases the objective, switching to a guarded
    tangent-plane Newton step once the gradient is small so the last few
    digits arrive quadratically instead of at Weiszfeld's linear rate.

    Near the minimum the objective differences fall below float64
    resolution, so acceptance tolerates sub-noise ties and the loop stops
    once an accepted step no longer moves the iterate.

    When an iterate lands within 1e-9 of a sample point the 1/alpha
    weights blow up; those samples are dropped from the gradient (a valid
    subgradient) and the update degrades to plain tangent descent.  With m
    coincident and k antipodal samples the point is optimal once the
    remaining pull has norm <= m - k, each coincident sample resisting any
    move at unit rate and each antipodal one aiding it.

    Angles and tangents come from :func:`sphere.log_map`, whose absolute
    error stays near float64 epsilon at small angles; with acos the
    gradient test below would sit under the noise floor at high
    concentration.

    Convergence means the summed tangent gradient has norm below ``tol``
    (or meets the subgradient bound at a sample point).  With
    ``full_output`` returns (direction, SphericalMedianReport).
    """
    s = _as_samples(samples)
    mu = _start_direction(s)

    n = s.shape[0]
    iterations = 0
    converged = False
    grad_norm = math.inf
    alpha, u = log_map(mu, s)
    f_mu = float(np.sum(alpha))
    stalled = False
    for iterations in range(1, MAX_ITER + 1):
        # samples (anti)coincident with the iterate have no usable tangent;
        # dropping them picks a valid subgradient
        far = (alpha > 1e-9) & (alpha < math.pi - 1e-9)
        g = u[far].sum(axis=0)
        g = g - np.dot(g, mu) * mu
        grad_norm = float(np.linalg.norm(g))

        n_near = n - int(np.count_nonzero(far))
        if n_near:
            n_co = int(np.count_nonzero(alpha <= 1e-9))
            n_anti = n_near - n_co
            if grad_norm <= n_co - n_anti + tol:
                converged = True  # subgradient optimality at a sample point
                break
        elif grad_norm < tol:
            converged = True
            break
        if stalled:
            break  # iterate pinned at float resolution; gradient rechecked above

        if n_near:
            step = g / n
        else:
            step = g / np.sum(1.0 / alpha)  # Weiszfeld step
            if grad_norm < 1e-3 * n:
                newton = _tangent_newton_step(mu, u, np.cos(alpha) / np.sin(alpha), g)
                if newton is not None:
                    step = newton

        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(f_mu))
        lam = 1.0
        moved = 0.0
        accepted = False
        while lam > 1e-14:
            v = lam * step
            vn = float(np.linalg.norm(v))
            if vn == 0.0:
                break
            cand = math.cos(vn) * mu + math.sin(vn) * (v / vn)
            cand = normalize(cand)
            alpha_c, u_c = log_map(cand, s)
            f_cand = float(np.sum(alpha_c))
            if f_cand <= f_mu + noise:
                moved = float(np.linalg.norm(cand - mu))
                mu, f_mu, alpha, u = cand, f_cand, alpha_c, u_c
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break  # cannot move anywhere acceptable; report honestly
        if moved < 1e-15:
            stalled = True

    if full_output:
        return mu, SphericalMedianReport(mu, iterations, converged, grad_norm)
    return mu


@dataclass(frozen=True)
class FitReport:
    params: AngMFParams
    final_nll: float
    iterations: int
    converged: bool
    nll_history: np.ndarray


def _kappa_root(mean_alpha):
    """Bisect E[alpha](kappa) = mean_alpha on [0, KAPPA_CEILING] to float resolution.

    E[alpha] falls monotonically from pi/2 at kappa = 0 toward 0.  Returns
    (kappa, steps, residual) with residual = E[alpha](kappa) - mean_alpha,
    the endpoint of the final bracket with the smaller |residual|.
    """
    lo, hi = 0.0, KAPPA_CEILING
    r_lo = expected_angular_error(lo) - mean_alpha
    r_hi = expected_angular_error(hi) - mean_alpha
    if r_lo <= 0.0:
        return lo, 0, r_lo  # the optimum sits on the kappa = 0 boundary
    if r_hi >= 0.0:
        return hi, 0, r_hi  # the root lies beyond the ceiling
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        r_mid = expected_angular_error(mid) - mean_alpha
        steps += 1
        if r_mid >= 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    return (lo, steps, r_lo) if r_lo <= -r_hi else (hi, steps, r_hi)


def fit_angmf_mle(samples, tol=1e-8):
    """Maximum-likelihood AngMF fit: the geodesic median, then one kappa root.

    The mean nll ``-log(kappa^2 + 1) + log(1 + exp(-kappa pi)) + kappa
    mean(alpha)`` is linear in the angles, so for every kappa > 0 the best
    mu is the geodesic median (:func:`spherical_median`, run with ``tol``).
    At the median, d nll / d kappa = mean(alpha) - E[alpha](kappa), so
    kappa is the root of E[alpha](kappa) = mean(alpha), found by bisection.
    mean(alpha) >= pi/2 puts the optimum on the boundary kappa = 0, which
    counts as converged.  A root beyond 1e6 (all samples collapsing onto
    mu) returns kappa = 1e6 with converged = False.

    Converged otherwise means the median converged and
    |mean(alpha) - E[alpha](kappa)| < ``tol``.  ``iterations`` counts the
    median's iterations plus the bisection steps.  ``nll_history`` holds
    the nll at (mean direction, kappa = 1), at (median, kappa = 1) and at
    the fit.
    """
    s = _as_samples(samples)
    start_alpha = float(np.mean(log_map(_start_direction(s), s)[0]))
    mu, med = spherical_median(s, tol=tol, full_output=True)
    mean_alpha = float(np.mean(log_map(mu, s)[0]))
    kappa, steps, residual = _kappa_root(mean_alpha)
    converged = med.converged and (kappa == 0.0 or (kappa < KAPPA_CEILING and abs(residual) < tol))
    f = float(angmf_nll_at(kappa, mean_alpha))
    return FitReport(
        params=AngMFParams(mu=mu, kappa=kappa),
        final_nll=f,
        iterations=med.iterations + steps,
        converged=converged,
        nll_history=np.array([angmf_nll_at(1.0, start_alpha), angmf_nll_at(1.0, mean_alpha), f]),
    )
