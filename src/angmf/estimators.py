"""Direction estimators: extrinsic mean, geodesic median, AngMF maximum likelihood."""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AngMFParams, GRAD_DOT_CLAMP, angmf_nll_at, expected_angular_error
from .errors import DegenerateResultant, EmptyBatch, ShapeError
from .sphere import normalize, tangent_basis

__all__ = [
    "mean_direction",
    "spherical_median",
    "SphericalMedianReport",
    "fit_angmf_mle",
    "FitReport",
]


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


def _median_objective(s, mu):
    return float(np.sum(np.arccos(np.clip(s @ mu, -1.0, 1.0))))


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


def spherical_median(samples, tol=1e-8, max_iter=10000, full_output=False):
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

    Convergence means the summed tangent gradient has norm below ``tol``
    (or meets the subgradient bound at a sample point).  With
    ``full_output`` returns (direction, SphericalMedianReport).
    """
    s = _as_samples(samples)
    try:
        mu = mean_direction(s)
    except DegenerateResultant:
        mu = s[0].copy()

    n = s.shape[0]
    iterations = 0
    converged = False
    grad_norm = math.inf
    f_mu = _median_objective(s, mu)
    stalled = False
    for iterations in range(1, int(max_iter) + 1):
        t = np.clip(s @ mu, -1.0, 1.0)
        alpha = np.arccos(t)
        # samples (anti)coincident with the iterate have no usable tangent;
        # dropping them picks a valid subgradient
        far = (alpha > 1e-9) & (alpha < math.pi - 1e-9)
        sin_a = np.sqrt(np.clip(1.0 - t[far] ** 2, 1e-30, None))
        # unit tangents pointing from mu toward each sample
        u = (s[far] - t[far, None] * mu) / sin_a[:, None]
        g = u.sum(axis=0)
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
            step = g / np.sum(1.0 / alpha[far])  # Weiszfeld step
            if grad_norm < 1e-3 * n:
                a = alpha[far]
                newton = _tangent_newton_step(mu, u, np.cos(a) / np.sin(a), g)
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
            f_cand = _median_objective(s, cand)
            if f_cand <= f_mu + noise:
                moved = float(np.linalg.norm(cand - mu))
                mu, f_mu = cand, f_cand
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


# kappa above this is treated as divergence (all samples collapsing onto mu)
KAPPA_CEILING = 1e6


def _softplus(rho):
    return float(np.logaddexp(0.0, rho))


def _mean_nll(s, mu, kappa):
    alpha = np.arccos(np.clip(s @ mu, -1.0, 1.0))
    return angmf_nll_at(kappa, float(np.mean(alpha)))


def fit_angmf_mle(samples, tol=1e-8, max_iter=10000):
    """Maximum-likelihood AngMF fit by joint descent on mean nll.

    mu moves by tangent-space gradient steps with renormalization as the
    retraction; kappa is optimized through a softplus reparameterization
    so it stays positive.  Steps are scaled by cheap curvature estimates
    (the analytic d2/dkappa2 and a cot-alpha bound for mu) and accepted
    through a backtracking line search, so the nll never increases
    between accepted iterates.

    Converged means the tangent gradient norm and |d nll / d kappa| are
    both below ``tol``.  When the optimum sits on the kappa -> 0 boundary
    the kappa derivative cannot vanish, so the gradient in the actual
    optimization variable rho (which does go to zero as softplus flattens)
    is tested instead.  kappa crossing 1e6 stops the fit with
    converged = False.  Starting point: mean_direction and kappa = 1.
    """
    s = _as_samples(samples)
    try:
        mu = mean_direction(s)
    except DegenerateResultant:
        mu = s[0].copy()
    rho = math.log(math.e - 1.0)  # softplus(rho) == 1
    kappa = _softplus(rho)

    f = _mean_nll(s, mu, kappa)
    history = [f]
    n = s.shape[0]
    converged = False
    iterations = 0
    stalled = False
    for iterations in range(1, int(max_iter) + 1):
        if kappa > KAPPA_CEILING:
            converged = False
            break
        t_raw = s @ mu
        t = np.clip(t_raw, -1.0, 1.0)
        alpha = np.arccos(t)
        mean_alpha = float(np.mean(alpha))

        g_kappa = mean_alpha - float(expected_angular_error(kappa))
        sig = 1.0 / (1.0 + math.exp(-rho))
        g_rho = g_kappa * sig

        tg = np.clip(t_raw, -GRAD_DOT_CLAMP, GRAD_DOT_CLAMP)
        sin_a = np.sqrt(1.0 - tg * tg)
        u = (s - tg[:, None] * mu) / sin_a[:, None]
        g_mu = (-kappa / n) * u.sum(axis=0)
        g_mu = g_mu - np.dot(g_mu, mu) * mu
        g_mu_norm = float(np.linalg.norm(g_mu))

        kappa_ok = abs(g_kappa) < tol or (g_kappa > 0.0 and abs(g_rho) < tol)
        if g_mu_norm < tol and kappa_ok:
            converged = True
            break
        if stalled:
            break  # no acceptable move left; gradient rechecked above

        # curvature estimates; the line search mops up any slack
        z = math.exp(-math.pi * kappa)
        neg_e_prime = math.pi * math.pi * z / (1.0 + z) ** 2 - 2.0 * (1.0 - kappa * kappa) / (1.0 + kappa * kappa) ** 2
        h_rho = max(neg_e_prime, 1e-12) * sig * sig + 1e-18
        cot = tg / sin_a
        h_mu = max(kappa * float(np.mean(np.clip(cot, 0.0, 1e8))), kappa * 1e-3, 1e-12)

        step_mu = -g_mu / h_mu
        if g_mu_norm < 0.1 * max(kappa, 1e-3):
            # endgame polish: exact tangent Hessian is (kappa/n) sum of
            # cot(alpha_j) (I - u u^T); the scalar bound above contracts
            # too slowly once nll decreases round to ties
            newton = _tangent_newton_step(mu, u, cot, -g_mu * (n / max(kappa, 1e-300)))
            if newton is not None:
                step_mu = newton
        step_rho = -g_rho / h_rho
        lam = 1.0
        accepted = False
        moved = 0.0
        # ties allowed: near the optimum true decreases round to equality,
        # and the preconditioned step still shrinks the gradient
        while lam > 1e-15:
            cand_mu = normalize(mu + lam * step_mu)
            cand_rho = rho + lam * step_rho
            cand_kappa = _softplus(cand_rho)
            f_cand = _mean_nll(s, cand_mu, cand_kappa)
            if f_cand <= f:
                moved = float(np.linalg.norm(cand_mu - mu)) + abs(cand_kappa - kappa)
                mu, rho, kappa, f = cand_mu, cand_rho, cand_kappa, f_cand
                history.append(f)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break  # every direction increases the nll at float resolution
        if moved < 1e-15:
            stalled = True

    params = AngMFParams(mu=mu, kappa=min(kappa, KAPPA_CEILING))
    return FitReport(
        params=params,
        final_nll=f,
        iterations=iterations,
        converged=converged,
        nll_history=np.asarray(history),
    )
