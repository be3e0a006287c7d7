"""Shared helpers for the test suite.

numpy's own Generator is used freely here to produce test cases; the
package code under test only ever draws from angmf.rng.RngState.
"""

import math

import numpy as np

from angmf.errors import DegenerateResultant
from angmf.estimators import MAX_ITER, SphericalMedianReport, _as_samples, mean_direction
from angmf.sphere import dot3, log_map, normalize, tangent_basis


def random_unit(gen, n=None):
    """Uniform random unit vector(s) from a numpy Generator."""
    shape = (3,) if n is None else (n, 3)
    v = gen.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_rotation(gen):
    """Haar-ish random rotation matrix via QR with sign fix."""
    q, r = np.linalg.qr(gen.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _reference_newton_step(mu, u, cot, pull):
    """Newton step H^-1 * pull in the tangent plane at mu.

    The tangent Hessian of a single geodesic distance alpha_j is
    cot(alpha_j) * (I - u_j u_j^T): zero curvature along the geodesic,
    cot(alpha) across it.  ``pull`` is the descent direction (negative
    gradient) of some cot-weighted sum of those distances.  Returns None
    unless the assembled 2x2 system is safely positive definite and the
    step small enough to trust.
    """
    e1, e2 = tangent_basis(mu)
    w1 = dot3(u, e1)
    w2 = dot3(u, e2)
    h11 = float(np.sum(cot * w2 * w2))
    h22 = float(np.sum(cot * w1 * w1))
    h12 = float(-np.sum(cot * w1 * w2))
    det = h11 * h22 - h12 * h12
    if h11 <= 0.0 or det <= 0.0:
        return None
    g1 = float(dot3(pull, e1))
    g2 = float(dot3(pull, e2))
    r1 = (h22 * g1 - h12 * g2) / det
    r2 = (h11 * g2 - h12 * g1) / det
    step = r1 * e1 + r2 * e2
    if math.sqrt(dot3(step, step)) > 0.5:
        return None
    return step


def reference_median(samples, tol=1e-8, full_output=False):
    """The geodesic median of one (N, 3) set, one iteration at a time.

    This is the per-set loop ``spherical_median`` ran before it took
    stacks, kept verbatim (names aside) as a bit-for-bit reference.
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
    alpha, u = log_map(mu, s)
    f_mu = f_start = float(np.sum(alpha))
    stalled = False
    for iterations in range(1, MAX_ITER + 1):
        # samples (anti)coincident with the iterate have no usable tangent;
        # dropping them picks a valid subgradient
        far = (alpha > 1e-9) & (alpha < math.pi - 1e-9)
        g = u[far].sum(axis=0)
        g = g - dot3(g, mu) * mu
        grad_norm = math.sqrt(dot3(g, g))

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
                newton = _reference_newton_step(mu, u, np.cos(alpha) / np.sin(alpha), g)
                if newton is not None:
                    step = newton

        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(f_mu))
        lam = 1.0
        moved = 0.0
        accepted = False
        while lam > 1e-14:
            v = lam * step
            vn = math.sqrt(dot3(v, v))
            if vn == 0.0:
                break
            cand = math.cos(vn) * mu + math.sin(vn) * (v / vn)
            cand = normalize(cand)
            alpha_c, u_c = log_map(cand, s)
            f_cand = float(np.sum(alpha_c))
            if f_cand <= f_mu + noise:
                moved = math.sqrt(dot3(cand - mu, cand - mu))
                mu, f_mu, alpha, u = cand, f_cand, alpha_c, u_c
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break  # cannot move anywhere acceptable; report honestly
        if moved < 1e-15:
            stalled = True

    if full_output:
        return mu, SphericalMedianReport(mu, iterations, converged, grad_norm, f_start / n, f_mu / n)
    return mu
