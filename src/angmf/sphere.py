"""Primitives for unit vectors on the 2-sphere.

Directions are plain numpy arrays of shape (..., 3).  Everything here is
vectorized over leading axes so grids of normals go through the same code
path as single vectors.

Row-wise 3-vector dot products and norms go through :func:`dot3`, which
adds the three component products as whole arrays.  ``np.sum(u * v,
axis=-1)`` and ``np.linalg.norm(v, axis=-1)`` reduce over a length-3 axis,
which numpy does slowly, but their rounding is plain: they add from +0.0
and then the products in order, left to right.  ``dot3`` takes exactly
those steps, so it gives the same number bit for bit, only faster.
Grouping from the right, ``p0 + (p1 + p2)``, rounds differently on some
rows.  A single vector's ``np.dot`` or 1-D ``np.linalg.norm`` is BLAS
``ddot`` instead, whose rounding depends on the OpenBLAS core, so single
vectors go through ``dot3`` too, with norms as ``math.sqrt(dot3(v, v))``.
"""

import numpy as np

from .errors import DegenerateVector

# Norm drift tolerated when accepting an "already unit" vector.
UNIT_NORM_TOL = 1e-6
# Norm drift that is only rounding: normalize's output norms stay within
# 1.5 eps of 1.
UNIT_ROUNDING = 2.0 * np.finfo(np.float64).eps


def dot3(u, v):
    """``np.sum(u * v, axis=-1)`` of 3-vectors in float64, with the same bits wherever it is a number.

    The sum is ``((p0 + p1) + p2) + 0.0``; the trailing +0.0 turns an all
    -0.0 row into +0.0, as the reduction's +0.0 start does.  Products are
    taken in float64, which widens float32 input exactly, so a float32 map
    needs no float64 copy.  Where the sum is NaN, so is this; numpy's own
    loops do not agree on which NaN payload an add returns, and no caller
    promises one.
    """
    d = np.multiply(u[..., 0], v[..., 0], dtype=np.float64)
    d += np.multiply(u[..., 1], v[..., 1], dtype=np.float64)
    d += np.multiply(u[..., 2], v[..., 2], dtype=np.float64)
    d += 0.0
    return d


def normalize(v):
    """Scale ``v`` to unit length along the last axis.

    Raises DegenerateVector when any row has zero norm.  Prescaling by the
    largest component keeps the division safe for very large or denormal
    inputs.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != 3:
        raise DegenerateVector(f"expected 3 components on the last axis, got shape {v.shape}")
    a = np.abs(v)
    scale = np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])[..., None]
    if not np.all(scale > 0.0):
        raise DegenerateVector("zero vector has no direction")
    w = v / scale
    return w / np.sqrt(dot3(w, w))[..., None]


def as_unit(v):
    """Accept a vector that should already be unit length.

    Rows whose computed norm is within ``UNIT_ROUNDING`` of 1 come back
    unchanged, so the function is bit-idempotent: dividing by such a norm
    would only move last bits.  Other rows are renormalized silently while
    |norm - 1| < 1e-6; anything further off raises DegenerateVector, which
    almost always means a bookkeeping bug in the caller rather than
    harmless float drift.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != 3:
        raise DegenerateVector(f"expected 3 components on the last axis, got shape {v.shape}")
    n = np.sqrt(dot3(v, v))[..., None]
    drift = np.abs(n - 1.0)
    if not np.all(drift < UNIT_NORM_TOL):
        raise DegenerateVector("norm drifted more than 1e-6 from unit length")
    return np.where(drift <= UNIT_ROUNDING, v, v / n)


def angle_between(u, v):
    """Geodesic angle in [0, pi] between unit vectors.

    The dot product is clamped to [-1, 1] so float drift at (anti)parallel
    inputs cannot push acos out of its domain.
    """
    return np.arccos(np.clip(dot3(np.asarray(u), np.asarray(v)), -1.0, 1.0))


def log_map(mu, s):
    """Geodesic angles and unit tangents from unit ``mu`` toward unit rows ``s``.

    Returns ``(alpha, u)`` with ``t = s . mu``, ``perp = s - t mu``,
    ``alpha = atan2(|perp|, t)`` and ``u = perp / |perp|``.  ``acos(t)``
    and ``sqrt(1 - t^2)`` lose half their digits at small angles; here the
    absolute error stays near float64 epsilon, so even a 1e-9 angle keeps
    six or more digits.  ``mu`` is one (3,) direction or one per row.
    Rows at or opposite mu have no tangent direction; their u is 0.
    """
    t = dot3(s, mu)
    perp = s - t[..., None] * mu
    sin_a = np.sqrt(dot3(perp, perp))
    # at s = +/-mu rounding alone leaves |perp| up to about 7 eps when |mu|
    # is UNIT_ROUNDING off 1; rows below 4 UNIT_ROUNDING get u = perp / inf = 0
    u = perp / np.where(sin_a > 4.0 * UNIT_ROUNDING, sin_a, np.inf)[..., None]
    return np.arctan2(sin_a, t), u


def tangent_basis(mu):
    """Deterministic orthonormal basis (e1, e2) of the tangent plane at mu.

    The triple (e1, e2, mu) is right handed: cross(e1, e2) == mu.  The
    helper axis is the world axis least aligned with mu, which keeps the
    cross product well conditioned everywhere on the sphere.
    """
    mu = np.asarray(mu, dtype=np.float64)
    helper = np.eye(3)[np.argmin(np.abs(mu), axis=-1)]
    e1 = np.cross(helper, mu)
    e1 = e1 / np.sqrt(dot3(e1, e1))[..., None]
    e2 = np.cross(mu, e1)
    return e1, e2
