"""Angular-error metrics and sparsification analysis.

Error metrics follow the usual surface-normal conventions: mean, median
(midpoint interpolation) and rmse in degrees, plus the percentage of
pixels strictly below the thresholds 5, 7.5, 11.25, 22.5 and 30 degrees.

Sparsification curves remove pixels from most to least uncertain: the
curve value at x percent is the metric over the ceil(x * N / 100) kept
pixels with the *lowest* uncertainty.  The oracle curve keeps pixels by
ascending true error instead.  Accuracy-style metrics (the pct_*
thresholds) are turned into errors by subtracting from 100 so that lower
is better for every curve.  AUSC is the arithmetic mean of the 100 curve
values and AUSE is the AUSC of (estimated - oracle).

Each curve takes one sort (a median curve two) and matches np.median /
np.mean on every prefix bit for bit, via order statistics and counts.
Only the uncertainty ranking must break ties by index, as a stable sort
would.  Both sorts take one int64 key per value: its order-preserving bits
(-0.0 read as +0.0, so signed zeros tie as they do under ``<``) cut short,
with the value's index in the freed low bits.  Keys are distinct, so any
sort kernel gives one order, the stable one; values whose kept bits tie but
that differ are then re-sorted exactly.  Sorting the errors that way is more
than they need: tied errors are equal values, so their order cannot change
a curve value.

A median curve over an unsorted prefix finds its middle order statistics
in rank space: the prefix marks its members, per-block member counts say
which block of ``_RANK_BLOCK`` ranks holds the m-th one, and only that
block is scanned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInput, ShapeError
from .sphere import angle_between

__all__ = [
    "THRESHOLDS_DEG",
    "METRIC_NAMES",
    "MetricsReport",
    "SparsificationCurve",
    "angular_errors",
    "summarize",
    "sparsification",
    "oracle_curve",
    "ausc",
    "ause",
]

_PCT_KEYS = {5.0: "pct_5", 7.5: "pct_7_5", 11.25: "pct_11_25", 22.5: "pct_22_5", 30.0: "pct_30"}
THRESHOLDS_DEG = tuple(_PCT_KEYS)
METRIC_NAMES = ("mean", "median", "rmse") + tuple(_PCT_KEYS.values())


@dataclass(frozen=True)
class MetricsReport:
    mean_deg: float
    median_deg: float
    rmse_deg: float
    pct_below: dict

    def to_json_dict(self):
        out = {"mean": self.mean_deg, "median": self.median_deg, "rmse": self.rmse_deg}
        out.update(self.pct_below)
        return out


def angular_errors(pred, gt):
    """Per-pixel angular error in degrees between two normal maps.

    Returns an (H, W) float array; an invalid pixel of either map is a NaN
    triplet, so its angle is a NaN, of no fixed payload.  Raises ShapeError
    when the maps disagree in size.
    """
    if pred.data.shape != gt.data.shape:
        raise ShapeError(f"map shapes differ: {pred.data.shape} vs {gt.data.shape}")
    with np.errstate(invalid="ignore"):  # signalling NaN payloads are invalid pixels too
        return np.degrees(angle_between(pred.data, gt.data))


def valid_errors(error_grid):
    """Flatten an error grid and drop the NaN (invalid) entries."""
    e = np.asarray(error_grid, dtype=np.float64).ravel()
    return e[~np.isnan(e)]


def _check_errors(errors_deg):
    e = np.asarray(errors_deg, dtype=np.float64).ravel()
    if e.size == 0:
        raise EmptyInput("no error samples")
    if not np.all(np.isfinite(e)) or np.any(e < 0.0):
        raise DomainError("errors must be finite and >= 0 degrees")
    return e


def summarize(errors_deg):
    """MetricsReport over a flat collection of per-pixel errors in degrees."""
    e = _check_errors(errors_deg)
    pct = {key: float(100.0 * np.mean(e < t)) for t, key in _PCT_KEYS.items()}
    return MetricsReport(
        mean_deg=float(np.mean(e)),
        median_deg=float(np.median(e)),
        rmse_deg=float(np.sqrt(np.mean(e * e))),
        pct_below=pct,
    )


@dataclass(frozen=True)
class SparsificationCurve:
    """Curve values at x = 1..100 percent kept, for one metric."""

    metric: str
    values: np.ndarray

    @property
    def x_percent(self):
        return np.arange(1, 101)


# Ranks per block of the median curve's member counts.
_RANK_BLOCK = 1024


def _prefix_medians(e, cuts, is_sorted):
    # np.median is np.mean of the one or two middle order statistics; that
    # mean sums from +0.0, so which of two tied signed zeros is taken never shows
    if is_sorted:
        return [np.mean(e[(k - 1) // 2:k // 2 + 1]) for k in cuts]
    order = _stable_ranking(e)
    rank = np.empty_like(order)
    rank[order] = np.arange(e.size)
    member = np.zeros(e.size, dtype=bool)  # the prefix, in rank space
    n_blocks = -(-e.size // _RANK_BLOCK)
    counts = np.zeros(n_blocks, dtype=np.intp)  # members per block of ranks

    def member_rank(m, ends):
        """Rank of the m-th (0-based) member; ``ends`` is the cumulative block count."""
        b = int(np.searchsorted(ends, m, side="right"))
        before = int(ends[b - 1]) if b else 0
        lo = b * _RANK_BLOCK
        return lo + int(np.flatnonzero(member[lo:lo + _RANK_BLOCK])[m - before])

    out = []
    for done, k in zip([0] + cuts, cuts):
        new = rank[done:k]
        member[new] = True
        counts += np.bincount(new // _RANK_BLOCK, minlength=n_blocks)
        ends = np.cumsum(counts)
        mid = [member_rank(m, ends) for m in range((k - 1) // 2, k // 2 + 1)]
        out.append(np.mean(e[order[mid]]))
    return out


def _prefix_curve(e, metric, is_sorted=False):
    """Metric over the prefixes e[:k] at the cut points k = ceil(x * N / 100)."""
    cuts = [math.ceil(x * e.size / 100.0) for x in range(1, 101)]
    if metric == "mean":
        values = [np.mean(e[:k]) for k in cuts]
    elif metric == "median":
        values = _prefix_medians(e, cuts, is_sorted)
    elif metric == "rmse":
        sq = e * e
        values = [math.sqrt(np.mean(sq[:k])) for k in cuts]
    else:
        t = {v: k for k, v in _PCT_KEYS.items()}.get(metric)
        if t is None:
            raise DomainError(f"unknown metric {metric!r}; choose one of {METRIC_NAMES}")
        # np.mean's IEEE steps over a bool prefix; 100 - accuracy so lower stays better
        below = np.cumsum(e < t)
        values = [100.0 - 100.0 * (float(below[k - 1]) / k) for k in cuts]
    return SparsificationCurve(metric=metric, values=np.array(values, dtype=np.float64))


def _stable_ranking(u):
    """``np.argsort(u, kind="stable")`` of finite values, by one sort of distinct packed keys.

    The key is the value's bits as an order-preserving int64 (negative
    values have their magnitude bits flipped), less its low b bits, which
    hold the index (n <= 2**b).  Runs of keys whose high bits tie are in
    index order; if such a run mixes distinct values it is re-sorted by
    (run, value), stably.
    """
    b = max(u.size - 1, 0).bit_length()
    key = np.add(u, 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
    np.bitwise_xor(key, np.int64(2**63 - 1), out=key, where=key < 0)
    key &= -(1 << b)
    key |= np.arange(u.size)
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    tie = np.flatnonzero(key[1:] == key[:-1])
    if tie.size and (u[order[tie]] != u[order[tie + 1]]).any():
        tied = np.zeros(u.size, dtype=bool)
        tied[tie] = tied[tie + 1] = True
        t = order[tied]
        order[tied] = t[np.lexsort((u[t], key[tied]))]
    return order


def sparsification(errors_deg, uncertainties, metric="mean"):
    """Sparsification curve: metric over the lowest-uncertainty prefixes.

    Pixels are ranked by ascending uncertainty with ties broken by
    ascending input index; the value at x percent covers the first
    ceil(x * N / 100) pixels of that ranking.
    """
    e = _check_errors(errors_deg)
    u = np.asarray(uncertainties, dtype=np.float64).ravel()
    if u.shape != e.shape:
        raise ShapeError(f"errors {e.shape} vs uncertainties {u.shape}")
    if not np.all(np.isfinite(u)):
        raise DomainError("uncertainties must be finite")
    return _prefix_curve(e[_stable_ranking(u)], metric)


def oracle_curve(errors_deg, metric="mean"):
    """Best-case curve: pixels ranked by ascending true error."""
    e = _check_errors(errors_deg)
    return _prefix_curve(np.sort(e), metric, is_sorted=True)


def ausc(curve):
    """Area under a sparsification curve: the mean of its 100 values."""
    return float(np.mean(curve.values))


def ause(estimated, oracle):
    """Area between estimated and oracle curves (>= 0 when the oracle is true)."""
    if estimated.metric != oracle.metric:
        raise DomainError(f"metric mismatch: {estimated.metric!r} vs {oracle.metric!r}")
    if estimated.values.shape != oracle.values.shape:
        raise ShapeError("curves have different lengths")
    return float(np.mean(estimated.values - oracle.values))
