"""Uncertainty-guided pixel selection.

Splits a per-step sampling budget between an importance set (the most
uncertain valid pixels) and a coverage set (a uniform draw from the rest)
so training keeps pressure on hard regions without starving easy ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["SelectionConfig", "PixelSelection", "select_pixels"]


@dataclass(frozen=True)
class SelectionConfig:
    """r_s: fraction of valid pixels to select; beta_ug: importance share."""

    r_s: float = 0.4
    beta_ug: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.r_s <= 1.0:
            raise DomainError(f"r_s must lie in (0, 1], got {self.r_s}")
        if not 0.0 <= self.beta_ug <= 1.0:
            raise DomainError(f"beta_ug must lie in [0, 1], got {self.beta_ug}")


@dataclass(frozen=True)
class PixelSelection:
    """Disjoint sets of flat (row-major) pixel indices, each sorted ascending."""

    importance: np.ndarray
    coverage: np.ndarray

    @property
    def all_indices(self):
        return np.sort(np.concatenate([self.importance, self.coverage]))


def select_pixels(uncertainty, valid, config, rng):
    """Select round(r_s * n_valid) pixels, split into importance and coverage.

    The importance set holds the floor(beta_ug * N_s) valid pixels with
    the highest uncertainty (ties broken by ascending flat index); the
    coverage set is drawn uniformly without replacement from the remaining
    valid pixels via a partial Fisher-Yates shuffle on ``rng``.  Arrays
    may be 2-d grids or already flat; indices always refer to the
    row-major flattening.
    """
    unc = np.asarray(uncertainty, dtype=np.float64).ravel()
    v = np.asarray(valid, dtype=bool).ravel()
    if unc.shape != v.shape:
        raise ShapeError(f"uncertainty {np.shape(uncertainty)} vs valid {np.shape(valid)}")
    vals = unc[v]
    if not np.isfinite(vals).all():
        raise DomainError("uncertainty must be finite at valid pixels")

    candidates = np.flatnonzero(v)
    n_valid = candidates.size
    n_select = int(np.floor(config.r_s * n_valid + 0.5))  # round half up; <= n_valid as r_s <= 1
    n_importance = int(np.floor(config.beta_ug * n_select))

    # the top n_importance values, ties at the threshold by ascending index
    t = np.partition(vals, n_valid - n_importance)[n_valid - n_importance] if n_importance else np.inf
    take = vals > t
    take[np.flatnonzero(vals == t)[:n_importance - int(take.sum())]] = True
    importance = np.compress(take, candidates)  # compress: a branch-free gather, unlike a boolean index
    pool = np.compress(~take, candidates)

    # partial Fisher-Yates; one uniform block equals n_coverage scalar draws.
    # uniform() <= 1 - 2**-53, so u * m rounds below m and j stays inside the pool
    n_coverage = n_select - n_importance
    i = np.arange(n_coverage)
    j = i + (rng.uniform(n_coverage) * (pool.size - i)).astype(np.intp)
    # Step a swaps slots a and j[a] >= a, and no later step moves slot a, so
    # slot a keeps what slot j[a] held just before step a: pool[j[a]], unless
    # an earlier step targeted j[a].  The latest one, b, put there what slot b
    # held just before step b: pool[b], unless an earlier step targeted b, and
    # so on down a chain of ever earlier steps, resolved by pointer jumping.
    shift = n_coverage.bit_length()
    key = np.sort(j << shift | i)  # the steps by (target, step)
    tj, ti = key >> shift, key & ((1 << shift) - 1)
    same = tj[1:] == tj[:-1]
    prev = np.full(n_coverage, -1)  # the latest earlier step with the same target
    prev[ti[1:][same]] = ti[:-1][same]
    # the last key below (target b, step b) is the latest step before b that
    # targets b, if its target is b.  With no key below, index -1 reads the
    # largest key, whose target is b only if it is step b itself: a root too
    before = np.searchsorted(key, i << shift | i) - 1
    root = np.where(tj[before] == i, ti[before], i)
    while (root != (step := root[root])).any():
        root = step
    coverage = pool[np.where(prev < 0, j, root[prev])]
    return PixelSelection(importance=importance, coverage=np.sort(coverage))
