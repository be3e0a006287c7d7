"""Synthetic scenes: two-plane boundary mixtures and full training frames.

The corruption model for a pixel near a plane boundary is a two-component
mixture: with probability ``contamination`` its ground truth snaps to the
neighboring plane's normal, and either way it gets symmetric AngMF jitter.
This is the minimal model producing the asymmetric noise that makes
boundary pixels systematically harder than interior ones.

Frame feature recipe (version 1, fixed so trainer results stay
reproducible; ``FEATURE_DIM`` = 6):

    f[0:3]  clean plane normal of the pixel's strip plus uniform noise
            in [-noise_amp, +noise_amp] per component
    f[3]    distance to the nearest plane boundary in pixels, clipped to
            4 and scaled to [0, 1] (1.0 when the frame has one plane)
    f[4:6]  uniform [0, 1) distractor channels

The contamination flip is *not* observable in the features; only its
statistics are (via the distance channel), so a trainer must model it as
per-pixel uncertainty rather than regress it away.

Boundary-pixel draws (``sample_boundary_pixels``) take, per set of N
samples, N choice uniforms, then N radial and N azimuth uniforms for the
jitter.  T sets come from one block of 3 * T * N uniforms in that order,
so drawing them together or one set at a time gives the same bits;
``simulate-boundary`` draws its trials in blocks and takes the mean and
geodesic median of each block's (T, N, 3) stack in one solve.

Frame draw order from the RngState (the determinism contract):
  1. one uniform per boundary pixel, row-major, for the mixture choice;
  2. if jitter is enabled, one radial block then one azimuth block of
     H * W uniforms each, matching the sampler convention;
  3. one block of 5 * H * W uniforms reshaped to (H, W, 5): the first
     three channels perturb f[0:3], the last two fill f[4:6].
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mapio import NormalMap
from .sampling import MAX_COUNT, _check_count, draw_angmf
from .sphere import as_unit

__all__ = ["TwoPlaneScene", "SyntheticFrame", "sample_boundary_pixels", "make_frame", "FEATURE_DIM"]

FEATURE_DIM = 6
BAND_PX = 2.0


@dataclass(frozen=True)
class TwoPlaneScene:
    normal_a: np.ndarray
    normal_b: np.ndarray
    contamination: float
    jitter_kappa: float

    def __post_init__(self):
        object.__setattr__(self, "normal_a", as_unit(self.normal_a))
        object.__setattr__(self, "normal_b", as_unit(self.normal_b))
        _check_corruption(self.contamination, self.jitter_kappa)


def _check_corruption(contamination, jitter_kappa):
    """The mixture share and jitter concentration bounds of scenes and frames."""
    if not (isinstance(contamination, numbers.Real) and 0.0 <= contamination < 0.5):
        raise DomainError(f"contamination must lie in [0, 0.5), got {contamination}")
    if not (isinstance(jitter_kappa, numbers.Real) and math.isfinite(jitter_kappa) and jitter_kappa > 0.0):
        raise DomainError(f"jitter_kappa must be finite and > 0, got {jitter_kappa}")


@dataclass(frozen=True)
class SyntheticFrame:
    gt: NormalMap  # the frame's size is gt.height x gt.width
    features: np.ndarray  # (H, W, FEATURE_DIM) float64
    boundary_mask: np.ndarray  # (H, W) bool


def sample_boundary_pixels(scene, rng, count, trials=None):
    """Draw ``count`` boundary-pixel ground truths from the mixture model, or ``trials`` sets of them.

    Returns (count, 3), or (trials, count, 3) when ``trials`` is given.
    Each set takes its choice, radial and azimuth blocks in turn from one
    draw of ``3 * trials * count`` uniforms (see the module docstring).
    """
    count = _check_count(count)
    sets = 1 if trials is None else _check_count(trials)
    u = rng.uniform(3 * sets * count).reshape(sets, 3, count)
    bases = np.where((u[:, 0] < scene.contamination)[..., None], scene.normal_b, scene.normal_a)
    out = draw_angmf(bases, scene.jitter_kappa, u[:, 1], u[:, 2])
    return out[0] if trials is None else out


def _check_frame(width, height, n_planes):
    """Reject, before any allocation, a frame ``make_frame`` cannot build; its draws cap it at MAX_COUNT pixels."""
    if width < 1 or height < 1:
        raise DomainError(f"frame must be at least 1x1, got {width}x{height}")
    if width * height > MAX_COUNT:
        raise DomainError(f"frame {width}x{height} has more than {MAX_COUNT} pixels")
    if n_planes < 1 or n_planes > width:
        raise DomainError(f"{n_planes} planes do not fit in width {width}")


def make_frame(width, height, plane_normals, rng, jitter_kappa=None,
               contamination=0.0, noise_amp=0.05):
    """Build a SyntheticFrame of vertical plane strips.

    ``plane_normals`` become equal-width vertical strips (the last strip
    absorbs the remainder).  Pixels within ``BAND_PX`` of an internal
    boundary form the boundary mask; their gt flips to the across-edge
    plane with probability ``contamination``.  ``jitter_kappa = None``
    disables jitter entirely (exact plane normals).
    """
    width, height = int(width), int(height)
    plane_normals = list(plane_normals)
    n_planes = len(plane_normals)
    _check_frame(width, height, n_planes)
    normals = np.stack([as_unit(n) for n in plane_normals])
    _check_corruption(contamination, 1.0 if jitter_kappa is None else jitter_kappa)  # None: no jitter

    strip = width // n_planes
    cols = np.arange(width)
    plane_of_col = np.minimum(cols // strip, n_planes - 1)
    edges = strip * np.arange(1, n_planes)  # internal boundaries, in column units

    if edges.size:
        dist_per_edge = np.abs((cols + 0.5)[:, None] - edges[None, :])
        nearest = np.argmin(dist_per_edge, axis=1)
        dist = dist_per_edge[cols, nearest]
        # neighbor plane: the one on the other side of the nearest edge
        left_of_edge = (cols + 0.5) < edges[nearest]
        neighbor_of_col = np.where(left_of_edge, nearest + 1, nearest)  # nearest <= n_planes - 2
    else:
        dist = np.full(width, np.inf)
        neighbor_of_col = plane_of_col
    boundary_col = dist < BAND_PX

    own = normals[plane_of_col]  # (W, 3)
    boundary_mask = np.broadcast_to(boundary_col, (height, width)).copy()

    # boolean-mask assignment fills row-major, the documented draw order
    flip = np.zeros((height, width), dtype=bool)
    flip[boundary_mask] = rng.uniform(np.count_nonzero(boundary_mask)) < contamination
    gt = np.where(flip[..., None], normals[neighbor_of_col], own)

    if jitter_kappa is not None:
        n = height * width
        gt = draw_angmf(gt.reshape(-1, 3), jitter_kappa, rng.uniform(n), rng.uniform(n)).reshape(height, width, 3)

    noise = rng.uniform(5 * height * width).reshape(height, width, 5)
    features = np.empty((height, width, FEATURE_DIM))
    features[..., 0:3] = own[None, :, :] + noise_amp * (2.0 * noise[..., 0:3] - 1.0)
    features[..., 3] = np.minimum(dist, 4.0) / 4.0
    features[..., 4:6] = noise[..., 3:5]

    return SyntheticFrame(
        gt=NormalMap.from_vectors(gt),
        features=features,
        boundary_mask=boundary_mask,
    )
