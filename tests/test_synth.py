import math

import numpy as np
import pytest

from angmf import NormalMap, RngState, TwoPlaneScene, make_frame, sample_boundary_pixels, synth
from angmf.errors import DegenerateVector, DomainError
from angmf.sphere import angle_between, normalize
from angmf.synth import BAND_PX, FEATURE_DIM, demo_frames

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
TILTED = normalize([1.0, 0.0, 1.0])


# ----------------------------------------------------------- scene mixture


def test_scene_validation():
    TwoPlaneScene(EZ, EX, 0.2, 50.0)
    with pytest.raises(DomainError):
        TwoPlaneScene(EZ, EX, 0.5, 50.0)
    with pytest.raises(DomainError):
        TwoPlaneScene(EZ, EX, -0.01, 50.0)
    with pytest.raises(DomainError):
        TwoPlaneScene(EZ, EX, 0.2, 0.0)
    with pytest.raises(DegenerateVector):
        TwoPlaneScene(EZ * 2.0, EX, 0.2, 50.0)
    with pytest.raises(DomainError):  # only make_frame takes None for "no jitter"
        TwoPlaneScene(EZ, EX, 0.2, None)
    with pytest.raises(DomainError):
        TwoPlaneScene(EZ, EX, None, 50.0)


@pytest.mark.parametrize("contamination, jitter_kappa, message", [
    (0.5, 50.0, "contamination must lie in [0, 0.5), got 0.5"),
    (-0.01, 50.0, "contamination must lie in [0, 0.5), got -0.01"),
    (math.nan, 50.0, "contamination must lie in [0, 0.5), got nan"),
    (0.2, 0.0, "jitter_kappa must be finite and > 0, got 0.0"),
    (0.2, math.inf, "jitter_kappa must be finite and > 0, got inf"),
    (0.9, -1.0, "contamination must lie in [0, 0.5), got 0.9"),
])
def test_scene_and_frame_share_corruption_bounds(contamination, jitter_kappa, message):
    with pytest.raises(DomainError) as scene_error:
        TwoPlaneScene(EZ, EX, contamination, jitter_kappa)
    with pytest.raises(DomainError) as frame_error:
        make_frame(8, 4, [EZ, EX], RngState(0), jitter_kappa=jitter_kappa, contamination=contamination)
    assert str(scene_error.value) == str(frame_error.value) == message


def test_negative_draw_counts_share_one_message():
    with pytest.raises(DomainError, match=r"^cannot draw -3 samples$"):
        sample_boundary_pixels(TwoPlaneScene(EZ, EX, 0.2, 50.0), RngState(0), -3)


def test_boundary_pixels_unit_and_deterministic():
    scene = TwoPlaneScene(EZ, EX, 0.3, 40.0)
    a = sample_boundary_pixels(scene, RngState(1), 500)
    b = sample_boundary_pixels(scene, RngState(1), 500)
    assert a.shape == (500, 3)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("count, trials", [(50, 4), (1, 3), (0, 2), (7, 0)])
def test_boundary_trials_draw_the_sets_one_at_a_time_would(count, trials):
    scene = TwoPlaneScene(EZ, EX, 0.3, 40.0)
    rng, ref_rng = RngState(8), RngState(8)
    stack = sample_boundary_pixels(scene, rng, count, trials)
    assert stack.shape == (trials, count, 3)
    for s in stack:
        assert sample_boundary_pixels(scene, ref_rng, count).tobytes() == s.tobytes()
    assert rng.counter == ref_rng.counter


def test_boundary_contamination_fraction():
    # at high kappa every sample sits near its base normal, so counting
    # B-side samples measures the mixture weight
    scene = TwoPlaneScene(EZ, EX, 0.2, 1000.0)
    s = sample_boundary_pixels(scene, RngState(2), 10000)
    near_b = s @ EX > math.cos(0.3)
    frac = near_b.mean()
    assert abs(frac - 0.2) < 0.02


def test_boundary_zero_contamination():
    scene = TwoPlaneScene(EZ, EX, 0.0, 200.0)
    s = sample_boundary_pixels(scene, RngState(3), 2000)
    ang = np.arccos(np.clip(s @ EZ, -1.0, 1.0))
    assert np.max(ang) < 0.5  # every sample jitters around A only


def test_boundary_count_validation():
    scene = TwoPlaneScene(EZ, EX, 0.1, 50.0)
    assert sample_boundary_pixels(scene, RngState(0), 0).shape == (0, 3)
    with pytest.raises(DomainError):
        sample_boundary_pixels(scene, RngState(0), -3)


# ----------------------------------------------------------------- frames


@pytest.mark.parametrize("width, height", [(2**16, 2**16 + 1), (2**33, 1), (1, 10**30)])
def test_frame_past_the_draw_ceiling_is_rejected_before_any_draw(width, height):
    # only sizes past sampling.MAX_COUNT pixels: a size below it may be allocated
    rng = RngState(0)
    with pytest.raises(DomainError, match=rf"^frame {width}x{height} has more than 4294967296 pixels$"):
        make_frame(width, height, [EZ], rng)
    assert rng.counter == 0


def test_single_plane_frame_constant():
    f = make_frame(8, 4, [TILTED], RngState(4))
    assert f.gt.height == 4 and f.gt.width == 8
    assert not f.boundary_mask.any()
    assert np.all(f.gt.valid)
    err = np.degrees(np.arccos(np.clip(f.gt.data.astype(float) @ TILTED, -1, 1)))
    assert np.max(err) < 0.05  # float32 rounding only
    # one plane: distance channel saturates at 1
    assert np.all(f.features[..., 3] == 1.0)


def test_two_plane_frame_geometry():
    f = make_frame(32, 16, [EZ, EX], RngState(5))
    # strips of 16 columns; boundary band is the 4 columns around col 16
    own = f.gt.data.astype(float)
    assert np.allclose(own[:, :14] @ EZ, 1.0, atol=1e-7)
    assert np.allclose(own[:, 18:] @ EX, 1.0, atol=1e-7)
    band_cols = np.flatnonzero(f.boundary_mask[0])
    assert band_cols.tolist() == [14, 15, 16, 17]  # |col + 0.5 - 16| < 2
    assert f.boundary_mask.sum() == 4 * 16


def test_band_width_definition():
    # distances of col centers to the edge: BAND_PX strictly
    f = make_frame(12, 3, [EZ, EX], RngState(6))
    dist = np.abs(np.arange(12) + 0.5 - 6.0)
    assert np.array_equal(f.boundary_mask[0], dist < BAND_PX)


def test_three_plane_strips_and_remainder():
    # width 10, 3 planes: strips of 3, last absorbs the extra column
    f = make_frame(10, 2, [EZ, EX, TILTED], RngState(7))
    own = f.gt.data.astype(float)
    assert np.allclose(own[:, 0] @ EZ, 1.0, atol=1e-7)
    assert np.allclose(own[:, 4] @ EX, 1.0, atol=1e-7)
    assert np.allclose(own[:, 9] @ TILTED, 1.0, atol=1e-7)


def _reference_frame(width, height, normals, rng, contamination, noise_amp=0.05):
    """make_frame without jitter, one pixel at a time in row-major order, one scalar draw each."""
    n_planes = len(normals)
    strip = width // n_planes
    edges = [strip * k for k in range(1, n_planes)]
    cols = []
    for c in range(width):
        d = [abs(c + 0.5 - e) for e in edges]
        dist = min(d, default=math.inf)
        own = min(c // strip, n_planes - 1)
        nearest = d.index(dist) if edges else own
        neighbor = nearest + 1 if edges and c + 0.5 < edges[nearest] else nearest
        cols.append((own, neighbor, dist))
    gt = np.empty((height, width, 3))
    mask = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c, (own, neighbor, dist) in enumerate(cols):
            mask[r, c] = dist < BAND_PX
            flip = mask[r, c] and rng.uniform() < contamination
            gt[r, c] = normals[neighbor if flip else own]
    features = np.empty((height, width, FEATURE_DIM))
    for r in range(height):
        for c, (own, _, dist) in enumerate(cols):
            u = [rng.uniform() for _ in range(5)]
            for i in range(3):
                features[r, c, i] = normals[own][i] + noise_amp * (2.0 * u[i] - 1.0)
            features[r, c, 3] = min(dist, 4.0) / 4.0
            features[r, c, 4:6] = u[3:5]
    return NormalMap.from_vectors(gt), features, mask


@pytest.mark.parametrize("width, height, normals", [
    (8, 3, [TILTED]), (12, 3, [EZ, EX]), (11, 4, [EZ, TILTED]),  # 11: a remainder column
    (10, 2, [EZ, EX, TILTED]), (17, 5, [TILTED, EZ, EX]),
])
@pytest.mark.parametrize("contamination", [0.0, 0.3])
def test_frame_matches_per_pixel_reference(width, height, normals, contamination):
    for seed in (1, 2):
        rng, ref_rng = RngState(seed), RngState(seed)
        f = make_frame(width, height, normals, rng, contamination=contamination)
        gt, features, mask = _reference_frame(width, height, normals, ref_rng, contamination)
        assert f.gt.data.tobytes() == gt.data.tobytes()
        assert f.features.tobytes() == features.tobytes()
        assert np.array_equal(f.boundary_mask, mask)
        assert rng.counter == ref_rng.counter


def test_frame_determinism():
    kwargs = dict(jitter_kappa=60.0, contamination=0.2, noise_amp=0.05)
    a = make_frame(16, 8, [EZ, EX], RngState(8), **kwargs)
    b = make_frame(16, 8, [EZ, EX], RngState(8), **kwargs)
    assert a.gt == b.gt
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.boundary_mask, b.boundary_mask)
    c = make_frame(16, 8, [EZ, EX], RngState(9), **kwargs)
    assert not (a.gt == c.gt)


def test_frame_jitter_concentration():
    # interior pixels jitter around their own plane; 3/sqrt(kappa) covers
    # well over 99 percent of the AngMF mass
    f = make_frame(64, 64, [EZ, EX], RngState(10), jitter_kappa=80.0)
    interior = ~f.boundary_mask
    gt = f.gt.data.astype(float)
    own = np.where(np.arange(64)[None, :, None] < 32, EZ, EX)
    ang = np.arccos(np.clip(np.sum(gt * own, axis=-1), -1, 1))
    frac = np.mean(ang[interior] < 3.0 / math.sqrt(80.0))
    assert frac > 0.99


def test_frame_contamination_hits_boundary_only():
    f = make_frame(32, 32, [EZ, EX], RngState(11), contamination=0.4)
    gt = f.gt.data.astype(float)
    own = np.where(np.arange(32)[None, :, None] < 16, EZ, EX)
    flipped = np.sum(gt * own, axis=-1) < 0.99
    assert not flipped[~f.boundary_mask].any()
    n_b = f.boundary_mask.sum()
    frac = flipped[f.boundary_mask].mean()
    assert abs(frac - 0.4) < 5.0 * math.sqrt(0.4 * 0.6 / n_b)


def test_frame_features():
    f = make_frame(20, 10, [EZ, EX], RngState(12), jitter_kappa=50.0, noise_amp=0.05)
    assert f.features.shape == (10, 20, FEATURE_DIM)
    assert np.all(np.isfinite(f.features))
    own = np.where(np.arange(20)[None, :, None] < 10, EZ, EX)
    assert np.max(np.abs(f.features[..., 0:3] - own)) <= 0.05
    assert np.all((f.features[..., 4:6] >= 0.0) & (f.features[..., 4:6] < 1.0))
    # distance channel: column 0 is 9.5 px from the edge at 10, clipped to 1
    assert np.all(f.features[:, 0, 3] == 1.0)
    near = f.features[:, 10, 3]  # col 10 center is 0.5 px past the edge
    assert np.allclose(near, 0.5 / 4.0)


def test_frame_noise_amp_zero():
    f = make_frame(6, 3, [EZ], RngState(13), noise_amp=0.0)
    assert np.allclose(f.features[..., 0:3], EZ, atol=0.0)


def test_frame_validation():
    with pytest.raises(DomainError):
        make_frame(0, 4, [EZ], RngState(0))
    with pytest.raises(DomainError):
        make_frame(2, 2, [EZ, EX, TILTED], RngState(0))  # 3 planes, width 2
    with pytest.raises(DomainError, match="0 planes"):
        make_frame(8, 4, [], RngState(0))
    with pytest.raises(DomainError):
        make_frame(8, 4, [EZ], RngState(0), contamination=0.7)
    with pytest.raises(DomainError):
        make_frame(8, 4, [EZ], RngState(0), jitter_kappa=-1.0)
    with pytest.raises(DegenerateVector):
        make_frame(8, 4, [np.zeros(3)], RngState(0))


def test_identical_plane_normals_allowed():
    # degenerate but legal: both strips share a normal, boundary band still exists
    f = make_frame(8, 2, [EZ, EZ], RngState(14), contamination=0.3)
    assert f.boundary_mask.any()
    assert np.allclose(f.gt.data.astype(float) @ EZ, 1.0, atol=1e-7)


# ----------------------------------------------------------- demo frame set


def _recording_make_frame(monkeypatch):
    """Record the plane normals of every make_frame call that demo_frames makes."""
    calls = []
    make = synth.make_frame

    def recording(width, height, plane_normals, rng, **kwargs):
        calls.append([n.copy() for n in plane_normals])
        return make(width, height, plane_normals, rng, **kwargs)

    monkeypatch.setattr(synth, "make_frame", recording)
    return calls


# tilt of each plane about e_y in units of the separation, written out per plane count
@pytest.mark.parametrize("n_planes, separation_deg, steps", [
    (1, 50.0, [0.0]), (2, 60.0, [-0.5, 0.5]), (3, 50.0, [-1.0, 0.0, 1.0]), (4, 50.0, [-1.5, -0.5, 0.5, 1.5]),
])
@pytest.mark.parametrize("jitter_kappa, contamination", [(50.0, 0.2), (None, 0.0)])
def test_demo_frames_are_make_frame_on_stream_one(n_planes, separation_deg, steps, jitter_kappa, contamination):
    seed, width, height = 1000 + n_planes, 9, 5
    tilts = [s * math.radians(separation_deg) for s in steps]
    normals = [np.array([math.sin(t), 0.0, math.cos(t)]) for t in tilts]
    rng = RngState(seed, stream=1)
    want = [make_frame(width, height, normals, rng, jitter_kappa=jitter_kappa, contamination=contamination)
            for _ in range(3)]
    got = demo_frames(seed, 3, width, height, n_planes, separation_deg, jitter_kappa, contamination)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.gt.data.tobytes() == w.gt.data.tobytes()
        assert g.features.tobytes() == w.features.tobytes()
        assert np.array_equal(g.boundary_mask, w.boundary_mask)
    assert got[0].features.tobytes() != got[1].features.tobytes()  # one stream runs on through the frames


@pytest.mark.parametrize("n_planes, separation_deg", [(2, 60.0), (3, 50.0), (4, 50.0), (5, 17.5)])
def test_demo_frame_normals_are_separated_and_symmetric_about_ez(monkeypatch, n_planes, separation_deg):
    calls = _recording_make_frame(monkeypatch)
    demo_frames(3, 2, 8, 2, n_planes, separation_deg, 50.0, 0.2)
    assert len(calls) == 2
    for normals in calls:
        assert len(normals) == n_planes
        assert all(n[1] == 0.0 for n in normals)  # tilted about e_y
        for a, b in zip(normals, normals[1:]):
            assert a[0] < b[0]
            assert math.isclose(math.degrees(angle_between(a, b)), separation_deg, rel_tol=1e-12)
        for a, b in zip(normals, normals[::-1]):
            assert a[0] == -b[0] and a[2] == b[2]  # mirror pairs about e_z
    assert np.array_equal(calls[0], calls[1])


@pytest.mark.parametrize("count", [0, -1])
def test_no_demo_frames_for_a_count_below_one(monkeypatch, count):
    calls = _recording_make_frame(monkeypatch)
    assert demo_frames(1, count, 8, 8, 3, 60.0, 50.0, 0.2) == []
    assert calls == []


def test_demo_frames_check_the_frame_before_any_allocation(monkeypatch):
    # np.arange(10**30) would fail on its own; the frame check names the planes first
    calls = _recording_make_frame(monkeypatch)
    with pytest.raises(DomainError, match=rf"^{10**30} planes do not fit in width 8$"):
        demo_frames(1, 2, 8, 8, 10**30, 60.0, 50.0, 0.2)
    with pytest.raises(DomainError, match=r"^frame 1x10000000000 has more than 4294967296 pixels$"):
        demo_frames(1, 0, 1, 10**10, 1, 60.0, 50.0, 0.2)
    assert calls == []
