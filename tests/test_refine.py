import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angmf import RngState, make_frame, refine
from angmf.distributions import angmf_nll_rows, expected_angular_error
from angmf.errors import (
    DomainError,
    EmptyInput,
    FormatError,
    NormalizationError,
    NumericalError,
    ShapeError,
)
from angmf.refine import (
    RefineMLP,
    TrainConfig,
    forward,
    init_mlp,
    modified_elu,
    modified_elu_grad,
    train,
)
from angmf.mapio import NormalMap, load_weights, save_weights
from angmf.metrics import summarize, valid_errors
from angmf.pixel_select import SelectionConfig, select_pixels
from angmf.refine import _backward_batch, _evaluate, _forward_batch
from angmf.sphere import normalize
from angmf.synth import SyntheticFrame

from conftest import random_unit

EZ = np.array([0.0, 0.0, 1.0])


def head_only_mlp(bias):
    """One linear layer with zero weights: raw output is just the bias."""
    return RefineMLP(weights=[np.zeros((4, 6))], biases=[np.asarray(bias, dtype=float)])


# ------------------------------------------------------------ modified elu


def test_modified_elu_values():
    assert modified_elu(0.0) == 1.0
    assert modified_elu(1.0) == 2.0
    assert modified_elu(-20.0) == math.exp(-20.0)
    assert modified_elu(-20.0) > 0.0


def test_modified_elu_continuous_and_positive():
    x = np.linspace(-30.0, 30.0, 2001)
    y = modified_elu(x)
    assert np.all(y > 0.0)
    assert np.max(np.abs(np.diff(y))) < 0.05  # no jump at the knee
    assert abs(modified_elu(1e-12) - modified_elu(-1e-12)) < 1e-11


def test_modified_elu_grad():
    assert modified_elu_grad(3.0) == 1.0
    assert modified_elu_grad(0.0) == 1.0
    assert modified_elu_grad(-2.0) == math.exp(-2.0)
    for x in (-1.5, -0.3, 0.4, 2.0):
        fd = (modified_elu(x + 1e-7) - modified_elu(x - 1e-7)) / 2e-7
        assert abs(fd - modified_elu_grad(x)) < 1e-6


# ---------------------------------------------------------------- forward


def test_forward_zero_head_raises():
    mlp = head_only_mlp([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        forward(mlp, np.ones((1, 6)))


def test_forward_bias_head():
    mlp = head_only_mlp([0.0, 0.0, 5.0, 0.0])
    mu, kappa = forward(mlp, np.ones((2, 6)))
    assert np.allclose(mu, EZ, atol=0.0)
    assert np.all(kappa == 1.0)  # modified_elu(0)


def test_forward_head_invariants_seeded():
    mlp = init_mlp(6, hidden_dims=(16, 16), rng=RngState(1))
    gen = np.random.default_rng(2)
    x = gen.uniform(-1.0, 1.0, size=(1000, 6))
    mu, kappa = forward(mlp, x)
    assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)) < 1e-9
    assert np.all(kappa > 0.0)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(kappa))
    # a one-row batch agrees with the row of the full batch
    mu1, kappa1 = forward(mlp, x[17:18])
    assert np.allclose(mu1[0], mu[17], atol=1e-15)
    assert abs(kappa1[0] - kappa[17]) < 1e-15


def test_forward_is_the_batch_pass():
    # the public forward is _forward_batch's (mu, kappa), bit for bit, with
    # products in the features' dtype
    mlp = init_mlp(6, RngState(47))
    x = np.random.default_rng(48).uniform(-1.0, 1.0, size=(300, 6))
    for feats in (x, x.astype(np.float32)):
        mu, kappa = forward(mlp, feats)
        want_mu, want_kappa, (acts, _, _) = _forward_batch(mlp, feats, {})
        assert acts[1].dtype == feats.dtype
        assert mu.tobytes() == want_mu.tobytes() and kappa.tobytes() == want_kappa.tobytes()
    with pytest.raises(ShapeError):
        forward(mlp, x[0])  # one pixel is a (1, 6) batch, not a 1-D vector


def _forward_bytes(fwd):
    mu, kappa, (acts, z, r) = fwd
    return [a.tobytes() for a in (mu, kappa, z, r, *acts)]


def test_workspace_forward_matches_fresh_forward():
    mlp = init_mlp(6, rng=RngState(44))
    gen = np.random.default_rng(45)
    x_small, x_large = gen.uniform(-1.0, 1.0, size=(37, 6)), gen.uniform(-1.0, 1.0, size=(1024, 6))
    work = {}
    small = _forward_batch(mlp, x_small, work)
    want_small = _forward_bytes(_forward_batch(mlp, x_small, {}))
    assert _forward_bytes(small) == want_small
    # a second row count gets buffers of its own and leaves the first forward intact
    large = _forward_batch(mlp, x_large, work)
    assert _forward_bytes(large) == _forward_bytes(_forward_batch(mlp, x_large, {}))
    assert _forward_bytes(small) == want_small
    assert sorted(work) == [(l, n) for l in range(4) for n in (37, 1024)]
    assert all(buf.dtype == np.float64 for buf in work.values())  # float64 input keeps float64 products
    acts, z = large[2][0], large[2][1]
    assert all(a is work[(l - 1, 1024)] for l, a in enumerate(acts) if l > 0) and z is work[(3, 1024)]
    # the next forward of the same row count reuses, and so overwrites, them
    again = _forward_batch(mlp, x_large[::-1].copy(), work)
    assert again[2][1] is z
    assert _forward_bytes(again) == _forward_bytes(_forward_batch(mlp, x_large[::-1].copy(), {}))


def test_float32_forward_matches_float32_reference():
    # float32 features run every layer product, bias add and ReLU in float32;
    # the head's mu and kappa come out float64
    mlp = init_mlp(6, rng=RngState(46))
    x = np.random.default_rng(47).uniform(-1.0, 1.0, size=(300, 6)).astype(np.float32)
    work = {}
    mu, kappa, (acts, z, r) = _forward_batch(mlp, x, work)
    h, want = x, [x]
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        pre = h @ w.T.astype(np.float32) + b.astype(np.float32)
        h = pre if l == len(mlp.weights) - 1 else np.maximum(pre, 0.0)
        want.append(h)
    for got, ref in zip([*acts, z], want):
        assert got.dtype == np.float32 and np.array_equal(got, ref)
    assert all(buf.dtype == np.float32 for buf in work.values())
    assert mu.dtype == kappa.dtype == r.dtype == np.float64
    assert np.array_equal(kappa, modified_elu(want[-1][:, 3].astype(np.float64)))
    assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)) < 1e-15


def test_float32_step_gradient_near_float64():
    # one training step's gradient on a seeded 32x32 frame: float32 products
    # against float64 ones on the same selected rows.  The flattened
    # gradients' relative distance read 2.1e-7 here (a few float32 ulps; at
    # most 6.4e-7 over 20 seeds, SkylakeX, Haswell and Sandybridge kernels)
    planes = [normalize([0.3, -0.2, 0.93]), normalize([-0.5, 0.1, 0.8]), normalize([0.1, 0.6, 0.79])]
    f = make_frame(32, 32, planes, RngState(0))
    x, gt = f.features.reshape(-1, 6), f.gt.data.reshape(-1, 3).astype(np.float64)
    rng = RngState(1000)
    mlp = init_mlp(6, rng=rng)
    fwd64 = _forward_batch(mlp, x, {})
    idx = select_pixels(expected_angular_error(fwd64[1]), f.gt.valid.ravel(), SelectionConfig(), rng).all_indices
    g64 = _flatten(_backward_batch(mlp, idx, fwd64, gt[idx]))
    grads32 = _backward_batch(mlp, idx, _forward_batch(mlp, x.astype(np.float32), {}), gt[idx])
    assert all(g.dtype == np.float32 for g in grads32[0] + grads32[1])
    g32 = _flatten(grads32).astype(np.float64)
    assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) < 1e-6


def test_forward_shape_error():
    mlp = init_mlp(6, hidden_dims=(8,), rng=RngState(3))
    with pytest.raises(ShapeError):
        forward(mlp, np.ones(5))


def test_init_mlp_draw_order():
    mlp = init_mlp(3, hidden_dims=(2,), rng=RngState(4))
    ref = RngState(4)
    w0 = (1.0 / math.sqrt(3.0)) * (2.0 * ref.uniform(2 * 3) - 1.0)
    w1 = (1.0 / math.sqrt(2.0)) * (2.0 * ref.uniform(4 * 2) - 1.0)
    assert np.array_equal(mlp.weights[0], w0.reshape(2, 3))
    assert np.array_equal(mlp.weights[1], w1.reshape(4, 2))
    assert np.all(mlp.biases[0] == 0.0) and np.all(mlp.biases[1] == 0.0)
    assert mlp.dims == (3, 2, 4)


def test_init_mlp_bounds_and_validation():
    mlp = init_mlp(9, hidden_dims=(32,), rng=RngState(5))
    assert np.max(np.abs(mlp.weights[0])) <= 1.0 / 3.0
    assert np.max(np.abs(mlp.weights[1])) <= 1.0 / math.sqrt(32.0)
    with pytest.raises(DomainError):
        init_mlp(0, RngState(5))


# --------------------------------------------------------------- backward


def _flatten(grads):
    d_ws, d_bs = grads
    return np.concatenate([g.ravel() for g in d_ws] + [g.ravel() for g in d_bs])


def _nll_of(mlp, x, n_gt):
    return float(angmf_nll_rows(*forward(mlp, x[None]), n_gt)[0])


def _one_row_grads(mlp, x, n_gt):
    """nll gradients of one pixel: a one-row batch through the training backward."""
    return _backward_batch(mlp, [0], _forward_batch(mlp, x[None], {}), n_gt[None])


def test_backward_matches_finite_differences():
    # 4-input, 8-hidden toy net; all coordinates, central step 1e-5
    gen = np.random.default_rng(6)
    worst = 0.0
    for case in range(10):
        mlp = init_mlp(4, hidden_dims=(8,), rng=RngState(100 + case))
        x = gen.uniform(-1.0, 1.0, size=4)
        mu0 = forward(mlp, x[None])[0][0]
        while True:
            n_gt = random_unit(gen)
            if abs(np.dot(n_gt, mu0)) < 0.995:
                break
        analytic = _flatten(_one_row_grads(mlp, x, n_gt))
        fd = np.empty_like(analytic)
        i = 0
        for arrs in (mlp.weights, mlp.biases):
            for a in arrs:
                flat = a.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + 1e-5
                    up = _nll_of(mlp, x, n_gt)
                    flat[j] = orig - 1e-5
                    dn = _nll_of(mlp, x, n_gt)
                    flat[j] = orig
                    fd[i] = (up - dn) / 2e-5
                    i += 1
        rel = np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.full_like(fd, 1e-6)]
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4


def test_backward_relu_dead_unit():
    mlp = init_mlp(3, hidden_dims=(5,), rng=RngState(7))
    x = np.array([0.4, -0.9, 1.3])
    pre = x @ mlp.weights[0].T + mlp.biases[0]
    dead = pre < 0.0
    assert dead.any(), "pick another seed: no dead unit"
    d_ws, d_bs = _one_row_grads(mlp, x, normalize([1.0, 2.0, -0.5]))
    assert np.all(d_ws[0][dead] == 0.0)
    assert np.all(d_bs[0][dead] == 0.0)
    live = ~dead
    assert np.any(d_ws[0][live] != 0.0)


def test_backward_kappa_chain_rule_at_zero_angle():
    # gt aligned with mu: the direction path projects to zero and only the
    # kappa path survives, chained through modified_elu'
    z3 = -0.7
    mlp = head_only_mlp([0.0, 0.0, 5.0, z3])
    x = np.ones(6)
    kappa = modified_elu(z3)
    d_ws, d_bs = _one_row_grads(mlp, x, EZ)
    want = -expected_angular_error(kappa) * modified_elu_grad(z3)
    assert abs(d_bs[0][3] - want) < 1e-12
    assert np.allclose(d_bs[0][:3], 0.0, atol=1e-9)
    assert np.allclose(d_ws[0][3], want * x, atol=1e-12)


def test_backward_batch_is_mean_of_singles():
    mlp = init_mlp(6, hidden_dims=(8,), rng=RngState(8))
    gen = np.random.default_rng(9)
    x = gen.uniform(-1.0, 1.0, size=(5, 6))
    n_gt = random_unit(gen, 5)
    batch = _flatten(_backward_batch(mlp, np.arange(5), _forward_batch(mlp, x, {}), n_gt))
    singles = np.mean([_flatten(_one_row_grads(mlp, x[i], n_gt[i])) for i in range(5)], axis=0)
    assert np.allclose(batch, singles, atol=1e-14)


def test_backward_rows_of_full_forward_match_fresh_forward():
    # training backprops a slice of the full-frame forward; a fresh forward of
    # the same rows may differ only in GEMM rounding
    mlp = init_mlp(6, rng=RngState(13))
    gen = np.random.default_rng(14)
    x = gen.uniform(-1.0, 1.0, size=(1024, 6))
    for n in (1, 51, 300, 410):
        rows = np.sort(gen.choice(1024, size=n, replace=False))
        n_gt = random_unit(gen, n)
        sliced = _flatten(_backward_batch(mlp, rows, _forward_batch(mlp, x, {}), n_gt))
        fresh = _flatten(_backward_batch(mlp, np.arange(n), _forward_batch(mlp, x[rows], {}), n_gt))
        assert np.max(np.abs(sliced - fresh)) <= 1e-12


# ------------------------------------------------ pre-activation reference


def _reference_forward(mlp, x):
    """Forward that keeps every pre-activation: (acts, pre), pre[-1] the head."""
    acts, pre, h = [x], [], x
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = z if l == last else np.maximum(z, 0.0)
        if l != last:
            acts.append(h)
    return acts, pre


def _reference_backward(mlp, rows, mu, kappa, r, acts, pre, n_gt):
    """Backprop that masks each hidden layer with its pre-activation > 0."""
    delta = refine._head_gradients(n_gt, r[rows], mu[rows], kappa[rows], pre[-1][rows, 3]) / len(rows)
    d_ws, d_bs = [None] * len(mlp.weights), [None] * len(mlp.weights)
    for l in range(len(mlp.weights) - 1, -1, -1):
        d_ws[l] = delta.T @ acts[l][rows]
        d_bs[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ mlp.weights[l]) * (pre[l - 1][rows] > 0.0)
    return d_ws, d_bs


def test_backward_activation_mask_matches_preactivation_mask():
    mlp = init_mlp(6, hidden_dims=(32, 32, 32), rng=RngState(31))
    # units with zero weights and bias have pre-activation exactly 0.0
    for l in (0, 1, 2):
        mlp.weights[l][::5] = 0.0
        mlp.biases[l][::5] = 0.0
    gen = np.random.default_rng(32)
    x = gen.uniform(-1.0, 1.0, size=(300, 6))
    mu, kappa, (acts, z, r) = _forward_batch(mlp, x, {})
    ref_acts, pre = _reference_forward(mlp, x)
    for a, b in zip(acts, ref_acts):
        assert a.dtype == np.float64 and np.array_equal(a, b)
    assert np.array_equal(z, pre[-1])

    # a fused multiply-add BLAS can round a sum of underflowing products to
    # -0.0; plant such zeros, and NaN, in every hidden pre-activation
    pre = [p.copy() for p in pre]
    for p in pre[:-1]:
        p[::7, ::5] = -0.0
        p[3::11, 2] = np.nan
        zeros = p[p == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    planted = [x] + [np.maximum(p, 0.0) for p in pre[:-1]]
    for l in range(1, len(planted)):
        assert np.array_equal(planted[l] > 0.0, pre[l - 1] > 0.0)

    rows = np.sort(gen.choice(300, size=120, replace=False))
    rows = rows[~np.isin(rows, np.arange(3, 300, 11))]  # NaN rows would make every gradient NaN
    n_gt = random_unit(gen, len(rows))
    got = _backward_batch(mlp, rows, (mu, kappa, (planted, z, r)), n_gt)
    want = _reference_backward(mlp, rows, mu, kappa, r, planted, pre, n_gt)
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert np.array_equal(g, w)


def _reference_angular_errors(pred, gt):
    """The per-pixel error kernel ``angmf eval`` used before angle_between served it."""
    dot = np.clip(np.sum(pred.data.astype(np.float64) * gt.data.astype(np.float64), axis=-1), -1.0, 1.0)
    err = np.degrees(np.arccos(dot))
    err[~(pred.valid & gt.valid)] = np.nan
    return err


def test_evaluate_matches_normal_map_route():
    planes = [normalize([0.3, -0.2, 0.93]), normalize([-0.5, 0.1, 0.8])]
    frames = []
    for i in range(3):
        f = make_frame(24, 16, planes, RngState(40, stream=i), jitter_kappa=30.0)
        gt = f.gt.data.copy()
        gt[(np.arange(24 * 16).reshape(16, 24) * (i + 3)) % 7 == 0] = np.nan  # holes
        frames.append(SyntheticFrame(gt=NormalMap(gt), features=f.features, boundary_mask=f.boundary_mask))
    mlp, _ = train(frames, TrainConfig(seed=41, epochs=2))

    data = [(f.features.reshape(-1, 6), f.gt.data.reshape(-1, 3).astype(np.float64), f.gt.valid.ravel())
            for f in frames]
    got, _ = _evaluate(mlp, data, 7, {})

    total, count, errs = 0.0, 0, []
    for f in frames:
        mu, kappa = forward(mlp, f.features.reshape(-1, 6))
        ok = f.gt.valid.ravel()
        gt = f.gt.data.reshape(-1, 3).astype(np.float64)[ok]
        t = np.clip(np.sum(mu[ok] * gt, axis=1), -1.0, 1.0)
        k = kappa[ok]
        total += float((-np.log1p(k * k) + np.log1p(np.exp(-math.pi * k)) + k * np.arccos(t)).sum())
        count += int(ok.sum())
        pred = NormalMap.from_vectors(mu.reshape(f.gt.data.shape), valid=f.gt.valid)
        errs.append(valid_errors(_reference_angular_errors(pred, f.gt)))
    want = summarize(np.concatenate(errs))
    assert got.epoch == 7
    assert got.nll == total / count
    assert got.report == want


# ------------------------------------------------------------------ train


def make_dataset(n_frames, seed=2000, plane=None):
    plane = normalize([0.3, -0.2, 0.93]) if plane is None else plane
    return [
        make_frame(16, 16, [plane], RngState(seed, stream=10 + i), jitter_kappa=None, noise_amp=0.0)
        for i in range(n_frames)
    ]


def test_train_config_validation():
    TrainConfig(learning_rate=0.0)  # zero is a legal no-op rate
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(r_s=0.0)


def test_train_zero_learning_rate_is_noop():
    frames = make_dataset(2)
    cfg = TrainConfig(seed=3, epochs=3, learning_rate=0.0)
    mlp, stats = train(frames, cfg)
    init = init_mlp(6, rng=RngState(3))
    for w, w0 in zip(mlp.weights, init.weights):
        assert np.array_equal(w, w0)
    for b, b0 in zip(mlp.biases, init.biases):
        assert np.array_equal(b, b0)
    assert stats[0].report == stats[1].report == stats[2].report
    assert stats[0].nll == stats[2].nll


def test_train_deterministic():
    frames = make_dataset(2)
    cfg = TrainConfig(seed=5, epochs=2)
    mlp_a, stats_a = train(frames, cfg)
    mlp_b, stats_b = train(frames, cfg)
    for wa, wb in zip(mlp_a.weights, mlp_b.weights):
        assert np.array_equal(wa, wb)
    assert [s.nll for s in stats_a] == [s.nll for s in stats_b]
    mlp_c, _ = train(frames, TrainConfig(seed=6, epochs=2))
    assert not np.array_equal(mlp_a.weights[0], mlp_c.weights[0])


def test_train_epoch_stats_shape():
    frames = make_dataset(1)
    _, stats = train(frames, TrainConfig(seed=1, epochs=4))
    assert [s.epoch for s in stats] == [1, 2, 3, 4]
    for s in stats:
        assert math.isfinite(s.nll)
        assert s.report.mean_deg >= 0.0


def test_train_single_plane_noiseless_converges():
    # sanity run: constant target, no jitter, no feature noise; at the
    # 2.5e-3 rate descent is stable and the default epoch budget lands
    # well under a degree
    frames = make_dataset(8)
    mlp, stats = train(frames, TrainConfig(seed=0, learning_rate=2.5e-3))
    assert stats[-1].report.mean_deg < 1.0
    assert stats[-1].report.mean_deg < stats[0].report.mean_deg


def test_train_diverges_with_huge_rate():
    frames = [make_frame(8, 8, [EZ], RngState(3))]
    with pytest.raises(NumericalError):
        with np.errstate(all="ignore"):
            train(frames, TrainConfig(seed=0, epochs=2, learning_rate=1e300))


def test_train_kappa_collapse_raises():
    # the first step at this rate drives the kappa head's ELU input so far
    # below zero that kappa underflows to exactly 0 everywhere (nll = log 2)
    frames = [make_frame(8, 8, [EZ], RngState(3))]
    with pytest.raises(NumericalError, match="kappa collapsed to 0 .* at epoch 1"):
        train(frames, TrainConfig(seed=0, epochs=2, learning_rate=1e9))


def test_train_forwards_each_frame_twice_per_epoch(monkeypatch):
    # one forward per training step, one per frame in the epoch-end
    # evaluation, less the E - 1 steps on frame 0 that reuse the evaluation's;
    # the features are cast to float32 once, so every product is float32
    calls = []

    def counting(mlp, x, work):
        assert x.dtype == np.float32
        calls.append((len(x), work))
        return _forward_batch(mlp, x, work)

    monkeypatch.setattr(refine, "_forward_batch", counting)
    frames = make_dataset(3)
    mlp, _ = train(frames, TrainConfig(seed=1, epochs=2, batch_size=2))
    assert len(calls) == 2 * 2 * 3 - (2 - 1) == 11
    assert all(rows == 16 * 16 for rows, _ in calls)  # each a whole frame
    work = calls[0][1]
    assert all(w is work for _, w in calls)  # one workspace per run
    assert work and all(buf.dtype == np.float32 for buf in work.values())
    assert all(a.dtype == np.float64 for a in mlp.weights + mlp.biases)  # float64 master weights


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("lr", [1e-2, 0.0])
def test_train_epoch_matches_sgd_by_hand(batch_size, lr):
    # one epoch rebuilt from its parts on the run's RngState: each batch sums
    # its gradients from zero in float64, then w <- w - (lr / B) * sum in
    # fresh arrays; train must give the same bytes in every weight and bias
    frames = make_dataset(2)
    cfg = TrainConfig(seed=4, epochs=1, batch_size=batch_size, learning_rate=lr)
    got, _ = train(frames, cfg)

    rng = RngState(cfg.seed)
    mlp = init_mlp(6, rng=rng)
    sel = SelectionConfig(r_s=cfg.r_s, beta_ug=cfg.beta_ug)
    data = [(f.features.reshape(-1, 6).astype(np.float32), f.gt.data.reshape(-1, 3), f.gt.valid.ravel())
            for f in frames]
    for start in range(0, len(data), batch_size):
        batch = data[start:start + batch_size]
        acc_w = [np.zeros_like(w) for w in mlp.weights]
        acc_b = [np.zeros_like(b) for b in mlp.biases]
        for x, gt, valid in batch:
            fwd = _forward_batch(mlp, x, {})
            idx = select_pixels(expected_angular_error(fwd[1]), valid, sel, rng).all_indices
            d_ws, d_bs = _backward_batch(mlp, idx, fwd, gt[idx])
            acc_w = [a + d for a, d in zip(acc_w, d_ws)]
            acc_b = [a + d for a, d in zip(acc_b, d_bs)]
        scale = lr / len(batch)
        mlp = RefineMLP(weights=[w - scale * a for w, a in zip(mlp.weights, acc_w)],
                        biases=[b - scale * a for b, a in zip(mlp.biases, acc_b)])
    assert [a.tobytes() for a in got.weights + got.biases] == [a.tobytes() for a in mlp.weights + mlp.biases]
    assert all(a.dtype == np.float64 for a in got.weights + got.biases)


def test_train_empty_dataset():
    with pytest.raises(EmptyInput):
        train([], TrainConfig())


# ---------------------------------------------------------------- weights


def test_weights_round_trip(tmp_path):
    mlp = init_mlp(6, hidden_dims=(8, 5), rng=RngState(11))
    path = tmp_path / "w.rmlp"
    save_weights(mlp, path)
    back = load_weights(path)
    assert back.dims == (6, 8, 5, 4)
    for w, w0 in zip(back.weights, mlp.weights):
        assert np.array_equal(w, w0.astype(np.float32).astype(np.float64))
    # a second save of the loaded net is bit-identical
    path2 = tmp_path / "w2.rmlp"
    save_weights(back, path2)
    assert path.read_bytes() == path2.read_bytes()


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weights_round_trip_any_float32_net(data):
    dims = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))

    def draw(shape):
        n = int(np.prod(shape))
        return np.array(data.draw(st.lists(F32, min_size=n, max_size=n)), dtype=np.float64).reshape(shape)

    mlp = RefineMLP(weights=[draw((o, i)) for i, o in zip(dims[:-1], dims[1:])],
                    biases=[draw((o,)) for o in dims[1:]])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.rmlp")
        save_weights(mlp, path)
        back = load_weights(path)
        again = os.path.join(d, "again.rmlp")
        save_weights(back, again)
        assert open(path, "rb").read() == open(again, "rb").read()
    assert back.dims == tuple(dims)
    # bit for bit, so signed zeros and float32 subnormals survive too
    for got, want in zip(back.weights + back.biases, mlp.weights + mlp.biases):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_weights_file_layout(tmp_path):
    mlp = RefineMLP(
        weights=[np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -0.5], [0.0, 1.5]])],
        biases=[np.array([0.1, 0.2, 0.3, 0.4])],
    )
    path = tmp_path / "tiny.rmlp"
    save_weights(mlp, path)
    raw = path.read_bytes()
    assert raw[:5] == b"RMLP1"
    assert raw[5:9] == (1).to_bytes(4, "little")
    assert raw[9:17] == (2).to_bytes(4, "little") + (4).to_bytes(4, "little")
    assert len(raw) == 17 + 4 * (8 + 4)


def test_load_weights_errors(tmp_path):
    good = tmp_path / "ok.rmlp"
    save_weights(init_mlp(3, hidden_dims=(2,), rng=RngState(12)), good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.rmlp"
    bad_magic.write_bytes(b"XMLP1" + raw[5:])
    with pytest.raises(FormatError) as ei:
        load_weights(bad_magic)
    assert ei.value.offset == 0

    short = tmp_path / "short.rmlp"
    short.write_bytes(raw[:7])
    with pytest.raises(FormatError) as ei:
        load_weights(short)
    assert ei.value.offset == 7

    trunc = tmp_path / "trunc.rmlp"
    trunc.write_bytes(raw[:-4])
    with pytest.raises(FormatError) as ei:
        load_weights(trunc)
    assert ei.value.offset == len(raw) - 4

    nonfinite = tmp_path / "inf.rmlp"
    head = 9 + 4 * 3
    buf = bytearray(raw)
    buf[head + 4 : head + 8] = np.array([np.inf], dtype="<f4").tobytes()
    nonfinite.write_bytes(bytes(buf))
    with pytest.raises(FormatError) as ei:
        load_weights(nonfinite)
    assert ei.value.offset == head + 4
    assert str(ei.value) == f"{nonfinite}: non-finite weight in layer 0 (byte offset {head + 4})"

    # layer 0: 2x3 weights and 2 biases; layer 1: 4x2 weights and 4 biases
    for what, layer, index in (("bias", 0, 7), ("weight", 1, 9), ("bias", 1, 18)):
        buf = bytearray(raw)
        buf[head + 4 * index : head + 4 * index + 4] = np.array([np.nan], dtype="<f4").tobytes()
        nonfinite.write_bytes(bytes(buf))
        with pytest.raises(FormatError) as ei:
            load_weights(nonfinite)
        offset = head + 4 * index
        assert ei.value.offset == offset
        assert str(ei.value) == f"{nonfinite}: non-finite {what} in layer {layer} (byte offset {offset})"
