"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion also asserts, so a plain pytest run fails loudly.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstest, spearmanr

from angmf import RngState, make_frame
from angmf.cli import main
from angmf.distributions import (
    AngMFParams,
    VonMFParams,
    angmf_error_cdf,
    angmf_error_pdf,
    angmf_nll,
    angmf_nll_grad,
    angmf_nll_rows,
    angmf_pdf,
    expected_angular_error,
    vonmf_nll,
    vonmf_nll_grad,
    vonmf_pdf,
)
from angmf.estimators import fit_angmf_mle, mean_direction, spherical_median
from angmf.mapio import (
    KappaMap,
    NormalMap,
    read_kappa_map,
    read_normal_map,
    write_kappa_map,
    write_normal_map,
)
from angmf.metrics import angular_errors, ausc, ause, oracle_curve, sparsification, summarize
from angmf.pixel_select import SelectionConfig, select_pixels
from angmf.refine import TrainConfig, _backward_batch, _forward_batch, forward, init_mlp, train
from angmf.sampling import sample_angmf
from angmf.sphere import angle_between, normalize, tangent_basis
from angmf.synth import TwoPlaneScene, sample_boundary_pixels

from conftest import random_unit


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def sphere_quadrature(mu, n_theta=600, n_phi=20):
    """Surface quadrature nodes/weights with the polar axis aligned to mu.

    Gauss-Legendre in the colatitude, uniform (trapezoid) in azimuth;
    aligning the pole with mu keeps the AngMF cusp at a coordinate pole
    where the 1D integrand stays analytic.
    """
    e1, e2 = tangent_basis(mu)
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = (x + 1.0) * (math.pi / 2.0)
    w_theta = w * (math.pi / 2.0) * np.sin(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st, ct = np.sin(theta), np.cos(theta)
    nodes = (
        np.outer(np.outer(st, np.cos(phi)).ravel(), e1)
        + np.outer(np.outer(st, np.sin(phi)).ravel(), e2)
        + np.outer(np.outer(ct, np.ones(n_phi)).ravel(), mu)
    )
    weights = np.repeat(w_theta, n_phi) * (2.0 * math.pi / n_phi)
    return nodes, weights


def test_criterion_1_normalization():
    t0 = time.perf_counter()
    mu = normalize([0.35, -0.2, 0.92])
    nodes, weights = sphere_quadrature(mu)
    worst = 0.0
    for kappa in (0.0, 0.5, 1.0, 5.0, 20.0, 100.0):
        pa = AngMFParams(mu=mu, kappa=kappa)
        pv = VonMFParams(mu=mu, kappa=kappa)
        ia = sum(wt * angmf_pdf(pa, v) for wt, v in zip(weights, nodes))
        iv = sum(wt * vonmf_pdf(pv, v) for wt, v in zip(weights, nodes))
        worst = max(worst, abs(ia - 1.0), abs(iv - 1.0))
    dt = time.perf_counter() - t0
    verdict(1, worst < 1e-3 and dt < 10.0,
            f"max |integral - 1| = {worst:.2e} over both pdfs, 6 kappas ({dt:.1f}s)")


def test_criterion_2_expected_error_oracle():
    worst = 0.0
    for kappa in (0.0, 0.25, 1.0, 3.0, 10.0, 50.0):
        scale = min(5.0 / max(kappa, 1.0), 3.0)  # interior break near the mass
        val, _ = quad(lambda a: a * angmf_error_pdf(kappa, a), 0.0, math.pi,
                      points=[scale], limit=200)
        worst = max(worst, abs(val - expected_angular_error(kappa)))
    exact_zero = expected_angular_error(0.0) == math.pi / 2.0
    verdict(2, worst < 1e-6 and exact_zero,
            f"max |quadrature - closed form| = {worst:.2e}, E[alpha](0) == pi/2: {exact_zero}")


def test_criterion_3_sampler_fidelity():
    t0 = time.perf_counter()
    mu = normalize([0.2, 0.3, 0.93])
    worst_ks, worst_mean = 0.0, 0.0
    for kappa in (0.0, 1.0, 5.0, 20.0):
        s = sample_angmf(AngMFParams(mu=mu, kappa=kappa), 100000, RngState(40 + int(kappa)))
        alpha = np.arccos(np.clip(s @ mu, -1.0, 1.0))
        ks = float(kstest(alpha, lambda a, k=kappa: angmf_error_cdf(k, a)).statistic)
        rel = abs(float(alpha.mean()) - expected_angular_error(kappa)) / expected_angular_error(kappa)
        worst_ks, worst_mean = max(worst_ks, ks), max(worst_mean, rel)
    dt = time.perf_counter() - t0
    verdict(3, worst_ks < 0.006 and worst_mean < 0.01 and dt < 30.0,
            f"N=1e5 per kappa: max KS = {worst_ks:.4f}, max mean-angle rel err = "
            f"{worst_mean:.4f} ({dt:.1f}s)")


# ---------------------------------------------------------------------------


def _loss_fd_worst(grad_fn, nll_fn, params_cls, n_cases, seed):
    """Worst rel. error between analytic gradients and central differences."""
    gen = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(n_cases):
        mu = random_unit(gen)
        kappa = float(np.exp(gen.uniform(np.log(0.05), np.log(30.0))))
        e1, e2 = tangent_basis(mu)
        ang = gen.uniform(0.05, math.pi - 0.05)
        azi = gen.uniform(0.0, 2.0 * math.pi)
        n = math.cos(ang) * mu + math.sin(ang) * (math.cos(azi) * e1 + math.sin(azi) * e2)
        g = grad_fn(params_cls(mu=mu, kappa=kappa), n)

        fd_mu = np.empty(2)
        for i, w in enumerate((e1, e2)):
            up = nll_fn(params_cls(mu=math.cos(h) * mu + math.sin(h) * w, kappa=kappa), n)
            dn = nll_fn(params_cls(mu=math.cos(h) * mu - math.sin(h) * w, kappa=kappa), n)
            fd_mu[i] = (up - dn) / (2.0 * h)
        an_mu = np.array([np.dot(g.d_mu, e1), np.dot(g.d_mu, e2)])
        worst = max(worst, float(np.linalg.norm(an_mu - fd_mu))
                    / max(np.linalg.norm(an_mu), np.linalg.norm(fd_mu), 1e-4))

        fd_k = (nll_fn(params_cls(mu=mu, kappa=kappa + h), n)
                - nll_fn(params_cls(mu=mu, kappa=kappa - h), n)) / (2.0 * h)
        worst = max(worst, abs(g.d_kappa - fd_k) / max(abs(g.d_kappa), abs(fd_k), 1e-4))
    return worst


def _mlp_fd_worst(n_cases, seed):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_cases):
        mlp = init_mlp(4, hidden_dims=(8,), rng=RngState(9000 + case))
        x = gen.uniform(-1.0, 1.0, size=4)
        mu0 = forward(mlp, x[None])[0][0]
        while True:
            n_gt = random_unit(gen)
            if abs(np.dot(n_gt, mu0)) < 0.995:
                break
        d_ws, d_bs = _backward_batch(mlp, [0], _forward_batch(mlp, x[None], {}), n_gt[None])
        analytic = np.concatenate([g.ravel() for g in d_ws] + [g.ravel() for g in d_bs])
        fd = np.empty_like(analytic)
        i = 0
        for arrs in (mlp.weights, mlp.biases):
            for a in arrs:
                flat = a.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + 1e-5
                    up = float(angmf_nll_rows(*forward(mlp, x[None]), n_gt)[0])
                    flat[j] = orig - 1e-5
                    dn = float(angmf_nll_rows(*forward(mlp, x[None]), n_gt)[0])
                    flat[j] = orig
                    fd[i] = (up - dn) / 2e-5
                    i += 1
        rel = np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.full_like(fd, 1e-5)]
        )
        worst = max(worst, float(rel.max()))
    return worst


def test_criterion_4_gradient_checks():
    worst_a = _loss_fd_worst(angmf_nll_grad, angmf_nll, AngMFParams, 100, 101)
    worst_v = _loss_fd_worst(vonmf_nll_grad, vonmf_nll, VonMFParams, 100, 102)
    worst_m = _mlp_fd_worst(100, 103)
    verdict(4, worst_a < 1e-5 and worst_v < 1e-5 and worst_m < 1e-4,
            f"100 seeded FD cases each: angmf {worst_a:.2e}, vonmf {worst_v:.2e} "
            f"(< 1e-5), mlp backward {worst_m:.2e} (< 1e-4)")


# ---------------------------------------------------------------------------


def test_criterion_5_median_robustness():
    rng = RngState(11)
    scene = TwoPlaneScene(
        normal_a=np.array([0.0, 0.0, 1.0]),
        normal_b=np.array([math.sin(math.radians(60.0)), 0.0, math.cos(math.radians(60.0))]),
        contamination=0.2,
        jitter_kappa=50.0,
    )
    wins = 0
    for _ in range(100):
        samples = sample_boundary_pixels(scene, rng, 1000)
        e_mean = angle_between(mean_direction(samples), scene.normal_a)
        e_med = angle_between(spherical_median(samples), scene.normal_a)
        wins += bool(e_med < e_mean)
    verdict(5, wins >= 95,
            f"median beat mean in {wins}/100 trials (contamination 0.2, 60 deg, "
            "jitter kappa 50, N=1000)")


def test_criterion_6_mle_recovery():
    mu_t = normalize([0.3, -0.5, 0.81])
    worst_mu, worst_k = 0.0, 0.0
    for seed in range(10):
        s = sample_angmf(AngMFParams(mu=mu_t, kappa=5.0), 10000, RngState(1234 + seed))
        fit = fit_angmf_mle(s)
        worst_mu = max(worst_mu, math.degrees(angle_between(fit.params.mu, mu_t)))
        worst_k = max(worst_k, abs(fit.params.kappa - 5.0) / 5.0)
    verdict(6, worst_mu < 0.5 and worst_k < 0.10,
            f"10 seeds, N=1e4, kappa*=5: worst mu error {worst_mu:.3f} deg, "
            f"worst kappa rel err {worst_k:.4f}")


def test_criterion_7_selection_counts():
    gen = np.random.default_rng(77)
    unc = gen.permutation(100).astype(np.float64)  # distinct, so top-k is unambiguous
    valid = np.ones(100, dtype=bool)
    rng = RngState(5)

    sel = select_pixels(unc, valid, SelectionConfig(r_s=0.4, beta_ug=0.7), rng)
    counts_ok = (sel.importance.size, sel.coverage.size) == (28, 12)
    total_ok = np.union1d(sel.importance, sel.coverage).size == 40

    top = select_pixels(unc, valid, SelectionConfig(r_s=0.4, beta_ug=1.0), RngState(6))
    want_top = set(np.argsort(unc)[-40:].tolist())
    top_ok = top.coverage.size == 0 and set(top.importance.tolist()) == want_top

    cov = select_pixels(unc, valid, SelectionConfig(r_s=0.4, beta_ug=0.0), RngState(7))
    cov_ok = cov.importance.size == 0 and cov.coverage.size == 40

    hits = 0
    for seed in range(2000):
        s = select_pixels(unc, valid, SelectionConfig(r_s=0.4, beta_ug=0.0), RngState(seed))
        hits += bool(np.any(s.coverage == 3))
    # Binomial(2000, 0.4): 800 +- 5 sigma
    hyper_ok = 690 <= hits <= 910

    verdict(7, counts_ok and total_ok and top_ok and cov_ok and hyper_ok,
            f"r_s=0.4 on 100 px -> 28+12; beta=1 -> exact top-40; beta=0 -> "
            f"coverage only; pixel-3 hit {hits}/2000 times under beta=0")


# ---------------------------------------------------------------------------


def _brute_metric(e, metric):
    e = np.asarray(e, dtype=np.float64)
    if metric == "mean":
        return float(np.mean(e))
    if metric == "median":
        return float(np.median(e))
    if metric == "rmse":
        return float(math.sqrt(np.mean(e * e)))
    t = {"pct_5": 5.0, "pct_7_5": 7.5, "pct_11_25": 11.25,
         "pct_22_5": 22.5, "pct_30": 30.0}[metric]
    return float(100.0 - 100.0 * np.mean(e < t))


def _brute_prefix_values(e_ranked, metric):
    n = e_ranked.size
    return np.array([
        _brute_metric(e_ranked[:math.ceil(x * n / 100.0)], metric) for x in range(1, 101)
    ])


def test_criterion_8_metrics_correctness():
    rep = summarize([10.0, 20.0, 30.0, 40.0])
    crafted_ok = (rep.mean_deg == 25.0 and rep.median_deg == 25.0
                  and rep.rmse_deg == math.sqrt(750.0) and rep.pct_below["pct_22_5"] == 50.0)

    # brute-force prefix oracle, exact equality, all metrics, n <= 8
    gen = np.random.default_rng(88)
    brute_ok = True
    for trial in range(50):
        n = int(gen.integers(1, 9))
        e = np.round(gen.uniform(0.0, 45.0, size=n), 3)
        u = gen.uniform(0.0, 1.0, size=n)
        for metric in ("mean", "median", "rmse", "pct_11_25"):
            est = sparsification(e, u, metric=metric)
            orc = oracle_curve(e, metric=metric)
            want_est = _brute_prefix_values(e[np.argsort(u, kind="stable")], metric)
            want_orc = _brute_prefix_values(np.sort(e, kind="stable"), metric)
            if not (np.array_equal(est.values, want_est)
                    and np.array_equal(orc.values, want_orc)
                    and ausc(est) == float(np.mean(want_est))
                    and ause(est, orc) == float(np.mean(want_est - want_orc))):
                brute_ok = False

    # AUSE properties on 1000 random inputs (mean metric)
    zero_ok, nonneg_ok = True, True
    min_ause = np.inf
    for trial in range(1000):
        n = int(gen.integers(2, 41))
        e = gen.uniform(0.0, 60.0, size=n)
        est = sparsification(e, gen.uniform(0.0, 1.0, size=n))
        orc = oracle_curve(e)
        a = ause(est, orc)
        min_ause = min(min_ause, a)
        nonneg_ok = nonneg_ok and a >= 0.0
        aligned = ause(sparsification(e, e * 0.5 + 1.0), orc)  # same ordering as errors
        zero_ok = zero_ok and aligned == 0.0
    verdict(8, crafted_ok and brute_ok and zero_ok and nonneg_ok,
            f"crafted 4-error report exact; 50 brute-force prefix cases exact; "
            f"1000 random inputs: AUSE >= 0 (min {min_ause:.2e}), AUSE == 0 when aligned")


# ---------------------------------------------------------------------------


def _tilted_planes(count, sep_deg):
    tilts = (np.arange(count) - (count - 1) / 2.0) * math.radians(sep_deg)
    return [np.array([math.sin(t), 0.0, math.cos(t)]) for t in tilts]


def _training_frames(seed, n_frames, width, height, n_planes, contamination):
    rng = RngState(seed, stream=1)
    return [
        make_frame(width, height, _tilted_planes(n_planes, 50.0), rng,
                   jitter_kappa=50.0, contamination=contamination)
        for _ in range(n_frames)
    ]


def _frame_eval(mlp, frame):
    x = frame.features.reshape(-1, frame.features.shape[-1])
    mu, kappa = forward(mlp, x)
    pred = NormalMap.from_vectors(mu.reshape(frame.gt.height, frame.gt.width, 3),
                                  valid=frame.gt.valid)
    err = angular_errors(pred, frame.gt)
    return err, kappa.reshape(frame.gt.height, frame.gt.width)


def _boundary_error(mlp, frames):
    chunks = []
    for f in frames:
        err, _ = _frame_eval(mlp, f)
        chunks.append(err[f.boundary_mask & f.gt.valid])
    return float(np.mean(np.concatenate(chunks)))


def test_criterion_9_trend_reproduction():
    t0 = time.perf_counter()
    # Part 1: beta_UG = 0.7 vs 0.0, identical seeds otherwise.  Short runs:
    # the uncertainty-guided advantage is a convergence-speed effect on the
    # rare boundary pixels, largest before either run saturates.
    pair_wins = []
    for pair in range(5):
        frames = _training_frames(1000 + pair, 4, 32, 32, 3, 0.2)
        errs = {}
        for beta in (0.7, 0.0):
            cfg = TrainConfig(epochs=25, learning_rate=1e-2, beta_ug=beta, seed=pair)
            mlp, _ = train(frames, cfg)
            errs[beta] = _boundary_error(mlp, frames)
        pair_wins.append(errs[0.7] < errs[0.0])
    wins = sum(pair_wins)

    # Part 2: uncertainty calibration needs a longer run (the kappa head
    # settles after the direction head) and a scene rich in boundary pixels.
    frames = _training_frames(1000, 4, 32, 32, 4, 0.35)
    mlp, _ = train(frames, TrainConfig(epochs=200, learning_rate=1e-2, beta_ug=0.7, seed=0))
    errs, uncs = [], []
    for f in _training_frames(5000, 2, 32, 32, 4, 0.35):  # held out
        err, kappa = _frame_eval(mlp, f)
        ok = f.gt.valid
        errs.append(err[ok])
        uncs.append(expected_angular_error(kappa[ok]))
    rho = float(spearmanr(np.concatenate(uncs), np.concatenate(errs)).statistic)
    dt = time.perf_counter() - t0
    verdict(9, wins >= 3 and rho > 0.2 and dt < 300.0,
            f"beta 0.7 beat 0.0 on boundary pixels in {wins}/5 pairs; held-out "
            f"Spearman(E[alpha], error) = {rho:.3f} ({dt:.0f}s)")


# ---------------------------------------------------------------------------


def _run_twice(argv_fn, outputs, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        paths = {k: str(tmp_path / f"{tag}_{v}") for k, v in outputs.items()}
        assert main(argv_fn(paths)) == 0
        blobs.append([open(p, "rb").read() for p in paths.values()])
    return blobs[0] == blobs[1]


def test_criterion_10_determinism_and_io(tmp_path):
    same = []
    same.append(_run_twice(
        lambda p: ["sample", "--dist", "angmf", "--mu", "1,2,2", "--kappa", "4",
                   "--n", "200", "--seed", "31", "--out-csv", p["csv"]],
        {"csv": "s.csv"}, tmp_path))
    same.append(_run_twice(
        lambda p: ["sample", "--dist", "vonmf", "--mu", "0,1,0", "--kappa", "9",
                   "--n", "200", "--seed", "32", "--out-csv", p["csv"]],
        {"csv": "v.csv"}, tmp_path))

    kpath = str(tmp_path / "k.skmp")
    gen = np.random.default_rng(3)
    write_kappa_map(KappaMap(gen.uniform(0.1, 50.0, size=(9, 9))), kpath)
    same.append(_run_twice(
        lambda p: ["select-pixels", "--kappa-map", kpath, "--seed", "33",
                   "--out-csv", p["csv"]],
        {"csv": "sel.csv"}, tmp_path))
    same.append(_run_twice(
        lambda p: ["simulate-boundary", "--trials", "10", "--samples", "200",
                   "--seed", "34", "--out-json", p["json"]],
        {"json": "sim.json"}, tmp_path))
    same.append(_run_twice(
        lambda p: ["refine-demo", "--width", "8", "--height", "8", "--planes", "1",
                   "--frames", "1", "--epochs", "2", "--seed", "35",
                   "--out-weights", p["w"], "--out-csv", p["csv"]],
        {"w": "w.rmlp", "csv": "c.csv"}, tmp_path))
    cli_ok = all(same)

    # 1000 random maps, both formats, write -> read -> write bit-exact
    io_ok = True
    npath, kpath2 = str(tmp_path / "rt.snmp"), str(tmp_path / "rt.skmp")
    for trial in range(1000):
        h, w = int(gen.integers(1, 7)), int(gen.integers(1, 7))
        vec = gen.normal(size=(h, w, 3))
        vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
        vec = vec.astype(np.float32).astype(np.float64)
        vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
        invalid = gen.uniform(size=(h, w)) < 0.2
        vec[invalid] = np.nan
        write_normal_map(NormalMap(vec), npath)
        first = open(npath, "rb").read()
        write_normal_map(read_normal_map(npath), npath)
        io_ok = io_ok and open(npath, "rb").read() == first

        kd = gen.uniform(0.0, 90.0, size=(h, w))
        kd[gen.uniform(size=(h, w)) < 0.2] = np.nan
        write_kappa_map(KappaMap(kd), kpath2)
        first = open(kpath2, "rb").read()
        write_kappa_map(read_kappa_map(kpath2), kpath2)
        io_ok = io_ok and open(kpath2, "rb").read() == first

    verdict(10, cli_ok and io_ok,
            f"5 seeded CLI commands byte-reproducible: {cli_ok}; 1000 random "
            f"SNMP1/SKMP1 round trips bit-exact: {io_ok}")
