import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angmf import (
    AngMFParams,
    RngState,
    fit_angmf_mle,
    mean_direction,
    sample_angmf,
    spherical_median,
)
from angmf.distributions import expected_angular_error
from angmf.errors import DegenerateResultant, DomainError, EmptyInput, ShapeError
from angmf.sphere import angle_between, log_map, normalize

from conftest import random_rotation, random_unit, reference_median

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def contaminated_cloud(seed, n=400, frac=0.2, kappa=20.0):
    """AngMF cloud around +z with a coherent off-axis contamination blob."""
    main = sample_angmf(AngMFParams(EZ, kappa), n - int(frac * n), RngState(seed, stream=1))
    off = sample_angmf(AngMFParams(normalize([1.0, 0.0, 0.2]), kappa), int(frac * n), RngState(seed, stream=2))
    return np.vstack([main, off])


# ---------------------------------------------------------- mean direction


def test_mean_direction_two_axes():
    m = mean_direction([EX, EY])
    assert np.allclose(m, [math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-15)


def test_mean_direction_single_sample():
    assert np.allclose(mean_direction([EZ]), EZ, atol=0.0)


def test_mean_direction_antipodal_raises():
    with pytest.raises(DegenerateResultant):
        mean_direction([EZ, -EZ])


def test_mean_direction_validation():
    with pytest.raises(EmptyInput):
        mean_direction(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        mean_direction(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        mean_direction(EZ)


def test_mean_direction_rotation_equivariant():
    gen = np.random.default_rng(0)
    s = random_unit(gen, 50)
    rot = random_rotation(gen)
    a = rot @ mean_direction(s)
    b = mean_direction(s @ rot.T)
    assert np.linalg.norm(a - b) < 1e-9


# --------------------------------------------------------- geodesic median


def test_median_all_identical():
    s = np.tile(normalize([1.0, 1.0, 0.2]), (7, 1))
    med, rep = spherical_median(s, full_output=True)
    assert angle_between(med, s[0]) < 1e-12
    assert rep.converged


def test_median_two_points_midpoint():
    # any point of the connecting arc minimizes; the solver starts at the
    # midpoint and the gradient vanishes there immediately
    a = normalize([1.0, 0.0, 1.0])
    b = normalize([-1.0, 0.0, 1.0])
    med, rep = spherical_median([a, b], full_output=True)
    assert rep.converged
    assert angle_between(med, EZ) < 1e-12


def test_median_majority_pins_sample_point():
    # 80 votes at A against 20 at B: subgradient optimality holds at A
    # (pull of 20 <= 80 resisting), while the mean is dragged 14 deg off
    s = np.vstack([np.tile(EZ, (80, 1)), np.tile(EX, (20, 1))])
    med, rep = spherical_median(s, full_output=True)
    assert rep.converged
    assert angle_between(med, EZ) < 1e-3
    assert math.degrees(angle_between(mean_direction(s), EZ)) > 5.0


def test_median_leaves_a_sample_point_start():
    # the mean is exactly the single sample at +z, where the pull of 2
    # (3 samples at +x, 1 at -x) beats its unit resistance, so the first
    # step is the sample-point step g / n, and the median ends on the triple
    b = [0.125, 0.0, math.sqrt(63 / 64)]
    s = np.array([EZ, b, b, b, [-0.375, 0.0, math.sqrt(55 / 64)]])
    assert np.array_equal(mean_direction(s), EZ)
    med, rep = spherical_median(s, full_output=True)
    assert rep.converged and rep.iterations > 1
    assert angle_between(med, np.array(b)) < 1e-9
    assert rep.mean_angle < rep.start_mean_angle


def test_median_symmetric_cross():
    # four samples at equal angles around +z: unique minimizer at +z
    tilt = 0.4
    s = np.array(
        [
            [math.sin(tilt), 0.0, math.cos(tilt)],
            [-math.sin(tilt), 0.0, math.cos(tilt)],
            [0.0, math.sin(tilt), math.cos(tilt)],
            [0.0, -math.sin(tilt), math.cos(tilt)],
        ]
    )
    med, rep = spherical_median(s, full_output=True)
    assert rep.converged
    assert angle_between(med, EZ) < 1e-8


def test_median_gradient_below_tol():
    s = contaminated_cloud(1)
    med, rep = spherical_median(s, tol=1e-8, full_output=True)
    assert rep.converged
    assert rep.grad_norm < 1e-8
    assert rep.iterations <= 10000
    assert np.array_equal(rep.direction, med)


def test_median_beats_probe_grid():
    # no probe direction may undercut the reported objective
    s = contaminated_cloud(2, n=150)
    med = spherical_median(s)
    f_med = float(np.sum(np.arccos(np.clip(s @ med, -1.0, 1.0))))
    gen = np.random.default_rng(3)
    probes = np.vstack([random_unit(gen, 4000), normalize(med + 1e-4 * gen.standard_normal((200, 3)))])
    f_probe = np.sum(np.arccos(np.clip(probes @ s.T, -1.0, 1.0)), axis=1)
    assert f_med <= float(f_probe.min()) + 1e-9


def test_median_robust_where_mean_is_not():
    # coherent 20% contamination: median stays near the main mode
    s = contaminated_cloud(4, n=500, frac=0.2, kappa=50.0)
    med = spherical_median(s)
    mean = mean_direction(s)
    err_med = math.degrees(angle_between(med, EZ))
    err_mean = math.degrees(angle_between(mean, EZ))
    assert err_med < err_mean
    assert err_med < 2.0


def test_median_rotation_equivariant():
    s = contaminated_cloud(5, n=200)
    gen = np.random.default_rng(6)
    rot = random_rotation(gen)
    a = rot @ spherical_median(s)
    b = spherical_median(s @ rot.T)
    assert angle_between(a, b) < 1e-6


def test_median_default_returns_direction_only():
    out = spherical_median(np.tile(EZ, (3, 1)))
    assert isinstance(out, np.ndarray) and out.shape == (3,)


def test_median_validation():
    with pytest.raises(EmptyInput):
        spherical_median(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        spherical_median(np.zeros((3, 4)))


# ------------------------------------------------------------------ stacks


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _report_bits(direction, rep):
    return (_bits(direction), rep.iterations, rep.converged, _bits(rep.grad_norm),
            _bits(rep.start_mean_angle), _bits(rep.mean_angle))


def _cancelling_rows(gen, n):
    """n >= 2 unit rows summing to ~0: 120-degree triples about random axes, then v, -v pairs."""
    pairs = (0, 2, 1)[n % 3]
    rows = []
    for _ in range((n - 2 * pairs) // 3):
        a = random_unit(gen)
        b = normalize(np.cross(np.cross(a, random_unit(gen)), a))
        rows += [a, -0.5 * a + math.sqrt(0.75) * b, -0.5 * a - math.sqrt(0.75) * b]
    for _ in range(pairs):
        v = random_unit(gen)
        rows += [v, -v]
    return np.array(rows)


def _median_set(seed, n, kind):
    """An AngMF cloud with kappa log-uniform in [0.5, 1e7], reshaped by ``kind``: a coincident
    block, antipodal pairs, or (for n >= 2) rows that cancel out exactly."""
    gen = np.random.default_rng(seed)
    kappa = float(np.exp(gen.uniform(math.log(0.5), math.log(1e7))))
    s = sample_angmf(AngMFParams(random_unit(gen), kappa), n, RngState(seed))
    m = int(gen.integers(1, n + 1))
    if kind == "coincident":
        s[:m] = s[0]
    elif kind == "antipodal":
        s[1:m:2] = -s[0:m - 1:2]
    elif kind == "cancel" and n > 1:
        s = _cancelling_rows(gen, n)
    return s


@st.composite
def median_stacks(draw):
    """(T, N, 3) stacks whose sets take very different iteration counts and branches."""
    n_sets, n = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    kinds = st.sampled_from(["cloud", "coincident", "antipodal", "cancel"])
    return np.stack([_median_set(draw(st.integers(0, 2**32 - 1)), n, draw(kinds)) for _ in range(n_sets)])


@settings(max_examples=40, deadline=None)
@given(stack=median_stacks())
@example(stack=np.tile(EZ, (1, 3, 1)))
# line-search halvings, a stall, a coincident start and a 302-iteration run, in one stack
@example(stack=np.stack([_median_set(1, 120, "cancel"), _median_set(4, 120, "cloud"),
                         _median_set(0, 120, "coincident"), _median_set(46, 120, "cancel")]))
@example(stack=np.stack([np.tile(EZ, (3, 1)), [EZ, -EZ, EX], [EX, -EX, EY], normalize([[1.0, 0, 1], [-1, 0, 1], EY])]))
@example(stack=np.array([[EZ], [-EX]]))
def test_median_stack_matches_the_per_set_loop(stack):
    # every set of a stack gets the bits, iteration count and flags the
    # per-set loop gives it, whatever the other sets do
    direction, rep = spherical_median(stack, full_output=True)
    assert direction.shape == (len(stack), 3)
    for t, s in enumerate(stack):
        want = _report_bits(*reference_median(s, full_output=True))
        got = (_bits(direction[t]), rep.iterations[t], rep.converged[t], _bits(rep.grad_norm[t]),
               _bits(rep.start_mean_angle[t]), _bits(rep.mean_angle[t]))
        assert got == want
        assert _report_bits(*spherical_median(s, full_output=True)) == want


def test_median_stack_single_set_report_holds_python_scalars():
    _, rep = spherical_median(contaminated_cloud(7, n=100), full_output=True)
    assert type(rep.iterations) is int and type(rep.converged) is bool
    assert all(type(x) is float for x in (rep.grad_norm, rep.start_mean_angle, rep.mean_angle))


def test_mean_direction_stack_matches_each_set():
    stack = np.stack([contaminated_cloud(seed, n=60) for seed in range(4)])
    assert np.array_equal(mean_direction(stack), [mean_direction(s) for s in stack])
    with pytest.raises(DegenerateResultant, match="in set 1$"):
        mean_direction(np.array([[EZ, EX], [EZ, -EZ]]))


def test_stack_validation():
    with pytest.raises(EmptyInput):
        spherical_median(np.zeros((2, 0, 3)))
    with pytest.raises(ShapeError):
        mean_direction(np.zeros((2, 2, 2, 3)))
    with pytest.raises(ShapeError):
        fit_angmf_mle(np.tile(EZ, (2, 3, 1)))


@pytest.mark.parametrize("estimator", [mean_direction, spherical_median, fit_angmf_mle])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape, message, index", [((5, 3), "sample 3 is not finite", 3),
                                                   ((2, 5, 3), "sample 3 of set 1 is not finite", 8)])
def test_non_finite_sample_is_a_domain_error(estimator, value, shape, message, index):
    # these were "zero vector has no direction", or nan after a warning
    s = np.tile(EZ, shape[:-1] + (1,))
    rows = s.reshape(-1, 3)
    rows[index, 1] = value
    rows[index + 1, 0] = value  # a later bad row must not be the one named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{message}$") as ei:
            estimator(s)
    assert ei.value.index == index


# ----------------------------------------------------------------- MLE fit


def _check_first_order(samples, report, tol):
    """Recompute the gradients at the reported optimum from scratch."""
    s = np.asarray(samples, dtype=np.float64)
    mu, kappa = report.params.mu, report.params.kappa
    t = np.clip(s @ mu, -1.0, 1.0)
    alpha = np.arccos(t)
    g_kappa = float(np.mean(alpha)) - expected_angular_error(kappa)
    u = log_map(mu, s)[1]
    g_mu = (-kappa / s.shape[0]) * u.sum(axis=0)
    g_mu = g_mu - np.dot(g_mu, mu) * mu
    assert float(np.linalg.norm(g_mu)) < tol
    # softplus slope at the fitted kappa, for the boundary branch
    sig = -math.expm1(-kappa)
    assert abs(g_kappa) < tol or (g_kappa > 0.0 and abs(g_kappa * sig) < tol)


def test_mle_recovers_parameters():
    mu_true = normalize([0.3, -0.5, 0.81])
    for seed in (1234, 1235, 1236):
        s = sample_angmf(AngMFParams(mu_true, 5.0), 5000, RngState(seed))
        rep = fit_angmf_mle(s)
        assert rep.converged
        assert math.degrees(angle_between(rep.params.mu, mu_true)) < 1.0
        assert abs(rep.params.kappa - 5.0) / 5.0 < 0.1
        _check_first_order(s, rep, 1e-8)


def test_mle_history_never_increases():
    s = sample_angmf(AngMFParams(EZ, 2.0), 800, RngState(77))
    rep = fit_angmf_mle(s)
    assert rep.converged
    h = rep.nll_history
    assert h.ndim == 1 and h.size >= 2
    assert np.all(np.diff(h) <= 0.0)
    assert h[-1] == rep.final_nll


def test_mle_converged_implies_small_gradient():
    # the report invariant, across a spread of concentrations
    for kappa, seed in ((0.5, 11), (2.0, 12), (20.0, 13)):
        s = sample_angmf(AngMFParams(normalize([1.0, 1.0, 1.0]), kappa), 3000, RngState(seed))
        rep = fit_angmf_mle(s, tol=1e-8)
        assert rep.converged
        _check_first_order(s, rep, 1e-8)


def test_mle_identical_samples_diverges():
    s = np.tile(EZ, (50, 1))
    rep = fit_angmf_mle(s)
    assert not rep.converged
    assert rep.params.kappa == 1e6


def test_mle_uniform_goes_to_boundary():
    s = sample_angmf(AngMFParams(EZ, 0.0), 10000, RngState(5))
    rep = fit_angmf_mle(s)
    assert rep.converged
    assert rep.params.kappa < 0.05
    _check_first_order(s, rep, 1e-8)


def test_mle_kappa_beats_grid_scan():
    # 1-d oracle: at the fitted mu, no kappa on a fine grid does better
    s = sample_angmf(AngMFParams(EZ, 3.0), 4000, RngState(21))
    rep = fit_angmf_mle(s)
    assert rep.converged
    mu = rep.params.mu
    mean_alpha = float(np.mean(np.arccos(np.clip(s @ mu, -1.0, 1.0))))

    def nll(k):
        return -math.log1p(k * k) + math.log1p(math.exp(-math.pi * k)) + k * mean_alpha

    grid = np.linspace(0.0, 20.0, 20001)
    best = min(nll(float(k)) for k in grid)
    assert nll(rep.params.kappa) <= best + 1e-9


def test_mle_report_fields():
    s = sample_angmf(AngMFParams(EZ, 4.0), 300, RngState(9))
    rep = fit_angmf_mle(s)
    assert isinstance(rep.params, AngMFParams)
    assert rep.iterations >= 1
    assert math.isfinite(rep.final_nll)
    assert rep.nll_history[0] >= rep.final_nll


def test_mle_direction_is_the_median():
    # the nll is linear in the angles, so no descent may move mu off the
    # median, and AngMFParams keeps an already-unit mu bit for bit
    for kappa, seed in itertools.product((0.7, 6.0, 300.0), range(31, 35)):
        s = normalize(sample_angmf(AngMFParams(EX, kappa), 2000, RngState(seed)))
        rep = fit_angmf_mle(s)
        med, med_rep = spherical_median(s, full_output=True)
        assert np.array_equal(rep.params.mu, med)
        assert rep.iterations > med_rep.iterations


def test_mle_octahedron_sits_on_kappa_zero_boundary():
    # mean angle exactly pi/2 at the median: the nll is flat in mu and
    # increasing in kappa, so kappa = 0 exactly and no root is bisected
    s = np.vstack([np.eye(3), -np.eye(3)])
    rep = fit_angmf_mle(s)
    _, med_rep = spherical_median(s, full_output=True)
    assert rep.converged
    assert rep.params.kappa == 0.0
    assert rep.iterations == med_rep.iterations
    assert rep.final_nll == math.log(2.0)


def test_median_and_mle_converge_on_seeded_sweep():
    # 60 draws, kappa log-uniform in [0.5, 1e3], normalized as the CLI does;
    # acos-based angles lose half their digits at high kappa and stalled
    # a third of these medians above tol
    gen = np.random.default_rng(2021)
    failures = []
    for i in range(60):
        kappa = float(np.exp(gen.uniform(math.log(0.5), math.log(1e3))))
        n = (1000, 10000, 100000)[i % 3]
        mu = normalize(gen.standard_normal(3))
        s = normalize(sample_angmf(AngMFParams(mu, kappa), n, RngState(i + 1)))
        med, med_rep = spherical_median(s, full_output=True)
        rep = fit_angmf_mle(s)
        if not (med_rep.converged and rep.converged and np.all(np.diff(rep.nll_history) <= 0.0)):
            failures.append((i, kappa, n, med_rep.iterations, rep.iterations))
    assert failures == []


def test_mle_validation():
    with pytest.raises(EmptyInput):
        fit_angmf_mle(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        fit_angmf_mle(np.zeros((5, 2)))
