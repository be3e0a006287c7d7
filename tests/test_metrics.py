import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angmf import (
    MetricsReport,
    NormalMap,
    SparsificationCurve,
    angular_errors,
    ausc,
    ause,
    oracle_curve,
    sparsification,
    summarize,
)
from angmf.errors import DomainError, EmptyInput, ShapeError
from angmf.metrics import _RANK_BLOCK, METRIC_NAMES, THRESHOLDS_DEG, _stable_ranking, valid_errors

SQRT750 = 27.386127875258305673


# ---------------------------------------------------------------- summarize


def test_summarize_crafted_four():
    r = summarize([10.0, 20.0, 30.0, 40.0])
    assert r.mean_deg == 25.0
    assert r.median_deg == 25.0  # midpoint of 20 and 30
    assert abs(r.rmse_deg - SQRT750) < 1e-12
    assert r.pct_below == {
        "pct_5": 0.0,
        "pct_7_5": 0.0,
        "pct_11_25": 25.0,
        "pct_22_5": 50.0,
        "pct_30": 50.0,  # strict <: the 30-degree sample does not count
    }


def test_summarize_single_zero():
    r = summarize([0.0])
    assert r.mean_deg == 0.0 and r.median_deg == 0.0 and r.rmse_deg == 0.0
    assert all(v == 100.0 for v in r.pct_below.values())


def test_thresholds_are_strict():
    for t in THRESHOLDS_DEG:
        key = "pct_" + str(t).replace(".0", "").replace(".", "_")
        r = summarize([t])
        assert r.pct_below[key] == 0.0


def test_summarize_permutation_invariant():
    gen = np.random.default_rng(0)
    e = gen.uniform(0.0, 60.0, size=31)
    a = summarize(e)
    b = summarize(e[gen.permutation(31)])
    assert a == b


def test_pct_monotone_in_threshold():
    gen = np.random.default_rng(1)
    r = summarize(gen.uniform(0.0, 45.0, size=200))
    vals = [r.pct_below[k] for k in ("pct_5", "pct_7_5", "pct_11_25", "pct_22_5", "pct_30")]
    assert vals == sorted(vals)


def test_summarize_json_dict_keys():
    r = summarize([1.0, 2.0])
    d = r.to_json_dict()
    assert set(d) == set(METRIC_NAMES)


def test_summarize_validation():
    with pytest.raises(EmptyInput):
        summarize([])
    with pytest.raises(DomainError):
        summarize([1.0, -0.5])
    with pytest.raises(DomainError):
        summarize([1.0, math.nan])


# ------------------------------------------------------------- angular errs


def test_angular_errors_basic():
    ez = [0.0, 0.0, 1.0]
    ex = [1.0, 0.0, 0.0]
    pred = NormalMap.from_vectors(np.array([[ez, ex]], dtype=float))
    gt = NormalMap.from_vectors(np.array([[ez, ez]], dtype=float))
    e = angular_errors(pred, gt)
    assert e.shape == (1, 2)
    assert e[0, 0] == 0.0
    assert abs(e[0, 1] - 90.0) < 1e-6


def test_angular_errors_invalid_is_nan():
    ez = [0.0, 0.0, 1.0]
    vecs = np.array([[ez, ez]], dtype=float)
    pred = NormalMap.from_vectors(vecs, valid=np.array([[True, False]]))
    gt = NormalMap.from_vectors(vecs)
    e = angular_errors(pred, gt)
    assert e[0, 0] == 0.0
    assert math.isnan(e[0, 1])
    assert valid_errors(e).tolist() == [0.0]


def test_angular_errors_shape_mismatch():
    ez = np.array([[[0.0, 0.0, 1.0]]])
    with pytest.raises(ShapeError):
        angular_errors(NormalMap.from_vectors(ez), NormalMap.from_vectors(np.tile(ez, (1, 2, 1))))


# ------------------------------------------------------------ curves / area


def test_sparsification_four_step_curve():
    e = np.array([1.0, 2.0, 3.0, 4.0])
    c = sparsification(e, e.copy())  # uncertainty perfectly ranks error
    assert np.array_equal(c.x_percent, np.arange(1, 101))
    want = np.repeat([1.0, 1.5, 2.0, 2.5], 25)
    assert np.allclose(c.values, want, atol=0.0)
    assert ausc(c) == 1.75


def test_oracle_equals_perfectly_ranked_sparsification():
    gen = np.random.default_rng(2)
    e = gen.uniform(0.0, 90.0, size=57)
    a = oracle_curve(e, metric="rmse")
    b = sparsification(e, e.copy(), metric="rmse")
    assert np.array_equal(a.values, b.values)


def test_curve_at_100_matches_summarize():
    gen = np.random.default_rng(3)
    e = gen.uniform(0.0, 50.0, size=83)
    u = gen.uniform(size=83)
    r = summarize(e)
    full = r.to_json_dict()
    for metric in METRIC_NAMES:
        v = sparsification(e, u, metric=metric).values[-1]
        if metric.startswith("pct_"):
            assert abs(v - (100.0 - full[metric])) < 1e-12
        else:
            assert abs(v - full[metric]) < 1e-12


def test_oracle_pointwise_below_estimated():
    gen = np.random.default_rng(4)
    for metric in METRIC_NAMES:
        e = gen.uniform(0.0, 60.0, size=120)
        u = gen.uniform(size=120)
        est = sparsification(e, u, metric=metric)
        orc = oracle_curve(e, metric=metric)
        assert np.all(orc.values <= est.values + 1e-12)


def test_oracle_prefix_is_best_subset():
    # exhaustive check on small inputs: no k-subset beats the sorted prefix
    gen = np.random.default_rng(5)
    e = np.round(gen.uniform(0.0, 40.0, size=7), 3)
    s = np.sort(e)
    for k in range(1, 8):
        prefix_mean = s[:k].mean()
        best = min(np.mean(c) for c in itertools.combinations(e, k))
        assert abs(prefix_mean - best) < 1e-12


def test_ausc_flat_and_linear():
    flat = SparsificationCurve(metric="mean", values=np.full(100, 7.25))
    assert ausc(flat) == 7.25
    linear = SparsificationCurve(metric="mean", values=np.arange(100, dtype=float))
    assert ausc(linear) == 49.5


def test_ausc_linear_errors():
    # errors 0..99 perfectly ranked: prefix mean at x percent is (x-1)/2
    e = np.arange(100, dtype=float)
    c = sparsification(e, e.copy())
    assert np.allclose(c.values, (np.arange(1, 101) - 1) / 2.0, atol=1e-12)
    assert abs(ausc(c) - 24.75) < 1e-12


def test_ause_zero_when_ranked():
    gen = np.random.default_rng(6)
    e = np.sort(gen.uniform(0.0, 30.0, size=64))
    u = np.arange(64, dtype=float)
    est = sparsification(e, u)
    orc = oracle_curve(e)
    assert ause(est, orc) == 0.0


def test_ause_nonnegative_random():
    gen = np.random.default_rng(7)
    for metric in ("mean", "rmse", "pct_11_25"):
        for _ in range(40):
            n = int(gen.integers(5, 60))
            e = gen.uniform(0.0, 45.0, size=n)
            u = gen.uniform(size=n)
            val = ause(sparsification(e, u, metric=metric), oracle_curve(e, metric=metric))
            assert val >= -1e-12


def test_ause_positive_when_misranked():
    e = np.array([1.0, 50.0, 2.0, 40.0])
    u = np.array([0.9, 0.1, 0.8, 0.2])  # confidently wrong
    assert ause(sparsification(e, u), oracle_curve(e)) > 0.0


def test_sparsification_tie_break_stable():
    e = np.array([5.0, 1.0, 9.0])
    u = np.zeros(3)  # fully tied: input order is the ranking
    c = sparsification(e, u)
    assert c.values[0] == 5.0
    assert c.values[-1] == 5.0


RANKING_INPUTS = {
    "all-equal": lambda gen, n: np.full(n, 0.25),
    "signed-zeros": lambda gen, n: np.where(gen.random(n) < 0.5, 0.0, -0.0),
    "zeros-and-ones": lambda gen, n: gen.choice([-0.0, 0.0, 1.0], n),
    "sorted": lambda gen, n: np.sort(gen.random(n)),
    "reverse-sorted": lambda gen, n: np.sort(gen.random(n))[::-1].copy(),
    "sorted-with-runs": lambda gen, n: np.sort(gen.integers(0, 7, n)).astype(float),
    "few-levels": lambda gen, n: gen.choice(gen.random(5), n),
    "distinct": lambda gen, n: gen.random(n),
    "mostly-distinct": lambda gen, n: np.round(gen.random(n), 4),
}


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 100_000])
@pytest.mark.parametrize("kind", sorted(RANKING_INPUTS))
def test_ranking_equals_stable_argsort(kind, n):
    u = RANKING_INPUTS[kind](np.random.default_rng(n), n)
    assert np.array_equal(_stable_ranking(u), np.argsort(u, kind="stable"))


def _low_bit_values(gen, n, base):
    """Distinct values around ``base`` that differ only in the bits the packed key gives to the index."""
    low = max(n - 1, 0).bit_length()
    return (base.view(np.int64) + gen.integers(0, 1 << low, n)).view(np.float64)


PACKED_INPUTS = {
    "low-bits-positive": lambda gen, n: _low_bit_values(gen, n, np.full(n, 1.0)),
    "low-bits-negative": lambda gen, n: _low_bit_values(gen, n, np.full(n, -0.75)),
    "low-bits-both-signs": lambda gen, n: _low_bit_values(gen, n, gen.choice([2.5, -2.5, 1e-300, -1e-300], n)),
    "low-bits-and-ties": lambda gen, n: gen.choice(_low_bit_values(gen, 4, np.full(4, 3.0)), n),
    "subnormals-and-zeros": lambda gen, n: gen.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308], n),
    "negative": lambda gen, n: -gen.random(n),
    "signed-mix": lambda gen, n: gen.choice([-3.0, -1.0, -0.0, 0.0, 1.0, 3.0, -1e308, 1e308], n),
}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 2**16 - 1, 2**16 + 1])
@pytest.mark.parametrize("kind", sorted(PACKED_INPUTS))
def test_packed_ranking_equals_stable_argsort(kind, n):
    # the packed key keeps 64 - bitlen(n - 1) bits of each value; these inputs tie
    # in those bits but differ below them, carry both signed zeros, or both signs
    u = PACKED_INPUTS[kind](np.random.default_rng(n), n)
    got = _stable_ranking(u)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(u, kind="stable"))


def test_curve_validation():
    e = np.ones(10)
    with pytest.raises(ShapeError):
        sparsification(e, np.ones(9))
    with pytest.raises(DomainError):
        sparsification(e, np.full(10, np.inf))
    with pytest.raises(DomainError):
        sparsification(e, np.ones(10), metric="mode")
    with pytest.raises(EmptyInput):
        oracle_curve([])
    with pytest.raises(DomainError):
        ause(
            sparsification(e, np.ones(10), metric="mean"),
            oracle_curve(e, metric="rmse"),
        )
    with pytest.raises(ShapeError):
        ause(SparsificationCurve(metric="mean", values=np.zeros(100)),
             SparsificationCurve(metric="mean", values=np.zeros(99)))


# ------------------------------------------- bit equality with np.median / np.mean


def _reference_curve(e_ranked, metric):
    """The per-prefix np.median / np.mean loop the curves must match bit for bit."""
    thresholds = dict(zip(METRIC_NAMES[3:], THRESHOLDS_DEG))
    n = e_ranked.size
    values = np.empty(100)
    for i, x in enumerate(range(1, 101)):
        p = e_ranked[:math.ceil(x * n / 100.0)]
        if metric == "mean":
            values[i] = float(np.mean(p))
        elif metric == "median":
            values[i] = float(np.median(p))
        elif metric == "rmse":
            values[i] = float(math.sqrt(np.mean(p * p)))
        else:
            values[i] = float(100.0 - 100.0 * np.mean(p < thresholds[metric]))
    return values


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    e_levels=st.integers(1, 400),
    u_levels=st.integers(1, 400),
)
def test_curves_bit_equal_per_prefix_reference(n, seed, e_levels, u_levels):
    # values drawn from few levels give many exact ties in both rankings;
    # the error levels include both zeros and the pct thresholds themselves
    gen = np.random.default_rng(seed)
    levels = np.concatenate([[0.0, -0.0], THRESHOLDS_DEG, gen.uniform(0.0, 180.0, e_levels)])
    e = gen.choice(levels, size=n)
    u = gen.choice(gen.uniform(0.0, 2.0, u_levels), size=n)
    by_unc = e[np.argsort(u, kind="stable")]
    by_err = e[np.argsort(e, kind="stable")]
    for metric in METRIC_NAMES:
        est = sparsification(e, u, metric=metric).values
        assert est.tobytes() == _reference_curve(by_unc, metric).tobytes(), metric
        orc = oracle_curve(e, metric=metric).values
        assert orc.tobytes() == _reference_curve(by_err, metric).tobytes(), metric


@pytest.mark.parametrize("n", [_RANK_BLOCK - 1, _RANK_BLOCK, _RANK_BLOCK + 1, 4 * _RANK_BLOCK + 3, 50_000])
def test_curves_bit_equal_per_prefix_reference_across_blocks(n):
    # the median curve's members span several blocks of ranks from these sizes on
    gen = np.random.default_rng(n)
    levels = np.concatenate([[0.0, -0.0], THRESHOLDS_DEG, gen.uniform(0.0, 180.0, n // 3)])
    e = gen.choice(levels, size=n)
    u = gen.choice(gen.uniform(0.0, 2.0, n // 5), size=n)
    by_unc = e[np.argsort(u, kind="stable")]
    by_err = e[np.argsort(e, kind="stable")]
    for metric in METRIC_NAMES:
        est = sparsification(e, u, metric=metric).values
        assert est.tobytes() == _reference_curve(by_unc, metric).tobytes(), metric
        orc = oracle_curve(e, metric=metric).values
        assert orc.tobytes() == _reference_curve(by_err, metric).tobytes(), metric
