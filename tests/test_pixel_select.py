import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angmf import PixelSelection, RngState, SelectionConfig, select_pixels
from angmf.errors import DomainError, ShapeError


def flat_case(n=100, seed=0):
    gen = np.random.default_rng(seed)
    unc = gen.uniform(0.0, 1.0, size=n)
    valid = np.ones(n, dtype=bool)
    return unc, valid


def test_default_split_counts():
    # 100 valid, r_s=0.4, beta=0.7: 40 selected, 28 importance, 12 coverage
    unc, valid = flat_case()
    sel = select_pixels(unc, valid, SelectionConfig(), RngState(1))
    assert sel.importance.size == 28
    assert sel.coverage.size == 12
    assert sel.all_indices.size == 40


def test_importance_is_exact_top_k():
    unc, valid = flat_case(seed=3)
    sel = select_pixels(unc, valid, SelectionConfig(), RngState(2))
    top = set(np.argsort(-unc, kind="stable")[:28].tolist())
    assert set(sel.importance.tolist()) == top
    # sorted ascending, disjoint from coverage
    assert np.all(np.diff(sel.importance) > 0)
    assert np.all(np.diff(sel.coverage) > 0)
    assert not set(sel.importance.tolist()) & set(sel.coverage.tolist())


def test_importance_threshold_invariant():
    # every selected uncertainty >= every unselected valid uncertainty
    unc, valid = flat_case(seed=4)
    sel = select_pixels(unc, valid, SelectionConfig(r_s=0.5, beta_ug=1.0), RngState(3))
    chosen = np.zeros(unc.size, dtype=bool)
    chosen[sel.importance] = True
    assert unc[chosen].min() >= unc[~chosen].max() - 1e-15


def test_beta_endpoints():
    unc, valid = flat_case()
    all_imp = select_pixels(unc, valid, SelectionConfig(0.4, 1.0), RngState(4))
    assert all_imp.importance.size == 40 and all_imp.coverage.size == 0
    all_cov = select_pixels(unc, valid, SelectionConfig(0.4, 0.0), RngState(4))
    assert all_cov.importance.size == 0 and all_cov.coverage.size == 40


def test_tie_break_ascending_index():
    unc = np.zeros(10)  # fully tied
    valid = np.ones(10, dtype=bool)
    sel = select_pixels(unc, valid, SelectionConfig(0.5, 1.0), RngState(5))
    assert sel.importance.tolist() == [0, 1, 2, 3, 4]


def test_rounding_half_up():
    # 5 valid at r_s=0.5 rounds 2.5 up to 3
    unc = np.arange(5.0)
    valid = np.ones(5, dtype=bool)
    sel = select_pixels(unc, valid, SelectionConfig(0.5, 0.0), RngState(6))
    assert sel.all_indices.size == 3


def test_grid_input_uses_flat_indices():
    gen = np.random.default_rng(7)
    unc = gen.uniform(size=(8, 5))
    valid = np.ones((8, 5), dtype=bool)
    sel = select_pixels(unc, valid, SelectionConfig(0.4, 0.7), RngState(7))
    flat_sel = select_pixels(unc.ravel(), valid.ravel(), SelectionConfig(0.4, 0.7), RngState(7))
    assert np.array_equal(sel.importance, flat_sel.importance)
    assert np.array_equal(sel.coverage, flat_sel.coverage)
    assert sel.all_indices.max() < 40


def test_invalid_pixels_excluded():
    unc, valid = flat_case()
    valid[::2] = False  # 50 valid
    unc[0] = np.nan  # invalid pixel may hold junk
    sel = select_pixels(unc, valid, SelectionConfig(0.4, 0.7), RngState(8))
    assert sel.all_indices.size == 20
    assert np.all(valid[sel.all_indices])


def test_determinism_and_seed_sensitivity():
    unc, valid = flat_case(seed=9)
    a = select_pixels(unc, valid, SelectionConfig(), RngState(10))
    b = select_pixels(unc, valid, SelectionConfig(), RngState(10))
    c = select_pixels(unc, valid, SelectionConfig(), RngState(11))
    assert np.array_equal(a.importance, b.importance)
    assert np.array_equal(a.coverage, b.coverage)
    assert np.array_equal(a.importance, c.importance)  # no rng on this path
    assert not np.array_equal(a.coverage, c.coverage)


def test_coverage_uniformity():
    # beta = 0 over 10 valid pixels choosing 5: inclusion probability is
    # 1/2 per pixel; 10000 seeds give sd = sqrt(10000 * .25) = 50
    unc = np.arange(10.0)
    valid = np.ones(10, dtype=bool)
    counts = np.zeros(10)
    for seed in range(10000):
        sel = select_pixels(unc, valid, SelectionConfig(0.5, 0.0), RngState(seed))
        counts[sel.coverage] += 1
    assert np.all(np.abs(counts - 5000) < 5 * 50.0)


class MaxUniform:
    """The largest double RngState.uniform can return, 1 - 2**-53, on every draw."""

    def uniform(self, n):
        return np.full(n, 1.0 - 2.0**-53)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 1000, 4097])
@pytest.mark.parametrize("r_s, beta_ug", [(1.0, 0.0), (0.4, 0.7), (0.5, 0.0), (1.0, 0.5)])
def test_coverage_stays_in_pool_at_largest_uniform(n, r_s, beta_ug):
    # every Fisher-Yates pick u * m rounds below the m pool slots left, so
    # each swap takes the last slot and no index can run past the pool
    unc = np.random.default_rng(n).uniform(size=n)
    valid = np.ones(n, dtype=bool)
    sel = select_pixels(unc, valid, SelectionConfig(r_s, beta_ug), MaxUniform())
    n_select = int(np.floor(r_s * n + 0.5))
    n_importance = int(np.floor(beta_ug * n_select))
    assert sel.importance.size == n_importance
    assert sel.coverage.size == n_select - n_importance
    pool = np.setdiff1d(np.arange(n), sel.importance)
    assert np.all(np.isin(sel.coverage, pool))
    k = sel.coverage.size
    expected = pool[:k - 1].tolist() + [pool[-1]] if k else []
    assert sel.coverage.tolist() == sorted(expected)


def test_zero_valid_zero_selected_ok():
    # r_s * 0 rounds to 0: legal, empty selection
    unc = np.arange(4.0)
    sel = select_pixels(unc, np.zeros(4, dtype=bool), SelectionConfig(0.9, 0.5), RngState(0))
    assert sel.all_indices.size == 0


def test_config_validation():
    with pytest.raises(DomainError):
        SelectionConfig(r_s=0.0)
    with pytest.raises(DomainError):
        SelectionConfig(r_s=1.2)
    with pytest.raises(DomainError):
        SelectionConfig(beta_ug=-0.1)
    with pytest.raises(DomainError):
        SelectionConfig(beta_ug=1.01)


def test_input_validation():
    with pytest.raises(ShapeError):
        select_pixels(np.zeros(5), np.ones(4, dtype=bool), SelectionConfig(), RngState(0))
    with pytest.raises(DomainError):
        select_pixels(np.array([1.0, np.inf]), np.ones(2, dtype=bool), SelectionConfig(), RngState(0))


# ------------------------------------------------ bit equality with the reference


def _reference_select(uncertainty, valid, config, rng):
    """Stable argsort of -uncertainty plus a Fisher-Yates of one scalar draw per step."""
    unc = np.asarray(uncertainty, dtype=np.float64).ravel()
    candidates = np.flatnonzero(np.asarray(valid, dtype=bool).ravel())
    n_select = int(np.floor(config.r_s * candidates.size + 0.5))
    n_importance = int(np.floor(config.beta_ug * n_select))
    order = np.argsort(-unc[candidates], kind="stable")
    importance = candidates[order[:n_importance]]
    pool = np.sort(candidates[order[n_importance:]])
    n_coverage = n_select - n_importance
    for i in range(n_coverage):
        m = pool.size - i
        j = i + min(int(rng.uniform() * m), m - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(importance), np.sort(pool[:n_coverage])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(1, 300),
    p_valid=st.floats(0.0, 1.0),
    r_s=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    rng_seed=st.integers(0, 2**64 - 1),
)
def test_selection_bit_equal_reference(n, seed, levels, p_valid, r_s, beta, rng_seed):
    gen = np.random.default_rng(seed)
    unc = gen.choice(gen.uniform(0.0, 90.0, levels), size=n)  # few levels: many ties
    valid = gen.uniform(size=n) < p_valid
    unc[~valid] = np.nan
    cfg = SelectionConfig(r_s=r_s, beta_ug=beta)
    rng, ref_rng = RngState(rng_seed), RngState(rng_seed)
    sel = select_pixels(unc, valid, cfg, rng)
    importance, coverage = _reference_select(unc, valid, cfg, ref_rng)
    assert sel.importance.dtype == importance.dtype
    assert np.array_equal(sel.importance, importance)
    assert sel.coverage.dtype == coverage.dtype
    assert np.array_equal(sel.coverage, coverage)
    assert rng.counter == ref_rng.counter



# ------------------------------------------- the coverage draw against the swap loop


def _swap_loop(pool, j):
    """The partial Fisher-Yates as a loop of swaps in place, one per step: the coverage draw's reference."""
    pool = pool.copy()
    for a, b in enumerate(j.tolist()):
        pool[a], pool[b] = pool[b], pool[a]
    return pool


class FixedTargets:
    """An RngState stand-in whose uniform block makes step i swap with pool slot ``targets[i]``."""

    def __init__(self, targets, pool_size):
        self.targets = np.asarray(targets, dtype=np.intp)
        self.pool_size = pool_size
        self.counter = 0

    def uniform(self, n):
        assert n == self.targets.size
        self.counter += n
        i = np.arange(n)
        return (self.targets - i + 0.5) / (self.pool_size - i)  # floor(u * m) = target - i


def _targets(pattern, i, size, gen):
    """Targets in [i, size) for steps ``i``: self-swaps, chains, repeats or uniform draws."""
    if pattern == "self":
        return i
    if pattern == "next":  # each step hands its value on to the next: one long chain
        return np.minimum(i + 1, size - 1)
    if pattern == "last":  # every step swaps with the same slot past the drawn ones
        return np.full_like(i, size - 1)
    if pattern == "middle":  # repeated targets that later steps reach as their own slot
        return np.maximum(i, size // 2)
    return i + (gen.random(i.size) * (size - i)).astype(np.intp)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 120),
    p_valid=st.sampled_from([0.6, 1.0]),
    share=st.floats(0.0, 1.0),
    beta=st.sampled_from([0.0, 0.5]),
    patterns=st.lists(st.sampled_from(["self", "next", "last", "middle", "uniform"]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_coverage_draw_equals_swap_loop(size, p_valid, share, beta, patterns, seed):
    # runs of steps that swap a slot with itself, repeat a target, or hand
    # values down long chains of earlier steps, one run per pattern
    gen = np.random.default_rng(seed)
    unc = gen.choice([0.5, 1.0, 2.0], size)
    valid = gen.random(size) < p_valid
    n_valid = int(valid.sum())
    n_select = min(n_valid, int(share * (n_valid + 1)))
    r_s = n_select / n_valid if n_select else 0.4 / max(n_valid, 1)  # rounds to n_select
    n_importance = int(np.floor(beta * n_select))
    k, pool_size = n_select - n_importance, n_valid - n_importance
    i = np.arange(k)
    runs = [_targets(p, i[r::len(patterns)], pool_size, gen) for r, p in enumerate(patterns)]
    targets = np.empty(k, dtype=np.intp)
    for r, t in enumerate(runs):
        targets[r::len(patterns)] = t
    rng = FixedTargets(targets, pool_size)
    sel = select_pixels(unc, valid, SelectionConfig(r_s=r_s, beta_ug=beta), rng)
    assert sel.importance.size == n_importance and rng.counter == k
    pool = np.setdiff1d(np.flatnonzero(valid), sel.importance)
    assert sel.coverage.dtype == pool.dtype
    assert np.array_equal(sel.coverage, np.sort(_swap_loop(pool, targets)[:k]))


@pytest.mark.parametrize("size", [1, 2, 3, 1000, 20_001])
def test_coverage_draw_real_rng_equals_swap_loop(size):
    # half the pixels drawn by the counter stream: long chains at the larger
    # sizes, and the counter moves by one per drawn pixel
    unc = np.zeros(size)
    valid = np.ones(size, dtype=bool)
    rng, ref = RngState(size), RngState(size)
    sel = select_pixels(unc, valid, SelectionConfig(0.5, 0.0), rng)
    k = (size + 1) // 2
    i = np.arange(k)
    j = i + (ref.uniform(k) * (size - i)).astype(np.intp)
    assert np.array_equal(sel.coverage, np.sort(_swap_loop(np.arange(size), j)[:k]))
    assert rng.counter == ref.counter == k
