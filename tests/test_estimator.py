"""Pointwise solver: closed forms, limits, equivariance, influence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_partial_dataset
from fmest import estimator
from fmest.data import DataFormatError, Grid, PartialCurve, matrix_dataset
from fmest.estimator import (
    MAX_ITER,
    TOL_ROOT,
    NumericalError,
    _RootProblem,
    _Workspace,
    _flat_fixup,
    STATUS_INTERPOLATED,
    STATUS_SOLVED,
    STATUS_UNDEFINED,
    fit,
    fit_marginal,
    influence_function,
    interpolate_rows,
    interpolate_undefined,
    mad_cutoffs,
    mad_profile,
    solve_locations,
)
from fmest.losses import LossSpec, ScaledHuber, huber, psi, quantile, smoothed_quantile, square
from fmest.sampling import generate_masks, random_interval
from fmest.simulation import generate_curves, model_preset


def masked_mean(values, mask):
    v = np.where(mask, values, 0.0)
    return v.sum(axis=0) / mask.sum(axis=0)


def masked_median(values, mask):
    out = np.empty(values.shape[1])
    for j in range(values.shape[1]):
        out[j] = np.median(values[mask[:, j], j])
    return out


def test_square_is_weighted_mean(rng):
    values = rng.normal(size=(30, 20)) * 3
    mask = rng.random((30, 20)) < 0.7
    mask[0] = True
    theta = solve_locations(values, mask, square())
    np.testing.assert_allclose(theta, masked_mean(values, mask), atol=1e-13)


def test_huber_limits(rng):
    values = rng.normal(size=(25, 15)) * 2 + 1
    mask = rng.random((25, 15)) < 0.8
    mask[0] = True
    spread = values.max() - values.min()
    big = solve_locations(values, mask, huber(10 * spread))
    np.testing.assert_allclose(big, masked_mean(values, mask), atol=1e-8)
    tiny = solve_locations(values, mask, huber(1e-6))
    np.testing.assert_allclose(tiny, masked_median(values, mask), atol=1e-4)


def test_quantile_median_is_exact(rng):
    values = rng.normal(size=(21, 10))
    mask = rng.random((21, 10)) < 0.75
    mask[0] = True
    theta = solve_locations(values, mask, quantile(0.5))
    np.testing.assert_array_equal(theta, masked_median(values, mask))


def test_quantile_exact_split_midpoint():
    x = np.array([1.0, 2.0, 7.0, 100.0])[:, None]
    m = np.ones((4, 1), dtype=bool)
    assert solve_locations(x, m, quantile(0.5))[0] == 4.5
    # tau*m = 1 exactly -> midpoint of 1st and 2nd order statistics
    assert solve_locations(x, m, quantile(0.25))[0] == 1.5


def test_quantile_lower_convention():
    x = np.array([1.0, 2.0, 100.0])[:, None]
    m = np.ones((3, 1), dtype=bool)
    # tau*m = 0.75, not integral -> ceil picks the first order statistic
    assert solve_locations(x, m, quantile(0.25))[0] == 1.0


def test_flat_interval_midpoint():
    # residuals all leave the kink window: the psi-sum root is an interval
    # [10 - c, 0 + c] whose midpoint the solver must return
    x = np.array([0.0, 0.0, 10.0])[:, None]
    m = np.ones((3, 1), dtype=bool)
    assert solve_locations(x, m, huber(0.8))[0] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="a root on the edge of a flat huber interval skips "
                                       "the midpoint fix-up (ROADMAP item 2)")
@pytest.mark.parametrize("x, theta0, midpoint", [
    # cold start: the psi-sum is 0 on [2.1, 2.5] and the iteration stops at 2.5
    ([0.1, 3.5, 1.1, 5.9], None, 2.3),
    # warm start on the edge: at theta0 = 1 the residual -1 sits on the kink
    ([0.0, 10.0], np.array([1.0]), 5.0),
], ids=["cold-start", "warm-start"])
def test_flat_interval_edge_root_gets_midpoint(x, theta0, midpoint):
    x = np.array(x)[:, None]
    m = np.ones_like(x, dtype=bool)
    assert solve_locations(x, m, huber(1.0), theta0=theta0)[0] == pytest.approx(midpoint, abs=1e-12)


def test_solver_drives_psi_sum_to_zero(rng):
    values = rng.standard_cauchy(size=(6, 40, 25))
    mask = rng.random((6, 40, 25)) < 0.7
    mask[:, 0, :] = True
    for loss in (huber(1.3), smoothed_quantile(0.3, 0.05)):
        theta = solve_locations(values, mask, loss)
        scores = psi(loss, np.where(mask, values, 0.0) - theta[:, None, :])
        resid = np.abs((scores * mask).sum(axis=1))
        assert resid.max() < 1e-9


def test_batched_equals_loop(rng):
    values = rng.normal(size=(5, 12, 8))
    mask = rng.random((5, 12, 8)) < 0.8
    mask[:, 0, :] = True
    for loss in (square(), huber(0.9), quantile(0.3), smoothed_quantile(0.5, 0.1)):
        whole = solve_locations(values, mask, loss)
        rows = np.stack([solve_locations(values[i], mask[i], loss) for i in range(5)])
        np.testing.assert_allclose(whole, rows, atol=1e-12)


def test_per_replicate_cutoffs_equal_separate_solves(rng):
    """One solve with (B, J) cutoffs is B solves with (J,) profiles, bit for bit."""
    B, n, J = 6, 30, 12
    values = rng.standard_t(2, size=(B, n, J))
    mask = rng.random((B, n, J)) < 0.75
    mask[:, 0, :] = True
    mask[1, :, 3] = False  # an unobserved column in one replicate
    cutoffs = rng.uniform(1e-6, 2.0, size=(B, J))
    cutoffs[2, :5] = 1e-6  # tiny cutoffs leave flat root intervals to center
    for theta0 in (None, np.median(values[0], axis=0) + 0.3):
        whole = solve_locations(values, mask, huber(cutoffs), theta0=theta0)
        rows = np.stack([solve_locations(values[b], mask[b], huber(cutoffs[b]),
                                         theta0=theta0) for b in range(B)])
        np.testing.assert_array_equal(whole, rows)
    with pytest.raises(DataFormatError, match="does not broadcast"):
        solve_locations(values, mask, huber(cutoffs[:, :-1]))
    with pytest.raises(DataFormatError, match="does not broadcast"):
        solve_locations(values[0], mask[0], huber(cutoffs))


def test_workspace_changes_no_result_and_no_input(rng):
    """One workspace reused by every solve gives the per-call results, and no
    solve writes the caller's values or mask, with or without it."""
    B, n, J = 3, 15, 7
    values = rng.standard_t(2, size=(B, n, J))
    mask = rng.random((B, n, J)) < 0.7
    mask[:, 0, :] = True
    values[~mask] = np.nan
    before = values.copy(), mask.copy()
    work = _Workspace.empty(values.shape)
    got = mad_cutoffs(values, mask, 3.0, work=work)
    np.testing.assert_array_equal(got, mad_cutoffs(values, mask, 3.0))
    for loss in (huber(got), huber(1e-6), smoothed_quantile(0.3, 0.1),
                 quantile(0.5), square()):
        theta0 = np.nanmedian(values[0], axis=0) + 0.2
        np.testing.assert_array_equal(solve_locations(values, mask, loss, theta0, work=work),
                                      solve_locations(values, mask, loss, theta0))
    np.testing.assert_array_equal(values, before[0])
    np.testing.assert_array_equal(mask, before[1])


def _flat_fixup_loop(theta, values, mask, flat, c):
    """Column-by-column reference for the vectorized flat-root centering."""
    c = np.broadcast_to(c, theta.shape)
    for idx in np.argwhere(flat):
        key = tuple(idx)
        lead, j = key[:-1], key[-1]
        col_mask = mask[(*lead, slice(None), j)]
        x = values[(*lead, slice(None), j)][col_mask]
        w = c[key]
        bps = np.concatenate([x - w, x + w])
        t0 = theta[key]
        below = bps[bps <= t0]
        above = bps[bps >= t0]
        if below.size and above.size:
            theta[key] = 0.5 * (np.max(below) + np.min(above))
    return theta


@pytest.mark.parametrize("lead", [(), (4,)])
def test_flat_fixup_equals_column_loop(rng, lead):
    """The vectorized fix-up reproduces the column loop bit for bit."""
    n, J = 9, 14
    shape = (*lead, n, J)
    # few distinct levels, so most columns carry ties
    values = rng.integers(-2, 3, size=shape) * 0.75
    values += rng.normal(size=shape) * (rng.random(shape) < 0.3)
    mask = rng.random(shape) < 0.6
    mask[..., 0] = False
    mask[..., 0, 0] = True  # a single observed curve
    mask[..., 1] = False
    mask[..., :2, 1] = True  # two distinct curves
    values[..., :2, 1] = [-0.25, 1.5]
    values[..., 2] = 0.7  # all tied
    mask[..., 3] = False  # unobserved, never flagged
    mask[..., 6] = True
    values = np.where(mask, values, np.nan)
    observed = mask.any(axis=-2)
    theta = rng.uniform(-1.5, 1.5, size=observed.shape)
    theta[..., 4] = -50.0  # below every breakpoint: no lower side
    theta[..., 5] = 50.0  # above every breakpoint: no upper side
    flat = observed & (rng.random(observed.shape) < 0.8)
    flat[..., :7] = observed[..., :7]
    cutoffs = [0.4, rng.uniform(1e-6, 1.0, size=J)]
    if lead:
        cutoffs.append(rng.uniform(1e-6, 1.0, size=(*lead, J)))
    for c in cutoffs:
        start = theta.copy()
        start[..., 6] = values[..., 0, 6] + np.broadcast_to(c, theta.shape)[..., 6]  # on a breakpoint
        got = _flat_fixup(start.copy(), values, mask, flat, c)
        want = _flat_fixup_loop(start.copy(), values, mask, flat, c)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[..., 4:7], start[..., 4:7])
        assert not np.array_equal(got, start)


def _full_width_solve(values, mask, loss, theta0=None):
    """Reference for the kinked-loss root solve: every step scores every
    column and keeps the converged ones with np.where."""
    n_eff = mask.sum(axis=-2)
    active = n_eff > 0
    c = loss.h if loss.kind == "squantile" else loss.c
    lo = np.where(active, np.min(values, axis=-2, where=mask, initial=np.inf), 0.0)
    hi = np.where(active, np.max(values, axis=-2, where=mask, initial=-np.inf), 0.0)
    if loss.kind == "squantile":
        lo, hi = lo - loss.h, hi + loss.h
    problem = _RootProblem(values, mask, loss, c, _Workspace.empty(values.shape))
    tol_vec = TOL_ROOT * np.maximum(n_eff, 1)
    if theta0 is None:
        theta = 0.5 * (lo + hi)
    else:
        theta = np.clip(np.broadcast_to(theta0, lo.shape), lo, hi)
        theta = np.where(np.isfinite(theta), theta, 0.5 * (lo + hi))
    g, s = problem.score(theta)
    conv = ~active | (np.abs(g) <= tol_vec)
    eps = np.finfo(float).eps
    for it in range(MAX_ITER):
        if conv.all():
            break
        pos = g >= 0
        lo = np.where(conv, lo, np.where(pos, theta, lo))
        hi = np.where(conv, hi, np.where(pos, hi, theta))
        mid = 0.5 * (lo + hi)
        if it % 4 == 3:
            cand = mid
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = theta + g / s
            ok = (s > 0) & np.isfinite(newton) & (newton > lo) & (newton < hi)
            cand = np.where(ok, newton, mid)
        theta = np.where(conv, theta, cand)
        g_new, s_new = problem.score(theta)
        g = np.where(conv, g, g_new)
        s = np.where(conv, s, s_new)
        conv |= np.abs(g) <= tol_vec
        conv |= (hi - lo) <= 8 * eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    flat = active & (s == 0)
    if np.any(flat):
        theta = _flat_fixup(theta, values, mask, flat, c)
    return np.where(active, theta, np.nan)


@pytest.fixture
def restrict_widths(monkeypatch):
    """Column counts of every restricted problem the solver builds."""
    widths = []
    restrict = _RootProblem.restrict

    def spy(self, cols):
        widths.append(cols.size)
        return restrict(self, cols)

    monkeypatch.setattr(_RootProblem, "restrict", spy)
    return widths


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_solve_equals_full_width_loop(rng, lead, restrict_widths):
    """Scoring only the unconverged columns changes no result bit."""
    n, J = 50, 64
    shape = (*lead, n, J)
    values = rng.standard_t(2, size=shape)
    mask = rng.random(shape) < 0.7
    mask[..., 3] = False  # unobserved
    mask[..., :2, 5] = True  # observed by at most a few curves
    mask[..., 2:, 5] = False
    values[~mask] = np.nan
    losses = (huber(0.7), huber(1e-6), huber(rng.uniform(1e-6, 2.0, size=(*lead, J))),
              smoothed_quantile(0.3, 0.1))
    warm = rng.normal(scale=0.5, size=J)
    warm[7] = np.nan  # falls back to the bracket midpoint
    for loss in losses:
        for theta0 in (None, warm):
            np.testing.assert_array_equal(solve_locations(values, mask, loss, theta0),
                                          _full_width_solve(values, mask, loss, theta0))
    assert restrict_widths  # the restricted problem was scored


def test_last_unconverged_column_equals_full_width_loop(rng, restrict_widths):
    """A batch whose last unconverged column is scored on its own."""
    B, n, J = 3, 40, 30
    values = np.repeat(rng.normal(size=(B, 1, J)), n, axis=1)  # tied: solved at the start
    values[1, :, 4] += rng.standard_cauchy(n)
    mask = np.ones((B, n, J), dtype=bool)
    mask[2, :, 9] = False
    values[~mask] = np.nan
    np.testing.assert_array_equal(solve_locations(values, mask, huber(0.5)),
                                  _full_width_solve(values, mask, huber(0.5)))
    assert restrict_widths == [1]


@pytest.mark.parametrize("loss", [huber(np.linspace(0.2, 2.0, 6 * 50).reshape(6, 50)),
                                  smoothed_quantile(0.3, 0.2)], ids=["huber", "squantile"])
def test_restricted_scores_equal_full_width(rng, loss):
    """A problem restricted to 1, 2 or many columns scores them bit for bit
    as the full-width problem does."""
    B, n, J = 6, 60, 50
    values = rng.standard_t(3, size=(B, n, J))
    mask = rng.random((B, n, J)) < 0.8
    values[~mask] = np.nan
    c = loss.h if loss.kind == "squantile" else loss.c
    problem = _RootProblem(values, mask, loss, c, _Workspace.empty(values.shape))
    theta = rng.normal(size=(B, J)).reshape(-1)
    g, s = (a.reshape(-1) for a in problem.score(theta.reshape(B, J)))
    picks = [[int(j)] for j in rng.choice(B * J, 20, replace=False)]
    picks += [[3, 250], rng.choice(B * J, 80, replace=False)]
    for cols in map(np.asarray, picks):
        sub = problem.restrict(cols)
        g_sub, s_sub = sub.score(theta[sub.cols])
        np.testing.assert_array_equal(g_sub[:cols.size], g[cols])
        np.testing.assert_array_equal(s_sub[:cols.size], s[cols])


def _clip_and_compare_score(values, mask, loss, c, theta):
    """Reference score: psi = clip(z) in a buffer of its own, the slope
    indicator psi == z, and the psi-sum against a float mask."""
    maskf = mask.astype(float)
    z = np.where(mask, values, 0.0) - theta[..., None, :]
    if loss.kind == "huber":
        cb = c[..., None, :] if np.ndim(c) > 1 else c
        p = np.maximum(np.minimum(z, cb), -cb)
        inv = 1.0
    else:
        inv = 1.0 / (2.0 * loss.h)
        z = z * inv + (loss.tau - 0.5)
        p = np.clip(z, loss.tau - 1.0, loss.tau)
    g = np.einsum("...nj,...nj->...j", p, maskf)
    s = ((p == z) & mask).sum(axis=-2, dtype=float) * inv
    return g, s, z


@pytest.mark.parametrize("loss", [
    huber(0.5), huber(np.tile([0.25, 0.5, 0.75], 40).reshape(4, 30)),
    smoothed_quantile(0.25, 0.25)], ids=["huber", "huber-per-fit", "squantile"])
def test_score_equals_clip_and_compare_reference(rng, loss):
    """The in-place clip with its slope indicator taken before the clip
    scores bit for bit as clip-and-compare does, with residuals exactly on
    the breakpoints, also in a restricted problem."""
    B, n, J = 4, 50, 30
    values = rng.integers(-8, 9, size=(B, n, J)) * 0.25  # residuals on a 0.25 lattice
    mask = rng.random((B, n, J)) < 0.8
    values[~mask] = np.nan
    theta = rng.integers(-4, 5, size=(B, J)) * 0.25
    c = loss.h if loss.kind == "squantile" else loss.c
    g_ref, s_ref, z = _clip_and_compare_score(values, mask, loss, c, theta)
    if loss.kind == "squantile":
        lo, hi = loss.tau - 1.0, loss.tau
    else:
        hi = np.broadcast_to(c, (B, J))[:, None, :]
        lo = -hi
    assert (mask & (z == lo)).any() and (mask & (z == hi)).any()  # the kinks are hit exactly
    problem = _RootProblem(values, mask, loss, c, _Workspace.empty(values.shape))
    g, s = problem.score(theta)
    np.testing.assert_array_equal(g, g_ref)
    np.testing.assert_array_equal(s, s_ref)
    cols = rng.choice(B * J, 40, replace=False)
    sub = problem.restrict(cols)
    assert sub.mask.flags.c_contiguous
    g_sub, s_sub = sub.score(theta.reshape(-1)[sub.cols])
    np.testing.assert_array_equal(g_sub, g_ref.reshape(-1)[cols])
    np.testing.assert_array_equal(s_sub, s_ref.reshape(-1)[cols])


@pytest.mark.parametrize("shape", [(2, 300, 5), (70_000, 1)], ids=["n300", "n70000"])
def test_score_slope_counts_past_small_integer_widths(rng, shape):
    """The slope is the float count of observed residuals on psi's linear
    piece, also where it exceeds 255 (uint8) and 65,535 (uint16)."""
    values = rng.uniform(-1.0, 1.0, size=shape)
    mask = rng.random(shape) < 0.97
    problem = _RootProblem(values, mask, huber(1.0), 1.0, _Workspace.empty(shape))
    _, s = problem.score(np.zeros(shape[:-2] + shape[-1:]))
    assert s.dtype == float
    np.testing.assert_array_equal(s, mask.sum(axis=-2, dtype=float))
    assert s.max() > (255 if shape[-2] == 300 else 65_535)


def test_workspace_holds_18_bytes_per_value():
    """The solver's scratch is v0 and r (float) and two boolean indicators."""
    shape = (3, 5, 7)
    work = _Workspace.empty(shape)
    assert sum(a.nbytes for a in vars(work).values()) == 18 * np.prod(shape)
    assert sum(a.nbytes for a in vars(work[:2]).values()) == 18 * 2 * 5 * 7


def test_solve_in_workspace_values_equals_copying_path(rng, restrict_widths):
    """Values gathered zero-filled into ``work.v0`` and passed as that very
    buffer solve bit for bit as a copy of them does, and neither the buffer
    nor the mask is written.  The drivers' tests cover the same path split
    across threads."""
    B, n, J = 6, 40, 30
    values = rng.standard_t(2, size=(B, n, J))
    mask = rng.random((B, n, J)) < 0.7
    mask[..., 4] = False
    values[~mask] = np.nan
    work = _Workspace.empty(values.shape)
    theta0 = rng.normal(scale=0.5, size=J)
    for loss in (huber(0.8), huber(rng.uniform(0.1, 2.0, size=(B, J))), ScaledHuber(2.0),
                 smoothed_quantile(0.3, 0.1), quantile(0.5), square()):
        np.copyto(work.v0, np.where(mask, values, 0.0))
        before = work.v0.copy(), mask.copy()
        got = solve_locations(work.v0, mask, loss, theta0, work=work)
        np.testing.assert_array_equal(got, solve_locations(values, mask, loss, theta0))
        assert work.v0.tobytes() == before[0].tobytes()
        np.testing.assert_array_equal(mask, before[1])
    assert restrict_widths  # the restricted problem was scored


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), ()])
def test_loss_spec_rejects_bad_cutoff_arrays(shape, bad):
    prof = np.ones(shape)
    huber(prof)  # any dimension is accepted
    prof.flat[-1] = bad
    with pytest.raises(ValueError, match="positive, finite"):
        huber(prof)
    with pytest.raises(ValueError, match="does not take a cutoff"):
        LossSpec("quantile", c=np.ones(shape), tau=0.5)


def test_unobserved_point_is_nan():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, False]])
    theta = solve_locations(values, mask, huber(1.0))
    assert theta[0] == 2.0
    assert np.isnan(theta[1])


def test_warm_start_does_not_change_answers(rng):
    values = rng.normal(size=(40, 25))
    mask = rng.random((40, 25)) < 0.8
    mask[0] = True
    base = solve_locations(values, mask, huber(0.9))
    for start in (base + 0.37, np.full(25, -1e4), np.full(25, np.nan)):
        again = solve_locations(values, mask, huber(0.9), theta0=start)
        np.testing.assert_allclose(again, base, atol=1e-9)


def test_solve_locations_shape_check():
    with pytest.raises(DataFormatError):
        solve_locations(np.ones(5), np.ones(5, dtype=bool), square())
    with pytest.raises(DataFormatError):
        solve_locations(np.ones((2, 3)), np.ones((3, 2), dtype=bool), square())


@settings(max_examples=60, deadline=None)
@given(
    shift=st.floats(-100.0, 100.0, allow_nan=False),
    scale=st.floats(0.05, 20.0),
    seed=st.integers(0, 5000),
)
def test_shift_scale_equivariance(shift, scale, seed):
    """theta(a + s*X) = a + s*theta(X) when the cutoff scales along."""
    gen = np.random.default_rng(seed)
    values = gen.normal(size=(15, 6))
    mask = gen.random((15, 6)) < 0.8
    mask[0] = True
    base = solve_locations(values, mask, huber(0.8))
    moved = solve_locations(shift + scale * values, mask, huber(0.8 * scale))
    np.testing.assert_allclose(moved, shift + scale * base,
                               rtol=1e-9, atol=1e-8 * max(1, abs(shift)))


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-50.0, 50.0, allow_nan=False), seed=st.integers(0, 5000))
def test_quantile_shift_equivariance(shift, seed):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=(11, 5))
    mask = gen.random((11, 5)) < 0.85
    mask[0] = True
    base = solve_locations(values, mask, quantile(0.25))
    moved = solve_locations(values + shift, mask, quantile(0.25))
    np.testing.assert_allclose(moved, base + shift, atol=1e-10)


def test_fit_marginal_statuses():
    grid = Grid.uniform(5)
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 2] = False  # nobody observes the middle point
    values = np.tile(np.arange(5.0), (3, 1))
    ds = matrix_dataset(grid, values, mask)
    est = fit_marginal(ds, huber(1.0))
    assert list(est.status) == [STATUS_SOLVED] * 2 + [STATUS_UNDEFINED] + [STATUS_SOLVED] * 2
    assert np.isnan(est.theta[2])
    filled = interpolate_undefined(est)
    assert filled.status[2] == STATUS_INTERPOLATED
    assert filled.theta[2] == pytest.approx(2.0)  # linear between neighbors
    assert STATUS_UNDEFINED not in filled.status
    # idempotent on complete fits
    assert interpolate_undefined(filled) is filled


def test_interpolate_rows_constant_extension():
    pts = np.linspace(0, 1, 5)
    row = np.array([np.nan, 1.0, np.nan, 3.0, np.nan])
    out = interpolate_rows(row, pts)
    np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 3.0, 3.0])
    with pytest.raises(NumericalError):
        interpolate_rows(np.full(4, np.nan), pts[:4])


def test_mad_profile_values(rng):
    grid = Grid.uniform(3)
    values = np.array([[0.0, 5.0, 1.0],
                       [1.0, 5.0, 1.0],
                       [2.0, 5.0, 1.0],
                       [3.0, 5.0, 1.0],
                       [10.0, 5.0, 1.0]])
    mask = np.ones((5, 3), dtype=bool)
    ds = matrix_dataset(grid, values, mask)
    prof = mad_profile(ds, r=2.0)
    # raw MAD of column 0: median 2, |x - 2| = [2,1,0,1,8] -> MAD 1
    assert prof[0] == pytest.approx(2.0)
    # constant columns have MAD 0 -> floored
    assert prof[1] == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        mad_profile(ds, r=-1.0)


def test_mad_cutoffs_floor_unobserved_columns(rng):
    values = rng.normal(size=(10, 4))
    mask = np.ones((10, 4), dtype=bool)
    mask[:, 2] = False
    c = mad_cutoffs(values, mask, 3.0)
    assert c[2] == 1e-6
    assert np.all(c[[0, 1, 3]] > 0.1)
    with pytest.raises(ValueError, match="must be positive"):
        mad_cutoffs(values, mask, 0.0)


def _nanmedian_cutoffs(values, mask, r):
    """Reference MAD cutoffs by masked nanmedian; unobserved columns get the floor."""
    masked = np.where(mask, values, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        med = np.nanmedian(masked, axis=-2)
        mad = np.nanmedian(np.abs(masked - med[..., None, :]), axis=-2)
    return np.where(np.isnan(mad), 1e-6, np.maximum(r * mad, 1e-6))


def test_mad_cutoffs_equal_nanmedian_reference(rng):
    B, n, J = 4, 9, 10
    values = np.round(rng.standard_t(3, size=(B, n, J)), 1)  # rounding makes ties
    mask = rng.random((B, n, J)) < 0.7
    mask[..., 0] = True                        # odd count (9)
    mask[..., 1] = True
    mask[..., 0, 1] = False                    # even count (8)
    values[..., 2] = 1.5                       # all ties: MAD 0, floored
    mask[..., 3] = False
    mask[..., 4, 3] = True                     # a single observed value
    mask[..., 5] = False                       # nobody observes: the floor
    mask[..., 6] = False
    mask[..., -1] = False
    values = np.where(mask, values, np.nan)
    ref = _nanmedian_cutoffs(values, mask, 2.5)
    np.testing.assert_array_equal(mad_cutoffs(values, mask, 2.5), ref)
    ds = matrix_dataset(Grid.uniform(J), values[0], mask[0])
    np.testing.assert_array_equal(mad_profile(ds, 2.5), ref[0])


def _stacked_with_unobserved_columns(rng):
    """(B, n, J) draws with a column nobody observes in every replicate and
    one more in a single replicate."""
    B, n, J = 5, 20, 9
    values = rng.standard_t(2, size=(B, n, J))
    mask = rng.random((B, n, J)) < 0.7
    mask[:, 0, :] = True
    mask[..., 4] = False
    mask[2, :, 7] = False
    values[~mask] = np.nan
    return values, mask


def test_solve_locations_scaled_huber_equals_mad_cutoffs(rng):
    """A ScaledHuber is solved as the huber loss with its MAD cutoffs, bit
    for bit, with and without a workspace and a warm start."""
    values, mask = _stacked_with_unobserved_columns(rng)
    loss = huber(mad_cutoffs(values, mask, 2.0))
    theta0 = rng.normal(scale=0.5, size=values.shape[-1])
    want = solve_locations(values, mask, loss)
    np.testing.assert_array_equal(solve_locations(values, mask, ScaledHuber(2.0)), want)
    work = _Workspace.empty(values.shape)
    np.testing.assert_array_equal(
        solve_locations(values, mask, ScaledHuber(2.0), theta0, work=work),
        solve_locations(values, mask, loss, theta0))
    assert np.isnan(want[..., 4]).all() and np.isnan(want[2, 7])
    with pytest.raises(TypeError, match="not a loss"):
        solve_locations(values, mask, "huber-scaled:2")


def test_unobserved_column_cutoffs_change_no_bit(rng):
    """No solve reads the cutoff of a column that no curve observes."""
    values, mask = _stacked_with_unobserved_columns(rng)
    B, n, J = values.shape
    cutoffs = rng.uniform(0.1, 2.0, size=(B, J))
    other = cutoffs.copy()
    other[..., 4] = 1e-6
    other[2, 7] = 50.0
    np.testing.assert_array_equal(solve_locations(values, mask, huber(cutoffs)),
                                  solve_locations(values, mask, huber(other)))


def test_influence_function_matches_refit_derivative(rng):
    """IF formula against the finite-epsilon weighted-refit derivative."""
    from scipy.optimize import brentq

    n, J = 60, 12
    grid = Grid.uniform(J)
    values = rng.normal(size=(n, J))
    mask = rng.random((n, J)) < 0.85
    mask[0] = True
    ds = matrix_dataset(grid, values, mask)
    loss = huber(0.8)
    est = fit_marginal(ds, loss)
    y_star = PartialCurve("y*", "0", np.full(J, 30.0), np.ones(J, dtype=bool))
    formula = influence_function(ds, loss, est.theta, y_star)

    eps = 1e-4
    oracle = np.empty(J)
    for j in range(J):
        obs = mask[:, j]
        xj = values[obs, j]

        def eq(th):
            return ((1 - eps) * np.mean(
                np.concatenate([psi(loss, xj - th),
                                np.zeros(n - obs.sum())]))
                    + eps * float(psi(loss, 30.0 - th)))

        th_eps = brentq(eq, values.min() - 1, values.max() + 31)
        oracle[j] = (th_eps - est.theta[j]) / eps
    rel = np.abs(formula - oracle) / np.maximum(np.abs(oracle), 1e-12)
    assert rel.max() < 2e-2


def test_influence_function_matches_refit_under_random_interval_mask():
    """IF against the finite-eps weighted refit when curves are observed on
    random windows; the contaminating curve is itself partially observed, and
    its influence is zero where it is unobserved."""
    from scipy.optimize import brentq

    n, J, c = 200, 40, 0.8
    # random windows almost never reach t = 0 or 1, so use cell midpoints
    grid = Grid.from_unit_points((np.arange(J) + 0.5) / J)
    scheme = random_interval(0.3, 0.3)
    values = generate_curves(model_preset("model1"), n, grid, 311)
    mask = generate_masks(scheme, n, grid, 312)
    assert not mask.all() and mask.any(axis=0).all()
    ds = matrix_dataset(grid, values, mask)
    loss = huber(c)
    est = fit_marginal(ds, loss)
    y_mask = generate_masks(scheme, 1, grid, 313)[0]
    assert y_mask.any() and not y_mask.all()
    y_star = PartialCurve("y*", "0", np.where(y_mask, 30.0, np.nan), y_mask)
    formula = influence_function(ds, loss, est.theta, y_star)

    eps = 1e-4
    oracle = np.empty(J)
    for j in range(J):
        xj = values[mask[:, j], j]

        def eq(th):
            # unobserved curves add zero score; the mean runs over all n
            y_psi = float(psi(loss, 30.0 - th)) if y_mask[j] else 0.0
            return (1 - eps) * float(np.sum(psi(loss, xj - th))) / n + eps * y_psi

        th_eps = brentq(eq, xj.min() - 1.0, 31.0, xtol=1e-13)
        oracle[j] = (th_eps - est.theta[j]) / eps
    assert np.all(formula[~y_mask] == 0.0)
    assert np.max(np.abs(oracle[~y_mask]), initial=0.0) < 1e-6
    rel = np.abs(formula - oracle)[y_mask] / np.abs(oracle[y_mask])
    assert rel.max() < 2e-2


def test_influence_function_bounded_by_cutoff_over_denominator(rng):
    ds = random_partial_dataset(rng, n=50, J=15)
    loss = huber(0.8)
    est = interpolate_undefined(fit_marginal(ds, loss))
    y = PartialCurve("y", "0", np.full(15, 100.0), np.ones(15, dtype=bool))
    inf = influence_function(ds, loss, est.theta, y)
    mask = ds.mask
    resid = np.where(mask, ds.values, est.theta) - est.theta
    d = (np.where(mask, np.abs(resid) <= 0.8, False)).sum(axis=0) / ds.n
    assert np.max(np.abs(inf)) <= 0.8 / d.min() + 1e-12


def test_influence_function_raises_on_tiny_denominator():
    grid = Grid.uniform(3)
    # all residuals far outside the cutoff -> D = 0
    values = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
    mask = np.ones((2, 3), dtype=bool)
    ds = matrix_dataset(grid, values, mask)
    y = PartialCurve("y", "0", np.zeros(3), np.ones(3, dtype=bool))
    with pytest.raises(NumericalError, match="denominator"):
        influence_function(ds, huber(0.5), np.full(3, 50.0), y)


@pytest.mark.parametrize("points", [1, 12])
def test_influence_function_rejects_a_curve_off_the_grid(rng, points):
    """A contaminating curve with another number of points than the grid
    fails naming the curve and both lengths, also a single point, which
    would otherwise broadcast."""
    ds = random_partial_dataset(rng, n=20, J=10)
    theta = fit(ds, huber(0.8)).theta
    y = PartialCurve("y*", "0", np.zeros(points), np.ones(points, dtype=bool))
    with pytest.raises(DataFormatError, match=rf"^curve 'y\*' has {points} points, "
                                              r"the grid has 10$"):
        influence_function(ds, huber(0.8), theta, y)


def test_influence_function_masked_contaminator(rng):
    ds = random_partial_dataset(rng, n=40, J=8)
    loss = huber(1.0)
    est = interpolate_undefined(fit_marginal(ds, loss))
    m = np.zeros(8, dtype=bool)
    m[:4] = True
    y = PartialCurve("y", "0", np.where(m, 5.0, np.nan), m)
    inf = influence_function(ds, loss, est.theta, y)
    assert np.all(inf[4:] == 0.0)
    assert np.all(inf[:4] != 0.0)


def test_influence_function_scaled_huber_uses_fit_cutoffs(rng):
    """A ScaledHuber gives the influence under the dataset's MAD cutoffs."""
    ds = random_partial_dataset(rng, n=10, J=8)
    choice = ScaledHuber(2.0)
    theta = fit(ds, choice).theta
    explicit = huber(mad_cutoffs(ds.values, ds.mask, choice.r))
    for y in ds.curves[:3]:
        np.testing.assert_array_equal(influence_function(ds, choice, theta, y),
                                      influence_function(ds, explicit, theta, y))
    with pytest.raises(TypeError, match="not a loss"):
        influence_function(ds, "huber:0.8", theta, ds.curves[0])


def test_stacked_root_solve_error_names_the_fit(rng, monkeypatch):
    """A stacked solve that fails names the failing fit by its index in the
    stack; the drivers' tests cover a fit solved on another thread."""
    monkeypatch.setattr(estimator, "MAX_ITER", 1)
    values = np.ones((3, 6, 4))  # equal values: fits 0 and 1 converge at once
    values[2] = rng.standard_normal((6, 4))
    mask = np.ones(values.shape, dtype=bool)
    with pytest.raises(NumericalError,
                       match=r"^root solve did not reach tolerance for fit 2 at grid point \d+ ") as err:
        solve_locations(values, mask, huber(0.8))
    assert err.value.fit == (2,) and type(err.value.fit[0]) is int
    with pytest.raises(NumericalError,
                       match=r"^root solve did not reach tolerance at grid point \d+ ") as err:
        solve_locations(values[2], mask[2], huber(0.8))
    assert err.value.fit is None
