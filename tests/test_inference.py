"""Resampling, the chi-square mixture calibration, the L2 group test, and
percentile intervals for probe coefficients."""

import re
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from conftest import random_partial_dataset
from fmest import estimator, inference
from fmest.data import DataFormatError, Dataset, Grid, PartialCurve, integrate, matrix_dataset
from fmest.estimator import (NumericalError, fit, influence_function, interpolate_rows,
                             mad_cutoffs, solve_locations)
from fmest.inference import (
    anova_l2_test,
    bootstrap_ensemble,
    constant_probe,
    eigen_mixture,
    linear_probe,
    parse_probe,
    quadratic_probe,
    resample,
    step_probe,
    trend_ci,
)
from fmest.losses import ScaledHuber, huber, quantile, smoothed_quantile, square


# -- probes ------------------------------------------------------------------

def test_probes_are_orthonormal_on_fine_grid():
    grid = Grid.uniform(1001)
    probes = [constant_probe(grid.points), linear_probe(grid.points),
              quadratic_probe(grid.points)]
    for i, p in enumerate(probes):
        for j, q in enumerate(probes):
            val = integrate(p * q, grid)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-3)


def test_step_probe_values():
    grid = Grid.uniform(10)
    p = step_probe(0.5, grid)
    assert p.sum() == (grid.points >= 0.5).sum()
    assert set(np.unique(p)) == {0.0, 1.0}
    with pytest.raises(DataFormatError):
        step_probe(0.0, grid)
    with pytest.raises(DataFormatError):
        step_probe(1.0, grid)
    # a step that selects no point of the grid, or every one, is refused,
    # naming x0 and the grid's span
    inner = Grid.from_unit_points(np.linspace(0.1, 0.9, 9))
    with pytest.raises(DataFormatError,
                       match=r"x0=0\.95 selects no point of the grid on \[0\.1, 0\.9\]$"):
        step_probe(0.95, inner)
    for x0 in (0.05, 0.1):
        with pytest.raises(DataFormatError,
                           match=rf"x0={x0:g} selects every point of the grid on \[0\.1, 0\.9\]$"):
            parse_probe(f"step:{x0:g}", inner)
    np.testing.assert_array_equal(step_probe(0.9, inner), np.eye(9)[-1])


def test_step_probe_reads_x0_in_source_coordinates():
    """On a grid over [10, 20], x0 is a source t, reported as given."""
    grid = Grid.from_source_points(np.linspace(10.0, 20.0, 11))
    name, p = parse_probe("step:12.3456789", grid)
    assert name == "step:12.3456789"
    np.testing.assert_array_equal(p, np.arange(11) >= 3)  # t = 13, ..., 20
    with pytest.raises(DataFormatError, match=r"^step location x0=25 must lie strictly inside "
                                              r"\(10, 20\)$"):
        step_probe(25.0, grid)


def test_step_probe_coefficient_is_area():
    grid = Grid.uniform(1001)
    theta = np.ones(grid.size)
    name, p = parse_probe("step:0.42", grid)
    assert name == "step:0.42"
    coef = integrate(theta * p, grid)
    assert coef == pytest.approx(1 - 0.42, abs=1.5e-3)  # one grid cell


def test_parse_probe_errors():
    grid = Grid.uniform(5)
    with pytest.raises(DataFormatError):
        parse_probe("cubic", grid)
    with pytest.raises(DataFormatError):
        parse_probe("step:zzz", grid)


# -- resampling ----------------------------------------------------------------

def test_resample_membership_law(rng):
    ds = random_partial_dataset(rng, n=20, J=8)
    originals = {(c.values.tobytes(), c.mask.tobytes()) for c in ds.curves}
    boot = resample(ds, 5, 0)
    assert boot.n == ds.n
    for c in boot.curves:
        assert (c.values.tobytes(), c.mask.tobytes()) in originals


def test_resample_single_curve_repeats():
    grid = Grid.uniform(3)
    ds = matrix_dataset(grid, np.ones((1, 3)), np.ones((1, 3), dtype=bool))
    boot = resample(ds, 0, 0)
    assert boot.n == 1
    np.testing.assert_array_equal(boot.curves[0].values, ds.curves[0].values)


def test_resample_mean_multiplicity(rng):
    """Multinomial resampling: any fixed curve appears once on average."""
    from fmest.inference import _resample_indices

    n, B = 50, 10_000
    counts = np.zeros(n)
    for b in range(B):
        idx = _resample_indices(n, 99, b)
        counts += np.bincount(idx, minlength=n)
    mean_mult = counts / B
    assert mean_mult.mean() == pytest.approx(1.0, abs=1e-12)
    assert 0.97 <= mean_mult.min() and mean_mult.max() <= 1.03


def test_resample_deterministic(rng):
    ds = random_partial_dataset(rng, n=10, J=5)
    a = resample(ds, 7, 3)
    b = resample(ds, 7, 3)
    np.testing.assert_array_equal(a.values, b.values)
    c = resample(ds, 7, 4)
    assert not np.array_equal(a.mask, c.mask) or \
        not np.array_equal(a.values, c.values)


def test_bootstrap_ensemble_shape_and_floor(rng):
    ds = random_partial_dataset(rng, n=15, J=10)
    ens = bootstrap_ensemble(ds, huber(0.8), 100, 3)
    assert ens.replicates.shape == (100, 10)
    assert np.all(np.isfinite(ens.replicates))
    with pytest.raises(DataFormatError, match="B=50 too small"):
        bootstrap_ensemble(ds, huber(0.8), 50, 3)


def test_bootstrap_ensemble_deterministic(rng):
    ds = random_partial_dataset(rng, n=12, J=6)
    for loss in (huber(0.8), ScaledHuber(3.0), square()):
        a = bootstrap_ensemble(ds, loss, 120, 11)
        b = bootstrap_ensemble(ds, loss, 120, 11)
        np.testing.assert_array_equal(a.replicates, b.replicates)


def test_bootstrap_ensemble_batch_invariance(rng, monkeypatch):
    """Chunk size and thread count are implementation knobs, not part of the
    estimand: batches of 64 and 7, at 1 and 2 usable CPUs with parts of
    any size, give the same bits.  So do 5 threads, more than the host's
    cores, switching every 10 microseconds: the threads share the ensemble's
    output and workspace, in disjoint slices."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 1)
    interval = sys.getswitchinterval()
    try:
        for loss in (huber(0.8), ScaledHuber(3.0), smoothed_quantile(0.3, 0.1)):
            expected = None
            for batch, cpus in ((64, 1), (64, 2), (7, 1), (7, 2), (64, 5)):
                monkeypatch.setattr(inference, "BOOTSTRAP_BATCH", batch)
                monkeypatch.setattr(inference, "_usable_cpus", lambda: cpus)
                sys.setswitchinterval(1e-5 if cpus == 5 else interval)
                got = bootstrap_ensemble(ds, loss, 130, 21).replicates
                if expected is None:
                    expected = got
                np.testing.assert_array_equal(got, expected,
                                              err_msg=f"{loss}, batch {batch}, {cpus} CPUs")
    finally:
        sys.setswitchinterval(interval)


def _count_thread_starts(monkeypatch) -> list:
    """The threads started from now on, in order."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_bootstrap_ensemble_starts_one_thread_per_extra_cpu(rng, monkeypatch, cpus):
    """An ensemble splits across the CPUs once, not once per batch: 300
    replicates in batches of at most 64 start cpus - 1 threads in all, and
    the solves themselves start none.  Every thread solves, but only the
    calling one enters the public solve_locations and mad_cutoffs."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: cpus)
    entered = {}

    def spy_on(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            entered.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    started = _count_thread_starts(monkeypatch)
    spy_on(inference, "solve_locations")
    spy_on(estimator, "mad_cutoffs")
    spy_on(estimator, "_root_solve")
    bootstrap_ensemble(ds, ScaledHuber(3.0), 300, 8)
    assert len(started) == cpus - 1
    main = threading.main_thread()
    assert entered == {"solve_locations": {main}, "mad_cutoffs": {main},
                       "_root_solve": {main, *started}}


def test_bootstrap_ensemble_slices_hold_part_min_values(rng, monkeypatch):
    """Each slice holds at least PART_MIN values, so a PART_MIN that admits
    only 2 slices of the 64 x 12 x 6 workspace starts 1 thread at 3 CPUs."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 64 * 12 * 6 // 2)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 3)
    started = _count_thread_starts(monkeypatch)
    expected = bootstrap_ensemble(ds, huber(0.8), 300, 8).replicates
    assert len(started) == 1
    monkeypatch.setattr(inference, "PART_MIN", 64 * 12 * 6 // 2 + 1)
    started.clear()
    np.testing.assert_array_equal(bootstrap_ensemble(ds, huber(0.8), 300, 8).replicates,
                                  expected)
    assert started == []


def test_bootstrap_ensemble_off_the_main_thread_does_not_split(rng, monkeypatch):
    """An ensemble run on any thread but the main one starts no thread of
    its own, at any CPU count, and gives the main thread's split result."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 3)
    expected = bootstrap_ensemble(ds, ScaledHuber(3.0), 300, 8).replicates
    got = []
    worker = threading.Thread(
        target=lambda: got.append(bootstrap_ensemble(ds, ScaledHuber(3.0), 300, 8).replicates))
    started = _count_thread_starts(monkeypatch)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and started == [worker]
    np.testing.assert_array_equal(got[0], expected)


@pytest.mark.parametrize("seed", [21, (4, 2**33, 1)])
def test_bootstrap_ensemble_draws_resample_curves(rng, monkeypatch, seed):
    """Replicate b fits the curves resample(ds, seed, b) draws, in order.
    The solve sees them zero-filled, so only their observed values count."""
    ds = random_partial_dataset(rng, n=12, J=6)
    fitted = []
    solve = inference.solve_locations

    def spy(values, mask, loss, theta0=None, **kwargs):
        if values.ndim == 3:  # one batch of replicates; later batches reuse the buffers
            fitted.extend(zip(values.copy(), mask.copy()))
        return solve(values, mask, loss, theta0=theta0, **kwargs)

    monkeypatch.setattr(inference, "solve_locations", spy)
    bootstrap_ensemble(ds, huber(0.8), 130, seed)
    assert len(fitted) == 130
    for b, (values, mask) in enumerate(fitted):
        boot = resample(ds, seed, b)
        np.testing.assert_array_equal(mask, boot.mask)
        np.testing.assert_array_equal(values[mask], boot.values[boot.mask])


@pytest.mark.parametrize("loss", [square(), quantile(0.5), huber(0.8), ScaledHuber(3.0),
                                  smoothed_quantile(0.5, 0.1)],
                         ids=["square", "quantile", "huber", "scaled-huber", "squantile"])
def test_bootstrap_ensemble_equals_replicate_loop(rng, monkeypatch, loss):
    """Batches gathered and solved in shared buffers, the last batch a partial
    view of them, give the one-replicate-at-a-time fits bit for bit, with
    the ensemble split across 1, 2 and 3 threads.  B = 130 and B = 100 both
    leave a short last batch on every thread.  Sparse curves leave some grid
    points unobserved in about a third of the resamples, so floored cutoffs
    and interpolated locations are covered too."""
    ds = random_partial_dataset(rng, n=12, J=6, missing=0.6)
    seed = 17
    monkeypatch.setattr(inference, "PART_MIN", 1)  # split this small workspace too

    def concrete(values, mask):
        if isinstance(loss, ScaledHuber):
            return huber(mad_cutoffs(values, mask, loss.r))
        return loss

    warm = solve_locations(ds.values, ds.mask, concrete(ds.values, ds.mask))
    for B in (130, 100):
        rows = []
        for b in range(B):
            boot = resample(ds, seed, b)
            rows.append(solve_locations(boot.values, boot.mask,
                                        concrete(boot.values, boot.mask), theta0=warm))
        expected = interpolate_rows(np.stack(rows), ds.grid.points)
        for threads in (1, 2, 3):
            monkeypatch.setattr(inference, "_usable_cpus", lambda: threads)
            np.testing.assert_array_equal(bootstrap_ensemble(ds, loss, B, seed).replicates,
                                          expected, err_msg=f"B={B}, {threads} threads")


def test_bootstrap_ensemble_thread_error_reaches_caller(rng, monkeypatch):
    """A NumericalError that is not a stacked root solve's, raised in the
    part of the ensemble solved on another thread, reaches the caller
    unchanged."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 2)
    solve = estimator._root_solve

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise NumericalError("root solve did not reach tolerance at grid point 3")
        return solve(*args)

    monkeypatch.setattr(estimator, "_root_solve", failing)
    with pytest.raises(NumericalError, match="^root solve did not reach tolerance at grid point 3$"):
        bootstrap_ensemble(ds, huber(0.8), 130, 5)


@pytest.mark.parametrize("target", [100, 129])
def test_bootstrap_ensemble_thread_error_names_the_replicate(rng, monkeypatch, target):
    """A root solve that fails on another thread names the replicate by its
    index in the ensemble.  At 2 CPUs, replicates 65-129 are that thread's;
    100 is inside its second batch and 129 is the last, in a short batch.
    The failing fit is found by its values, so the test assumes no layout."""
    ds = random_partial_dataset(rng, n=12, J=6)
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 2)
    boot = resample(ds, 5, target)
    wanted = np.where(boot.mask, boot.values, 0.0)
    solve = estimator._root_solve
    failed_on = []

    def failing(values, *args):
        hit = [i for i, v in enumerate(values) if np.array_equal(v, wanted)]
        if hit:
            failed_on.append(threading.current_thread())
            exc = NumericalError(f"root solve did not reach tolerance for fit {hit[0]} "
                                 f"at grid point 0")
            exc.fit = (hit[0],)
            raise exc
        return solve(values, *args)

    monkeypatch.setattr(estimator, "_root_solve", failing)
    with pytest.raises(NumericalError, match=rf"^bootstrap replicate {target}: root solve"):
        bootstrap_ensemble(ds, huber(0.8), 130, 5)
    assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()


def test_bootstrap_ensemble_error_names_the_replicate(rng, monkeypatch):
    """A root solve that fails in the second batch names the replicate by
    its index in the ensemble, not in its batch."""
    ds = random_partial_dataset(rng, n=12, J=6)
    solve = inference.solve_locations
    batches = []

    def spy(values, mask, loss, theta0=None, **kwargs):
        if values.ndim == 3:
            batches.append(values.shape[0])
            if len(batches) == 2:
                monkeypatch.setattr(estimator, "MAX_ITER", 1)
        return solve(values, mask, loss, theta0=theta0, **kwargs)

    monkeypatch.setattr(inference, "solve_locations", spy)
    with pytest.raises(NumericalError, match=r"^bootstrap replicate (\d+): root solve did not "
                                             r"reach tolerance for fit (\d+) at grid point") as err:
        bootstrap_ensemble(ds, huber(0.8), 130, 5)
    assert batches == [64, 64]
    fit = err.value.__cause__.fit[0]
    assert err.value.args[0].startswith(f"bootstrap replicate {64 + fit}: ")


def test_group_test_error_names_group_replicate_and_source_t(rng, monkeypatch):
    """A root solve that fails in a group's bootstrap names the group by its
    index and label, the replicate, and the failing point's t in the grid's
    source coordinates next to its index."""
    grid = Grid.from_unit_points(Grid.uniform(6).points, offset=10.0, scale=5.0)
    groups = [matrix_dataset(grid, ds.values, ds.mask, group=label)
              for label, ds in (("a", random_partial_dataset(rng, n=12, J=6)),
                                ("b", random_partial_dataset(rng, n=12, J=6)))]
    solve = inference.solve_locations

    def spy(values, mask, loss, theta0=None, **kwargs):
        if values.ndim == 3:  # the full-sample fits pass; the replicates fail
            monkeypatch.setattr(estimator, "MAX_ITER", 1)
        return solve(values, mask, loss, theta0=theta0, **kwargs)

    monkeypatch.setattr(inference, "solve_locations", spy)
    with pytest.raises(NumericalError) as err:
        anova_l2_test(groups, huber(0.8), 100, 5)
    shown = re.match(r"group 0 \('a'\): bootstrap replicate \d+: root solve did not reach "
                     r"tolerance for fit \d+ at grid point (\d+) \(t=([^,]+), \|psi-sum\|=",
                     str(err.value))
    assert shown and shown[2] == f"{grid.source_points[int(shown[1])]:g}"


@pytest.mark.parametrize("loss", [huber(0.8), smoothed_quantile(0.3, 1.0)],
                         ids=["huber", "squantile"])
def test_bootstrap_covariance_matches_influence_function_covariance(loss):
    """The bootstrap covariance of the location fit approximates the
    asymptotic one, the covariance of the influence function IF_i(t) at the
    full-sample fit divided by n.  80 model1 curves on random intervals of
    a grid on [0.1, 0.9], where D(t) > 0; B = 2000.  Only the weighted trace
    ratio and the top three normalized eigenvalues are compared (pointwise
    variance ratios scatter far more).  Over seeds 0-39 the ratio ranged
    over [0.85, 1.08] (huber) and [0.89, 1.06] (squantile), and the share
    differences stayed within 0.043, so the bands are [0.8, 1.2] and 0.06."""
    from fmest.sampling import generate_masks, random_interval
    from fmest.simulation import generate_curves, model_preset

    grid = Grid.from_unit_points(np.linspace(0.1, 0.9, 41))
    n, seed = 80, 2026
    ds = matrix_dataset(grid, generate_curves(model_preset("model1"), n, grid, (seed, 0)),
                        generate_masks(random_interval(0.3, 0.3), n, grid, (seed, 1)))
    ens = bootstrap_ensemble(ds, loss, 2000, (seed, 2))
    infl = np.stack([influence_function(ds, loss, ens.estimate.theta, y) for y in ds.curves])
    sw = np.sqrt(grid.weights)
    boot = np.cov(ens.replicates, rowvar=False, bias=True) * np.outer(sw, sw)
    # the influence function has mean zero: the fit solves its estimating equation
    asym = infl.T @ infl / n ** 2 * np.outer(sw, sw)
    assert 0.8 <= np.trace(boot) / np.trace(asym) <= 1.2
    shares = [np.linalg.eigvalsh(c)[::-1][:3] / np.trace(c) for c in (boot, asym)]
    np.testing.assert_allclose(shares[0], shares[1], atol=0.06, rtol=0)


# -- eigenvalue mixture ----------------------------------------------------------

def test_eigen_mixture_rank_one():
    grid = Grid.uniform(60)
    phi = np.sin(2 * np.pi * grid.points) + 0.3
    xi = np.outer(phi, phi)
    lambdas, _ = eigen_mixture(xi, grid, k=2)
    assert lambdas.size == 1
    assert lambdas[0] == pytest.approx(1.0, abs=1e-10)


def test_eigen_mixture_identity_diagonal():
    grid = Grid.uniform(40)
    xi = np.eye(40)
    lambdas, _ = eigen_mixture(xi, grid, k=2)
    # interior eigenvalues all equal 1/(J-1) after weighting; boundary
    # weights perturb just the two smallest
    assert lambdas[0] == pytest.approx(1.0 / 39, rel=1e-10)
    assert lambdas.sum() == pytest.approx(1.0, abs=1e-8)


def test_eigen_mixture_chisq_quantile():
    """Single unit eigenvalue, k=2: the null is plain chi-square with 1 df."""
    grid = Grid.uniform(30)
    phi = np.full(30, 2.0)
    xi = np.outer(phi, phi)
    _, tail = eigen_mixture(xi, grid, k=2)
    assert tail(3.841459) == pytest.approx(0.05, abs=1e-7)


def test_eigen_mixture_tail_is_reproducible():
    grid = Grid.uniform(20)
    xi = np.eye(20) * 0.5
    _, t1 = eigen_mixture(xi, grid, k=3)
    _, t2 = eigen_mixture(xi, grid, k=3)
    assert t1(0.7) == t2(0.7) == t1(0.7)


def _equal_weight_covariance(grid, r, rng):
    """Covariance whose weighted form has r equal eigenvalues, so lambda = 1/r."""
    v, _ = np.linalg.qr(rng.normal(size=(grid.size, r)))
    u = v / np.sqrt(grid.weights)[:, None]
    return u @ u.T


@pytest.mark.parametrize("k", [2, 3])
def test_mixture_tail_single_weight_is_scaled_chisq(k):
    grid = Grid.uniform(40)
    phi = np.sin(2 * np.pi * grid.points) + 0.3
    lambdas, tail = eigen_mixture(np.outer(phi, phi), grid, k=k)
    assert lambdas.size == 1
    for x in (1e-8, 1e-3, 0.1, 0.5, 1.0, 3.841459, 10.0, 40.0, 1e6):
        assert tail(x) == pytest.approx(chi2.sf(x / lambdas[0], k - 1), abs=1e-9)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [2, 7, 30])
def test_mixture_tail_equal_weights_is_chisq(rng, k, r):
    grid = Grid.uniform(60)
    lambdas, tail = eigen_mixture(_equal_weight_covariance(grid, r, rng), grid, k=k)
    np.testing.assert_allclose(lambdas, 1.0 / r, rtol=1e-12)
    for x in (0.05, 0.5, 1.0, 2.0, 4.0):
        assert tail(x) == pytest.approx(chi2.sf(r * x, r * (k - 1)), abs=1e-9)


@pytest.mark.parametrize("k", [2, 4])
def test_mixture_tail_matches_monte_carlo(rng, k):
    """A seeded 10^6-draw sum of weighted chi-squares agrees within 4 SE."""
    grid = Grid.uniform(30)
    L = rng.normal(size=(30, 6)) * np.array([3.0, 2.0, 1.0, 0.7, 0.4, 0.2])
    lambdas, tail = eigen_mixture(L @ L.T, grid, k=k)
    draws_rng = np.random.default_rng(4242)
    draws = np.concatenate([draws_rng.chisquare(k - 1, size=(250_000, lambdas.size)) @ lambdas
                            for _ in range(4)])
    for x in np.quantile(draws, [0.05, 0.3, 0.5, 0.8, 0.95, 0.99]):
        p_mc = np.mean(draws >= x)
        se = np.sqrt(p_mc * (1 - p_mc) / draws.size)
        assert abs(tail(x) - p_mc) <= 4 * se


def _quad_tail(lambdas, k, x):
    """The tail by scipy's adaptive quadrature of the same ray integrand."""
    nu = k - 1
    alpha = np.arccos(2.0 ** (-2.0 / (nu * lambdas.size)))
    ray = np.exp(-1j * alpha)

    def integrand(t):
        u = t * ray
        return np.exp(-0.5 * nu * np.sum(np.log1p(-1j * lambdas * u)) - 0.5j * x * u).imag / t

    value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=0.0, limit=200)
    return float(np.clip(0.5 + (value - alpha) / np.pi, 0.0, 1.0))


@pytest.mark.parametrize("r", [1, 2, 7, 30, 88])
def test_mixture_tail_matches_quad_on_the_ray(rng, r):
    """Unequal weights, up to rank 88: the double-exponential rule agrees
    with adaptive quadrature of the same integral."""
    grid = Grid.uniform(100)
    v, _ = np.linalg.qr(rng.normal(size=(grid.size, r)))
    u = v / np.sqrt(grid.weights)[:, None] * np.sqrt(np.linspace(1.0, 0.2, r))
    for k in (2, 3, 5):
        lambdas, tail = eigen_mixture(u @ u.T, grid, k=k)
        assert lambdas.size == r
        for x in (1e-3, 0.05, 0.5, 1.0, 3.84, 10.0, 40.0):
            assert abs(tail(x) - _quad_tail(lambdas, k, x)) <= 1e-10, (k, x)


def test_mixture_tail_raises_at_the_level_cap(monkeypatch):
    grid = Grid.uniform(30)
    _, tail = eigen_mixture(np.outer(np.ones(30), np.ones(30)), grid, k=2)
    monkeypatch.setattr(inference, "_TAIL_LEVELS", 2)
    with pytest.raises(NumericalError, match=r"^chi-square mixture tail did not converge at "
                                             r"statistic 1\.5 \(rank 1, last difference "
                                             r"\d\.\d{3}e[-+]\d+\)$"):
        tail(1.5)


def test_mixture_tail_of_a_decisive_statistic_is_zero():
    """At rank 100 and k = 10 the rule does not converge at T = 1e10, but
    the Chernoff bound puts the tail far below TAIL_TOL, so it is 0."""
    grid = Grid.uniform(100)
    lambdas, tail = eigen_mixture(np.eye(100) / grid.weights, grid, k=10)
    assert lambdas.size == 100
    assert tail(1e10) == 0.0


def test_eigen_mixture_rejects_asymmetry():
    grid = Grid.uniform(5)
    xi = np.eye(5)
    xi[0, 1] = 1e-3
    with pytest.raises(DataFormatError, match="asymmetric"):
        eigen_mixture(xi, grid, k=2)


def test_eigen_mixture_properties(rng):
    """Nonnegative, nonincreasing, sums into [0.999, 1 + 1e-8]."""
    grid = Grid.uniform(25)
    A = rng.normal(size=(25, 25))
    xi = A @ A.T / 25
    lambdas, _ = eigen_mixture(xi, grid, k=4)
    assert np.all(lambdas >= 0)
    assert np.all(np.diff(lambdas) <= 1e-15)
    assert 0.999 <= lambdas.sum() <= 1 + 1e-8


# -- L2 group test ---------------------------------------------------------------

def _two_groups(rng, delta=0.0, n=25, J=30):
    grid = Grid.uniform(J)
    groups = []
    for g, shift in enumerate((0.0, delta)):
        values = rng.normal(size=(n, J)) + shift
        mask = rng.random((n, J)) < 0.85
        mask[0] = True
        groups.append(matrix_dataset(grid, values, mask, group=str(g)))
    return groups


def test_anova_identical_groups_is_null(rng):
    ds = random_partial_dataset(rng, n=15, J=20)
    twin = Dataset(ds.grid, tuple(
        PartialCurve(c.id + "_copy", "1", c.values, c.mask) for c in ds.curves
    ))
    res = anova_l2_test([ds, twin], huber(0.8), B=100, seed=3)
    assert res.statistic == 0.0
    assert res.p_value >= 0.999


def test_anova_detects_large_shift(rng):
    groups = _two_groups(rng, delta=3.0)
    res = anova_l2_test(groups, huber(0.8), B=150, seed=4)
    assert res.p_value < 0.01
    assert res.statistic > 10


def test_anova_result_invariants(rng):
    groups = _two_groups(rng)
    res = anova_l2_test(groups, huber(0.8), B=100, seed=5)
    assert 0.0 <= res.p_value <= 1.0
    assert res.p_value == anova_l2_test(groups, huber(0.8), B=100, seed=5).p_value
    assert res.trace > 0
    assert res.groups == 2 and res.B == 100
    assert np.all(res.eigenvalues >= 0)
    assert 0.999 <= res.eigenvalues.sum() <= 1 + 1e-8


def test_anova_shift_invariance(rng):
    """Adding one fixed function to every curve in every group changes
    nothing (fixed-cutoff loss; the estimator is shift-equivariant)."""
    groups = _two_groups(rng, delta=0.5)
    shift = 3.0 * np.sin(4 * np.pi * groups[0].grid.points) - 2.0
    moved = []
    for ds in groups:
        curves = tuple(
            PartialCurve(c.id, c.group, np.where(c.mask, c.values + shift, np.nan), c.mask)
            for c in ds.curves
        )
        moved.append(Dataset(ds.grid, curves))
    a = anova_l2_test(groups, huber(0.8), B=100, seed=6)
    b = anova_l2_test(moved, huber(0.8), B=100, seed=6)
    assert abs(a.statistic - b.statistic) < 1e-10
    assert abs(a.p_value - b.p_value) < 1e-10


def test_anova_deterministic(rng):
    groups = _two_groups(rng)
    a = anova_l2_test(groups, huber(0.8), B=100, seed=7)
    b = anova_l2_test(groups, huber(0.8), B=100, seed=7)
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_anova_validations(rng):
    groups = _two_groups(rng)
    with pytest.raises(DataFormatError, match="at least 2 groups"):
        anova_l2_test(groups[:1], huber(0.8), B=100, seed=0)
    with pytest.raises(DataFormatError, match="too small"):
        anova_l2_test(groups, huber(0.8), B=10, seed=0)
    other = random_partial_dataset(rng, n=10, J=13)
    with pytest.raises(DataFormatError, match="different grid"):
        anova_l2_test([groups[0], other], huber(0.8), B=100, seed=0)
    tiny = matrix_dataset(groups[0].grid, groups[0].values[:1],
                          groups[0].mask[:1])
    with pytest.raises(DataFormatError, match="at least 2 curves"):
        anova_l2_test([groups[0], tiny], huber(0.8), B=100, seed=0)


def test_p_value_monotone_in_statistic(rng):
    grid = Grid.uniform(30)
    phi = np.full(30, 1.0)
    A = rng.normal(size=(30, 30))
    for xi, k in ((np.outer(phi, phi), 2), (A @ A.T / 30, 3)):
        _, tail = eigen_mixture(xi, grid, k=k)
        assert tail(0.0) == 1.0 and tail(-2.0) == 1.0
        # steps stay far above the tail's ~1e-11 absolute accuracy
        ps = [tail(t) for t in np.linspace(0.0, 8.0, 33)]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))
        assert ps[-1] < 1e-2


# -- trend intervals ---------------------------------------------------------------

def test_trend_constant_curve_coefficient(rng):
    grid = Grid.uniform(25)
    values = np.full((12, 25), 5.0) + rng.normal(size=(12, 25)) * 1e-9
    ds = matrix_dataset(grid, values, np.ones((12, 25), dtype=bool))
    ci = trend_ci(ds, huber(0.8), constant_probe(grid.points), B=100, seed=1,
                  probe_name="constant")
    assert ci.coefficient == pytest.approx(5.0, abs=1e-6)
    assert ci.lower <= 5.0 <= ci.upper
    assert ci.significant  # 5 is far from 0


def test_trend_orthogonal_probe_coefficient_is_zero():
    grid = Grid.uniform(1001)
    theta = linear_probe(grid.points)
    coef = integrate(theta * quadratic_probe(grid.points), grid)
    assert coef == pytest.approx(0.0, abs=1e-3)


def test_trend_ci_equals_fit_and_ensemble_quantiles(rng):
    """The coefficient is the full-sample fit's, and the bounds are the
    alpha/2 and 1 - alpha/2 quantiles of the replicates' coefficients, bit
    for bit; the ensemble carries that same fit."""
    ds = random_partial_dataset(rng, n=20, J=15, missing=0.5)
    probe = linear_probe(ds.grid.points)
    weights = ds.grid.weights
    for loss in (huber(0.8), ScaledHuber(3.0), quantile(0.5)):
        ci = trend_ci(ds, loss, probe, B=200, seed=2, alpha=0.1, probe_name="linear")
        est = fit(ds, loss)
        ens = bootstrap_ensemble(ds, loss, 200, 2)
        np.testing.assert_array_equal(ens.estimate.theta, est.theta)
        lower, upper = np.quantile(ens.replicates @ (weights * probe), [0.05, 0.95])
        assert ci.coefficient == integrate(est.theta * probe, ds.grid)
        assert (ci.lower, ci.upper) == (lower, upper)
        assert (ci.probe, ci.alpha, ci.B) == ("linear", 0.1, 200)


def test_inference_fits_each_dataset_once(rng, monkeypatch):
    """One unstacked solve per fitted dataset: trend_ci fits its dataset
    once, and anova_l2_test each of its k groups once; the bootstrap
    replicates start from that fit instead of solving the sample again."""
    unstacked = []
    for module in (estimator, inference):
        def spy(values, mask, loss, theta0=None, _solve=module.solve_locations, **kwargs):
            if np.ndim(values) == 2:
                unstacked.append(np.shape(values))
            return _solve(values, mask, loss, theta0=theta0, **kwargs)

        monkeypatch.setattr(module, "solve_locations", spy)
    ds = random_partial_dataset(rng, n=15, J=10)
    for loss in (huber(0.8), ScaledHuber(3.0)):
        unstacked.clear()
        trend_ci(ds, loss, linear_probe(ds.grid.points), B=100, seed=3)
        assert unstacked == [(15, 10)]
        for k in (2, 3):
            groups = [random_partial_dataset(rng, n=8 + g, J=10) for g in range(k)]
            unstacked.clear()
            anova_l2_test(groups, loss, B=100, seed=4)
            assert unstacked == [(8 + g, 10) for g in range(k)]


def test_trend_ci_nesting_and_reuse(rng):
    """The 99% interval contains the 95% one when both come from the same
    ensemble, and the shared interval step on trend_ci's ensemble gives
    trend_ci's interval."""
    ds = random_partial_dataset(rng, n=18, J=12)
    probe = quadratic_probe(ds.grid.points)
    ens = bootstrap_ensemble(ds, huber(0.8), 150, 13)
    wide = inference._percentile_interval(ens, probe, 0.01, "quadratic")
    narrow = inference._percentile_interval(ens, probe, 0.05, "quadratic")
    assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper
    assert wide.coefficient == narrow.coefficient
    direct = trend_ci(ds, huber(0.8), probe, B=150, seed=13, alpha=0.05, probe_name="quadratic")
    assert vars(direct) == vars(narrow)


@pytest.mark.parametrize("loss", [quantile(0.5), huber(0.8)], ids=["median", "huber"])
def test_trend_ci_rejects_replicates_without_spread(rng, loss):
    """Constant curves make every replicate profile equal the fit, so all
    replicate coefficients are equal and the interval is one point; whether
    it excludes zero would rest on rounding.  The interval step raises,
    naming the probe."""
    grid = Grid.uniform(50)
    mask = rng.random((30, 50)) < 0.8
    mask[0] = True
    ds = matrix_dataset(grid, np.full((30, 50), 3.0), mask)
    for text in ("linear", "quadratic"):
        name, probe = parse_probe(text, grid)
        with pytest.raises(NumericalError, match=rf"^probe {text}: all 200 bootstrap "
                                                 r"replicate coefficients equal "):
            trend_ci(ds, loss, probe, B=200, seed=0, probe_name=name)


def test_trend_ci_validations(rng):
    ds = random_partial_dataset(rng, n=10, J=8)
    probe = np.ones(8)
    with pytest.raises(DataFormatError, match="alpha"):
        trend_ci(ds, huber(0.8), probe, B=100, seed=0, alpha=1.5)
    with pytest.raises(DataFormatError, match="too small"):
        trend_ci(ds, huber(0.8), probe, B=20, seed=0)
    with pytest.raises(DataFormatError, match="aligned"):
        trend_ci(ds, huber(0.8), np.ones(9), B=100, seed=0)
    with pytest.raises(DataFormatError, match="finite"):
        trend_ci(ds, huber(0.8), np.full(8, np.nan), B=100, seed=0)


def test_trend_ci_deterministic(rng):
    ds = random_partial_dataset(rng, n=14, J=9)
    probe = linear_probe(ds.grid.points)
    a = trend_ci(ds, ScaledHuber(3.0), probe, B=100, seed=21)
    b = trend_ci(ds, ScaledHuber(3.0), probe, B=100, seed=21)
    assert (a.coefficient, a.lower, a.upper) == (b.coefficient, b.lower, b.upper)
