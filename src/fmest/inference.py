"""Bootstrap inference: L2-norm group comparison and trend intervals.

Resampling always moves whole curves (values and mask together) with
replacement.  The group-comparison test normalizes the integrated
between-group sum of squares by a pooled bootstrap estimate of the pointwise
variance and calibrates it against a chi-square mixture whose weights are the
normalized eigenvalues of the weighted bootstrap covariance.  The trend test
is a percentile bootstrap for one linear functional of the location curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DataFormatError, Grid, integrate
from .estimator import (MEstimate, NumericalError, _Workspace, fit, interpolate_rows,
                        solve_locations)
from .seeding import as_key, make_rng, substreams

MIN_BOOTSTRAP = 100
# replicates per solve_locations call in bootstrap_ensemble; the solve's
# threads split a batch between them, so memory does not grow with the CPU count
BOOTSTRAP_BATCH = 64
# absolute accuracy of the Imhof integral: its double-exponential rule stops
# once two successive levels differ by at most 0.01 TAIL_TOL
TAIL_TOL = 1e-9
# the rule's nodes s lie in [-_TAIL_WINDOW, _TAIL_WINDOW], with step _TAIL_STEP
# halved once per level; it fails after _TAIL_LEVELS halvings (level 10
# evaluates 9,216 new nodes)
_TAIL_WINDOW = 4.5
_TAIL_STEP = 0.5
_TAIL_LEVELS = 10
EIGEN_TRACE_SHARE = 0.999
SYMMETRY_TOL = 1e-8


# -- probes -------------------------------------------------------------------

def constant_probe(points) -> np.ndarray:
    """phi_0 = 1."""
    return np.ones_like(np.asarray(points, dtype=float))


def linear_probe(points) -> np.ndarray:
    """phi_1 = sqrt(3) (2t - 1), unit norm on [0, 1]."""
    t = np.asarray(points, dtype=float)
    return np.sqrt(3.0) * (2.0 * t - 1.0)


def quadratic_probe(points) -> np.ndarray:
    """phi_2 = sqrt(5) (6t^2 - 6t + 1), unit norm on [0, 1]."""
    t = np.asarray(points, dtype=float)
    return np.sqrt(5.0) * (6.0 * t * t - 6.0 * t + 1.0)


def step_probe(x0: float, grid: Grid) -> np.ndarray:
    """Indicator 1{t >= x0}; x0 must be interior to (0, 1)."""
    if not 0.0 < x0 < 1.0:
        raise DataFormatError(f"step location x0={x0:g} must lie strictly inside (0, 1)")
    return (grid.points >= x0).astype(float)


def parse_probe(text: str, grid: Grid) -> tuple[str, np.ndarray]:
    """Parse ``constant | linear | quadratic | step:<x0>`` to (name, values)."""
    text = text.strip()
    if text == "constant":
        return text, constant_probe(grid.points)
    if text == "linear":
        return text, linear_probe(grid.points)
    if text == "quadratic":
        return text, quadratic_probe(grid.points)
    name, _, arg = text.partition(":")
    if name.strip() == "step":
        try:
            x0 = float(arg)
        except ValueError:
            raise DataFormatError(f"bad step probe {text!r}") from None
        return f"step:{x0:g}", step_probe(x0, grid)
    raise DataFormatError(
        f"unknown probe {text!r} (constant | linear | quadratic | step:<x0>)"
    )


# -- resampling ----------------------------------------------------------------

def _draw_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Curve indices of one with-replacement resample of n curves."""
    return rng.integers(0, n, size=n)


def _resample_indices(n: int, seed, replicate_index: int) -> np.ndarray:
    return _draw_indices(make_rng((*as_key(seed), int(replicate_index))), n)


def resample(dataset: Dataset, seed, replicate_index: int) -> Dataset:
    """One with-replacement resample of whole curves (values + mask together)."""
    idx = _resample_indices(dataset.n, seed, replicate_index).tolist()
    return Dataset._from_arrays(dataset.grid, dataset.values[idx], dataset.mask[idx],
                                [f"{pos}:{dataset.ids[i]}" for pos, i in enumerate(idx)],
                                [dataset.groups[i] for i in idx])


@dataclass(frozen=True, eq=False)
class BootstrapEnsemble:
    """The full-sample fit and B interpolation-completed bootstrap location
    fits around it, stacked (B, J); B is ``len(replicates)``."""

    estimate: MEstimate
    replicates: np.ndarray


def bootstrap_ensemble(dataset: Dataset, loss, B: int, seed) -> BootstrapEnsemble:
    """Fit the location on the dataset itself (:func:`fit`) and on B
    whole-curve resamples (replicate b uses the substream (seed, b)).
    ``loss`` goes unchanged to every solve, so a scaled-huber loss
    recomputes its MAD cutoffs on every resample.  The replicate solves
    start from the full-sample fit.  No resample observes a point where
    that fit is interpolated, so no solve reads the start there.

    Every batch is gathered into, and solved in, one workspace allocated per
    call; the last, shorter batch uses leading views of it.  The values are
    gathered on the calling thread from a zero-filled copy straight into the
    workspace's ``v0``, which the solve then reads in place.  Each batch's
    MAD cutoffs and root solve split across the usable CPUs when the batch
    is large enough (see :func:`solve_locations`); the result is the same,
    bit for bit, at any thread count.  A root solve that fails is re-raised
    naming the replicate."""
    if B < MIN_BOOTSTRAP:
        raise DataFormatError(f"B={B} too small, need at least {MIN_BOOTSTRAP}")
    values = dataset.values
    mask = dataset.mask
    n = dataset.n
    J = dataset.grid.size
    idx = np.empty((B, n), dtype=np.int64)
    for b, rng in enumerate(substreams(as_key(seed), B)):
        idx[b] = _draw_indices(rng, n)
    out = np.empty((B, J))
    # replicate roots cluster around the full-sample fit, so start there
    # (square and quantile losses have closed forms and ignore the start)
    estimate = fit(dataset, loss)
    filled = np.where(mask, values, 0.0)
    shape = (min(BOOTSTRAP_BATCH, B), n, J)
    m_buf = np.empty(shape, dtype=bool)
    w_buf = _Workspace.empty(shape)
    for start in range(0, B, BOOTSTRAP_BATCH):
        stop = min(start + BOOTSTRAP_BATCH, B)
        k = stop - start
        m, work = m_buf[:k], w_buf[:k]
        # mode="clip" (the indices are in range) lets take write straight
        # into v0 and m; the default mode="raise" gathers into a temporary
        np.take(filled, idx[start:stop], axis=0, out=work.v0, mode="clip")
        np.take(mask, idx[start:stop], axis=0, out=m, mode="clip")
        try:
            out[start:stop] = solve_locations(work.v0, m, loss, theta0=estimate.theta, work=work)
        except NumericalError as exc:
            if exc.fit is None:  # not a stacked root solve's error
                raise
            raise NumericalError(f"bootstrap replicate {start + exc.fit[0]}: {exc}") from exc
    return BootstrapEnsemble(estimate, interpolate_rows(out, dataset.grid.points))


# -- chi-square mixture calibration --------------------------------------------

def eigen_mixture(xi_star: np.ndarray, grid: Grid, k: int):
    """Normalized eigenvalues of the weighted covariance and the null tail.

    The covariance is mapped to A = W^{1/2} xi W^{1/2} (W = diagonal trapezoid
    weights); eigenvalues are clamped at zero, truncated once they cover
    99.9% of the trace, and normalized by the trace, so they sum to ~1.
    Returns (lambdas, tail) where tail(x) = P(sum_r lambda_r chisq_{k-1, r} >= x),
    computed by Imhof's characteristic-function inversion with a
    double-exponential trapezoid rule to absolute error about TAIL_TOL; a
    rule that has not converged after its last level gives 0.0 when a
    Chernoff bound puts the tail at or below TAIL_TOL, and raises
    NumericalError otherwise.
    """
    xi = np.asarray(xi_star, dtype=float)
    J = grid.size
    if xi.shape != (J, J):
        raise DataFormatError("covariance not aligned with grid")
    asym = float(np.max(np.abs(xi - xi.T)))
    if asym > SYMMETRY_TOL:
        raise DataFormatError(f"covariance is asymmetric (max deviation {asym:.3e})")
    if k < 2:
        raise DataFormatError("need at least 2 groups")
    xi = 0.5 * (xi + xi.T)
    sqw = np.sqrt(grid.weights)
    A = xi * sqw[:, None] * sqw[None, :]
    trace = float(np.dot(grid.weights, np.diag(xi)))
    if not trace > 0:
        raise NumericalError("bootstrap variance trace is not positive")
    eigvals = np.linalg.eigvalsh(A)[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    cum = np.cumsum(eigvals)
    target = EIGEN_TRACE_SHARE * trace
    r_keep = int(np.searchsorted(cum, target) + 1)
    r_keep = min(r_keep, eigvals.size)
    lambdas = eigvals[:r_keep] / trace
    nu = k - 1
    # Imhof: p = 1/2 + (1/pi) Im int_0^inf cf(u) e^{-ixu/2} du / u, with
    # cf(u) = prod_r (1 - i lambda_r u)^{-nu/2}.  On the real axis that
    # integrand oscillates with an algebraic tail, so it is taken along the
    # ray u = t e^{-i alpha}, where it is analytic and decays exponentially;
    # the pole at 0 adds -alpha / pi.  alpha caps |cf| on the ray, at most
    # cos(alpha)^{-r nu / 2}, at 2.
    alpha = float(np.arccos(2.0 ** (-2.0 / (nu * lambdas.size))))
    ray = np.exp(-1j * alpha)

    def ray_sum(s: np.ndarray, x: float) -> float:
        # exp-sinh map t = exp(pi/2 sinh s) (Takahasi & Mori, 1974): dt/t =
        # pi/2 cosh s ds, so the summand is Im[cf(u) e^{-ixu/2}] pi/2 cosh s,
        # which falls double-exponentially at both ends of the window
        u = np.exp(0.5 * np.pi * np.sinh(s)) * ray
        z = np.multiply.outer(u, lambdas)
        z *= -1j
        log_cf = -0.5 * nu * np.log1p(z, out=z).sum(axis=1)
        return float(np.sum(np.exp(log_cf - 0.5j * x * u).imag * np.cosh(s))) * 0.5 * np.pi

    def tail(x: float) -> float:
        if x <= 0:
            return 1.0  # the mixture is nonnegative
        h = _TAIL_STEP
        n = round(_TAIL_WINDOW / h)
        value = h * ray_sum(h * np.arange(-n, n + 1), x)
        for level in range(1, _TAIL_LEVELS + 1):
            # halving the step keeps every node: only the odd multiples are new
            n, h = 2 * n, 0.5 * h
            previous, value = value, 0.5 * value + h * ray_sum(h * np.arange(1 - n, n, 2), x)
            diff = abs(value - previous)
            if diff <= 0.01 * TAIL_TOL:
                return float(np.clip(0.5 + (value - alpha) / np.pi, 0.0, 1.0))
        # A decisive statistic at high rank makes the ray integrand oscillate
        # too fast for the rule.  The Chernoff bound e^{-sx} prod_r
        # (1 - 2 s lambda_r)^{-nu/2}, at s = 1 / (4 lambda_max), may still
        # show that the tail is below the rule's accuracy.
        s = 0.25 / lambdas[0]
        if -s * x - 0.5 * nu * np.log1p(-2.0 * s * lambdas).sum() <= np.log(TAIL_TOL):
            return 0.0
        raise NumericalError(
            f"chi-square mixture tail did not converge at statistic {x:.6g} "
            f"(rank {lambdas.size}, last difference {diff:.3e})")

    return lambdas, tail


# -- L2-norm group comparison ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class TestResult:
    """Outcome of the bootstrap-calibrated L2 group-comparison test."""

    statistic: float
    p_value: float
    eigenvalues: np.ndarray
    trace: float
    groups: int
    B: int


def anova_l2_test(groups, loss, B: int, seed) -> TestResult:
    """Test equality of the k location functions by the integrated
    between-group sum of squares, bootstrap-normalized and calibrated
    against a chi-square mixture.

    Group g's bootstrap ensemble resamples replicate b on the substream
    (seed, g, b), and its full-sample fit is that group's location.  The
    pooled pointwise variance weights each group's bootstrap spread by its
    sample size, which keeps the normalization consistent for balanced and
    unbalanced designs alike.
    """
    groups = list(groups)
    k = len(groups)
    if k < 2:
        raise DataFormatError("need at least 2 groups")
    grid = groups[0].grid
    for g, ds in enumerate(groups[1:], start=1):
        if not grid.same_points(ds.grid):
            raise DataFormatError(f"group {g} is on a different grid")
    sizes = np.array([ds.n for ds in groups], dtype=float)
    if np.any(sizes < 2):
        raise DataFormatError("every group needs at least 2 curves")
    n_total = float(sizes.sum())
    key = as_key(seed)

    J = grid.size
    theta_hat = np.empty((k, J))
    xi = np.zeros((J, J))
    for g, ds in enumerate(groups):
        ens = bootstrap_ensemble(ds, loss, B, (*key, g))
        theta_hat[g] = ens.estimate.theta
        dev = ens.replicates - ens.replicates.mean(axis=0)
        # einsum, unlike the BLAS product, sums in the same order at any
        # BLAS thread count, so the result bytes do not depend on it
        xi += sizes[g] * np.einsum("bi,bj->ij", dev, dev)
    xi /= k * B
    # center on the first group's fit so byte-identical groups give SSR == 0
    # exactly instead of picking up grand-mean rounding noise
    dev = theta_hat - theta_hat[0]
    grand_dev = (sizes[:, None] * dev).sum(axis=0) / n_total
    ssr = (sizes[:, None] * (dev - grand_dev) ** 2).sum(axis=0)
    numerator = integrate(ssr, grid)
    lambdas, tail = eigen_mixture(xi, grid, k)  # rejects a trace that is not positive
    trace = float(np.dot(grid.weights, np.diag(xi)))
    statistic = numerator / trace
    return TestResult(statistic=float(statistic), p_value=tail(statistic),
                      eigenvalues=lambdas, trace=trace, groups=k, B=B)


# -- percentile bootstrap for one linear functional -----------------------------

@dataclass(frozen=True, eq=False)
class TrendCI:
    """Percentile bootstrap interval for the probe coefficient."""

    probe: str
    coefficient: float
    lower: float
    upper: float
    alpha: float
    B: int

    @property
    def significant(self) -> bool:
        """True when the interval excludes zero."""
        return self.lower > 0.0 or self.upper < 0.0


def trend_ci(dataset: Dataset, loss, probe, B: int, seed, alpha: float = 0.05,
             probe_name: str = "") -> TrendCI:
    """Percentile interval for integral( theta(t) * probe(t) dt ).

    The coefficient is that of the full-sample fit, and the interval takes
    the alpha/2 and 1 - alpha/2 quantiles of the B bootstrap replicates'
    coefficients; replicate b resamples on the substream (seed, b).
    """
    probe = np.asarray(probe, dtype=float)
    if probe.shape != dataset.grid.points.shape:
        raise DataFormatError("probe not aligned with grid")
    if not np.all(np.isfinite(probe)):
        raise DataFormatError("probe must be finite")
    if not 0.0 < alpha < 1.0:
        raise DataFormatError("alpha must lie in (0, 1)")
    return _percentile_interval(bootstrap_ensemble(dataset, loss, B, seed), probe, alpha,
                                probe_name)


def _percentile_interval(ensemble: BootstrapEnsemble, probe: np.ndarray, alpha: float,
                         name: str) -> TrendCI:
    """The :func:`trend_ci` interval of one ensemble, for a probe on its grid."""
    grid = ensemble.estimate.grid
    coefficient = integrate(ensemble.estimate.theta * probe, grid)
    coeffs = ensemble.replicates @ (grid.weights * probe)
    lower, upper = np.quantile(coeffs, [alpha / 2.0, 1.0 - alpha / 2.0])
    return TrendCI(probe=name, coefficient=float(coefficient), lower=float(lower),
                   upper=float(upper), alpha=float(alpha), B=len(coeffs))
