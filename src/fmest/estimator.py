"""Pointwise marginal M-estimation on a shared grid.

At each grid point t the location estimate solves

    sum_i  mask_i(t) * psi(X_i(t) - theta)  =  0

over the curves that are observed at t.  Square loss has the closed form
(weighted mean), quantile loss is an exact weighted quantile computed by
sorting, and huber / smoothed-quantile losses are solved by bracketed
bisection accelerated with safeguarded Newton steps.  After the first step
the iteration scores only the columns that have not converged, gathered
into a smaller problem once few are left; the result is bit-identical to
scoring every column on every step.  Grid points nobody observes are
flagged ``undefined`` and can be filled afterwards by linear interpolation.

Array-level entry points (``solve_locations``) accept stacked value/mask
arrays of shape (..., n, J) so bootstrap replicates can be fitted in batch;
a large enough batch is split across the usable CPUs.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DataFormatError, Grid, PartialCurve
from .losses import LossSpec, ScaledHuber, huber, psi as loss_psi, psi_dot as loss_psi_dot

STATUS_SOLVED = "solved"
STATUS_INTERPOLATED = "interpolated"
STATUS_UNDEFINED = "undefined"

TOL_ROOT = 1e-10  # |psi-sum| tolerance per observing curve
MAX_ITER = 200
D_FLOOR = 1e-8
C_FLOOR = 1e-6
# The root solve gathers its unconverged columns into a smaller problem
# only when that drops at least this many (curve, column) entries from
# every later score call: a gather's fixed numpy overhead is about that of
# scoring 10,000 entries (2-core x86_64 host).
GATHER_MIN = 2048
# Stacked fits split across threads only in parts of at least this many
# (fit, curve, grid point) values.  On a 2-core x86_64 host, parts of 256,000
# (32 fits of 80 curves on 100 points) cut trend-scaled's call time by about
# 25%; parts of 128,000 (40 curves) made a loop of c7's test body 18% slower.
PART_MIN = 200_000


class NumericalError(RuntimeError):
    """A solver or denominator failed numerically.

    ``fit``, set by a stacked root solve, is the index of the failing fit
    along the leading axes of its values; otherwise it is None."""

    fit = None


@dataclass(frozen=True, eq=False)
class MEstimate:
    """Pointwise location fit: theta over the grid with per-point diagnostics."""

    grid: Grid
    theta: np.ndarray
    n_eff: np.ndarray
    status: np.ndarray


# -- array-level solvers ------------------------------------------------------

def _quantile_locations(values: np.ndarray, mask: np.ndarray, tau: float,
                        scratch: np.ndarray | None = None) -> np.ndarray:
    """Exact weighted tau-quantile along the curve axis (lower convention,
    midpoint averaging when tau * n_eff splits the mass exactly).

    ``scratch``, an array of ``values``' shape that is neither ``values`` nor
    ``mask``, receives the sorted columns: each column's observed values in
    ascending order, then +inf.  By default a new one is allocated.
    """
    srt = np.empty(np.shape(values)) if scratch is None else scratch
    srt.fill(np.inf)
    np.copyto(srt, values, where=mask)
    srt.sort(axis=-2)
    return _sorted_quantile(srt, mask.sum(axis=-2), tau)


def _sorted_quantile(srt: np.ndarray, m: np.ndarray, tau: float) -> np.ndarray:
    """The tau-quantile of :func:`_quantile_locations` from columns ``srt``
    whose first ``m`` entries are their sorted observed values."""
    km = tau * m
    k_round = np.rint(km)
    exact = (np.abs(km - k_round) <= 1e-9) & (k_round >= 1) & (k_round <= m - 1)
    k_ceil = np.ceil(km - 1e-9).astype(int)
    k_sel = np.where(exact, k_round.astype(int), np.clip(k_ceil, 1, np.maximum(m, 1)))
    lower = np.take_along_axis(srt, (k_sel - 1)[..., None, :], axis=-2)[..., 0, :]
    upper_idx = np.where(exact, k_sel, k_sel - 1)
    upper = np.take_along_axis(srt, upper_idx[..., None, :], axis=-2)[..., 0, :]
    theta = np.where(exact, 0.5 * (lower + upper), lower)
    return np.where(m > 0, theta, np.nan)


@dataclass(frozen=True)
class _Workspace:
    """Scratch arrays of one (..., n, J) shape for the MAD and root solves,
    18 bytes per value.

    ``v0`` holds the solve's zero-filled values, ``r`` its residuals, which
    the score clips in place, and ``hit`` and ``hit2`` its slope indicator.
    Before the root solve starts, ``solve_locations`` computes a
    :class:`ScaledHuber`'s MAD cutoffs in ``r`` (both sorts) and ``hit``.
    A caller may gather its values straight into ``v0``, zero at unobserved
    entries, and pass ``v0`` itself as the values: the solve then copies
    nothing.  A batched loop allocates one workspace and passes ``work[:k]``
    views of it, so that the large temporaries are not freed and faulted in
    again on every batch.  Fits that run concurrently need workspaces of
    their own, or disjoint slices of one.
    """

    v0: np.ndarray
    r: np.ndarray
    hit: np.ndarray
    hit2: np.ndarray

    @classmethod
    def empty(cls, shape) -> "_Workspace":
        return cls(np.empty(shape), np.empty(shape),
                   np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))

    def __getitem__(self, part: slice) -> "_Workspace":
        """Views of the entries ``part`` along the leading axis."""
        return _Workspace(**{name: a[part] for name, a in vars(self).items()})


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fit_parts(values: np.ndarray) -> list[slice]:
    """Contiguous slices of the stacked fits in (k, ..., n, J) ``values``,
    one per thread that works on them: at most one per usable CPU, and each
    at least PART_MIN values.  Any thread but the main one gets a single
    slice, because a solve there already runs inside its caller's parallel
    work (``simulate --threads``, say); so do unstacked (n, J) values."""
    if values.ndim < 3 or threading.current_thread() is not threading.main_thread():
        return [slice(None)]
    k = values.shape[0]
    threads = max(1, min(_usable_cpus(), k, values.size // PART_MIN))
    bounds = [k * i // threads for i in range(threads + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _by_parts(fn, values: np.ndarray) -> np.ndarray:
    """``fn(fits)`` for each part ``fits`` of :func:`_fit_parts` of the
    stacked ``values``, concatenated along the leading axis; the array of a
    single part is returned as is.  The first part runs on this thread and
    every other on a thread of its own.  Once every part has returned, the
    error of the first part that failed reaches the caller."""
    parts = _fit_parts(values)
    if len(parts) == 1:
        return fn(parts[0])
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        jobs = [pool.submit(fn, p) for p in parts[1:]]
        return np.concatenate([fn(parts[0])] + [job.result() for job in jobs])


class _RootProblem:
    """Workspace buffers and fused scoring for the bracketed root solve.

    For both kinked losses the score is a clip of an affine function z of the
    residual to [lo, hi], so the Newton slope indicator comes for free as
    lo <= z <= hi, taken before z is clipped in place.
    """

    def __init__(self, values, mask, loss: LossSpec, c, work: _Workspace):
        self.loss = loss
        self.v0 = work.v0
        if not _same_array(values, self.v0):
            self.v0.fill(0.0)
            np.copyto(self.v0, values, where=mask)
        self.mask = mask
        self.kind = loss.kind
        if np.ndim(c) == 0:
            self.cb = float(c)
        else:
            c = np.asarray(c, dtype=float)
            self.cb = c[..., None, :] if c.ndim > 1 else c
        if self.kind == "squantile":
            self.tau, self.inv = loss.tau, 1.0 / (2.0 * loss.h)
            self.lo, self.hi = self.tau - 1.0, self.tau
        else:
            self.lo, self.hi = -self.cb, self.cb
        self._r = work.r
        self._hit, self._hit2 = work.hit, work.hit2

    def restrict(self, cols) -> "_RootProblem":
        """The problem over the flat columns ``cols`` of the fitted (..., J)
        shape, as an (n, C) problem in buffers of its own.  Its ``score``
        takes theta at its own ``cols`` (a single column is repeated) and
        gives those columns' full-width scores bit for bit.
        """
        cols = np.repeat(cols, 2) if cols.size == 1 else cols
        n, J = self.v0.shape[-2:]
        lead, j = np.divmod(cols, J)

        # Two layout rules keep einsum's summation order over the curves, and
        # so every bit.  The scored arrays are row-major with the curve axis
        # first: the new workspace is, and so is the mask's copy, while the
        # gathers below are column-major, and einsum sums a contiguous curve
        # axis in another order.  And they are never one column wide: an
        # (n, 1) array sums in yet another order.
        def gather(a):
            return a.reshape(-1, n, J)[lead, :, j].T

        c = self.cb
        if np.ndim(c):
            c = np.broadcast_to(c, self.v0.shape)[..., 0, :].reshape(-1)[cols]
        sub = _RootProblem(gather(self.v0), np.ascontiguousarray(gather(self.mask)),
                           self.loss, c, _Workspace.empty((n, cols.size)))
        sub.cols = cols
        return sub

    def score(self, theta):
        """(psi-sum, slope) where slope = -d(psi-sum)/d theta >= 0."""
        z = np.subtract(self.v0, theta[..., None, :], out=self._r)
        if self.kind == "squantile":
            np.multiply(z, self.inv, out=z)
            z += self.tau - 0.5
        # observed entries on psi's linear piece, counted before the clip
        hit = np.greater_equal(z, self.lo, out=self._hit)
        hit &= np.less_equal(z, self.hi, out=self._hit2)
        hit &= self.mask
        # counted in unsigned integers, then cast: the same exact counts as a
        # float sum, without its casting reduction
        count = np.uint16 if hit.shape[-2] < 2 ** 16 else np.uint64
        s = np.add.reduce(hit.view(np.uint8), axis=-2, dtype=count).astype(float)
        if self.kind == "huber":
            np.minimum(z, self.hi, out=z)
            np.maximum(z, self.lo, out=z)
        else:
            np.clip(z, self.lo, self.hi, out=z)
            s *= self.inv
        g = np.einsum("...nj,...nj->...j", z, self.mask)
        return g, s


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` view the same memory in the same layout."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


def _flat_fixup(theta, values, mask, flat, c):
    """Center theta on its flat root interval.

    Where no observed residual falls inside the psi kink window, the root of
    the psi-sum is a whole interval delimited by the nearest breakpoints
    x_i +- c; the estimate is taken as that interval's midpoint (this is what
    makes tiny-cutoff huber agree with the midpoint median convention).
    A side without any breakpoint leaves theta unchanged.
    """
    t0 = theta[flat][:, None]
    w = np.broadcast_to(c, theta.shape)[flat][:, None]
    x = np.moveaxis(values, -2, -1)[flat]  # flagged columns, (F, n)
    seen = np.tile(np.moveaxis(mask, -2, -1)[flat], 2)
    bps = np.concatenate([x - w, x + w], axis=1)
    below = np.max(bps, axis=1, where=seen & (bps <= t0), initial=-np.inf)
    above = np.min(bps, axis=1, where=seen & (bps >= t0), initial=np.inf)
    both = (below > -np.inf) & (above < np.inf)
    theta[flat] = np.where(both, 0.5 * (below + above), t0[:, 0])
    return theta


def _resolve_loss(loss, values, mask, work: _Workspace | None = None) -> LossSpec:
    """The :class:`LossSpec` that ``loss`` stands for on these values: a
    :class:`ScaledHuber` becomes the huber loss with their :func:`mad_cutoffs`.
    Raises TypeError for anything that is not a loss."""
    if isinstance(loss, ScaledHuber):
        return huber(mad_cutoffs(values, mask, loss.r, work=work))
    if not isinstance(loss, LossSpec):
        raise TypeError(f"not a loss: {loss!r}")
    return loss


def solve_locations(values, mask, loss: LossSpec | ScaledHuber,
                    theta0: np.ndarray | None = None, *,
                    work: _Workspace | None = None) -> np.ndarray:
    """Location estimates along axis -2 (curves) for every grid point.

    ``values`` may hold NaN at masked-out entries.  Returns an array of shape
    values.shape minus the curve axis, NaN where no curve is observed.  An
    array huber cutoff must broadcast against that shape: (J,) shares one
    cutoff profile, (B, J) gives each of B stacked fits its own.  A
    :class:`ScaledHuber` is solved as the huber loss with the cutoffs
    :func:`mad_cutoffs` computes from these same values, one profile per fit.
    ``theta0`` warm-starts the kinked-loss root solve (clipped into the data
    bracket); it does not change what is being solved.  ``work``, a
    workspace of ``values``' shape, holds the solve's scratch arrays (by
    default they are allocated per call); it changes no result bit.
    ``values`` may be ``work.v0`` itself, zero at every unobserved entry,
    and then is not copied.  ``values`` and ``mask`` are never written.

    Called on the main thread, stacked (k, ..., n, J) fits with huber or
    smoothed-quantile losses are solved in contiguous parts, one thread each
    (see :func:`_fit_parts`); a :class:`ScaledHuber`'s MAD sorts split the
    same way.  Each fit's root reads only its own columns, so the result is
    the same, bit for bit, at any thread count.
    """
    mask = np.asarray(mask, dtype=bool)
    values = np.asarray(values, dtype=float)
    if values.shape != mask.shape or values.ndim < 2:
        raise DataFormatError("values/mask must share a (..., n, J) shape")
    if isinstance(loss, ScaledHuber) and work is None:
        work = _Workspace.empty(values.shape)  # shared by the MAD sorts and the root solve
    loss = _resolve_loss(loss, values, mask, work)

    if loss.kind == "square":
        n_eff = mask.sum(axis=-2)
        active = n_eff > 0
        v0 = np.where(mask, values, 0.0)
        with np.errstate(invalid="ignore"):
            theta = v0.sum(axis=-2) / np.where(active, n_eff, 1)
        return np.where(active, theta, np.nan)

    if loss.kind == "quantile":
        return _quantile_locations(values, mask, loss.tau,
                                   scratch=None if work is None else work.r)

    fitted = values.shape[:-2] + values.shape[-1:]
    c = loss.h if loss.kind == "squantile" else loss.c
    try:
        c = np.broadcast_to(c, fitted) if np.ndim(c) else c
    except ValueError:
        raise DataFormatError(f"cutoff of shape {np.shape(c)} does not broadcast "
                              f"against the fitted shape {fitted}") from None
    if theta0 is not None:
        theta0 = np.broadcast_to(theta0, fitted)
    if work is None:
        work = _Workspace.empty(values.shape)
    # each fit's root reads only its own columns, so parts change no bit
    return _by_parts(
        lambda fits: _root_solve(values[fits], mask[fits], loss, c[fits] if np.ndim(c) else c,
                                 None if theta0 is None else theta0[fits], work[fits],
                                 fits.start or 0),
        values)


def _root_solve(values, mask, loss: LossSpec, c, theta0, work: _Workspace,
                first: int = 0) -> np.ndarray:
    """The bracketed root solve of :func:`solve_locations` for a huber or
    smoothed-quantile loss, with ``c`` (its cutoff or half-width) and
    ``theta0`` broadcast to the fitted shape.  ``first`` is the index of
    the leading fit of ``values`` in the caller's stack; an error names the
    failing fit by its index there."""
    n_eff = mask.sum(axis=-2)
    active = n_eff > 0
    lo = np.min(values, axis=-2, where=mask, initial=np.inf)
    hi = np.max(values, axis=-2, where=mask, initial=-np.inf)
    lo = np.where(active, lo, 0.0)
    hi = np.where(active, hi, 0.0)
    if loss.kind == "squantile":
        # root may sit up to h outside the data range when tau != 1/2
        lo = lo - loss.h
        hi = hi + loss.h

    problem = _RootProblem(values, mask, loss, c, work)
    tol_vec = TOL_ROOT * np.maximum(n_eff, 1)
    if theta0 is None:
        theta = 0.5 * (lo + hi)
    else:
        theta = np.clip(theta0, lo, hi)
        theta = np.where(np.isfinite(theta), theta, 0.5 * (lo + hi))
    g, s = problem.score(theta)
    conv = ~active | (np.abs(g) <= tol_vec)
    eps = np.finfo(float).eps

    # from here on every step works on the flat columns in ``act`` only
    shape = theta.shape
    theta, lo, hi, g, s = (a.reshape(-1) for a in (theta, lo, hi, g, s))
    tol = tol_vec.reshape(-1)
    act = np.flatnonzero(~conv)
    n = values.shape[-2]
    sub = None  # act's columns and the recently converged ones, once few are left
    scored = theta.size  # columns of the problem being scored
    for it in range(MAX_ITER):
        if act.size == 0:
            break
        if (4 * act.size <= theta.size and 2 * act.size <= scored
                and n * (scored - act.size) >= GATHER_MIN):
            sub = problem.restrict(act)
            scored = sub.cols.size
            in_sub = np.arange(act.size)  # act's positions among sub.cols
        t_a, g_a, s_a = theta[act], g[act], s[act]
        pos = g_a >= 0
        lo_a = np.where(pos, t_a, lo[act])
        hi_a = np.where(pos, hi[act], t_a)
        mid = 0.5 * (lo_a + hi_a)
        if it % 4 == 3:
            cand = mid  # periodic pure bisection guarantees bracket shrinkage
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = t_a + g_a / s_a
            ok = (s_a > 0) & np.isfinite(newton) & (newton > lo_a) & (newton < hi_a)
            cand = np.where(ok, newton, mid)
        theta[act], lo[act], hi[act] = cand, lo_a, hi_a
        if sub is None:
            g_new, s_new = problem.score(theta.reshape(shape))
            g_a, s_a = g_new.reshape(-1)[act], s_new.reshape(-1)[act]
        else:
            g_new, s_new = sub.score(theta[sub.cols])
            g_a, s_a = g_new[in_sub], s_new[in_sub]
        g[act], s[act] = g_a, s_a
        width_floor = 8 * eps * np.maximum(1.0, np.maximum(np.abs(lo_a), np.abs(hi_a)))
        done = (np.abs(g_a) <= tol[act]) | ((hi_a - lo_a) <= width_floor)
        act = act[~done]
        if sub is not None:
            in_sub = in_sub[~done]
    theta, g, s = (a.reshape(shape) for a in (theta, g, s))

    bad = active & (np.abs(g) > tol_vec)
    if np.any(bad):
        key = tuple(int(i) for i in np.argwhere(bad)[0])
        fit = (first + key[0], *key[1:-1]) if len(key) > 1 else None
        where = f" for fit {', '.join(map(str, fit))}" if fit else ""
        exc = NumericalError(f"root solve did not reach tolerance{where} at grid point "
                             f"{key[-1]} (|psi-sum|={abs(g[key]):.3e})")
        exc.fit = fit
        raise exc

    flat = active & (s == 0)
    if np.any(flat):
        theta = _flat_fixup(theta, values, mask, flat, c)

    return np.where(active, theta, np.nan)


def interpolate_rows(theta: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Fill NaN entries of each row by linear interpolation over ``points``
    (constant extension beyond the first/last defined point)."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    out = np.atleast_2d(theta).copy()
    for row in out:
        bad = np.isnan(row)
        if not bad.any():
            continue
        good = ~bad
        if not good.any():
            raise NumericalError("no defined points to interpolate from")
        row[bad] = np.interp(points[bad], points[good], row[good])
    return out[0] if single else out


# -- dataset-level API --------------------------------------------------------

def fit(dataset: Dataset, choice) -> MEstimate:
    """Pointwise M-fit of the dataset under a :class:`LossSpec` or
    :class:`ScaledHuber`, with undefined points interpolated."""
    return interpolate_undefined(fit_marginal(dataset, choice))


def fit_marginal(dataset: Dataset, loss: LossSpec | ScaledHuber) -> MEstimate:
    """Pointwise M-fit of the dataset; undefined points are left NaN."""
    n_eff = dataset.mask.sum(axis=0)
    if not np.any(n_eff > 0):
        raise NumericalError("every grid point is unobserved")
    theta = solve_locations(dataset.values, dataset.mask, loss)
    status = np.where(n_eff > 0, STATUS_SOLVED, STATUS_UNDEFINED).astype(object)
    return MEstimate(dataset.grid, theta, n_eff.astype(int), status)


def interpolate_undefined(estimate: MEstimate) -> MEstimate:
    """Fill undefined grid points by linear interpolation between solved ones
    (constant extension at the boundary)."""
    und = estimate.status == STATUS_UNDEFINED
    if not und.any():
        return estimate
    if und.all():
        raise NumericalError("cannot interpolate: no solved grid points")
    theta = interpolate_rows(estimate.theta, estimate.grid.points)
    status = estimate.status.copy()
    status[und] = STATUS_INTERPOLATED
    return MEstimate(estimate.grid, theta, estimate.n_eff, status)


def mad_profile(dataset: Dataset, r: float) -> np.ndarray:
    """Huber cutoffs c(t) = max(r * MAD(t), C_FLOOR) of the whole dataset,
    shape (J,); points nobody observes get C_FLOOR (see :func:`mad_cutoffs`)."""
    return mad_cutoffs(dataset.values, dataset.mask, r)


def mad_cutoffs(values: np.ndarray, mask: np.ndarray, r: float, *,
                work: _Workspace | None = None) -> np.ndarray:
    """Huber cutoffs c(t) = max(r * MAD(t), C_FLOOR) along the curve axis;
    shape (..., J).

    MAD is the raw median absolute deviation of the observed values about
    their pointwise median (no normal-consistency factor); both medians use
    the midpoint convention for even counts.  Points nobody observes get
    C_FLOOR, which no solve reads: such a point has no root, and a fit
    interpolates its location from the solved ones.  ``work``, a workspace
    of ``values``' shape, holds the sort scratch; by default it is allocated
    per call.  ``values`` and ``mask`` are never written.

    Stacked (k, ..., n, J) fits are sorted in contiguous parts on threads of
    their own (see :func:`_fit_parts`); each fit's cutoffs read only its own
    values, so they are the same bits at any thread count.
    """
    if not np.isfinite(r) or r <= 0:
        raise ValueError("scale factor r must be positive")
    values, mask = np.asarray(values), np.asarray(mask)
    if work is None:
        work = _Workspace.empty(values.shape)
    mad = _by_parts(lambda fits: _mad(values[fits], mask[fits], work[fits]), values)
    return np.fmax(r * mad, C_FLOOR)


def _mad(values, mask, work: _Workspace) -> np.ndarray:
    """Raw MAD along the curve axis.  The median sorts each column into
    ``work.r``; |x - med| then overwrites those sorted values, +inf fills
    the entries past each column's observed count, and a second in-place
    sort gives the deviations' median."""
    med = _quantile_locations(values, mask, 0.5, scratch=work.r)
    dev = np.subtract(work.r, med[..., None, :], out=work.r)
    np.abs(dev, out=dev)
    m = mask.sum(axis=-2)
    unobserved = np.greater_equal(np.arange(values.shape[-2])[:, None], m[..., None, :],
                                  out=work.hit)
    np.copyto(dev, np.inf, where=unobserved)
    dev.sort(axis=-2)
    return _sorted_quantile(dev, m, 0.5)


def influence_function(dataset: Dataset, loss: LossSpec | ScaledHuber, theta_hat: np.ndarray,
                       y_star: PartialCurve) -> np.ndarray:
    """First-order effect of adding the curve ``y_star`` to the sample.

        IF(t) = mask*(t) psi(Y*(t) - theta(t)) / D(t),
        D(t)  = (1/n) sum_i mask_i(t) psi_dot(X_i(t) - theta(t))

    A :class:`ScaledHuber` uses the dataset's MAD cutoffs, the ones
    :func:`fit` solves with, held fixed.  Raises TypeError for anything
    that is not a loss, DataFormatError when ``y_star`` does not lie on the
    dataset's grid, and NumericalError when the denominator D falls to
    D_FLOOR or below at any grid point.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != dataset.grid.points.shape:
        raise DataFormatError("theta_hat not aligned with grid")
    if y_star.values.size != dataset.grid.size:
        raise DataFormatError(f"curve {y_star.id!r} has {y_star.values.size} points, "
                              f"the grid has {dataset.grid.size}")
    if not np.all(np.isfinite(theta_hat)):
        raise DataFormatError("theta_hat must be finite (interpolate undefined points first)")
    values = dataset.values
    mask = dataset.mask
    loss = _resolve_loss(loss, values, mask)
    resid = np.where(mask, values, theta_hat) - theta_hat
    d = np.where(mask, loss_psi_dot(loss, resid), 0.0).sum(axis=0) / dataset.n
    low = d <= D_FLOOR
    if low.any():
        j = int(np.flatnonzero(low)[0])
        raise NumericalError(
            f"estimating-equation denominator D(t)={d[j]:.3e} at grid point {j} "
            f"(t={dataset.grid.points[j]:g}) is at or below {D_FLOOR:g}"
        )
    y_res = np.where(y_star.mask, y_star.values, theta_hat) - theta_hat
    return np.where(y_star.mask, loss_psi(loss, y_res), 0.0) / d

