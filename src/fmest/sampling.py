"""Observation-mask generators and coverage diagnostics.

Masks are drawn per curve from independent substreams keyed by
(seed, curve index), so parallel and serial generation agree.  A draw whose
mask has no observed point is rejected and redrawn (the redraw count is
available on request); the analytic coverage functions returned by
:func:`analytic_b` condition on that rejection so they describe exactly what
:func:`generate_masks` produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, Grid
from .seeding import as_key, reseeded, stream_states

SCHEME_KINDS = ("complete", "random-interval", "fixed-intervals", "snippet", "sparse")

_MAX_REDRAWS = 10_000


@dataclass(frozen=True)
class MissingScheme:
    """How observation masks are generated on a grid.

    kind = "complete":        every point observed.
    kind = "random-interval": one interval with Beta(a, b) endpoints, each
        draw affinely rescaled into [epsilon_trim, 1 - epsilon_trim].
    kind = "fixed-intervals": one interval picked uniformly among the pieces
        cut by ``breakpoints`` (pieces are half-open, the last one closed).
    kind = "snippet":         an interval of fixed width d with uniform start.
    kind = "sparse":          iid Bernoulli(p) points inside a random-interval
        envelope with Beta(beta_a, beta_b) endpoints.
    """

    kind: str
    beta_a: float = 0.3
    beta_b: float = 0.3
    breakpoints: tuple = ()
    d: float | None = None
    p: float | None = None
    epsilon_trim: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise DataFormatError(f"unknown missing scheme {self.kind!r}")
        if not 0 <= self.epsilon_trim < 0.5:
            raise DataFormatError("epsilon_trim must lie in [0, 0.5)")
        if self.kind in ("random-interval", "sparse"):
            if self.beta_a <= 0 or self.beta_b <= 0:
                raise DataFormatError("Beta parameters must be positive")
        if self.kind == "fixed-intervals":
            bp = tuple(float(b) for b in self.breakpoints)
            object.__setattr__(self, "breakpoints", bp)
            if not bp:
                raise DataFormatError("fixed-intervals needs at least one breakpoint")
            if any(not 0 < b < 1 for b in bp) or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
                raise DataFormatError("breakpoints must be strictly increasing inside (0, 1)")
        if self.kind == "snippet":
            if self.d is None or not 0 < self.d < 1:
                raise DataFormatError("snippet width d must lie in (0, 1)")
        if self.kind == "sparse":
            if self.p is None or not 0 < self.p < 1:
                raise DataFormatError("sparse observation probability p must lie in (0, 1)")

    def describe(self) -> str:
        if self.kind == "complete":
            return "complete"
        if self.kind == "random-interval":
            return f"random-interval:{self.beta_a:g},{self.beta_b:g}"
        if self.kind == "fixed-intervals":
            return "fixed-intervals:" + ",".join(f"{b:g}" for b in self.breakpoints)
        if self.kind == "snippet":
            return f"snippet:{self.d:g}"
        return f"sparse:{self.p:g}"


def complete() -> MissingScheme:
    return MissingScheme("complete")


def random_interval(beta_a: float = 0.3, beta_b: float = 0.3,
                    epsilon_trim: float = 0.0) -> MissingScheme:
    return MissingScheme("random-interval", beta_a=beta_a, beta_b=beta_b,
                         epsilon_trim=epsilon_trim)


def fixed_intervals(breakpoints, epsilon_trim: float = 0.0) -> MissingScheme:
    return MissingScheme("fixed-intervals", breakpoints=tuple(breakpoints),
                         epsilon_trim=epsilon_trim)


def snippet(d: float, epsilon_trim: float = 0.0) -> MissingScheme:
    return MissingScheme("snippet", d=d, epsilon_trim=epsilon_trim)


def bernoulli_sparse(p: float, beta_a: float = 1.0, beta_b: float = 1.0,
                     epsilon_trim: float = 0.0) -> MissingScheme:
    return MissingScheme("sparse", p=p, beta_a=beta_a, beta_b=beta_b,
                         epsilon_trim=epsilon_trim)


def parse_scheme(text: str, epsilon_trim: float = 0.0) -> MissingScheme:
    """Parse a CLI scheme string such as ``random-interval:0.3,0.3``."""
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.strip()
    try:
        if name == "complete":
            if arg:
                raise DataFormatError("complete takes no parameters")
            return complete()
        if name == "random-interval":
            a_s, _, b_s = arg.partition(",")
            return random_interval(float(a_s), float(b_s), epsilon_trim)
        if name == "fixed-intervals":
            bps = tuple(float(x) for x in arg.split(",") if x.strip())
            return fixed_intervals(bps, epsilon_trim)
        if name == "snippet":
            return snippet(float(arg), epsilon_trim)
        if name == "sparse":
            return bernoulli_sparse(float(arg), epsilon_trim=epsilon_trim)
    except (ValueError, TypeError) as exc:
        raise DataFormatError(f"bad scheme spec {text!r}: {exc}") from None
    raise DataFormatError(
        f"unknown scheme {text!r} (complete | random-interval:<a>,<b> | "
        f"fixed-intervals:<b1>,... | snippet:<d> | sparse:<p>)"
    )


def _interval_edges(scheme: MissingScheme):
    return (0.0, *scheme.breakpoints, 1.0)


def _piece_spans(scheme: MissingScheme, points: np.ndarray) -> np.ndarray:
    """(m, 2) grid-index ranges [k0, k1) of the fixed-intervals pieces:
    half-open pieces, the last one closed."""
    edges = _interval_edges(scheme)
    spans = np.stack([np.searchsorted(points, edges[:-1]),
                      np.searchsorted(points, edges[1:])], axis=1)
    spans[-1, 1] = np.searchsorted(points, edges[-1], side="right")
    return spans


def _window_spans(scheme: MissingScheme, raw: np.ndarray, points: np.ndarray,
                  pieces) -> tuple[np.ndarray, np.ndarray]:
    """Grid-index ranges [k0, k1) inside the observation windows (the sparse
    envelopes) of a batch of raw draws: piece indices for fixed-intervals,
    snippet starts, or (m, 2) Beta pairs, which are rescaled into
    [epsilon_trim, 1 - epsilon_trim]."""
    if scheme.kind == "fixed-intervals":
        return pieces[raw, 0], pieces[raw, 1]
    if scheme.kind == "snippet":
        lo, hi = raw, raw + scheme.d
    else:
        eps = scheme.epsilon_trim
        v = eps + (1.0 - 2.0 * eps) * raw
        lo, hi = v.min(axis=1), v.max(axis=1)
    return np.searchsorted(points, lo), np.searchsorted(points, hi, side="right")


def generate_masks(scheme: MissingScheme, n: int, grid: Grid, rng_seed,
                   return_redraws: bool = False):
    """(n, J) boolean masks; every row has at least one observed point.

    Curve i draws on the substream (rng_seed, i), redraws included.  The
    loop over curves only takes each first draw's raw variates; their
    windows, index ranges and masks are then computed for all curves at
    once.  A curve whose first mask is empty redraws on its own stream,
    reseeded from the state the batched derivation gave it and replayed
    past that first draw.
    """
    if n < 1:
        raise DataFormatError("need at least one curve")
    key = as_key(rng_seed)
    J = grid.size
    if scheme.kind == "complete":
        masks = np.ones((n, J), dtype=bool)
        return (masks, 0) if return_redraws else masks
    points = grid.points
    pieces = _piece_spans(scheme, points) if scheme.kind == "fixed-intervals" else None
    uniforms = np.empty((n, J)) if scheme.kind == "sparse" else None
    if scheme.kind == "fixed-intervals":
        raw = np.empty(n, dtype=np.intp)
        count = len(pieces)

        def draw(rng, i):
            raw[i] = rng.integers(0, count)
    elif scheme.kind == "snippet":
        raw = np.empty(n)
        width = 1.0 - scheme.d

        def draw(rng, i):
            raw[i] = rng.uniform(0.0, width)
    else:
        raw = np.empty((n, 2))
        a, b = scheme.beta_a, scheme.beta_b

        def draw(rng, i):
            raw[i] = rng.beta(a, b, size=2)
            if uniforms is not None:
                rng.random(out=uniforms[i])

    def build(rows):
        k0, k1 = _window_spans(scheme, raw[rows], points, pieces)
        cols = np.arange(J)
        masks = (cols >= k0[:, None]) & (cols < k1[:, None])
        if uniforms is not None:
            masks &= uniforms[rows] < scheme.p
        return masks

    states = stream_states(key, n)
    for i, rng in enumerate(reseeded(states)):
        draw(rng, i)
    masks = build(slice(None))
    empty = np.flatnonzero(~masks.any(axis=1)).tolist()
    redraws = len(empty)
    for i, rng in zip(empty, reseeded([states[i] for i in empty])):
        draw(rng, i)  # the empty first draw again
        for _ in range(_MAX_REDRAWS - 1):
            draw(rng, i)
            masks[i] = build(slice(i, i + 1))
            if masks[i].any():
                break
            redraws += 1
        else:
            raise DataFormatError(
                f"scheme {scheme.describe()} produced {_MAX_REDRAWS} empty masks in a row; "
                f"it is incompatible with this grid"
            )
    return (masks, redraws) if return_redraws else masks


def empirical_b(masks: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise observation frequency over curves."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != grid.size:
        raise DataFormatError("masks not aligned with grid")
    return masks.mean(axis=0)


def sup_deviation(masks: np.ndarray, b_true: np.ndarray) -> float:
    """sup_t | mean_i mask_i(t) - b_true(t) |, the W_n diagnostic."""
    masks = np.asarray(masks, dtype=bool)
    b_true = np.asarray(b_true, dtype=float)
    if masks.shape[1] != b_true.size:
        raise DataFormatError("masks/b_true misaligned")
    return float(np.max(np.abs(masks.mean(axis=0) - b_true)))


def _envelope_cdf(scheme: MissingScheme, points: np.ndarray) -> np.ndarray:
    """Beta(beta_a, beta_b) CDF at the points mapped back from the trimmed
    window: the chance that one raw endpoint falls at or below each point.

    ``scipy.special.betainc`` is imported here, on first use, so that
    importing fmest loads no scipy module; it is bit-equal to
    ``scipy.stats.beta.cdf``.
    """
    from scipy.special import betainc

    u = np.clip((points - scheme.epsilon_trim) / (1.0 - 2.0 * scheme.epsilon_trim), 0.0, 1.0)
    return betainc(scheme.beta_a, scheme.beta_b, u)


def _empty_prob(scheme: MissingScheme, points: np.ndarray, F: np.ndarray | None = None) -> float:
    """Probability that a raw draw observes no grid point (the redraw event).

    ``F`` is :func:`_envelope_cdf` at the points; random-interval needs it.
    """
    if scheme.kind == "random-interval":
        gaps = np.diff(F)
        return float(F[0] ** 2 + (1.0 - F[-1]) ** 2 + np.sum(gaps ** 2))
    if scheme.kind == "snippet":
        d = scheme.d
        total = 0.0
        lo_gap = points[0] - d
        if lo_gap > 0:
            total += lo_gap
        hi_gap = (1.0 - d) - points[-1]
        if hi_gap > 0:
            total += hi_gap
        for t1, t2 in zip(points[:-1], points[1:]):
            if t2 - t1 > d:
                total += (t2 - t1) - d
        return total / (1.0 - d)
    return 0.0


def analytic_b(scheme: MissingScheme, grid: Grid) -> np.ndarray:
    """Closed-form observation probability b(t) at the grid points.

    The value is conditioned on the mask being nonempty, matching the redraw
    rule of :func:`generate_masks`.  For the sparse scheme the (tiny) redraw
    correction has no closed form and is omitted.
    """
    points = grid.points
    if scheme.kind == "complete":
        return np.ones_like(points)
    if scheme.kind == "random-interval":
        F = _envelope_cdf(scheme, points)
        raw = 1.0 - F ** 2 - (1.0 - F) ** 2
        return raw / (1.0 - _empty_prob(scheme, points, F))
    if scheme.kind == "fixed-intervals":
        spans = [(k0, k1) for k0, k1 in _piece_spans(scheme, points) if k0 < k1]
        if not spans:
            raise DataFormatError("no interval contains a grid point")
        b = np.zeros_like(points)
        for k0, k1 in spans:
            b[k0:k1] = 1.0 / len(spans)
        return b
    if scheme.kind == "snippet":
        d = scheme.d
        raw = np.clip(np.minimum(points, 1.0 - d) - np.maximum(0.0, points - d), 0.0, None) / (1.0 - d)
        return raw / (1.0 - _empty_prob(scheme, points))
    # sparse: Bernoulli(p) inside the raw envelope
    F = _envelope_cdf(scheme, points)
    return scheme.p * (1.0 - F ** 2 - (1.0 - F) ** 2)
