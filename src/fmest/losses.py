"""Loss families for marginal location estimation.

Each loss is a convex ``rho`` with nondecreasing score ``psi`` and a.e.
derivative ``psi_dot``:

* square:            rho(x) = x^2
* huber (cutoff c):  rho(x) = x^2/2 inside, c|x| - c^2/2 outside
* quantile (tau):    rho(x) = x (tau - 1{x<0})
* squantile (tau,h): quantile loss with the kink replaced on [-h, h] by the
  quadratic matching value and slope at +-h, anchored so rho(0) = 0

The huber cutoff ``c`` is a scalar, or an array whose last axis runs over
the J grid points and which broadcasts against residuals of shape (..., J):
one profile (J,) for every fit, or one profile per fit, such as (B, J) for B
bootstrap replicates.  A :class:`ScaledHuber` asks for the cutoffs
max(r * MAD(t), floor); ``estimator.solve_locations`` computes them from the
values it solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("square", "huber", "quantile", "squantile")


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A concrete loss (all tuning fixed).

    ``c`` is the huber cutoff: a positive, finite scalar, or an array of
    them whose last axis is the grid, e.g. (J,) or (B, J), that broadcasts
    against (..., J).  ``tau`` is the quantile level, ``h`` the smoothing
    half-width.
    """

    kind: str
    c: float | np.ndarray | None = None
    tau: float | None = None
    h: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "huber":
            c = np.array(self.c, dtype=float)  # a copy the caller cannot write
            if c.size == 0 or not np.all(np.isfinite(c)) or np.any(c <= 0):
                raise ValueError("huber loss needs positive, finite cutoffs c")
            c.setflags(write=False)
            object.__setattr__(self, "c", c if c.ndim else float(c))
        elif self.c is not None:
            raise ValueError(f"{self.kind} loss does not take a cutoff")
        if self.kind in ("quantile", "squantile"):
            if self.tau is None or not 0 < self.tau < 1:
                raise ValueError("quantile level tau must lie in (0, 1)")
        if self.kind == "squantile":
            if self.h is None or not np.isfinite(self.h) or self.h <= 0:
                raise ValueError("smoothing half-width h must be positive")


@dataclass(frozen=True)
class ScaledHuber:
    """Request for a huber loss with data-driven cutoff c(t) = max(r*MAD(t), floor)."""

    r: float

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r <= 0:
            raise ValueError("scale factor r must be positive")


def square() -> LossSpec:
    return LossSpec("square")


def huber(c: float | np.ndarray) -> LossSpec:
    return LossSpec("huber", c=c)


def quantile(tau: float) -> LossSpec:
    return LossSpec("quantile", tau=tau)


def smoothed_quantile(tau: float, h: float) -> LossSpec:
    return LossSpec("squantile", tau=tau, h=h)


# -- pointwise evaluations --------------------------------------------------

def _huber_rho(x, c):
    ax = np.abs(x)
    return np.where(ax <= c, 0.5 * x * x, c * ax - 0.5 * c * c)


def _huber_psi(x, c):
    return np.clip(x, -c, c)


def _huber_psi_dot(x, c):
    return (np.abs(x) <= c).astype(float)


def _quantile_rho(x, tau):
    return x * (tau - (x < 0))


def _quantile_psi(x, tau):
    out = np.where(x < 0, tau - 1.0, np.where(x > 0, tau, tau - 0.5))
    return np.asarray(out, dtype=float)


def _squantile_rho(x, tau, h):
    inner = x * x / (4.0 * h) + (tau - 0.5) * x
    outer = _quantile_rho(x, tau) - h / 4.0
    return np.where(np.abs(x) <= h, inner, outer)


def _squantile_psi(x, tau, h):
    inner = x / (2.0 * h) + (tau - 0.5)
    return np.where(x >= h, tau, np.where(x <= -h, tau - 1.0, inner))


def _squantile_psi_dot(x, tau, h):
    return np.where(np.abs(x) < h, 1.0 / (2.0 * h), 0.0)


def rho(loss: LossSpec, x):
    """Loss value(s) at residual(s) ``x``."""
    x = np.asarray(x, dtype=float)
    if loss.kind == "square":
        return x * x
    if loss.kind == "huber":
        return _huber_rho(x, loss.c)
    if loss.kind == "quantile":
        return _quantile_rho(x, loss.tau)
    return _squantile_rho(x, loss.tau, loss.h)


def psi(loss: LossSpec, x):
    """Score (d rho / dx, one-sided at kinks) at residual(s) ``x``."""
    x = np.asarray(x, dtype=float)
    if loss.kind == "square":
        return 2.0 * x
    if loss.kind == "huber":
        return _huber_psi(x, loss.c)
    if loss.kind == "quantile":
        return _quantile_psi(x, loss.tau)
    return _squantile_psi(x, loss.tau, loss.h)


def psi_dot(loss: LossSpec, x):
    """A.e. derivative of psi at residual(s) ``x``."""
    x = np.asarray(x, dtype=float)
    if loss.kind == "square":
        return np.full_like(x, 2.0)
    if loss.kind == "huber":
        return _huber_psi_dot(x, loss.c)
    if loss.kind == "quantile":
        return np.zeros_like(x)
    return _squantile_psi_dot(x, loss.tau, loss.h)


def parse_loss(text: str):
    """Parse a CLI loss string.

    Accepted forms: ``square``, ``huber:<c>``, ``quantile:<tau>``,
    ``squantile:<tau>,<h>``, ``huber-scaled:<r>``.  Returns a
    :class:`LossSpec`, or a :class:`ScaledHuber` request for the scaled form.
    """
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.strip()
    try:
        if name == "square":
            if arg:
                raise ValueError("square takes no parameters")
            return square()
        if name == "huber":
            return huber(float(arg))
        if name == "quantile":
            return quantile(float(arg))
        if name == "squantile":
            tau_s, _, h_s = arg.partition(",")
            if not h_s:
                raise ValueError("squantile needs tau and h")
            return smoothed_quantile(float(tau_s), float(h_s))
        if name == "huber-scaled":
            return ScaledHuber(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad loss spec {text!r}: {exc}") from None
    raise ValueError(f"unknown loss {text!r} (square | huber:<c> | quantile:<tau> | "
                     f"squantile:<tau>,<h> | huber-scaled:<r>)")
