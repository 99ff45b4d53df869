"""Loss families: values, kinks, gradients, parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmest.losses import (
    LossSpec,
    ScaledHuber,
    huber,
    parse_loss,
    psi,
    psi_dot,
    quantile,
    rho,
    smoothed_quantile,
    square,
)

finite = st.floats(-50.0, 50.0, allow_nan=False)


def test_square_values():
    l = square()
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(rho(l, x), [4.0, 0.0, 9.0])
    np.testing.assert_array_equal(psi(l, x), [-4.0, 0.0, 6.0])
    np.testing.assert_array_equal(psi_dot(l, x), [2.0, 2.0, 2.0])


def test_huber_values_and_kink():
    l = huber(1.5)
    assert rho(l, 1.0) == pytest.approx(0.5)
    assert rho(l, 4.0) == pytest.approx(1.5 * 4.0 - 0.5 * 1.5 ** 2)
    # continuous at the cutoff
    assert rho(l, 1.5) == pytest.approx(rho(l, 1.5 + 1e-12), abs=1e-9)
    np.testing.assert_array_equal(psi(l, np.array([-9.0, 0.3, 9.0])), [-1.5, 0.3, 1.5])
    np.testing.assert_array_equal(psi_dot(l, np.array([-1.5, 0.0, 1.6])), [1.0, 1.0, 0.0])


def test_huber_rho_is_even():
    l = huber(0.8)
    x = np.linspace(-5, 5, 41)
    np.testing.assert_allclose(rho(l, x), rho(l, -x), rtol=0, atol=0)


def test_quantile_values():
    l = quantile(0.3)
    assert rho(l, 2.0) == pytest.approx(0.6)
    assert rho(l, -2.0) == pytest.approx(1.4)
    assert psi(l, 1.0) == pytest.approx(0.3)
    assert psi(l, -1.0) == pytest.approx(-0.7)
    assert psi(l, 0.0) == pytest.approx(-0.2)  # tau - 1/2 at the kink
    assert np.all(psi_dot(l, np.array([-1.0, 0.0, 1.0])) == 0)


def test_smoothed_quantile_anchored_and_continuous():
    tau, h = 0.3, 0.05
    l = smoothed_quantile(tau, h)
    assert rho(l, 0.0) == pytest.approx(0.0)
    for edge in (h, -h):
        inner = rho(l, edge * (1 - 1e-9))
        outer = rho(l, edge * (1 + 1e-9))
        assert inner == pytest.approx(outer, abs=1e-9)
    # psi continuous and clipped outside
    assert psi(l, h) == pytest.approx(tau)
    assert psi(l, -h) == pytest.approx(tau - 1.0)
    assert psi(l, 10.0) == tau
    assert psi(l, -10.0) == tau - 1.0
    assert psi_dot(l, 0.0) == pytest.approx(1.0 / (2 * h))
    assert psi_dot(l, 2 * h) == 0.0


@settings(max_examples=150, deadline=None)
@given(x=finite, which=st.sampled_from(["square", "huber", "quantile", "squantile"]))
def test_psi_matches_rho_gradient(x, which):
    """Central finite difference of rho agrees with psi away from kinks."""
    losses = {
        "square": square(),
        "huber": huber(0.8),
        "quantile": quantile(0.35),
        "squantile": smoothed_quantile(0.35, 0.1),
    }
    l = losses[which]
    # keep clear of the kinks where one-sided derivatives differ
    kinks = {"square": (), "huber": (-0.8, 0.8), "quantile": (0.0,),
             "squantile": (-0.1, 0.1)}[which]
    eps = 1e-6
    if any(abs(x - k) < 10 * eps for k in kinks):
        x += 20 * eps
    num = (rho(l, x + eps) - rho(l, x - eps)) / (2 * eps)
    assert float(psi(l, x)) == pytest.approx(float(num), abs=5e-6, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite)
def test_psi_is_monotone(a, b):
    lo, hi = sorted((a, b))
    for l in (square(), huber(1.1), quantile(0.7), smoothed_quantile(0.7, 0.2)):
        assert float(psi(l, hi)) >= float(psi(l, lo))


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("banana")
    with pytest.raises(ValueError):
        huber(-1.0)
    with pytest.raises(ValueError):
        huber(None)
    with pytest.raises(ValueError):
        quantile(0.0)
    with pytest.raises(ValueError):
        smoothed_quantile(0.5, 0.0)
    with pytest.raises(ValueError):
        LossSpec("quantile", tau=0.5, c=np.ones(3))
    with pytest.raises(ValueError):
        LossSpec("square", c=0.8)
    with pytest.raises(ValueError):
        huber(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ScaledHuber(0.0)


def test_tuning_profile_cutoff_lookup():
    """An array cutoff (a tuning profile) is kept as a read-only copy."""
    prof = np.array([0.5, 1.0, 2.0])
    l = huber(prof)
    np.testing.assert_array_equal(l.c, prof)
    assert l.c is not prof and not l.c.flags.writeable
    assert huber(0.8).c == 0.8
    # the profile broadcasts over the trailing grid axis
    np.testing.assert_array_equal(psi(l, np.full(3, 5.0)), prof)
    np.testing.assert_array_equal(psi(l, np.full((2, 3), -5.0)), -np.tile(prof, (2, 1)))


def _fields(loss):
    if isinstance(loss, ScaledHuber):
        return ("huber-scaled", loss.r)
    return (loss.kind, loss.c, loss.tau, loss.h)


def test_describe():
    """Each constructor sets exactly the fields that describe its loss."""
    assert _fields(square()) == ("square", None, None, None)
    assert _fields(huber(0.8)) == ("huber", 0.8, None, None)
    assert _fields(quantile(0.25)) == ("quantile", None, 0.25, None)
    assert _fields(smoothed_quantile(0.5, 0.05)) == ("squantile", None, 0.5, 0.05)
    assert _fields(ScaledHuber(3)) == ("huber-scaled", 3)


def test_parse_loss_round_trip():
    cases = {"square": square(), "huber:0.8": huber(0.8), "quantile:0.25": quantile(0.25),
             "squantile:0.5,0.05": smoothed_quantile(0.5, 0.05),
             "huber-scaled:3": ScaledHuber(3.0)}
    for text, loss in cases.items():
        assert _fields(parse_loss(text)) == _fields(loss)


def test_parse_loss_rejects_garbage():
    for bad in ["", "hube:1", "huber", "huber:x", "squantile:0.5", "square:2",
                "quantile:", "huber-scaled:-1"]:
        with pytest.raises(ValueError):
            parse_loss(bad)
