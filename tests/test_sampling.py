"""Mask generators, their analytic coverage functions, and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmest.data import DataFormatError, Grid
from fmest.sampling import (
    MissingScheme,
    analytic_b,
    bernoulli_sparse,
    complete,
    empirical_b,
    fixed_intervals,
    generate_masks,
    parse_scheme,
    random_interval,
    snippet,
    sup_deviation,
)
from fmest.seeding import as_key, make_rng

GRID = Grid.uniform(100)


def test_scheme_validation():
    with pytest.raises(DataFormatError):
        MissingScheme("bogus")
    with pytest.raises(DataFormatError):
        random_interval(-0.1, 0.3)
    with pytest.raises(DataFormatError):
        fixed_intervals([])
    with pytest.raises(DataFormatError):
        fixed_intervals([0.7, 0.3])
    with pytest.raises(DataFormatError):
        snippet(1.5)
    with pytest.raises(DataFormatError):
        bernoulli_sparse(0.0)
    with pytest.raises(DataFormatError):
        random_interval(epsilon_trim=0.5)


def test_parse_scheme_round_trip():
    for text in ["complete", "random-interval:0.3,0.3", "fixed-intervals:0.33,0.67",
                 "snippet:0.2", "sparse:0.1"]:
        assert parse_scheme(text).describe() == text
    with pytest.raises(DataFormatError):
        parse_scheme("random-interval:0.3")
    with pytest.raises(DataFormatError):
        parse_scheme("martian")


def test_complete_masks_all_ones():
    m = generate_masks(complete(), 7, GRID, 1)
    assert m.shape == (7, 100)
    assert m.all()


def test_every_mask_has_an_observation():
    for scheme in (random_interval(), fixed_intervals([0.5]), snippet(0.2),
                   bernoulli_sparse(0.1)):
        m = generate_masks(scheme, 50, GRID, 42)
        assert m.any(axis=1).all(), scheme.describe()


def test_masks_deterministic_and_per_curve():
    """Curve i's mask depends only on (seed, i), so prefixes agree."""
    a = generate_masks(random_interval(), 10, GRID, 9)
    b = generate_masks(random_interval(), 25, GRID, 9)
    np.testing.assert_array_equal(a, b[:10])
    c = generate_masks(random_interval(), 10, GRID, 10)
    assert not np.array_equal(a, c)


def _reference_draw(scheme, rng, points):
    """One raw mask draw as a (J,) array, on the curve's own generator."""
    def rescale(v):
        return scheme.epsilon_trim + (1.0 - 2.0 * scheme.epsilon_trim) * v

    if scheme.kind == "fixed-intervals":
        edges = (0.0, *scheme.breakpoints, 1.0)
        m = len(edges) - 1
        j = int(rng.integers(0, m))
        inside = (points >= edges[j]) & (points < edges[j + 1])
        if j == m - 1:
            inside |= points == edges[-1]
        return inside
    if scheme.kind == "snippet":
        start = rng.uniform(0.0, 1.0 - scheme.d)
        return (points >= start) & (points <= start + scheme.d)
    v = rescale(rng.beta(scheme.beta_a, scheme.beta_b, size=2))
    window = (points >= min(v)) & (points <= max(v))
    if scheme.kind == "random-interval":
        return window
    return window & (rng.random(points.size) < scheme.p)


def _reference_masks(scheme, n, grid, seed):
    """Per-curve reference: curve i redraws on make_rng((seed, i)) until
    its mask observes a grid point."""
    masks = np.zeros((n, grid.size), dtype=bool)
    redraws = 0
    for i in range(n):
        rng = make_rng((*as_key(seed), i))
        while not masks[i].any():
            masks[i] = _reference_draw(scheme, rng, grid.points)
            redraws += not masks[i].any()
    return masks, redraws


@pytest.mark.parametrize("scheme", [
    random_interval(),
    random_interval(2.0, 5.0, epsilon_trim=0.05),
    random_interval(0.01, 0.01),  # endpoints often exactly 0 or 1, on grid points
    fixed_intervals([0.5]),
    fixed_intervals([0.1, 0.2, 0.5]),  # the middle piece misses the 5-point grid
    snippet(0.2),
    snippet(0.05, epsilon_trim=0.1),
    bernoulli_sparse(0.1),
    bernoulli_sparse(0.5, beta_a=5, beta_b=5, epsilon_trim=0.05),
], ids=lambda s: s.describe() + f"-trim{s.epsilon_trim:g}")
def test_masks_equal_per_curve_reference(scheme):
    """Masks and redraw counts equal the per-curve make_rng loop bit for bit,
    on grids with a point on a breakpoint, t = 1 exactly, and (J = 5) redraws."""
    grids = [GRID, Grid.uniform(5), Grid.uniform(7),
             Grid.from_unit_points([0.0, 0.1, 0.5, 0.93, 1.0 - 1e-13])]
    for grid in grids:
        for seed in (3, (11, 2**40), (0, 5, 1)):
            masks, redraws = generate_masks(scheme, 150, grid, seed, return_redraws=True)
            ref, ref_redraws = _reference_masks(scheme, 150, grid, seed)
            np.testing.assert_array_equal(masks, ref)
            assert redraws == ref_redraws
            if grid.size == 5 and scheme.breakpoints != (0.5,):
                assert redraws > 0  # both pieces of fixed-intervals:0.5 hold points


def test_random_interval_is_contiguous():
    m = generate_masks(random_interval(), 200, GRID, 3)
    for row in m:
        on = np.flatnonzero(row)
        assert np.array_equal(on, np.arange(on[0], on[-1] + 1))


def test_random_interval_trim_restricts_support():
    eps = 0.05
    m = generate_masks(random_interval(epsilon_trim=eps), 300, GRID, 4)
    cols = np.flatnonzero(m.any(axis=0))
    assert GRID.points[cols[0]] >= eps - 1e-12
    assert GRID.points[cols[-1]] <= 1 - eps + 1e-12


def test_fixed_intervals_partition():
    scheme = fixed_intervals([1 / 3, 2 / 3])
    m = generate_masks(scheme, 120, GRID, 5)
    edges = (0.0, 1 / 3, 2 / 3, 1.0)
    for row in m:
        on = GRID.points[row]
        # the whole observed stretch sits inside exactly one piece
        piece = [j for j in range(3)
                 if on[0] >= edges[j] - 1e-12 and on[-1] <= edges[j + 1] + 1e-12]
        assert piece, "mask crosses a breakpoint"
    # half-open pieces: a grid point exactly on an interior breakpoint
    # belongs to the right piece, so the left piece never contains it
    grid4 = Grid.uniform(7)  # contains t = 0.5 exactly
    m4 = generate_masks(fixed_intervals([0.5]), 300, grid4, 6)
    left = m4[m4[:, 0]]  # draws of the first piece
    assert left.size and not left[:, 3].any()


def test_snippet_width_inclusive():
    d = 0.2
    m = generate_masks(snippet(d), 300, GRID, 7)
    lengths = m.sum(axis=1)
    # a closed window of width d on spacing h covers floor(d/h) or
    # floor(d/h)+1 grid points depending on its phase
    h = GRID.points[1] - GRID.points[0]
    assert lengths.min() >= int(d / h)
    assert lengths.max() <= int(d / h) + 1


def test_sparse_respects_envelope():
    m = generate_masks(bernoulli_sparse(0.5, beta_a=5, beta_b=5), 100, GRID, 8)
    for row in m:
        on = np.flatnonzero(row)
        assert on.size >= 1


def test_empirical_b_and_sup_deviation():
    m = np.array([[True, False], [True, True]])
    g = Grid.uniform(2)
    np.testing.assert_allclose(empirical_b(m, g), [1.0, 0.5])
    assert sup_deviation(m, np.array([1.0, 1.0])) == 0.5
    with pytest.raises(DataFormatError):
        empirical_b(m, GRID)


@pytest.mark.parametrize("scheme", [
    random_interval(),
    random_interval(2.0, 5.0),
    fixed_intervals([0.33, 0.67]),
    snippet(0.2),
    bernoulli_sparse(0.3),
], ids=lambda s: s.describe())
def test_analytic_b_matches_large_sample(scheme):
    """b_hat at n = 20000 sits within 0.02 of the closed form everywhere."""
    masks = generate_masks(scheme, 20_000, GRID, 123)
    b = analytic_b(scheme, GRID)
    assert sup_deviation(masks, b) < 0.02


def test_analytic_b_complete():
    np.testing.assert_array_equal(analytic_b(complete(), GRID), np.ones(100))


def test_analytic_b_fixed_intervals_uniform_choice():
    b = analytic_b(fixed_intervals([0.5]), GRID)
    np.testing.assert_allclose(b, 0.5)


def test_analytic_b_conditions_on_nonempty_draws():
    """With a coarse grid and a tight scheme, empty draws are common; the
    analytic curve must describe the redrawn (conditional) distribution."""
    coarse = Grid.from_unit_points([0.0, 0.45, 0.55, 1.0])
    scheme = random_interval(0.3, 0.3)
    masks, redraws = generate_masks(scheme, 30_000, coarse, 77, return_redraws=True)
    assert redraws > 1000  # the conditioning actually matters here
    b = analytic_b(scheme, coarse)
    assert sup_deviation(masks, b) < 0.02


def _reference_b(scheme, points):
    """The random-interval and sparse closed forms on scipy.stats.beta.cdf."""
    from scipy.stats import beta

    eps = scheme.epsilon_trim
    F = beta.cdf(np.clip((points - eps) / (1.0 - 2.0 * eps), 0.0, 1.0),
                 scheme.beta_a, scheme.beta_b)
    raw = 1.0 - F ** 2 - (1.0 - F) ** 2
    if scheme.kind == "sparse":
        return scheme.p * raw
    empty = float(F[0] ** 2 + (1.0 - F[-1]) ** 2 + np.sum(np.diff(F) ** 2))
    return raw / (1.0 - empty)


@pytest.mark.parametrize("grid", [
    Grid.uniform(5),
    GRID,
    Grid.from_unit_points(np.linspace(0.0, 1.0, 40) ** 3),
], ids=["J5", "J100", "cubed"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_analytic_b_matches_scipy_stats_beta(grid, eps):
    """The Beta CDF comes from scipy.special.betainc; the closed forms are
    bit-equal to the same formulas on scipy.stats.beta.cdf."""
    for a, b in [(0.01, 0.01), (0.3, 0.3), (1.0, 1.0), (2.5, 0.5), (0.5, 2.5), (1.7, 2.2),
                 (2.5, 2.5)]:
        for scheme in (random_interval(a, b, eps), bernoulli_sparse(0.4, a, b, eps)):
            np.testing.assert_array_equal(analytic_b(scheme, grid),
                                          _reference_b(scheme, grid.points))


def test_root_n_rate_of_sup_deviation():
    """median(sqrt(n) * W_n) stays within a factor 2 across n = 50..800."""
    scheme = random_interval()
    b = analytic_b(scheme, GRID)
    meds = []
    for n in (50, 200, 800):
        stats = [np.sqrt(n) * sup_deviation(generate_masks(scheme, n, GRID, (1000, n, r)), b)
                 for r in range(60)]
        meds.append(np.median(stats))
    assert max(meds) / min(meds) < 2.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
def test_masks_shape_and_dtype(seed, n):
    m = generate_masks(random_interval(), n, GRID, seed)
    assert m.shape == (n, GRID.size)
    assert m.dtype == bool
    assert m.any(axis=1).all()
