"""Grid / curve / dataset construction and the CSV round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmest.data import (
    DataFormatError,
    Dataset,
    Grid,
    PartialCurve,
    integrate,
    load_csv,
    matrix_dataset,
    restrict_dataset,
    save_csv,
    trapezoid_weights,
)


def test_trapezoid_weights_sum_to_span():
    pts = np.array([0.0, 0.1, 0.4, 1.0])
    w = trapezoid_weights(pts)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)


def test_integrate_t_squared_uniform_101():
    # closed form for the trapezoid rule on a uniform grid with h = 0.01:
    # integral of t^2 picks up the h^2/6 correction -> 0.33335 exactly
    grid = Grid.uniform(101)
    val = integrate(grid.points ** 2, grid)
    assert val == pytest.approx(0.33335, abs=1e-15)


def test_integrate_rejects_nonfinite():
    grid = Grid.uniform(5)
    f = np.ones(5)
    f[3] = np.inf
    with pytest.raises(DataFormatError, match="grid point 3"):
        integrate(f, grid)


def test_grid_validation():
    with pytest.raises(DataFormatError):
        Grid.from_unit_points([0.5])  # too few
    with pytest.raises(DataFormatError):
        Grid.from_unit_points([0.0, 0.0, 1.0])  # not strictly increasing
    with pytest.raises(DataFormatError):
        Grid.from_unit_points([0.0, 1.5])  # out of range
    with pytest.raises(DataFormatError):
        Grid.from_unit_points([0.0, np.nan])


def test_grid_source_points_round_trip():
    src = np.array([3.0, 7.5, 12.0, 21.6])
    grid = Grid.from_source_points(src)
    assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
    np.testing.assert_allclose(grid.source_points, src, rtol=1e-12)


def test_curve_requires_observation_and_finiteness():
    with pytest.raises(DataFormatError, match="no observed"):
        PartialCurve("a", "0", np.zeros(4), np.zeros(4, dtype=bool))
    bad = np.array([1.0, np.inf, 0.0])
    with pytest.raises(DataFormatError, match="non-finite"):
        PartialCurve("a", "0", bad, np.array([True, True, False]))
    # non-finite behind the mask is fine, it becomes the NaN sentinel
    c = PartialCurve("a", "0", bad, np.array([True, False, True]))
    assert np.isnan(c.values[1])
    assert c.n_observed == 2


def test_dataset_rejects_duplicate_ids():
    grid = Grid.uniform(3)
    c = PartialCurve("x", "0", np.ones(3), np.ones(3, dtype=bool))
    with pytest.raises(DataFormatError, match="duplicate curve id"):
        Dataset(grid, (c, c))


def test_dataset_group_helpers(rng):
    grid = Grid.uniform(4)
    curves = [
        PartialCurve("a", "g2", np.ones(4), np.ones(4, dtype=bool)),
        PartialCurve("b", "g1", np.ones(4), np.ones(4, dtype=bool)),
        PartialCurve("c", "g2", np.ones(4), np.ones(4, dtype=bool)),
    ]
    ds = Dataset(grid, tuple(curves))
    assert ds.group_labels() == ["g2", "g1"]  # first appearance order
    assert ds.subset_group("g2").n == 2
    with pytest.raises(DataFormatError):
        ds.subset_group("nope")


def test_matrix_dataset_shapes(rng):
    grid = Grid.uniform(6)
    values = rng.normal(size=(5, 6))
    mask = np.ones((5, 6), dtype=bool)
    ds = matrix_dataset(grid, values, mask)
    assert ds.n == 5
    assert ds.values.shape == (5, 6)
    assert ds.mask.dtype == bool


_ONES = np.ones((2, 4))
_SEEN = np.ones((2, 4), dtype=bool)


@pytest.mark.parametrize("values, mask, ids, match", [
    (_ONES, np.array([[True] * 4, [False] * 4]), "ab", "curve 'b' has no observed points"),
    (np.array([[1.0] * 4, [1.0, 1.0, np.inf, 1.0]]), _SEEN, "ab",
     r"curve 'b' has non-finite observed values at grid point 2 \(t=0\.666667\)"),
    (_ONES, _SEEN, "aa", "duplicate curve id 'a'"),
    (_ONES, _SEEN, "abc", "3 curve ids for 2 curves: id 'c' has no row"),
    (_ONES, _SEEN, "a", "1 curve ids for 2 curves: row 1 has no id"),
    (np.ones(4), np.ones(4, dtype=bool), "abcd", r"curve 'a': values \(4,\) and mask \(4,\)"),
    (_ONES, _SEEN[:, :3], "ab", r"curve 'a': values \(2, 4\) and mask \(2, 3\)"),
    (np.ones((2, 5)), np.ones((2, 5), dtype=bool), "ab", "curve 'a' not aligned with grid"),
])
def test_matrix_dataset_errors_name_the_curve(values, mask, ids, match):
    with pytest.raises(DataFormatError, match=match):
        matrix_dataset(Grid.uniform(4), values, mask, ids=list(ids))


def test_dataset_operations_build_no_curve_rows(monkeypatch, rng, tmp_path):
    """Datasets are matrices: building, slicing, resampling and fitting one
    constructs no PartialCurve."""
    from fmest.estimator import STATUS_UNDEFINED, fit
    from fmest.inference import resample
    from fmest.losses import ScaledHuber, huber

    def refuse(self):
        raise AssertionError("a PartialCurve was built")

    monkeypatch.setattr(PartialCurve, "__post_init__", refuse)
    grid = Grid.uniform(9)
    mask = rng.random((12, 9)) < 0.7
    mask[:, 4] = True
    ds = matrix_dataset(grid, rng.normal(size=(12, 9)), mask, group="g")
    sub = restrict_dataset(ds, 0.2, 0.8).subset_group("g")
    save_csv(resample(sub, 3, 0), tmp_path / "boot.csv")
    back = load_csv(tmp_path / "boot.csv")
    assert back.n == sub.n
    for choice in (huber(0.8), ScaledHuber(2.0)):
        assert STATUS_UNDEFINED not in fit(back, choice).status


def test_restrict_dataset_drops_empty_curves():
    grid = Grid.uniform(10)
    m1 = grid.points <= 0.35
    m2 = grid.points >= 0.7
    curves = (
        PartialCurve("left", "0", np.ones(10), m1),
        PartialCurve("right", "0", np.ones(10), m2),
    )
    ds = Dataset(grid, curves)
    sub = restrict_dataset(ds, 0.5, 1.0)
    assert [c.id for c in sub.curves] == ["right"]
    assert sub.grid.points[0] >= 0.5
    with pytest.raises(DataFormatError):
        restrict_dataset(ds, 0.36, 0.37)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = _write(
        tmp_path,
        "curve_id,group,t,value\n"
        "a,g1,0.0,1.5\n"
        "a,g1,0.5,2.5\n"
        "b,g2,0.0,-1.0\n"
        "b,g2,1.0,3.0\n",
    )
    ds = load_csv(p)
    assert ds.n == 2
    assert ds.grid.size == 3  # union {0, 0.5, 1}
    a = ds.curves[0]
    assert a.id == "a" and a.group == "g1"
    assert list(a.mask) == [True, True, False]


def test_load_csv_empty_value_is_unobserved(tmp_path):
    p = _write(
        tmp_path,
        "curve_id,group,t,value\na,,0.0,\na,,0.5,2.0\nb,,0.0,1.0\nb,,0.5,1.0\n",
    )
    ds = load_csv(p)
    a = next(c for c in ds.curves if c.id == "a")
    assert list(a.mask) == [False, True]
    assert a.group == "0"  # default group label


def test_load_csv_errors_name_the_line(tmp_path):
    p = _write(tmp_path, "curve_id,group,t,value\na,g,zero,1.0\n")
    with pytest.raises(DataFormatError, match=r"data\.csv:2.*non-numeric t"):
        load_csv(p)
    p2 = _write(tmp_path, "curve_id,group,t,value\na,g,0.0,1.0\na,g,0.0,2.0\n", "dup.csv")
    with pytest.raises(DataFormatError, match=r"dup\.csv:3.*duplicate point"):
        load_csv(p2)
    p3 = _write(tmp_path, "curve_id,group,t,value\na,g1,0.0,1.0\na,g2,0.5,1.0\n", "grp.csv")
    with pytest.raises(DataFormatError, match=r"grp\.csv:3.*conflicting groups"):
        load_csv(p3)
    p_inf = _write(tmp_path, "curve_id,group,t,value\na,g,0.0,1.0\na,g,1.0,inf\n", "inf.csv")
    with pytest.raises(DataFormatError,
                       match=r"inf\.csv: curve 'a' has non-finite observed values at grid point 1"):
        load_csv(p_inf)
    p4 = _write(tmp_path, "id,t,value\n", "hdr.csv")
    with pytest.raises(DataFormatError, match="malformed header"):
        load_csv(p4)
    with pytest.raises(DataFormatError, match="cannot open"):
        load_csv(tmp_path / "missing.csv")


def test_load_csv_rejects_near_duplicate_t(tmp_path):
    # 0.1 + 0.2 prints as 0.3 but is a different float: one grid point, not two
    p = _write(tmp_path, "curve_id,group,t,value\na,g,0.0,1.0\na,g,0.3,1.0\n"
               "b,g,0.0,2.0\nb,g,0.30000000000000004,2.0\na,g,1.0,1.0\n", "near.csv")
    with pytest.raises(DataFormatError,
                       match=r"near\.csv:5: t='0\.30000000000000004' .*t='0\.3' \(line 3\)"):
        load_csv(p)


def test_load_csv_rejects_fully_missing_curve(tmp_path):
    p = _write(tmp_path, "curve_id,group,t,value\na,g,0.0,\na,g,1.0,\nb,g,0.0,1\nb,g,1.0,2\n")
    with pytest.raises(DataFormatError, match="'a' has no observed"):
        load_csv(p)


def test_save_load_round_trip(tmp_path, rng):
    from conftest import random_partial_dataset

    ds = random_partial_dataset(rng, n=12, J=9)
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert back.n == ds.n
    np.testing.assert_array_equal(back.mask, ds.mask)
    # values are written with 12 significant digits
    obs = ds.mask
    np.testing.assert_allclose(
        back.values[obs], ds.values[obs], rtol=5e-12, atol=0
    )
    np.testing.assert_allclose(back.grid.source_points, ds.grid.source_points, rtol=5e-12)


def test_save_csv_source_coordinates(tmp_path):
    grid = Grid.from_source_points([3.0, 12.3, 21.6])
    ds = matrix_dataset(grid, np.ones((1, 3)), np.ones((1, 3), dtype=bool))
    p = tmp_path / "src.csv"
    save_csv(ds, p)
    body = p.read_text().splitlines()
    assert body[1].split(",")[2] == "3"
    assert body[3].split(",")[2] == "21.6"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    J=st.integers(2, 12),
    seed=st.integers(0, 10_000),
)
def test_round_trip_any_shape(tmp_path_factory, n, J, seed):
    """save_csv -> load_csv preserves masks exactly and values to 12 digits."""
    from conftest import random_partial_dataset

    gen = np.random.default_rng(seed)
    ds = random_partial_dataset(gen, n=n, J=J)
    p = tmp_path_factory.mktemp("rt") / "f.csv"
    save_csv(ds, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.mask, ds.mask)
    obs = ds.mask
    np.testing.assert_allclose(back.values[obs], ds.values[obs], rtol=5e-12)
