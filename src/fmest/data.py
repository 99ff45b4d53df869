"""Grids, partially observed curves, datasets, and CSV I/O.

All computations run on a shared grid over the unit interval.  Input files may
use any source interval; the affine map to [0, 1] is recorded on the grid so
outputs can be written back in source coordinates.  Missing observations are
encoded by absent CSV rows and by a per-curve 0/1 mask in memory; masked-out
value entries hold NaN and are never read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path

import numpy as np

CSV_HEADER = ("curve_id", "group", "t", "value")
DEFAULT_GROUP = "0"
_FMT = "%.12g"


class DataFormatError(ValueError):
    """An input file or in-memory structure violates the data contract."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Quadrature weights of the composite trapezoid rule on ``points``."""
    w = np.zeros_like(points)
    gaps = np.diff(points)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing evaluation points in [0, 1] with trapezoid weights.

    ``offset`` and ``scale`` record the source interval: a unit-coordinate
    point ``u`` corresponds to ``offset + scale * u`` in the original data.
    """

    points: np.ndarray
    weights: np.ndarray
    offset: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        pts = _readonly(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, dtype=float)))
        if pts.ndim != 1 or pts.size < 2:
            raise DataFormatError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise DataFormatError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise DataFormatError("grid points must be strictly increasing")
        if pts[0] < -1e-12 or pts[-1] > 1 + 1e-12:
            raise DataFormatError("grid points must lie in [0, 1]")
        if self.weights.shape != pts.shape:
            raise DataFormatError("weights misaligned with grid points")
        if self.scale <= 0:
            raise DataFormatError("grid scale must be positive")

    @classmethod
    def from_unit_points(cls, points, offset: float = 0.0, scale: float = 1.0) -> "Grid":
        points = np.asarray(points, dtype=float)
        return cls(points, trapezoid_weights(points), offset, scale)

    @classmethod
    def from_source_points(cls, points) -> "Grid":
        """Rescale arbitrary strictly increasing points onto [0, 1]."""
        points = np.asarray(points, dtype=float)
        if points.size < 2:
            raise DataFormatError("grid needs at least 2 points")
        a, b = float(points[0]), float(points[-1])
        if not b > a:
            raise DataFormatError("source grid must span a nondegenerate interval")
        unit = (points - a) / (b - a)
        return cls.from_unit_points(unit, offset=a, scale=b - a)

    @classmethod
    def uniform(cls, num_points: int) -> "Grid":
        return cls.from_unit_points(np.linspace(0.0, 1.0, num_points))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def source_points(self) -> np.ndarray:
        return self.offset + self.scale * self.points

    def same_points(self, other: "Grid") -> bool:
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True, eq=False)
class PartialCurve:
    """One curve as a row: values on the shared grid plus a 0/1 observation
    mask.  Datasets store their curves as matrices; this is the row view."""

    id: str
    group: str
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if vals.shape != mask.shape or vals.ndim != 1:
            raise DataFormatError(f"curve {self.id!r}: values/mask misaligned")
        if not mask.any():
            raise DataFormatError(f"curve {self.id!r} has no observed points")
        if not np.all(np.isfinite(vals[mask])):
            raise DataFormatError(f"curve {self.id!r} has non-finite observed values")
        vals[~mask] = np.nan  # sentinel, never read
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "mask", _readonly(mask))

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())


class Dataset:
    """n curves on one grid, stored as (n, J) ``values`` and ``mask``
    matrices with one id (unique) and one group label per curve.

    ``values`` holds NaN wherever ``mask`` is False; those entries are never
    read.  ``Dataset(grid, curves)`` stacks :class:`PartialCurve` rows.
    """

    def __init__(self, grid: Grid, curves):
        curves = tuple(curves)
        for c in curves:
            if c.values.shape != grid.points.shape:
                raise DataFormatError(f"curve {c.id!r} not aligned with grid")
        shape = (len(curves), grid.size)
        self._store(grid, np.reshape([c.values for c in curves], shape),
                    np.reshape([c.mask for c in curves], shape),
                    [c.id for c in curves], [c.group for c in curves])

    @classmethod
    def _from_arrays(cls, grid: Grid, values, mask, ids, groups) -> "Dataset":
        """Dataset from (n, J) value/mask matrices; every dataset is built here."""
        dataset = cls.__new__(cls)
        dataset._store(grid, values, mask, ids, groups)
        return dataset

    def _store(self, grid: Grid, values, mask, ids, groups) -> None:
        values = np.array(values, dtype=float)
        mask = np.array(mask, dtype=bool)
        ids = tuple(ids)
        if values.ndim != 2 or mask.shape != values.shape:
            first = f"curve {ids[0]!r}: " if ids else ""
            raise DataFormatError(f"{first}values {values.shape} and mask {mask.shape} "
                                  f"must be (n, J) matrices of one shape")
        n = values.shape[0]
        if n == 0:
            raise DataFormatError("dataset has no curves")
        if len(ids) != n:
            lost = f"id {ids[n]!r} has no row" if len(ids) > n else f"row {len(ids)} has no id"
            raise DataFormatError(f"{len(ids)} curve ids for {n} curves: {lost}")
        if values.shape[1] != grid.size:
            raise DataFormatError(f"curve {ids[0]!r} not aligned with grid")
        empty = ~mask.any(axis=1)
        if empty.any():
            raise DataFormatError(f"curve {ids[np.argmax(empty)]!r} has no observed points")
        bad = mask & ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataFormatError(f"curve {ids[i]!r} has non-finite observed values "
                                  f"at grid point {j} (t={grid.source_points[j]:g})")
        if len(set(ids)) != n:
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise DataFormatError(f"duplicate curve id {dup!r}")
        values[~mask] = np.nan  # sentinel, never read
        self.grid = grid
        self.values = _readonly(values)
        self.mask = _readonly(mask)
        self.ids = ids
        self.groups = tuple(groups)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def curves(self) -> tuple:
        """The curves as :class:`PartialCurve` rows."""
        return tuple(PartialCurve(*row) for row in zip(self.ids, self.groups,
                                                         self.values, self.mask))

    def group_labels(self) -> list:
        """Distinct group labels in order of first appearance."""
        return list(dict.fromkeys(self.groups))

    def subset_group(self, label: str) -> "Dataset":
        rows = [i for i, g in enumerate(self.groups) if g == label]
        if not rows:
            raise DataFormatError(f"no curves with group {label!r}")
        return Dataset._from_arrays(self.grid, self.values[rows], self.mask[rows],
                                    [self.ids[i] for i in rows], [label] * len(rows))


def matrix_dataset(grid: Grid, values: np.ndarray, mask: np.ndarray,
                   group: str = DEFAULT_GROUP, ids=None) -> Dataset:
    """Bundle (n, J) value/mask matrices into a Dataset; ids default to
    "0", "1", ... and every curve gets ``group``."""
    n = len(values)
    ids = [str(i) for i in range(n)] if ids is None else [str(i) for i in ids]
    return Dataset._from_arrays(grid, values, mask, ids, [group] * n)


def integrate(f, grid: Grid) -> float:
    """Trapezoid quadrature of grid values ``f`` over the grid's span."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.points.shape:
        raise DataFormatError("integrand not aligned with grid")
    if not np.all(np.isfinite(f)):
        j = int(np.flatnonzero(~np.isfinite(f))[0])
        raise DataFormatError(f"non-finite integrand at grid point {j} (t={grid.source_points[j]:g})")
    return float(np.dot(grid.weights, f))


def _restrict_grid(grid: Grid, lo: float, hi: float) -> tuple[np.ndarray, Grid]:
    """The grid points with lo <= t <= hi (unit coordinates): which ones, as
    a boolean index into ``grid``, and the grid they make."""
    keep = (grid.points >= lo) & (grid.points <= hi)
    if keep.sum() < 2:
        raise DataFormatError(f"restriction to [{lo:g}, {hi:g}] leaves fewer than 2 grid points")
    return keep, Grid.from_unit_points(grid.points[keep], offset=grid.offset, scale=grid.scale)


def restrict_dataset(dataset: Dataset, lo: float, hi: float) -> Dataset:
    """Keep only grid points with lo <= t <= hi (unit coordinates).

    Curves with no observations left on the restricted grid are dropped.
    """
    keep, sub = _restrict_grid(dataset.grid, lo, hi)
    mask = dataset.mask[:, keep]
    rows = mask.any(axis=1)
    if not rows.any():
        raise DataFormatError("restriction removed every curve")
    return Dataset._from_arrays(sub, dataset.values[:, keep][rows], mask[rows],
                                compress(dataset.ids, rows), compress(dataset.groups, rows))


def load_csv(path) -> Dataset:
    """Read the long-format curve file ``curve_id,group,t,value``.

    A missing observation is encoded by the absence of the row; rows with an
    empty value field are also treated as unobserved.  The grid is the sorted
    union of all t values in the file, rescaled to [0, 1].
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open ({exc})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataFormatError(
                f"{path}: malformed header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        records = {}  # curve_id -> {t: value or None}
        groups = {}
        t_first = {}  # t -> (line, raw text) where it first appears
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            cid, group, t_raw, v_raw = (field.strip() for field in row)
            if not cid:
                raise DataFormatError(f"{path}:{lineno}: empty curve_id")
            try:
                t = float(t_raw)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric t {t_raw!r}") from None
            if not np.isfinite(t):
                raise DataFormatError(f"{path}:{lineno}: non-finite t {t_raw!r}")
            if v_raw == "":
                value = None
            else:
                try:
                    value = float(v_raw)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric value {v_raw!r}"
                    ) from None
            per = records.setdefault(cid, {})
            if t in per:
                raise DataFormatError(f"{path}:{lineno}: duplicate point t={t_raw} for curve {cid!r}")
            per[t] = value
            group = group or DEFAULT_GROUP
            prev = groups.setdefault(cid, group)
            if prev != group:
                raise DataFormatError(f"{path}:{lineno}: curve {cid!r} has conflicting groups")
            t_first.setdefault(t, (lineno, t_raw))
    if not records:
        raise DataFormatError(f"{path}: no data rows")
    t_sorted = np.array(sorted(t_first), dtype=float)
    if t_sorted.size < 2:
        raise DataFormatError(f"{path}: fewer than 2 distinct grid points")
    # t values within 1e-9 of the t range are one grid point written two ways
    # (0.3 and 0.30000000000000004); as two points each would hold some curves
    near = np.flatnonzero(np.diff(t_sorted) <= 1e-9 * (t_sorted[-1] - t_sorted[0]))
    if near.size:
        (line_a, raw_a), (line_b, raw_b) = sorted(
            t_first[t] for t in t_sorted[near[0]:near[0] + 2])
        raise DataFormatError(
            f"{path}:{line_b}: t={raw_b!r} nearly duplicates t={raw_a!r} (line {line_a}); "
            f"write each grid point the same way in every row"
        )
    grid = Grid.from_source_points(t_sorted)
    index = {t: j for j, t in enumerate(t_sorted)}
    values = np.full((len(records), t_sorted.size), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    for i, per in enumerate(records.values()):
        for t, value in per.items():
            if value is not None:
                j = index[t]
                values[i, j] = value
                mask[i, j] = True
    try:
        return Dataset._from_arrays(grid, values, mask, records, groups.values())
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the long format read by :func:`load_csv`.

    Only observed points emit rows; t is written in source coordinates and
    numbers carry 12 significant digits.
    """
    path = Path(path)
    t_src = dataset.grid.source_points
    groups = [g or DEFAULT_GROUP for g in dataset.groups]
    rows, cols = np.nonzero(dataset.mask)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            [dataset.ids[i], groups[i], _FMT % t_src[j], _FMT % v]
            for i, j, v in zip(rows.tolist(), cols.tolist(), dataset.values[rows, cols])
        )
