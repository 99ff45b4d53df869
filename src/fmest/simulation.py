"""Synthetic curve models and Monte Carlo study drivers.

Curves follow X(t) = mu(t) + sigma(t) * e(t) on a uniform grid.  The error
process e is either white noise or an elliptical process with exponential
correlation exp(-|t1 - t2| / d): a correlated Gaussian draw, optionally
divided per curve by sqrt(chisq_nu / nu) to give Student-t (nu = 1: Cauchy)
margins.  A contamination segment, when present, overwrites the curve by
mu + Cauchy noise on that segment only.

Three independent substreams (base draw / scale draw / contamination) keep
the uncontaminated part of a contaminated draw bit-identical to the plain
draw under the same seed.

The study drivers draw each repetition's data on its own substream.  The
ISE study draws on the calling thread, straight into a stacked batch of
consecutive repetitions, as arrays without a dataset, and fits each batch
in one solve per loss; ``config.threads`` does not apply to it.  The
coverage and size studies draw each repetition's dataset and run its
bootstrap on one of ``config.threads`` pool threads, where the ensemble
keeps to its thread (see :func:`fmest.inference.bootstrap_ensemble`).
Either way a study's numbers do not depend on the thread count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, DataFormatError, Grid, _restrict_grid, integrate, matrix_dataset
from .estimator import NumericalError, _Workspace, interpolate_rows, solve_locations
from .inference import _percentile_interval, anova_l2_test, bootstrap_ensemble, parse_probe
from .losses import parse_loss
from .sampling import MissingScheme, generate_masks, parse_scheme
from .seeding import as_key, make_rng

CHOL_JITTER = 1e-10
# run_ise_study fits its repetitions in batches of at most this many values
# (repetitions x curves x grid points), one solve per loss and batch: 9
# repetitions of 80 curves on 90 points.  On a 2-core x86_64 host, batches of
# 4 made an ISE study of 160 repetitions about 30% faster than single fits,
# for 2 MB more peak memory; batches of 9 took about 8% less time again (the
# median of 9 pairs, noisy) for 1.8 MB more.
ISE_BATCH = 65_536


@dataclass(frozen=True)
class ConstantScale:
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise DataFormatError("sigma must be finite and nonnegative")


@dataclass(frozen=True)
class RandomScale:
    """sigma(t) ~ Normal(mean, sd^2) iid per grid point, one draw per call
    shared by all curves; negative draws are kept."""

    mean: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise DataFormatError("scale sd must be positive")


@dataclass(frozen=True)
class ErrorModel:
    """Error process: family in {gaussian, student, cauchy}; ``d`` is the
    exponential-correlation range (None = white noise); ``df`` the Student
    degrees of freedom."""

    family: str
    d: float | None = None
    df: float | None = None

    def __post_init__(self):
        if self.family not in ("gaussian", "student", "cauchy"):
            raise DataFormatError(f"unknown error family {self.family!r}")
        if self.family == "student" and (self.df is None or self.df <= 0):
            raise DataFormatError("student errors need positive df")
        if self.d is not None and self.d <= 0:
            raise DataFormatError("correlation range d must be positive")


@dataclass(frozen=True)
class Contamination:
    """Replace X by mu + scale * (Cauchy noise) on [lo, hi]; correlated noise
    uses the exponential correlation with range ``d`` (None = white)."""

    lo: float
    hi: float
    scale: float = 1.0
    d: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise DataFormatError("contamination segment must satisfy 0 <= lo < hi <= 1")
        if self.scale <= 0:
            raise DataFormatError("contamination scale must be positive")
        if self.d is not None and self.d <= 0:
            raise DataFormatError("contamination range d must be positive")


@dataclass(frozen=True)
class ProcessModel:
    """Mean + scale + error process (+ optional contamination)."""

    mean_kind: str  # "smooth" | "probe"
    error: ErrorModel
    scale: object = ConstantScale(2.0)
    contamination: Contamination | None = None

    def __post_init__(self):
        if self.mean_kind not in ("smooth", "probe"):
            raise DataFormatError(f"unknown mean kind {self.mean_kind!r}")
        if not isinstance(self.scale, (ConstantScale, RandomScale)):
            raise DataFormatError("scale must be ConstantScale or RandomScale")


def smooth_mean(points) -> np.ndarray:
    """mu(t) = 5 sin(2 pi t) + 3."""
    t = np.asarray(points, dtype=float)
    return 5.0 * np.sin(2.0 * np.pi * t) + 3.0


def probe_mean(points) -> np.ndarray:
    """mu = phi_0 + 2 phi_1 + 0.5 phi_2 in the shifted Legendre basis."""
    from .inference import constant_probe, linear_probe, quadratic_probe

    t = np.asarray(points, dtype=float)
    return constant_probe(t) + 2.0 * linear_probe(t) + 0.5 * quadratic_probe(t)


def model_mean(model: ProcessModel, points) -> np.ndarray:
    return smooth_mean(points) if model.mean_kind == "smooth" else probe_mean(points)


_PRESETS = {
    # Smooth-mean benchmark suite: sigma = 2 throughout.
    "model1": ProcessModel("smooth", ErrorModel("gaussian", d=0.3)),
    "model2": ProcessModel("smooth", ErrorModel("student", d=0.3, df=3.0)),
    "model3": ProcessModel("smooth", ErrorModel("cauchy", d=0.3)),
    "model4": ProcessModel("smooth", ErrorModel("student", df=3.0),
                           scale=RandomScale(2.0, 10.0)),
    "model5": ProcessModel("smooth", ErrorModel("gaussian", d=0.3),
                           contamination=Contamination(0.2, 0.4, scale=1.0)),
    "model6": ProcessModel("smooth", ErrorModel("gaussian", d=0.3),
                           contamination=Contamination(0.2, 0.4, scale=1.0, d=0.3)),
    # Probe-mean (trend) suite.
    "probe-gaussian": ProcessModel("probe", ErrorModel("gaussian", d=0.3)),
    "probe-t3": ProcessModel("probe", ErrorModel("student", d=0.3, df=3.0)),
    "probe-cauchy": ProcessModel("probe", ErrorModel("cauchy", d=0.3)),
}


def model_preset(name: str) -> ProcessModel:
    try:
        return _PRESETS[name]
    except KeyError:
        raise DataFormatError(
            f"unknown model {name!r} (choose from {', '.join(sorted(_PRESETS))})"
        ) from None


@functools.lru_cache(maxsize=4)
def _correlated_factor(points: bytes, d: float) -> np.ndarray:
    """Lower Cholesky factor of the correlation exp(-|s - t| / d), plus
    CHOL_JITTER on its diagonal, at the float64 grid points whose bytes are
    ``points``.  Cached, because a study draws every repetition on one grid;
    the factor is read-only, since every caller shares it."""
    points = np.frombuffer(points)
    gap = np.abs(points[:, None] - points[None, :])
    cov = np.exp(-gap / d)
    cov[np.diag_indices_from(cov)] += CHOL_JITTER
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"correlation matrix is not positive definite: {exc}") from exc
    factor.setflags(write=False)
    return factor


def _draw_errors(error: ErrorModel, rng: np.random.Generator, n: int,
                 points: np.ndarray) -> np.ndarray:
    if error.d is None:
        if error.family == "gaussian":
            return rng.standard_normal((n, points.size))
        if error.family == "student":
            return rng.standard_t(error.df, size=(n, points.size))
        return rng.standard_cauchy(size=(n, points.size))
    L = _correlated_factor(points.tobytes(), error.d)
    z = rng.standard_normal((n, points.size)) @ L.T
    if error.family == "gaussian":
        return z
    df = 1.0 if error.family == "cauchy" else error.df
    mix = rng.chisquare(df, size=n)
    return z / np.sqrt(mix / df)[:, None]


def generate_curves(model: ProcessModel, n: int, grid: Grid, seed) -> np.ndarray:
    """(n, J) fully observed curves from the model.

    Substreams: (seed, 0) error draws, (seed, 1) random scale, (seed, 2)
    contamination, so dropping the contamination leaves the rest untouched.
    """
    if n < 1:
        raise DataFormatError("need at least one curve")
    key = as_key(seed)
    points = grid.points
    mu = model_mean(model, points)
    eps = _draw_errors(model.error, make_rng((*key, 0)), n, points)
    if isinstance(model.scale, ConstantScale):
        sigma = model.scale.sigma
    else:
        sigma = make_rng((*key, 1)).normal(model.scale.mean, model.scale.sd, size=points.size)
    x = mu + sigma * eps
    cont = model.contamination
    if cont is not None:
        seg = (points >= cont.lo) & (points <= cont.hi)
        if seg.any():
            noise = _draw_errors(ErrorModel("cauchy", d=cont.d), make_rng((*key, 2)), n,
                                 points[seg])
            x[:, seg] = mu[seg] + cont.scale * noise
    return x


def ise(theta, mu_true: np.ndarray) -> float:
    """Mean squared error over grid points (uniform average, not quadrature)."""
    theta = np.asarray(theta, dtype=float)
    mu_true = np.asarray(mu_true, dtype=float)
    if theta.shape != mu_true.shape:
        raise DataFormatError("estimate/truth misaligned")
    diff = theta - mu_true
    return float(np.mean(diff * diff))


# -- scenario configuration ------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario, shared by the ISE, coverage and size studies.

    Under the size study ``n`` counts the curves of each of the two groups
    and ``shift`` is added to every curve of group 1; the other studies
    ignore ``shift``.
    """

    model: ProcessModel
    scheme: MissingScheme
    n: int = 80
    grid_size: int = 100
    losses: tuple = ("square", "huber:0.8")
    B: int = 400
    repetitions: int = 100
    seed: int = 0
    probes: tuple = ()
    alpha: float = 0.05
    shift: float = 0.0
    threads: int = 1
    model_name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise DataFormatError("need n >= 2 curves")
        if self.grid_size < 2:
            raise DataFormatError("need at least 2 grid points")
        if self.repetitions < 1:
            raise DataFormatError("need at least one repetition")
        if not self.losses:
            raise DataFormatError("need at least one loss")
        if not 0 < self.alpha < 1:
            raise DataFormatError("alpha must lie in (0, 1)")
        if not np.isfinite(self.shift):
            raise DataFormatError("shift must be finite")
        if self.threads < 1:
            raise DataFormatError("threads must be >= 1")
        object.__setattr__(self, "losses", tuple(self.losses))
        object.__setattr__(self, "probes", tuple(self.probes))
        for loss in self.losses:
            parse_loss(loss)  # fail fast on typos


def _analysis_grid(config: ScenarioConfig, grid: Grid) -> tuple[np.ndarray | None, Grid]:
    """Which points of ``grid`` a study analyses, as a boolean index (None:
    all of them), and the grid they make: [eps, 1-eps] when the scheme
    carries a trim."""
    eps = config.scheme.epsilon_trim
    return _restrict_grid(grid, eps, 1.0 - eps) if eps > 0 else (None, grid)


def _draw_arrays(config: ScenarioConfig, grid: Grid, keep: np.ndarray | None, key: tuple,
                 shift: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``config.n`` curves on substream (*key, 0), moved by ``shift``, with
    masks on (*key, 1), at the grid points ``keep`` selects (None: all).

    Returns the (m, J') values and mask of the curves that observe one of
    those points, in order, and which curves they are, as a boolean index.
    Values at unobserved entries are left as drawn.
    """
    values = generate_curves(config.model, config.n, grid, (*key, 0))
    mask = generate_masks(config.scheme, config.n, grid, (*key, 1))
    if shift:
        values += shift
    if keep is None:
        return values, mask, np.ones(config.n, dtype=bool)
    mask = mask[:, keep]
    rows = mask.any(axis=1)
    if not rows.any():
        raise DataFormatError("restriction removed every curve")
    return values[:, keep][rows], mask[rows], rows


def _draw_dataset(config: ScenarioConfig, grid: Grid, key: tuple,
                  shift: float = 0.0) -> Dataset:
    """The curves of :func:`_draw_arrays` as a dataset on the analysis grid,
    each with the id of its index among all ``config.n`` curves."""
    keep, sub = _analysis_grid(config, grid)
    values, mask, rows = _draw_arrays(config, grid, keep, key, shift)
    return matrix_dataset(sub, values, mask, ids=np.flatnonzero(rows))


def _run_reps(worker, repetitions: int, threads: int) -> list:
    # A study's parallelism is its repetitions.  They run on pool threads even
    # at threads = 1, because only the main thread splits a bootstrap ensemble
    # across CPUs (inference.bootstrap_ensemble): split solves made coverage
    # and size studies 10-20% slower on a 2-core host.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(repetitions)))


def run_ise_study(config: ScenarioConfig) -> list[dict]:
    """Median ISE per estimator plus ratios against the square-loss fit.

    Repetition r draws curves on substream (seed, r, 0) and masks on
    (seed, r, 1); the analysis restricts to [eps, 1-eps] when the scheme
    carries a trim.

    Consecutive repetitions, at most ISE_BATCH values of them, are drawn on
    this thread straight into one stacked (k, n, J) mask buffer and the
    values buffer ``v0`` of the solver's workspace, both allocated once per
    study, with zeros at unobserved entries; curves the trim drops leave
    unobserved rows at the end.  Each loss fits a batch in one
    :func:`solve_locations` call.  A fit reads only its own repetition's
    rows, so every ISE equals that of fitting the repetition alone, bit for
    bit.  ``config.threads`` does not apply: the draws hold the interpreter
    lock, so pool threads only slowed them down.
    """
    grid = Grid.uniform(config.grid_size)
    losses = [(text, parse_loss(text)) for text in config.losses]
    key = as_key(config.seed)
    R, n = config.repetitions, config.n
    keep, sub = _analysis_grid(config, grid)
    points = sub.points
    k = max(1, min(R, ISE_BATCH // (n * points.size)))
    shape = (k, n, points.size)
    m_buf, w_buf = np.empty(shape, dtype=bool), _Workspace.empty(shape)
    theta = {text: np.empty((R, points.size)) for text, _ in losses}
    for start in range(0, R, k):
        stop = min(start + k, R)
        m, work = m_buf[:stop - start], w_buf[:stop - start]
        v = work.v0
        for i in range(stop - start):
            values, mask, _ = _draw_arrays(config, grid, keep, (*key, start + i))
            v[i] = 0.0
            np.copyto(v[i, :len(values)], values, where=mask)
            m[i, :len(mask)] = mask
            m[i, len(mask):] = False
        for text, choice in losses:
            try:
                theta[text][start:stop] = solve_locations(v, m, choice, work=work)
            except NumericalError as exc:
                raise NumericalError(f"repetition {start + exc.fit[0]}, loss {text}: "
                                     f"{exc}") from exc
    mu = model_mean(config.model, points)
    name = config.model_name or config.model.mean_kind
    rows = []
    medians = {}
    for text, _ in losses:
        med = float(np.median([ise(row, mu) for row in interpolate_rows(theta[text], points)]))
        medians[text] = med
        rows.append({"scenario": name, "estimator": text, "probe": "",
                     "metric": "median_ise", "value": med})
    if "square" in medians:
        for text, _ in losses:
            if text == "square":
                continue
            rows.append({"scenario": name, "estimator": text, "probe": "",
                         "metric": "median_ise_ratio_square_over_this",
                         "value": medians["square"] / medians[text]})
    return rows


def run_coverage_study(config: ScenarioConfig) -> list[dict]:
    """Empirical coverage and median length of trend intervals.

    The target is the probe coefficient of the true mean computed by the same
    quadrature the estimator uses, on the same analysis grid.  Repetition r
    uses substreams (seed, r, 0) curves, (seed, r, 1) masks, (seed, r, 2, l)
    bootstrap for the l-th loss; one ensemble per loss serves every probe.
    """
    if not config.probes:
        raise DataFormatError("coverage study needs at least one probe")
    grid = Grid.uniform(config.grid_size)
    losses = [(text, parse_loss(text)) for text in config.losses]
    key = as_key(config.seed)
    sub = _analysis_grid(config, grid)[1]
    mu = model_mean(config.model, sub.points)
    probes = []  # (text, name, values, truth); a probe the grid cannot carry fails here
    for probe_text in config.probes:
        pname, pvals = parse_probe(probe_text, sub)
        probes.append((probe_text, pname, pvals, integrate(mu * pvals, sub)))

    def worker(r: int) -> dict:
        dataset = _draw_dataset(config, grid, (*key, r))
        out = {}
        for li, (text, choice) in enumerate(losses):
            ens = bootstrap_ensemble(dataset, choice, config.B, (*key, r, 2, li))
            for probe_text, pname, pvals, truth in probes:
                ci = _percentile_interval(ens, pvals, config.alpha, pname)
                out[(text, probe_text)] = (
                    ci.lower <= truth <= ci.upper,
                    ci.upper - ci.lower,
                )
        return out

    per_rep = _run_reps(worker, config.repetitions, config.threads)
    name = config.model_name or config.model.mean_kind
    rows = []
    for text, _ in losses:
        for probe_text in config.probes:
            hits = [rep[(text, probe_text)][0] for rep in per_rep]
            lengths = [rep[(text, probe_text)][1] for rep in per_rep]
            rows.append({"scenario": name, "estimator": text, "probe": probe_text,
                         "metric": "coverage", "value": float(np.mean(hits))})
            rows.append({"scenario": name, "estimator": text, "probe": probe_text,
                         "metric": "median_ci_length", "value": float(np.median(lengths))})
    return rows


def run_size_study(config: ScenarioConfig) -> list[dict]:
    """Rejection rate and p-value quartiles of the two-group L2 test.

    Repetition r draws group g in {0, 1} as ``config.n`` curves on substream
    (seed, r, g, 0) and masks on (seed, r, g, 1), adds ``config.shift`` to
    group 1 (0 gives the null, so the rate is the test's size; anything else
    gives its power) and tests each loss on (seed, r, 2).
    """
    grid = Grid.uniform(config.grid_size)
    losses = [(text, parse_loss(text)) for text in config.losses]
    key = as_key(config.seed)

    def worker(r: int) -> dict:
        groups = [_draw_dataset(config, grid, (*key, r, g),
                                shift=config.shift if g == 1 else 0.0)
                  for g in range(2)]
        return {text: anova_l2_test(groups, choice, config.B, (*key, r, 2)).p_value
                for text, choice in losses}

    per_rep = _run_reps(worker, config.repetitions, config.threads)
    name = config.model_name or config.model.mean_kind
    rows = []
    for text, _ in losses:
        p_values = np.array([rep[text] for rep in per_rep])
        q25, q50, q75 = np.percentile(p_values, [25, 50, 75])
        for metric, value in (("rejection_rate", np.mean(p_values < config.alpha)),
                              ("p_value_q25", q25), ("p_value_q50", q50),
                              ("p_value_q75", q75)):
            rows.append({"scenario": name, "estimator": text, "probe": "",
                         "metric": metric, "value": float(value)})
    return rows


# -- study kinds and flat key=value scenario files ---------------------------------

_STUDY_KINDS = ("ise", "coverage", "size")


def run_study(study: str, config: ScenarioConfig) -> list[dict]:
    """Run the study kind a scenario file names: ise, coverage or size."""
    if study == "ise":
        return run_ise_study(config)
    if study == "coverage":
        return run_coverage_study(config)
    if study == "size":
        return run_size_study(config)
    raise DataFormatError(f"study must be one of {_STUDY_KINDS}")


def read_scenario_config(path) -> tuple[str, ScenarioConfig]:
    """Parse a flat ``key = value`` scenario file; returns (study, config).

    Keys: study (ise, coverage or size), model, scheme, trim, n, grid_size,
    losses, B, R, seed, probes, alpha, shift, threads.  ``n`` counts the
    curves per group under ``study = size``; ``shift`` applies only there.
    List values (losses, probes) are separated by semicolons, since loss
    specs may contain commas.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read ({exc})") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key = value")
        k, _, v = line.partition("=")
        k = k.strip()
        if k in raw:
            raise DataFormatError(f"{path}:{lineno}: duplicate key {k!r}")
        raw[k] = v.strip()

    def value(key, convert, default=None):
        text = raw.pop(key, default)
        if text is None:
            raise DataFormatError(f"{path}: missing required key {key!r}")
        try:
            return convert(text)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {key}: {exc}") from None

    def spec_list(text):
        return tuple(s.strip() for s in text.split(";") if s.strip())

    def loss_list(text):
        specs = spec_list(text)
        for spec in specs:
            parse_loss(spec)
        return specs

    study = value("study", str, "ise")
    if study not in _STUDY_KINDS:
        raise DataFormatError(f"{path}: study must be one of {_STUDY_KINDS}")
    model_name = raw.get("model")
    scheme = value("scheme", parse_scheme, "complete")
    if "trim" in raw:
        # the trim is validated by the scheme it applies to
        scheme = value("trim", lambda t: replace(scheme, epsilon_trim=float(t)))
    fields = dict(model=value("model", model_preset), scheme=scheme, seed=value("seed", int))
    # a key the file leaves out takes its ScenarioConfig default
    for key, convert in (("n", int), ("grid_size", int), ("losses", loss_list), ("B", int),
                         ("R", int), ("probes", spec_list), ("alpha", float),
                         ("shift", float), ("threads", int)):
        if key in raw:
            fields["repetitions" if key == "R" else key] = value(key, convert)
    try:
        config = ScenarioConfig(**fields, model_name=model_name)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if raw:
        raise DataFormatError(f"{path}: unknown keys {sorted(raw)}")
    if config.shift and study != "size":
        raise DataFormatError(f"{path}: shift applies only to study = size")
    return study, config
