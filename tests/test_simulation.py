"""Synthetic models, the study drivers, and scenario files."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from fmest import estimator, inference, simulation
from fmest.data import DataFormatError, Grid, integrate, matrix_dataset, restrict_dataset
from fmest.estimator import NumericalError, fit, fit_marginal
from fmest.inference import anova_l2_test, parse_probe, quadratic_probe, trend_ci
from fmest.losses import huber, parse_loss
from fmest.sampling import complete, generate_masks, parse_scheme, random_interval
from fmest.seeding import make_rng
from fmest.simulation import (
    CHOL_JITTER,
    ConstantScale,
    Contamination,
    ErrorModel,
    ProcessModel,
    RandomScale,
    ScenarioConfig,
    _draw_dataset,
    generate_curves,
    ise,
    model_mean,
    model_preset,
    probe_mean,
    read_scenario_config,
    run_coverage_study,
    run_ise_study,
    run_size_study,
    smooth_mean,
)

GRID = Grid.uniform(50)


def test_smooth_mean_values():
    t = np.array([0.0, 0.25, 0.5])
    np.testing.assert_allclose(smooth_mean(t), [3.0, 8.0, 3.0], atol=1e-12)


def test_probe_mean_coefficients():
    """The probe mean is built to carry coefficient 0.5 on the quadratic."""
    grid = Grid.uniform(1001)
    mu = probe_mean(grid.points)
    coef = integrate(mu * quadratic_probe(grid.points), grid)
    assert coef == pytest.approx(0.5, abs=1e-3)


def test_model_presets_exist():
    for name in ["model1", "model2", "model3", "model4", "model5", "model6",
                 "probe-gaussian", "probe-t3", "probe-cauchy"]:
        m = model_preset(name)
        assert isinstance(m, ProcessModel)
    with pytest.raises(DataFormatError, match="unknown model"):
        model_preset("model99")


def test_error_model_validation():
    with pytest.raises(DataFormatError):
        ErrorModel("weibull")
    with pytest.raises(DataFormatError):
        ErrorModel("student")  # df missing
    with pytest.raises(DataFormatError):
        ErrorModel("gaussian", d=-0.3)
    with pytest.raises(DataFormatError):
        Contamination(0.5, 0.4)
    with pytest.raises(DataFormatError):
        RandomScale(2.0, 0.0)
    with pytest.raises(DataFormatError):
        ConstantScale(-1.0)


def test_generate_curves_deterministic():
    m = model_preset("model1")
    a = generate_curves(m, 10, GRID, 42)
    b = generate_curves(m, 10, GRID, 42)
    np.testing.assert_array_equal(a, b)
    c = generate_curves(m, 10, GRID, 43)
    assert not np.array_equal(a, c)


def test_contamination_only_touches_its_segment():
    """Substreams: the clean portion of a contaminated draw is bit-identical
    to the uncontaminated model under the same seed."""
    base = model_preset("model1")
    cont = model_preset("model5")
    a = generate_curves(base, 8, GRID, 7)
    b = generate_curves(cont, 8, GRID, 7)
    seg = (GRID.points >= 0.2) & (GRID.points <= 0.4)
    np.testing.assert_array_equal(a[:, ~seg], b[:, ~seg])
    assert not np.array_equal(a[:, seg], b[:, seg])


@pytest.mark.parametrize("name", ["model5", "model6"])
def test_contaminated_curves_equal_a_direct_segment_draw(name):
    """White (model5) and correlated (model6) contamination draw, bit for
    bit, Cauchy noise on the segment from substream (seed, 2): standard
    normals times the segment's jittered Cholesky factor over the root of a
    chi-square(1) per curve when correlated."""
    model = model_preset(name)
    cont = model.contamination
    n, seed = 8, 7
    points = GRID.points
    seg = (points >= cont.lo) & (points <= cont.hi)
    m = int(seg.sum())
    rng = make_rng((seed, 2))
    if cont.d is None:
        noise = rng.standard_cauchy(size=(n, m))
    else:
        gap = np.abs(points[seg][:, None] - points[seg][None, :])
        factor = np.linalg.cholesky(np.exp(-gap / cont.d) + CHOL_JITTER * np.eye(m))
        z = rng.standard_normal((n, m)) @ factor.T
        noise = z / np.sqrt(rng.chisquare(1.0, size=n))[:, None]
    expected = generate_curves(replace(model, contamination=None), n, GRID, seed)
    expected[:, seg] = model_mean(model, points)[seg] + cont.scale * noise
    assert generate_curves(model, n, GRID, seed).tobytes() == expected.tobytes()


def test_gaussian_curves_have_exponential_correlation():
    m = ProcessModel("smooth", ErrorModel("gaussian", d=0.3), scale=ConstantScale(1.0))
    x = generate_curves(m, 4000, GRID, 11) - smooth_mean(GRID.points)
    j1, j2 = 10, 20
    gap = GRID.points[j2] - GRID.points[j1]
    emp = np.corrcoef(x[:, j1], x[:, j2])[0, 1]
    assert emp == pytest.approx(np.exp(-gap / 0.3), abs=0.05)


def test_correlation_factor_is_cached_read_only():
    """The cached factor is the fresh Cholesky factor, shared read-only, and
    curves drawn with a warm cache have the bytes of a cold one."""
    model = model_preset("model6")  # correlated errors and contamination
    simulation._correlated_factor.cache_clear()
    cold = generate_curves(model, 8, GRID, 5)
    assert simulation._correlated_factor.cache_info().currsize == 2
    points = GRID.points
    factor = simulation._correlated_factor(points.tobytes(), 0.3)
    cov = np.exp(-np.abs(points[:, None] - points[None, :]) / 0.3)
    np.testing.assert_array_equal(factor, np.linalg.cholesky(cov + CHOL_JITTER * np.eye(50)))
    assert not factor.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        factor[0, 0] = 0.0
    np.testing.assert_array_equal(generate_curves(model, 8, GRID, 5), cold)
    for d in np.linspace(0.1, 1.0, 10):
        simulation._correlated_factor(points.tobytes(), float(d))
    info = simulation._correlated_factor.cache_info()
    assert info.currsize == info.maxsize <= 8


def test_correlation_factor_cache_under_concurrent_draws():
    """Threads drawing on a cold cache, several grids at once, get the
    serial draws' bytes."""
    model = model_preset("model6")
    grids = [Grid.uniform(j) for j in (30, 40, 50)]
    jobs = [(grids[i % 3], i) for i in range(24)]
    expected = [generate_curves(model, 4, grid, seed) for grid, seed in jobs]
    simulation._correlated_factor.cache_clear()
    got = [None] * len(jobs)

    def work(part):
        for i in range(part, len(jobs), 8):
            got[i] = generate_curves(model, 4, *jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(p,)) for p in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def test_cauchy_margins_are_heavy():
    m = model_preset("model3")
    x = generate_curves(m, 2000, GRID, 13)
    centered = np.abs(x - smooth_mean(GRID.points))
    # Cauchy: tail mass beyond 2*sigma*tan(0.45*pi) is about 10 percent
    thresh = 2.0 * np.tan(0.45 * np.pi)
    frac = (centered > thresh).mean()
    assert frac == pytest.approx(0.10, abs=0.02)


def test_ise_discrete_mean():
    theta = np.array([1.0, 2.0, 3.0])
    mu = np.array([0.0, 2.0, 1.0])
    assert ise(theta, mu) == pytest.approx((1 + 0 + 4) / 3)
    grid = Grid.uniform(3)
    ds = matrix_dataset(grid, np.tile(mu, (4, 1)), np.ones((4, 3), dtype=bool))
    est = fit_marginal(ds, huber(5.0))
    assert ise(est.theta, mu) == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(DataFormatError):
        ise(theta, mu[:2])


def test_scenario_config_validation():
    m = model_preset("model1")
    with pytest.raises(DataFormatError):
        ScenarioConfig(model=m, scheme=complete(), n=1)
    with pytest.raises(DataFormatError):
        ScenarioConfig(model=m, scheme=complete(), losses=())
    with pytest.raises(ValueError):
        ScenarioConfig(model=m, scheme=complete(), losses=("huber",))  # bad spec
    with pytest.raises(DataFormatError):
        ScenarioConfig(model=m, scheme=complete(), alpha=0.0)


def test_run_ise_study_rows():
    cfg = ScenarioConfig(model=model_preset("model1"), scheme=random_interval(),
                         n=20, grid_size=30, losses=("square", "huber:0.8"),
                         repetitions=5, seed=100, model_name="model1")
    rows = run_ise_study(cfg)
    metrics = {(r["estimator"], r["metric"]) for r in rows}
    assert ("square", "median_ise") in metrics
    assert ("huber:0.8", "median_ise_ratio_square_over_this") in metrics
    assert all(r["scenario"] == "model1" for r in rows)
    assert all(np.isfinite(r["value"]) for r in rows)


def test_run_ise_study_thread_invariance():
    base = dict(model=model_preset("model1"), scheme=random_interval(),
                n=15, grid_size=25, losses=("huber:0.8",), B=100, repetitions=6,
                seed=200, probes=("linear",), model_name="model1")
    for driver in (run_ise_study, run_coverage_study, run_size_study):
        serial = driver(ScenarioConfig(threads=1, **base))
        threaded = driver(ScenarioConfig(threads=3, **base))
        assert serial == threaded, driver.__name__


ALL_LOSSES = ("square", "huber:0.8", "huber-scaled:3", "quantile:0.5", "quantile:0.25",
              "squantile:0.5,0.1")


@pytest.mark.parametrize("scheme,trim", [("snippet:0.06", 0.2),
                                         ("random-interval:0.3,0.3", 0.05)])
def test_run_ise_study_equals_repetition_loop(scheme, trim, monkeypatch):
    """Every ISE of the batched study equals, bit for bit, that of fitting
    its repetition alone, at 1 and 3 threads; 37 repetitions fill a batch
    of 36 or 24 and a last one of 1 or 13, and under the snippet scheme the
    trim drops curves, so batches carry unobserved padding rows."""
    cfg = dict(model=model_preset("model3"), scheme=parse_scheme(scheme, trim), n=30,
               grid_size=100, losses=ALL_LOSSES, repetitions=37, seed=9, model_name="m3")
    grid = Grid.uniform(100)
    datasets = [_draw_dataset(ScenarioConfig(**cfg), grid, (9, r)) for r in range(37)]
    if scheme.startswith("snippet"):
        assert min(ds.n for ds in datasets) < 30  # the trim dropped curves
    mu = model_mean(cfg["model"], datasets[0].grid.points)
    loop = {text: [ise(fit(ds, parse_loss(text)).theta, mu) for ds in datasets]
            for text in ALL_LOSSES}
    medians = {text: float(np.median(v)) for text, v in loop.items()}
    expected = [{"scenario": "m3", "estimator": text, "probe": "", "metric": "median_ise",
                 "value": medians[text]} for text in ALL_LOSSES]
    expected += [{"scenario": "m3", "estimator": text, "probe": "",
                  "metric": "median_ise_ratio_square_over_this",
                  "value": medians["square"] / medians[text]} for text in ALL_LOSSES[1:]]
    seen = []

    def spy(theta, mu_true):
        seen.append(ise(theta, mu_true))
        return seen[-1]

    monkeypatch.setattr(simulation, "ise", spy)
    for threads in (1, 3):
        seen.clear()
        assert run_ise_study(ScenarioConfig(threads=threads, **cfg)) == expected
        assert seen == [x for text in ALL_LOSSES for x in loop[text]]


@pytest.mark.parametrize("scheme,trim,shift", [("random-interval:0.3,0.3", 0.0, 0.0),
                                               ("random-interval:0.3,0.3", 0.05, 2.5),
                                               ("snippet:0.06", 0.2, 0.0)])
def test_draw_dataset_equals_restricted_matrix_dataset(scheme, trim, shift):
    """The coverage and size studies' dataset is the one that building the
    full draw and restricting it to the trim window gives: same values, NaN
    at the same places, mask, ids, groups and grid."""
    cfg = ScenarioConfig(model=model_preset("model3"), scheme=parse_scheme(scheme, trim), n=30,
                         grid_size=100)
    grid = Grid.uniform(100)
    for r in range(4):
        got = _draw_dataset(cfg, grid, (5, r), shift=shift)
        values = generate_curves(cfg.model, 30, grid, (5, r, 0))
        full = matrix_dataset(grid, values + shift if shift else values,
                              generate_masks(cfg.scheme, 30, grid, (5, r, 1)))
        want = restrict_dataset(full, trim, 1.0 - trim) if trim else full
        np.testing.assert_array_equal(got.values, want.values)  # NaN matches NaN
        np.testing.assert_array_equal(got.mask, want.mask)
        assert got.ids == want.ids and got.groups == want.groups
        np.testing.assert_array_equal(got.grid.points, want.grid.points)
        np.testing.assert_array_equal(got.grid.weights, want.grid.weights)
        assert (got.grid.offset, got.grid.scale) == (want.grid.offset, want.grid.scale)
    if scheme.startswith("snippet"):
        assert got.n < 30  # the trim dropped curves


def test_run_ise_study_solves_stacked_batches_on_the_main_thread(monkeypatch):
    """One solve per loss and batch of k = ISE_BATCH // (n J') repetitions,
    on (k, n, J') stacked values, where J' counts the grid points the trim
    keeps; the solves and every curve and mask draw run on the calling
    thread, at threads 1 and 3 alike."""
    caller = threading.current_thread()
    calls, draws = [], []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            draws.append((name, threading.current_thread() is caller))
            return fn(*args, **kwargs)
        monkeypatch.setattr(simulation, name, wrapped)

    solve = simulation.solve_locations

    def spy_solve(values, mask, loss, **kwargs):
        calls.append((values.shape, threading.current_thread() is caller))
        return solve(values, mask, loss, **kwargs)

    monkeypatch.setattr(simulation, "solve_locations", spy_solve)
    spy("generate_curves", simulation.generate_curves)
    spy("generate_masks", simulation.generate_masks)
    points = Grid.uniform(100).points
    J = int(np.count_nonzero((points >= 0.2) & (points <= 0.8)))
    k = simulation.ISE_BATCH // (30 * J)
    R = k + 1  # one full batch and one of a single repetition
    for threads in (1, 3):
        calls.clear()
        draws.clear()
        run_ise_study(ScenarioConfig(model=model_preset("model1"),
                                     scheme=parse_scheme("snippet:0.06", 0.2), n=30,
                                     grid_size=100, losses=("square", "huber:0.8", "quantile:0.5"),
                                     repetitions=R, seed=3, threads=threads))
        assert len(calls) == 3 * math.ceil(R / k)
        assert [shape for shape, _ in calls] == [(k, 30, J)] * 3 + [(1, 30, J)] * 3
        assert all(here for _, here in calls)
        assert sorted(name for name, _ in draws) == ["generate_curves"] * R + ["generate_masks"] * R
        assert all(here for _, here in draws)


def test_run_ise_study_error_names_repetition_and_loss(monkeypatch):
    monkeypatch.setattr(estimator, "MAX_ITER", 1)
    cfg = ScenarioConfig(model=model_preset("model1"), scheme=random_interval(), n=20,
                         grid_size=30, losses=("square", "huber:0.8"), repetitions=5, seed=1)
    with pytest.raises(NumericalError, match=r"^repetition 0, loss huber:0\.8: root solve did "
                                             r"not reach tolerance for fit 0 at grid point \d+ "):
        run_ise_study(cfg)


def test_study_solves_stay_on_their_repetition_thread(monkeypatch):
    """A study's parallelism is its repetitions: at threads = 1 as at 2, no
    bootstrap ensemble splits across CPUs.  An ensemble that split would
    start its threads from a repetition's pool thread; only the main thread
    starts any, and only the study's pool threads."""
    monkeypatch.setattr(inference, "PART_MIN", 1)
    monkeypatch.setattr(inference, "_usable_cpus", lambda: 2)
    starters = []
    start = threading.Thread.start

    def counting_start(thread):
        starters.append(threading.current_thread())
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for threads in (1, 2):
        starters.clear()
        run_coverage_study(ScenarioConfig(
            model=model_preset("model1"), scheme=random_interval(), n=15, grid_size=25,
            losses=("huber-scaled:3",), B=100, repetitions=2, seed=200, probes=("linear",),
            threads=threads))
        assert 1 <= len(starters) <= threads
        assert set(starters) == {threading.main_thread()}


@pytest.mark.parametrize("scheme", ["snippet:0.3", "fixed-intervals:0.5", "sparse:0.5"])
def test_coverage_under_the_other_observation_schemes(scheme):
    """The trend intervals cover under the observation schemes that c6 does
    not run.  One reduced probe-t3 study per scheme: 40 curves on 30 points,
    B = 100, 100 repetitions, huber-scaled:3 and the three Legendre probes.
    Over seeds 0-39 every probe's coverage lay in [0.85, 1.0] and the mean
    of the three in [0.89, 0.97]; the bands are a little wider, and the
    seed, 2026, lies outside that sweep."""
    rows = run_coverage_study(ScenarioConfig(
        model=model_preset("probe-t3"), scheme=parse_scheme(scheme), n=40, grid_size=30,
        losses=("huber-scaled:3",), B=100, repetitions=100, seed=2026,
        probes=("constant", "linear", "quadratic")))
    coverage = [row["value"] for row in rows if row["metric"] == "coverage"]
    assert len(coverage) == 3 and min(coverage) >= 0.84
    assert 0.88 <= np.mean(coverage) <= 0.98


def test_coverage_study_rejects_replicates_without_spread():
    """Noise-free, fully observed curves give replicate profiles equal to
    the fit, so the interval step raises, naming the probe, instead of
    counting a one-point interval."""
    model = ProcessModel("probe", ErrorModel("gaussian"), scale=ConstantScale(0.0))
    cfg = ScenarioConfig(model=model, scheme=complete(), n=15, grid_size=25,
                         losses=("huber:0.8",), B=100, repetitions=2, seed=1,
                         probes=("linear",))
    with pytest.raises(NumericalError, match=r"^probe linear: all 100 bootstrap replicate "
                                             r"coefficients equal "):
        run_coverage_study(cfg)


def test_coverage_study_rejects_a_step_outside_the_analysis_grid(monkeypatch):
    """trim = 0.1 keeps the points in [0.125, 0.875] of a 25-point grid, so
    step:0.95 selects none of them; the study fails before any bootstrap."""
    fitted = []
    monkeypatch.setattr(simulation, "bootstrap_ensemble", lambda *a: fitted.append(a))
    cfg = ScenarioConfig(model=model_preset("probe-gaussian"),
                         scheme=parse_scheme("random-interval:0.3,0.3", 0.1), n=15,
                         grid_size=25, losses=("huber:0.8",), B=100, repetitions=2, seed=1,
                         probes=("linear", "step:0.95"))
    with pytest.raises(DataFormatError, match=r"x0=0\.95 selects no point of the grid on "
                                              r"\[0\.125, 0\.875\]$"):
        run_coverage_study(cfg)
    assert fitted == []


def test_run_coverage_study_rows():
    cfg = ScenarioConfig(model=model_preset("probe-gaussian"), scheme=complete(),
                         n=15, grid_size=25, losses=("huber:0.8",), B=100,
                         repetitions=4, seed=300, probes=("constant",),
                         model_name="probe-gaussian")
    rows = run_coverage_study(cfg)
    d = {r["metric"]: r["value"] for r in rows}
    assert 0.0 <= d["coverage"] <= 1.0
    assert d["median_ci_length"] > 0
    with pytest.raises(DataFormatError, match="needs at least one probe"):
        run_coverage_study(ScenarioConfig(model=model_preset("probe-gaussian"),
                                          scheme=complete(), probes=()))


def test_run_coverage_study_matches_trend_ci_loop():
    """Same streams and numbers as a hand-written loop over trend_ci:
    repetition r's dataset on (seed, r), and for the l-th loss one ensemble
    on (seed, r, 2, l) that every probe's interval shares."""
    losses = ("huber:0.8", "quantile:0.5")
    probes = ("linear", "step:0.4")
    cfg = ScenarioConfig(model=model_preset("probe-gaussian"), scheme=random_interval(),
                         n=12, grid_size=20, losses=losses, B=100, repetitions=3, seed=55,
                         probes=probes, alpha=0.2, model_name="pg")
    grid = Grid.uniform(20)
    hits = {(text, probe): [] for text in losses for probe in probes}
    lengths = {(text, probe): [] for text in losses for probe in probes}
    for r in range(3):
        ds = _draw_dataset(cfg, grid, (55, r))
        mu = model_mean(cfg.model, ds.grid.points)
        for li, text in enumerate(losses):
            for probe in probes:
                name, values = parse_probe(probe, ds.grid)
                ci = trend_ci(ds, parse_loss(text), values, 100, (55, r, 2, li), alpha=0.2,
                              probe_name=name)
                truth = integrate(mu * values, ds.grid)
                hits[text, probe].append(ci.lower <= truth <= ci.upper)
                lengths[text, probe].append(ci.upper - ci.lower)
    expected = []
    for text in losses:
        for probe in probes:
            row = {"scenario": "pg", "estimator": text, "probe": probe}
            expected += [{**row, "metric": "coverage", "value": float(np.mean(hits[text, probe]))},
                         {**row, "metric": "median_ci_length",
                          "value": float(np.median(lengths[text, probe]))}]
    assert run_coverage_study(cfg) == expected


@pytest.mark.parametrize("shift", [0.0, 3.0])
def test_run_size_study_matches_group_test_loop(shift):
    """Same streams and numbers as a hand-written loop over the group test:
    group g of repetition r on (seed, r, g, 0) curves and (seed, r, g, 1)
    masks, the test on (seed, r, 2)."""
    losses = ("huber:0.8", "square")
    cfg = ScenarioConfig(model=model_preset("model1"), scheme=random_interval(),
                         n=10, grid_size=20, losses=losses, B=100, repetitions=3,
                         seed=777, alpha=0.5, shift=shift, model_name="model1")
    grid = Grid.uniform(20)
    p_values = {text: [] for text in losses}
    for r in range(3):
        groups = []
        for g in range(2):
            values = generate_curves(cfg.model, 10, grid, (777, r, g, 0))
            if g == 1:
                values = values + shift
            masks = generate_masks(cfg.scheme, 10, grid, (777, r, g, 1))
            groups.append(matrix_dataset(grid, values, masks, group=str(g)))
        for text in losses:
            res = anova_l2_test(groups, parse_loss(text), B=100, seed=(777, r, 2))
            p_values[text].append(res.p_value)
    expected = []
    for text in losses:
        p = np.array(p_values[text])
        q25, q50, q75 = np.percentile(p, [25, 50, 75])
        for metric, value in [("rejection_rate", np.mean(p < 0.5)), ("p_value_q25", q25),
                              ("p_value_q50", q50), ("p_value_q75", q75)]:
            expected.append({"scenario": "model1", "estimator": text, "probe": "",
                             "metric": metric, "value": float(value)})
    assert run_size_study(cfg) == expected


def test_trim_restricts_analysis_window():
    cfg = ScenarioConfig(model=model_preset("probe-gaussian"),
                         scheme=random_interval(epsilon_trim=0.05),
                         n=15, grid_size=40, losses=("huber:0.8",), B=100,
                         repetitions=2, seed=400, probes=("constant",))
    rows = run_coverage_study(cfg)  # must not blow up on the trimmed grid
    assert rows


def test_read_scenario_config(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(
        "# comment line\n"
        "study = coverage\n"
        "model = probe-cauchy\n"
        "scheme = random-interval:0.3,0.3\n"
        "trim = 0.01\n"
        "n = 40\n"
        "grid_size = 60\n"
        "losses = square; squantile:0.5,0.05\n"
        "B = 150\n"
        "R = 3\n"
        "seed = 99\n"
        "probes = constant; quadratic\n"
        "alpha = 0.1\n",
        encoding="utf-8",
    )
    study, cfg = read_scenario_config(p)
    assert study == "coverage"
    assert cfg.model_name == "probe-cauchy"
    assert cfg.scheme.epsilon_trim == 0.01
    assert cfg.losses == ("square", "squantile:0.5,0.05")
    assert cfg.probes == ("constant", "quadratic")
    assert cfg.B == 150 and cfg.repetitions == 3 and cfg.alpha == 0.1


def test_read_scenario_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("model = model1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="seed"):
        read_scenario_config(p)
    p.write_text("model = model1\nseed = 1\nfrobnicate = 9\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="unknown keys.*frobnicate"):
        read_scenario_config(p)
    p.write_text("model = model1\nseed = 1\nseed = 2\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="duplicate key"):
        read_scenario_config(p)
    p.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="key = value"):
        read_scenario_config(p)
    p.write_text("study = power\nmodel = model1\nseed = 1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="study must be one of"):
        read_scenario_config(p)
    p.write_text("study = size\nmodel = model1\nseed = 1\ngroups = 3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="unknown keys.*groups"):
        read_scenario_config(p)
    p.write_text("study = ise\nmodel = model1\nseed = 1\nshift = 3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="shift applies only to study = size"):
        read_scenario_config(p)
    with pytest.raises(DataFormatError, match="cannot read"):
        read_scenario_config(tmp_path / "absent.cfg")
    for key, value in [("trim", "abc"), ("trim", "0.7"), ("scheme", "random-interval:0.3"),
                       ("model", "model9"), ("n", "abc"), ("B", "4.5"), ("alpha", "x"),
                       ("seed", "one"), ("losses", "hubr")]:
        keys = {"model": "model1", "seed": "1", key: value}
        p.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"bad\.cfg: {key}: "):
            read_scenario_config(p)


def test_model_mean_dispatch():
    m1 = model_preset("model1")
    mp = model_preset("probe-gaussian")
    t = np.linspace(0, 1, 7)
    np.testing.assert_array_equal(model_mean(m1, t), smooth_mean(t))
    np.testing.assert_array_equal(model_mean(mp, t), probe_mean(t))
