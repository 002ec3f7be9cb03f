"""The batched subset-fit kernel against slow oracles, its singular rule,
the engine boundary the benchmark's tracer wraps, and its memory bound."""

import importlib
import math
import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoreg import descriptors, engine, genome, regress
from evoreg.descriptors import SyntheticProvider, TableProvider
from evoreg.engine import EvolutionState, init_sample, run_generation
from evoreg.regress import (
    PIVOT_TOL,
    GramFitter,
    SingularFitError,
    fit_assessed,
    ols_fit,
)
from tests.conftest import binary_topology, normal_dataset, planted_config
from tests.test_regress import lstsq_oracle, make_dataset, make_phenotypes

PANELS = ("random", "collinear", "constant", "near_constant", "exact", "tight")


def make_panel(kind, n, rng):
    """A (p, m) panel and response of the given kind; see PANELS."""
    p = n + 3
    m = n + 7 if kind == "tight" else int(rng.integers(n + 12, 40))
    panel = rng.normal(size=(p, m)) * rng.uniform(0.5, 3.0, size=(p, 1))
    panel += rng.uniform(-2.0, 2.0, size=(p, 1))
    y = panel[:n].T @ rng.normal(size=n) + rng.normal(size=m) + 1.5
    if kind == "collinear":
        panel[1] = panel[0]
    elif kind == "constant":
        panel[0] = 2.5
    elif kind == "near_constant":
        # intercept pivot of a subset with member 0 near 1e-8 of its diagonal
        panel[0] = 2.5 + 2.5e-4 * rng.normal(size=m)
    elif kind == "exact":
        y = 0.75 + panel[:n].T @ np.arange(1.0, n + 1.0)
    return panel, y


def all_subsets(p, n):
    return np.array(list(combinations(range(p), n)), dtype=np.intp)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(PANELS),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    s=st.sampled_from([2.0, 1.5]),
)
def test_kernel_matches_oracles(kind, n, seed, s):
    rng = np.random.default_rng(seed)
    panel, y = make_panel(kind, n, rng)
    p, m = panel.shape
    ds = make_dataset(y)
    phenos = make_phenotypes(list(panel))
    index = all_subsets(p, n)
    fits = GramFitter(panel, y, [str(i) for i in range(p)], n,
                      s=s).fit_subsets(index)
    # conditioning costs the normal equations digits on near-constant panels
    rtol = 1e-5 if kind == "near_constant" else 1e-8
    for wi in (False, True):
        k = n + wi
        assert fits.df[int(wi)] == m - k
        for row, subset in enumerate(index.tolist()):
            members = [phenos[i] for i in subset]
            try:
                ref = ols_fit(members, ds, wi, s)
            except SingularFitError:
                assert fits.singular[int(wi), row], (subset, wi)
                continue
            assert not fits.singular[int(wi), row], (subset, wi)
            coef, t, r2, se_s = (field[row] for field in fits.form(wi))
            scale = float(np.max(np.abs(ref.coefficients)))
            assert np.allclose(coef, ref.coefficients, rtol=rtol,
                               atol=rtol * scale)
            assert r2 == pytest.approx(ref.r2, rel=rtol, abs=1e-10)
            if ref.se_s == 0.0:     # exact fit
                assert se_s == 0.0
                assert np.all(np.isinf(t)) and np.array_equal(
                    np.sign(t), np.sign(ref.coefficients))
                continue
            assert se_s == pytest.approx(ref.se_s, rel=rtol)
            assert np.allclose(t, ref.t_stats, rtol=rtol, atol=rtol)
            with np.errstate(invalid="ignore"):     # corrcoef of constant y_hat
                lcoef, lt, lr2, lsse = lstsq_oracle(panel[subset].T, y, wi)
            assert np.allclose(coef, lcoef, rtol=rtol, atol=rtol * scale)
            assert np.allclose(t, lt, rtol=rtol, atol=rtol)
            if np.isnan(lr2):   # constant y_hat: r2 is defined as 0
                assert r2 == 0.0
            else:
                assert r2 == pytest.approx(lr2, rel=rtol, abs=1e-10)
            if s == 2.0:
                assert se_s == pytest.approx(lsse, rel=rtol)


def test_kernel_panels_hit_their_cases():
    """The oracle panels do reach the cases they are named for."""
    rng = np.random.default_rng(3)
    n = 2
    for kind in PANELS:
        panel, y = make_panel(kind, n, rng)
        fits = GramFitter(panel, y, list("abcde"), n).fit_subsets(
            all_subsets(5, n))
        with_0 = [0 in sub for sub in combinations(range(5), n)]
        if kind == "collinear":   # (0, 1) singular in both forms
            assert fits.singular[:, 0].all() and fits.singular.sum() == 2
        elif kind == "constant":  # member 0 only breaks the intercept form
            assert list(fits.singular[1]) == with_0
            assert not fits.singular[0].any()
        elif kind == "exact":     # (0, 1) with intercept fits exactly
            _, t, r2, se_s = fits.form(True)
            assert se_s[0] == 0.0 and np.all(np.isinf(t[0]))
            assert r2[0] == pytest.approx(1.0, abs=1e-12)
        else:
            assert not fits.singular.any()


def _pair_with_pivot_ratio(ratio, rng, m=30):
    """x0 and x1 = x0 + d*u with u orthogonal to x0, so that the second
    Cholesky pivot of the no-intercept normal matrix is `ratio` times its
    diagonal entry."""
    x0 = rng.normal(size=m) + 1.0
    u = rng.normal(size=m)
    u -= (u @ x0) / (x0 @ x0) * x0
    d = math.sqrt(ratio / (1.0 - ratio) * (x0 @ x0) / (u @ u))
    return np.vstack([x0, x0 + d * u])


@pytest.mark.parametrize("factor, singular", [(10.0, False), (0.1, True)])
def test_singular_rule_member_pivot(factor, singular):
    rng = np.random.default_rng(41)
    panel = _pair_with_pivot_ratio(factor * PIVOT_TOL, rng)
    y = rng.normal(size=panel.shape[1])
    fitter = GramFitter(panel, y, ["a", "b"], n=2)
    phenos, ds = make_phenotypes(list(panel)), make_dataset(y)
    for wi in (False, True):
        if singular:
            with pytest.raises(SingularFitError):
                fitter.fit((0, 1), wi)
            with pytest.raises(SingularFitError):
                ols_fit(phenos, ds, wi)
        else:
            assert fitter.fit((0, 1), wi).df == panel.shape[1] - 2 - wi
            ols_fit(phenos, ds, wi)


@pytest.mark.parametrize("factor, singular", [(10.0, False), (0.1, True)])
def test_singular_rule_intercept_pivot(factor, singular):
    """A near-constant member: the intercept form's last pivot against m."""
    rng = np.random.default_rng(42)
    m, c = 30, 2.0
    u = rng.normal(size=m)
    u -= u.mean()
    ratio = factor * PIVOT_TOL
    # pivot of the ones column after x = c + d*u: m - m^2 c^2 / (x . x)
    d = math.sqrt(ratio * m * c * c / ((1.0 - ratio) * (u @ u)))
    panel = (c + d * u)[None, :]
    y = rng.normal(size=m)
    fitter = GramFitter(panel, y, ["a"], n=1)
    assert fitter.fit((0,), False).df == m - 1
    if singular:
        with pytest.raises(SingularFitError):
            fitter.fit((0,), True)
        with pytest.raises(SingularFitError):
            ols_fit(make_phenotypes(list(panel)), make_dataset(y), True)
    else:
        assert fitter.fit((0,), True).df == m - 2


def test_fallback_drops_subset_with_singular_intercept_form():
    rng = np.random.default_rng(43)
    m = 40
    x = rng.uniform(1.0, 2.0, size=m)
    y = 3.0 * x + rng.normal(size=m) * 0.1
    panel = np.vstack([np.full(m, 2.0), x])
    ds = make_dataset(y)
    fitter = GramFitter(panel, y, ["const", "x"], n=1)
    with pytest.raises(SingularFitError):
        fitter.fit((0,), True)
    alone = fitter.fit((0,), False)     # well-posed: y on a constant
    assert alone.df == m - 1
    assert fit_assessed(fitter.fit, (0,), ds, 0.05, "fallback") == []
    both = fit_assessed(fitter.fit, (0,), ds, 0.05, "both")
    assert [mo.with_intercept for mo in both] == [False]
    # the well-posed member is unaffected
    assert len(fit_assessed(fitter.fit, (1,), ds, 0.05, "fallback")) == 1


def test_fit_lookup_matches_kernel_rows_and_checks_order():
    rng = np.random.default_rng(44)
    panel = rng.normal(size=(7, 25)) + 3.0
    y = rng.normal(size=25)
    fitter = GramFitter(panel, y, list("abcdefg"), n=3)
    fits = fitter.fit_subsets(all_subsets(7, 3))
    for row, subset in enumerate(combinations(range(7), 3)):
        for wi in (False, True):
            model = fitter.fit(subset, wi)
            assert model.coefficients == tuple(fits.form(wi)[0][row])
            assert model.member_ids == tuple("abcdefg"[i] for i in subset)
    for bad in ((1, 0, 2), (0, 0, 1), (-1, 2, 3), (2,), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError):
            fitter.fit(bad, True)


# --- the boundary bench/tracing.py wraps by name -----------------------------


def test_engine_boundary_for_the_tracer(planted_world, monkeypatch):
    """The benchmark's tracer wraps engine.GramFitter, GramFitter.fit,
    engine.fit_assessed and regress.t_critical by name, and reconciles
    C(p, n) fit_assessed calls per generation; these names and counts are
    its contract with the program."""
    assert engine.GramFitter is regress.GramFitter
    assert callable(vars(GramFitter)["fit"])
    assert callable(engine.fit_assessed) and callable(regress.t_critical)

    topo, ds, provider = planted_world
    cfg = planted_config(seed=8, p=12, n=2)
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    calls = {"gram": 0, "fit": 0, "assessed": 0, "t": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "GramFitter",
                        counting("gram", engine.GramFitter))
    monkeypatch.setattr(GramFitter, "fit", counting("fit", GramFitter.fit))
    monkeypatch.setattr(engine, "fit_assessed",
                        counting("assessed", engine.fit_assessed))
    monkeypatch.setattr(regress, "t_critical",
                        counting("t", regress.t_critical))
    record = run_generation(state)
    assert calls["gram"] == 1
    assert calls["assessed"] == math.comb(cfg.p, cfg.n)
    assert calls["fit"] >= calls["assessed"]
    assert calls["t"] > 0
    assert record.valid_regression_count <= calls["assessed"]


def _partial_table_world():
    """A descriptor table with every third genotype of a 7-gene space left
    out, so some children get no phenotype and never reach the screen."""
    topology = binary_topology(7)
    dataset = normal_dataset(m=30)
    rng = np.random.default_rng(17)
    table = {g.render(): rng.uniform(0.0, 1.0, 30)
             for i, g in enumerate(topology.all_genotypes()) if i % 3}
    return topology, dataset, TableProvider(topology, table)


@pytest.mark.parametrize("world", ["synthetic", "partial_table"])
def test_child_boundaries_for_the_tracer(world, planted_world, monkeypatch):
    """The tracer also wraps engine.check_viability and both providers'
    provide methods, and reads its provide_ms, viability_ms and nonviable
    counts from them: one run_generation must screen each child that gets
    a phenotype exactly once, right after its provide call."""
    assert engine.check_viability is descriptors.check_viability
    for cls in (SyntheticProvider, TableProvider):
        assert callable(vars(cls)["provide"])

    topo, ds, provider = (planted_world if world == "synthetic"
                          else _partial_table_world())
    cfg = planted_config(seed=4, p=12, n=1, k=6, pp=0.3, cp=0.3)
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    children, events = [], []

    def bred(original):
        def crossover(a, b, rng):
            pair = original(a, b, rng)
            children.extend(pair)
            return pair
        return crossover

    def provided(original):
        def provide(self, genotype):
            ph = original(self, genotype)
            events.append(("provide", genotype, ph))
            return ph
        return provide

    def screened(original):
        def check_viability(ph, ds, policy):
            events.append(("screen", ph.source_genotype, ph))
            return original(ph, ds, policy)
        return check_viability

    monkeypatch.setattr(genome, "crossover", bred(genome.crossover))
    cls = type(provider)
    monkeypatch.setattr(cls, "provide", provided(vars(cls)["provide"]))
    monkeypatch.setattr(engine, "check_viability",
                        screened(engine.check_viability))
    run_generation(state)

    assert len(children) == 2 * cfg.k
    provides = [e for e in events if e[0] == "provide"]
    screens = [e for e in events if e[0] == "screen"]
    with_phenotype = [e for e in provides if e[2] is not None]
    assert screens and len(provides) <= len(children)
    if world == "partial_table":
        assert len(with_phenotype) < len(provides)
    assert len(screens) == len(with_phenotype)
    for i, event in enumerate(events):
        if event[0] == "screen":
            kind, genotype, ph = events[i - 1]
            assert kind == "provide" and ph is event[2]
            assert genotype == event[1]


@pytest.mark.parametrize("instrument", ["Probe", "Tracer"])
def test_tracer_patches_and_restores_every_name(instrument, planted_world,
                                                monkeypatch):
    """bench/tracing.py as it stands: each instrument finds every attribute
    it patches (a renamed or deleted one fails here with a KeyError),
    replaces it, and puts the original back on uninstall. The Tracer's
    counts of a short run reconcile with the run's own records."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    tool = getattr(tracing, instrument)()
    try:
        tool.install()   # inside the try: a partial install is undone too
        patched = list(tool.patches._saved)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
        if instrument == "Tracer":
            topo, ds, provider = planted_world
            cfg = planted_config(seed=5, p=12, n=2, max_generations=3)
            result = engine.run(cfg, topo, provider, ds)
            tracing.reconcile(
                tool.runs,
                [[r.valid_regression_count for r in result.records]],
                {"p": cfg.p, "n": cfg.n, "k": cfg.k},
            )
            assert tool.agg["descriptors.provide"][0] > 0
    finally:
        tool.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


# --- memory ------------------------------------------------------------------

PEAK_BOUND_MB = 32


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fit_subsets_memory_is_bounded(monkeypatch):
    """C(400, 2) = 79800 subsets at s = 1.5, whose error sums need residual
    rows: chunked, fitting them all stays under the bound; one pass over all
    subsets would exceed it."""
    rng = np.random.default_rng(45)
    p, m = 400, 60
    panel = rng.normal(size=(p, m)) + 2.0
    y = panel[7] - 0.5 * panel[300] + rng.normal(size=m) * 0.3
    # built for n = 1, so that only the pass measured below fits the pairs
    fitter = GramFitter(panel, y, [f"ph{i}" for i in range(p)], n=1, s=1.5)
    index = all_subsets(p, 2)
    found = []
    peak = _peak_mb(lambda: found.append(fitter.fit_subsets(index)))
    fits = found[0]
    se_s = np.where(fits.singular[1], np.inf, fits.form(True)[3])
    assert tuple(index[np.argmin(se_s)]) == (7, 300)
    assert peak < PEAK_BOUND_MB, f"peak {peak:.1f} MB"

    monkeypatch.setattr(regress, "CHUNK_SUBSETS", 10**9)
    unchunked = _peak_mb(lambda: fitter.fit_subsets(index))
    assert unchunked > PEAK_BOUND_MB, f"unchunked peak {unchunked:.1f} MB"
