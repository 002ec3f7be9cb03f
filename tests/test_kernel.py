"""The batched subset-fit kernel against slow oracles, its singular rule,
the engine boundary the benchmark's tracer wraps, and its memory bound."""

import hashlib
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
from evoreg.descriptors import (SyntheticProvider, TableProvider,
                                ViabilityPolicy)
from evoreg.engine import EvolutionState, init_sample, run_generation
from evoreg.regress import (
    PIVOT_TOL,
    GramFitter,
    SingularFitError,
    fit_assessed,
    ols_fit,
)
from evoreg.scores import OBJECTIVE_KINDS, ObjectiveSpec
from evoreg.strategy import StrategySpec
from tests.conftest import (
    assess_per_form_oracle,
    binary_topology,
    candidate_bits,
    candidate_view,
    fit_assessed_oracle,
    normal_dataset,
    oracle_candidates,
    partial_table_world,
    planted_config,
    planted_provider,
    value_bits,
)
from tests.test_regress import lstsq_oracle, make_dataset, make_phenotypes

PANELS = ("random", "collinear", "constant", "near_constant", "exact", "tight")
# m = n + 6: the intercept form has one coefficient more than the count rule
# allows, the no-intercept form exactly as many
VALIDITY_PANELS = PANELS + ("count_edge",)
R2 = ObjectiveSpec("r2", 1.0)
OBJECTIVES = [ObjectiveSpec(kind, s) for kind in OBJECTIVE_KINDS
              for s in (0.5, 1.0, 1.5, 2.0, 3.0) if (kind, s) != ("hr", 1.0)]


def make_panel(kind, n, rng):
    """A (p, m) panel and response of the given kind; see PANELS."""
    p = n + 3
    m = {"tight": n + 7, "count_edge": n + 6}.get(kind) or int(
        rng.integers(n + 12, 40))
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
    fitter = GramFitter(panel, y, n, s=s)
    # conditioning costs the normal equations digits on near-constant panels
    rtol = 1e-5 if kind == "near_constant" else 1e-8
    for wi in (False, True):
        k = n + wi
        assert fitter.df[int(wi)] == m - k
        for row, subset in enumerate(fitter.subsets.tolist()):
            members = [phenos[i] for i in subset]
            try:
                ref = ols_fit(members, ds, wi, s)
            except SingularFitError:
                assert fitter.singular[int(wi), row], (subset, wi)
                continue
            assert not fitter.singular[int(wi), row], (subset, wi)
            coef, t, r2, se_s = (field[row] for field in fitter.form(wi))
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


def _digest_panel():
    """An adversarial integer panel, its response, and the panel with two
    rows changed. Small integers make every Gram entry exact, whatever
    order BLAS adds in: rows 0 and 1 are negated copies, rows 2 and 3 have
    disjoint supports (Gram entry exactly 0), row 4 is constant (collinear
    with the intercept), row 5 has one nonzero value, row 7 is 2 * row 6 -
    row 0, and y = row 0 - 2 * row 6 + 1 is an exact fit of some subsets."""
    rng = np.random.default_rng(29)
    m, p = 24, 8
    panel = rng.integers(-4, 5, size=(p, m)).astype(float)
    panel[1] = -panel[0]
    panel[2, m // 2:] = 0.0
    panel[3, : m // 2] = 0.0
    panel[4] = 3.0
    panel[5] = 0.0
    panel[5, 7] = 5.0
    panel[7] = 2.0 * panel[6] - panel[0]
    y = panel[0] - 2.0 * panel[6] + 1.0
    new = panel.copy()
    new[2, : m // 2] = rng.integers(-4, 5, size=m // 2)
    new[5] = -panel[5]
    return panel, new, y


# sha256 prefixes of the cells `form()` reads + singular bytes, fresh and
# refitted: every value a fit, an assessment or a run uses. With the
# no-intercept form's two unread slots, pinned to +0.0, they cover every
# bit of table and singular, so a kernel change that moves one fails
KERNEL_DIGESTS = {
    (1, 2.0): ("bb9a2efb0cc1636a", "52827142a93a41ce"),
    (1, 1.5): ("85264d29bfa6360c", "c69a8e65ad324ec8"),
    (2, 2.0): ("a111fb40ea26bd3c", "f4c73bc63b397486"),
    (2, 1.5): ("4df904a6b0d125c2", "9af16d3c285b8328"),
    (3, 2.0): ("ee270e3630c456d8", "60f42c4e15d0ed53"),
    (3, 1.5): ("c623589c54e718d2", "a17077794a325181"),
    (4, 2.0): ("b721d0b85d81b1ca", "1a41a6931082df43"),
    (4, 1.5): ("5bc442660855dcde", "e86d6cdca35c00ce"),
}


@pytest.mark.parametrize("n,s", list(KERNEL_DIGESTS))
def test_kernel_bits_match_the_pinned_digests(n, s):
    """A fresh fitter of the adversarial panel, and the same fitter refitted
    at the two changed rows, write the cells `form()` reads and the
    singular mask whose digests are pinned, singular and exact fits
    included, and +0.0 in the no-intercept form's intercept coefficient and
    t. At s != 2 the error sums are left out: numpy's power gives different
    last bits on different SIMD builds (AVX-512 or not)."""
    panel, new, y = _digest_panel()

    def digest(fitter):
        assert not fitter.table[0, [0, n + 1]].view(np.uint64).any()
        cells = [a for wi in (0, 1)
                 for a in fitter.form(wi)[: 4 if s == 2.0 else 3]]
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in cells)
            + fitter.singular.tobytes()).hexdigest()[:16]

    fitter = GramFitter(panel, y, n, s=s)
    assert fitter.gram[2, 3] == 0.0 and fitter.singular.any()
    assert (fitter.table[:, -1] == 0.0).any()
    fresh = digest(fitter)
    fitter.refit([2, 5], new[[2, 5]])
    assert fitter.panel.tobytes() == new.tobytes()
    assert fitter.touched.any() and not fitter.touched.all()
    assert (fresh, digest(fitter)) == KERNEL_DIGESTS[n, s]


def test_kernel_panels_hit_their_cases():
    """The oracle panels do reach the cases they are named for."""
    rng = np.random.default_rng(3)
    n = 2
    for kind in PANELS:
        panel, y = make_panel(kind, n, rng)
        fitter = GramFitter(panel, y, n)
        with_0 = [0 in sub for sub in combinations(range(5), n)]
        if kind == "collinear":   # (0, 1) singular in both forms
            assert fitter.singular[:, 0].all() and fitter.singular.sum() == 2
        elif kind == "constant":  # member 0 only breaks the intercept form
            assert list(fitter.singular[1]) == with_0
            assert not fitter.singular[0].any()
        elif kind == "exact":     # (0, 1) with intercept fits exactly
            _, t, r2, se_s = fitter.form(True)
            assert se_s[0] == 0.0 and np.all(np.isinf(t[0]))
            assert r2[0] == pytest.approx(1.0, abs=1e-12)
        else:
            assert not fitter.singular.any()


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
    fitter = GramFitter(panel, y, n=2)
    phenos, ds = make_phenotypes(list(panel)), make_dataset(y)
    for wi in (False, True):
        if singular:
            with pytest.raises(SingularFitError):
                fitter.fit(0, wi)
            with pytest.raises(SingularFitError):
                ols_fit(phenos, ds, wi)
        else:
            assert fitter.fit(0, wi).df == panel.shape[1] - 2 - wi
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
    fitter = GramFitter(panel, y, n=1)
    assert fitter.fit(0, False).df == m - 1
    if singular:
        with pytest.raises(SingularFitError):
            fitter.fit(0, True)
        with pytest.raises(SingularFitError):
            ols_fit(make_phenotypes(list(panel)), make_dataset(y), True)
    else:
        assert fitter.fit(0, True).df == m - 2


def test_singular_rule_overflowing_member():
    """A member whose squared norm passes the float range (a row scaled by
    1e160) gives an infinite Gram entry, and an infinite or NaN pivot in
    each subset that holds it, first or last: every such subset is
    singular in both forms, in the fitter and in ols_fit, and the other
    subsets fit, finite."""
    rng = np.random.default_rng(48)
    m = 30
    panel = rng.normal(size=(5, m)) + 2.0
    y = panel[0] - panel[3] + rng.normal(size=m)
    panel[2] *= 1e160
    phenos, ds = make_phenotypes(list(panel)), make_dataset(y)
    with np.errstate(all="ignore"):
        fitter = GramFitter(panel, y, n=3)
        for members in ((0, 1, 2), (2, 3, 4)):
            for wi in (False, True):
                with pytest.raises(SingularFitError):
                    ols_fit([phenos[i] for i in members], ds, wi)
    assert np.isinf(fitter.gram[2, 2])
    holds = np.array([2 in row for row in fitter.subsets.tolist()])
    assert fitter.singular[:, holds].all()
    assert not fitter.singular[:, ~holds].any()
    assert np.isfinite(fitter.table[:, :, ~holds]).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_fitter_rejects_non_finite_inputs(bad):
    """A non-finite member or response value is a ValueError, as in ols_fit,
    rather than NaN fits whose signs depend on the kernel's chunks; the
    same panel, finite, still fits."""
    rng = np.random.default_rng(47)
    panel = rng.normal(size=(4, 20)) + 2.0
    y = panel[0] - panel[3] + rng.normal(size=20)
    member = panel.copy()
    member[2, 5] = bad
    response = y.copy()
    response[3] = bad
    for args in ((member, y), (panel, response)):
        with pytest.raises(ValueError, match="finite"):
            GramFitter(*args, 2)
    with pytest.raises(ValueError, match="finite"):
        ols_fit(make_phenotypes(list(member)), make_dataset(y), True)
    fitter = GramFitter(panel, y, 2)
    assert not fitter.singular.any()
    assert np.isfinite(fitter.table).all()
    assert fitter.fit(0, True).df == 20 - 3


def test_fallback_drops_subset_with_singular_intercept_form():
    rng = np.random.default_rng(43)
    m = 40
    x = rng.uniform(1.0, 2.0, size=m)
    y = 3.0 * x + rng.normal(size=m) * 0.1
    panel = np.vstack([np.full(m, 2.0), x])
    ds = make_dataset(y)
    fitter = GramFitter(panel, y, n=1)
    with pytest.raises(SingularFitError):
        fitter.fit(0, True)
    alone = fitter.fit(0, False)     # well-posed: y on a constant
    assert alone.df == m - 1
    fallback = fitter.assess(0.05, False, R2.values)
    both = fitter.assess(0.05, True, R2.values)
    assert fit_assessed(fallback.shapes[0]) == ()
    candidates = fit_assessed(both.shapes[0])
    assert [c.with_intercept for c in candidates] == [False]
    assert candidate_view(both)[0] == oracle_candidates(fitter, 0, ds, 0.05,
                                                        R2, "both")
    # the well-posed member is unaffected
    assert len(fit_assessed(fallback.shapes[1])) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(VALIDITY_PANELS),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.05, 0.25]),
    mode=st.sampled_from(["fallback", "both"]),
    junk=st.sampled_from([None, 0.0, np.inf]),
)
def test_validity_masks_match_oracle(kind, n, seed, alpha, mode, junk):
    """GramFitter.assess's arrays and fit_assessed's shapes give the
    per-subset oracle's candidates, in (row, slot) order, with the same
    form, validity and value bits, and no fit. The table entries of singular
    fits are undefined, so overwriting them with `junk` changes nothing."""
    panel, y = make_panel(kind, n, np.random.default_rng(seed))
    fitter = GramFitter(panel, y, n)
    ds = make_dataset(y)
    want = [oracle_candidates(fitter, row, ds, alpha, R2, mode)
            for row in range(len(fitter.subsets))]
    if junk is not None:
        for form in (0, 1):
            fitter.table[form][:, fitter.singular[form]] = junk
    fitter.fit = None   # a candidate is read out, never fitted
    got = candidate_view(fitter.assess(alpha, mode == "both", R2.values))
    for row in range(len(fitter.subsets)):
        assert value_bits(got[row]) == value_bits(want[row]), (kind, row)


@pytest.mark.parametrize("mode", ["fallback", "both"])
@pytest.mark.parametrize("spec", OBJECTIVES, ids=lambda o: f"{o.kind}-{o.s}")
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(VALIDITY_PANELS),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.05, 0.25]),
)
def test_candidate_values_equal_objective_score(spec, mode, kind, n, seed,
                                                alpha):
    """Each valid candidate's value from the table pass equals, bit for bit,
    objective_score of the oracle's model of the same row, for every
    objective kind and exponent, on panels with singular, demoted and
    exact-fit rows: the pass uses the same Python-float operations."""
    panel, y = make_panel(kind, n, np.random.default_rng(seed))
    fitter = GramFitter(panel, y, n, s=spec.s if spec.kind == "se" else 2.0)
    ds = make_dataset(y)
    got = candidate_view(fitter.assess(alpha, mode == "both", spec.values))
    for row in range(len(fitter.subsets)):
        want = oracle_candidates(fitter, row, ds, alpha, spec, mode)
        assert value_bits(got[row]) == value_bits(want), (kind, row)


@pytest.mark.parametrize("mode", ["fallback", "both"])
@pytest.mark.parametrize("spec", OBJECTIVES, ids=lambda o: f"{o.kind}-{o.s}")
def test_one_pass_assess_equals_the_per_form_loop(spec, mode):
    """`assess` gathers every valid candidate in (row, slot) order and
    scores them in one objective call; its sweep equals the per-form loop
    it replaced (`assess_per_form_oracle`) array for array and bit for bit,
    on every validity panel at n = 1 to 3 and alphas from 1e-10 to 0.9:
    empty sweeps, and hr's -0.0 for an r2 of 0, included."""
    calls, empty, negative_zero = [], set(), False

    def objective(r2, se_s, slope_t):
        calls.append(len(r2))
        return spec.values(r2, se_s, slope_t)

    rng = np.random.default_rng(29)
    worlds = [(make_panel(kind, n, rng), n)
              for kind in VALIDITY_PANELS for n in (1, 2, 3)]
    # m = n + 5: no form has room for its coefficients
    worlds.append(((rng.normal(size=(5, 7)), rng.normal(size=7)), 2))
    for (panel, y), n in worlds:
        fitter = GramFitter(panel, y, n,
                            s=spec.s if spec.kind == "se" else 2.0)
        for alpha in (1e-10, 0.05, 0.25, 0.9):
            calls.clear()
            got = fitter.assess(alpha, mode == "both", objective)
            want = assess_per_form_oracle(fitter, alpha, mode == "both",
                                          spec.values)
            assert calls == [got.values.size]
            assert candidate_bits(got) == candidate_bits(want)
            empty.add(got.values.size == 0)
            negative_zero |= bool(np.signbit(got.values[got.values == 0.0])
                                  .any())
    assert empty == {True, False}
    # a no-intercept fit on a constant member has r2 = 0: hr at s > 1
    # scores it -0.0, which the comparison tells from +0.0
    if spec.kind != "hr" or spec.s < 1.0:
        assert not negative_zero
    elif mode == "both":
        assert negative_zero


def test_validity_panels_reach_every_case():
    """The mask test's panels reach each rule on both sides of crit: a kept
    and a demoted primary, each valid and invalid; the second candidate of
    "both" mode valid and invalid, also beside a singular intercept form;
    and at m = n + 6 an intercept form invalid by count only."""
    seen = set()
    for kind in VALIDITY_PANELS:
        for n in (1, 2):
            panel, y = make_panel(kind, n, np.random.default_rng(n))
            fitter = GramFitter(panel, y, n)
            shapes = fitter.assess(0.05, True, R2.values).shapes
            singular = fitter.singular[1]
            rows = [fit_assessed(shapes[row])
                    for row in range(len(fitter.subsets))]
            for row, cands in enumerate(rows):
                if singular[row]:
                    seen.update(("singular", c.valid) for c in cands)
                elif not cands[0].with_intercept:
                    seen.add(("demoted", cands[0].valid))
                else:
                    kept, second = cands
                    seen.add(("kept", kept.valid))
                    seen.add(("second", second.valid))
            if kind == "count_edge":    # no demotion, no valid intercept form
                assert all(len(c) == 2 for c in rows)
                assert not any(c[0].valid for c in rows)
                assert any(c[1].valid for c in rows)
    assert seen == {(case, valid) for case in ("singular", "demoted", "kept",
                                               "second")
                    for valid in (False, True)}


def test_fit_lookup_matches_kernel_rows_and_checks_order():
    """`subsets` lists the n-subsets in lexicographic order, read-only, and
    fit(row) reads that row of the kernel's table."""
    rng = np.random.default_rng(44)
    panel = rng.normal(size=(7, 25)) + 3.0
    y = rng.normal(size=25)
    fitter = GramFitter(panel, y, n=3)
    assert np.array_equal(fitter.subsets, all_subsets(7, 3))
    assert not fitter.subsets.flags.writeable
    for row in range(len(fitter.subsets)):
        for wi in (False, True):
            model = fitter.fit(row, wi)
            coef, t, r2, se_s = (field[row] for field in fitter.form(wi))
            assert model.coefficients == tuple(coef)
            assert model.t_stats == tuple(t)
            assert (model.r2, model.se_s) == (r2, se_s)
            assert model.df == fitter.df[int(wi)]


# --- the boundary bench/tracing.py wraps by name -----------------------------


def test_engine_boundary_for_the_tracer(monkeypatch):
    """The benchmark's tracer wraps engine.GramFitter, GramFitter.fit,
    engine.fit_assessed, engine.objective_score and regress.t_critical by
    name. It counts subsets by fit_assessed calls, C(p, n) a generation,
    and reads the valid and demoted counts off their candidates' ``valid``
    and ``with_intercept``; these names and counts are its contract with
    the program. engine.GramFitter is replaced by a plain function, as the
    tracer does: the first generation builds the run's fitter through it,
    and the second refits that fitter in place, calling it no more, with
    the other counts kept. The first generation builds one model, its
    best; a later one at most one."""
    assert engine.GramFitter is regress.GramFitter
    assert callable(vars(GramFitter)["fit"])
    assert callable(vars(engine)["objective_score"])
    assert callable(engine.fit_assessed) and callable(regress.t_critical)

    # activity centred on 0, so that demotions occur
    topo = binary_topology(8)
    ds = normal_dataset(m=40, mean=0.0)
    provider = planted_provider(topo, ds, n_planted=16)
    demoted_total = 0
    for mode in ("fallback", "both"):
        cfg = planted_config(seed=8, p=12, n=2, intercept_mode=mode)
        rng = random.Random(cfg.seed)
        state = EvolutionState(cfg, provider, ds, rng,
                               init_sample(cfg, topo, provider, ds, rng))
        for generation in (1, 2):
            fitter = GramFitter(np.vstack([ph.values for ph in state.sample]),
                                ds.activity, n=cfg.n)
            demoted = sum(not mo.with_intercept
                          for row in range(len(fitter.subsets))
                          for mo in fit_assessed_oracle(fitter.fit, row, ds,
                                                        cfg.alpha, mode))
            calls = {"gram": 0, "fit": 0, "assessed": 0, "t": 0}
            returned = []

            def counting(key, original):
                def wrapper(*args, **kwargs):
                    calls[key] += 1
                    result = original(*args, **kwargs)
                    if key == "assessed":
                        returned.extend(result)
                    return result
                return wrapper

            with monkeypatch.context() as patch:
                patch.setattr(engine, "GramFitter",
                              counting("gram", engine.GramFitter))
                patch.setattr(GramFitter, "fit",
                              counting("fit", GramFitter.fit))
                patch.setattr(engine, "fit_assessed",
                              counting("assessed", engine.fit_assessed))
                patch.setattr(regress, "t_critical",
                              counting("t", regress.t_critical))
                record = run_generation(state)
            fits = calls.pop("fit")
            assert fits == 1 if generation == 1 else fits <= 1
            assert calls == {"gram": int(generation == 1),
                             "assessed": math.comb(cfg.p, cfg.n), "t": 2}
            assert (sum(c.valid for c in returned)
                    == record.valid_regression_count)
            assert sum(not c.with_intercept for c in returned) == demoted
            demoted_total += demoted
        assert not state.fitter.touched.all()   # the second sweep refitted
    assert demoted_total > 0


def test_per_subset_pass_runs_only_when_instrumented(planted_world,
                                                     monkeypatch):
    """The engine calls engine.fit_assessed once per subset, each time with
    a Python int shape code, only when an instrument has replaced the name;
    with the name still the one regress defines (here a counting wrapper
    put in both modules) it makes no call. Either way two generations, the
    second a refit, give the records and samples of an uninstrumented run."""
    topo, ds, provider = planted_world
    cfg = planted_config(seed=9, p=12, n=2)
    original = regress.fit_assessed

    def generations(patched):
        rng = random.Random(cfg.seed)
        state = EvolutionState(cfg, provider, ds, rng,
                               init_sample(cfg, topo, provider, ds, rng))
        codes = []

        def counting(code):
            codes.append(code)
            return original(code)

        with monkeypatch.context() as patch:
            for module in patched:
                patch.setattr(module, "fit_assessed", counting)
            records = [run_generation(state) for _ in range(2)]
        assert not state.fitter.touched.all()   # the second sweep refitted
        keys = [ph.source_genotype.key for ph in state.sample]
        return records, keys, codes

    records, keys, codes = generations(())
    for patched, calls in (((engine,), 2 * math.comb(cfg.p, cfg.n)),
                           ((engine, regress), 0)):
        got_records, got_keys, got_codes = generations(patched)
        assert (got_records, got_keys) == (records, keys)
        assert len(got_codes) == calls
        assert all(type(code) is int for code in got_codes)


def test_all_subsets_are_stored_by_member_column():
    """`_all_subsets(p, n)` lists every n-subset in lexicographic order, one
    per row, read-only and stored column-major, so its transpose is the
    C-contiguous array of member columns the kernel reads; one cached array
    per (p, n)."""
    for p, n in ((5, 1), (8, 3), (30, 3)):
        subsets = regress._all_subsets(p, n)
        members = list(combinations(range(p), n))
        assert subsets.tolist() == [list(c) for c in members]
        assert subsets.flags.f_contiguous and not subsets.flags.writeable
        columns = subsets.T
        assert columns.flags.c_contiguous
        assert columns.tolist() == [list(c) for c in zip(*members)]
        assert regress._all_subsets(p, n) is subsets


def test_slot_rows_list_each_slots_subsets():
    """Row g of `_slot_rows(p, n)` lists, ascending, the rows of
    `_all_subsets(p, n)` that hold g, as the membership scan finds them:
    read-only, one cached array per (p, n), which a fitter of p slots and
    subset size n keeps as its ``slot_rows``."""
    for p in range(1, 13):
        for n in range(1, p + 1):
            subsets = regress._all_subsets(p, n).tolist()
            index = regress._slot_rows(p, n)
            assert index.shape == (p, math.comb(p - 1, n - 1))
            assert index.tolist() == [
                [r for r, row in enumerate(subsets) if g in row]
                for g in range(p)]
            assert not index.flags.writeable
            assert regress._slot_rows(p, n) is index
    _, panel, y = _carry_panel()
    for n in (1, 2, 3):
        assert GramFitter(panel, y, n).slot_rows is regress._slot_rows(8, n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.integers(2, 9), n=st.integers(1, 3),
       changes=st.sampled_from(("none", "one", "all", "random")),
       seed=st.integers(0, 2**32 - 1))
def test_touched_equals_the_member_column_loop(p, n, changes, seed):
    """A refit's `touched` mask, from the slot index, equals the OR of the
    changed mask over each member column, for no, one, every and a random
    set of changed slots; construction touches every row."""
    rng = np.random.default_rng(seed)
    n = min(n, p - 1)
    panel = rng.normal(size=(p, 12)) + 2.0
    y = rng.normal(size=12)
    changed = {"none": np.zeros(p, bool), "all": np.ones(p, bool),
               "one": np.arange(p) == rng.integers(p),
               "random": rng.random(p) < 0.4}[changes]
    new = panel.copy()
    new[changed] += 1.0
    fitter = GramFitter(panel, y, n)
    assert fitter.touched.all()
    columns = regress._all_subsets(p, n).T
    want = changed[columns[0]]
    for column in columns[1:]:
        want = want | changed[column]
    fitter.refit(np.flatnonzero(changed), new[changed])
    assert fitter.touched.dtype == bool
    assert fitter.touched.tolist() == want.tolist()


def test_draw_boundary_for_the_tracer(planted_world, monkeypatch):
    """The tracer names each engine.transform_scores span by phase, which
    turns to survival when engine.survival_scores returns, and each
    engine.extract span by the call's first positional argument. So a
    generation that admits a child with at least two eligible slots calls
    transform_scores once before survival_scores and once after it, and
    extract after each, with the strategy's method name first."""
    topo, ds, provider = planted_world
    cfg = planted_config(seed=4, p=12, n=1, k=2,
                         selection=StrategySpec("tournament"),
                         survival=StrategySpec("deterministic"))
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    events = []

    def logged(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            events.append((name, args[0] if name == "extract" else None))
            return original(*args, **kwargs)
        return wrapper

    for name in ("transform_scores", "survival_scores", "extract"):
        monkeypatch.setattr(engine, name, logged(name))
    before = [ph.source_genotype.key for ph in state.sample]
    run_generation(state)
    assert [ph.source_genotype.key for ph in state.sample] != before
    assert events == [
        ("transform_scores", None), ("extract", "tournament"),
        ("survival_scores", None),
        ("transform_scores", None), ("extract", "deterministic"),
    ]


@pytest.mark.parametrize("world", ["synthetic", "partial_table"])
def test_child_boundaries_for_the_tracer(world, planted_world, monkeypatch):
    """The tracer wraps both providers' provide methods and reads its
    provide counts from them; it also still finds engine.check_viability
    to wrap, though admission screens in batches and never calls it. Each
    run_generation provides each child whose key is new once, in breeding
    order, and screens each phenotype once, in one `screen_viability`
    batch after its provide call, with no more rows in a batch than there
    are free slots left."""
    assert engine.check_viability is descriptors.check_viability
    for cls in (SyntheticProvider, TableProvider):
        assert callable(vars(cls)["provide"])

    topo, ds, provider = (planted_world if world == "synthetic"
                          else partial_table_world())
    # floors that reject enough children for a second batch
    floor = 0.01 if world == "synthetic" else 0.05
    cfg = planted_config(seed=4, p=12, n=1, k=6, pp=0.3, cp=0.3,
                         viability=ViabilityPolicy(min_simple_r2=floor))
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    children, events = [], []

    def bred(original):
        # parents are mutated first, then each child after its crossover
        def mutate(g, prob, rng):
            child = original(g, prob, rng)
            children.append(child)
            return child
        return mutate

    def provided(original):
        def provide(self, genotype):
            ph = original(self, genotype)
            events.append(("provide", genotype, ph))
            return ph
        return provide

    def screened(original):
        def screen_viability(rows, ds, policy):
            failed = original(rows, ds, policy)
            events.append(("screen", list(rows), failed))
            return failed
        return screen_viability

    monkeypatch.setattr(genome, "mutate", bred(genome.mutate))
    cls = type(provider)
    monkeypatch.setattr(cls, "provide", provided(vars(cls)["provide"]))
    monkeypatch.setattr(engine, "screen_viability",
                        screened(engine.screen_viability))
    batches_per_generation, missing = [], 0
    for _ in range(10):
        before = [ph.source_genotype.key for ph in state.sample]
        children.clear()
        events.clear()
        record = run_generation(state)
        assert len(children) == 4 * cfg.k
        new_keys = list(dict.fromkeys(c.key for c in children[2 * cfg.k:]
                                      if c.key not in before))
        provides = [e for e in events if e[0] == "provide"]
        asked = [g.key for _, g, _ in provides]
        assert asked == new_keys[:len(asked)]
        missing += sum(ph is None for _, _, ph in provides)
        free = cfg.p - len(record.best_model_genotypes)
        pending, batches = [], 0
        for event in events:
            if event[0] == "provide":
                if event[2] is not None:
                    pending.append(event[2].values)
                continue
            rows, failed = event[1], event[2]
            assert len(rows) == len(pending) <= free
            assert all(r is v for r, v in zip(rows, pending))
            free -= int((~failed.any(axis=1)).sum())
            pending, batches = [], batches + 1
        assert not pending
        batches_per_generation.append(batches)
    assert max(batches_per_generation) > 1
    assert (missing > 0) == (world == "partial_table")


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


# --- refits in place at the replaced slots --------------------------------


def assert_equals_fresh(fitter, *assessments):
    """`fitter` has the table, the singular mask and, for each (alpha, both,
    objective), the sweep arrays of a fresh fitter on its panel."""
    fresh = GramFitter(fitter.panel, fitter.y, fitter.n, s=fitter.s)
    assert np.array_equal(fitter.table.view(np.uint64),
                          fresh.table.view(np.uint64))
    assert np.array_equal(fitter.singular, fresh.singular)
    assert fitter.df == fresh.df
    for args in assessments:
        assert (candidate_bits(fitter.assess(*args))
                == candidate_bits(fresh.assess(*args)))


def _carry_panel(seed=46, p=8, m=30):
    rng = np.random.default_rng(seed)
    panel = rng.normal(size=(p, m)) + 2.0
    panel[2, 7] = 0.0
    y = panel[0] - 0.7 * panel[3] + rng.normal(size=m) + 1.0
    return rng, panel, y


@pytest.mark.parametrize("n,s", [(1, 2.0), (2, 1.5), (3, 2.0)])
def test_carried_rows_are_those_without_a_changed_slot(n, s, monkeypatch):
    """A refit touches exactly the subsets with a slot in the list, whatever
    the new values: a slot given its own values, new values, or 0.0 turned
    -0.0. Only those are refitted, the rest are carried in place, and the
    result equals a fresh fitter bit for bit, and so do its candidates under
    any alpha, mode and objective, whatever the fitter assessed before. An
    empty list refits nothing and leaves the table's bits as they were. A
    value turned NaN is rejected before anything is written, by a refit or
    a fresh fitter. At the default chunk size and at 7, every kernel call of
    a fitter, from its first fit on, writes contiguous views of the same two
    buffers the fitter owns, one column per subset of the chunk."""
    rng, panel, y = _carry_panel()
    refitted, written = [], []
    fit_chunk = GramFitter._fit_chunk

    def spy(self, cols, out, singular):
        refitted.append(cols.copy())
        assert out.shape[2] == singular.shape[1] == cols.shape[1]
        assert out.flags.c_contiguous and singular.flags.c_contiguous
        written.append((self, out.base, singular.base))
        fit_chunk(self, cols, out, singular)

    def refit(fitter, new, slots):
        refitted.clear()
        fitter.refit(slots, new[slots])
        want = [bool(set(slots) & set(row)) for row in fitter.subsets.tolist()]
        assert fitter.touched.tolist() == want
        assert len(refitted) == math.ceil(sum(want) / regress.CHUNK_SUBSETS)
        # one row per member position, one column per refitted subset
        assert np.array_equal(np.hstack([np.empty((n, 0), np.intp), *refitted]),
                              fitter.subsets[want].T)
        assert fitter.panel.tobytes() == new.tobytes()

    monkeypatch.setattr(GramFitter, "_fit_chunk", spy)
    assessments = [(0.05, True, R2.values), (0.1, False, R2.values),
                   (0.05, False, ObjectiveSpec("mt", 2.0).values)]
    for chunk in (regress.CHUNK_SUBSETS, 7):
        monkeypatch.setattr(regress, "CHUNK_SUBSETS", chunk)
        written.clear()
        fitter = GramFitter(panel, y, n, s=s)
        buffers = fitter._out, fitter._out_singular
        w = min(math.comb(8, n), chunk)
        assert [b.size for b in buffers] == [2 * (2 * n + 4) * w, 2 * w]
        fitter.assess(*assessments[0])
        new = panel.copy()
        new[5] = rng.normal(size=30) + 2.0  # new values
        new[2, 7] = -0.0
        refit(fitter, new, [1, 2, 5])       # slot 1 given its own values
        assert_equals_fresh(fitter, *assessments)
        table, singular = fitter.table.copy(), fitter.singular.copy()
        refit(fitter, new, [])
        assert fitter.table.tobytes() == table.tobytes()
        assert fitter.singular.tobytes() == singular.tobytes()
        assert_equals_fresh(fitter, *assessments)

        bad = new.copy()
        bad[6, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fitter.refit([4, 6], bad[[4, 6]])
        assert fitter.panel.tobytes() == new.tobytes()
        assert fitter.table.tobytes() == table.tobytes()
        assert fitter.singular.tobytes() == singular.tobytes()
        with pytest.raises(ValueError, match="finite"):
            GramFitter(bad, y, n, s=s)
        assert fitter._out is buffers[0]
        assert fitter._out_singular is buffers[1]
        assert all(call[1] is call[0]._out and call[2] is call[0]._out_singular
                   for call in written)
        assert sum(call[0] is fitter for call in written) > 1


def test_candidates_are_carried_only_under_the_same_assess_arguments():
    """A refitted fitter marks as touched exactly the subsets with a
    replaced slot, and its assess keeps nothing from an earlier assessment:
    under the earlier alpha, mode and objective and under another of each,
    it scores the rows a fresh fitter scores, and its candidates equal a
    fresh fitter's. `assess` adds nothing to the fitter."""
    rng, panel, y = _carry_panel()
    sizes = []

    def counting(spec):
        def objective(r2, se_s, slope_t):
            sizes.append(len(r2))
            return spec.values(r2, se_s, slope_t)
        return objective

    objective = counting(R2)
    new = panel.copy()
    new[4] = rng.normal(size=30) + 2.0
    fresh = GramFitter(new, y, 2)

    def scored(f, *args):
        sizes.clear()
        f.assess(*args)
        return sorted(sizes)

    for args in ((0.05, False, objective), (0.1, False, objective),
                 (0.05, True, objective),
                 (0.05, False, counting(ObjectiveSpec("mt", 2.0)))):
        fitter = GramFitter(panel, y, 2)
        kept = [(name, id(value)) for name, value in vars(fitter).items()]
        fitter.assess(0.05, False, objective)
        assert [(name, id(value))
                for name, value in vars(fitter).items()] == kept
        fitter.refit([4], new[[4]])
        assert fitter.touched.tolist() == [4 in row
                                           for row in fitter.subsets.tolist()]
        assert scored(fitter, *args) == scored(fresh, *args)
        assert_equals_fresh(fitter, args)


@pytest.mark.parametrize("s", [2.0, 1.5])
def test_chunk_size_leaves_the_table_unchanged(s, monkeypatch):
    """The kernel works per subset, so chunks of 1 and of 7 subsets (165 is
    not a multiple of 7) give the table and the singular mask of the
    default chunks bit for bit, fresh and refitted: singular fits, a negated
    member row and an exact-zero Gram entry included."""
    rng, panel, y = _carry_panel(p=11)
    panel[1], panel[9] = panel[0], 2.5   # collinear and constant slots
    panel[3] = -panel[2]                 # a negated member row
    panel[5, :15], panel[8, 15:] = 0.0, 0.0     # an exact-zero Gram entry
    new = rng.normal(size=(2, 30)) + 2.0

    def sweeps():
        fitter = GramFitter(panel, y, 3, s=s)
        assert fitter.gram[5, 8] == 0.0 and fitter.singular.any()
        fresh = fitter.table.copy(), fitter.singular.copy()
        fitter.refit([4, 6], new)
        assert not fitter.touched.all() and fitter.singular.any()
        return fresh, (fitter.table, fitter.singular)

    want = sweeps()
    for size in (1, 7):
        monkeypatch.setattr(regress, "CHUNK_SUBSETS", size)
        for got, ref in zip(sweeps(), want):
            assert np.array_equal(got[0].view(np.uint64),
                                  ref[0].view(np.uint64))
            assert np.array_equal(got[1], ref[1])


REFIT_ROWS = ("random", "negzero", "constant", "collinear", "exact", "huge")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), s=st.sampled_from((2.0, 1.5)),
       steps=st.lists(st.tuples(
           st.one_of(st.just(frozenset()), st.just(frozenset(range(8))),
                     st.frozensets(st.integers(0, 7))),
           st.lists(st.sampled_from(REFIT_ROWS), min_size=8, max_size=8)),
           min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_refits_equal_a_fresh_fitter(n, s, steps, seed):
    """Any sequence of refits leaves a fitter whose table, singular mask and
    candidates equal, bit for bit, those of a fresh fitter on its panel:
    slot lists from none to all eight, n = 1 to 4, s = 2 and 1.5, and new
    rows that are random, a copy of another slot with its zeros as -0.0,
    constant, collinear with two slots, an exact fit of the response, or
    scaled by 1e160 (Gram entries past the float range)."""
    rng, panel, y = _carry_panel(seed=seed % 2**16)
    panel[:, 11] = 0.0
    fitter = GramFitter(panel, y, n, s=s)
    assessments = [(0.05, False, R2.values), (0.1, True, R2.values),
                   (0.05, True, ObjectiveSpec("mt", s).values)]
    for slots, kinds in steps:
        slots = sorted(slots)
        current = fitter.panel.copy()
        values = np.empty((len(slots), current.shape[1]))
        for row, kind in zip(values, kinds):
            a, b = rng.choice(len(current), size=2, replace=False)
            row[:] = {
                "random": lambda: rng.normal(size=row.size) + 2.0,
                "negzero": lambda: np.where(current[a] == 0.0, -0.0,
                                            current[a]),
                "constant": lambda: np.full(row.size, 3.0),
                "collinear": lambda: 2.0 * current[a] - current[b],
                "exact": lambda: y - 1.5,
                "huge": lambda: 1e160 * (rng.normal(size=row.size) + 2.0),
            }[kind]()
        with np.errstate(all="ignore"):
            fitter.refit(slots, values)
            assert_equals_fresh(fitter, *assessments)


def test_a_run_keeps_one_fitter_alive(planted_world, monkeypatch):
    """A run builds one fitter, at its first sweep, through engine.GramFitter,
    and refits it in place: every later generation keeps the same fitter
    and the same table, singular mask, panel, slot index and kernel buffers,
    and at the default chunk size and at 7 every kernel call, from the
    first fit on, writes views of the fitter's two buffers."""
    topo, ds, provider = planted_world
    cfg = planted_config(seed=3, p=12, n=2, max_generations=12)
    built, written = [], []

    def tracked(*args, **kwargs):
        built.append(GramFitter(*args, **kwargs))
        return built[-1]

    fit_chunk = GramFitter._fit_chunk

    def spy(self, cols, out, singular):
        written.append((self, out.base, singular.base))
        fit_chunk(self, cols, out, singular)

    monkeypatch.setattr(engine, "GramFitter", tracked)
    monkeypatch.setattr(GramFitter, "_fit_chunk", spy)
    for chunk in (regress.CHUNK_SUBSETS, 7):
        monkeypatch.setattr(regress, "CHUNK_SUBSETS", chunk)
        built.clear()
        written.clear()
        rng = random.Random(cfg.seed)
        state = EvolutionState(cfg, provider, ds, rng,
                               init_sample(cfg, topo, provider, ds, rng))
        assert state.fitter is None
        run_generation(state)
        fitter = state.fitter

        def arrays():
            return [fitter.table, fitter.singular, fitter.panel,
                    fitter.slot_rows, fitter._out, fitter._out_singular]

        first = arrays()
        for _ in range(cfg.max_generations - 1):
            run_generation(state)
            assert state.fitter is fitter
            assert all(a is b for a, b in zip(arrays(), first))
        assert not fitter.touched.all()
        assert built == [fitter]
        assert len(written) >= cfg.max_generations
        assert all(call[0] is fitter and call[1] is first[4]
                   and call[2] is first[5] for call in written)


# --- memory ------------------------------------------------------------------

PEAK_BOUND_MB = 32


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_gram_fitter_memory_is_bounded(monkeypatch):
    """C(400, 2) = 79800 subsets at s = 1.5, whose error sums need residual
    rows: chunked, the fitter that fits them all stays under the bound; one
    pass over all subsets would exceed it."""
    rng = np.random.default_rng(45)
    p, m = 400, 60
    panel = rng.normal(size=(p, m)) + 2.0
    y = panel[7] - 0.5 * panel[300] + rng.normal(size=m) * 0.3
    found = []
    peak = _peak_mb(lambda: found.append(GramFitter(panel, y, n=2, s=1.5)))
    fitter = found[0]
    se_s = np.where(fitter.singular[1], np.inf, fitter.form(True)[3])
    assert tuple(fitter.subsets[np.argmin(se_s)]) == (7, 300)
    assert peak < PEAK_BOUND_MB, f"peak {peak:.1f} MB"

    monkeypatch.setattr(regress, "CHUNK_SUBSETS", 10**9)
    unchunked = _peak_mb(lambda: GramFitter(panel, y, n=2, s=1.5))
    assert unchunked > PEAK_BOUND_MB, f"unchunked peak {unchunked:.1f} MB"
