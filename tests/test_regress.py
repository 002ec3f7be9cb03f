import random
from itertools import combinations

import numpy as np
import pytest

from evoreg.descriptors import Dataset, Phenotype
from evoreg.genome import Gene, GeneticTopology, Genotype
from evoreg.regress import (
    GramFitter,
    SingularFitError,
    fit_assessed,
    ols_fit,
    search_space_size,
)
from evoreg.scores import ObjectiveSpec
from tests.conftest import assess_validity, candidate_view, oracle_candidates


def make_dataset(y):
    y = np.asarray(y, dtype=float)
    return Dataset(tuple(f"m{i}" for i in range(len(y))), y)


_TOPO_CACHE = {}


def make_phenotypes(columns):
    """Wrap raw columns as phenotypes with distinct synthetic genotypes."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns)
    key = n
    if key not in _TOPO_CACHE:
        # zero-padded labels: an alphabet has no allele that prefixes another
        size = max(2, n)
        width = len(str(size - 1))
        _TOPO_CACHE[key] = GeneticTopology(
            (Gene("ix", tuple(f"v{i:0{width}d}" for i in range(size))),)
        )
    topo = _TOPO_CACHE[key]
    return [
        Phenotype(c, Genotype(topo, (i,))) for i, c in enumerate(columns)
    ]


def lstsq_oracle(x, y, with_intercept):
    """Independent reference: design-matrix least squares via numpy."""
    design = np.column_stack([np.ones(len(y)), x]) if with_intercept else x
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = len(y) - design.shape[1]
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    t = coef / np.sqrt(np.diag(cov))
    yhat = design @ coef
    corr = np.corrcoef(y, yhat)[0, 1]
    return coef, t, corr * corr, float(resid @ resid)


def test_exact_line_with_intercept():
    x = np.arange(10.0)
    y = 2 * x + 1
    model = ols_fit(make_phenotypes([x]), make_dataset(y), True)
    assert model.coefficients[0] == pytest.approx(1.0, abs=1e-10)
    assert model.coefficients[1] == pytest.approx(2.0, abs=1e-12)
    assert model.r2 == pytest.approx(1.0, abs=1e-12)
    assert model.se_s == pytest.approx(0.0, abs=1e-18)


def test_orthogonal_regressor_no_intercept():
    x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])  # zero sample covariance
    model = ols_fit(make_phenotypes([x]), make_dataset(y), False)
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert model.r2 == 0.0


def test_against_lstsq_oracle_random_instances():
    rng = np.random.default_rng(1234)
    for trial in range(100):
        m = int(rng.integers(10, 31))
        n = int(rng.integers(1, 4))
        with_intercept = bool(rng.integers(0, 2))
        x = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0, size=n)
        beta = rng.normal(size=n)
        y = x @ beta + rng.normal(size=m) * 0.3 + rng.uniform(-1, 1)
        model = ols_fit(
            make_phenotypes(list(x.T)), make_dataset(y), with_intercept
        )
        coef, t, r2, sse = lstsq_oracle(x, y, with_intercept)
        assert np.allclose(model.coefficients, coef, rtol=1e-8, atol=1e-10)
        assert np.allclose(model.t_stats, t, rtol=1e-8, atol=1e-8)
        assert model.r2 == pytest.approx(r2, rel=1e-8)
        assert model.se_s == pytest.approx(sse, rel=1e-8)


def test_gram_fitter_matches_ols_fit():
    rng = np.random.default_rng(77)
    m, p = 40, 8
    panel = rng.uniform(-2, 5, size=(p, m))
    y = rng.normal(size=m)
    ds = make_dataset(y)
    phenos = make_phenotypes(list(panel))
    for n in (1, 2, 3):
        fitter = GramFitter(panel, y, n=n)
        for row, subset in enumerate(combinations(range(p), n)):
            for wi in (True, False):
                fast = fitter.fit(row, wi)
                ref = ols_fit([phenos[i] for i in subset], ds, wi)
                assert np.allclose(
                    fast.coefficients, ref.coefficients, rtol=1e-9, atol=1e-11
                )
                assert np.allclose(fast.t_stats, ref.t_stats, rtol=1e-8)
                assert fast.r2 == pytest.approx(ref.r2, rel=1e-9, abs=1e-12)
                assert fast.se_s == pytest.approx(ref.se_s, rel=1e-8, abs=1e-9)


def test_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = ols_fit(make_phenotypes(list(x.T)), make_dataset(y), True)
    design = np.column_stack([np.ones(25), x])   # intercept first
    residuals = y - design @ model.coefficients
    scale = float(np.abs(x).sum())
    assert abs(residuals.sum()) < 1e-8 * scale
    for col in x.T:
        assert abs(residuals @ col) < 1e-8 * scale


def test_r2_invariant_under_member_rescaling():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([1.5, -0.5]) + rng.normal(size=30) * 0.4
    ds = make_dataset(y)
    base = ols_fit(make_phenotypes(list(x.T)), ds, True)
    scaled = x.copy()
    scaled[:, 0] = 10.0 * scaled[:, 0] + 3.0
    other = ols_fit(make_phenotypes(list(scaled.T)), ds, True)
    assert other.r2 == pytest.approx(base.r2, rel=1e-10)
    assert other.coefficients[1] == pytest.approx(
        base.coefficients[1] / 10.0, rel=1e-9
    )


def test_error_sum_nonincreasing_in_nested_exact_fits():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    ds = make_dataset(y)
    phenos = make_phenotypes(list(x.T))
    sse = [
        ols_fit(phenos[:k], ds, True).se_s for k in (1, 2, 3)
    ]
    assert sse[0] >= sse[1] >= sse[2]


def test_singular_fit_raises():
    x = np.arange(12.0)
    ds = make_dataset(np.arange(12.0) * 0.5 + 1)
    phenos = make_phenotypes([x, 2 * x])  # collinear pair
    with pytest.raises(SingularFitError):
        ols_fit(phenos, ds, False)
    with pytest.raises(SingularFitError):
        ols_fit(make_phenotypes([np.ones(12)]), ds, True)  # constant vs intercept


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        ols_fit(make_phenotypes([np.arange(5.0)]), make_dataset(np.arange(6.0)), True)
    with pytest.raises(ValueError, match="at least one phenotype"):
        ols_fit([], make_dataset(np.arange(6.0)), True)
    # three slopes and the intercept in four molecules leave no residual
    with pytest.raises(ValueError, match=r"\(4 <= 4\)"):
        ols_fit(make_phenotypes([np.arange(4.0) ** e for e in (1, 2, 3)]),
                make_dataset(np.arange(4.0)), True)


def test_gram_fitter_rejects_a_subset_size_outside_one_to_m_minus_two():
    """n = 0 leaves nothing to fit, and with m = n + 1 molecules the
    intercept form has no residual degree of freedom: both are ValueError.
    m = n + 2 is the smallest sample a fitter accepts."""
    rng = np.random.default_rng(14)
    for n, m in ((0, 20), (1, 2), (2, 3)):
        with pytest.raises(ValueError,
                           match=rf"size {n} not in \[1, m - 1 = {m - 1}\)"):
            GramFitter(rng.normal(size=(4, m)), rng.normal(size=m), n=n)
    fitter = GramFitter(rng.normal(size=(4, 4)), rng.normal(size=4), n=2)
    assert fitter.df == (2, 1)


def test_no_intercept_r2_is_the_squared_correlation_of_y_with_yhat():
    """The no-intercept form's r2 is corr(y, y_hat)^2, not the uncentred
    1 - SSE / y.y, and 0 when y_hat is constant (a constant member)."""
    rng = np.random.default_rng(13)
    m = 30
    panel = rng.normal(size=(5, m)) + 1.0
    panel[4] = 2.5
    y = panel[0] - 0.5 * panel[1] + rng.normal(size=m) + 4.0
    for n in (1, 2):
        fitter = GramFitter(panel, y, n=n)
        coef, _, r2, se_s = fitter.form(False)
        for row, subset in enumerate(fitter.subsets.tolist()):
            if subset == [4]:
                assert r2[row] == 0.0
                continue
            yhat = panel[subset].T @ coef[row]
            want = np.corrcoef(y, yhat)[0, 1] ** 2
            assert r2[row] == pytest.approx(want, rel=1e-9)
            assert abs(r2[row] - (1.0 - se_s[row] / (y @ y))) > 0.1


# --- validity ----------------------------------------------------------------


def fit_callback(phenos, ds, s=2.0):
    return lambda wi: ols_fit(phenos, ds, wi, s)


def test_validity_demotes_insignificant_intercept():
    rng = np.random.default_rng(7)
    x = rng.uniform(1, 3, 60)
    y = 3.0 * x + rng.normal(size=60) * 0.5  # no intercept in truth
    ds = make_dataset(y)
    phenos = make_phenotypes([x])
    model = ols_fit(phenos, ds, True)
    final = assess_validity(model, ds, 0.05, fit_callback(phenos, ds))
    assert final.valid
    assert not final.with_intercept
    assert final.coefficients[0] == pytest.approx(3.0, abs=0.05)


def test_validity_keeps_significant_intercept():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, 80)
    y = 5.0 + 2.0 * x + rng.normal(size=80) * 0.1
    ds = make_dataset(y)
    phenos = make_phenotypes([x])
    final = assess_validity(
        ols_fit(phenos, ds, True), ds, 0.05, fit_callback(phenos, ds)
    )
    assert final.valid and final.with_intercept


def test_validity_pure_noise_mostly_invalid():
    rng = np.random.default_rng(13)
    invalid = 0
    trials = 300
    for _ in range(trials):
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        ds = make_dataset(y)
        phenos = make_phenotypes([x])
        final = assess_validity(
            ols_fit(phenos, ds, True), ds, 0.05, fit_callback(phenos, ds)
        )
        invalid += not final.valid
    # the two-form rule admits slightly more than 5% false positives
    assert 0.85 <= invalid / trials <= 0.99


def test_validity_coefficient_count_bound():
    # m = 7 observations cannot support 3 estimated coefficients
    rng = np.random.default_rng(14)
    x = rng.normal(size=(7, 2))
    y = rng.normal(size=7)
    ds = make_dataset(y)
    phenos = make_phenotypes(list(x.T))
    final = assess_validity(
        ols_fit(phenos, ds, True), ds, 0.05, fit_callback(phenos, ds)
    )
    assert not final.valid


def test_fit_assessed_both_mode_adds_candidate():
    rng = np.random.default_rng(15)
    m = 50
    panel = rng.uniform(0, 1, size=(3, m))
    y = 4.0 + 2.0 * panel[0] - 1.5 * panel[1] + rng.normal(size=m) * 0.05
    ds = make_dataset(y)
    fitter = GramFitter(panel, y, n=2)
    spec = ObjectiveSpec("r2", 1.0)
    # row 0 is the subset (0, 1)
    sweeps = {mode: fitter.assess(0.05, mode == "both", spec.values)
              for mode in ("fallback", "both")}
    fallback = fit_assessed(sweeps["fallback"].shapes[0])
    both = fit_assessed(sweeps["both"].shapes[0])
    assert len(fallback) == 1 and fallback[0].with_intercept
    assert len(both) == 2
    assert {c.with_intercept for c in both} == {True, False}
    for mode, sweep in sweeps.items():
        assert candidate_view(sweep)[0] == oracle_candidates(fitter, 0, ds,
                                                             0.05, spec, mode)


# --- search space sizing -------------------------------------------------------


def test_search_space_size_small():
    assert search_space_size(5, 2) == 10
    assert search_space_size(5, 2, both_forms=True) == 20


def test_search_space_size_n1_and_n0():
    assert search_space_size(123456, 1) == 123456
    assert search_space_size(123456, 1, both_forms=True) == 246912
    assert search_space_size(10, 0) == 1


def test_search_space_size_large_exact():
    assert search_space_size(92160, 2) == 4246686720


def test_search_space_size_errors():
    with pytest.raises(ValueError):
        search_space_size(5, 6)
    with pytest.raises(ValueError):
        search_space_size(5, -1)


def test_search_space_growth_superpolynomial():
    sizes = [search_space_size(92160, n) for n in range(1, 6)]
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    assert all(r > 1000 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # falling but huge
