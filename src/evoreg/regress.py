"""Ordinary least squares over phenotype subsets, coefficient significance,
validity rules, and search-space sizing.

GramFitter gathers the normal matrices of every n-subset of a panel, for
the one size n it is built for, in both forms, from one Gram matrix of
[panel; 1; y] (Furnival & Wilson, *Regressions by Leaps and Bounds*, 1974)
and factors them by a Cholesky that runs elementwise along the subset axis,
CHUNK_SUBSETS subsets at a time. `GramFitter.fit` is a row lookup into that
table; `ols_fit` is the per-subset reference.

Singular rule, shared by both: with the columns ordered as the members, then
the intercept, a fit is singular when a Cholesky pivot (the squared norm a
column keeps after projecting out the columns before it) is at most
PIVOT_TOL times its diagonal entry. So the intercept form fails whenever the
no-intercept form does. Applied to the response, the rule marks an exact
fit: an error sum at most PIVOT_TOL * sum(y^2) is reported as 0, and
nonzero t statistics as +-inf.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .descriptors import Dataset, Phenotype
from .stats import t_critical

__all__ = [
    "RegressionModel",
    "SingularFitError",
    "SubsetFits",
    "ols_fit",
    "assess_validity",
    "search_space_size",
    "GramFitter",
    "fit_assessed",
    "better",
]

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12
# pivots below this share of their diagonal carry fewer than about six
# significant digits in double precision
PIVOT_TOL = 1e-10
# subsets factored per kernel pass; bounds the kernel's working memory
CHUNK_SUBSETS = 4096
# a valid model has at most m - SIGNIFICANCE_OFFSET coefficients
SIGNIFICANCE_OFFSET = 6


class SingularFitError(ArithmeticError):
    """Design matrix is rank deficient; no unique least-squares solution."""


@dataclass
class RegressionModel:
    """A fitted linear model over an ordered subset of phenotypes.

    ``coefficients`` lists the intercept first when ``with_intercept``; the
    ``t_stats`` align with the coefficients. ``se_s`` is the error sum
    sum(|y_hat - y|^s) at the exponent ``s`` the model was fitted with.
    ``valid`` is set by assess_validity.
    """

    member_ids: tuple[str, ...]
    with_intercept: bool
    coefficients: tuple[float, ...]
    t_stats: tuple[float, ...]
    r2: float
    se_s: float
    s: float
    df: int
    valid: bool = False

    @property
    def slope_t_stats(self) -> tuple[float, ...]:
        return self.t_stats[1:] if self.with_intercept else self.t_stats


def better(a: float, b: float, direction: str) -> bool:
    """Whether objective value `a` beats `b` in the given direction."""
    return a > b if direction == "max" else a < b


def _t_stats(coef, se):
    """coef / se; in an exact fit (se = 0) nonzero coefficients get +-inf."""
    exact = np.where(coef == 0.0, 0.0, np.copysign(np.inf, coef))
    return np.divide(coef, se, out=exact, where=se > 0.0)


def _r2(ssr, yhat_sum, sy, var_y, m):
    """Squared correlation of y with y_hat from ssr = y_hat . y_hat and the
    sum of y_hat; 0 when y or, by the pivot rule, y_hat is constant."""
    r2 = np.zeros(np.shape(ssr))
    if var_y <= 0.0:
        return r2
    var_yhat = ssr - yhat_sum * yhat_sum / m
    cov = ssr - yhat_sum * sy / m
    np.divide(cov * cov, var_yhat * var_y, out=r2,
              where=var_yhat > PIVOT_TOL * ssr)
    return np.minimum(r2, 1.0, out=r2)


def ols_fit(
    members: Sequence[Phenotype],
    ds: Dataset,
    with_intercept: bool,
    s: float = 2.0,
) -> RegressionModel:
    """Least-squares fit of the activity on a phenotype subset, computed
    directly on the design matrix: the reference for GramFitter.

    ``se_s`` is reported for the given exponent. Warns when the normal
    equations are ill-conditioned.
    """
    if not members:
        raise ValueError("need at least one phenotype")
    x = np.column_stack([p.values for p in members])
    if x.shape[0] != ds.size:
        raise ValueError("phenotype length does not match dataset")
    if not np.all(np.isfinite(x)):
        raise ValueError("phenotype values must be finite")
    m, y = ds.size, ds.activity
    # members first, intercept last: the column order of the singular rule
    design = np.column_stack([x, np.ones(m)]) if with_intercept else x
    k = design.shape[1]
    if m <= k:
        raise ValueError(f"need more observations than coefficients ({m} <= {k})")
    a = design.T @ design
    try:
        pivots = np.diag(np.linalg.cholesky(a)) ** 2
    except np.linalg.LinAlgError:   # not positive definite
        pivots = np.zeros(k)
    if np.any(pivots <= PIVOT_TOL * np.diag(a)):
        raise SingularFitError("rank-deficient design matrix")
    inv = np.linalg.inv(a)
    cond = float(np.max(np.diag(a)) * np.max(np.abs(inv)))  # max |a| is diagonal
    if cond > _CONDITION_WARN:
        logger.warning("ill-conditioned normal equations (cond ~ %.2g)", cond)
    coef = np.linalg.solve(a, design.T @ y)
    yhat = design @ coef
    residuals = y - yhat
    sse = float(residuals @ residuals)
    sse = 0.0 if sse <= PIVOT_TOL * float(y @ y) else sse
    t = _t_stats(coef, np.sqrt(sse / (m - k) * np.diag(inv)))
    sy = float(y.sum())
    r2 = _r2(np.array(float(yhat @ yhat)), sy if with_intercept else yhat.sum(),
             sy, float(y @ y) - sy * sy / m, m)
    if s != 2.0 and sse > 0.0:
        sse = float(np.sum(np.abs(residuals) ** s))
    if with_intercept:  # report the intercept first
        coef, t = np.roll(coef, 1), np.roll(t, 1)
    return RegressionModel(
        tuple(p.source_genotype.render() for p in members), with_intercept,
        tuple(coef.tolist()), tuple(t.tolist()), float(r2), sse, s, m - k,
    )


@dataclass(frozen=True)
class SubsetFits:
    """Fits of many same-size n-subsets in both regression forms.

    Arrays index the form first (0 without, 1 with the intercept). ``table``
    then indexes the field (n + 1 coefficients, the intercept slot first,
    their t statistics, r2, se_s), then the subset. Fits flagged in
    ``singular`` are undefined.
    """

    n: int
    df: np.ndarray
    table: np.ndarray
    singular: np.ndarray

    def form(self, with_intercept: bool):
        """(coefficients, t_stats, r2, se_s) of one form, one row per
        subset; the coefficients list the intercept first."""
        lo, n1 = 1 - with_intercept, self.n + 1
        f = self.table[int(with_intercept)]
        return f[lo:n1].T, f[n1 + lo : 2 * n1].T, f[2 * n1], f[2 * n1 + 1]


@lru_cache(maxsize=8)
def _all_subsets(p: int, k: int):
    """Every k-subset of range(p) in lexicographic order, one per row (a
    read-only array), with the tables that rank a subset back to its row."""
    index = np.array(list(combinations(range(p), k)), dtype=np.intp)
    index.setflags(write=False)
    # row of (c_0 < ... < c_{k-1}) = C(p, k) - 1 - sum_i C(p - 1 - c_i, k - i)
    terms = tuple(tuple(math.comb(p - 1 - c, k - i) for c in range(p))
                  for i in range(k))
    return index, terms, len(index) - 1


class GramFitter:
    """Fits every n-subset of a fixed phenotype panel against one response.

    The Gram matrix of [panel; 1; y] is formed once, and every n-subset is
    fitted in both forms at construction, so `fit` is a row lookup. Results
    agree with ols_fit to floating-point noise.
    """

    def __init__(self, panel: np.ndarray, y: np.ndarray, ids: Sequence[str],
                 n: int, s: float = 2.0):
        panel = np.asarray(panel, dtype=float)
        y = np.asarray(y, dtype=float)
        if panel.ndim != 2 or panel.shape[1] != y.shape[0]:
            raise ValueError("panel must be (n_phenotypes, n_molecules)")
        if len(ids) != panel.shape[0]:
            raise ValueError("one id per panel row required")
        self.panel, self.y, self.ids, self.s = panel, y, list(ids), s
        self.m = y.shape[0]
        z = np.empty((panel.shape[0] + 2, self.m))
        z[:-2], z[-2], z[-1] = panel, 1.0, y
        self.gram = z @ z.T
        self.n = n
        index, self._terms, self._last = _all_subsets(panel.shape[0], n)
        fits = self.fit_subsets(index)
        self._rows = fits.table.transpose(0, 2, 1).tolist()
        self._singular, self._df = fits.singular.tolist(), fits.df.tolist()

    def fit(self, subset: Sequence[int], with_intercept: bool) -> RegressionModel:
        """The fit of one n-subset, given as strictly increasing panel rows
        (SingularFitError if it has none)."""
        n = self.n
        if len(subset) != n:    # cheaper per call than zip(strict=True)
            raise ValueError(f"subset {subset} does not have {n} members")
        row, prev = self._last, -1
        for c, term in zip(subset, self._terms):
            if c <= prev:
                raise ValueError(f"subset {subset} is not strictly increasing")
            row, prev = row - term[c], c
        if self._singular[with_intercept][row]:
            raise SingularFitError("rank-deficient design matrix")
        values, lo = self._rows[with_intercept][row], 1 - with_intercept
        n1 = n + 1
        return RegressionModel(
            tuple([self.ids[i] for i in subset]), with_intercept,
            tuple(values[lo:n1]), tuple(values[n1 + lo : 2 * n1]),
            values[2 * n1], values[2 * n1 + 1], self.s,
            self._df[with_intercept],
        )

    def fit_subsets(self, index: np.ndarray) -> SubsetFits:
        """Fit every subset in `index` (one row of panel indices each) in
        both forms, CHUNK_SUBSETS subsets per kernel pass."""
        count, n = index.shape
        if not 1 <= n < self.m - 1:
            raise ValueError(f"subset size {n} not in [1, m - 1 = {self.m - 1})")
        fits = SubsetFits(n, np.array([self.m - n, self.m - n - 1]),
                          np.empty((2, 2 * n + 4, count)),
                          np.zeros((2, count), dtype=bool))
        for start in range(0, count, CHUNK_SUBSETS):
            self._fit_chunk(index[start : start + CHUNK_SUBSETS], fits, start)
        return fits

    def _fit_chunk(self, idx: np.ndarray, fits: SubsetFits, start: int) -> None:
        """The kernel: factor the bordered normal matrices of one chunk of
        subsets elementwise along the subset axis, and write both forms'
        fits into columns start.. of `fits.table`."""
        rows, n = idx.shape
        n1 = n + 1      # members and intercept
        p, m, gram = self.panel.shape[0], self.m, self.gram
        cols = np.empty((n1 + 1, rows), dtype=np.intp)   # Gram rows: members,
        cols[:n], cols[n:] = idx.T, [[p], [p + 1]]      # intercept, response
        # a[i, j] is entry (i, j) of each subset's normal matrix bordered by
        # the response; the Cholesky factor overwrites the lower triangle,
        # the upper triangle keeps the Gram entries
        a = gram[cols[:, None], cols[None, :]]
        for j in range(n1):
            if j:
                a[j:, j] -= (a[j:, :j] * a[j, :j]).sum(axis=1)
            pivot = a[j, j]
            bad = pivot <= PIVOT_TOL * gram[cols[j], cols[j]]
            # a member pivot fails both forms, the intercept pivot one
            fits.singular[0 if j < n else 1 :, start : start + rows] |= bad
            pivot[bad] = 1.0    # keeps singular fits finite; they are masked
            np.sqrt(pivot, out=pivot)
            a[j + 1 :, j] /= pivot
        # w = L^-1 of the design block; its leading n x n block inverts the
        # no-intercept form's factor
        w = np.zeros((n1, n1, rows))
        for i in range(n1):
            w[i, i] = 1.0 / a[i, i]
            if i:
                w[i, :i] = -w[i, i] * (a[i, :i, None] * w[:i, :i]).sum(axis=0)
        z = a[n1, :n1]          # L^-1 X'y
        # sums over the leading n rows give the no-intercept form, over all
        # n + 1 rows the intercept form: [n - 1:] keeps both
        coef = np.cumsum(w * z[:, None], axis=0)[n - 1 :]
        var = np.cumsum(w * w, axis=0)[n - 1 :]    # diagonal of the inverse
        ssr = np.cumsum(z * z, axis=0)[n - 1 :]
        yy, sy = gram[p + 1, p + 1], gram[p, p + 1]
        sse = yy - ssr
        exact = sse <= PIVOT_TOL * yy
        sse[exact] = 0.0
        t = _t_stats(coef, np.sqrt(var * (sse / fits.df[:, None])[:, None]))
        # sum of y_hat: from the column sums a[:n, n] without intercept
        yhat_sum = np.full((2, rows), sy)
        (coef[0, :n] * a[:n, n]).sum(axis=0, out=yhat_sum[0])
        out = fits.table[:, :, start : start + rows]
        out[:, 0], out[:, 1:n1] = coef[:, n], coef[:, :n]   # intercept first
        out[:, n1], out[:, n1 + 1 : 2 * n1] = t[:, n], t[:, :n]
        out[:, 2 * n1] = _r2(ssr, yhat_sum, sy, yy - sy * sy / m, m)
        out[:, 2 * n1 + 1] = sse
        for form in (0, 1) if self.s != 2.0 else ():
            # sum |y - y_hat|^s from the residual rows; coef[n] is the intercept
            resid = self.y - coef[form, n, :, None]
            for j in range(n):
                resid -= coef[form, j, :, None] * self.panel[idx[:, j]]
            se_s = (np.abs(resid, out=resid) ** self.s).sum(axis=1)
            out[form, 2 * n1 + 1] = np.where(exact[form], 0.0, se_s)


def assess_validity(
    model: RegressionModel,
    ds: Dataset,
    alpha: float,
    refit: Callable[[bool], RegressionModel],
) -> RegressionModel:
    """Apply the validity rules and return the final (possibly refitted) model.

    Rules, in order: the coefficient count may not exceed m minus
    SIGNIFICANCE_OFFSET; an insignificant intercept demotes the fit to the
    no-intercept form; a slope insignificant in both forms invalidates the
    model. Invalidity is a state on the returned model, not an error.
    """
    m = ds.size
    if len(model.coefficients) > m - SIGNIFICANCE_OFFSET:
        model.valid = False
        return model

    other: RegressionModel | None = None

    def other_form() -> RegressionModel:
        nonlocal other
        if other is None:
            other = refit(not final.with_intercept)
        return other

    final = model
    if model.with_intercept:
        crit = t_critical(alpha, model.df)
        if abs(model.t_stats[0]) < crit:
            final = refit(False)
            other = model
            if len(final.coefficients) > m - SIGNIFICANCE_OFFSET:
                final.valid = False
                return final

    crit = t_critical(alpha, final.df)
    for i, t in enumerate(final.slope_t_stats):
        if abs(t) < crit:
            try:
                alt = other_form()
            except SingularFitError:
                final.valid = False
                return final
            if abs(alt.slope_t_stats[i]) < t_critical(alpha, alt.df):
                final.valid = False
                return final
    final.valid = True
    return final


def fit_assessed(
    fit: Callable[[Sequence[int], bool], RegressionModel],
    subset: Sequence[int],
    ds: Dataset,
    alpha: float,
    intercept_mode: str = "fallback",
) -> list[RegressionModel]:
    """Fit one subset under the configured intercept handling and return the
    assessed candidate models (empty when the design is singular).

    "fallback" fits the intercept form and demotes it when the intercept is
    insignificant; "both" additionally offers the pure no-intercept form as a
    second candidate, doubling the searched space.

    In "fallback" a subset whose intercept form is singular is dropped, even
    when its no-intercept form is well-posed (say, a constant member): only
    a fitted intercept can be demoted.
    """
    if intercept_mode not in ("fallback", "both"):
        raise ValueError(f"unknown intercept mode {intercept_mode!r}")
    candidates: list[RegressionModel] = []
    refit = lambda wi: fit(subset, wi)  # noqa: E731
    try:
        primary = assess_validity(fit(subset, True), ds, alpha, refit)
        candidates.append(primary)
    except SingularFitError:
        primary = None
    if intercept_mode == "both" and (primary is None or primary.with_intercept):
        try:
            candidates.append(
                assess_validity(fit(subset, False), ds, alpha, refit)
            )
        except SingularFitError:
            pass
    return candidates


def search_space_size(n_genotypes: int, n: int, both_forms: bool = False) -> int:
    """Number of candidate n-subsets (doubled when both regression forms are
    searched); exact integer arithmetic."""
    if n < 0:
        raise ValueError("subset size must be nonnegative")
    if n > n_genotypes:
        raise ValueError(f"subset size {n} exceeds genotype count {n_genotypes}")
    size = math.comb(n_genotypes, n)
    return 2 * size if both_forms else size
