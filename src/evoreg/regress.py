"""Ordinary least squares over phenotype subsets, coefficient significance,
validity rules, and search-space sizing.

GramFitter fits every n-subset of a panel in both forms into its `table`:
it gathers their normal matrices from one Gram matrix of [panel; 1; y]
(Furnival & Wilson, *Regressions by Leaps and Bounds*, 1974) and factors
them by a Cholesky, in chunks of at most CHUNK_SUBSETS subsets. The
kernel holds each entry of the bordered matrix as one float64 vector over a
chunk's subsets and works entry by entry with in-place ufuncs, so its
temporaries are chunk-length vectors, or stacks of one per member or per
form where one gather or one ufunc serves them all. Each sum adds only its
subset's own products, left to right in the order of the matrix product it
stands for. Every operation is elementwise over the subsets, so a subset's
bits do not depend on the other subsets of its chunk. A subset is addressed
by its row of `GramFitter.subsets`; `ols_fit` is the per-subset reference.

Singular rule, shared by both: with the columns ordered as the members, then
the intercept, a fit is singular when a Cholesky pivot (the squared norm a
column keeps after projecting out the columns before it) is not above
PIVOT_TOL times its diagonal entry; a NaN pivot, left by Gram entries past
the float range, is not above it either. So the intercept form fails
whenever the no-intercept form does. Applied to the response, the rule
marks an exact fit: an error sum at most PIVOT_TOL * sum(y^2) is reported
as 0, and nonzero t statistics as +-inf.

Validity rules, applied by `GramFitter.assess` as masks over the table: a
coefficient is insignificant when |t| < t_critical(alpha, df) of its form,
two lookups a sweep as df is constant per form. A form with more than
m - SIGNIFICANCE_OFFSET coefficients is invalid and is not demoted. The
primary candidate is the intercept form, or the no-intercept form if the
intercept is insignificant (demotion), and is valid unless a slope is
insignificant in both forms. A singular intercept form gives no primary
candidate, even beside a well-posed no-intercept form. "both" mode adds the
no-intercept form as a second candidate unless the primary was demoted,
valid unless a slope is insignificant in it and, in the intercept form,
insignificant or singular. The same pass scores the valid candidates into
a `Sweep` of arrays: their values stay one float64 array from the objective
to selection. `fit_assessed` reads a row's candidates from its shape code.

Refits: a run keeps one fitter, and `GramFitter.refit` writes the slots
survival replaced into its panel and refits only the rows ``touched`` by
one of them, chunk by chunk through buffers it keeps into the table's
columns; construction is the refit of every slot. The Gram matrix is
recomputed over the whole panel at its fixed shape, where BLAS gives two
unchanged rows the same bits, and on the finite values a fitter accepts
the kernel works per subset, so the table equals a fresh fitter's bit for
bit. `assess` reads the table alone and scores every valid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .descriptors import Dataset, Phenotype
from .stats import t_critical

__all__ = [
    "Candidate",
    "RegressionModel",
    "SingularFitError",
    "Sweep",
    "ols_fit",
    "search_space_size",
    "GramFitter",
    "fit_assessed",
    "better",
]

# pivots below this share of their diagonal carry fewer than about six
# significant digits in double precision
PIVOT_TOL = 1e-10
# the most subsets factored per kernel pass; a vector of as many float64 is
# 16 KiB, far below glibc's 128 KiB mmap threshold. A pass costs a fixed
# 0.1 ms or so, and every sweep-n3 refit after the first (784 to 2,036
# touched rows) runs in one; the first, 4,060 rows, runs as 2,048 + 2,012.
# A cap of 4,096, which takes it in one pass, was no faster (6 benchmark
# pairs)
CHUNK_SUBSETS = 2048
# a valid model has at most m - SIGNIFICANCE_OFFSET coefficients
SIGNIFICANCE_OFFSET = 6


class SingularFitError(ArithmeticError):
    """Design matrix is rank deficient; no unique least-squares solution."""


@dataclass
class RegressionModel:
    """A fitted linear model over a subset of phenotypes.

    ``coefficients`` lists the intercept first when ``with_intercept``; the
    ``t_stats`` align with the coefficients. ``se_s`` is the error sum
    sum(|y_hat - y|^s) at the exponent ``s`` the model was fitted with.
    """

    with_intercept: bool
    coefficients: tuple[float, ...]
    t_stats: tuple[float, ...]
    r2: float
    se_s: float
    s: float
    df: int

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
    directly on the design matrix: the reference for GramFitter. ``se_s``
    is reported for the given exponent."""
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
    if not np.all(pivots > PIVOT_TOL * np.diag(a)):
        raise SingularFitError("rank-deficient design matrix")
    inv = np.linalg.inv(a)
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
        with_intercept, tuple(coef.tolist()), tuple(t.tolist()), float(r2),
        sse, s, m - k,
    )


@lru_cache(maxsize=8)
def _all_subsets(p: int, n: int) -> np.ndarray:
    """Every n-subset of range(p) in lexicographic order, one per row, as a
    read-only array stored column-major, so its transpose holds each member
    position's column contiguously, as the kernel reads it."""
    index = np.array(list(combinations(range(p), n)), dtype=np.intp, order="F")
    index.setflags(write=False)
    return index


@lru_cache(maxsize=8)
def _slot_rows(p: int, n: int) -> np.ndarray:
    """Row g lists, ascending, the rows of `_all_subsets(p, n)` that hold
    member g: a (p, C(p - 1, n - 1)) read-only array. A stable sort of the
    members keeps each member's rows in row order."""
    index = np.argsort(_all_subsets(p, n).ravel(), kind="stable")
    index = index.reshape(p, -1) // n
    index.setflags(write=False)
    return index


class GramFitter:
    """Fits every n-subset of a fixed phenotype panel against one response,
    in both forms, at construction and at each `refit` (module docstring),
    so `fit` is a lookup by the subset's row of ``subsets``. Results agree
    with ols_fit to floating-point noise. The panel has a row per
    phenotype, at least n, and a column per molecule; the fitter copies it
    into its own ``panel``, which only `refit` writes, and checks that its
    values are finite and that 1 <= n < m - 1 for m molecules.

    ``table`` and ``singular`` index the form first (0 without, 1 with the
    intercept) and the subset last; between them ``table`` holds n + 1
    coefficients, the intercept slot first, their t statistics, r2, se_s.
    The no-intercept form's intercept coefficient and t (``table[0, 0]``
    and ``table[0, n + 1]``) are +0.0, and `form` does not read them. Fits
    flagged in ``singular`` are undefined. ``df`` holds each form's
    residual degrees of freedom, and ``slot_rows`` each slot's rows.
    """

    def __init__(self, panel, y: np.ndarray, n: int, s: float = 2.0):
        p, self.n, self.s, self.m = len(panel), n, s, len(y)
        if not 1 <= n < self.m - 1:
            raise ValueError(f"subset size {n} not in [1, m - 1 = {self.m - 1})")
        self.df = (self.m - n, self.m - n - 1)
        # [panel; 1; y], whose full Gram matrix every refit takes
        self._z = np.empty((p + 2, self.m))
        self._z[p], self._z[p + 1] = 1.0, y
        self.panel, self.y = self._z[:p], self._z[p + 1]
        if not np.isfinite(self.y).all():
            raise ValueError("panel and response values must be finite")
        self.subsets, self.slot_rows = _all_subsets(p, n), _slot_rows(p, n)
        self.table = np.empty((2, 2 * n + 4, len(self.subsets)))
        self.singular = np.empty((2, len(self.subsets)), dtype=bool)
        # the kernel's output for a chunk of up to w rows, kept so that no
        # refit allocates it; a chunk fills its leading entries as contiguous
        # arrays (strided views of w columns were 3% slower on sweep-n3)
        w = min(len(self.subsets), CHUNK_SUBSETS)
        self._out = np.empty(2 * (2 * n + 4) * w)
        self._out_singular = np.empty(2 * w, dtype=bool)
        self.refit(np.arange(p), panel)

    def refit(self, slots, values) -> None:
        """Write `values`, one row per slot, into the panel rows `slots` and
        refit in place the ``touched`` rows, whose subset holds one of them;
        a non-finite value is a ValueError that leaves the fitter unchanged."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("panel and response values must be finite")
        self.panel[slots] = values
        self.gram = self._z @ self._z.T
        self.touched = np.zeros(len(self.subsets), dtype=bool)
        self.touched[self.slot_rows[slots]] = True
        rows, w = np.flatnonzero(self.touched), self._out_singular.size // 2
        for start in range(0, rows.size, w):
            chunk = rows[start:start + w]
            c = chunk.size
            out = self._out[:2 * (2 * self.n + 4) * c].reshape(2, -1, c)
            singular = self._out_singular[:2 * c].reshape(2, c)
            self._fit_chunk(self.subsets.T.take(chunk, axis=1), out, singular)
            self.table[:, :, chunk] = out
            self.singular[:, chunk] = singular

    def form(self, with_intercept: bool):
        """(coefficients, t_stats, r2, se_s) of one form, one row per
        subset; the coefficients list the intercept first."""
        lo, n1 = 1 - with_intercept, self.n + 1
        f = self.table[int(with_intercept)]
        return f[lo:n1].T, f[n1 + lo : 2 * n1].T, f[2 * n1], f[2 * n1 + 1]

    def fit(self, row: int, with_intercept: bool) -> RegressionModel:
        """The fit of the subset in row `row` of `subsets` (SingularFitError
        if it has none)."""
        wi = int(with_intercept)
        if self.singular[wi, row]:
            raise SingularFitError("rank-deficient design matrix")
        coef, t, r2, se_s = (f[row].tolist() for f in self.form(wi))
        return RegressionModel(bool(wi), tuple(coef), tuple(t), r2, se_s,
                               self.s, self.df[wi])

    def assess(self, alpha: float, both: bool,
               objective: Callable[..., np.ndarray]) -> Sweep:
        """The valid candidates of the table under the validity rules
        (module docstring) at significance level `alpha`, `both` selecting
        "both" mode. One `objective(r2, se_s, slope_t)` call scores the
        valid candidates in (row, slot) order, one row of slope t each. The
        sweep depends on the table and the arguments alone: nothing is kept."""
        n, n1, table = self.n, self.n + 1, self.table
        # in the table's (coefficient, subset) layout: the slope t of the
        # no-intercept form, and the intercept form's t, intercept first
        ins0 = np.abs(table[0, n1 + 1:2 * n1]) < t_critical(alpha, self.df[0])
        ins1 = np.abs(table[1, n1:2 * n1]) < t_critical(alpha, self.df[1])
        room0, room1 = (n + wi <= self.m - SIGNIFICANCE_OFFSET for wi in (0, 1))
        sing0, sing1 = self.singular
        valid1 = room1 & ~(ins0 & ins1[1:]).any(axis=0)
        valid0 = room0 & ~(ins0 & (ins1[1:] | sing1)).any(axis=0)
        demoted = room1 & ~sing1 & ins1[0]
        # per slot, the intercept form unless demoted, and the no-intercept
        # form when demoted or in "both" mode; a singular form gives none
        present = np.array((~demoted & ~sing1, (demoted | both) & ~sing0))
        ok = np.empty((len(sing0), 2), dtype=bool)    # (row, slot) order
        np.logical_and(present[0], valid1, out=ok[:, 0])
        np.logical_and(present[1], valid0, out=ok[:, 1])
        flat = np.flatnonzero(ok)
        rows, slot = flat >> 1, flat & 1
        # slope t, r2 and se_s of each valid candidate, a row per field, in
        # one take by flat table index (form, field, subset)
        fields = np.arange(n1 + 1, 2 * n1 + 2)[:, None] * table.shape[2]
        picked = table.take(rows + (1 - slot) * table[0].size + fields)
        # shape codes; per slot 0 no candidate, 1 an invalid one, 2 a valid one
        c = present.view(np.uint8) + ok.T.view(np.uint8)
        return Sweep(rows, slot == 0, objective(picked[n], picked[n1],
                                                picked[:n].T), 3 * c[0] + c[1])

    def _fit_chunk(self, cols: np.ndarray, out: np.ndarray,
                   singular: np.ndarray) -> None:
        """The kernel: factor the bordered normal matrices of the subsets,
        whose members are the columns of `cols`, and write both forms' fits
        into `out` and `singular`, laid out as ``table`` and ``singular``.
        Each matrix entry is one vector over the subsets, and each sum adds
        the subset's own products in the order of the product it stands for."""
        n, rows = cols.shape
        n1 = n + 1      # members and intercept
        p, m, gram = self.panel.shape[0], self.m, self.gram
        # a[i][j], j <= i: entry (i, j) of the normal matrices bordered by
        # the response, rows ordered members, intercept (n), response (n1);
        # a scalar where the subsets share it. One take per row gathers the
        # vectors. The Cholesky factor L replaces them column by column, and
        # every sum adds its products left to right.
        at = cols * (p + 2)     # flat offsets of the members' Gram rows
        a = [list(gram.take(at[i] + cols[:i + 1])) for i in range(n)]
        a.append([*gram[p].take(cols), gram[p, p]])
        a.append([*gram[p + 1].take(cols), gram[p + 1, p]])
        tol = [PIVOT_TOL * a[i][i] for i in range(n1)]
        bad = np.empty((n1, rows), dtype=bool)
        for j in range(n1):
            for i in range(j, n1 + 1) if j else ():
                s = a[i][0] * a[j][0]
                for k in range(1, j):
                    s += a[i][k] * a[j][k]
                a[i][j] = np.subtract(a[i][j], s, out=s)
            pivot = a[j][j]
            np.logical_not(np.greater(pivot, tol[j], out=bad[j]), out=bad[j])
            # keeps singular fits finite; they are masked
            np.copyto(pivot, 1.0, where=bad[j])
            np.sqrt(pivot, out=pivot)
            for i in range(j + 1, n1 + 1):
                a[i][j] /= pivot
        # a member pivot fails both forms, the intercept pivot one
        np.logical_or.reduce(bad[:n], axis=0, out=singular[0])
        np.logical_or(singular[0], bad[n], out=singular[1])
        # w[i][l], l <= i: L^-1 of the design block, zero above the diagonal;
        # its leading n x n block inverts the no-intercept form's factor
        w = []
        for i in range(n1):
            row = [None] * i + [np.divide(1.0, a[i][i])]
            neg = np.negative(row[i]) if i else None
            for l in range(i):
                s = a[i][l] * w[l][l]
                for k in range(l + 1, i):
                    s += a[i][k] * w[k][l]
                row[l] = np.multiply(neg, s, out=s)
            w.append(row)
        z = a[n1][:n1]      # L^-1 X'y
        # coefficient l of a form sums w's column l against z, over the
        # leading n rows without the intercept and all n + 1 with it, into
        # slot l + 1 (the intercept's is 0). The diagonal of each form's
        # inverse goes into the t rows, to become se and then t.
        for l in range(n):
            coef = np.multiply(w[l][l], z[l], out=out[0, l + 1])
            var = np.multiply(w[l][l], w[l][l], out=out[0, n1 + l + 1])
            for i in range(l + 1, n):
                coef += w[i][l] * z[i]
                var += w[i][l] * w[i][l]
            np.add(coef, w[n][l] * z[n], out=out[1, l + 1])
            np.add(var, w[n][l] * w[n][l], out=out[1, n1 + l + 1])
        np.multiply(w[n][n], z[n], out=out[1, 0])
        np.multiply(w[n][n], w[n][n], out=out[1, n1])
        # the no-intercept form has no intercept; its t slot holds 1.0 until
        # the t pass below, so that it keeps the form's se positive
        out[0, 0], out[0, n1] = 0.0, 1.0
        yy, sy = gram[p + 1, p + 1], gram[p, p + 1]
        # ssr = y_hat . y_hat; the sum of y_hat, without the intercept from
        # the column sums X'1
        ssr = np.empty((2, rows))
        yhat_sum = np.full((2, rows), sy)
        ones = gram[:, p].take(cols)
        np.multiply(z[0], z[0], out=ssr[0])
        np.multiply(out[0, 1], ones[0], out=yhat_sum[0])
        for i in range(1, n):
            ssr[0] += z[i] * z[i]
            yhat_sum[0] += out[0, i + 1] * ones[i]
        np.add(ssr[0], z[n] * z[n], out=ssr[1])
        sse = np.subtract(yy, ssr, out=out[:, 2 * n1 + 1])
        exact = sse <= PIVOT_TOL * yy
        np.copyto(sse, 0.0, where=exact)
        # both forms' t in one pass over their t rows
        coef, se = out[:, :n1], out[:, n1:2 * n1]
        scale = sse / np.array(self.df, dtype=float)[:, None]
        np.sqrt(np.multiply(se, scale[:, None], out=se), out=se)
        if se.min() > 0.0:
            np.divide(coef, se, out=se)
        else:   # _t_stats' rule where se is 0 or NaN
            se[...] = _t_stats(coef, se)
        out[0, n1] = 0.0
        out[:, 2 * n1] = _r2(ssr, yhat_sum, sy, yy - sy * sy / m, m)
        for form in (0, 1) if self.s != 2.0 else ():
            # sum |y - y_hat|^s from the residual rows; slot 0 the intercept
            resid = self.y - out[form, 0, :, None]
            for j in range(n):
                resid -= out[form, j + 1, :, None] * self.panel[cols[j]]
            se_s = (np.abs(resid, out=resid) ** self.s).sum(axis=1)
            out[form, 2 * n1 + 1] = np.where(exact[form], 0.0, se_s)


class Sweep(NamedTuple):
    """The valid candidates of a table in (row, slot) order, slot 0 the
    intercept form: each one's row, form and float64 value, one array each;
    and each row's shape code, which `fit_assessed` reads, in an int array."""

    rows: np.ndarray
    with_intercept: np.ndarray
    values: np.ndarray
    shapes: np.ndarray


class Candidate(NamedTuple):
    """A candidate model of a subset: its form and whether it is valid."""

    with_intercept: bool
    valid: bool


# a row's candidates by shape code 3a + b, a and b the state of the intercept
# and the no-intercept form: 0 no candidate, 1 invalid, 2 valid
_SHAPES = [tuple(Candidate(wi, k == 2) for wi, k in ((True, a), (False, b))
                 if k) for a in range(3) for b in range(3)]


# The candidates of a row, from its shape code in a `Sweep`'s shapes. The
# engine calls this once per row only when an instrument has replaced its
# name in the engine, as the benchmark's tracer does to count subsets and
# valid and demoted candidates.
fit_assessed: Callable[[int], tuple[Candidate, ...]] = _SHAPES.__getitem__


def search_space_size(n_genotypes: int, n: int, both_forms: bool = False) -> int:
    """Number of candidate n-subsets (doubled when both regression forms are
    searched); exact integer arithmetic."""
    if n < 0:
        raise ValueError("subset size must be nonnegative")
    if n > n_genotypes:
        raise ValueError(f"subset size {n} exceeds genotype count {n_genotypes}")
    size = math.comb(n_genotypes, n)
    return 2 * size if both_forms else size
