"""Ordinary least squares over phenotype subsets, coefficient significance,
validity rules, and search-space sizing.

GramFitter fits every n-subset of a panel in both forms into its `table`:
it gathers their normal matrices from one Gram matrix of [panel; 1; y]
(Furnival & Wilson, *Regressions by Leaps and Bounds*, 1974) and factors
them by a Cholesky that runs elementwise along the subset axis, in equal
chunks of at most CHUNK_SUBSETS subsets. A subset is addressed by its row of
`GramFitter.subsets`; `ols_fit` is the per-subset reference.

Singular rule, shared by both: with the columns ordered as the members, then
the intercept, a fit is singular when a Cholesky pivot (the squared norm a
column keeps after projecting out the columns before it) is at most
PIVOT_TOL times its diagonal entry. So the intercept form fails whenever the
no-intercept form does. Applied to the response, the rule marks an exact
fit: an error sum at most PIVOT_TOL * sum(y^2) is reported as 0, and
nonzero t statistics as +-inf.

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

Carried sweeps: given the `previous` generation's fitter with the same n, s,
panel shape and y bits, a fitter refits only the rows ``touched`` by a panel
row whose bits changed and copies the other rows of its table. At a fixed
shape BLAS gives two unchanged rows the same Gram bits and, on the finite
values a fitter accepts, the kernel works per subset, so the table equals a
cold sweep's bit for bit. A different n, s, shape or y is cold. `assess`
reads the table alone and scores every valid row.
"""

from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12
# pivots below this share of their diagonal carry fewer than about six
# significant digits in double precision
PIVOT_TOL = 1e-10
# the most subsets factored per kernel pass; bounds the kernel's working
# memory. At n = 3 one pass over 4,060 subsets took about 1.6 times as long
# as three of 1,354, and each extra pass costs a fixed overhead
CHUNK_SUBSETS = 1500
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


def _head_sums(x: np.ndarray, n: int) -> np.ndarray:
    """The sums of x[:n] and of x[:n + 1] along the first axis, stacked.
    Rows are added in order, as `np.cumsum(x, axis=0)[n - 1 : n + 1]` adds
    them, so the bits are the same; cumsum along so short an axis runs an
    order of magnitude slower."""
    out = np.empty((2, *x.shape[1:]))
    np.copyto(out[0], x[0])
    for row in x[1:n]:
        out[0] += row
    np.add(out[0], x[n], out=out[1])
    return out


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
        with_intercept, tuple(coef.tolist()), tuple(t.tolist()), float(r2),
        sse, s, m - k,
    )


@lru_cache(maxsize=8)
def _all_subsets(p: int, n: int) -> np.ndarray:
    """Every n-subset of range(p) in lexicographic order, one per row, as a
    read-only array."""
    index = np.array(list(combinations(range(p), n)), dtype=np.intp)
    index.setflags(write=False)
    return index


class GramFitter:
    """Fits every n-subset of a fixed phenotype panel against one response,
    in both forms, at construction (module docstring), so `fit` is a lookup
    by the subset's row of ``subsets``. Results agree with ols_fit to
    floating-point noise. Rows are carried from `previous`, which the
    fitter does not keep. Inputs must be finite, and 1 <= n < m - 1 for m
    molecules.

    ``table`` and ``singular`` index the form first (0 without, 1 with the
    intercept) and the subset last; between them ``table`` holds n + 1
    coefficients, the intercept slot first, their t statistics, r2, se_s.
    Fits flagged in ``singular`` are undefined. ``df`` holds each form's
    residual degrees of freedom.
    """

    def __init__(self, panel: np.ndarray, y: np.ndarray, n: int,
                 s: float = 2.0, previous: GramFitter | None = None):
        # copies: a later fitter compares its panel with this one's
        panel = np.array(panel, dtype=float)
        y = np.array(y, dtype=float)
        if panel.ndim != 2 or panel.shape[1] != y.shape[0]:
            raise ValueError("panel must be (n_phenotypes, n_molecules)")
        if not (np.isfinite(panel).all() and np.isfinite(y).all()):
            raise ValueError("panel and response values must be finite")
        p = panel.shape[0]
        if n > p:
            raise ValueError(f"subset size n={n} exceeds the panel's p={p} rows")
        self.panel, self.y, self.n, self.s = panel, y, n, s
        self.m = y.shape[0]
        if not 1 <= n < self.m - 1:
            raise ValueError(f"subset size {n} not in [1, m - 1 = {self.m - 1})")
        self.df = (self.m - n, self.m - n - 1)
        z = np.empty((p + 2, self.m))
        z[:-2], z[-2], z[-1] = panel, 1.0, y
        self.gram = z @ z.T
        self.subsets = _all_subsets(p, n)
        # compared bit for bit: -0.0 is not 0.0
        carry = (previous is not None and (previous.n, previous.s) == (n, s)
                 and previous.panel.shape == panel.shape
                 and previous.y.tobytes() == y.tobytes())
        changed = ((previous.panel.view(np.uint64) != panel.view(np.uint64))
                   .any(axis=1) if carry else np.ones(p, dtype=bool))
        # column by column: a 2-d gather and any(axis=1) ran 6x slower
        members = iter(self.subsets.T)
        self.touched = changed[next(members)]
        for column in members:
            self.touched |= changed[column]
        rows = np.flatnonzero(self.touched)
        # fit into one buffer (the table when cold), then copy the previous
        # table: copying first, or chunk outputs from the kernel, ran slower
        table = np.empty((2, 2 * n + 4, rows.size))
        singular = np.zeros((2, rows.size), dtype=bool)
        # the fewest chunks of at most CHUNK_SUBSETS rows, of equal size
        chunks = max(1, -(-rows.size // CHUNK_SUBSETS))
        size = max(1, -(-rows.size // chunks))
        for start in range(0, rows.size, size):
            chunk = slice(start, start + size)
            self._fit_chunk(self.subsets[rows[chunk]], table[:, :, chunk],
                            singular[:, chunk])
        self.table, self.singular = table, singular
        if carry:
            self.table = previous.table.copy()
            self.singular = previous.singular.copy()
            self.table[:, :, rows], self.singular[:, rows] = table, singular

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
        "both" mode. One `objective(r2, se_s, slope_t)` call per form scores
        its valid candidates, one row of slope t each, into a (rows, 2) value
        matrix by row and slot, NaN where no valid candidate is. The sweep
        depends on the table and the arguments alone: nothing is kept."""
        ins0, ins1 = (np.abs(self.form(wi)[1]) < t_critical(alpha, self.df[wi])
                      for wi in (0, 1))
        room0, room1 = (self.n + wi <= self.m - SIGNIFICANCE_OFFSET
                        for wi in (0, 1))
        sing0, sing1 = self.singular
        valid1 = room1 & ~(ins0 & ins1[:, 1:]).any(axis=1)
        valid0 = room0 & ~(ins0 & (ins1[:, 1:] | sing1[:, None])).any(axis=1)
        demoted = room1 & ~sing1 & ins1[:, 0]
        # per slot, the intercept form unless demoted, and the no-intercept
        # form when demoted or in "both" mode; a singular form gives none
        present = np.column_stack((~demoted & ~sing1,
                                   (demoted | both) & ~sing0))
        ok = present & np.column_stack((valid1, valid0))
        values = np.full(ok.shape, np.nan)
        for wi in (0, 1):
            _, t, r2, se_s = self.form(wi)
            rows = np.flatnonzero(ok[:, 1 - wi])
            values[rows, 1 - wi] = objective(r2[rows], se_s[rows],
                                             t[rows, wi:])
        flat = np.flatnonzero(ok)
        # shape codes; per slot 0 no candidate, 1 an invalid one, 2 a valid one
        shapes = (present.astype(np.intp) + ok) @ (3, 1)
        return Sweep(flat >> 1, (flat & 1) == 0, values.take(flat),
                     shapes.tolist())

    def _fit_chunk(self, idx: np.ndarray, out: np.ndarray,
                   singular: np.ndarray) -> None:
        """The kernel: factor the bordered normal matrices of the subsets in
        `idx` elementwise along the subset axis, and write both forms' fits
        into `out` and `singular`, laid out as ``table`` and ``singular``."""
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
            singular[0 if j < n else 1 :] |= bad
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
        # n + 1 rows the intercept form
        coef = _head_sums(w * z[:, None], n)
        var = _head_sums(w * w, n)      # diagonal of the inverse
        ssr = _head_sums(z * z, n)
        yy, sy = gram[p + 1, p + 1], gram[p, p + 1]
        sse = yy - ssr
        exact = sse <= PIVOT_TOL * yy
        sse[exact] = 0.0
        df = np.array(self.df)[:, None]
        t = _t_stats(coef, np.sqrt(var * (sse / df)[:, None]))
        # sum of y_hat: from the column sums a[:n, n] without intercept
        yhat_sum = np.full((2, rows), sy)
        (coef[0, :n] * a[:n, n]).sum(axis=0, out=yhat_sum[0])
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


class Sweep(NamedTuple):
    """The valid candidates of a table in (row, slot) order, slot 0 the
    intercept form: each one's row, form and float64 value, one array each;
    and per row the shape code that `fit_assessed` reads."""

    rows: np.ndarray
    with_intercept: np.ndarray
    values: np.ndarray
    shapes: list[int]


class Candidate(NamedTuple):
    """A candidate model of a subset: its form and whether it is valid."""

    with_intercept: bool
    valid: bool


# a row's candidates by shape code 3a + b, a and b the state of the intercept
# and the no-intercept form: 0 no candidate, 1 invalid, 2 valid
_SHAPES = [tuple(Candidate(wi, k == 2) for wi, k in ((True, a), (False, b))
                 if k) for a in range(3) for b in range(3)]


# The candidates of a row, from its shape code in a `Sweep`'s shapes. The
# engine calls this once per row only for the benchmark's tracer, which
# counts subsets and valid and demoted candidates by it; as a bound method
# of the list, the calls run in C when the tracer is off.
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
