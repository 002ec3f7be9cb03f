"""Statistical kernel: tail probabilities, Jarque-Bera, chi-square homogeneity.

The incomplete gamma and beta functions are implemented directly (series plus
Lentz continued fractions over stdlib lgamma) so the package carries its own
tail probabilities; accuracy was checked once against an arbitrary-precision
reference and those values are frozen in the test suite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ContingencyTable",
    "ChiSquareReport",
    "chi2_sf",
    "student_t_two_tail",
    "t_critical",
    "jarque_bera",
    "chi2_homogeneity",
    "load_contingency_csv",
    "write_contingency_csv",
    "format_report",
]

_EPS = 1e-16
_MAX_ITER = 20000


# --- special functions ------------------------------------------------------


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q(a: float, x: float) -> float:
    if x < 0.0 or a <= 0.0:
        raise ValueError("incomplete gamma needs x >= 0 and a > 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if df < 1 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return min(1.0, max(0.0, _gamma_q(df / 2.0, x / 2.0)))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lbeta = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(lbeta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, _betainc(df / 2.0, 0.5, x)))


@lru_cache(maxsize=None)
def t_critical(alpha: float, df: int) -> float:
    """Two-tailed critical value: |t| above it has tail probability < alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = 0.0, 1.0
    while student_t_two_tail(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("t_critical failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- sample statistics ------------------------------------------------------


def jarque_bera(x) -> tuple[float, float]:
    """Jarque-Bera normality statistic and its chi-square(2) tail probability.

    Skewness and kurtosis use population (1/m) moment estimators.
    """
    v = np.asarray(x, dtype=float)
    m = v.size
    if m < 4:
        raise ValueError("Jarque-Bera needs at least 4 observations")
    if not np.all(np.isfinite(v)):
        raise ValueError("Jarque-Bera needs finite values")
    d = v - v.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        raise ValueError("Jarque-Bera undefined for zero-variance samples")
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / (m2 * m2)
    jb = (m / 6.0) * (skew * skew + (kurt - 3.0) ** 2 / 4.0)
    return jb, chi2_sf(jb, 2)


# --- chi-square homogeneity -------------------------------------------------


class ContingencyTable:
    """Nonnegative R x C counts with row/column labels."""

    def __init__(self, observed, row_labels, col_labels):
        obs = np.asarray(observed, dtype=float)
        if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
            raise ValueError("contingency table must be at least 2x2")
        if not np.all(np.isfinite(obs)) or np.any(obs < 0):
            raise ValueError("counts must be finite and nonnegative")
        if len(row_labels) != obs.shape[0] or len(col_labels) != obs.shape[1]:
            raise ValueError("label count does not match table shape")
        self.observed = obs
        self.row_labels = tuple(str(r) for r in row_labels)
        self.col_labels = tuple(str(c) for c in col_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.observed.shape


@dataclass(frozen=True)
class ChiSquareReport:
    """Per-row, per-column, and total homogeneity statistics.

    ``expected`` holds the exact quotients row*col/grand; the X^2 statistics
    are computed against expected counts rounded to whole observations, which
    is how contingency tables of integer counts are conventionally tabulated
    (and is required to reproduce reference tables computed that way).
    """

    table: ContingencyTable
    expected: np.ndarray
    partial_row: tuple[float, ...]
    partial_col: tuple[float, ...]
    total: float
    df_row: int
    df_col: int
    df_total: int
    p_row: tuple[float, ...]
    p_col: tuple[float, ...]
    p_total: float
    alpha: float

    @property
    def reject_row(self) -> tuple[bool, ...]:
        return tuple(p < self.alpha for p in self.p_row)

    @property
    def reject_col(self) -> tuple[bool, ...]:
        return tuple(p < self.alpha for p in self.p_col)

    @property
    def reject_total(self) -> bool:
        return self.p_total < self.alpha


def _rounded_expected(e: float) -> float:
    r = math.floor(e + 0.5)  # half-up, independent of banker's rounding
    return r if r > 0 else e


def chi2_homogeneity(table: ContingencyTable, alpha: float = 0.05) -> ChiSquareReport:
    """Test homogeneity of row populations across columns.

    Partial statistics sum cell contributions over one row (df = C-1) or one
    column (df = R-1); the total over all cells has df (R-1)(C-1).
    """
    obs = table.observed
    nrow, ncol = obs.shape
    row_sum = obs.sum(axis=1)
    col_sum = obs.sum(axis=0)
    if np.any(row_sum <= 0) or np.any(col_sum <= 0):
        raise ValueError("every row and column margin must be positive")
    grand = obs.sum()
    expected = np.outer(row_sum, col_sum) / grand

    contrib = np.empty_like(obs)
    for i in range(nrow):
        for j in range(ncol):
            e = _rounded_expected(expected[i, j])
            contrib[i, j] = (obs[i, j] - e) ** 2 / e

    partial_row = tuple(float(contrib[i].sum()) for i in range(nrow))
    partial_col = tuple(float(contrib[:, j].sum()) for j in range(ncol))
    total = float(contrib.sum())
    df_row = ncol - 1
    df_col = nrow - 1
    df_total = (nrow - 1) * (ncol - 1)
    return ChiSquareReport(
        table=table,
        expected=expected,
        partial_row=partial_row,
        partial_col=partial_col,
        total=total,
        df_row=df_row,
        df_col=df_col,
        df_total=df_total,
        p_row=tuple(chi2_sf(x, df_row) for x in partial_row),
        p_col=tuple(chi2_sf(x, df_col) for x in partial_col),
        p_total=chi2_sf(total, df_total),
        alpha=alpha,
    )


# --- contingency CSV and rendering -------------------------------------------


def load_contingency_csv(path) -> ContingencyTable:
    """Read a labeled contingency table: header ',C1,C2,...', one labeled
    row per line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(f.strip() for f in r)]
    if len(rows) < 3:
        raise ValueError(f"{path}: need a header and at least two rows")
    col_labels = [c.strip() for c in rows[0][1:]]
    row_labels = []
    counts = []
    for r in rows[1:]:
        if len(r) != len(col_labels) + 1:
            raise ValueError(f"{path}: row {r[0]!r} has wrong column count")
        row_labels.append(r[0].strip())
        try:
            counts.append([float(v) for v in r[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric count in row {r[0]!r}") from exc
    return ContingencyTable(counts, row_labels, col_labels)


def write_contingency_csv(table: ContingencyTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([""] + list(table.col_labels))
        for label, row in zip(table.row_labels, table.observed):
            w.writerow([label] + [_format_count(v) for v in row])


def _format_count(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _verdict(reject: bool) -> str:
    return "No" if reject else "-"


def format_report(report: ChiSquareReport) -> str:
    """Render observed (expected) counts plus the statistic table."""
    t = report.table
    obs = t.observed
    lines = []
    header = ["X^2"] + list(t.col_labels) + ["Sum"]
    body = []
    for i, rl in enumerate(t.row_labels):
        cells = [
            f"{_format_count(obs[i, j])} ({_format_count(_rounded_expected(report.expected[i, j]))})"
            for j in range(obs.shape[1])
        ]
        body.append([rl] + cells + [_format_count(obs[i].sum())])
    body.append(
        ["Sum"]
        + [_format_count(obs[:, j].sum()) for j in range(obs.shape[1])]
        + [_format_count(obs.sum())]
    )
    widths = [
        max(len(row[c]) for row in [header] + body) for c in range(len(header))
    ]
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append("")
    for i, rl in enumerate(t.row_labels):
        lines.append(
            f"X^2({rl},.) = {report.partial_row[i]:.4g}   "
            f"p(df={report.df_row}) = {report.p_row[i]:.3g}   "
            f"{_verdict(report.reject_row[i])}"
        )
    for j, cl in enumerate(t.col_labels):
        lines.append(
            f"X^2(.,{cl}) = {report.partial_col[j]:.4g}   "
            f"p(df={report.df_col}) = {report.p_col[j]:.3g}   "
            f"{_verdict(report.reject_col[j])}"
        )
    lines.append(
        f"X^2(.,.) = {report.total:.4g}   "
        f"p(df={report.df_total}) = {report.p_total:.3g}   "
        f"{_verdict(report.reject_total)}"
    )
    return "\n".join(lines) + "\n"
