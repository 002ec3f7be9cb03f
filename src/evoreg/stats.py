"""Statistical kernel: tail probabilities, Jarque-Bera, chi-square homogeneity.

The incomplete gamma and beta functions are implemented directly (series plus
continued fractions that share one modified-Lentz step, over stdlib lgamma) so
the package carries its own tail probabilities; accuracy was checked once
against an arbitrary-precision reference and those values are frozen in the
test suite.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import sys
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
    "split_line",
    "read_labelled_rows",
    "non_numeric",
    "numbers",
    "write_labelled_rows",
    "load_contingency_csv",
    "write_contingency_csv",
    "format_report",
]

_EPS = 1e-16
_MAX_ITER = 20000
_TINY = 1e-300      # Lentz's stand-in for a zero denominator


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


def _lentz_step(an: float, bn: float, c: float,
                d: float) -> tuple[float, float, float]:
    """One modified-Lentz step of a continued fraction with partial
    numerator an and partial denominator bn: the new (c, d) and the factor
    d * c that multiplies the convergent."""
    d = an * d + bn
    if abs(d) < _TINY:
        d = _TINY
    c = bn + an / c
    if abs(c) < _TINY:
        c = _TINY
    d = 1.0 / d
    return c, d, d * c


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by Lentz continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - a), b, c, d)
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
    if not x >= 0:   # NaN fails too
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    return min(1.0, max(0.0, _gamma_q(df / 2.0, x / 2.0)))


def _betacf(a: float, b: float, x: float) -> float:
    """Incomplete-beta continued fraction: two Lentz steps per term."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        c, d, delta = _lentz_step(
            m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz_step(
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
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
    if math.isnan(t):
        raise ValueError("t statistic must not be NaN")
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

    Skewness and kurtosis use population (1/m) moment estimators. When a
    moment overflows the float range, the statistic is not finite and its
    tail probability is 0: such a sample is taken as far from normal. When
    the squared variance underflows, the moments are taken of the sample
    divided by its largest magnitude, which leaves skewness and kurtosis
    unchanged.
    """
    v = np.asarray(x, dtype=float)
    m = v.size
    if m < 4:
        raise ValueError("Jarque-Bera needs at least 4 observations")
    if not np.all(np.isfinite(v)):
        raise ValueError("Jarque-Bera needs finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        d = v - v.mean()
        m2 = float(np.mean(d * d))
        if m2 * m2 < sys.float_info.min and d.any():
            v = v / np.abs(v).max()
            d = v - v.mean()
            m2 = float(np.mean(d * d))
        if m2 == 0.0:
            raise ValueError("Jarque-Bera undefined for zero-variance samples")
        try:
            skew = float(np.mean(d**3)) / m2**1.5
            kurt = float(np.mean(d**4)) / (m2 * m2)
            jb = (m / 6.0) * (skew * skew + (kurt - 3.0) ** 2 / 4.0)
        except OverflowError:   # float ** raises where * gives inf
            jb = math.inf
    return jb, chi2_sf(jb, 2) if math.isfinite(jb) else 0.0


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


# --- labelled-row CSV and rendering ------------------------------------------


def split_line(line: bytes) -> list[str]:
    """The cells of one CSV line, read in binary mode with its line end.
    Raises csv.Error if a quoted cell runs past the end of the line: a
    record is one line."""
    text = line.decode("utf-8").rstrip("\r\n")
    if '"' not in text:
        return text.split(",")
    # csv keeps the newline inside a quoted cell that is still open
    cells = next(csv.reader([text + "\n"]), [])
    if cells and cells[-1].endswith("\n"):
        raise csv.Error("quoted cell runs past the end of the line")
    return cells


# Bytes per read. glibc gives freed buffers of 128 KiB and more back to the
# kernel by default, so a larger block is faulted in anew on every read:
# 1 MiB blocks index a 16 MB table about a third slower than these.
_BLOCK = 1 << 16
# From this length a line's commas are counted faster from its block's comma
# mask (under 1 us a call) than by bytes.count (about 0.7 ns a byte).
_LONG_LINE = 1024


def _line_blocks(fh):
    """`fh`'s bytes in blocks of whole lines: a read of `_BLOCK` bytes that
    ends inside a line takes the rest of it. The last block may end
    without a line end."""
    while block := fh.read(_BLOCK):
        if not block.endswith(b"\n"):
            block += fh.readline()
        yield block


def read_labelled_rows(fh, corner: str, error=ValueError):
    """Stream a labelled-row CSV from `fh`, a file opened in binary mode: a
    header `<corner>,<column labels>`, then one labelled row per line.
    Yields the column labels, then each row's label, its line (split it
    with `split_line`) and the byte offset the line starts at.

    A UTF-8 byte-order mark that starts the file is not part of its first
    cell (offsets still count it). The header is the first non-blank row;
    rows of blank cells are skipped; every row is as wide as the header.
    Lines end in LF or CRLF: any other carriage return fails the load. A
    fault raises `error` naming the file and the row or line, the first
    fault in the file; `non_numeric` is the one for a cell that a caller
    finds is not a number.

    The file is read in blocks of whole lines (`_line_blocks`). In a block
    that is all ASCII with no quote, a row with a label is checked without
    splitting it: its cells are its commas plus one, counted from one
    comma mask of the block. Every other line is split."""
    no_header = f"{fh.name}: first header column must be {corner!r}"
    offset = fh.tell()
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(offset)
    header, offset, lineno = None, fh.tell(), 0
    for block in _line_blocks(fh):
        commas = None
        if block.isascii() and b'"' not in block:
            commas = np.frombuffer(block, np.uint8) == ord(",")
        end = 0
        for lineno, line in enumerate(io.BytesIO(block), lineno + 1):
            start, end = end, end + len(line)
            cr = line.find(b"\r")
            if cr >= 0 and line[cr + 1:cr + 2] != b"\n":
                raise error(f"{fh.name}: line {lineno}: "
                            "carriage return without a line feed")
            if header is not None and commas is not None:
                label = line.partition(b",")[0].decode().strip()
                if label:
                    if len(line) < _LONG_LINE:
                        width = line.count(b",") + 1
                    else:
                        width = np.count_nonzero(commas[start:end]) + 1
                    if width != len(header):
                        raise error(f"{fh.name}: row {label!r} has wrong width")
                    yield label, line, offset + start
                    continue
            try:
                cells = split_line(line)
            except (csv.Error, UnicodeDecodeError) as exc:
                raise error(f"{fh.name}: line {lineno}: {exc}") from None
            if not any(map(str.strip, cells)):
                continue
            label = cells[0].strip()
            if header is None:
                header = [c.strip() for c in cells]
                if label != corner:
                    raise error(no_header)
                yield header[1:]
            elif len(cells) != len(header):
                raise error(f"{fh.name}: row {label!r} has wrong width")
            else:
                yield label, line, offset + start
        offset += len(block)
    if header is None:
        raise error(no_header)


def non_numeric(path, label: str, error=ValueError) -> Exception:
    """The error for row `label` of a labelled-row CSV holding a cell that
    `float()` does not parse."""
    return error(f"{path}: non-numeric value in row {label!r}")


def numbers(path, label: str, cells: list[str], error=ValueError) -> np.ndarray:
    """Row `label`'s `cells` as a float array, or its `non_numeric` error."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        raise non_numeric(path, label, error) from None


def write_labelled_rows(path, corner: str, columns, rows, cell) -> int:
    """Write what `read_labelled_rows` reads: `rows` yields (label, values),
    and `cell` renders one value. Returns the number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([corner, *columns])
        for count, (label, values) in enumerate(rows, 1):
            w.writerow([label, *map(cell, values)])
    return count


def load_contingency_csv(path) -> ContingencyTable:
    """Read a labelled contingency table: header ',C1,C2,...', then at
    least two labelled rows of counts."""
    with open(path, "rb") as fh:
        rows = read_labelled_rows(fh, "")
        col_labels = next(rows)
        labelled = [(label, numbers(path, label, split_line(line)[1:]))
                    for label, line, _ in rows]
    if len(labelled) < 2:
        raise ValueError(f"{path}: need a header and at least two rows")
    row_labels, counts = zip(*labelled)
    try:
        return ContingencyTable(counts, row_labels, col_labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_contingency_csv(table: ContingencyTable, path) -> None:
    write_labelled_rows(path, "", table.col_labels,
                        zip(table.row_labels, table.observed), _format_count)


def _format_count(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


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
    partials = ([(f"{label},.", report.df_row) for label in t.row_labels]
                + [(f".,{label}", report.df_col) for label in t.col_labels]
                + [(".,.", report.df_total)])
    for (cells, df), x2, p, reject in zip(
            partials, report.partial_row + report.partial_col + (report.total,),
            report.p_row + report.p_col + (report.p_total,),
            report.reject_row + report.reject_col + (report.reject_total,)):
        lines.append(f"X^2({cells}) = {x2:.4g}   p(df={df}) = {p:.3g}   "
                     f"{'No' if reject else '-'}")
    return "\n".join(lines) + "\n"
