"""Statistical kernel: tail probabilities, Jarque-Bera, chi-square homogeneity.

Every caller passes an integer df, so the chi-square and Student-t tails are
the textbook finite sums for integer df (Abramowitz & Stegun 26.4.4-5 and
26.7.3-4) over stdlib math: no iteration cap, no convergence test, a cost
linear in df. Their absolute error was checked once against an
arbitrary-precision reference and those values are frozen in the test suite.
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
    "row_cells",
    "numbers",
    "write_labelled_rows",
    "load_contingency_csv",
    "write_contingency_csv",
    "format_report",
]

# --- tail probabilities -----------------------------------------------------


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution (A&S 26.4.4-5):
    the sum of the terms h^k e^-h / Gamma(k + 1) at h = x/2 over k = 0, 1,
    ..., df/2 - 1 for even df, and over k = 1/2, 3/2, ..., df/2 - 1 plus
    erfc(sqrt(h)) for odd df. The terms are positive, so the tail keeps its
    relative accuracy however small it is."""
    if df < 1 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if not x >= 0:   # NaN fails too
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    h, a, odd = x / 2.0, df / 2.0, df % 2
    if h == 0.0:   # x may be the least subnormal, whose half is 0
        return 1.0
    if h == math.inf:
        return 0.0
    *terms, lower = [math.exp(k * math.log(h) - h - math.lgamma(k + 1.0))
                     for k in (j + odd / 2.0 for j in range(int(df) // 2 + 1))]
    # The lower tail is the terms at k = a, a + 1, ..., each h / (k + 1) times
    # the one before. Where that geometric bound is below half an ulp of 1,
    # the upper tail rounds to 1, which the rounded terms need not sum to.
    if h < a + 1.0 and lower * (a + 1.0) / (a + 1.0 - h) < 2.0 ** -54:
        return 1.0
    if odd:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


def student_t_two_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom (A&S
    26.7.3-4). With theta = atan(|t| / sqrt(df)) and S the sum over k < df // 2
    of c_k cos(theta)^2k, it is 1 - sin(theta) S for even df and
    1 - (2/pi)(theta + sin(theta) cos(theta) S) for odd df; c_k is the
    product over 1 <= j <= k of (2j - 1) / 2j for even df, 2j / (2j + 1) for
    odd. It is 1 minus a sum near 1 far in the tail, so its error there is
    absolute, not relative."""
    if df < 1 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic must not be NaN")
    if math.isinf(t):
        return 0.0
    n = int(df)
    odd = n % 2
    theta = math.atan(abs(t) / math.sqrt(n))
    sin, cos = math.sin(theta), math.cos(theta)
    terms, term = [], 1.0
    for k in range(1, n // 2 + 1):
        terms.append(term)
        term *= cos * cos * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:   # inside = P(|T| < |t|)
        inside = 2.0 / math.pi * (theta + sin * cos * math.fsum(terms))
    else:
        inside = sin * math.fsum(terms)
    return max(0.0, 1.0 - inside)


@lru_cache(maxsize=None)
def t_critical(alpha: float, df: int) -> float:
    """Two-tailed critical value: |t| above it has tail probability < alpha,
    for 1e-10 <= alpha < 1 as `EvolutionConfig` checks (a negative alpha
    would double the bracket forever). The bisection keeps the tail above
    alpha at `lo`, at or below it at `hi`, and ends when they are adjacent
    floats: the midpoint is then one of them, which any further step would
    write back."""
    lo, hi = 0.0, 1.0
    while student_t_two_tail(hi, df) > alpha:
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if student_t_two_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return mid


# --- sample statistics ------------------------------------------------------


def jarque_bera(x) -> tuple[float, float]:
    """Jarque-Bera normality statistic and its chi-square(2) tail probability.

    `x` holds at least 4 finite values, as `screen_viability` passes them;
    a sample without variance raises ValueError. Skewness and kurtosis use
    population (1/m) moment estimators. When a moment overflows the float
    range, the statistic is inf or NaN and its tail probability is 0: such
    a sample is taken as far from normal. When the squared variance
    underflows, the moments are taken of the sample divided by its largest
    magnitude, which leaves skewness and kurtosis unchanged.
    """
    v = np.asarray(x, dtype=float)
    m = v.size
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
    return jb, 0.0 if math.isnan(jb) else chi2_sf(jb, 2)


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


def _rounded_expected(e: np.ndarray) -> np.ndarray:
    """Expected counts rounded half up (not to even); a count that rounds
    to 0 stays exact."""
    r = np.floor(e + 0.5)
    return np.where(r > 0, r, e)


def chi2_homogeneity(table: ContingencyTable, alpha: float = 0.05) -> ChiSquareReport:
    """Test homogeneity of row populations across columns.

    Partial statistics sum cell contributions over one row (df = C-1) or one
    column (df = R-1); the total over all cells has df (R-1)(C-1).
    """
    obs = table.observed
    nrow, ncol = obs.shape
    with np.errstate(over="ignore", invalid="ignore"):
        row_sum = obs.sum(axis=1)
        col_sum = obs.sum(axis=0)
        grand = obs.sum()
        expected = np.outer(row_sum, col_sum) / grand
    if np.any(row_sum <= 0) or np.any(col_sum <= 0):
        raise ValueError("every row and column margin must be positive")
    if not (np.isfinite(grand) and np.isfinite(expected).all()):
        raise ValueError("margins and expected counts must be finite")
    if not (expected > 0).all():    # margins so small their product underflows
        raise ValueError("every expected count (row margin x column margin "
                         "/ total) must be positive")

    e = _rounded_expected(expected)
    d = obs - e
    contrib = d * d / e
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


def _line_blocks(fh):
    """`fh`'s bytes in blocks, each with the list of its whole lines. A
    read of `_BLOCK` bytes keeps the lines it ends and steps the file back
    over the rest, so the next read starts with the line it cut; a read
    inside one line (a long one, or the last) reads on to the line's end.
    The last line may end without a line end."""
    while block := fh.read(_BLOCK):
        stop = block.rfind(b"\n") + 1
        if not stop:
            block += fh.readline()
            stop = len(block)
        elif stop < len(block):
            fh.seek(stop - len(block), 1)
        yield block, io.BytesIO(block).readlines(stop)


def read_labelled_rows(fh, corner: str, error=ValueError):
    """Stream a labelled-row CSV from `fh`, a file opened in binary mode: a
    header `<corner>,<column labels>`, then one labelled row per line.
    Yields the column labels, then each row's label, its line (split it
    with `row_cells`) and the byte offset the line starts at.

    A UTF-8 byte-order mark that starts the file is not part of its first
    cell (offsets still count it). Lines end in LF or CRLF: any other
    carriage return fails the load. Then, in order: a row of blank cells is
    skipped, the first other row is the header, and a later row fails if
    it has no label. A fault raises `error` naming the file and any line,
    the first fault in the file; `row_cells` and `numbers` raise the same
    for a row of the wrong width and a cell that is not a number.

    The file is read in blocks (`_line_blocks`). A line's label is the
    text before its first comma if its block is all ASCII with no quote
    and that text is not blank; otherwise the line is split."""
    no_header = f"{fh.name}: first header column must be {corner!r}"
    offset = fh.tell()
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(offset)
    header, offset, lineno = None, fh.tell(), 0
    for block, lines in _line_blocks(fh):
        plain = block.isascii() and b'"' not in block
        for lineno, line in enumerate(lines, lineno + 1):
            start, offset = offset, offset + len(line)
            cr = line.find(b"\r")
            if cr >= 0 and line[cr + 1:cr + 2] != b"\n":
                raise error(f"{fh.name}: line {lineno}: "
                            "carriage return without a line feed")
            label = ""
            if header is not None and plain:
                label = line.partition(b",")[0].decode().strip()
            if not label:  # the header, a line to split, or a blank label
                try:
                    cells = split_line(line)
                except (csv.Error, UnicodeDecodeError) as exc:
                    raise error(f"{fh.name}: line {lineno}: {exc}") from None
                label = cells[0].strip()
                if not label and not any(map(str.strip, cells)):
                    continue
            if header is None:
                header = [c.strip() for c in cells]
                if label != corner:
                    raise error(no_header)
                yield header[1:]
            elif not label:
                raise error(f"{fh.name}: line {lineno}: row has no label")
            else:
                yield label, line, start
    if header is None:
        raise error(no_header)


def row_cells(path, label: str, line: bytes, columns: int,
              error=ValueError) -> list[str]:
    """Row `label`'s cells after its label: `columns` of them, or an error."""
    cells = split_line(line)[1:]
    if len(cells) != columns:
        raise error(f"{path}: row {label!r} has wrong width")
    return cells


def numbers(path, label, cells: list[str], error=ValueError) -> np.ndarray:
    """Row `label`'s `cells` as a float array, each parsed as `float()`
    parses it, or an `error` if one is not a number. Given a label per
    cell, the error names the first row whose cell is not a number."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        if isinstance(label, str):
            raise error(f"{path}: non-numeric value in row {label!r}") from None
    for row, cell in zip(label, cells):  # raises at the first bad cell
        numbers(path, row, [cell], error)


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
        labelled = [(label, numbers(path, label, row_cells(
                        path, label, line, len(col_labels))))
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
    rows = [["X^2", *t.col_labels, "Sum"]]
    for label, o, e in zip(t.row_labels, obs,
                           _rounded_expected(report.expected)):
        rows.append([label, *(f"{_format_count(a)} ({_format_count(b)})"
                              for a, b in zip(o, e)), _format_count(o.sum())])
    rows.append(["Sum", *(_format_count(c.sum()) for c in obs.T),
                 _format_count(obs.sum())])
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in rows]
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
