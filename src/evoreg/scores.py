"""Objective, selection, and survival scores, plus the score transforms.

Selection strategies draw from the per-individual scores after the optional
normalize / round / rank transforms. Survival similarity scores combine
score distance and genotype distance and flow through the same transforms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .genome import GeneticTopology
from .regress import RegressionModel

__all__ = [
    "ObjectiveSpec",
    "NormalizationState",
    "objective_score",
    "selection_scores",
    "selection_direction",
    "transform_scores",
    "survival_scores",
    "round_significant",
    "OBJECTIVE_KINDS",
    "SELECTION_AGGREGATES",
    "WORST_MIN_SCORE",
    "SIMILARITY_CAP",
]

logger = logging.getLogger(__name__)

OBJECTIVE_KINDS = ("se", "r2", "mt", "hr")
SELECTION_AGGREGATES = ("nalive", "min", "max", "avg")

# score handed to genotypes that sit in no valid regression
WORST_MIN_SCORE = 1e12
# pair similarity when both distance terms vanish (duplicates)
SIMILARITY_CAP = 1e12

_DEFAULT_S = {"se": 2.0, "r2": 1.0, "mt": 1.0, "hr": 2.0}


@dataclass(frozen=True)
class ObjectiveSpec:
    """One of the four regression objectives with its exponent.

    se: error sum (minimize); r2: determination power (maximize);
    mt: power mean of slope |t| significances (maximize);
    hr: entropy of determination in bits (minimize).
    """

    kind: str = "r2"
    s: float | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.s is None:
            object.__setattr__(self, "s", _DEFAULT_S[self.kind])
        if not 0.0 < self.s < math.inf:
            raise ValueError("objective exponent s must be positive and finite")
        if self.kind == "hr" and self.s == 1.0:
            raise ValueError("hr objective is undefined at s = 1")

    @property
    def direction(self) -> str:
        return "min" if self.kind in ("se", "hr") else "max"

    def values(self, r2: np.ndarray, se_s: np.ndarray,
               slope_t: np.ndarray) -> np.ndarray:
        """The objective of many fits as a float64 array, one entry of `r2`
        and `se_s` and one row of slope t statistics in `slope_t` each. se,
        and r2 at s = 1 (pow(r, 1) is r), are their inputs; the other kinds
        compute on Python floats, whose ``**`` is the C library's pow
        (numpy's array power differs from it in the last bit at some
        inputs), and mt sums its terms left to right (`_power_mean`)."""
        s = self.s
        if self.kind == "se":
            return se_s
        if self.kind == "r2":
            if s == 1.0:
                return r2
            out = [r**s for r in r2.tolist()]
        elif self.kind == "mt":
            out = [_power_mean(ts, s) for ts in slope_t.tolist()]
        else:   # hr: entropy of the (r2, 1-r2) split, in bits
            out = [math.log2(r**s + (1.0 - r) ** s) / (1.0 - s)
                   for r in r2.tolist()]
        return np.array(out, dtype=float)


def _power_mean(ts: list[float], s: float) -> float:
    """The power mean of |t| at exponent s; inf, as for an infinite t, where
    a power passes the float range (Python's ``**`` raises, C's pow: inf)."""
    try:
        mean = reduce(add, [abs(t) ** s for t in ts], 0.0) / len(ts)
        return mean ** (1.0 / s)
    except OverflowError:
        return math.inf


def objective_score(model: RegressionModel, spec: ObjectiveSpec) -> float:
    """Evaluate one fitted model under the chosen objective."""
    if spec.kind == "se" and model.s != spec.s:
        raise ValueError(f"model fitted with exponent {model.s}, "
                         f"objective needs {spec.s}")
    if spec.kind == "mt" and not model.slope_t_stats:
        raise ValueError("mt objective needs slope t statistics")
    return float(spec.values(np.array([model.r2]), np.array([model.se_s]),
                             np.array([model.slope_t_stats]))[0])


def selection_direction(aggregate: str, objective: ObjectiveSpec) -> str:
    """Direction of the per-genotype selection score."""
    return "max" if aggregate == "nalive" else objective.direction


def selection_scores(
    subsets: np.ndarray,
    slot_rows: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    values,
    aggregate: str,
    direction: str,
) -> np.ndarray:
    """Per-genotype score over the valid regressions that contain it.

    Valid model v fits the subset in row ``rows[v]`` of ``subsets``, the
    rows ascending and at most two models to a row, and ``values[v]`` is its
    objective score, whose sense is ``direction``. Row g of ``slot_rows``
    lists the rows of ``subsets`` that hold genotype g, and ``counts[g]``
    the models that contain it. Genotypes contained in no valid model get
    the worst score for the aggregate's direction, so selection disfavors
    them and survival removal favors them.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        logger.warning("no valid regressions; all selection scores worst-valued")
    if aggregate == "nalive":
        return counts.astype(float)
    if aggregate == "avg":
        # in (model, member) order: the sums' bits depend on it
        sums = np.bincount(subsets[rows].ravel(), minlength=len(counts),
                           weights=np.repeat(values, subsets.shape[1]))
        out = np.divide(sums, counts, out=np.zeros(len(counts)),
                        where=counts > 0)
    else:
        # each row's best model, then each genotype's best row: exact, as
        # no objective gives zeros of both signs, whose order would pick one
        ufunc = np.minimum if aggregate == "min" else np.maximum
        best = np.full(len(subsets), np.inf if aggregate == "min" else -np.inf)
        ufunc.at(best, rows, values)
        out = ufunc.reduce(best[slot_rows], axis=1)
    out[counts == 0] = 0.0 if direction == "max" else WORST_MIN_SCORE
    return out


@dataclass
class NormalizationState:
    """Running min/max references mapping scores onto a fixed [n0, n1] scale.

    The references are updated with each generation's extremes and persist
    for the whole evolution, so scores stay comparable across generations.
    """

    n0: float
    n1: float
    global_min: float | None = None
    global_max: float | None = None

    def update(self, lo: float, hi: float) -> None:
        self.global_min = lo if self.global_min is None else min(self.global_min, lo)
        self.global_max = hi if self.global_max is None else max(self.global_max, hi)


def round_significant(x: float, digits: int) -> float:
    """Round to a number of significant digits with Python's correctly
    rounded float round, subnormals included. A value that rounds past the
    largest float raises ValueError."""
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return x
    try:
        return round(x, digits - 1 - math.floor(math.log10(abs(x))))
    except OverflowError:
        raise ValueError(
            f"{x!r} rounded to {digits} significant digits exceeds the "
            "float range"
        ) from None


def _midranks(values: np.ndarray) -> np.ndarray:
    """Spearman mid-ranks (1-based, ties averaged)."""
    _, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def transform_scores(
    fs,
    state: NormalizationState | None = None,
    digits: int | None = None,
    use_ranks: bool = False,
) -> np.ndarray:
    """Run the score pipeline: the transformed scores as a float64 array.

    Order: normalization against the running references, rounding to
    significant digits, then tie-aware integer ranks (doubled mid-ranks
    shifted to start at 1). Every step preserves the score ordering. First
    +-inf (an exact fit's mt score) is clipped to the largest or smallest
    finite score, or all scores are 0.0 if none is finite; NaN is refused.
    """
    values = np.array(fs, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        if np.isnan(values).any():
            raise ValueError("scores must not be NaN")
        ends = values[finite] if finite.any() else np.zeros(1)
        values = np.nan_to_num(values, posinf=ends.max(), neginf=ends.min())

    if state is not None:
        state.update(float(values.min()), float(values.max()))
        span = state.global_max - state.global_min
        if span == 0.0:
            logger.warning("degenerate normalization: all scores map to n0")
            values = np.full_like(values, state.n0)
        else:
            width, shifted = state.n1 - state.n0, values - state.global_min
            scale = width / span
            if math.isinf(scale):   # a subnormal span: divide by it first
                values = state.n0 + shifted / span * width
            else:
                values = state.n0 + shifted * scale
            if np.isnan(values).any():
                # a span that overflows to inf scales inf by 0; checked
                # before the ranks, which would rank the NaN
                raise ValueError("score transform produced NaN")
    if digits is not None:
        values = np.array([round_significant(v, digits) for v in values])
    if use_ranks:
        values = 2.0 * _midranks(values) - 1.0
    return values


def survival_scores(topology: GeneticTopology, alleles: np.ndarray, fs,
                    q: float, r: float) -> np.ndarray:
    """Similarity of each individual to the rest of the sample, from the
    (p, genes) allele indices of the individuals' genotypes in `topology`.

    Pair similarity is 2 / (|f_i - f_j|^q + (ncd/nc)^r), capped when both
    distance terms vanish (duplicate genotypes with equal scores); an
    individual's score is the worst case (minimum) over its pairings. High
    values mark redundant individuals, the preferred removal targets.
    """
    values = np.asarray(fs, dtype=float)
    p, nc = alleles.shape
    offsets = topology.allele_offsets
    # one-hot allele rows: their products count shared genes, exactly
    onehot = np.zeros((p, offsets[-1]))
    onehot[np.arange(p)[:, None], offsets[:-1] + alleles] = 1.0
    ncd = nc - onehot @ onehot.T
    denom = (np.abs(values[:, None] - values[None, :]) ** q
             + (ncd / nc) ** r)
    # 2/0 = inf gives the cap, also on the diagonal, where it never lowers
    # a row's minimum: no pair scores above the cap
    with np.errstate(divide="ignore"):
        similarity = np.minimum(SIMILARITY_CAP, 2.0 / denom)
    return similarity.min(axis=1)
