"""Objective, selection, and survival scores, plus the score-table pipeline.

Selection strategies consume a ScoreTable: the per-individual scores after
the optional normalize / round / rank transforms, grouped by distinct value.
Survival similarity scores combine score distance and genotype distance and
flow through the same pipeline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .genome import Genotype, TopologyMismatchError
from .regress import RegressionModel

__all__ = [
    "ObjectiveSpec",
    "ScoreTable",
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
               slope_t: np.ndarray) -> list[float]:
        """The objective of many fits, one entry of `r2` and `se_s` and one
        row of slope t statistics in `slope_t` each. Python floats keep
        ``**`` the C library's pow (numpy's array power differs from it in
        the last bit at some inputs), and mt sums its terms left to right."""
        s = self.s
        if self.kind == "se":
            return se_s.tolist()
        if self.kind == "r2":
            return [r**s for r in r2.tolist()]
        if self.kind == "mt":
            return [(reduce(add, [abs(t) ** s for t in ts], 0.0) / len(ts))
                    ** (1.0 / s) for ts in slope_t.tolist()]
        # hr: entropy of the (r2, 1-r2) split, in bits
        return [math.log2(r**s + (1.0 - r) ** s) / (1.0 - s)
                for r in r2.tolist()]


def objective_score(model: RegressionModel, spec: ObjectiveSpec) -> float:
    """Evaluate one fitted model under the chosen objective."""
    if spec.kind == "se" and model.s != spec.s:
        raise ValueError(f"model fitted with exponent {model.s}, "
                         f"objective needs {spec.s}")
    if spec.kind == "mt" and not model.slope_t_stats:
        raise ValueError("mt objective needs slope t statistics")
    return spec.values(np.array([model.r2]), np.array([model.se_s]),
                       np.array([model.slope_t_stats]))[0]


def selection_direction(aggregate: str, objective: ObjectiveSpec) -> str:
    """Direction of the per-genotype selection score."""
    if aggregate not in SELECTION_AGGREGATES:
        raise ValueError(f"unknown selection aggregate {aggregate!r}")
    return "max" if aggregate == "nalive" else objective.direction


def selection_scores(
    n_genotypes: int,
    members: np.ndarray,
    values,
    aggregate: str,
    direction: str,
) -> np.ndarray:
    """Per-genotype score over the valid regressions that contain it.

    Row v of the (V, n) ``members`` array holds the sample indices of valid
    model v, and ``values[v]`` its objective score, whose sense is
    ``direction``. Genotypes contained in no valid model get the worst score
    for the aggregate's direction, so selection disfavors them and survival
    removal favors them.
    """
    if aggregate not in SELECTION_AGGREGATES:
        raise ValueError(f"unknown selection aggregate {aggregate!r}")
    members = np.asarray(members, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        logger.warning("no valid regressions; all selection scores worst-valued")
    flat = members.ravel()
    counts = np.bincount(flat, minlength=n_genotypes)
    if aggregate == "nalive":
        return counts.astype(float)
    per_member = np.repeat(values, members.shape[-1])
    if aggregate == "avg":
        sums = np.bincount(flat, weights=per_member, minlength=n_genotypes)
        out = np.divide(sums, counts, out=np.zeros(n_genotypes),
                        where=counts > 0)
    else:
        out = np.full(n_genotypes, np.inf if aggregate == "min" else -np.inf)
        ufunc = np.minimum if aggregate == "min" else np.maximum
        ufunc.at(out, flat, per_member)
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

    def __post_init__(self):
        if not self.n0 < self.n1:
            raise ValueError("need n0 < n1")

    def update(self, lo: float, hi: float) -> None:
        self.global_min = lo if self.global_min is None else min(self.global_min, lo)
        self.global_max = hi if self.global_max is None else max(self.global_max, hi)


@dataclass(frozen=True)
class ScoreTable:
    """Scores aligned with sample indices, grouped by distinct value."""

    fs: np.ndarray
    distinct: np.ndarray              # ascending
    direction: str
    groups: tuple[tuple[int, ...], ...]  # sample indices per distinct value

    @property
    def size(self) -> int:
        return int(self.fs.size)


def round_significant(x: float, digits: int) -> float:
    """Round to a number of significant digits with Python's correctly
    rounded float round, subnormals included. A value that rounds past the
    largest float raises ValueError."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
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
    direction: str = "max",
) -> ScoreTable:
    """Run the score pipeline and group the result.

    Order: normalization against the running references, rounding to
    significant digits, tie-aware integer ranks (doubled mid-ranks shifted to
    start at 1), then grouping the sample indices by distinct value. Every
    step preserves the score ordering.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    values = np.array(fs, dtype=float)
    if values.size == 0:
        raise ValueError("empty score vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")

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
    if digits is not None:
        values = np.array([round_significant(v, digits) for v in values])
    if use_ranks:
        values = 2.0 * _midranks(values) - 1.0
    if np.isnan(values).any():
        # a normalization span that overflows to inf scales inf by 0
        raise ValueError("score transform produced NaN")

    # one stable sort groups equal scores, indices ascending within a group
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1])))
    bounds = starts.tolist() + [values.size]
    members = order.tolist()
    groups = tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))
    return ScoreTable(values, ordered[starts], direction, groups)


def survival_scores(
    genotypes: Sequence[Genotype],
    fs,
    q: float,
    r: float,
) -> np.ndarray:
    """Similarity of each individual to the rest of the sample.

    Pair similarity is 2 / (|f_i - f_j|^q + (ncd/nc)^r), capped when both
    distance terms vanish (duplicate genotypes with equal scores); an
    individual's score is the worst case (minimum) over its pairings. High
    values mark redundant individuals, the preferred removal targets.
    """
    if q <= 0 or r <= 0:
        raise ValueError("survival exponents must be positive")
    values = np.asarray(fs, dtype=float)
    p = len(genotypes)
    if p < 2:
        raise ValueError("survival scores need a sample of at least 2")
    if values.shape != (p,):
        raise ValueError("one score per genotype required")
    topology = genotypes[0].topology
    if any(g.topology is not topology and g.topology != topology
           for g in genotypes):
        raise TopologyMismatchError("genotypes come from different topologies")
    alleles = np.array([g.allele_index for g in genotypes], dtype=np.intp)
    ncd = (alleles[:, None, :] != alleles[None, :, :]).sum(axis=2)
    denom = (np.abs(values[:, None] - values[None, :]) ** q
             + (ncd / topology.gene_count) ** r)
    # 2/0 = inf gives the cap, also on the diagonal, where it never lowers
    # a row's minimum: no pair scores above the cap
    with np.errstate(divide="ignore"):
        similarity = np.minimum(SIMILARITY_CAP, 2.0 / denom)
    return similarity.min(axis=1)
