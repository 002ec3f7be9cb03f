"""Extraction strategies over transformed scores.

The same three methods serve selection (drawing parents by fitness) and
survival (drawing removal victims by similarity); only the scores and their
direction differ. All draws come from the caller's random.Random, so a fixed
seed reproduces extractions exactly.
"""

from __future__ import annotations

import logging
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "StrategySpec",
    "METHODS",
    "extract",
    "extract_proportional",
    "extract_deterministic",
    "extract_tournament",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StrategySpec:
    """Extraction method plus the score-pipeline switches that feed it."""

    method: str
    use_ranks: bool = False
    normalization: tuple[float, float] | None = None
    significant_digits: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown strategy method {self.method!r}")
        if self.normalization is not None:
            n0, n1 = self.normalization
            if not -math.inf < n0 < n1 < math.inf:
                raise ValueError("normalization bounds must be finite, ordered")
        if self.significant_digits is not None and self.significant_digits < 1:
            raise ValueError("significant_digits must be positive")


def _groups(fs: np.ndarray) -> tuple[list[float], list[list[int]]]:
    """The distinct values of `fs`, ascending, and the indices holding each,
    from one stable sort: indices ascending within a group."""
    order = np.argsort(fs, kind="stable")
    ordered = fs[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1])))
    bounds = starts.tolist() + [fs.size]
    members = order.tolist()
    groups = [members[a:b] for a, b in zip(bounds, bounds[1:])]
    return ordered[starts].tolist(), groups


def _group_masses(values: list[float], direction: str) -> list[float]:
    """Direction-adjusted nonnegative mass per distinct score `values`.

    Minimization flips scores with the order-reversing affine map
    f -> (max + min - f); negative masses are shifted up to zero.
    """
    if direction == "min":
        hi, lo = values[-1], values[0]
        values = [hi + lo - v for v in values]
    low = min(values)
    if low < 0.0:
        logger.warning("negative scores shifted by %g for proportional draw", -low)
        values = [v - low for v in values]
    return values


def extract_proportional(
    fs: np.ndarray, direction: str, n_sel: int, rng: random.Random
) -> list[int]:
    """Fitness-proportional draw without replacement via the group walk.

    Each draw picks a uniform point in the remaining mass, walks the
    distinct-score groups to the first one whose cumulative value*count
    reaches it, then takes a uniformly random unselected member of that
    group. Zero total mass falls back to uniform draws.
    """
    distinct, remaining = _groups(fs)
    masses = _group_masses(distinct, direction)
    terms = list(map(operator.mul, masses, map(len, remaining)))
    # reached[g + 1]: terms 0..g summed left to right after -0.0 (x + -0.0
    # is x); a draw changes one term, so the sums are redone from it on
    reached, group = [-0.0], 0
    selected: list[int] = []
    for _ in range(n_sel):
        reached[group:] = accumulate(terms[group:], initial=reached[group])
        total = reached[-1]
        if total <= 0.0:
            pool = [i for g in remaining for i in g]
            logger.warning("zero selection mass; drawing uniformly")
            while len(selected) < n_sel:
                selected.append(pool.pop(rng.randrange(len(pool))))
            break
        freq = rng.random() * total
        group = bisect_left(reached, freq, 1) - 1
        if group == len(masses) or not freq <= reached[group + 1]:
            group = len(masses) - 1  # none reaches it, as a NaN point
        while not remaining[group]:  # walk past exhausted groups
            group = (group + 1) % len(remaining)
        members = remaining[group]
        selected.append(members.pop(rng.randrange(len(members))))
        terms[group] = masses[group] * len(members)
    return selected


def extract_deterministic(
    fs: np.ndarray, direction: str, n_sel: int, rng: random.Random
) -> list[int]:
    """Take whole best-score groups while they fit; fill the remainder with
    uniformly random members of the boundary group."""
    groups = _groups(fs)[1]
    selected: list[int] = []
    for members in reversed(groups) if direction == "max" else groups:
        need = n_sel - len(selected)
        if need == 0:
            break
        if len(members) <= need:
            selected.extend(members)
        else:
            selected.extend(rng.sample(members, need))
    return selected


def extract_tournament(
    fs: np.ndarray, direction: str, n_sel: int, rng: random.Random
) -> list[int]:
    """Tournament on a random permutation.

    Adjacent comparisons over the first n_sel positions push better scores
    toward the prefix boundary; one random challenger from the remainder
    then plays the boundary position. Both passes play one `match` rule.
    The first n_sel positions are returned.
    """
    wins = operator.gt if direction == "max" else operator.lt
    fs = fs.tolist()
    size = len(fs)
    perm = list(range(size))
    rng.shuffle(perm)

    def match(i: int, j: int) -> None:
        """Position i keeps the better of positions i and j; on an exact
        tie it stays put when a coin, drawn only then, falls below 0.5."""
        a, b = fs[perm[i]], fs[perm[j]]
        if not (wins(a, b) or a == b and rng.random() < 0.5):
            perm[i], perm[j] = perm[j], perm[i]

    for i in range(1, n_sel):
        match(i, i - 1)
    if n_sel < size:
        match(n_sel - 1, rng.randrange(n_sel, size))
    return perm[:n_sel]


_EXTRACTORS = {"proportional": extract_proportional,
               "deterministic": extract_deterministic,
               "tournament": extract_tournament}
METHODS = tuple(_EXTRACTORS)


def extract(
    method: str, fs: np.ndarray, direction: str, n_sel: int,
    rng: random.Random
) -> list[int]:
    """`n_sel` distinct indices of the float64 scores `fs`, whose sense is
    `direction`, 1 <= n_sel <= their count, drawn by the method named
    `method`, one of METHODS."""
    return _EXTRACTORS[method](fs, direction, n_sel, rng)
