"""Extraction strategies over a grouped score table.

The same three methods serve selection (drawing parents by fitness) and
survival (drawing removal victims by similarity); only the table's scores and
direction differ. All draws come from the caller's random.Random, so a fixed
seed reproduces extractions exactly.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .scores import ScoreTable

__all__ = [
    "StrategySpec",
    "METHODS",
    "extract",
    "extract_proportional",
    "extract_deterministic",
    "extract_tournament",
]

logger = logging.getLogger(__name__)

METHODS = ("proportional", "deterministic", "tournament")


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


def extract(
    method: str, table: ScoreTable, n_sel: int, rng: random.Random
) -> list[int]:
    if method == "proportional":
        return extract_proportional(table, n_sel, rng)
    if method == "deterministic":
        return extract_deterministic(table, n_sel, rng)
    if method == "tournament":
        return extract_tournament(table, n_sel, rng)
    raise ValueError(f"unknown strategy method {method!r}")


def _check_n_sel(table: ScoreTable, n_sel: int) -> None:
    if not 1 <= n_sel <= table.size:
        raise ValueError(f"cannot extract {n_sel} of {table.size}")


def _group_masses(table: ScoreTable) -> list[float]:
    """Direction-adjusted nonnegative mass per distinct-score group.

    Minimization flips scores with the order-reversing affine map
    f -> (max + min - f); negative masses are shifted up to zero.
    """
    values = [float(v) for v in table.distinct]
    if table.direction == "min":
        hi, lo = values[-1], values[0]
        values = [hi + lo - v for v in values]
    low = min(values)
    if low < 0.0:
        logger.warning("negative scores shifted by %g for proportional draw", -low)
        values = [v - low for v in values]
    return values


def extract_proportional(
    table: ScoreTable, n_sel: int, rng: random.Random
) -> list[int]:
    """Fitness-proportional draw without replacement via the group walk.

    Each draw picks a uniform point in the remaining mass, walks the
    distinct-score groups to the first one whose cumulative value*count
    reaches it, then takes a uniformly random unselected member of that
    group. Zero total mass falls back to uniform draws.
    """
    _check_n_sel(table, n_sel)
    masses = _group_masses(table)
    remaining = [list(g) for g in table.groups]
    counts = [len(g) for g in remaining]
    selected: list[int] = []
    for _ in range(n_sel):
        total = sum(m * c for m, c in zip(masses, counts))
        if total <= 0.0:
            pool = [i for group in remaining for i in group]
            logger.warning("zero selection mass; drawing uniformly")
            while len(selected) < n_sel:
                pick = pool.pop(rng.randrange(len(pool)))
                selected.append(pick)
            break
        freq = rng.random() * total
        acc = 0.0
        group = len(masses) - 1
        for gi, (m, c) in enumerate(zip(masses, counts)):
            acc += m * c
            if freq <= acc and c > 0:
                group = gi
                break
        while counts[group] == 0:  # guard: walk past exhausted groups
            group = (group + 1) % len(counts)
        members = remaining[group]
        pick = members.pop(rng.randrange(len(members)))
        counts[group] -= 1
        selected.append(pick)
    return selected


def extract_deterministic(
    table: ScoreTable, n_sel: int, rng: random.Random
) -> list[int]:
    """Take whole best-score groups while they fit; fill the remainder with
    uniformly random members of the boundary group."""
    _check_n_sel(table, n_sel)
    order = range(len(table.groups) - 1, -1, -1) if table.direction == "max" \
        else range(len(table.groups))
    selected: list[int] = []
    for gi in order:
        members = table.groups[gi]
        need = n_sel - len(selected)
        if need == 0:
            break
        if len(members) <= need:
            selected.extend(members)
        else:
            selected.extend(rng.sample(members, need))
    return selected


def extract_tournament(
    table: ScoreTable, n_sel: int, rng: random.Random
) -> list[int]:
    """Tournament on a random permutation.

    Adjacent comparisons over the first n_sel positions push better scores
    toward the prefix boundary (exact ties flip a fair coin); one random
    challenger from the remainder then plays the boundary position. The
    first n_sel positions are returned.
    """
    _check_n_sel(table, n_sel)
    fs = table.fs
    size = table.size
    perm = list(range(size))
    rng.shuffle(perm)

    if table.direction == "max":
        beats = lambda a, b: fs[a] > fs[b]  # noqa: E731
    else:
        beats = lambda a, b: fs[a] < fs[b]  # noqa: E731

    for i in range(1, n_sel):
        if not beats(perm[i], perm[i - 1]):
            if fs[perm[i]] == fs[perm[i - 1]] and rng.random() < 0.5:
                continue
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    if n_sel < size:
        j = rng.randrange(n_sel, size)
        boundary = n_sel - 1
        if not beats(perm[boundary], perm[j]):
            if fs[perm[boundary]] == fs[perm[j]] and rng.random() < 0.5:
                pass  # tournament completed
            else:
                perm[boundary], perm[j] = perm[j], perm[boundary]
    return perm[:n_sel]
