"""The selection x survival strategy grid, genotype bookkeeping over
improving generations (two counters per cell, from which every measure is
computed), and the homogeneity analysis across strategy pairs.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import product

from . import stats
from .descriptors import Dataset, DescriptorDataError, Provider
from .engine import EvolutionConfig, RunResult, run
from .genome import GeneticTopology
from .stats import ChiSquareReport, ContingencyTable, chi2_homogeneity

__all__ = [
    "STRATEGY_LABELS",
    "MEASURES",
    "CellStats",
    "GridAggregate",
    "run_grid",
    "accumulate_run",
    "homogeneity_analysis",
    "render_grid_report",
]

logger = logging.getLogger(__name__)

# row/column order of the strategy pairs in all reports
STRATEGY_LABELS = ("P", "T", "D")
# the (selection, survival) cells, row by row: the order runs are seeded,
# tables are read and reports are printed in
_CELLS = tuple(product(STRATEGY_LABELS, repeat=2))
_LABEL_TO_METHOD = {
    "P": "proportional",
    "T": "tournament",
    "D": "deterministic",
}

# the homogeneity measures, in report order, and their report titles
MEASURES = {
    "num": "distinct genotypes in improving generations",
    "occ": "genotype occurrences in improving generations",
    "par": "occurrences in at least one valid regression",
    "top_num": "distinct genotypes above the occurrence threshold",
    "top_occ": "occurrences of genotypes above the threshold",
    "top_par": "participations of genotypes above the threshold",
}


@dataclass
class CellStats:
    """Genotype counts over improving generations, accumulated across runs."""

    runs: int = 0
    occurrences: Counter = field(default_factory=Counter)
    participations: Counter = field(default_factory=Counter)
    error: str | None = None

    def measure(self, name: str, threshold: int) -> int:
        """One of the MEASURES: the distinct genotypes (num), their
        occurrences (occ) or their participations (par); a top_ measure
        counts only the genotypes with at least `threshold` occurrences."""
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}")
        floor = threshold if name.startswith("top_") else 0
        keys = [g for g, c in self.occurrences.items() if c >= floor]
        if name.endswith("num"):
            return len(keys)
        counts = (self.occurrences if name.endswith("occ")
                  else self.participations)
        return sum(counts[g] for g in keys)


@dataclass
class GridAggregate:
    """Per-strategy-pair statistics; keys are (selection, survival) labels."""

    cells: dict[tuple[str, str], CellStats]
    threshold: int = 23
    runs_per_cell: int = 0
    master_seed: int = 0

    def contingency(self, measure: str) -> ContingencyTable:
        counts = []
        for sel, sur in _CELLS:
            cell = self.cells[(sel, sur)]
            if cell.error is not None:
                raise ValueError(f"cell {sel}:{sur} failed: {cell.error}")
            value = cell.measure(measure, self.threshold)
            if value == 0:
                raise ValueError(f"cell {sel}:{sur} has zero {measure}; "
                                 "every cell must be positive")
            counts.append(value)
        side = len(STRATEGY_LABELS)
        rows = [counts[i:i + side] for i in range(0, len(counts), side)]
        return ContingencyTable(rows, STRATEGY_LABELS, STRATEGY_LABELS)


def accumulate_run(cell: CellStats, result: RunResult) -> None:
    """Fold one run's improving-generation records into a cell.

    A genotype counts once per improving generation it sits in the sample of
    (occurrences), and once per such generation it is in a valid regression
    of (participations), so participations never exceed occurrences.
    """
    cell.runs += 1
    for rec in result.records:
        if not rec.improved:
            continue
        for slot, g in enumerate(rec.sample_genotypes):
            cell.occurrences[g] += 1
            cell.participations[g] += rec.participations[slot] > 0


def run_grid(
    base_cfg: EvolutionConfig,
    topology: GeneticTopology,
    provider: Provider,
    ds: Dataset,
    runs_per_cell: int,
    master_seed: int,
    threshold: int = 23,
) -> GridAggregate:
    """Run every selection x survival pair `runs_per_cell` times.

    Seeds derive deterministically from the master seed and the global run
    index, so the aggregate does not depend on execution order. A failing
    run aborts its cell (the error is recorded) without touching other cells,
    except a `DescriptorDataError`, such as a table row first provided with
    a non-numeric cell, which is raised.
    Every run shares ``provider``: a phenotype depends only on its genotype,
    so a provider's cache cannot change any run.
    """
    if runs_per_cell < 1:
        raise ValueError("runs_per_cell must be at least 1")
    cells: dict[tuple[str, str], CellStats] = {}
    for cell_index, (sel, sur) in enumerate(_CELLS):
        cell = cells[(sel, sur)] = CellStats()
        for run_i in range(runs_per_cell):
            seed = master_seed + cell_index * runs_per_cell + run_i
            cfg = replace(
                base_cfg,
                selection=replace(
                    base_cfg.selection, method=_LABEL_TO_METHOD[sel]
                ),
                survival=replace(
                    base_cfg.survival, method=_LABEL_TO_METHOD[sur]
                ),
                seed=seed,
            )
            try:
                result = run(cfg, topology, provider, ds)
            except DescriptorDataError:
                raise   # the data, not the cell, is at fault
            except Exception as exc:  # cell-local failure
                cell.error = f"run seed={seed}: {exc}"
                logger.error("cell %s:%s aborted: %s", sel, sur, cell.error)
                break
            accumulate_run(cell, result)
    return GridAggregate(cells, threshold, runs_per_cell, master_seed)


def homogeneity_analysis(
    agg: GridAggregate,
    measure: str,
    alpha: float = 0.05,
) -> ChiSquareReport:
    """Chi-square homogeneity of one grid measure (rows = selection,
    columns = survival)."""
    return chi2_homogeneity(agg.contingency(measure), alpha)


def render_grid_report(agg: GridAggregate, alpha: float = 0.05) -> str:
    """Human-readable per-cell counts plus the homogeneity verdicts."""
    lines = [
        f"strategy grid: {agg.runs_per_cell} runs per cell, "
        f"master seed {agg.master_seed}, "
        f"occurrence threshold {agg.threshold}",
        "",
        "cell     runs  num     occ     par     "
        f"T{agg.threshold}num  T{agg.threshold}occ  T{agg.threshold}par",
    ]
    for sel, sur in _CELLS:
        cell = agg.cells[(sel, sur)]
        if cell.error is not None:
            lines.append(f"{sel}:{sur}      FAILED: {cell.error}")
            continue
        counts = " ".join(f"{cell.measure(m, agg.threshold):<7d}"
                          for m in MEASURES)
        lines.append(f"{sel}:{sur}      {cell.runs:<5d} {counts}".rstrip())
    for measure, title in MEASURES.items():
        lines.append("")
        lines.append(f"== homogeneity of {title} ==")
        try:
            report = homogeneity_analysis(agg, measure, alpha)
        except ValueError as exc:
            lines.append(f"not testable: {exc}")
            continue
        lines.append(stats.format_report(report).rstrip("\n"))
    return "\n".join(lines) + "\n"
