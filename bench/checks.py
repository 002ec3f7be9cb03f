"""Output checks: every command's outputs are checked against slow oracles.

Each function returns a list of problems (empty when the outputs are right);
the worker counts a run with any problem as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from evoreg import descriptors as dsc
from evoreg import experiment, stats
from evoreg.genome import load_topology
from evoreg.regress import ols_fit

# the program's fitter and ols_fit sum the cross products in different
# orders; agreement is judged as in acceptance criterion 4 and
# tests/test_regress.py (relative 1e-8)
COEF_RTOL = 1e-8
COEF_ATOL = 1e-10
R2_RTOL = 1e-8


class Oracle:
    """Independent source of phenotypes for refitting best models: the
    generated descriptor table read row by row, or a synthetic provider
    rebuilt from the generator parameters."""

    def __init__(self, topology_path, activity_path, table_path=None):
        self.topology = load_topology(topology_path)
        self.dataset = dsc.load_activity(activity_path)
        self.table_path = table_path
        self._rows: dict[str, np.ndarray] = {}
        self._providers: dict[tuple, dsc.SyntheticProvider] = {}

    def _table_rows(self, keys):
        missing = set(keys) - self._rows.keys()
        if missing:
            with open(self.table_path, newline="", encoding="utf-8") as fh:
                for row in csv.reader(fh):
                    if row and row[0] in missing:
                        self._rows[row[0]] = np.array([float(v) for v in row[1:]])
        return [self._rows[key] for key in keys]

    def _synthetic(self, spec: dict) -> dsc.SyntheticProvider:
        key = tuple(sorted(spec.items()))
        if key not in self._providers:
            signal = dsc.PlantedSignal(noise_sd=spec["planted_noise"])
            planted = dsc.pick_planted_genotypes(
                self.topology, spec["planted_count"], spec["planted_seed"]
            )
            self._providers[key] = dsc.SyntheticProvider(
                self.topology, self.dataset, spec["seed"],
                planted={k: signal for k in planted},
            )
        return self._providers[key]

    def phenotypes(self, keys, synthetic: dict | None):
        genotypes = [self.topology.parse(k) for k in keys]
        if synthetic is None:
            values = self._table_rows(keys)
            return [dsc.Phenotype(v, g) for v, g in zip(values, genotypes)]
        provider = self._synthetic(synthetic)
        return [provider.provide(g) for g in genotypes]


def refit_problems(oracle: Oracle, synthetic, genotypes, coefficients,
                   with_intercept, r2) -> list[str]:
    """Refit a reported best model with the ols_fit oracle."""
    if not genotypes:
        return ["no best model"]
    members = oracle.phenotypes(list(genotypes), synthetic)
    model = ols_fit(members, oracle.dataset, with_intercept)
    problems = []
    if not np.allclose(model.coefficients, coefficients,
                       rtol=COEF_RTOL, atol=COEF_ATOL):
        problems.append(f"coefficients {list(coefficients)} != ols_fit "
                        f"{list(model.coefficients)}")
    if abs(model.r2 - r2) > R2_RTOL * max(abs(r2), 1e-12):
        problems.append(f"r2 {r2!r} != ols_fit {model.r2!r}")
    return problems


def trace_problems(samples, best_values, p: int, generations: int) -> list[str]:
    """Criterion 7 on one run: constant sample size, monotone best trace."""
    problems = []
    if len(samples) != generations:
        problems.append(f"{len(samples)} generations, expected {generations}")
    if any(len(s) != p for s in samples):
        problems.append("sample size changed")
    values = [v for v in best_values if not math.isnan(v)]
    if not all(a <= b + 1e-12 for a, b in zip(values, values[1:])):
        problems.append("best trace not monotone")
    return problems


def parse_run_log(text: str):
    """(sample per generation, best objective per generation, valid counts)."""
    samples, best, valid = [], [], []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        best.append(float(fields[2]))
        tagged = dict(f.split("=", 1) for f in fields[3:])
        valid.append(int(tagged["valid"]))
        samples.append(tagged["sample"].split(","))
    return samples, best, valid


def run_problems(out: Path, spec: dict, inv: dict, oracle: Oracle) -> list[str]:
    """Check the run_log.tsv and summary.json of one `evoreg run`."""
    samples, best, _ = parse_run_log((out / "run_log.tsv").read_text())
    problems = trace_problems(samples, best, spec["p"], spec["generations"])
    summary = json.loads((out / "summary.json").read_text())
    problems += refit_problems(
        oracle, inv.get("synthetic"), summary["best_genotypes"],
        summary["best_coefficients"], summary["best_with_intercept"],
        summary["best_r2"],
    )
    if summary["best_objective"] != summary["best_r2"]:
        problems.append("r2 objective differs from best_r2")
    return problems


def result_problems(result, spec: dict, inv: dict, oracle: Oracle) -> list[str]:
    """Check one in-memory RunResult (a run inside a grid)."""
    problems = trace_problems(
        [r.sample_genotypes for r in result.records],
        [r.best_objective for r in result.records],
        spec["p"], spec["generations"],
    )
    model = result.best_model
    if model is None:
        return problems + ["no best model"]
    return problems + refit_problems(
        oracle, inv.get("synthetic"), result.best_genotypes,
        model.coefficients, model.with_intercept, model.r2,
    )


def grid_problems(out: Path, agg) -> list[str]:
    """Every written grid_*.csv parses, matches the aggregate, and reproduces
    its report's total X^2; measures without a CSV are reported untestable."""
    report = (out / "grid_report.txt").read_text()
    sections = report.split("\n== homogeneity of ")[1:]
    if len(sections) != len(experiment.MEASURES):
        return [f"report has {len(sections)} homogeneity sections"]
    problems = []
    for measure, section in zip(experiment.MEASURES, sections):
        path = out / f"grid_{measure}.csv"
        if not path.exists():
            if "not testable" not in section:
                problems.append(f"{measure}: report tested, CSV missing")
            continue
        table = stats.load_contingency_csv(path)
        if not np.array_equal(table.observed, agg.contingency(measure).observed):
            problems.append(f"{path.name}: counts differ from the grid")
        total = stats.chi2_homogeneity(table).total
        if f"X^2(.,.) = {total:.4g} " not in section:
            problems.append(f"{path.name}: X^2 {total:.4g} not in its report")
    return problems


def digest(out: Path) -> str:
    """Hash of every output file; a repeated command must reproduce it."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
