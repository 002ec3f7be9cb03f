"""Golden run logs and a golden grid report: fixed-seed outputs that must
not drift.

Each case is one evolution run, whose `log_text()` must match its file
under `tests/golden/` byte for byte; each report (`REPORTS`) is the text of
a small strategy grid's `grid_report.txt` and must match its file the same
way. The tests and `--check` compare through one helper, `_lines_differing`.
A change to a golden file needs a CHANGES.md entry that says why. To write
the files that are missing:

    PYTHONPATH=src python -m tests.test_golden

Existing files are never overwritten, so adding a case cannot silently
rewrite another; to regenerate a file, delete it first. To compare every
case and report with its file:

    PYTHONPATH=src python -m tests.test_golden --check

which prints, per case, "identical" or the number of lines that differ (a
missing file differs on all of them) and exits 1 on any difference.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from evoreg import cli, engine
from evoreg import descriptors as dsc
from evoreg.engine import run
from evoreg.experiment import render_grid_report, run_grid
from evoreg.regress import GramFitter
from evoreg.scores import ObjectiveSpec
from evoreg.strategy import StrategySpec
from tests.conftest import (
    binary_topology,
    candidate_bits,
    normal_dataset,
    planted_config,
    planted_provider,
)

GOLDEN = Path(__file__).parent / "golden"


def _planted_n2():
    topology = binary_topology(10)
    dataset = normal_dataset()
    cfg = planted_config(seed=0, max_generations=40)
    return run(cfg, topology, planted_provider(topology, dataset), dataset)


def _table_p30_n3():
    """p=30, n=3 on a descriptor table written by `evoreg gen-data`."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "topology.cgt").write_text(
            "".join(f"gene g{i} : a b\n" for i in range(9))
        )
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([
                "gen-data", "--seed", "21",
                "--activity-out", str(d / "activity.csv"),
                "--descriptors-out", str(d / "descriptors.csv"),
                "--topology", str(d / "topology.cgt"),
                "--table-seed", "22", "--planted-count", "32",
                "--planted-noise", "0.23", "--planted-seed", "23",
            ])
        assert rc == 0
        topology = cli.load_topology(d / "topology.cgt")
        dataset = dsc.load_activity(d / "activity.csv")
        provider = dsc.load_descriptor_table(
            d / "descriptors.csv", topology, dataset
        )
    cfg = planted_config(seed=5, p=30, n=3, max_generations=15)
    return run(cfg, topology, provider, dataset)


def _both_se_s15():
    """Both intercept forms, error-sum objective at s = 1.5 (s != 2)."""
    topology = binary_topology(10)
    dataset = normal_dataset()
    cfg = planted_config(
        seed=3, max_generations=25, intercept_mode="both",
        objective=ObjectiveSpec("se", 1.5),
    )
    return run(cfg, topology, planted_provider(topology, dataset), dataset)


def _centred(seed, alpha, **overrides):
    """A planted run on activity centred at zero: the no-intercept form
    rarely rescues a slope there, so some genotypes sit in no valid
    regression and get the worst selection score."""
    topology = binary_topology(10)
    dataset = normal_dataset(mean=0.0)
    cfg = planted_config(seed=seed, max_generations=15, alpha=alpha,
                         **overrides)
    return run(cfg, topology, planted_provider(topology, dataset), dataset)


def _nalive_ranks_q2():
    """Membership counts, ranked proportional selection, deterministic
    survival, survival exponents q = 2 and r = 0.5."""
    return _centred(
        1, 0.25, selection_aggregate="nalive",
        selection=StrategySpec("proportional", use_ranks=True),
        survival=StrategySpec("deterministic"), q=2.0, r=0.5,
    )


def _avg_normalized_digits():
    """Mean objective per genotype, normalized and rounded scores on both
    sides, survival exponents q = 0.5 and r = 2."""
    return _centred(
        3, 0.05, selection_aggregate="avg",
        selection=StrategySpec("tournament", normalization=(0.0, 1.0),
                               significant_digits=3),
        survival=StrategySpec("proportional", normalization=(1.0, 2.0),
                              significant_digits=2),
        q=0.5, r=2.0,
    )


def _min_se_both_ranks():
    """Worst error sum per genotype (a minimized score), both intercept
    forms, deterministic selection, ranked tournament survival."""
    return _centred(
        4, 0.05, selection_aggregate="min", intercept_mode="both",
        objective=ObjectiveSpec("se", 2.0),
        selection=StrategySpec("deterministic"),
        survival=StrategySpec("tournament", use_ranks=True),
    )


def _mt_s15_n3():
    """Power mean of slope |t| at s = 1.5 over three-descriptor models on
    centred activity: the slope terms are summed in order, so a reordered
    or array-power objective moves the logged values."""
    return _centred(6, 0.05, n=3, objective=ObjectiveSpec("mt", 1.5))


def _both_hr_s2():
    """Entropy of determination at s = 2 (a minimized objective) with both
    intercept forms."""
    topology = binary_topology(10)
    dataset = normal_dataset()
    cfg = planted_config(
        seed=7, max_generations=25, intercept_mode="both",
        objective=ObjectiveSpec("hr", 2.0),
    )
    return run(cfg, topology, planted_provider(topology, dataset), dataset)


def _screened_24():
    """24 genes (16.7M genotypes), one descriptor per model, with every
    viability screen on: the cv floor, the Jarque-Bera gate and the simple
    r2 floor each reject some children and some initial candidates."""
    topology = binary_topology(24)
    dataset = normal_dataset()
    cfg = planted_config(
        seed=9, p=24, n=1, k=12, max_generations=30,
        viability=dsc.ViabilityPolicy(min_cv=0.56, jb_alpha=0.001,
                                      min_simple_r2=0.0005),
    )
    return run(cfg, topology, planted_provider(topology, dataset), dataset)


CASES = {
    "planted_n2_seed0": _planted_n2,
    "table_p30_n3": _table_p30_n3,
    "both_se_s1.5": _both_se_s15,
    "nalive_ranks_q2": _nalive_ranks_q2,
    "avg_normalized_digits": _avg_normalized_digits,
    "min_se_both_ranks": _min_se_both_ranks,
    "screened_24": _screened_24,
    "mt_s1.5_n3": _mt_s15_n3,
    "both_hr_s2": _both_hr_s2,
}


def _grid_report():
    """The 3x3 strategy grid on the planted world, 2 runs per cell of 15
    generations, occurrence threshold 3: the per-cell counts of all six
    measures and every homogeneity table as `evoreg grid` writes them."""
    topology = binary_topology(10)
    dataset = normal_dataset()
    cfg = planted_config(max_generations=15)
    agg = run_grid(cfg, topology, planted_provider(topology, dataset),
                   dataset, runs_per_cell=2, master_seed=31, threshold=3)
    return render_grid_report(agg)


REPORTS = {"grid_report": _grid_report}


def _golden_files():
    """(path, function returning the text) for every case and report."""
    for name, make in CASES.items():
        yield GOLDEN / f"{name}.tsv", lambda make=make: make().log_text()
    for name, make in REPORTS.items():
        yield GOLDEN / f"{name}.txt", make


def _lines_differing(path: Path, text: str) -> int:
    """How many lines of `text` differ from the file at `path`, byte for
    byte; a line either has and the other lacks counts, so a missing file
    differs on every line."""
    got = text.splitlines(keepends=True)
    want = (path.read_bytes().decode("utf-8").splitlines(keepends=True)
            if path.exists() else [])
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_log_matches_golden(name):
    path = GOLDEN / f"{name}.tsv"
    assert _lines_differing(path, CASES[name]().log_text()) == 0


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    path = GOLDEN / f"{name}.txt"
    assert _lines_differing(path, REPORTS[name]()) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_carried_sweeps_equal_cold_sweeps(name, monkeypatch):
    """Over a whole golden run, each generation's fitter, which carries the
    rows of unchanged slots from the last one, has the table, the singular
    mask and the sweep arrays of a fitter built without `previous`, bit for
    bit. The cases cover both intercept modes, s = 2 and s != 2, n = 1, 2
    and 3, and the table provider."""
    carried = []

    class Checked(GramFitter):
        def __init__(self, panel, y, n, s=2.0, previous=None):
            super().__init__(panel, y, n, s=s, previous=previous)
            self.cold = GramFitter(panel, y, n, s=s)
            assert np.array_equal(self.table.view(np.uint64),
                                  self.cold.table.view(np.uint64))
            assert np.array_equal(self.singular, self.cold.singular)
            carried.append(int(np.count_nonzero(~self.touched)))

        def assess(self, *args):
            got = super().assess(*args)
            assert candidate_bits(got) == candidate_bits(self.cold.assess(*args))
            return got

    monkeypatch.setattr(engine, "GramFitter", Checked)
    CASES[name]()
    assert sum(carried) > 0


def test_hr_rewards_a_model_with_no_explanatory_power():
    """hr, the entropy of the (r2, 1 - r2) split, is 0 at r2 = 0 as well as
    at r2 = 1 and is minimized: the paper's formula, kept as it stands. So
    the both-mode hr run ends on a no-intercept model whose slopes absorb
    the activity's mean and whose r2 is near 0."""
    result = _both_hr_s2()
    assert not result.best_model.with_intercept
    assert result.best_model.r2 < 1e-6


def _check_golden() -> int:
    """Compare each case's log and each report with its file byte for
    byte; 1 on any difference."""
    failed = 0
    for path, make in _golden_files():
        differ = _lines_differing(path, make())
        failed |= differ > 0
        print(f"{path.stem}: " + (f"{differ} lines differ" if differ
                                  else "identical"))
    return int(failed)


def _write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for path, make in _golden_files():
        if path.exists():
            print(f"kept {path}")
            continue
        path.write_text(make(), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python -m tests.test_golden [--check]")
    sys.exit(_check_golden() if sys.argv[1:] else _write_golden())
