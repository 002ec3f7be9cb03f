from collections import Counter

import pytest

from evoreg.engine import GenerationRecord, RunResult
from evoreg.experiment import (
    MEASURES,
    STRATEGY_LABELS,
    CellStats,
    GridAggregate,
    accumulate_run,
    homogeneity_analysis,
    render_grid_report,
    run_grid,
)
from evoreg.stats import ContingencyTable, chi2_homogeneity
from tests.conftest import (
    binary_topology,
    normal_dataset,
    planted_config,
    planted_provider,
)

# observed counts of the six reference homogeneity tables, with the reported
# partial and total statistics
REFERENCE_TABLES = {
    "num": (
        [[6760, 7466, 8070], [6537, 7529, 7964], [3922, 4965, 4385]],
        (13.6, 4.85, 51.4),
        (2.25, 39.3, 28.3),
        69.9,
        ("No", "-", "No"),
        ("-", "No", "No"),
        "No",
    ),
    "occ": (
        [[16788, 16599, 18240], [16368, 17100, 17700], [10764, 12504, 13560]],
        (32.5, 17.0, 85.9),
        (81.3, 23.7, 30.3),
        135.0,
        ("No", "No", "No"),
        ("No", "No", "No"),
        "No",
    ),
    "par": (
        [[15902, 15739, 17797], [15317, 16151, 17331], [9742, 11572, 13316]],
        (43.1, 19.1, 125.0),
        (115.0, 19.1, 52.5),
        187.0,
        ("No", "No", "No"),
        ("No", "No", "No"),
        "No",
    ),
    "top_num": (
        [[13, 6, 13], [13, 8, 21], [3, 5, 32]],
        (5.22, 0.88, 8.99),
        (8.39, 0.91, 5.79),
        15.1,
        ("-", "-", "No"),
        ("No", "-", "-"),
        "No",
    ),
    "top_occ": (
        [[406, 214, 378], [419, 217, 714], [89, 152, 893]],
        (156.0, 16.4, 249.0),
        (238.0, 21.2, 163.0),
        421.0,
        ("No", "No", "No"),
        ("No", "No", "No"),
        "No",
    ),
    "top_par": (
        [[389, 207, 371], [405, 213, 687], [72, 152, 893]],
        (156.0, 21.2, 264.0),
        (256.0, 19.3, 165.0),
        441.0,
        ("No", "No", "No"),
        ("No", "No", "No"),
        "No",
    ),
}


@pytest.mark.parametrize("measure", list(REFERENCE_TABLES))
def test_reference_tables_reproduced(measure):
    observed, rows, cols, total, row_verdicts, col_verdicts, total_verdict = \
        REFERENCE_TABLES[measure]
    table = ContingencyTable(observed, STRATEGY_LABELS, STRATEGY_LABELS)
    report = chi2_homogeneity(table, alpha=0.05)
    for got, want in zip(report.partial_row, rows):
        assert got == pytest.approx(want, rel=0.02)
    for got, want in zip(report.partial_col, cols):
        assert got == pytest.approx(want, rel=0.02)
    assert report.total == pytest.approx(total, rel=0.02)
    assert report.df_total == 4
    got_rows = tuple("No" if r else "-" for r in report.reject_row)
    got_cols = tuple("No" if r else "-" for r in report.reject_col)
    assert got_rows == row_verdicts
    assert got_cols == col_verdicts
    assert ("No" if report.reject_total else "-") == total_verdict


def test_identical_rows_are_homogeneous():
    table = ContingencyTable(
        [[5, 5, 5], [5, 5, 5], [5, 5, 5]], STRATEGY_LABELS, STRATEGY_LABELS
    )
    report = chi2_homogeneity(table)
    assert report.total == 0.0
    assert not report.reject_total


def make_result(records):
    return RunResult(
        config=None, records=records, best_model=None,
        best_objective=0.0, best_genotypes=(),
    )


def record(gen, improved, sample, participations):
    return GenerationRecord(
        generation=gen,
        best_objective=0.5,
        improved=improved,
        best_model_genotypes=(),
        sample_genotypes=tuple(sample),
        valid_regression_count=0,
        participations=tuple(participations),
    )


def test_accumulate_counts_improving_generations_only():
    """An occurrence is a participation when its genotype is in at least
    one valid regression of the generation: members of 3, 1 and 0 count 1,
    1 and 0; a non-improving generation counts nothing."""
    cell = CellStats()
    result = make_result([
        record(1, True, ["aa", "ab", "bb"], [3, 1, 0]),
        record(2, False, ["aa", "ab", "bb"], [5, 5, 5]),  # ignored
        record(3, True, ["aa", "ba", "bb"], [1, 1, 1]),
    ])
    accumulate_run(cell, result)
    assert cell.measure("num", 23) == 4  # aa, ab, bb, ba
    assert cell.occurrences["aa"] == 2
    assert cell.measure("occ", 23) == 6
    assert cell.measure("par", 23) == (1 + 1 + 0) + (1 + 1 + 1)
    assert cell.participations == {"aa": 2, "ab": 1, "bb": 1, "ba": 1}


def test_cellstats_top_threshold():
    cell = CellStats()
    cell.occurrences.update({"a": 30, "b": 23, "c": 22})
    cell.participations.update({"a": 28, "b": 20, "c": 21})
    top = tuple(cell.measure(m, 23) for m in ("top_num", "top_occ", "top_par"))
    assert top == (2, 53, 48)
    assert top <= tuple(cell.measure(m, 23) for m in ("num", "occ", "par"))


def test_accumulation_is_order_independent():
    results = [
        make_result([record(1, True, ["aa", "ab"], [1, 0])]),
        make_result([record(1, True, ["ab", "bb"], [2, 2])]),
        make_result([record(1, True, ["aa", "bb"], [0, 1])]),
    ]
    a = CellStats()
    for r in results:
        accumulate_run(a, r)
    b = CellStats()
    for r in reversed(results):
        accumulate_run(b, r)
    assert a.occurrences == b.occurrences
    assert a.participations == b.participations


def test_accumulate_twice_doubles_counts():
    result = make_result([record(1, True, ["aa", "ab"], [1, 2])])
    once = CellStats()
    accumulate_run(once, result)
    twice = CellStats()
    accumulate_run(twice, result)
    accumulate_run(twice, result)
    assert twice.measure("num", 23) == once.measure("num", 23)
    assert twice.measure("occ", 23) == 2 * once.measure("occ", 23)
    assert twice.measure("par", 23) == 2 * once.measure("par", 23)


@pytest.fixture(scope="module")
def desk_grid():
    topology = binary_topology(10)
    dataset = normal_dataset()
    provider = planted_provider(topology, dataset)
    base = planted_config(max_generations=40)
    return run_grid(
        base, topology, provider, dataset,
        runs_per_cell=2, master_seed=100, threshold=3,
    )


def test_grid_runs_all_cells(desk_grid):
    assert len(desk_grid.cells) == 9
    for (sel, sur), cell in desk_grid.cells.items():
        assert sel in STRATEGY_LABELS and sur in STRATEGY_LABELS
        assert cell.error is None
        assert cell.runs == 2


def test_grid_counts_are_consistent(desk_grid):
    for cell in desk_grid.cells.values():
        num, occ, par, tnum, tocc, tpar = (
            cell.measure(m, desk_grid.threshold) for m in MEASURES)
        assert occ >= num
        assert 0 <= par <= occ
        assert tnum <= num
        assert tocc <= occ
        assert tpar <= par and tpar <= tocc


def test_grid_contingency_and_report(desk_grid):
    table = desk_grid.contingency("num")
    assert table.shape == (3, 3)
    assert table.observed.sum() == sum(
        c.measure("num", desk_grid.threshold) for c in desk_grid.cells.values()
    )
    report = homogeneity_analysis(desk_grid, "num")
    assert report.total >= 0.0
    text = render_grid_report(desk_grid)
    assert "P:P" in text and "T:D" in text
    assert "homogeneity" in text


def test_grid_seeds_are_deterministic(desk_grid):
    topology = binary_topology(10)
    dataset = normal_dataset()
    provider = planted_provider(topology, dataset)
    again = run_grid(
        planted_config(max_generations=40), topology, provider,
        dataset, runs_per_cell=2, master_seed=100, threshold=3,
    )
    for key, cell in desk_grid.cells.items():
        assert again.cells[key].occurrences == cell.occurrences
        assert again.cells[key].participations == cell.participations


def test_grid_cell_failure_is_isolated():
    topology = binary_topology(3)  # N = 8 < p: every run fails
    dataset = normal_dataset(m=20)
    provider = planted_provider(topology, dataset, n_planted=2)
    agg = run_grid(
        planted_config(max_generations=2), topology, provider,
        dataset, runs_per_cell=1, master_seed=0,
    )
    assert all(cell.error is not None for cell in agg.cells.values())
    with pytest.raises(ValueError):
        agg.contingency("num")
    with pytest.raises(ValueError, match="runs_per_cell must be at least 1"):
        run_grid(planted_config(), topology, provider, dataset,
                 runs_per_cell=0, master_seed=0)


def test_a_zero_cell_inside_positive_margins_is_not_testable():
    """Every cell of a homogeneity table must be positive, not only its
    margins: P:T holds no genotype above the threshold while its row and
    column totals are positive."""
    def cell(count):
        return CellStats(runs=1, occurrences=Counter({"g": count}),
                         participations=Counter({"g": count}))
    cells = {(sel, sur): cell(5 if (sel, sur) == ("P", "T") else 30)
             for sel in STRATEGY_LABELS for sur in STRATEGY_LABELS}
    agg = GridAggregate(cells, threshold=23, runs_per_cell=1)
    table = [[cells[(sel, sur)].measure("top_num", 23) for sur in "PTD"]
             for sel in "PTD"]
    assert table[0][1] == 0
    assert min(map(sum, table)) > 0 and min(map(sum, zip(*table))) > 0
    report = render_grid_report(agg).splitlines()
    for measure in ("top_num", "top_occ", "top_par"):
        assert (f"not testable: cell P:T has zero {measure}; "
                "every cell must be positive") in report
    assert sum(line.startswith("not testable") for line in report) == 3


def test_homogeneity_requires_measure_for_grid(desk_grid):
    with pytest.raises(ValueError):
        homogeneity_analysis(desk_grid, "median")


def test_measures_enumeration():
    assert set(MEASURES) == {
        "num", "occ", "par", "top_num", "top_occ", "top_par"
    }
