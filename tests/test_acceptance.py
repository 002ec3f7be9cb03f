"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete.

Set EVOREG_FULL_GRID=1 to run the strategy-comparison grid at full scale
(46 runs per cell) instead of the desk scale used in CI.
"""

import json
import math
import os
import random
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from evoreg.cli import main as cli_main
from evoreg.engine import run
from evoreg.experiment import (
    MEASURES,
    STRATEGY_LABELS,
    homogeneity_analysis,
    run_grid,
)
from evoreg.regress import GramFitter, ols_fit, search_space_size
from evoreg.scores import (
    ObjectiveSpec,
    objective_score,
    transform_scores,
)
from evoreg.stats import (
    ContingencyTable,
    chi2_homogeneity,
    chi2_sf,
    load_contingency_csv,
    student_t_two_tail,
)
from evoreg.strategy import extract_deterministic, extract_proportional, \
    extract_tournament
from tests.conftest import (
    assess_validity,
    binary_topology,
    brute_best,
    normal_dataset,
    planted_config,
    planted_provider,
)
from tests.test_regress import make_dataset, make_phenotypes


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# the six reference contingency tables with their published statistics
REFERENCE = [
    ("distinct genotypes",
     [[6760, 7466, 8070], [6537, 7529, 7964], [3922, 4965, 4385]],
     (13.6, 4.85, 51.4), (2.25, 39.3, 28.3), 69.9,
     ("No", "-", "No"), ("-", "No", "No"), "No"),
    ("total genotypes",
     [[16788, 16599, 18240], [16368, 17100, 17700], [10764, 12504, 13560]],
     (32.5, 17.0, 85.9), (81.3, 23.7, 30.3), 135.0,
     ("No", "No", "No"), ("No", "No", "No"), "No"),
    ("valid-regression genotypes",
     [[15902, 15739, 17797], [15317, 16151, 17331], [9742, 11572, 13316]],
     (43.1, 19.1, 125.0), (115.0, 19.1, 52.5), 187.0,
     ("No", "No", "No"), ("No", "No", "No"), "No"),
    ("top distinct genotypes",
     [[13, 6, 13], [13, 8, 21], [3, 5, 32]],
     (5.22, 0.88, 8.99), (8.39, 0.91, 5.79), 15.1,
     ("-", "-", "No"), ("No", "-", "-"), "No"),
    ("top occurrences",
     [[406, 214, 378], [419, 217, 714], [89, 152, 893]],
     (156.0, 16.4, 249.0), (238.0, 21.2, 163.0), 421.0,
     ("No", "No", "No"), ("No", "No", "No"), "No"),
    ("top participations",
     [[389, 207, 371], [405, 213, 687], [72, 152, 893]],
     (156.0, 21.2, 264.0), (256.0, 19.3, 165.0), 441.0,
     ("No", "No", "No"), ("No", "No", "No"), "No"),
]


def test_criterion_1_chi_square_reproduction():
    t0 = time.time()
    worst = 0.0
    for name, observed, rows, cols, total, vr, vc, vt in REFERENCE:
        table = ContingencyTable(observed, STRATEGY_LABELS, STRATEGY_LABELS)
        rep = chi2_homogeneity(table, alpha=0.05)
        for got, want in zip(rep.partial_row + rep.partial_col,
                             rows + cols):
            worst = max(worst, abs(got - want) / want)
            assert got == pytest.approx(want, rel=0.02), (name, got, want)
        worst = max(worst, abs(rep.total - total) / total)
        assert rep.total == pytest.approx(total, rel=0.02), name
        assert tuple("No" if r else "-" for r in rep.reject_row) == vr, name
        assert tuple("No" if r else "-" for r in rep.reject_col) == vc, name
        assert ("No" if rep.reject_total else "-") == vt, name
    elapsed = time.time() - t0
    report(1, elapsed < 1.0,
           f"6 reference tables reproduced, worst deviation "
           f"{worst * 100:.2f}% (< 2%), verdicts exact, {elapsed:.2f}s")


def test_criterion_2_tail_probabilities():
    t0 = time.time()
    a = chi2_sf(13.6, 2)
    b = chi2_sf(2.25, 2)
    normal_limit = math.erfc(1.96 / math.sqrt(2))
    c = student_t_two_tail(1.96, 10**6)
    ok = (
        0.0010 <= a <= 0.0012
        and 0.31 <= b <= 0.33
        and abs(c - normal_limit) < 0.0005
        and abs(c - 0.0500) < 0.0005
    )
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0,
           f"chi2_sf(13.6,2)={a:.5f}, chi2_sf(2.25,2)={b:.4f}, "
           f"t_two_tail(1.96,1e6)={c:.6f} vs normal limit "
           f"{normal_limit:.6f}, {elapsed:.2f}s")


def test_criterion_3_search_space_sizing():
    t0 = time.time()
    ok = search_space_size(5, 2) == 10
    ok = ok and search_space_size(92160, 2) == 4246686720
    sizes = [search_space_size(92160, n) for n in range(1, 6)]
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    # consecutive growth factors follow (N - n) / (n + 1): enormous and exact
    for n, r in enumerate(ratios, start=1):
        expected = (92160 - n) / (n + 1)
        ok = ok and abs(r - expected) / expected < 1e-12 and r > 1000
    ok = ok and all(a < b for a, b in zip(sizes, sizes[1:]))
    elapsed = time.time() - t0
    report(3, ok and elapsed < 1.0,
           f"C(5,2)=10, C(92160,2)=4246686720 exact, growth factors "
           f"{ratios[0]:.0f}..{ratios[-1]:.0f} super-polynomial, {elapsed:.2f}s")


def _normal_equations_oracle(x, y, with_intercept):
    """Independently coded reference fit: assemble and solve the normal
    equations with numpy, derive t statistics from the unbiased residual
    variance, and take r^2 as the squared correlation of y with y_hat."""
    design = np.column_stack([np.ones(len(y)), x]) if with_intercept else x
    a = design.T @ design
    coef = np.linalg.solve(a, design.T @ y)
    resid = y - design @ coef
    sigma2 = float(resid @ resid) / (len(y) - design.shape[1])
    t = coef / np.sqrt(sigma2 * np.diag(np.linalg.inv(a)))
    corr = np.corrcoef(y, design @ coef)[0, 1]
    return coef, t, corr * corr


def test_criterion_4_regression_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(8, 31))
        n = int(rng.integers(1, 4))
        with_intercept = bool(rng.integers(0, 2))
        x = rng.normal(size=(m, n)) * rng.uniform(0.5, 4.0, size=n)
        y = x @ rng.normal(size=n) + rng.normal(size=m) + rng.uniform(-2, 2)
        model = ols_fit(make_phenotypes(list(x.T)), make_dataset(y),
                        with_intercept)
        coef, t, r2 = _normal_equations_oracle(x, y, with_intercept)
        rel = max(
            float(np.max(np.abs(np.array(model.coefficients) - coef)
                         / np.maximum(np.abs(coef), 1e-12))),
            float(np.max(np.abs(np.array(model.t_stats) - t)
                         / np.maximum(np.abs(t), 1e-12))),
            abs(model.r2 - r2) / max(r2, 1e-12),
        )
        worst = max(worst, rel)
        assert rel < 1e-8

    # best subset over N = 12 phenotypes: the GramFitter sweep vs an
    # ols_fit brute-force loop
    rng = np.random.default_rng(55)
    m, n_phen, n = 30, 12, 2
    panel = rng.uniform(-1, 1, size=(n_phen, m))
    y = 0.9 * panel[3] - 1.1 * panel[7] + rng.normal(size=m) * 0.4
    ds = make_dataset(y)
    fitter = GramFitter(panel, y, n=n)
    spec = ObjectiveSpec("r2", 1.0)
    subset, model, value = brute_best(
        fitter, ds, 0.05, lambda mo: objective_score(mo, spec), "max"
    )
    brute_subset, brute_value = None, -1.0
    phenos = make_phenotypes(list(panel))
    for cand in combinations(range(n_phen), n):
        mo = ols_fit([phenos[i] for i in cand], ds, True)
        mo = assess_validity(
            mo, ds, 0.05,
            lambda wi, c=cand: ols_fit([phenos[i] for i in c], ds, wi),
        )
        if mo.valid and mo.r2 > brute_value:
            brute_value, brute_subset = mo.r2, cand
    ok = subset == brute_subset and value == pytest.approx(brute_value,
                                                           rel=1e-12)
    elapsed = time.time() - t0
    report(4, ok and elapsed < 10.0,
           f"100 random fits match the oracle (worst rel err {worst:.2e} "
           f"< 1e-8); the best of all C(12,2) subsets, {subset}, equals the "
           f"ols_fit brute-force loop's, {elapsed:.2f}s")


def test_criterion_5_score_formula_suite():
    t0 = time.time()
    rng = np.random.default_rng(31)
    from evoreg.regress import RegressionModel

    def stub(ts):
        return RegressionModel(
            with_intercept=False,
            coefficients=tuple(1.0 for _ in ts), t_stats=tuple(ts),
            r2=0.5, se_s=1.0, s=2.0, df=10,
        )

    ok = True
    for _ in range(1000):
        ts = tuple(rng.uniform(0.05, 9.0, size=int(rng.integers(1, 5))))
        s1, s2 = sorted(rng.uniform(0.2, 6.0, size=2))
        m1 = objective_score(stub(ts), ObjectiveSpec("mt", s1))
        m2 = objective_score(stub(ts), ObjectiveSpec("mt", s2))
        ok = ok and m1 <= m2 + 1e-12

    hr = objective_score(stub((1.0,)), ObjectiveSpec("hr", 2.0))
    ok = ok and hr == pytest.approx(1.0, rel=1e-12)

    x = np.arange(15.0)
    exact = ols_fit(make_phenotypes([x]), make_dataset(3 * x - 2), True)
    se0 = objective_score(exact, ObjectiveSpec("se", 2.0))
    r21 = objective_score(exact, ObjectiveSpec("r2", 1.0))
    ok = ok and se0 < 1e-18 and r21 == pytest.approx(1.0, abs=1e-12)

    argsort_ok = True
    for _ in range(1000):
        raw = rng.normal(size=int(rng.integers(2, 25)))
        table = transform_scores(raw, use_ranks=True)
        argsort_ok = argsort_ok and np.array_equal(
            np.argsort(raw), np.argsort(table.fs)
        )
    ok = ok and argsort_ok
    elapsed = time.time() - t0
    report(5, ok and elapsed < 5.0,
           f"power-mean monotone on 1000 vectors, entropy(s=2, r2=0.5)=1, "
           f"exact-fit scores exact, ranks preserve argsort on 1000 vectors, "
           f"{elapsed:.2f}s")


def test_criterion_6_strategy_distributions():
    t0 = time.time()
    n = 100_000

    t13 = transform_scores([1.0, 3.0], direction="max")
    rng = random.Random(606)
    freq3 = sum(extract_proportional(t13, 1, rng)[0] == 1
                for _ in range(n)) / n
    ok = abs(freq3 - 0.75) < 0.01 and abs((1 - freq3) - 0.25) < 0.01

    dom_ok = True
    rng = random.Random(607)
    for _ in range(1000):
        size = rng.randrange(2, 10)
        direction = rng.choice(["min", "max"])
        scores = [float(rng.randrange(0, 4)) for _ in range(size)]
        table = transform_scores(scores, direction=direction)
        n_sel = rng.randrange(1, size + 1)
        picked = set(extract_deterministic(table, n_sel, rng))
        rest = set(range(size)) - picked
        if rest:
            if direction == "max":
                dom_ok = dom_ok and min(
                    scores[i] for i in picked
                ) >= max(scores[i] for i in rest)
            else:
                dom_ok = dom_ok and max(
                    scores[i] for i in picked
                ) <= min(scores[i] for i in rest)
    ok = ok and dom_ok

    t_hundred = transform_scores([1.0, 100.0], direction="max")
    rng = random.Random(608)
    freq_best = sum(extract_tournament(t_hundred, 1, rng)[0] == 1
                    for _ in range(n)) / n
    ok = ok and freq_best > 0.6

    ties = transform_scores([2.0] * 5, direction="max")
    rng = random.Random(609)
    uniform_ok = True
    counts = Counter(extract_proportional(ties, 1, rng)[0] for _ in range(n))
    for i in range(5):
        uniform_ok = uniform_ok and abs(counts[i] / n - 0.2) < 0.01
    counts = Counter(extract_tournament(ties, 1, rng)[0] for _ in range(n))
    for i in range(5):
        uniform_ok = uniform_ok and abs(counts[i] / n - 0.2) < 0.01
    ok = ok and uniform_ok

    elapsed = time.time() - t0
    report(6, ok and elapsed < 30.0,
           f"proportional {1 - freq3:.3f}/{freq3:.3f} vs 0.25/0.75, "
           f"dominance holds on 1000 tables, tournament best-pick "
           f"{freq_best:.3f} > 0.6, tie draws uniform, {elapsed:.1f}s")


def test_criterion_7_end_to_end_evolution():
    t0 = time.time()
    topology = binary_topology(10)  # N = 1024
    dataset = normal_dataset()
    reached = 0
    monotone = 0
    sample_ok = True
    runs = 50
    for seed in range(runs):
        provider = planted_provider(topology, dataset)
        result = run(planted_config(seed=seed, max_generations=200),
                     topology, provider, dataset)
        best_r2 = result.best_model.r2 if result.best_model else 0.0
        reached += best_r2 >= 0.95
        values = [r.best_objective for r in result.records
                  if not math.isnan(r.best_objective)]
        monotone += all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        sample_ok = sample_ok and all(
            len(r.sample_genotypes) == 20 for r in result.records
        )
    elapsed = time.time() - t0
    ok = reached >= 0.8 * runs and monotone == runs and sample_ok
    report(7, ok and elapsed < 120.0,
           f"{reached}/{runs} runs reached r2 >= 0.95 (need >= 40), "
           f"{monotone}/{runs} monotone best traces, sample size constant, "
           f"{elapsed:.1f}s")


def test_criterion_8_grid_pipeline(tmp_path):
    t0 = time.time()
    runs_per_cell = 46 if os.environ.get("EVOREG_FULL_GRID") == "1" else 5
    topology = binary_topology(10)
    dataset = normal_dataset()
    provider = planted_provider(topology, dataset)
    agg = run_grid(
        planted_config(max_generations=60), topology, provider,
        dataset, runs_per_cell=runs_per_cell, master_seed=4000, threshold=23,
    )
    counts_ok = True
    for cell in agg.cells.values():
        counts_ok = counts_ok and cell.error is None
        num, occ, par, tnum, tocc, tpar = (
            cell.measure(m, agg.threshold) for m in MEASURES)
        counts_ok = counts_ok and occ >= num
        counts_ok = counts_ok and tnum <= num and tocc <= occ and tpar <= par

    # contingency CSV round-trips to the same statistic
    from evoreg.stats import write_contingency_csv
    table = agg.contingency("num")
    csv_path = tmp_path / "grid_num.csv"
    write_contingency_csv(table, csv_path)
    direct = chi2_homogeneity(table)
    reloaded = chi2_homogeneity(load_contingency_csv(csv_path))
    round_trip_ok = (
        direct.total == reloaded.total
        and direct.partial_row == reloaded.partial_row
        and direct.partial_col == reloaded.partial_col
    )

    rejected = []
    for measure in MEASURES:
        try:
            rep = homogeneity_analysis(agg, measure)
        except ValueError:
            continue
        if rep.reject_total:
            rejected.append(measure)
    elapsed = time.time() - t0
    ok = counts_ok and round_trip_ok
    echo = (f"strategy pairs partition the population on: "
            f"{', '.join(rejected)}" if rejected
            else "no homogeneity rejection at this scale")
    report(8, ok and elapsed < 600.0,
           f"9-cell grid at {runs_per_cell} runs/cell: count inequalities "
           f"hold, CSV round-trip identical; {echo} (reported, not "
           f"asserted), {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    (tmp_path / "topology.cgt").write_text(
        "\n".join(f"gene g{i} : a b" for i in range(10)) + "\n"
    )
    (tmp_path / "evolution.cfg").write_text(
        "[evolution]\n"
        "sample_size = 12\nmultiplicity = 2\npairs = 2\n"
        "parent_mutation = 0.1\nchild_mutation = 0.1\n"
        "max_generations = 15\nalpha = 0.25\nselection_aggregate = max\n"
        "[objective]\nkind = r2\ns = 1\n"
        "[selection]\nmethod = tournament\n"
        "[survival]\nmethod = proportional\n"
    )
    assert cli_main([
        "gen-data", "--molecules", "80", "--seed", "13",
        "--activity-out", str(tmp_path / "activity.csv"),
    ]) == 0
    (tmp_path / "manifest.cfg").write_text(
        "[paths]\ntopology = topology.cgt\nactivity = activity.csv\n"
        "evolution = evolution.cfg\noutput = out\n"
        "[run]\nseed = 77\n"
        "[synthetic]\nseed = 9\nplanted_count = 12\nplanted_noise = 0.2\n"
        "planted_seed = 3\n"
    )
    manifest = str(tmp_path / "manifest.cfg")

    artifacts = {}
    for attempt in ("first", "second"):
        assert cli_main(["run", "--manifest", manifest]) == 0
        assert cli_main(["grid", "--manifest", manifest,
                         "--runs-per-cell", "1", "--threshold", "2"]) == 0
        artifacts[attempt] = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("run_log.tsv", "summary.json", "grid_report.txt",
                         "grid_num.csv")
        }
    identical = artifacts["first"] == artifacts["second"]
    elapsed = time.time() - t0
    report(9, identical and elapsed < 60.0,
           f"repeated run and grid invocations byte-identical "
           f"({', '.join(artifacts['first'])}), {elapsed:.1f}s")
