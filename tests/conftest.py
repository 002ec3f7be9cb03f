import codecs
import csv
import math
import struct
from collections import Counter
from itertools import accumulate, combinations, groupby

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers as hypothesis_providers
from hypothesis.internal.constants_ast import Constants

from evoreg import stats
from evoreg.descriptors import (
    Dataset,
    PlantedSignal,
    SyntheticProvider,
    TableProvider,
    ViabilityReport,
    pick_planted_genotypes,
)
from evoreg.engine import EvolutionConfig
from evoreg.genome import Gene, GeneticTopology
from evoreg.regress import (SIGNIFICANCE_OFFSET, SingularFitError, Sweep,
                            _all_subsets, _slot_rows, better, fit_assessed)
from evoreg.scores import WORST_MIN_SCORE, ObjectiveSpec, objective_score
from evoreg.stats import split_line, student_t_two_tail, t_critical
from evoreg.strategy import StrategySpec


# Hypothesis mixes the literal constants of every loaded local module into
# what it draws, so a derandomized test would draw other examples after an
# edit anywhere in src/, or beside other test modules. The pool is pinned
# empty for the whole suite; the extremes the tests need are in their
# strategies. tests/test_draws.py fails if this hook goes away.
NO_LOCAL_CONSTANTS = Constants()
if hasattr(hypothesis_providers, "_get_local_constants"):
    hypothesis_providers._get_local_constants = lambda: NO_LOCAL_CONSTANTS


def binary_topology(n_genes):
    return GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b")) for i in range(n_genes))
    )


def parse_oracle(topology, text):
    """The allele indices of key `text`, or None if it is not a key: one
    left-to-right pass over the genes, taking the first allele of each that
    fits where the previous gene ended (at most one does, as alphabets are
    prefix-free). The oracle for `GeneticTopology.parse`."""
    index, pos = [], 0
    for gene in topology.genes:
        for i, allele in enumerate(gene.alleles):
            if text.startswith(allele, pos):
                index.append(i)
                pos += len(allele)
                break
    if len(index) < topology.gene_count or pos != len(text):
        return None
    return tuple(index)


def labelled_rows_oracle(fh, corner, error=ValueError):
    """`stats.read_labelled_rows` as one readline per line, each plain line
    (ASCII, unquoted, labelled) checked by its own comma count: the column
    labels, then each row's label, byte offset and line in turn. The
    oracle for the block reader's rows, taken out of their blocks, and its
    first error on files whose carriage returns all end a line."""
    header, offset = None, fh.tell()
    for lineno, line in enumerate(fh, 1):
        start, offset = offset, offset + len(line)
        if lineno == 1:
            line = line.removeprefix(codecs.BOM_UTF8)
        if header is not None and line.isascii() and b'"' not in line:
            label = line.partition(b",")[0].decode().strip()
            if label:
                if line.count(b",") + 1 != len(header):
                    raise error(f"{fh.name}: row {label!r} has wrong width")
                yield label, start, line
                continue
        try:
            cells = split_line(line)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise error(f"{fh.name}: line {lineno}: {exc}") from None
        if not any(map(str.strip, cells)):
            continue
        label = cells[0].strip()
        if header is None:
            header = [c.strip() for c in cells]
            if label != corner:
                break
            yield header[1:]
        elif not label:
            raise error(f"{fh.name}: line {lineno}: row has no label")
        elif len(cells) != len(header):
            raise error(f"{fh.name}: row {label!r} has wrong width")
        else:
            yield label, start, line
    if header is None or header[0] != corner:
        raise error(f"{fh.name}: first header column must be {corner!r}")


def tournament_oracle(fs, direction, n_sel, rng):
    """Tournament extraction as two passes: adjacent comparisons over the
    first n_sel positions of a shuffled permutation, then one challenger
    from the remainder against the boundary position. An exact tie flips a
    coin, drawn only on a tie; a position stays put when it is below 0.5.
    The oracle for `strategy.extract_tournament`'s picks and draw order."""
    size = len(fs)
    perm = list(range(size))
    rng.shuffle(perm)

    if direction == "max":
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
                pass
            else:
                perm[boundary], perm[j] = perm[j], perm[boundary]
    return perm[:n_sel]


def proportional_oracle(fs, direction, n_sel, rng):
    """Proportional extraction with a separate count per score group, equal
    scores grouped by Python's stable sort of the indices: the running
    masses value*count summed left to right, a uniform point in the total,
    the first group with members that reaches it (the last group if none
    does, as when the point is NaN), then past exhausted groups, and a
    uniform member of that group; uniform draws once the total mass is
    zero. The oracle for `strategy.extract_proportional`'s picks and draw
    order."""
    fs = fs.tolist()
    grouped = [(v, list(g)) for v, g in
               groupby(sorted(range(len(fs)), key=fs.__getitem__),
                       fs.__getitem__)]
    values = [v for v, _ in grouped]
    if direction == "min":
        hi, lo = values[-1], values[0]
        values = [hi + lo - v for v in values]
    low = min(values)
    masses = [v - low for v in values] if low < 0.0 else values
    remaining = [g for _, g in grouped]
    counts = [len(g) for g in remaining]
    selected = []
    for _ in range(n_sel):
        reached = list(accumulate(m * c for m, c in zip(masses, counts)))
        total = reached[-1]
        if total <= 0.0:
            pool = [i for group in remaining for i in group]
            while len(selected) < n_sel:
                selected.append(pool.pop(rng.randrange(len(pool))))
            break
        freq = rng.random() * total
        group = next((gi for gi, (acc, c) in enumerate(zip(reached, counts))
                      if freq <= acc and c > 0), len(masses) - 1)
        while counts[group] == 0:
            group = (group + 1) % len(counts)
        members = remaining[group]
        selected.append(members.pop(rng.randrange(len(members))))
        counts[group] -= 1
    return selected


def t_critical_oracle(alpha, df):
    """`stats.t_critical` as a fixed 200 bisection steps, however soon its
    bracket stops shrinking: the oracle for the loop that stops there."""
    lo, hi = 0.0, 1.0
    while student_t_two_tail(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_partials_oracle(observed):
    """The row, column and total X^2 of `stats.chi2_homogeneity`, each
    cell's (o - e) ** 2 / e computed alone, against its expected count
    rounded half up by `math.floor`, or kept exact where that gives 0."""
    obs = np.asarray(observed, dtype=float)
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    contrib = np.empty_like(obs)
    for (i, j), e in np.ndenumerate(expected):
        r = math.floor(e + 0.5)
        e = r if r > 0 else float(e)
        contrib[i, j] = (float(obs[i, j]) - e) ** 2 / e
    return (tuple(float(c.sum()) for c in contrib),
            tuple(float(c.sum()) for c in contrib.T), float(contrib.sum()))


def viability_oracle(v, ds, policy):
    """The viability rules applied to one phenotype's values, one numpy call
    at a time: the oracle for `descriptors.screen_viability`, each of whose
    rows must give the same five outcomes, None where a screen is not
    applied (left out of the policy, or optional on values not finite).

    The screens work on one centred copy of the values: the cv compares the
    population sd (pairwise sums, as numpy's mean and std take them) with
    the mean; the simple r2 floor compares the squared Pearson correlation
    with the activity (0 when either side has no variance). Overflowing
    squares give cv = inf, which passes, and fail the r2; an overflowing
    sum leaves no representable mean, so the cv and the r2 fail. An r2
    denominator that underflows to 0 makes the r2 NaN, which fails."""
    if v.shape != ds.activity.shape:
        raise ValueError("phenotype length does not match dataset")
    m = v.size
    with np.errstate(over="ignore", invalid="ignore"):
        total = v.sum()
        # a finite sum proves every value finite; an overflowed one does not
        finite = math.isfinite(total) or bool(np.isfinite(v).all())
        non_constant = finite and bool((v != v[0]).any())
        cv_ok = jb_ok = r2_ok = None
        if finite:
            if policy.min_cv is not None or policy.min_simple_r2 is not None:
                mean = total / m
                d = v - mean
            if policy.min_cv is not None:
                sd = math.sqrt((d * d).sum() / m)
                if mean == 0.0:
                    # zero mean with any spread is maximally variable
                    cv_ok = sd > 0.0
                else:
                    cv_ok = abs(sd / float(mean)) >= policy.min_cv
            if policy.jb_alpha is not None:
                if non_constant and m >= 4:
                    _, pval = stats.jarque_bera(v)
                    jb_ok = pval >= policy.jb_alpha
                else:
                    jb_ok = False
            if policy.min_simple_r2 is not None:
                dy, syy = ds.centred_activity
                sxx = float(d @ d)
                r2 = 0.0
                if sxx != 0.0 and syy != 0.0:
                    sxy = float(d @ dy)
                    denominator = sxx * syy
                    r2 = sxy * sxy / denominator if denominator else math.nan
                r2_ok = math.isfinite(r2) and r2 >= policy.min_simple_r2
    return (finite, non_constant, cv_ok, jb_ok, r2_ok)


def admit_oracle(candidates, need, seen, provider, ds, policy):
    """Admission one candidate at a time, as the engine admitted before it
    screened in rounds: a candidate with a key in `seen` is a duplicate;
    any other is provided (again, if it was rejected before), screened
    alone by `viability_oracle` and admitted if viable, until `need` are
    admitted, without drawing a candidate past the last admitted one. The
    oracle for `engine._admit`, which must admit the same phenotypes and
    count the same rejections in the same order, providing each key once."""
    admitted, rejected = [], Counter()
    if need == 0:
        return admitted, rejected
    for g in candidates:
        if g.key in seen:
            rejected["duplicate"] += 1
            continue
        ph = provider.provide(g)
        if ph is None:
            rejected["no_phenotype"] += 1
            continue
        report = ViabilityReport(*viability_oracle(ph.values, ds, policy))
        if not report.viable:
            rejected.update(report.failed_criteria())
            continue
        seen.add(g.key)
        admitted.append(ph)
        if len(admitted) == need:
            break
    return admitted, rejected


def ncd(a, b):
    """Number of gene positions at which two genotypes differ: the pairwise
    oracle for the survival scores' allele-matrix distances."""
    assert a.topology == b.topology
    return sum(x != y for x, y in zip(a.allele_index, b.allele_index))


def assess_validity(model, ds, alpha, refit):
    """The validity rules applied to one fitted model, rule by rule: the
    oracle for `GramFitter.assess`. Returns the final (possibly refitted)
    model with a ``valid`` attribute set. `refit(with_intercept)` fits the
    other form.

    Rules, in order: the coefficient count may not exceed m minus
    SIGNIFICANCE_OFFSET; an insignificant intercept demotes the fit to the
    no-intercept form; a slope insignificant in both forms, or insignificant
    with the other form singular, invalidates the model."""
    m = ds.size
    if len(model.coefficients) > m - SIGNIFICANCE_OFFSET:
        model.valid = False
        return model

    other = None

    def other_form():
        nonlocal other
        if other is None:
            other = refit(not final.with_intercept)
        return other

    final = model
    if model.with_intercept:
        crit = t_critical(alpha, model.df)
        if abs(model.t_stats[0]) < crit:
            final = refit(False)
            other = model
            if len(final.coefficients) > m - SIGNIFICANCE_OFFSET:
                final.valid = False
                return final

    crit = t_critical(alpha, final.df)
    for i, t in enumerate(final.slope_t_stats):
        if abs(t) < crit:
            try:
                alt = other_form()
            except SingularFitError:
                final.valid = False
                return final
            if abs(alt.slope_t_stats[i]) < t_critical(alpha, alt.df):
                final.valid = False
                return final
    final.valid = True
    return final


def fit_assessed_oracle(fit, row, ds, alpha, intercept_mode="fallback"):
    """The assessed candidate models of row `row` of a GramFitter's table,
    one subset at a time through `assess_validity`: the oracle for the
    candidates `GramFitter.assess` returns. "fallback" fits the intercept
    form and demotes it when the intercept is insignificant; "both" adds the
    no-intercept form unless the primary was demoted. A singular intercept
    form gives no primary candidate."""
    candidates = []
    refit = lambda wi: fit(row, wi)  # noqa: E731
    try:
        primary = assess_validity(fit(row, True), ds, alpha, refit)
        candidates.append(primary)
    except SingularFitError:
        primary = None
    if intercept_mode == "both" and (primary is None or primary.with_intercept):
        try:
            candidates.append(
                assess_validity(fit(row, False), ds, alpha, refit)
            )
        except SingularFitError:
            pass
    return candidates


def assess_per_form_oracle(fitter, alpha, both, objective):
    """`GramFitter.assess` with one objective call per form, its values
    scattered into a (rows, 2) NaN matrix by row and slot and taken back out
    in (row, slot) order: the oracle for the one-gather, one-call read-out,
    whose sweep must equal this one bit for bit."""
    n, n1, table = fitter.n, fitter.n + 1, fitter.table
    ins0 = np.abs(table[0, n1 + 1:2 * n1]) < t_critical(alpha, fitter.df[0])
    ins1 = np.abs(table[1, n1:2 * n1]) < t_critical(alpha, fitter.df[1])
    room0, room1 = (n + wi <= fitter.m - SIGNIFICANCE_OFFSET for wi in (0, 1))
    sing0, sing1 = fitter.singular
    valid1 = room1 & ~(ins0 & ins1[1:]).any(axis=0)
    valid0 = room0 & ~(ins0 & (ins1[1:] | sing1)).any(axis=0)
    demoted = room1 & ~sing1 & ins1[0]
    present = np.array((~demoted & ~sing1, (demoted | both) & ~sing0))
    ok = present & np.array((valid1, valid0))
    values = np.full((ok.shape[1], 2), np.nan)
    for wi in (0, 1):
        rows = np.flatnonzero(ok[1 - wi])
        picked = table[wi][n1 + 1:, rows]
        values[rows, 1 - wi] = objective(picked[n], picked[n1], picked[:n].T)
    flat = np.flatnonzero(ok.T)
    c = present.view(np.uint8) + ok.view(np.uint8)
    return Sweep(flat >> 1, (flat & 1) == 0, values.take(flat),
                 3 * c[0] + c[1])


def selection_scores_oracle(n_genotypes, members, values, aggregate,
                            direction):
    """Per-genotype selection scores from the (V, n) ``members`` array of
    the valid models, one row each, and their ``values``: bincounts and
    `minimum.at` / `maximum.at` over every member of every model. The
    oracle for `scores.selection_scores`, which reads the sweep by slot and
    must equal this bit for bit; it logs nothing for an empty sweep."""
    members = np.asarray(members, dtype=np.intp)
    values = np.asarray(values, dtype=float)
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


def sweep_inputs(p, n, rows):
    """`scores.selection_scores`' subsets, slot index and per-genotype
    counts for valid models at the ascending table `rows` of a sweep of p
    genotypes, computed as the engine computes them, and the rows."""
    subsets, slot_rows = _all_subsets(p, n), _slot_rows(p, n)
    counts = np.bincount(rows, minlength=len(subsets))[slot_rows].sum(axis=1)
    return subsets, slot_rows, counts, rows


def candidate_view(sweep):
    """Per table row, (with_intercept, valid, value) of each candidate of a
    `regress.Sweep`, the value only when valid: the form and validity of
    every candidate from `fit_assessed`, and the value of each valid one
    from the sweep's arrays, which must list exactly the valid candidates
    in (row, slot) order, the values as one float64 array."""
    assert isinstance(sweep.values, np.ndarray)
    assert sweep.values.dtype == np.float64
    listed = iter(zip(sweep.rows.tolist(), sweep.with_intercept.tolist(),
                      sweep.values.tolist()))
    out = []
    for row in range(len(sweep.shapes)):
        view = []
        for c in fit_assessed(sweep.shapes[row]):
            value = None
            if c.valid:
                got_row, with_intercept, value = next(listed)
                assert (got_row, with_intercept) == (row, c.with_intercept)
            view.append((c.with_intercept, c.valid, value))
        out.append(view)
    assert next(listed, None) is None
    return out


def value_bits(view):
    """A list of (with_intercept, valid, value) with each value as its
    bytes, so that equal lists agree bit for bit."""
    return [(wi, valid, None if v is None else struct.pack("<d", v))
            for wi, valid, v in view]


def candidate_bits(sweep):
    """A `regress.Sweep` with each array as its dtype and bytes, so that
    equal sweeps agree bit for bit, NaN included."""
    return (*((a.dtype, a.tobytes()) for a in sweep[:3]),
            sweep.shapes.tolist())


def scalar_objective(model, spec):
    """The objective of one model, one Python-float operation at a time:
    the oracle that `objective_score` and `ObjectiveSpec.values` equal bit
    for bit."""
    s, r2 = spec.s, model.r2
    if spec.kind == "se":
        return model.se_s
    if spec.kind == "r2":
        return r2**s
    if spec.kind == "mt":
        ts = model.slope_t_stats
        return (sum(abs(t) ** s for t in ts) / len(ts)) ** (1.0 / s)
    return math.log2(r2**s + (1.0 - r2) ** s) / (1.0 - s)


def oracle_candidates(fitter, row, ds, alpha, spec, intercept_mode="fallback"):
    """fit_assessed_oracle's models of row `row` in the form of
    candidate_view, a valid model's value being its objective_score, which
    must equal scalar_objective."""
    out = []
    for mo in fit_assessed_oracle(fitter.fit, row, ds, alpha, intercept_mode):
        value = objective_score(mo, spec) if mo.valid else None
        assert value is None or value == scalar_objective(mo, spec)
        out.append((mo.with_intercept, mo.valid, value))
    return out


def brute_best(fitter, ds, alpha, objective_fn, direction,
               intercept_mode="fallback"):
    """The best valid model over every n-subset of a GramFitter's panel, as
    (subset, model, value), or (None, None, None) when none is valid: one
    fit_assessed_oracle call per subset, in lexicographic order, the first
    strictly better model winning. The oracle for the engine's sweep."""
    best = (None, None, None)
    p = fitter.panel.shape[0]
    for row, subset in enumerate(combinations(range(p), fitter.n)):
        for model in fit_assessed_oracle(fitter.fit, row, ds, alpha,
                                         intercept_mode):
            if not model.valid:
                continue
            value = objective_fn(model)
            if best[0] is None or better(value, best[2], direction):
                best = (subset, model, value)
    return best


def normal_dataset(m=206, mean=6.4806, sd=0.83076, seed=7):
    rng = np.random.default_rng(seed)
    return Dataset(tuple(f"mol{i}" for i in range(m)), rng.normal(mean, sd, m))


def planted_provider(topology, dataset, n_planted=32, noise_frac=0.28,
                     plant_seed=11, value_seed=5):
    """Synthetic provider with noisy copies of the activity planted at
    designated genotypes; any planted pair supports a strong 2-descriptor
    regression while singles stay below it."""
    noise_sd = noise_frac * float(dataset.activity.std())
    planted = {
        key: PlantedSignal(slope=1.0, intercept=0.0, noise_sd=noise_sd)
        for key in pick_planted_genotypes(topology, n_planted, seed=plant_seed)
    }
    return SyntheticProvider(topology, dataset, seed=value_seed, planted=planted)


def planted_config(seed=0, max_generations=200, **overrides):
    base = dict(
        p=20,
        n=2,
        k=3,
        pp=0.1,
        cp=0.1,
        keep_best=True,
        objective=ObjectiveSpec("r2", 1.0),
        selection=StrategySpec("tournament"),
        survival=StrategySpec("proportional"),
        selection_aggregate="max",
        alpha=0.25,
        max_generations=max_generations,
        seed=seed,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


def partial_table_world():
    """A descriptor table with every third genotype of a 7-gene space left
    out, so some children get no phenotype and never reach the screen."""
    topology = binary_topology(7)
    dataset = normal_dataset(m=30)
    rng = np.random.default_rng(17)
    table = {g.render(): rng.uniform(0.0, 1.0, 30)
             for i, g in enumerate(topology.all_genotypes()) if i % 3}
    return topology, dataset, TableProvider(topology, table)


@pytest.fixture(scope="session")
def planted_world():
    """Topology (N=1024), activity data, and planted provider shared by the
    engine-level tests."""
    topology = binary_topology(10)
    dataset = normal_dataset()
    provider = planted_provider(topology, dataset)
    return topology, dataset, provider
