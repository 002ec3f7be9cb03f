import ast
import logging
import math
import random
from collections import namedtuple
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from evoreg import engine, genome
from evoreg.descriptors import (Phenotype, SyntheticProvider, TableProvider,
                                ViabilityPolicy, check_viability,
                                load_descriptor_table, write_descriptor_table)
from evoreg.engine import (
    EvolutionConfig,
    EvolutionState,
    InsufficientViableMaterialError,
    init_sample,
    run,
    run_generation,
)
from evoreg.genome import Gene, GeneticTopology, genome_size
from evoreg.regress import GramFitter, better
from evoreg.scores import ObjectiveSpec, objective_score
from evoreg.strategy import StrategySpec
from tests.conftest import (
    binary_topology,
    brute_best,
    candidate_view,
    fit_assessed_oracle,
    normal_dataset,
    partial_table_world,
    planted_config,
    planted_provider,
)


def small_config(**overrides):
    base = dict(
        p=6, n=2, k=2, pp=0.1, cp=0.1,
        objective=ObjectiveSpec("r2", 1.0),
        selection=StrategySpec("proportional"),
        survival=StrategySpec("proportional"),
        selection_aggregate="max",
        alpha=0.2,
        max_generations=5,
        seed=1,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(p=2, n=2)  # n < p violated
    with pytest.raises(ValueError):
        small_config(k=4)  # 2k > p
    with pytest.raises(ValueError):
        small_config(pp=1.5)
    with pytest.raises(ValueError):
        small_config(max_generations=0)
    with pytest.raises(ValueError):
        small_config(intercept_mode="sometimes")
    with pytest.raises(ValueError):
        small_config(selection_aggregate="median")
    with pytest.raises(ValueError, match="unknown mutation_mode"):
        small_config(mutation_mode="allele")
    nan, inf = float("nan"), float("inf")
    for field, value in (("q", nan), ("r", nan), ("q", inf), ("r", -1.0),
                         ("target_objective", nan), ("alpha", nan),
                         ("alpha", 1e-11), ("alpha", 1.0), ("pp", nan)):
        with pytest.raises(ValueError, match=f"^{field} "):
            small_config(**{field: value})
    small_config(target_objective=inf)     # never reached, but well-defined
    small_config(alpha=1e-10)              # the floor itself


def test_config_fingerprint_tracks_content():
    a = small_config()
    b = small_config()
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != small_config(seed=2).fingerprint()


def test_config_fingerprint_bytes_are_pinned():
    """The fingerprint hashes the config's fields as JSON, nested specs as
    objects. Its digests, for a default config and for one with every field
    set, are in every run log's header, so they must not drift."""
    full = EvolutionConfig(
        p=12, n=3, k=4, pp=0.25, cp=0.125, keep_best=False,
        objective=ObjectiveSpec("mt", 2.5),
        selection=StrategySpec("tournament", True, (0.0, 2.0), 3),
        survival=StrategySpec("deterministic", False, (-1.0, 1.0), 2),
        selection_aggregate="avg", q=1.5, r=2.0, alpha=0.1,
        viability=ViabilityPolicy(0.05, 0.01, 0.02), max_generations=7,
        target_objective=0.9, seed=17, intercept_mode="both",
        mutation_mode="gene")
    assert EvolutionConfig(p=10, n=2, k=2).fingerprint() == "cec6250e4ad02a6c"
    assert full.fingerprint() == "6be726db575ff001"


def test_init_sample_synthetic_distinct():
    topo = binary_topology(8)
    ds = normal_dataset(m=30)
    provider = SyntheticProvider(topo, ds, seed=3)
    cfg = small_config(p=10, k=3)
    sample = init_sample(cfg, topo, provider, ds, random.Random(0))
    assert len(sample) == 10
    assert len({ph.source_genotype.key for ph in sample}) == 10


def test_init_sample_table_with_exactly_p_rows():
    topo = binary_topology(4)
    ds = normal_dataset(m=20)
    rng = np.random.default_rng(2)
    keys = ["aaaa", "abab", "bbbb", "baba", "aabb", "bbaa"]
    provider = TableProvider(
        topo, {k: rng.uniform(0, 1, 20) for k in keys}
    )
    cfg = small_config(p=6, k=2)
    sample = init_sample(cfg, topo, provider, ds, random.Random(5))
    assert sorted(ph.source_genotype.key for ph in sample) == sorted(keys)


def test_init_sample_constant_phenotypes_error():
    topo = binary_topology(4)
    ds = normal_dataset(m=20)
    provider = TableProvider(
        topo, {"aaaa": np.full(20, 1.0), "bbbb": np.full(20, 2.0)}
    )
    cfg = small_config(p=2, n=1, k=1)
    with pytest.raises(InsufficientViableMaterialError) as err:
        init_sample(cfg, topo, provider, ds, random.Random(0))
    assert "non_constant" in str(err.value)


class RecordingProvider:
    """Passes provide calls through to another provider and records the key
    of each genotype it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.asked: list[str] = []

    def provide(self, genotype):
        self.asked.append(genotype.key)
        return self.inner.provide(genotype)

    def known_keys(self):
        return self.inner.known_keys()


def _table_rows(topo, ds, seed, constant_every=3):
    """A value row per genotype of `topo`, every `constant_every`-th one
    constant so that it fails viability, the rest planted or uniform."""
    synthetic = planted_provider(topo, ds, plant_seed=seed, value_seed=seed)
    return {g.key: (np.ones(ds.size) if i % constant_every == 0
                    else synthetic.provide(g).values)
            for i, g in enumerate(topo.all_genotypes())}


def test_run_parses_only_the_keys_init_sample_draws(tmp_path, monkeypatch):
    """A run at sweep-n3's shape (p=30, n=3, k=3) over a 4,096-row table
    file: loading parses no key, and the run parses one per candidate that
    `init_sample` tried."""
    topo = binary_topology(12)
    ds = normal_dataset(m=30)
    path = tmp_path / "table.csv"
    write_descriptor_table(path, ds, _table_rows(topo, ds, seed=4).items())
    parsed = []
    parse = GeneticTopology.parse
    monkeypatch.setattr(GeneticTopology, "parse",
                        lambda self, text: parsed.append(text)
                        or parse(self, text))
    provider = RecordingProvider(load_descriptor_table(path, topo, ds))
    assert len(provider.inner) == 4096 and parsed == []
    tried = []

    def counted_init(*args, original=engine.init_sample):
        sample = original(*args)
        tried.extend(provider.asked)
        return sample

    monkeypatch.setattr(engine, "init_sample", counted_init)
    cfg = small_config(p=30, n=3, k=3, max_generations=2, seed=9)
    run(cfg, topo, provider, ds)
    assert len(tried) > cfg.p    # constant rows were drawn and rejected
    assert parsed == tried


def _init_sample_oracle(cfg, provider, ds, rng):
    """The first sample as drawn from a copied, shuffled list of every known
    genotype: the oracle for `init_sample` over a table, whose keys are
    distinct."""
    candidates = list(map(provider.topology.parse, provider.known_keys()))
    rng.shuffle(candidates)
    sample = []
    for g in candidates:
        ph = provider.provide(g)
        if ph is not None and check_viability(ph, ds, cfg.viability).viable:
            sample.append(ph)
            if len(sample) == cfg.p:
                return sample
    raise AssertionError("the oracle found too few viable rows")


@pytest.mark.parametrize("seed", range(20))
def test_init_sample_over_a_table_matches_a_shuffled_list(seed):
    """Shuffling indices and parsing each drawn key gives the sample, and
    leaves the generator in the state, that shuffling the parsed list did."""
    topo = binary_topology(8)
    ds = normal_dataset(m=20)
    provider = TableProvider(topo, _table_rows(topo, ds, seed=seed))
    cfg = small_config(p=30, n=3, k=3, seed=seed)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    sample = init_sample(cfg, topo, provider, ds, rng)
    expected = _init_sample_oracle(cfg, provider, ds, oracle_rng)
    assert [ph.source_genotype for ph in sample] == \
        [ph.source_genotype for ph in expected]
    assert rng.getstate() == oracle_rng.getstate()


def test_init_sample_failure_counts_every_rejection_reason():
    """An open-ended provider over 8 genotypes: one without a phenotype,
    one viable, the rest constant. Drawing 2 viable genotypes fails, and the
    histogram counts the repeated draws of the admitted one as duplicates
    next to the missing phenotype and the failed criterion."""
    topo = binary_topology(3)
    ds = normal_dataset(m=20)
    values = np.linspace(0.0, 1.0, 20)

    class Provider:
        def provide(self, g):
            if g.key == "aaa":
                return None
            return Phenotype(values if g.key == "bbb" else np.ones(20), g)

        def known_keys(self):
            return None

    cfg = small_config(p=2, n=1, k=1)
    with pytest.raises(InsufficientViableMaterialError) as err:
        init_sample(cfg, topo, Provider(), ds, random.Random(0))
    message = str(err.value)
    assert message.startswith("found 1 of 2 viable distinct genotypes")
    counts = ast.literal_eval(message.split("rejections: ", 1)[1])
    assert set(counts) == {"duplicate", "no_phenotype", "non_constant"}
    # every draw but the one admitted is rejected for exactly one reason
    assert sum(counts.values()) == 200 * cfg.p - 1


def test_children_are_admitted_once_and_duplicates_never_provided():
    """On a 16-genotype space without mutation, children often equal a
    sample member or an earlier child of the same generation. Only a child
    whose key is new reaches provide, in breeding order, and the sample
    keeps distinct keys."""
    topo = binary_topology(4)
    ds = normal_dataset(m=30)
    provider = RecordingProvider(SyntheticProvider(topo, ds, seed=2))
    cfg = small_config(p=8, k=4, pp=0.0, cp=0.0, max_generations=30)
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    children = []

    def bred(a, b, rng, original=genome.crossover):
        pair = original(a, b, rng)
        children.extend(pair)
        return pair

    repeats = {"sample": 0, "sibling": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genome, "crossover", bred)
        for _ in range(cfg.max_generations):
            before = [ph.source_genotype.key for ph in state.sample]
            children.clear()
            provider.asked.clear()
            run_generation(state)
            expected, seen = [], set(before)
            for child in children:
                if child.key in before:
                    repeats["sample"] += 1
                elif child.key in seen:
                    repeats["sibling"] += 1
                else:
                    expected.append(child.key)
                seen.add(child.key)
            assert provider.asked == expected
            keys = [ph.source_genotype.key for ph in state.sample]
            assert len(set(keys)) == len(keys) == cfg.p
    assert repeats["sample"] > 0 and repeats["sibling"] > 0


def test_children_beyond_the_free_slots_are_never_provided(planted_world,
                                                         caplog):
    """With keep_best and 2k > p - n, a generation has 2k children for
    p - n free slots. Admission stops once every free slot is taken, so
    provide is called at most p - n times a generation, and no admitted
    child is dropped with a warning."""
    topo, ds, inner = planted_world
    provider = RecordingProvider(inner)
    cfg = planted_config(seed=3, p=8, n=1, k=4, pp=0.3, cp=0.3,
                         max_generations=40)
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    asked = []
    with caplog.at_level(logging.WARNING, logger="evoreg.engine"):
        for _ in range(cfg.max_generations):
            provider.asked.clear()
            record = run_generation(state)
            assert len(record.best_model_genotypes) == cfg.n
            asked.append(len(provider.asked))
    assert max(asked) == cfg.p - cfg.n
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_run_single_generation_record():
    topo = binary_topology(6)
    ds = normal_dataset(m=25)
    provider = SyntheticProvider(topo, ds, seed=4)
    result = run(small_config(max_generations=1), topo, provider, ds)
    assert result.generations == 1
    rec = result.records[0]
    assert rec.generation == 1
    assert len(rec.sample_genotypes) == 6
    assert rec.valid_regression_count <= 15  # C(6,2)
    assert len(rec.participations) == 6


def test_gene_mutation_mode_mutates_per_gene(monkeypatch):
    """mutation_mode = "gene" breeds through mutate_per_gene and never
    through mutate, and its runs are a function of the seed."""
    topo = binary_topology(8)
    ds = normal_dataset(m=30)
    calls = {"mutate": 0, "mutate_per_gene": 0}

    def counted(name):
        original = getattr(genome, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(genome, name, counted(name))
    cfg = small_config(mutation_mode="gene", pp=0.5, cp=0.5, max_generations=8)

    def log(**changes):
        provider = SyntheticProvider(topo, ds, seed=4)
        return run(replace(cfg, **changes), topo, provider, ds).log_text()

    first = log()
    assert calls["mutate"] == 0 and calls["mutate_per_gene"] > 0
    assert log() == first
    assert log(seed=2) != first
    assert log(mutation_mode="genotype") != first
    assert calls["mutate"] > 0


def test_run_fit_count_small_sample():
    # p = 3, n = 2 sweeps exactly 3 subsets; participation sums respect that
    topo = binary_topology(6)
    ds = normal_dataset(m=25)
    provider = SyntheticProvider(topo, ds, seed=4)
    cfg = small_config(p=3, k=1, max_generations=3)
    result = run(cfg, topo, provider, ds)
    for rec in result.records:
        assert rec.valid_regression_count <= 3
        assert sum(rec.participations) == 2 * rec.valid_regression_count


def test_generation_sweep_matches_brute_best():
    """One generation's best model, valid count and participations equal a
    loop over `combinations` that addresses each fit by its position in that
    order: the engine maps fitter rows back to the same sample members."""
    # activity centred on 0, so that many subsets are invalid and the
    # participations differ between members
    topo = binary_topology(8)
    ds = normal_dataset(m=40, mean=0.0)
    provider = planted_provider(topo, ds, n_planted=16)
    for n in (1, 2, 3):
        cfg = planted_config(seed=3, p=12, n=n)
        rng = random.Random(cfg.seed)
        sample = init_sample(cfg, topo, provider, ds, rng)
        keys = [ph.source_genotype.key for ph in sample]
        fitter = GramFitter(np.vstack([ph.values for ph in sample]),
                            ds.activity, n=n)
        subset, _, value = brute_best(
            fitter, ds, cfg.alpha,
            lambda mo: objective_score(mo, cfg.objective), "max",
        )
        counts = np.zeros(cfg.p, dtype=int)
        for row, members in enumerate(combinations(range(cfg.p), n)):
            for model in fit_assessed_oracle(fitter.fit, row, ds, cfg.alpha):
                counts[list(members)] += model.valid
        rec = run_generation(EvolutionState(cfg, provider, ds, rng, sample))
        assert subset is not None
        assert rec.best_objective == value
        assert rec.best_model_genotypes == tuple(keys[i] for i in subset)
        assert rec.participations == tuple(counts.tolist())
        assert rec.valid_regression_count * n == counts.sum()


# one candidate of a row, as candidate_view lists it
View = namedtuple("View", "with_intercept valid value")


@pytest.mark.parametrize("kind", ["r2", "se"])
def test_generation_best_is_the_first_of_tied_candidates(planted_world, kind,
                                                         monkeypatch):
    """Of equal objective values the first candidate in (row, primary,
    second) order is the generation's best, as a loop over `better` finds
    it, for a maximized and a minimized objective. Values rounded to one
    significant digit by `ObjectiveSpec.values` make ties."""
    topo, ds, provider = planted_world
    cfg = planted_config(seed=6, p=12, n=2, intercept_mode="both",
                         objective=ObjectiveSpec(kind))
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    seen = []
    values, assess = ObjectiveSpec.values, GramFitter.assess

    def tied(spec, *args):
        return np.array([float(f"{v:.1g}") for v in values(spec, *args)])

    def recorded(fitter, *args):
        sweep = assess(fitter, *args)
        seen.extend((row, View(*c)) for row, cands
                    in enumerate(candidate_view(sweep)) for c in cands)
        return sweep

    monkeypatch.setattr(ObjectiveSpec, "values", tied)
    monkeypatch.setattr(GramFitter, "assess", recorded)
    rec = run_generation(state)
    best = None
    for row, cand in seen:
        if cand.valid and (best is None or better(
                cand.value, best[1].value, cfg.objective.direction)):
            best = (row, cand)
    members = list(combinations(range(cfg.p), cfg.n))[best[0]]
    assert rec.best_objective == best[1].value
    assert rec.best_model_genotypes == tuple(rec.sample_genotypes[i]
                                             for i in members)
    assert state.best_model.with_intercept == best[1].with_intercept
    assert sum(c.valid and c.value == best[1].value for _, c in seen) > 1


@pytest.mark.parametrize("kind,pattern", [
    ("r2", (-np.inf, -0.0, 0.0, -0.0)),
    ("r2", (-1.0, 0.0, -0.0, 0.0)),
    ("r2", (0.0, np.inf, -np.inf, np.inf)),
    ("se", (np.inf, 0.0, -0.0, 0.0)),
    ("se", (1.0, -0.0, 0.0, -0.0)),
    ("se", (0.0, -np.inf, np.inf, -np.inf)),
])
def test_generation_best_on_signed_zero_and_infinite_ties(planted_world, kind,
                                                          pattern,
                                                          monkeypatch):
    """The candidate values, cycled through `pattern`, tie 0.0 with -0.0 or
    inf with inf: the generation's best is the candidate at
    ``values.index(max(values))`` (``min`` for a minimized objective), and
    its value keeps its sign."""
    topo, ds, provider = planted_world
    cfg = planted_config(seed=6, p=12, n=2, intercept_mode="both",
                         objective=ObjectiveSpec(kind),
                         selection_aggregate="nalive")
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    sweeps, assess = [], GramFitter.assess

    def patterned(spec, r2, se_s, slope_t):
        return np.resize(np.array(pattern), len(r2))

    def recorded(fitter, *args):
        sweeps.append(assess(fitter, *args))
        return sweeps[-1]

    monkeypatch.setattr(ObjectiveSpec, "values", patterned)
    monkeypatch.setattr(GramFitter, "assess", recorded)
    rec = run_generation(state)
    values = sweeps[0].values.tolist()
    assert len(values) > len(pattern)
    best = values.index((max if kind == "r2" else min)(values))
    assert best > 0
    members = state.fitter.subsets[sweeps[0].rows[best]].tolist()
    assert rec.best_model_genotypes == tuple(rec.sample_genotypes[i]
                                             for i in members)
    assert type(rec.best_objective) is float
    assert math.copysign(1.0, rec.best_objective) == math.copysign(
        1.0, values[best])
    assert rec.best_objective == values[best]


def test_objectives_leave_the_sweep_as_python_floats(planted_world):
    """Every objective value that leaves the sweep is a Python float: each
    generation's record, the run's best, and objective_score; so the run
    log prints plain reprs."""
    topo, ds, provider = planted_world
    for kind in ("r2", "se", "mt", "hr"):
        cfg = planted_config(seed=3, p=12, n=2, max_generations=4,
                             objective=ObjectiveSpec(kind))
        result = run(cfg, topo, provider, ds)
        assert all(type(r.best_objective) is float for r in result.records)
        assert type(result.best_objective) is float
        assert all(type(r.improved) is bool for r in result.records)
        assert type(objective_score(result.best_model, cfg.objective)) is float
        assert "np." not in result.log_text()


def test_both_mode_run_matches_brute_best(monkeypatch):
    """A whole run in "both" mode: every generation's best objective, best
    genotypes, valid count and participations equal the per-subset oracle's
    sweep of the sample that generation starts from."""
    topo = binary_topology(8)
    ds = normal_dataset(m=40, mean=0.0)
    provider = planted_provider(topo, ds, n_planted=16)
    cfg = planted_config(seed=4, p=12, n=2, intercept_mode="both",
                         max_generations=12)
    samples = []
    original = engine.run_generation

    def recorded(state):
        samples.append(list(state.sample))
        return original(state)

    monkeypatch.setattr(engine, "run_generation", recorded)
    result = run(cfg, topo, provider, ds)
    assert len(samples) == len(result.records) == cfg.max_generations
    values = []
    for sample, rec in zip(samples, result.records):
        keys = [ph.source_genotype.key for ph in sample]
        fitter = GramFitter(np.vstack([ph.values for ph in sample]),
                            ds.activity, n=cfg.n)
        subset, _, value = brute_best(
            fitter, ds, cfg.alpha,
            lambda mo: objective_score(mo, cfg.objective), "max", "both",
        )
        counts = np.zeros(cfg.p, dtype=int)
        for row, members in enumerate(fitter.subsets.tolist()):
            for model in fit_assessed_oracle(fitter.fit, row, ds, cfg.alpha,
                                             "both"):
                counts[members] += model.valid
        assert subset is not None
        assert rec.best_objective == value
        assert rec.best_model_genotypes == tuple(keys[i] for i in subset)
        assert rec.participations == tuple(counts.tolist())
        assert rec.valid_regression_count * cfg.n == counts.sum()
        values.append(value)
    assert result.best_objective == max(values)


def test_run_deterministic_same_seed(planted_world):
    topo, ds, _ = planted_world
    provider = planted_provider(topo, ds)
    cfg = planted_config(seed=5, max_generations=30)
    log_a = run(cfg, topo, provider, ds).log_text()
    log_b = run(cfg, topo, planted_provider(topo, ds), ds).log_text()
    assert log_a == log_b
    other = run(planted_config(seed=6, max_generations=30), topo, provider, ds)
    assert other.log_text() != log_a


def test_run_sample_size_constant(planted_world):
    topo, ds, provider = planted_world
    result = run(planted_config(seed=2, max_generations=60), topo, provider, ds)
    for rec in result.records:
        assert len(rec.sample_genotypes) == 20
        assert len(set(rec.sample_genotypes)) == 20  # no duplicates either


def test_run_keep_best_monotone(planted_world):
    topo, ds, provider = planted_world
    result = run(planted_config(seed=3, max_generations=100), topo, provider, ds)
    values = [r.best_objective for r in result.records
              if not math.isnan(r.best_objective)]
    assert values, "expected at least one valid model"
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    improved = [r.best_objective for r in result.records if r.improved]
    assert all(a < b for a, b in zip(improved, improved[1:]))


def test_run_elite_members_survive(planted_world):
    topo, ds, provider = planted_world
    result = run(planted_config(seed=4, max_generations=50), topo, provider, ds)
    recs = result.records
    for prev, nxt in zip(recs, recs[1:]):
        if prev.best_model_genotypes:
            for g in prev.best_model_genotypes:
                assert g in nxt.sample_genotypes


def test_run_replacement_bounded_by_children(planted_world):
    topo, ds, provider = planted_world
    cfg = planted_config(seed=8, max_generations=40)
    result = run(cfg, topo, provider, ds)
    recs = result.records
    for prev, nxt in zip(recs, recs[1:]):
        new = set(nxt.sample_genotypes) - set(prev.sample_genotypes)
        assert len(new) <= 2 * cfg.k


def test_run_target_objective_stops_early(planted_world):
    topo, ds, provider = planted_world
    cfg = planted_config(seed=0, max_generations=200, target_objective=0.95)
    result = run(cfg, topo, provider, ds)
    assert result.best_objective >= 0.95
    assert result.generations < 200


def test_run_every_sampled_genotype_viable():
    # a provider whose non-planted cells are constant forces viability filtering
    topo = binary_topology(5)
    ds = normal_dataset(m=30)
    rng = np.random.default_rng(9)
    table = {}
    for i, g in enumerate(topo.all_genotypes()):
        key = g.render()
        if i % 3 == 0:
            table[key] = np.full(30, float(i))  # nonviable: constant
        else:
            table[key] = rng.uniform(0, 1, 30)
    provider = TableProvider(topo, table)
    cfg = small_config(p=8, k=3, max_generations=10, seed=3)
    result = run(cfg, topo, provider, ds)
    constant_keys = {
        g.render() for i, g in enumerate(topo.all_genotypes()) if i % 3 == 0
    }
    for rec in result.records:
        assert not (set(rec.sample_genotypes) & constant_keys)


def test_run_rejects_space_smaller_than_sample():
    topo = binary_topology(2)  # N = 4
    ds = normal_dataset(m=20)
    provider = SyntheticProvider(topo, ds, seed=0)
    with pytest.raises(ValueError):
        run(small_config(p=6), topo, provider, ds)


def _parse_log_line(line):
    """One generation line of a run log, back to GenerationRecord fields."""
    gen, improved, best, model, valid, sample = line.split("\t")
    keys = {}
    for name, field in (("model", model), ("valid", valid),
                        ("sample", sample)):
        assert field.startswith(name + "=")
        keys[name] = field[len(name) + 1:]
    return dict(
        generation=int(gen),
        improved=bool(int(improved)),
        best_objective=float(best),
        best_model_genotypes=tuple(keys["model"].split(","))
        if keys["model"] else (),
        valid_regression_count=int(keys["valid"]),
        sample_genotypes=tuple(keys["sample"].split(",")),
    )


def test_log_text_format(planted_world):
    """Every log line parses back to its record field by field, the best
    objective exactly, NaN and an empty model included."""
    topo, ds, provider = planted_world
    result = run(planted_config(seed=1, max_generations=3), topo, provider, ds)
    # a generation without a valid model, as the log would show it
    result.records.append(replace(
        result.records[-1], generation=4, improved=False,
        best_objective=float("nan"), best_model_genotypes=(),
        valid_regression_count=0,
    ))
    lines = result.log_text().splitlines()
    assert lines[0] == (f"# config={result.config.fingerprint()}"
                        f"\tseed={result.config.seed}")
    assert len(lines) == 1 + len(result.records)
    for line, rec in zip(lines[1:], result.records):
        parsed = _parse_log_line(line)
        best = parsed.pop("best_objective")
        assert best == rec.best_objective or (
            math.isnan(best) and math.isnan(rec.best_objective))
        assert parsed == {k: getattr(rec, k) for k in parsed}
    assert any(rec.improved for rec in result.records)


def test_intercept_mode_both_runs(planted_world):
    topo, ds, provider = planted_world
    cfg = planted_config(seed=12, max_generations=20, intercept_mode="both")
    result = run(cfg, topo, provider, ds)
    assert result.generations == 20


def test_tiny_space_reaches_exhaustive_optimum():
    # N = 12 genotypes, p = 6: evolution should find the global best subset
    topo = GeneticTopology(
        (
            Gene("g0", ("a", "b")),
            Gene("g1", ("c", "d")),
            Gene("g2", ("e", "f", "g")),
        )
    )
    assert genome_size(topo) == 12
    ds = normal_dataset(m=30, seed=21)
    spec = ObjectiveSpec("r2", 1.0)
    alpha = 0.3
    # independent brute force over the whole space, the same in every trial
    provider = SyntheticProvider(topo, ds, seed=77)
    panel = np.vstack([provider.provide(g).values
                       for g in topo.all_genotypes()])
    fitter = GramFitter(panel, ds.activity, n=2)
    _, best_model, best_value = brute_best(
        fitter, ds, alpha, lambda mo: objective_score(mo, spec), "max",
    )
    assert best_model is not None
    hits = 0
    trials = 100
    for seed in range(trials):
        provider = SyntheticProvider(topo, ds, seed=77)
        cfg = EvolutionConfig(
            p=6, n=2, k=2, pp=0.2, cp=0.2,
            objective=spec,
            selection=StrategySpec("tournament"),
            survival=StrategySpec("proportional"),
            selection_aggregate="max",
            alpha=alpha,
            max_generations=300,
            # a run stops once it is within the hit tolerance below
            target_objective=best_value - 1e-9 * abs(best_value),
            seed=seed,
        )
        result = run(cfg, topo, provider, ds)
        if result.best_objective == pytest.approx(best_value, rel=1e-9):
            hits += 1
    assert hits / trials >= 0.95


@pytest.mark.parametrize("world", ["synthetic", "partial_table"])
@pytest.mark.parametrize("keep_best", [True, False])
@pytest.mark.parametrize("mutation_mode", ["genotype", "gene"])
def test_state_arrays_follow_the_sample(world, keep_best, mutation_mode,
                                        planted_world):
    """The state's allele rows are built once from the sample and rewritten
    where a child replaces a member, and the run's fitter refits its panel
    at those slots: after every generation each slot's allele row equals
    its member's allele indices, and the fitter's panel row the values of
    the member it swept, bit for bit. The fitter copies the arrays it is
    given, so a caller's later writes leave its panel as it was."""
    topo, ds, provider = (planted_world if world == "synthetic"
                          else partial_table_world())
    cfg = planted_config(seed=6, p=12, n=2, k=3, pp=0.3, cp=0.3,
                         keep_best=keep_best, mutation_mode=mutation_mode,
                         max_generations=15)
    rng = random.Random(cfg.seed)
    state = EvolutionState(cfg, provider, ds, rng,
                           init_sample(cfg, topo, provider, ds, rng))
    replaced = 0
    for _ in range(cfg.max_generations):
        before = list(state.sample)
        run_generation(state)
        replaced += sum(a is not b for a, b in zip(before, state.sample))
        swept = np.vstack([ph.values for ph in before])
        assert state.fitter.panel.dtype == np.float64
        assert state.fitter.panel.tobytes() == swept.tobytes()
        assert state.alleles.dtype == np.intp
        assert state.alleles.tolist() == [
            list(ph.source_genotype.allele_index) for ph in state.sample]
    assert replaced > cfg.max_generations
    given = np.vstack([ph.values for ph in state.sample])
    want = given.copy()
    fitter = GramFitter(given, ds.activity, cfg.n)
    values = given[[1]]
    fitter.refit([0], values)
    want[0] = want[1]
    given[:], values[:] = np.nan, np.nan
    assert fitter.panel.tobytes() == want.tobytes()
