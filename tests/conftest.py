from itertools import combinations

import numpy as np
import pytest

from evoreg.descriptors import (
    Dataset,
    PlantedSignal,
    SyntheticProvider,
    pick_planted_genotypes,
)
from evoreg.engine import EvolutionConfig
from evoreg.genome import Gene, GeneticTopology
from evoreg.regress import better, fit_assessed
from evoreg.scores import ObjectiveSpec
from evoreg.strategy import StrategySpec


def binary_topology(n_genes):
    return GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b")) for i in range(n_genes))
    )


def ncd(a, b):
    """Number of gene positions at which two genotypes differ: the pairwise
    oracle for the survival scores' allele-matrix distances."""
    assert a.topology == b.topology
    return sum(x != y for x, y in zip(a.allele_index, b.allele_index))


def brute_best(fitter, ds, alpha, objective_fn, direction):
    """The best valid model over every n-subset of a GramFitter's panel, as
    (subset, model, value), or (None, None, None) when none is valid: one
    fit_assessed call per subset, in lexicographic order, the first strictly
    better model winning. The oracle for the engine's sweep."""
    best = (None, None, None)
    p = fitter.panel.shape[0]
    for row, subset in enumerate(combinations(range(p), fitter.n)):
        for model in fit_assessed(fitter.fit, row, ds, alpha):
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


@pytest.fixture(scope="session")
def planted_world():
    """Topology (N=1024), activity data, and planted provider shared by the
    engine-level tests."""
    topology = binary_topology(10)
    dataset = normal_dataset()
    provider = planted_provider(topology, dataset)
    return topology, dataset, provider
