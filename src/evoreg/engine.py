"""The evolution loop: full-sweep regression scoring, selection of parent
pairs, crossover/mutation, viability filtering of children, and similarity-
driven survival replacement (selection and survival draw alike: transform
the scores, then extract), generation after generation.

One run owns all its mutable state and a single random.Random seeded from the
config, so identical configs reproduce byte-identical logs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from itertools import compress

import numpy as np

from . import genome as gn, regress
from .descriptors import (CRITERIA, Dataset, Phenotype, Provider,
                          ViabilityPolicy, screen_viability)
from .descriptors import check_viability  # noqa: F401  (bench/tracing.py wraps it by name)
from .genome import GeneticTopology, Genotype
from .regress import GramFitter, RegressionModel, better, fit_assessed
from .scores import (
    SELECTION_AGGREGATES,
    NormalizationState,
    ObjectiveSpec,
    objective_score,  # noqa: F401  (bench/tracing.py wraps it by name)
    selection_direction,
    selection_scores,
    survival_scores,
    transform_scores,
)
from .strategy import StrategySpec, extract

__all__ = [
    "EvolutionConfig",
    "GenerationRecord",
    "RunResult",
    "EvolutionState",
    "InsufficientViableMaterialError",
    "init_sample",
    "run_generation",
    "run",
]

logger = logging.getLogger(__name__)

_INIT_ATTEMPTS_PER_SLOT = 200


class InsufficientViableMaterialError(RuntimeError):
    """The provider could not supply enough distinct viable genotypes."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Everything one evolution run needs besides topology, provider, data.

    Each generation breeds 2k children. A child can only replace a sample
    slot outside the elite (the best model's n members under keep_best), so
    when 2k exceeds the free slots, children are admitted in breeding order
    until every free slot is taken, and the rest are never provided or
    screened.
    """

    p: int                      # sample size
    n: int                      # regression multiplicity
    k: int                      # parent pairs per generation
    pp: float = 0.05            # parent mutation probability
    cp: float = 0.05            # child mutation probability
    keep_best: bool = True      # elitism: protect best model's genotypes
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    selection: StrategySpec = field(
        default_factory=lambda: StrategySpec("proportional")
    )
    survival: StrategySpec = field(
        default_factory=lambda: StrategySpec("proportional")
    )
    selection_aggregate: str = "nalive"
    q: float = 1.0              # survival score-distance exponent
    r: float = 1.0              # survival genotype-distance exponent
    alpha: float = 0.05         # coefficient significance level
    viability: ViabilityPolicy = field(default_factory=ViabilityPolicy)
    max_generations: int = 100
    target_objective: float | None = None
    seed: int = 0
    intercept_mode: str = "fallback"   # or "both"
    mutation_mode: str = "genotype"    # or "gene" (per-gene flips)

    def __post_init__(self):
        if not 1 <= self.n < self.p:
            raise ValueError("need 1 <= n < p")
        if not 1 <= self.k or 2 * self.k > self.p:
            raise ValueError("need 1 <= k and 2k <= p")
        for name in ("pp", "cp"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        for name in ("q", "r"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        target = self.target_objective
        if target is not None and math.isnan(target):
            raise ValueError("target_objective must not be NaN")
        # the t tails are accurate to 1e-10 absolute, so no smaller alpha
        if not 1e-10 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [1e-10, 1)")
        if self.intercept_mode not in ("fallback", "both"):
            raise ValueError(f"unknown intercept_mode {self.intercept_mode!r}")
        if self.mutation_mode not in ("genotype", "gene"):
            raise ValueError(f"unknown mutation_mode {self.mutation_mode!r}")
        if self.selection_aggregate not in SELECTION_AGGREGATES:
            raise ValueError(
                f"unknown selection_aggregate {self.selection_aggregate!r}"
            )

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_objective: float          # this generation's best valid model (NaN if none)
    improved: bool                 # strictly better than all previous generations
    best_model_genotypes: tuple[str, ...]
    sample_genotypes: tuple[str, ...]
    valid_regression_count: int
    participations: tuple[int, ...]  # valid-model memberships per sample slot


@dataclass
class RunResult:
    config: EvolutionConfig
    records: list[GenerationRecord]
    best_model: RegressionModel | None
    best_objective: float
    best_genotypes: tuple[str, ...]

    @property
    def generations(self) -> int:
        return len(self.records)

    def log_text(self) -> str:
        """Line-oriented TSV run log with a config fingerprint header."""
        lines = [f"# config={self.config.fingerprint()}\tseed={self.config.seed}"]
        for rec in self.records:
            lines.append(
                f"{rec.generation}\t{int(rec.improved)}\t{rec.best_objective!r}"
                f"\tmodel={','.join(rec.best_model_genotypes)}"
                f"\tvalid={rec.valid_regression_count}"
                f"\tsample={','.join(rec.sample_genotypes)}"
            )
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        model, best = self.best_model, self.best_objective
        return {
            "config_fingerprint": self.config.fingerprint(),
            "seed": self.config.seed,
            "generations": self.generations,
            # strict JSON: null also for a best that is not finite, such as
            # an exact fit's mt score; best_r2 tells it from no model
            "best_objective": best if model and math.isfinite(best) else None,
            "best_genotypes": list(self.best_genotypes),
            "best_coefficients": list(model.coefficients) if model else None,
            "best_with_intercept": model.with_intercept if model else None,
            "best_r2": model.r2 if model else None,
            "improving_generations": sum(r.improved for r in self.records),
        }


@dataclass
class EvolutionState:
    """Mutable state of one run. A sample member is the phenotype its
    provider returned; its genotype is ``source_genotype``. ``alleles`` holds
    each slot's allele indices, rewritten where a child replaces a member;
    ``fitter``, built at the first sweep, refits the slots in ``replaced``."""

    cfg: EvolutionConfig
    provider: Provider
    dataset: Dataset
    rng: random.Random
    sample: list[Phenotype]
    generation: int = 0
    best_model: RegressionModel | None = None
    best_objective: float = float("nan")
    best_genotypes: tuple[str, ...] = ()
    sel_norm: NormalizationState | None = None
    sur_norm: NormalizationState | None = None
    fitter: GramFitter | None = None
    replaced: list[int] = field(default_factory=list)
    alleles: np.ndarray = field(init=False)

    def __post_init__(self):
        self.alleles = np.array([ph.source_genotype.allele_index
                                 for ph in self.sample], dtype=np.intp)
        if (bounds := self.cfg.selection.normalization) is not None:
            self.sel_norm = NormalizationState(*bounds)
        if (bounds := self.cfg.survival.normalization) is not None:
            self.sur_norm = NormalizationState(*bounds)


def _admit(candidates: Iterable[Genotype], need: int, seen: set[str],
           provider: Provider, ds: Dataset, policy: ViabilityPolicy
           ) -> tuple[list[Phenotype], Counter[str]]:
    """The one rule for entering the sample, when it is drawn and when
    children are bred: candidates in order, each with a key not in `seen`, a
    phenotype and every viability screen passed, until `need` are admitted.
    Returns them, and the rejections counted by reason (duplicate,
    no_phenotype, or the failed criteria); admitted keys join `seen`. A
    round takes candidates lazily until it holds as many new keys as could
    still be admitted, provides each in order, screens them in one call and
    admits the viable ones in order: it takes the candidates one-at-a-time
    admission would. A key rejected before counts its reasons again, without
    a second provide."""
    admitted: list[Phenotype] = []
    rejected: Counter[str] = Counter()
    reasons: dict[str, tuple[str, ...]] = {}    # by provided key; () admitted
    candidates = iter(candidates)
    while len(admitted) < need:
        keys, provided = [], {}
        for g in candidates:
            keys.append(key := g.key)
            if key not in seen and key not in reasons and key not in provided:
                provided[key] = provider.provide(g)
                if len(provided) == need - len(admitted):
                    break
        if not keys:
            break
        reasons.update(dict.fromkeys(provided, ("no_phenotype",)))
        screened = [k for k, ph in provided.items() if ph is not None]
        failed = screen_viability([provided[k].values for k in screened],
                                  ds, policy)
        for key, row in zip(screened, failed.tolist()):
            reasons[key] = tuple(compress(CRITERIA, row))
        for key in keys:
            if key in seen:
                rejected["duplicate"] += 1
            elif reasons[key]:
                rejected.update(reasons[key])
            else:
                seen.add(key)
                admitted.append(provided[key])
    return admitted, rejected


def init_sample(
    cfg: EvolutionConfig,
    topology: GeneticTopology,
    provider: Provider,
    ds: Dataset,
    rng: random.Random,
) -> list[Phenotype]:
    """Assemble p distinct genotypes with viable phenotypes, admitted in
    rounds by `_admit`. Providers with an enumerable key set are sampled
    from that set (shuffled); open-ended providers are rejection-sampled up
    to a retry bound. Candidates are drawn lazily, as many as admission
    takes. Failure reports a histogram of the reasons that rejected them."""
    known = provider.known_keys()
    if known is not None:
        # map is lazy: only the keys drawn are parsed
        keys = list(known)
        rng.shuffle(keys)
        candidates = map(topology.parse, keys)
    else:
        candidates = (gn.random_genotype(topology, rng)
                      for _ in range(_INIT_ATTEMPTS_PER_SLOT * cfg.p))
    sample, rejected = _admit(candidates, cfg.p, set(), provider, ds,
                              cfg.viability)
    if len(sample) == cfg.p:
        return sample
    raise InsufficientViableMaterialError(
        f"found {len(sample)} of {cfg.p} viable distinct genotypes; "
        f"rejections: {dict(rejected) or 'none'}"
    )


def _mutate(g: Genotype, prob: float, cfg: EvolutionConfig, rng) -> Genotype:
    if cfg.mutation_mode == "gene":
        return gn.mutate_per_gene(g, prob, rng)
    return gn.mutate(g, prob, rng)


def _draw(spec: StrategySpec, norm: NormalizationState | None, fs,
          direction: str, count: int, rng) -> tuple[np.ndarray, list[int]]:
    """One strategy draw, for parents and for victims alike: the scores
    `fs`, whose sense is `direction`, through `spec`'s transforms, and
    `count` indices extracted from the result by `spec`'s method."""
    fs = transform_scores(fs, norm, spec.significant_digits, spec.use_ranks)
    return fs, extract(spec.method, fs, direction, count, rng)


def run_generation(state: EvolutionState) -> GenerationRecord:
    """Advance the sample by one generation and record what happened."""
    cfg, rng, sample = state.cfg, state.rng, state.sample
    p, direction = cfg.p, cfg.objective.direction

    # full sweep: every n-subset of the sample, one table row each, by the
    # run's fitter, built at the first sweep (only the error-sum objective
    # needs residual sums at its exponent), then refitted at replaced slots
    keys = [ph.source_genotype.key for ph in sample]
    if state.fitter is None:
        fit_s = cfg.objective.s if cfg.objective.kind == "se" else 2.0
        state.fitter = GramFitter([ph.values for ph in sample],
                                  state.dataset.activity, cfg.n, s=fit_s)
    elif replaced := state.replaced:
        state.fitter.refit(replaced, [sample[i].values for i in replaced])
    fitter, state.replaced = state.fitter, []
    sweep = fitter.assess(cfg.alpha, cfg.intercept_mode == "both",
                          cfg.objective.values)
    # one call per subset, only where an instrument has replaced the name:
    # the benchmark's tracer counts subsets and candidates by these calls.
    # ROADMAP item 1 step 1 deletes the pass together with the tracer
    if fit_assessed is not regress.fit_assessed:
        deque(map(fit_assessed, sweep.shapes.tolist()), maxlen=0)
    values = sweep.values
    # the first best value: argmax and argmin return the first of equal
    # values, comparing as `better` does
    best = ((np.argmax if direction == "max" else np.argmin)(values)
            if values.size else None)
    best_value = float(values[best]) if best is not None else float("nan")
    # per slot, over the rows that hold it; a row can hold two candidates
    row_counts = np.bincount(sweep.rows, minlength=len(fitter.subsets))
    participations = row_counts[fitter.slot_rows].sum(axis=1)
    best_members = (fitter.subsets[sweep.rows[best]].tolist()
                    if best is not None else [])
    best_keys = tuple(keys[i] for i in best_members)

    improved = best is not None and (state.best_model is None or better(
        best_value, state.best_objective, direction))
    if improved:
        state.best_model = fitter.fit(sweep.rows[best],
                                      sweep.with_intercept[best])
        state.best_objective = best_value
        state.best_genotypes = best_keys

    # selection scores and parent extraction
    sel_fs, parent_idx = _draw(
        cfg.selection, state.sel_norm,
        selection_scores(fitter.subsets, fitter.slot_rows, participations,
                         sweep.rows, values, cfg.selection_aggregate,
                         direction),
        selection_direction(cfg.selection_aggregate, cfg.objective),
        2 * cfg.k, rng)

    # parents are mutated on copies; the sample itself is untouched here
    parents = [_mutate(sample[i].source_genotype, cfg.pp, cfg, rng)
               for i in parent_idx]
    children: list[Genotype] = []
    for a, b in zip(parents[0::2], parents[1::2]):
        c1, c2 = gn.crossover(a, b, rng)
        children.append(_mutate(c1, cfg.cp, cfg, rng))
        children.append(_mutate(c2, cfg.cp, cfg, rng))

    # a child replaces a slot outside the elite (the best model's members
    # under keep_best), so admission stops once every such slot is taken
    elite = set(best_members) if cfg.keep_best else ()
    eligible = [i for i in range(p) if i not in elite]

    # admission; duplicates of sample members (or of earlier admitted
    # children) would corrupt the similarity scores, so they are rejected
    viable_children, _ = _admit(children, len(eligible), set(keys),
                                state.provider, state.dataset, cfg.viability)

    record = GenerationRecord(
        generation=state.generation + 1,
        best_objective=best_value,
        improved=improved,
        best_model_genotypes=best_keys,
        sample_genotypes=tuple(keys),
        valid_regression_count=len(values),
        participations=tuple(participations.tolist()),
    )

    if viable_children:
        v = len(viable_children)
        if len(eligible) >= 2:
            vs = survival_scores(sample[0].source_genotype.topology,
                                 state.alleles[eligible], sel_fs[eligible],
                                 cfg.q, cfg.r)
            _, victims_rel = _draw(cfg.survival, state.sur_norm, vs, "max",
                                   v, rng)
            victims = [eligible[i] for i in victims_rel]
        else:
            victims = eligible[:v]
        for slot, child in zip(victims, viable_children):
            sample[slot] = child
            state.replaced.append(slot)
            state.alleles[slot] = child.source_genotype.allele_index
    else:
        logger.debug("generation %d: no viable children", state.generation + 1)

    state.generation += 1
    return record


def run(
    cfg: EvolutionConfig,
    topology: GeneticTopology,
    provider: Provider,
    ds: Dataset,
) -> RunResult:
    """Run the evolution until the objective target is met or the generation
    budget is exhausted."""
    n_space = gn.genome_size(topology)
    if not cfg.n < cfg.p < n_space:
        raise ValueError(
            f"need n < p < N (n={cfg.n}, p={cfg.p}, N={n_space})"
        )
    rng = random.Random(cfg.seed)
    sample = init_sample(cfg, topology, provider, ds, rng)
    state = EvolutionState(cfg, provider, ds, rng, sample)
    records: list[GenerationRecord] = []
    for _ in range(cfg.max_generations):
        rec = run_generation(state)
        records.append(rec)
        if (cfg.target_objective is not None and state.best_model is not None
                and not better(cfg.target_objective, state.best_objective,
                               cfg.objective.direction)):
            break
    return RunResult(
        config=cfg,
        records=records,
        best_model=state.best_model,
        best_objective=state.best_objective,
        best_genotypes=state.best_genotypes,
    )
