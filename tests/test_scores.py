import math
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evoreg.genome import (
    Gene,
    GeneticTopology,
    Genotype,
)
from evoreg.regress import GramFitter, RegressionModel, _all_subsets, ols_fit
from evoreg.scores import (
    OBJECTIVE_KINDS,
    SIMILARITY_CAP,
    WORST_MIN_SCORE,
    NormalizationState,
    ObjectiveSpec,
    _midranks,
    objective_score,
    round_significant,
    selection_direction,
    selection_scores,
    survival_scores,
    transform_scores,
)
from evoreg.strategy import _groups
from tests.conftest import (ncd, scalar_objective, selection_scores_oracle,
                            sweep_inputs)
from tests.test_regress import make_dataset, make_phenotypes


def model_stub(r2=0.5, t_stats=(3.0,), with_intercept=False, se=1.0, s=2.0):
    return RegressionModel(
        with_intercept=with_intercept,
        coefficients=tuple(1.0 for _ in t_stats),
        t_stats=tuple(t_stats),
        r2=r2,
        se_s=se,
        s=s,
        df=10,
    )


def test_objective_spec_defaults_and_direction():
    assert ObjectiveSpec("se").s == 2.0
    assert ObjectiveSpec("r2").s == 1.0
    assert ObjectiveSpec("se").direction == "min"
    assert ObjectiveSpec("hr").direction == "min"
    assert ObjectiveSpec("r2").direction == "max"
    assert ObjectiveSpec("mt").direction == "max"
    with pytest.raises(ValueError):
        ObjectiveSpec("hr", 1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec("r2", -1.0)
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="exponent s"):
            ObjectiveSpec("r2", s)
    with pytest.raises(ValueError):
        ObjectiveSpec("nope")


def test_objective_exact_fit_se_and_r2():
    x = np.arange(12.0)
    y = 2 * x + 1
    model = ols_fit(make_phenotypes([x]), make_dataset(y), True)
    assert objective_score(model, ObjectiveSpec("se", 2.0)) == pytest.approx(
        0.0, abs=1e-16
    )
    assert objective_score(model, ObjectiveSpec("r2", 1.0)) == pytest.approx(1.0)


def test_objective_se_uses_exponent():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.5, 0.5, -0.5, -0.5]) + x
    model = ols_fit(make_phenotypes([x]), make_dataset(y), True, s=1.0)
    design = np.column_stack([np.ones_like(x), x])   # intercept first
    expected = float(np.sum(np.abs(y - design @ model.coefficients)))
    assert objective_score(model, ObjectiveSpec("se", 1.0)) == pytest.approx(expected)
    # the error sum exists only at the exponent the model was fitted with
    with pytest.raises(ValueError, match="exponent"):
        objective_score(model, ObjectiveSpec("se", 2.0))


def test_objective_mt_power_mean_of_equal_values():
    for s in (0.5, 1.0, 2.0, 3.0):
        model = model_stub(t_stats=(4.2, -4.2, 4.2))
        assert objective_score(model, ObjectiveSpec("mt", s)) == pytest.approx(4.2)


def test_objective_mt_monotone_in_exponent():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        ts = tuple(rng.uniform(0.1, 8.0, size=3))
        model = model_stub(t_stats=ts)
        s1, s2 = sorted(rng.uniform(0.2, 5.0, size=2))
        m1 = objective_score(model, ObjectiveSpec("mt", s1))
        m2 = objective_score(model, ObjectiveSpec("mt", s2))
        assert m1 <= m2 + 1e-12


def test_objective_mt_uses_slopes_only():
    with_icpt = model_stub(t_stats=(99.0, 2.0, 4.0), with_intercept=True)
    bare = model_stub(t_stats=(2.0, 4.0), with_intercept=False)
    for s in (1.0, 2.0):
        spec = ObjectiveSpec("mt", s)
        assert objective_score(with_icpt, spec) == pytest.approx(
            objective_score(bare, spec)
        )


def test_objective_mt_refuses_a_model_without_slopes():
    """mt is a mean over slope t statistics, and an intercept-only model
    has none: its score is refused, not taken as the mean of nothing."""
    intercept_only = model_stub(t_stats=(5.0,), with_intercept=True)
    assert intercept_only.slope_t_stats == ()
    with pytest.raises(ValueError,
                       match="^mt objective needs slope t statistics$"):
        objective_score(intercept_only, ObjectiveSpec("mt", 2.0))


def test_objective_mt_sums_left_to_right():
    """mt adds its terms left to right, so it gives the same bits on every
    Python version: from 3.12 the built-in sum() of floats is compensated,
    and the compensated sum of these terms differs from the plain one."""
    ts = (1.0, 1e-16, 1e-16)
    plain = ((1.0 + 1e-16) + 1e-16) / 3
    assert plain != math.fsum(ts) / 3
    spec = ObjectiveSpec("mt", 1.0)
    assert spec.values(np.zeros(1), np.zeros(1), np.array([ts])).tolist() == \
        [plain]
    assert objective_score(model_stub(t_stats=ts), spec) == plain


@pytest.mark.parametrize("spec", [
    ObjectiveSpec(kind, s) for kind in OBJECTIVE_KINDS
    for s in (0.5, 1.0, 1.5, 2.0, 3.0) if (kind, s) != ("hr", 1.0)
], ids=lambda o: f"{o.kind}-{o.s}")
def test_objective_values_are_one_array_of_the_scalar_bits(spec):
    """ObjectiveSpec.values gives one float64 array whose bits equal the
    per-element Python oracle for every kind and exponent: r2 at s = 1 too,
    on 0.0, the smallest subnormal and 1.0; error sums up to the largest
    float and inf; t statistics of zero, subnormal and infinite size. An
    empty batch is an empty float64 array."""
    rng = np.random.default_rng(48)
    r2 = np.concatenate(([0.0, 5e-324, 1e-165, 1e-99, 1.0, 0.5],
                         rng.random(200)))
    se_s = np.concatenate(([0.0, 5e-324, 1e-99, 1.7e308, np.inf, 1.0],
                           rng.exponential(size=200)))
    slope_t = np.concatenate(([[0.0, 5e-324], [-5e-324, 1e-165],
                               [np.inf, 1.0], [-np.inf, -np.inf],
                               [1e-99, 1e99], [-2.0, 0.0]],
                              rng.normal(scale=5.0, size=(200, 2))))
    got = spec.values(r2, se_s, slope_t)
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64 and got.shape == r2.shape
    want = [scalar_objective(model_stub(r2=r, t_stats=tuple(ts), se=e,
                                        s=spec.s), spec)
            for r, e, ts in zip(r2.tolist(), se_s.tolist(), slope_t.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    empty = spec.values(np.empty(0), np.empty(0), np.empty((0, 2)))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_objective_mt_past_the_float_range_is_infinite():
    """A finite |t| ** s past the largest float scores inf, as an infinite
    t does, and so does a power mean whose outer power ** (1 / s) passes it
    (s = 0.25 at the largest t); at s = 0.5 the largest t stays finite.
    `objective_score` gives the same values."""
    big = sys.float_info.max
    for s, ts, want in ((2.0, [1.7e308, 1.0], math.inf),
                        (0.25, [big], math.inf),
                        (0.5, [big, big], 1.7976931348623155e308)):
        spec = ObjectiveSpec("mt", s)
        got = spec.values(np.zeros(1), np.zeros(1), np.array([ts]))
        assert got.tolist() == [want]
        assert objective_score(model_stub(t_stats=tuple(ts)), spec) == want


def test_objective_hr_direct_value():
    model = model_stub(r2=0.5)
    assert objective_score(model, ObjectiveSpec("hr", 2.0)) == pytest.approx(1.0)


def test_objective_hr_boundaries():
    for s in (0.5, 2.0, 3.0):
        assert objective_score(model_stub(r2=0.0), ObjectiveSpec("hr", s)) == \
            pytest.approx(0.0, abs=1e-12)
        assert objective_score(model_stub(r2=1.0), ObjectiveSpec("hr", s)) == \
            pytest.approx(0.0, abs=1e-12)


# --- selection scores ------------------------------------------------------------


def scored(p, models, spec):
    """`selection_scores`' sweep inputs and objective values for (subset,
    model) pairs over p genotypes, one model per subset, in row order."""
    n = len(models[0][0]) if models else 2
    subsets = map(tuple, _all_subsets(p, n).tolist())
    row_of = {subset: row for row, subset in enumerate(subsets)}
    rows = np.array([row_of[subset] for subset, _ in models], dtype=np.intp)
    return (*sweep_inputs(p, n, rows),
            [objective_score(model, spec) for _, model in models])


def test_selection_nalive_counts_memberships():
    models = [
        ((0, 1), model_stub()),
        ((0, 2), model_stub()),
        ((1, 2), model_stub()),
    ]
    spec = ObjectiveSpec("r2")
    fs = selection_scores(*scored(4, models, spec), "nalive", spec.direction)
    assert fs.tolist() == [2.0, 2.0, 2.0, 0.0]


def test_selection_zero_model_worst_value_for_direction():
    spec = ObjectiveSpec("se")
    fs = selection_scores(*scored(3, [((0, 1), model_stub())], spec), "min",
                          spec.direction)
    assert fs[2] == WORST_MIN_SCORE
    spec = ObjectiveSpec("r2")
    fs = selection_scores(*scored(3, [((0, 1), model_stub())], spec), "max",
                          spec.direction)
    assert fs[2] == 0.0


def test_selection_empty_model_set_flags_worst(caplog):
    """An empty sweep logs its warning and gives every genotype the worst
    score of the direction, under every aggregate but nalive's 0 count."""
    for aggregate in ("nalive", "min", "max", "avg"):
        for direction, worst in (("max", 0.0), ("min", WORST_MIN_SCORE)):
            caplog.clear()
            fs = selection_scores(*scored(3, [], ObjectiveSpec("r2")),
                                  aggregate, direction)
            assert "no valid regressions" in caplog.text
            want = 0.0 if aggregate == "nalive" else worst
            assert fs.tolist() == [want] * 3


def test_selection_aggregates_match_membership_oracle():
    models = [
        ((0, 1), model_stub(r2=0.9)),
        ((0, 2), model_stub(r2=0.5)),
        ((1, 2), model_stub(r2=0.7)),
    ]
    spec = ObjectiveSpec("r2", 1.0)
    rows = scored(3, models, spec)
    # brute-force membership oracle
    expected_avg = {0: (0.9 + 0.5) / 2, 1: (0.9 + 0.7) / 2, 2: (0.5 + 0.7) / 2}
    avg = selection_scores(*rows, "avg", spec.direction)
    for i in range(3):
        assert avg[i] == pytest.approx(expected_avg[i])
    assert selection_scores(*rows, "min", spec.direction).tolist() == \
        [0.5, 0.7, 0.5]
    assert selection_scores(*rows, "max", spec.direction).tolist() == \
        [0.9, 0.9, 0.7]


def test_selection_direction_mapping():
    assert selection_direction("nalive", ObjectiveSpec("se")) == "max"
    assert selection_direction("avg", ObjectiveSpec("se")) == "min"
    assert selection_direction("avg", ObjectiveSpec("mt")) == "max"


# --- transform pipeline ------------------------------------------------------------


def test_transform_affine_endpoints():
    state = NormalizationState(0.0, 1.0)
    fs = transform_scores([2.0, 3.0, 4.0], state)
    assert fs.tolist() == [0.0, 0.5, 1.0]


def test_transform_normalization_uses_running_references():
    state = NormalizationState(0.0, 1.0)
    transform_scores([2.0, 4.0], state)
    fs = transform_scores([3.0, 5.0], state)  # extends the running max
    assert state.global_min == 2.0 and state.global_max == 5.0
    assert fs.tolist() == [(3 - 2) / 3, 1.0]


def test_transform_degenerate_normalization(caplog):
    state = NormalizationState(0.0, 1.0)
    fs = transform_scores([7.0, 7.0, 7.0], state)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "degenerate normalization: all scores map to n0")]
    assert fs.tolist() == [0.0, 0.0, 0.0]


def test_transform_ranks_doubled_midranks():
    fs = transform_scores([10.0, 20.0, 20.0, 30.0], use_ranks=True)
    assert fs.tolist() == [1.0, 4.0, 4.0, 7.0]
    assert all(float(v).is_integer() for v in fs)


def test_round_significant():
    assert round_significant(0.123456, 3) == 0.123
    assert round_significant(123456.0, 2) == 120000.0
    assert round_significant(0.0, 3) == 0.0
    assert round_significant(-0.0987, 2) == -0.099


def test_round_significant_is_correctly_rounded_at_the_extremes():
    """Python's float round: subnormals round without NaN, near the float
    maximum values stay finite, and the last digit is correctly rounded."""
    assert round_significant(np.float64(5e-324), 2) == 5e-324
    assert round_significant(np.float64(2e-311), 2) == 2e-311
    assert round_significant(np.float64(1.234e-310), 2) == 1.2e-310
    assert round_significant(np.float64(1e300), 2) == 1e300
    assert round_significant(np.float64(1.7e308), 2) == 1.7e308
    assert round_significant(-1.74e308, 2) == -1.7e308
    assert type(round_significant(np.float64(0.25), 1)) is float


@pytest.mark.parametrize("x", [1.7e308, -1.7e308, 1.5e308])
def test_round_significant_past_the_float_range_raises(x):
    """1.7e308 to one digit is 2e308, which no float holds: a ValueError
    that names the value and the digits, not an OverflowError or inf."""
    with pytest.raises(ValueError, match=r"e\+308 rounded to 1 significant"):
        round_significant(x, 1)
    with pytest.raises(ValueError, match="float range"):
        transform_scores([x, 1.0], digits=1)


def test_transform_rounding_step():
    fs = transform_scores([0.123456, 0.123449], digits=4)
    assert fs.tolist() == [0.1235, 0.1234]


def test_transform_groups_and_counts():
    distinct, groups = _groups(transform_scores([5.0, 3.0, 3.0, 1.0]))
    assert distinct == [1.0, 3.0, 5.0]
    assert [len(g) for g in groups] == [1, 2, 1]
    assert groups == [[3], [1, 2], [0]]


def test_transform_ranks_preserve_argsort():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        raw = rng.normal(size=12)
        fs = transform_scores(raw, use_ranks=True)
        assert np.array_equal(np.argsort(raw), np.argsort(fs))


def test_transform_normalization_preserves_argmax():
    rng = np.random.default_rng(9)
    for _ in range(200):
        raw = rng.normal(size=10)
        state = NormalizationState(-1.0, 1.0)
        fs = transform_scores(raw, state)
        assert np.argmax(raw) == np.argmax(fs)
        assert np.argmin(raw) == np.argmin(fs)


def test_transform_normalizes_over_a_subnormal_span():
    """A span of a few subnormals overflows (n1 - n0) / span to inf; the
    scores still map onto [n0, n1] instead of 0 * inf = NaN."""
    fs = transform_scores([5e-324, -5e-324, 0.0], NormalizationState(-1.0, 1.0))
    assert fs.tolist() == [1.0, -1.0, 0.0]
    state = NormalizationState(0.0, 1.0)
    state.update(0.0, 4e-323)
    assert transform_scores([1e-323], state).tolist() == [0.25]


def test_transform_clips_infinite_scores():
    """+-inf, such as an exact fit's mt score, is clipped to the largest or
    smallest finite score of the same array before the transforms, so it
    ties with that score, also in the running normalization references;
    with no finite score every score is 0.0 and all tie. NaN is refused."""
    inf = math.inf
    assert transform_scores([inf, 1.0, 2.0]).tolist() == [2.0, 1.0, 2.0]
    assert transform_scores([-inf, 1.0, 2.0]).tolist() == [1.0, 1.0, 2.0]
    # the finite scores keep their bits, a -0.0 included
    assert math.copysign(1.0, transform_scores([-0.0, inf, 0.0])[0]) == -1.0
    assert transform_scores([inf, 1.0, 2.0],
                            use_ranks=True).tolist() == [4.0, 1.0, 4.0]
    state = NormalizationState(0.0, 1.0)
    assert transform_scores([inf, 1.0, -inf, 3.0],
                            state).tolist() == [1.0, 0.0, 0.0, 1.0]
    assert (state.global_min, state.global_max) == (1.0, 3.0)
    for scores in ([inf, inf, inf], [inf, -inf]):
        assert transform_scores(scores).tolist() == [0.0] * len(scores)
        assert transform_scores(scores, use_ranks=True).tolist() == (
            [len(scores)] * len(scores))
    for scores in ([math.nan, inf, 1.0], [math.nan]):
        with pytest.raises(ValueError, match="NaN"):
            transform_scores(scores)


def test_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        transform_scores([1.0, math.nan])
    # the span overflows to inf, and the infinite distance times 0 is NaN,
    # also when ranks or rounding follow, which would hide the NaN
    for digits, use_ranks in ((None, False), (None, True), (2, True)):
        with pytest.raises(ValueError, match="NaN"), \
                np.errstate(over="ignore", invalid="ignore"):
            transform_scores([-1e308, 1e308], NormalizationState(0.0, 1.0),
                             digits, use_ranks)


# --- survival scores -----------------------------------------------------------------


def binary_genotypes(*indices):
    n = len(indices[0])
    topo = GeneticTopology(tuple(Gene(f"g{i}", ("a", "b")) for i in range(n)))
    return [Genotype(topo, idx) for idx in indices]


def allele_rows(genotypes):
    """The topology and the (p, genes) allele-index rows of `genotypes`:
    what `survival_scores` takes, as the engine keeps it per sample slot."""
    return genotypes[0].topology, np.array(
        [g.allele_index for g in genotypes], dtype=np.intp)


def test_survival_duplicates_hit_cap():
    gs = binary_genotypes((0, 0, 0), (0, 0, 0))
    vs = survival_scores(*allele_rows(gs), [1.0, 1.0], q=1.0, r=1.0)
    assert vs.tolist() == [SIMILARITY_CAP, SIMILARITY_CAP]


def test_survival_maximally_distant_pair():
    gs = binary_genotypes((0, 0, 0), (1, 1, 1))
    vs = survival_scores(*allele_rows(gs), [2.0, 2.0], q=1.0, r=1.0)
    assert vs.tolist() == [2.0, 2.0]


def test_survival_pair_symmetry_and_min_rule():
    gs = binary_genotypes((0, 0, 0), (0, 0, 1), (1, 1, 1))
    fs = [1.0, 2.0, 5.0]
    vs = survival_scores(*allele_rows(gs), fs, q=1.0, r=1.0)

    def pair(i, j):
        vsp = abs(fs[i] - fs[j])
        d = [0, 1, 3]
        ncd_ij = {(0, 1): 1, (0, 2): 3, (1, 2): 2}[tuple(sorted((i, j)))]
        return 2.0 / (vsp + (ncd_ij / 3.0) ** 1.0)

    for i in range(3):
        expected = min(pair(i, j) for j in range(3) if j != i)
        assert vs[i] == pytest.approx(expected)


def test_survival_permutation_equivariance():
    rng = random.Random(4)
    topo = GeneticTopology(tuple(Gene(f"g{i}", ("a", "b")) for i in range(5)))
    gs = [Genotype(topo, tuple(rng.randrange(2) for _ in range(5)))
          for _ in range(6)]
    fs = [rng.uniform(0, 3) for _ in range(6)]
    base = survival_scores(*allele_rows(gs), fs, q=2.0, r=0.5)
    perm = list(range(6))
    rng.shuffle(perm)
    permuted = survival_scores(
        *allele_rows([gs[i] for i in perm]), [fs[i] for i in perm], q=2.0,
        r=0.5)
    for new_pos, old_pos in enumerate(perm):
        assert permuted[new_pos] == pytest.approx(base[old_pos])


# --- loop references ---------------------------------------------------------------
#
# The per-pair and per-genotype loops the array pipeline replaced, kept as
# oracles: survival pair by pair through `ncd`, selection aggregates from
# per-genotype lists, mid-ranks by walking runs of ties.


def survival_reference(genotypes, fs, q, r, cap=SIMILARITY_CAP):
    values = np.asarray(fs, dtype=float)
    p = len(genotypes)
    nc = genotypes[0].topology.gene_count
    out = np.full(p, math.inf)
    for i in range(p):
        for j in range(i + 1, p):
            vsp = abs(values[i] - values[j]) ** q
            vsg = (ncd(genotypes[i], genotypes[j]) / nc) ** r
            denom = vsp + vsg
            vs = cap if denom == 0.0 else min(cap, 2.0 / denom)
            if vs < out[i]:
                out[i] = vs
            if vs < out[j]:
                out[j] = vs
    return out


def selection_reference(n_genotypes, members, values, aggregate, direction):
    worst = WORST_MIN_SCORE if direction == "min" else 0.0
    if aggregate == "nalive":
        counts = np.zeros(n_genotypes)
        for row in members:
            for i in row:
                counts[i] += 1.0
        return counts
    per_genotype = [[] for _ in range(n_genotypes)]
    for row, value in zip(members, values):
        for i in row:
            per_genotype[i].append(value)
    out = np.empty(n_genotypes)
    for i, vals in enumerate(per_genotype):
        if not vals:
            out[i] = worst
        elif aggregate == "min":
            out[i] = min(vals)
        elif aggregate == "max":
            out[i] = max(vals)
        else:
            total = 0.0          # left to right, as sum() adds floats
            for v in vals:
                total += v
            out[i] = total / len(vals)
    return out


def groups_reference(values):
    """Distinct values, counts and per-value index groups, grouped by a
    dict loop after np.unique."""
    distinct, counts = np.unique(values, return_counts=True)
    by_value = {v: [] for v in distinct}
    for i, v in enumerate(values):
        by_value[v].append(i)
    return distinct, counts, [by_value[v] for v in distinct]


def midranks_reference(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# The array pipeline raises to q and r with numpy's array power, the loop
# with the C library's scalar pow; the two differ by an ulp at some inputs,
# even at 0.5 and 2, where numpy takes a correctly rounded sqrt or square.
# Only the default exponent 1 takes no power and matches bit for bit.
EXACT_EXPONENT = 1.0
ULP_RTOL = 4 * np.finfo(float).eps


def some_genotypes(rng, p, genes, duplicates):
    """p genotypes over `genes` three-allele genes, scores drawn from a short
    list so that equal scores are common; with `duplicates`, the first two
    individuals are the same genotype with the same score."""
    topo = GeneticTopology(
        tuple(Gene(f"g{i}", ("a", "b", "c")) for i in range(genes))
    )
    alleles = rng.integers(0, 3, size=(p, genes))
    fs = rng.choice([0.0, 0.25, 1.0, 3.5, 1e-9], size=p)
    spread = rng.random(p) < 0.5
    fs[spread] = rng.normal(scale=2.0, size=int(spread.sum()))
    if duplicates:
        alleles[1], fs[1] = alleles[0], fs[0]
    return [Genotype(topo, tuple(int(a) for a in row)) for row in alleles], fs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(2, 14),
    genes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from((1.0, 0.5, 2.0, 0.3, 1.7, 3.0)),
    r=st.sampled_from((1.0, 0.5, 2.0, 0.3, 1.7, 3.0)),
    duplicates=st.booleans(),
)
def test_survival_matches_loop_reference(p, genes, seed, q, r, duplicates):
    rng = np.random.default_rng(seed)
    gs, fs = some_genotypes(rng, p, genes, duplicates)
    got = survival_scores(*allele_rows(gs), fs, q, r)
    want = survival_reference(gs, fs, q, r)
    if duplicates and p == 2:
        assert got.tolist() == [SIMILARITY_CAP, SIMILARITY_CAP]
    if q == r == EXACT_EXPONENT:
        assert got.tolist() == want.tolist()
    else:
        np.testing.assert_allclose(got, want, rtol=ULP_RTOL, atol=0.0)


def survival_broadcast_oracle(genotypes, fs, q, r):
    """`survival_scores` with the genes that differ counted by one
    (p, p, genes) broadcast comparison of the allele indices: the oracle
    that the one-hot row products equal bit for bit."""
    values = np.asarray(fs, dtype=float)
    alleles = np.array([g.allele_index for g in genotypes], dtype=np.intp)
    ncd = (alleles[:, None, :] != alleles[None, :, :]).sum(axis=2)
    denom = (np.abs(values[:, None] - values[None, :]) ** q
             + (ncd / genotypes[0].topology.gene_count) ** r)
    with np.errstate(divide="ignore"):
        similarity = np.minimum(SIMILARITY_CAP, 2.0 / denom)
    return similarity.min(axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(2, 5), min_size=1, max_size=30),
    p=st.integers(2, 40),
    copies=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from((1.0, 0.5, 2.0, 1.7)),
    r=st.sampled_from((1.0, 0.5, 2.0, 0.3)),
)
def test_survival_matches_broadcast_oracle(sizes, p, copies, seed, q, r):
    """Over alphabets of 2 to 5 alleles, with up to `copies` individuals
    repeating an earlier genotype and its score (pairs at the cap)."""
    rng = np.random.default_rng(seed)
    topo = GeneticTopology(tuple(
        Gene(f"g{i}", tuple("abcde"[:n])) for i, n in enumerate(sizes)))
    rows = [[int(rng.integers(n)) for n in sizes] for _ in range(p)]
    fs = rng.choice([0.0, 0.5, 2.0, -1.25], size=p)
    spread = rng.random(p) < 0.5
    fs[spread] = rng.normal(scale=3.0, size=int(spread.sum()))
    for c in range(1, min(copies, p - 1) + 1):
        source = int(rng.integers(c))
        rows[c], fs[c] = rows[source], fs[source]
    gs = [Genotype(topo, tuple(row)) for row in rows]
    got = survival_scores(*allele_rows(gs), fs, q, r)
    want = survival_broadcast_oracle(gs, fs, q, r)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if copies and p == 2:
        assert got.tolist() == [SIMILARITY_CAP, SIMILARITY_CAP]


def sweep_rows(rng, size, n_models):
    """Ascending rows of up to `n_models` valid models among `size` table
    rows, at most two to a row, as "both" mode's two forms give."""
    picked = rng.choice(2 * size, size=min(n_models, 2 * size), replace=False)
    return np.sort(picked) >> 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_genotypes=st.integers(2, 16),
    n=st.integers(1, 3),
    n_models=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    aggregate=st.sampled_from(("nalive", "min", "max", "avg")),
    direction=st.sampled_from(("min", "max")),
)
def test_selection_matches_loop_reference(
    n_genotypes, n, n_models, seed, aggregate, direction
):
    rng = np.random.default_rng(seed)
    n = min(n, n_genotypes - 1)
    inputs = sweep_inputs(n_genotypes, n,
                          sweep_rows(rng, math.comb(n_genotypes, n), n_models))
    values = rng.choice([0.5, 0.1, 2.0], size=len(inputs[-1]))
    spread = rng.random(len(values)) < 0.7
    values[spread] = rng.uniform(0.0, 50.0, size=int(spread.sum()))
    got = selection_scores(*inputs, values, aggregate, direction)
    members = inputs[0][inputs[-1]]
    want = selection_reference(n_genotypes, members.tolist(), values.tolist(),
                               aggregate, direction)
    assert got.tolist() == want.tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_genotypes=st.integers(2, 14),
    n=st.integers(1, 4),
    n_models=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    zero=st.sampled_from((0.0, -0.0)),
)
def test_selection_equals_the_member_gather_oracle(n_genotypes, n, n_models,
                                                   seed, zero):
    """Read by slot, every aggregate in both directions equals the member
    gather bit for bit: rows with one or two models, ties, +-inf (an exact
    fit's mt score) and zeros, of one sign per sweep as every objective
    gives them, and empty sweeps."""
    rng = np.random.default_rng(seed)
    n = min(n, n_genotypes - 1)
    subsets, slot_rows, counts, rows = sweep_inputs(
        n_genotypes, n, sweep_rows(rng, math.comb(n_genotypes, n), n_models))
    values = rng.choice([zero, 0.25, 3.0, math.inf, -math.inf, 1e-300],
                        size=rows.size)
    spread = rng.random(rows.size) < 0.5
    values[spread] = rng.normal(scale=10.0, size=int(spread.sum()))
    want_counts = np.bincount(subsets[rows].ravel(), minlength=n_genotypes)
    assert counts.tolist() == want_counts.tolist()
    for aggregate in ("nalive", "min", "max", "avg"):
        for direction in ("min", "max"):
            got = selection_scores(subsets, slot_rows, counts, rows, values,
                                   aggregate, direction)
            want = selection_scores_oracle(n_genotypes, subsets[rows], values,
                                           aggregate, direction)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,s", [("mt", 1.5), ("r2", 1.0), ("hr", 2.0)])
@pytest.mark.parametrize("both", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_selection_of_real_sweeps_equals_the_oracle(kind, s, both, n):
    """Participations and selection scores, taken as the engine takes them
    from a sweep in fallback and "both" mode, equal the member gather bit
    for bit; the response is an exact fit of some subsets, whose mt scores
    are +inf."""
    rng = np.random.default_rng(100 * n + both)
    p, m = 8, 20
    panel = rng.normal(size=(p, m)) + 2.0
    y = panel[0] - 2.0 * panel[3] + 1.0
    panel[5] = y - 0.5 * panel[2] + 0.3 * rng.normal(size=m)
    spec = ObjectiveSpec(kind, s)
    fitter = GramFitter(panel, y, n)
    sweep = fitter.assess(0.05, both, spec.values)
    assert sweep.rows.size
    if both:
        assert (np.diff(sweep.rows) == 0).any()
    if kind == "mt" and n > 1:
        assert np.isinf(sweep.values).any()
    inputs = sweep_inputs(p, n, sweep.rows)
    members = fitter.subsets[sweep.rows]
    want_counts = np.bincount(members.ravel(), minlength=p)
    assert inputs[2].tolist() == want_counts.tolist()
    for aggregate in ("nalive", "min", "max", "avg"):
        got = selection_scores(*inputs, sweep.values, aggregate,
                               spec.direction)
        want = selection_scores_oracle(p, members, sweep.values, aggregate,
                                       spec.direction)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([-1.5, 0.0, -0.0, 0.25, 2.0, 7.0, 1e300]),
                min_size=1, max_size=30)
       | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30)
       | st.lists(st.sampled_from([5e-324, -5e-324, 1e-99, 1e-165, -0.0,
                                   1.7e308, -1.7e308, math.inf, -math.inf]),
                  min_size=1, max_size=30))
def test_midranks_match_loop_reference(values):
    values = np.array(values)
    assert _midranks(values).tolist() == midranks_reference(values).tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(st.sampled_from([-1.5, 0.0, -0.0, 0.25, 2.0, 7.0, 1e300]),
                    min_size=1, max_size=30)
    | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30)
    | st.lists(st.sampled_from([5e-324, -5e-324, 2e-311, 1e-300, 1e-165,
                                1e-99, 0.0]),
               min_size=1, max_size=30)
    | st.lists(st.sampled_from([1.7e308, -1.7e308, 1e-99, 0.25, -0.0]),
               min_size=1, max_size=30)
    | st.lists(st.floats(-1e-300, 1e-300), min_size=1, max_size=30),
    normalize=st.sampled_from([None, "fresh", "primed"]),
    digits=st.none() | st.integers(1, 3),
    use_ranks=st.booleans(),
)
# found by this test: a fresh normalization over a subnormal span, and
# subnormal scores rounded to significant digits
@example(values=[5e-324, -5e-324], normalize="fresh", digits=None,
         use_ranks=False)
@example(values=[5e-324, 2e-311, -1e-300], normalize=None, digits=2,
         use_ranks=False)
def test_transform_groups_match_loop_reference(values, normalize, digits,
                                               use_ranks, caplog):
    """Ties, signed zeros, the degenerate normalization (one repeated value
    on a fresh state, logged as a warning) and the rank path: `_groups`
    groups the transformed scores as the loop does."""
    caplog.clear()   # one caplog serves every example
    state = None
    if normalize is not None:
        state = NormalizationState(-1.0, 1.0)
        if normalize == "primed":
            state.update(-3.0, 3.0)
    magnitudes = {abs(v) for v in values}
    if (1.7e308 in values and -1.7e308 in values and state is not None
            or 1.7e308 in magnitudes and state is None and digits == 1):
        # past the float range: a span of inf scales inf by 0 to NaN, and
        # one significant digit rounds 1.7e308 to 2e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="NaN|float range"):
            transform_scores(values, state, digits, use_ranks)
        return
    fs = transform_scores(values, state, digits, use_ranks)
    distinct, counts, groups = groups_reference(fs)
    got_distinct, got_groups = _groups(fs)
    assert got_distinct == distinct.tolist()
    assert [len(g) for g in got_groups] == counts.tolist()
    assert got_groups == groups
    assert all(type(i) is int for g in got_groups for i in g)
    if normalize == "fresh" and len(set(values)) == 1:
        assert "degenerate normalization: all scores map to n0" in (
            caplog.messages)
