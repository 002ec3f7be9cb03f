import codecs
import csv
import gc
import hashlib
import itertools
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoreg import descriptors, stats
from evoreg.descriptors import (
    Dataset,
    DescriptorDataError,
    Phenotype,
    PlantedSignal,
    SyntheticProvider,
    TableProvider,
    ViabilityPolicy,
    ViabilityReport,
    check_viability,
    load_activity,
    load_descriptor_table,
    pick_planted_genotypes,
    screen_viability,
    write_activity,
    write_descriptor_table,
)
from evoreg.genome import Gene, GeneticTopology, Genotype, random_genotype
from tests.conftest import (binary_topology, labelled_rows_oracle,
                            normal_dataset, viability_oracle)


@pytest.fixture
def topo():
    return GeneticTopology(
        (Gene("g0", ("a", "b")), Gene("g1", ("x", "y", "z")))
    )


@pytest.fixture
def dataset():
    rng = np.random.default_rng(1)
    return Dataset(
        tuple(f"mol{i}" for i in range(40)), rng.normal(6.5, 0.8, 40)
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(("a", "b"), np.array([1.0, 2.0]))  # too few molecules
    with pytest.raises(ValueError):
        Dataset(("a", "b", "a"), np.array([1.0, 2.0, 3.0]))  # dup ids
    with pytest.raises(ValueError):
        Dataset(("a", "b", "c"), np.array([1.0, math.inf, 3.0]))
    with pytest.raises(ValueError, match="activity length"):
        Dataset(("a", "b", "c"), np.array([1.0, 2.0, 3.0, 4.0]))


def test_dataset_ids_read_back_as_written(tmp_path):
    """The CSV readers strip every cell, so an id with surrounding
    whitespace would come back as another id, and an empty id or one with a
    line break would not come back: the dataset refuses them, and the ids
    it accepts survive the activity and descriptor files."""
    for bad in (" m1", "m1 ", "\tm1", "m1\n"):
        with pytest.raises(ValueError, match="surrounding whitespace"):
            Dataset((bad, "m2", "m3"), np.array([1.0, 2.0, 3.0]))
    for bad in ("", "m\n1", "m\r1", "m\r\n1"):
        with pytest.raises(ValueError, match="is empty or spans lines"):
            Dataset(("m2", bad, "m3"), np.array([1.0, 2.0, 3.0]))
    ds = Dataset(("m 1", "m2", "m3"), np.array([1.0, 2.0, 3.0]))
    write_activity(ds, tmp_path / "a.csv")
    assert load_activity(tmp_path / "a.csv").molecule_ids == ds.molecule_ids
    topo = GeneticTopology((Gene("g", ("a", "b")),))
    write_descriptor_table(tmp_path / "t.csv", ds,
                           [("a", np.arange(3.0)), ("b", np.ones(3))])
    provider = load_descriptor_table(tmp_path / "t.csv", topo, ds)
    assert len(provider) == 2


# --- viability -----------------------------------------------------------------


def make_phenotype(values, topo, idx=(0, 0)):
    return Phenotype(np.asarray(values, dtype=float), Genotype(topo, idx))


def test_viability_constant_vector_fails(topo, dataset):
    p = make_phenotype(np.full(40, 3.3), topo)
    report = check_viability(p, dataset, ViabilityPolicy())
    assert not report.viable
    assert report.failed_criteria() == ("non_constant",)


def test_viable_means_no_failed_criterion():
    """`viable` tests the five flags itself: for every report, of any
    applied or unapplied screen, it is True exactly when no criterion
    failed, and a bool."""
    core, screen = (True, False), (True, False, None)
    for flags in itertools.product(core, core, screen, screen, screen):
        report = ViabilityReport(*flags)
        assert report.viable is (not report.failed_criteria()), flags


def test_viability_nonfinite_fails(topo, dataset):
    values = np.arange(40.0)
    values[5] = math.nan
    report = check_viability(make_phenotype(values, topo), dataset,
                             ViabilityPolicy())
    assert not report.viable
    assert "finite" in report.failed_criteria()


def test_viability_plain_vector_passes(topo, dataset):
    report = check_viability(
        make_phenotype(np.arange(40.0), topo), dataset, ViabilityPolicy()
    )
    assert report.viable
    assert report.cv_ok is None and report.jb_ok is None


def test_viability_cv_floor(topo, dataset):
    # mean 10, sd ~0.001 -> cv tiny
    values = 10.0 + 0.001 * np.sin(np.arange(40.0))
    policy = ViabilityPolicy(min_cv=0.01)
    assert not check_viability(
        make_phenotype(values, topo), dataset, policy
    ).viable
    spread = 10.0 + 1.0 * np.sin(np.arange(40.0))  # cv ~ 0.07
    assert check_viability(
        make_phenotype(spread, topo), dataset, policy
    ).viable


def test_viability_cv_zero_mean_passes(topo, dataset):
    values = np.concatenate([np.ones(20), -np.ones(20)])
    report = check_viability(
        make_phenotype(values, topo), dataset, ViabilityPolicy(min_cv=5.0)
    )
    assert report.cv_ok is True


def test_viability_jb_gate_passes_normal_samples(topo):
    rng = np.random.default_rng(3)
    ids = tuple(f"m{i}" for i in range(200))
    policy = ViabilityPolicy(jb_alpha=0.01)
    passed = 0
    trials = 200
    for _ in range(trials):
        y = rng.normal(size=200)
        ds = Dataset(ids, y)
        x = rng.standard_normal(200)
        passed += check_viability(make_phenotype(x, topo), ds, policy).viable
    assert passed / trials >= 0.95


def test_viability_jb_gate_rejects_heavy_tails(topo):
    rng = np.random.default_rng(4)
    ids = tuple(f"m{i}" for i in range(200))
    ds = Dataset(ids, rng.normal(size=200))
    x = rng.standard_normal(200)
    x[0] = 25.0
    report = check_viability(
        make_phenotype(x, topo), ds, ViabilityPolicy(jb_alpha=0.01)
    )
    assert report.jb_ok is False


def test_viability_simple_r2_floor(topo, dataset):
    noisy_copy = dataset.activity + 0.01 * np.arange(40.0)
    policy = ViabilityPolicy(min_simple_r2=0.5)
    assert check_viability(
        make_phenotype(noisy_copy, topo), dataset, policy
    ).viable
    rng = np.random.default_rng(5)
    assert not check_viability(
        make_phenotype(rng.uniform(size=40), topo), dataset, policy
    ).viable


def test_viability_length_mismatch(topo, dataset):
    with pytest.raises(ValueError):
        check_viability(
            make_phenotype(np.arange(10.0), topo), dataset, ViabilityPolicy()
        )


# The screen as numpy's mean and std and a separate simple_r2 computed it,
# kept as an oracle: the array passes must give the same report bit for bit.


def simple_r2(x, y):
    """Squared Pearson correlation; 0 when either side has no variance, and
    NaN, which fails every floor, when its sums overflow."""
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    sxy = float(dx @ dy)
    r2 = sxy * sxy / (sxx * syy)
    return min(1.0, r2) if math.isfinite(r2) else math.nan


def viability_reference(v, ds, policy):
    finite = bool(np.all(np.isfinite(v)))
    non_constant = finite and bool(np.any(v != v[0]))
    cv_ok = jb_ok = r2_ok = None
    if finite:
        if policy.min_cv is not None:
            mean = float(v.mean())
            sd = float(v.std())
            if mean == 0.0:
                cv_ok = sd > 0.0
            else:
                cv_ok = abs(sd / mean) >= policy.min_cv
        if policy.jb_alpha is not None:
            if non_constant and v.size >= 4:
                _, pval = stats.jarque_bera(v)
                jb_ok = pval >= policy.jb_alpha
            else:
                jb_ok = False
        if policy.min_simple_r2 is not None:
            r2_ok = simple_r2(v, ds.activity) >= policy.min_simple_r2
    return (finite, non_constant, cv_ok, jb_ok, r2_ok)


def assert_same_report(values, ds, policy):
    """Field by field, value and type: a numpy bool where a bool was is a
    difference too."""
    with np.errstate(all="ignore"):
        got = check_viability(Phenotype(values, None), ds, policy)
        want = viability_reference(np.asarray(values, dtype=float), ds, policy)
    fields = (got.finite, got.non_constant, got.cv_ok, got.jb_ok,
              got.simple_r2_ok)
    assert [(type(f), f) for f in fields] == [(type(f), f) for f in want]
    return got


OVERFLOWING_SQUARES = [1e200, -1e200, 1e200, 0.0, 3.0, 1.0, 2.0, 5.0]


def adversarial_panels(m, rng):
    """Value vectors that probe each branch of the screens."""
    ramp = np.arange(m, dtype=float)
    nan_at, inf_at = ramp.copy(), ramp.copy()
    nan_at[m // 2] = math.nan
    inf_at[-1] = math.inf
    both_inf = ramp.copy()
    both_inf[0], both_inf[-1] = math.inf, -math.inf
    half = np.where(ramp < m // 2, 1.7e308, -1.7e308)
    zero_mean = np.where(ramp % 2 == 0, 1.0, -1.0)
    zero_mean[-1] *= m % 2 == 0     # an odd count ends on a zero
    return {
        "uniform": rng.uniform(size=m),
        "normal": rng.normal(3.0, 2.0, size=m),
        "negative_mean": rng.normal(-4.0, 0.5, size=m),
        "zero_mean": zero_mean,
        "constant": np.full(m, 3.3),
        "zeros": np.zeros(m),
        "signed_zeros": np.where(ramp % 2 == 0, 0.0, -0.0),
        "tiny_spread": 10.0 + 1e-12 * np.sin(ramp),
        "nan": nan_at,
        "inf": inf_at,
        "both_inf": both_inf,
        "sum_overflows": np.linspace(1e308, 1.5e308, m),
        "constant_1e308": np.full(m, 1e308),
        "halves_overflow": half,
        # squares overflow (r2 is NaN); cubes overflow (the JB moments do)
        "squares_overflow": np.resize(OVERFLOWING_SQUARES, m),
        "cubes_overflow": np.resize([1e150, -1e150, 1e150, 0.0, 3.0], m),
        "activity_copy": None,   # filled in by the caller
    }


def constant_dataset(m):
    return Dataset(tuple(f"m{i}" for i in range(m)), np.full(m, 2.5))


@pytest.mark.parametrize("m", [3, 4, 7, 40, 206, 300])
@pytest.mark.parametrize("constant_activity", [False, True])
def test_viability_matches_reference_on_adversarial_panels(
        m, constant_activity):
    rng = np.random.default_rng(m)
    ds = (constant_dataset(m) if constant_activity else
          Dataset(tuple(f"m{i}" for i in range(m)), rng.normal(6.5, 0.8, m)))
    policies = [
        ViabilityPolicy(),
        ViabilityPolicy(min_cv=0.1),
        ViabilityPolicy(min_simple_r2=0.01),
        ViabilityPolicy(min_cv=0.5, jb_alpha=0.01, min_simple_r2=0.5),
        ViabilityPolicy(min_cv=0.0, jb_alpha=0.0, min_simple_r2=0.0),
        ViabilityPolicy(min_cv=1e300, jb_alpha=1.0, min_simple_r2=1.0),
    ]
    panels = adversarial_panels(m, rng)
    panels["activity_copy"] = 2.0 * ds.activity - 1.0
    for name, values in panels.items():
        for policy in policies:
            assert_same_report(values, ds, policy)


def test_an_overflowing_r2_fails_the_floor():
    """The panel's sums of squares overflow, so r2 = sxy^2 / (sxx syy) is
    NaN, and min(1.0, nan) is 1.0: a clamp alone would pass it. A
    non-finite r2 fails the floor."""
    m = len(OVERFLOWING_SQUARES)
    ds = Dataset(tuple(f"m{i}" for i in range(m)),
                 np.random.default_rng(m).normal(6.5, 0.8, m))
    got = assert_same_report(np.array(OVERFLOWING_SQUARES), ds,
                             ViabilityPolicy(min_simple_r2=0.99))
    assert got.simple_r2_ok is False


def test_overflowing_panels_are_screened_without_warnings():
    """Outside np.errstate, where a numpy warning is an error: squares that
    overflow give cv = inf, which passes min_cv, and a sum that overflows
    leaves no mean, so the cv and the r2 fail. Neither passes JB."""
    policy = ViabilityPolicy(min_cv=0.1, jb_alpha=0.01, min_simple_r2=0.0)
    for values, want in (([1e308, 1e308, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                          (True, True, False, False, False)),
                         (OVERFLOWING_SQUARES,
                          (True, True, True, False, False))):
        m = len(values)
        ds = Dataset(tuple(f"m{i}" for i in range(m)),
                     np.random.default_rng(m).normal(6.5, 0.8, m))
        got = check_viability(Phenotype(np.array(values), None), ds, policy)
        assert (got.finite, got.non_constant, got.cv_ok, got.jb_ok,
                got.simple_r2_ok) == want


@pytest.mark.parametrize("m", [5, 40, 206])
def test_viability_thresholds_match_reference_on_both_sides(m):
    """A threshold set at the panel's own cv or r2 passes, and the next
    float above it fails; both screens agree with the reference there."""
    rng = np.random.default_rng(100 + m)
    ds = Dataset(tuple(f"m{i}" for i in range(m)), rng.normal(6.5, 0.8, m))
    for values in (rng.uniform(size=m), rng.normal(-2.0, 1.0, size=m),
                   ds.activity + rng.normal(0.0, 0.5, size=m)):
        cv = abs(float(values.std()) / float(values.mean()))
        r2 = simple_r2(values, ds.activity)
        for floor, ok in ((cv, True), (math.nextafter(cv, math.inf), False)):
            got = assert_same_report(values, ds, ViabilityPolicy(min_cv=floor))
            assert got.cv_ok is ok
        for floor, ok in ((r2, True), (math.nextafter(r2, math.inf), False)):
            got = assert_same_report(values, ds,
                                     ViabilityPolicy(min_simple_r2=floor))
            assert got.simple_r2_ok is ok


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(st.floats(width=64) | st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 1e-99, 1e-165,
         1.7e308, -1.7e308, math.inf, -math.inf, math.nan]),
        min_size=3, max_size=40),
    min_cv=st.none() | st.floats(0.0, 3.0),
    min_r2=st.none() | st.floats(0.0, 1.0),
    jb_alpha=st.none() | st.floats(0.0, 1.0),
)
# squared variance underflows: found by this test, see the jarque_bera
# scale-free tests
@example(values=[0.0, 0.0, 0.0, 5.9e-99], min_cv=None, min_r2=None,
         jb_alpha=0.0)
def test_viability_matches_reference_on_any_floats(values, min_cv, min_r2,
                                                    jb_alpha):
    m = len(values)
    ds = Dataset(tuple(f"m{i}" for i in range(m)),
                 np.random.default_rng(m).normal(size=m))
    assert_same_report(np.array(values), ds,
                       ViabilityPolicy(min_cv, jb_alpha, min_r2))


# --- the batch screen against the one-row oracle ------------------------------


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1e200, -1e200, 5e-324,
                  1e-165, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


def special_rows(m):
    """Rows of length m that probe each branch of the screens: NaN and
    +-inf, finite rows whose sum overflows, squares that overflow at zero
    mean, constant rows, zero mean with spread, and signed zeros."""
    ramp = np.arange(m, dtype=float)
    alternating = np.where(ramp % 2 == 0, 1.0, -1.0)
    alternating[-1] *= m % 2 == 0     # an odd count ends on a zero
    rows = [np.full(m, math.nan), np.where(ramp == 1, math.inf, ramp),
            np.where(ramp == 0, -math.inf, ramp),
            np.full(m, 1e308), np.full(m, -1e308),
            np.where(ramp < m / 2, 1e308, 1.5e308),
            1e200 * alternating, -1e200 * alternating,
            np.full(m, 3.3), np.zeros(m), np.full(m, -0.0),
            np.where(ramp % 2 == 0, 0.0, -0.0), alternating,
            ramp, 10.0 + 1e-12 * np.sin(ramp)]
    return rows


@st.composite
def screen_batches(draw):
    """A dataset, a policy and a batch of 0 to 12 rows of its length, each
    row drawn whole from `special_rows` or cell by cell from any float."""
    m = draw(st.integers(3, 40))
    cell = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)
    row = (st.sampled_from(range(len(special_rows(m)))).map(
        lambda i: special_rows(m)[i])
        | st.lists(cell, min_size=m, max_size=m).map(np.array)
        | st.floats(-1e3, 1e3).map(lambda c: np.full(m, c)))
    rows = draw(st.lists(row, max_size=12))
    policy = ViabilityPolicy(
        min_cv=draw(st.none() | st.just(0.0) | st.floats(0.0, 3.0)),
        jb_alpha=draw(st.none() | st.floats(0.0, 1.0)),
        min_simple_r2=draw(st.none() | st.sampled_from([0.0, 1.0])
                           | st.floats(0.0, 1.0)))
    ds = Dataset(tuple(f"m{i}" for i in range(m)),
                 np.random.default_rng(m).normal(size=m))
    return ds, policy, rows


def assert_screen_matches_oracle(ds, policy, rows):
    """Each row of one `screen_viability` call fails exactly the criteria
    that `viability_oracle` finds False, and `check_viability` of that row
    alone reports the oracle's five outcomes, None included, as bools."""
    failed = screen_viability(rows, ds, policy)
    assert failed.dtype == bool and failed.shape == (len(rows), 5)
    for got, values in zip(failed.tolist(), rows):
        want = viability_oracle(values, ds, policy)
        assert got == [o is False for o in want]
        report = check_viability(Phenotype(values, None), ds, policy)
        fields = (report.finite, report.non_constant, report.cv_ok,
                  report.jb_ok, report.simple_r2_ok)
        assert [(type(f), f) for f in fields] == \
            [(type(o), o) for o in want]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(screen_batches())
def test_batch_screen_matches_the_one_row_oracle(batch):
    """Bug guard for the batch screen: whatever the rows and the policy,
    every row of a batch screened in one call gets the one-row rule's
    outcome. Row sums and dot products are taken per row to the bits a
    single row gets, so the decisions agree at the thresholds too."""
    assert_screen_matches_oracle(*batch)


@pytest.mark.parametrize("b", [0, 1, 2, 24, 300])
def test_batch_screen_on_special_rows_and_thresholds(b):
    """Batches of 0, 1 and many rows, mixing the special rows with random
    ones, under each edge setting: min_cv = 0, min_simple_r2 = 0 and 1, and
    Jarque-Bera on and off; and floors set at a row's own cv and r2, which
    that row passes and the next float above them fails."""
    m = 206
    rng = np.random.default_rng(b)
    ds = Dataset(tuple(f"m{i}" for i in range(m)), rng.normal(6.5, 0.8, m))
    pool = special_rows(m) + [rng.uniform(size=m), rng.normal(-2.0, 1.0, m),
                              ds.activity + rng.normal(0.0, 0.5, m)]
    rows = [pool[i] for i in rng.integers(0, len(pool), b)]
    for min_cv, jb_alpha, min_r2 in itertools.product(
            (None, 0.0, 0.1), (None, 0.01), (None, 0.0, 0.02, 1.0)):
        assert_screen_matches_oracle(
            ds, ViabilityPolicy(min_cv, jb_alpha, min_r2), rows)
    dy, syy = ds.centred_activity
    for values in pool[-3:]:
        mean = values.sum() / m
        d = values - mean
        cv = abs(math.sqrt((d * d).sum() / m) / float(mean))
        sxy = float(d @ dy)
        r2 = sxy * sxy / (float(d @ d) * syy)
        for at, ok in ((0, True), (1, False)):
            policy = ViabilityPolicy(
                min_cv=cv if at == 0 else math.nextafter(cv, math.inf),
                min_simple_r2=r2 if at == 0 else math.nextafter(r2, math.inf))
            failed = screen_viability(rows + [values], ds, policy)
            assert failed[-1, 2:].tolist() == [not ok, False, not ok]
            assert_screen_matches_oracle(ds, policy, rows + [values])


def test_an_underflowing_r2_denominator_fails_the_floor():
    """Activity and values spread by about 1e-160: both sums of squares are
    nonzero, but their product underflows to 0, where the one-row rule's
    Python division raised ZeroDivisionError. The r2 is NaN, and a NaN r2
    fails every floor, 0 included."""
    m = 40
    rng = np.random.default_rng(m)
    ds = Dataset(tuple(f"m{i}" for i in range(m)),
                 1e-160 * rng.normal(size=m))
    values = 1e-160 * rng.normal(size=m)
    dy, syy = ds.centred_activity
    d = values - values.sum() / m
    assert float(d @ d) != 0.0 and syy != 0.0
    with pytest.raises(ZeroDivisionError):
        float(d @ dy) ** 2 / (float(d @ d) * syy)
    policy = ViabilityPolicy(min_simple_r2=0.0)
    report = check_viability(Phenotype(values, None), ds, policy)
    assert report.simple_r2_ok is False
    assert_screen_matches_oracle(ds, policy, [values, values])


@pytest.mark.parametrize("lengths", [(39,), (40, 39), (40, 41, 40), (1,),
                                     (40, 1)])
def test_a_row_of_another_length_is_refused_by_name(dataset, lengths):
    """A phenotype whose length is not the dataset's raises the same
    ValueError alone and in a batch, whatever the other rows' lengths: the
    lengths are checked before the rows are stacked, so a length-1 row is
    not broadcast and rows of unequal length are not a stacking error."""
    rows = [np.arange(float(n)) for n in lengths]
    with pytest.raises(ValueError,
                       match="^phenotype length does not match dataset$"):
        screen_viability(rows, dataset, ViabilityPolicy(min_cv=0.1))
    for values in rows:
        if values.size != dataset.size:
            with pytest.raises(ValueError, match="^phenotype length does"):
                check_viability(Phenotype(values, None), dataset,
                                ViabilityPolicy())


def test_policy_validation():
    with pytest.raises(ValueError):
        ViabilityPolicy(min_cv=-1.0)
    with pytest.raises(ValueError):
        ViabilityPolicy(jb_alpha=1.5)
    for field in ("min_cv", "jb_alpha", "min_simple_r2"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{field} "):
                ViabilityPolicy(**{field: value})


# --- table provider -------------------------------------------------------------


def test_table_provider_lookup(topo, dataset):
    g = Genotype(topo, (0, 1))
    values = np.arange(40.0)
    provider = TableProvider(topo, {g.render(): values})
    ph = provider.provide(g)
    assert ph is not None
    assert np.array_equal(ph.values, values)
    assert provider.provide(Genotype(topo, (1, 1))) is None
    assert provider.known_keys() == (g.render(),)


@pytest.mark.parametrize("bad", [
    "qq", "aaaaaaaaa", "aaaaaaaaaaa", "aaaaa aaaaa", "aaaaaaaaaa\r", "",
    "aaaaaaaaaa\n", "\naaaaaaaaaa", "aaaaaaaaaa\nbbbbbbbbbb",
])
def test_table_keys_checked_in_one_match_name_the_first_bad_key(bad):
    """Every key of a table is checked by one match over the keys joined
    by line feeds; a table that fails it, or whose keys hold a line feed,
    is scanned key by key, so the first bad key in table order is named.
    A key holding a line feed between two good keys passes the joined
    match and is still refused."""
    topo = binary_topology(10)
    keys = [g.render() for g in topo.all_genotypes()]
    assert TableProvider(topo, dict.fromkeys(keys)).known_keys() == tuple(keys)
    assert TableProvider(topo, {}).known_keys() == ()
    for at, later in ((700, None), (0, 3), (1023, None), (5, 900)):
        table = keys[:at] + [bad] + keys[at:]
        if later is not None:
            table.insert(later + 1, "zz")
        with pytest.raises(DescriptorDataError) as err:
            TableProvider(topo, dict.fromkeys(table))
        assert str(err.value) == f"malformed genotype {bad!r}"


def test_table_known_keys_file_order_and_read_only(tmp_path, topo, dataset):
    """The known keys are the table's keys in file order, and a caller
    cannot change them: the sequence takes no assignment and no clear."""
    keys = ["bz", "ax", "by", "ay"]
    path = tmp_path / "table.csv"
    write_descriptor_table(path, dataset,
                           [(k, np.arange(40.0)) for k in keys])
    provider = load_descriptor_table(path, topo, dataset)
    known = provider.known_keys()
    assert list(known) == keys
    assert topo.parse(known[1]) == Genotype(topo, (0, 0)) and len(known) == 4
    with pytest.raises(TypeError):
        known[0] = "ax"
    with pytest.raises(AttributeError):
        known.clear()
    assert list(provider.known_keys()) == keys


def test_table_csv_round_trip(tmp_path, topo, dataset):
    rows = {
        Genotype(topo, (0, 0)).render(): np.arange(40.0),
        Genotype(topo, (1, 2)).render(): np.linspace(-1, 1, 40),
    }
    path = tmp_path / "table.csv"
    write_descriptor_table(path, dataset, rows.items())
    provider = load_descriptor_table(path, topo, dataset)
    assert len(provider) == 2
    ph = provider.provide(Genotype(topo, (1, 2)))
    assert np.array_equal(ph.values, np.linspace(-1, 1, 40))


def test_table_csv_rejects_mismatched_columns(tmp_path, topo, dataset):
    path = tmp_path / "bad.csv"
    path.write_text("genotype,molX\n" + "ax,1.0\n")
    with pytest.raises(DescriptorDataError):
        load_descriptor_table(path, topo, dataset)


def _cells(*tokens, fill="1.5"):
    return ",".join(list(tokens) + [fill] * (40 - len(tokens)))


def test_table_csv_rejects_malformed(tmp_path, topo, dataset):
    """Each bad row raises DescriptorDataError naming the file and the row:
    a repeated key and a malformed key when the table is loaded, a wrong
    width and a non-numeric cell when its row is first provided."""
    cases = [
        (f"ax,{_cells(fill='oops')}", "non-numeric value in row 'ax'"),
        (" ax ,1.0", "row 'ax' has wrong width"),
        (f"ax,{_cells()}\nby,{_cells()}\nax,{_cells()}",
         "duplicate genotype 'ax'"),
        (f"ax,{_cells()}\nqq,{_cells()}", "malformed genotype 'qq'"),
        (f"ax,{_cells()}\nby,{_cells('2.0', '1.5x')}",
         "non-numeric value in row 'by'"),
        (f"ax,{_cells('')}", "non-numeric value in row 'ax'"),
        (f"ax,{_cells('0x10')}", "non-numeric value in row 'ax'"),
    ]
    header = "genotype," + ",".join(dataset.molecule_ids)
    for i, (body, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(header + "\n" + body + "\n")
        if message.startswith("non-numeric") or message.endswith("width"):
            provider = load_descriptor_table(path, topo, dataset)
            with pytest.raises(DescriptorDataError) as err:
                _provided(provider)
        else:
            with pytest.raises(DescriptorDataError) as err:
                load_descriptor_table(path, topo, dataset)
        assert str(err.value) == f"{path}: {message}"


_ROW = _cells().encode()


@pytest.mark.parametrize("body, fault", [
    # a plain line (ASCII, unquoted, labelled), a quoted and a non-ASCII one
    (b"ax,1.5,2.5", "row 'ax' has wrong width"),
    (b'"ax",1.5,2.5', "row 'ax' has wrong width"),
    (b"ax," + _ROW + b'\nby,"1.5",2.5', "row 'by' has wrong width"),
    ("\u3000ax\xa0,1.5,2.5".encode(), "row 'ax' has wrong width"),
    (b"ax," + _ROW + "\nby,\xb5,".encode() + _ROW,
     "row 'by' has wrong width"),
    # a blank label, on a row of the wrong width and on a full one
    (b" ,1.5", "line 2: row has no label"),
    (b"\t," + _ROW, "line 2: row has no label"),
    # bytes that are not UTF-8, in a cell of the third line
    (b"ax," + _ROW + b"\nby,1.5\xff," + _ROW[4:],
     "line 3: 'utf-8' codec can't decode byte 0xff in position 6: "
     "invalid start byte"),
], ids=["plain", "quoted", "quoted-later", "non-ascii-label",
        "non-ascii-cell", "blank-label", "blank-label-full", "not-utf-8"])
def test_table_load_errors_on_every_line_kind(tmp_path, topo, dataset, body,
                                              fault):
    """Plain lines are labelled without splitting them, other lines by
    splitting: both fail with the same messages, a row without a label or
    a line that is not UTF-8 when the table is loaded, a row of the wrong
    width when it is provided."""
    header = ("genotype," + ",".join(dataset.molecule_ids)).encode()
    path = tmp_path / "bad.csv"
    path.write_bytes(header + b"\n" + body + b"\n")
    if fault.endswith("has wrong width"):
        provider = load_descriptor_table(path, topo, dataset)
        with pytest.raises(DescriptorDataError) as err:
            _provided(provider)
    else:
        with pytest.raises(DescriptorDataError) as err:
            load_descriptor_table(path, topo, dataset)
    assert str(err.value) == f"{path}: {fault}"


def test_table_csv_skips_blank_rows(tmp_path, topo, dataset):
    header = "genotype," + ",".join(dataset.molecule_ids)
    comma_only = "," * 40
    spaced = ",".join([" "] * 41)
    path = tmp_path / "blank.csv"
    path.write_text("\n".join([
        header, "", f"ax,{_cells()}", comma_only, "", spaced,
        f"by,{_cells('2.5')}", "", comma_only,
    ]) + "\n")
    provider = load_descriptor_table(path, topo, dataset)
    assert provider.known_keys() == ("ax", "by")
    assert provider.provide(topo.parse("by")).values[0] == 2.5


def _provided(provider):
    """Every row of a table provider as (key, values), provided in file
    order as `evoreg validate` provides them."""
    parse = provider.topology.parse
    return [(key, provider.provide(parse(key)).values.tolist())
            for key in provider.known_keys()]


def _labelled_csv(kind, dataset):
    """A valid file of each labelled-row CSV kind, its loader and a view of
    what it loaded: (header, rows, load, content)."""
    if kind == "activity":
        return ("molecule,activity", ["m1,1.5", "m2,2.5", "m3,0.5"],
                lambda path, topo: load_activity(path),
                lambda ds: (ds.molecule_ids, ds.activity.tolist()))
    if kind == "descriptors":
        return ("genotype," + ",".join(dataset.molecule_ids),
                [f"ax,{_cells()}", f"by,{_cells('2.5')}"],
                lambda path, topo: _provided(
                    load_descriptor_table(path, topo, dataset)),
                lambda rows: rows)
    return (",P,T", ["a,1,2", "b,3,4"],
            lambda path, topo: stats.load_contingency_csv(path),
            lambda t: (t.row_labels, t.col_labels, t.observed.tolist()))


@pytest.mark.parametrize("kind", ["activity", "descriptors", "contingency"])
def test_labelled_csv_readers_share_one_rule(tmp_path, topo, dataset, kind):
    """The activity, descriptor and contingency readers take the header
    from the first non-blank row, skip rows of blank cells, and reject a
    wrong corner cell, a row of the wrong width and a non-numeric cell with
    an error naming the file and the row, and a row without a label and a
    carriage return that does not end a line (as old Mac spreadsheets write
    them) with one naming the line. The contingency header's blank corner
    is not a row without a label."""
    header, rows, load, content = _labelled_csv(kind, dataset)
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    expected = content(load(path, topo))
    path.write_text("\n".join(["", " , ", header, "", *rows, ",,"]) + "\n")
    assert content(load(path, topo)) == expected

    label, cells = rows[1].split(",", 1)
    corner = header.split(",")[0]
    for lines, fault in (
        (["x" + header, *rows], f"first header column must be {corner!r}"),
        ([header, rows[0], rows[1] + ",9"], f"row {label!r} has wrong width"),
        ([header, rows[0], ",".join([label, "x", *cells.split(",")[1:]])],
         f"non-numeric value in row {label!r}"),
        ([header, rows[0], f",{cells}"], "line 3: row has no label"),
        ([header, "", f" \t,{cells}", rows[0]], "line 3: row has no label"),
    ):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load(path, topo)
        assert str(err.value) == f"{path}: {fault}"

    for text, lineno in (
        ("\r".join([header, *rows]) + "\r", 1),
        ("\r\n".join([header, *rows]) + "\r", len(rows) + 1),
        ("\r\n".join([header, rows[0], f"{label}\r,{cells}"]) + "\r\n", 3),
    ):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as err:
            load(path, topo)
        assert str(err.value) == \
            f"{path}: line {lineno}: carriage return without a line feed"


@pytest.mark.parametrize("kind", ["activity", "descriptors", "contingency"])
def test_labelled_csv_readers_share_one_number_rule(tmp_path, topo, dataset,
                                                    kind):
    """Each reader takes a cell as Python `float()` parses it: one with
    underscores, surrounding spaces or non-ASCII digits loads as the number
    written plainly, and a hexadecimal or blank cell is non-numeric."""
    header, rows, load, content = _labelled_csv(kind, dataset)
    label, cells = rows[1].split(",", 1)
    rest = cells.split(",")[1:]
    path = tmp_path / f"{kind}.csv"

    def write(text):
        path.write_text("\n".join([header, rows[0], ",".join(
            [label, text, *rest]), *rows[2:]]) + "\n", encoding="utf-8")

    for text in ("1_000", " 1.5 ", "\u0661\u0662", "+2E0"):
        write(repr(float(text)))
        expected = content(load(path, topo))
        write(text)
        assert content(load(path, topo)) == expected, text
    for text in ("0x10", "", " ", "1.5x"):
        write(text)
        with pytest.raises(ValueError) as err:
            load(path, topo)
        assert str(err.value) == \
            f"{path}: non-numeric value in row {label!r}", text


@pytest.mark.parametrize("kind", ["activity", "descriptors", "contingency"])
def test_labelled_csv_readers_skip_a_leading_bom(tmp_path, topo, dataset,
                                                 kind):
    """A UTF-8 byte-order mark that starts the file, as spreadsheet "CSV
    UTF-8" exports write it, is not part of the corner cell: each reader
    loads the file as it loads it without the mark. A mark anywhere else
    stays part of its cell: a second mark, one that starts a later line and
    one ahead of a number each fail as the cell would."""
    header, rows, load, content = _labelled_csv(kind, dataset)
    path = tmp_path / f"{kind}.csv"
    text = "\n".join([header, *rows]) + "\n"
    path.write_text(text)
    expected = content(load(path, topo))
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert content(load(path, topo)) == expected

    bom = codecs.BOM_UTF8.decode()
    label, cells = rows[1].split(",", 1)
    corner = header.split(",")[0]
    no_header = f"first header column must be {corner!r}"
    for lines, fault in (
        ([bom + bom + header, *rows], no_header),
        ([bom, bom + header, *rows], no_header),
        ([bom + header, rows[0], f"{label},{bom}{cells}"],
         f"non-numeric value in row {label!r}"),
    ):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load(path, topo)
        assert str(err.value) == f"{path}: {fault}"


NON_FINITE = ("nan", "+nan", "-nan", "NaN", " nan ", "inf", "+inf", "-inf",
              "Infinity", "+infinity", "-Infinity", "INF")


def test_table_with_a_bom_provides_the_rows_without_it(tmp_path, topo,
                                                      dataset):
    """A table that starts with a byte-order mark provides every row bit
    for bit as the same file without it: row offsets count the mark."""
    rng = np.random.default_rng(3)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_descriptor_table(plain, dataset, [
        (g.render(), rng.normal(size=40)) for g in topo.all_genotypes()])
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want = load_descriptor_table(plain, topo, dataset)
    got = load_descriptor_table(marked, topo, dataset)
    assert got.known_keys() == want.known_keys()
    for g in map(topo.parse, want.known_keys()):
        assert (got.provide(g).values.tobytes()
                == want.provide(g).values.tobytes())


def test_table_csv_nan_rows_load_but_fail_viability(tmp_path, topo, dataset):
    header = "genotype," + ",".join(dataset.molecule_ids)
    path = tmp_path / "nan.csv"
    for token in NON_FINITE:
        path.write_text(header + "\nax," + _cells(token) + "\n")
        provider = load_descriptor_table(path, topo, dataset)
        ph = provider.provide(topo.parse("ax"))
        cell = ph.values[0]
        assert not math.isfinite(cell), token
        assert cell == float(token) or math.isnan(float(token)), token
        assert np.array_equal(ph.values[1:], np.full(39, 1.5))
        report = check_viability(ph, dataset, ViabilityPolicy())
        assert report.failed_criteria() == ("finite", "non_constant"), token


def test_table_load_memory_is_bounded(tmp_path):
    """Indexing a 2048 x 206 table (8.3 MB) keeps each row's byte offset,
    far below the rows' float64 payload (3.4 MB), and peaks at that plus
    a few read blocks: a table that kept its rows, or a reader that held
    the file, would pass one bound or the other many times over."""
    topology = binary_topology(11)
    ds = normal_dataset()
    rng = np.random.default_rng(12)
    path = tmp_path / "table.csv"
    write_descriptor_table(path, ds, (
        (g.render(), rng.normal(size=ds.size))
        for g in topology.all_genotypes()))
    tracemalloc.start()
    try:
        provider = load_descriptor_table(path, topology, ds)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(provider) == 2048
    payload = len(provider) * ds.size * 8
    assert kept < payload / 8, f"kept {kept / 2**10:.0f} KiB"
    assert peak - kept < 6 * stats._BLOCK < path.stat().st_size / 20, \
        f"peak {peak / 2**10:.0f} KiB, kept {kept / 2**10:.0f} KiB"


def test_providing_every_row_keeps_memory_bounded(tmp_path, dataset):
    """A table keeps no parsed row: providing each of 4,096 rows in turn,
    as `evoreg validate` does, peaks below half their float64 payload
    (1.3 MB), which a table that kept its parsed rows would exceed."""
    topology = binary_topology(12)
    rng = np.random.default_rng(13)
    path = tmp_path / "table.csv"
    write_descriptor_table(path, dataset, (
        (g.render(), rng.normal(size=dataset.size))
        for g in topology.all_genotypes()))
    provider = load_descriptor_table(path, topology, dataset)
    payload = len(provider) * dataset.size * 8
    tracemalloc.start()
    try:
        for key in provider.known_keys():
            provider.provide(topology.parse(key))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(provider) == 4096
    assert peak < payload / 2, f"peak {peak / 2**10:.0f} KiB"


# alleles holding a comma and a quote, so their keys are quoted in a CSV
QUOTED_TOPOLOGY = GeneticTopology(
    (Gene("g0", ("a", "b,c", 'd"e')), Gene("g1", ("x", "y"))))
QUOTED_DATASET = Dataset(("m0", "m1", "m2"), np.array([6.0, 7.5, 5.0]))
BLANK_ROWS = ("", "   ", ",,,", " , ,\t, ", '"", ,')


def _csv_cell(text: str, quote: bool) -> str:
    return '"' + text.replace('"', '""') + '"' if quote else text


# str.strip removes "\x1c" and bytes.strip does not; float() refuses it
ASCII_PADS = ("", " ", "  ", "\x1c")
WIDE_PADS = ASCII_PADS + ("\u3000", "\xa0")


@st.composite
def _table_files(draw):
    """A descriptor CSV over QUOTED_TOPOLOGY and its dataset: ASCII or
    non-ASCII molecule ids, LF and CRLF line ends, blank rows, plain rows
    (ASCII, unquoted, labelled) and rows with quoted or non-ASCII padded
    keys and cells, every nan/inf spelling."""
    ids = draw(st.sampled_from([QUOTED_DATASET.molecule_ids,
                                ("m\xe90", "\xb51", "m\u30012")]))
    number = st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.sampled_from([5e-324, -5e-324, 1e-99, 1e-165, 1.7e308, -1.7e308])
        .map(repr),
        st.floats(allow_nan=False, width=32).map(lambda v: f"{v:.6g}"),
        st.sampled_from(NON_FINITE))
    keys = draw(st.permutations(
        [g.render() for g in QUOTED_TOPOLOGY.all_genotypes()]))
    lines = ["genotype," + ",".join(ids)]
    for key in keys[:draw(st.integers(1, len(keys)))]:
        lines += draw(st.lists(st.sampled_from(BLANK_ROWS), max_size=2))
        plain = draw(st.booleans())
        pad = st.sampled_from(ASCII_PADS if plain else WIDE_PADS)
        cell_pad = st.sampled_from(
            [p for p in (ASCII_PADS if plain else WIDE_PADS) if p != "\x1c"])
        quoted = st.just(False) if plain else st.booleans()
        quote = draw(quoted) or "," in key or '"' in key
        cells = [_csv_cell(draw(pad) + key + draw(pad), quote)]
        for _ in ids:
            cells.append(_csv_cell(draw(cell_pad) + draw(number)
                                   + draw(cell_pad), draw(quoted)))
        lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""   # no line end after the last row
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, Dataset(ids, QUOTED_DATASET.activity)


def _eager_rows(path) -> dict[str, np.ndarray]:
    """The oracle: every row parsed up front by csv.reader and float()."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    return {r[0].strip(): np.array([float(c) for c in r[1:]])
            for r in rows[1:]}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_table_files())
def test_indexed_table_matches_an_eager_reader(table):
    """The provider's rows, parsed one at a time from their byte offsets,
    equal bit for bit what an eager csv.reader + float() pass reads, in
    the same order."""
    text, ds = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _eager_rows(path)
        provider = load_descriptor_table(path, QUOTED_TOPOLOGY, ds)
        assert list(provider.known_keys()) == list(expected)
        for key, values in expected.items():
            got = provider.provide(QUOTED_TOPOLOGY.parse(key)).values
            assert got.tobytes() == values.tobytes(), key


@pytest.mark.parametrize("row", ['"b,c\nx",1,2,3', 'ax,"1\n",2,3'])
def test_table_record_spanning_lines_is_rejected(tmp_path, row):
    """A record is one line, so that its byte offset finds it: a quoted
    cell left open at the end of its line fails the load, naming the file
    and the line."""
    path = tmp_path / "table.csv"
    path.write_text("genotype,m0,m1,m2\n\n" + row + "\n")
    with pytest.raises(DescriptorDataError) as err:
        load_descriptor_table(path, QUOTED_TOPOLOGY, QUOTED_DATASET)
    assert str(err.value) == \
        f"{path}: line 3: quoted cell runs past the end of the line"


def test_table_wrong_width_deep_in_the_file_names_the_row(tmp_path):
    """A row of the wrong width dozens of blocks into a generated table
    loads, and fails naming that row when it is provided; its neighbours
    are provided from their own offsets."""
    topology = binary_topology(12)
    ds = normal_dataset(m=64)
    rng = np.random.default_rng(14)
    path = tmp_path / "table.csv"
    write_descriptor_table(path, ds, (
        (g.render(), rng.normal(size=ds.size))
        for g in topology.all_genotypes()))
    lines = path.read_bytes().split(b"\n")
    key, _, cells = lines[3000].partition(b",")
    lines[3000] = key + b"," + cells.partition(b",")[2]
    path.write_bytes(b"\n".join(lines))
    assert len(b"\n".join(lines[:3000])) > 50 * stats._BLOCK
    provider = load_descriptor_table(path, topology, ds)
    keys = provider.known_keys()
    assert keys[2999] == key.decode() and len(keys) == 4096
    for near in (keys[2998], keys[3000]):
        assert provider.provide(topology.parse(near)).values.size == ds.size
    with pytest.raises(DescriptorDataError) as err:
        provider.provide(topology.parse(keys[2999]))
    assert str(err.value) == f"{path}: row {key.decode()!r} has wrong width"


# cells and labels of a labelled-row line: plain ones (padded, long, empty;
# "\x1c" is blank to str.strip only), then quoted and non-ASCII ones
PLAIN_CELLS = ("1.5", " -2 ", "", "x", "7" * 90, "\x1c")
READER_CELLS = PLAIN_CELLS + ('"4,5"', '""', "\xb5", "m\u3000")
PLAIN_LABELS = ("a", " b ", "c" * 80, "")
READER_LABELS = PLAIN_LABELS + ('"d,e"', "\xe9")


@st.composite
def _labelled_files(draw):
    """A labelled-row CSV with corner "c", as bytes: LF and CRLF line
    ends, maybe a leading byte-order mark and no line end after the last
    line, blank rows, rows of plain, long, and (in half the files) quoted
    and non-ASCII cells; and now and then a wrong corner, a row of the
    wrong width, a quoted cell left open or a byte that is not UTF-8."""
    plain = draw(st.booleans())
    labels = st.sampled_from(PLAIN_LABELS if plain else READER_LABELS)
    cells = st.sampled_from(PLAIN_CELLS if plain else READER_CELLS)
    width = draw(st.integers(1, 4))
    lines = [",".join(["c", *(f"m{i}" for i in range(1, width))]).encode()]
    if draw(st.integers(0, 9)) == 0:
        lines[0] = b"x" + lines[0]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 29))
        if kind < 3:
            lines.append(draw(st.sampled_from(BLANK_ROWS)).encode())
            continue
        n = width - 1 + (kind == 3) * draw(st.sampled_from([-1, 1]))
        line = ",".join([draw(labels), *draw(st.lists(
            cells, min_size=max(n, 0), max_size=max(n, 0)))]).encode()
        lines.append(line + {4: b',"open', 5: b"\xff"}.get(kind, b""))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = b""
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + b"".join(line + end for line, end in zip(lines, ends))


def _width_checked(fh, corner):
    """`stats.read_labelled_rows` with `lines`, its rows taken out of their
    blocks in turn, each row split by `stats.row_cells`, so that a row of
    the wrong width fails before it is yielded."""
    rows = stats.read_labelled_rows(fh, corner, lines=True)
    columns = next(rows)
    yield columns
    for label, line in (row for block in rows for row in block):
        stats.row_cells(fh.name, label, line, len(columns))
        yield label, line


def _indexed(fh, corner):
    """`stats.read_labelled_rows` without lines, as `_TableRows` reads it:
    the column labels, then each block's (label, offset) rows in turn."""
    rows = stats.read_labelled_rows(fh, corner)
    yield next(rows)
    for block in rows:
        yield from block


def _read_all(read, path, corner="c"):
    """What `read` yields from the file at `path` for `corner`, and the
    message of the error that ends it (None if none does)."""
    rows = []
    with open(path, "rb") as fh:
        try:
            for row in read(fh, corner):
                rows.append(row)
        except ValueError as exc:
            return rows, str(exc)
    return rows, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_labelled_files())
# the last comma of a file that ends in an empty cell, with no line end
@example(b"c,m1,m2\r\na,1,")
def test_block_reader_matches_a_line_reader(data):
    """Read in blocks of 1, 2, 7 and 64 bytes and at the module's own size,
    so that long rows, CRLFs and the byte-order mark straddle block
    boundaries, `read_labelled_rows` with `lines`, each row's width checked
    as it is yielded, yields the labels and lines that reading one line at
    a time yields, and fails with the same first error. Read without
    `lines`, it yields the same labels with each line's byte offset, up to
    a row of the wrong width, which only a caller that splits the row
    finds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_bytes(data)
        rows, error = _read_all(labelled_rows_oracle, path)
        header, rows = rows[:1], rows[1:]
        lines = [*header, *((label, line) for label, _, line in rows)]
        offsets = [*header, *((label, start) for label, start, _ in rows)]
        for block in (1, 2, 7, 64, stats._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stats, "_BLOCK", block)
                got = _read_all(_width_checked, path)
                index = _read_all(_indexed, path)
            assert got == (lines, error), block
            if error is None or not error.endswith("has wrong width"):
                assert index == (offsets, error), block
            else:
                assert index[0][:len(offsets)] == offsets, block


@pytest.mark.parametrize("line_end", [b"\r\n", b"\n"])
def test_block_reader_indexes_a_full_size_table(tmp_path, line_end):
    """A 4,096-row table as `write_descriptor_table` writes it (CRLF) and
    as an LF copy, both many blocks long, read at the module's block size
    without `lines`: the labels and offsets that reading one line at a
    time yields, and a table provider that finds each row at its offset."""
    topology = binary_topology(12)
    ds = normal_dataset(m=64)
    rng = np.random.default_rng(15)
    path = tmp_path / "table.csv"
    write_descriptor_table(path, ds, (
        (g.render(), rng.normal(size=ds.size))
        for g in topology.all_genotypes()))
    path.write_bytes(path.read_bytes().replace(b"\r\n", line_end))
    assert path.stat().st_size > 50 * stats._BLOCK
    rows, error = _read_all(labelled_rows_oracle, path, "genotype")
    assert error is None and len(rows) == 4097
    got = _read_all(_indexed, path, "genotype")
    assert got == ([rows[0], *(row[:2] for row in rows[1:])], None)
    provider = load_descriptor_table(path, topology, ds)
    for label, _, line in rows[1::511]:
        values = provider.provide(topology.parse(label)).values
        assert values.tolist() == stats.numbers(
            path, label, stats.split_line(line)[1:]).tolist()


def test_table_rows_read_after_the_file_is_removed(tmp_path, topo, dataset):
    """The provider reads rows through the handle it opened at load, so a
    removed file still provides them; every provide of a row gives its
    values again, read-only."""
    rows = {g.render(): np.arange(40.0) * i
            for i, g in enumerate(topo.all_genotypes())}
    path = tmp_path / "table.csv"
    write_descriptor_table(path, dataset, rows.items())
    provider = load_descriptor_table(path, topo, dataset)
    path.unlink()
    for g in map(topo.parse, provider.known_keys()):
        for _ in range(2):
            values = provider.provide(g).values
            assert np.array_equal(values, rows[g.render()])
            assert not values.flags.writeable


def test_collected_table_provider_closes_its_file(tmp_path, topo, dataset):
    path = tmp_path / "table.csv"
    write_descriptor_table(path, dataset, [("ax", np.arange(40.0))])
    provider = load_descriptor_table(path, topo, dataset)
    handle = provider._table._fh
    provider.provide(topo.parse("ax"))
    assert not handle.closed
    del provider
    gc.collect()
    assert handle.closed


# --- synthetic provider -----------------------------------------------------------


def test_synthetic_deterministic(topo, dataset):
    g = Genotype(topo, (1, 0))
    a = SyntheticProvider(topo, dataset, seed=9).provide(g)
    b = SyntheticProvider(topo, dataset, seed=9).provide(g)
    assert np.array_equal(a.values, b.values)
    c = SyntheticProvider(topo, dataset, seed=10).provide(g)
    assert not np.array_equal(a.values, c.values)


def test_synthetic_uniform_interval(topo, dataset):
    provider = SyntheticProvider(topo, dataset, seed=2, low=-1.0, high=3.0)
    rng = random.Random(0)
    values = np.concatenate(
        [provider.provide(random_genotype(topo, rng)).values for _ in range(6)]
    )
    assert values.min() >= -1.0 and values.max() < 3.0


def test_synthetic_uniformity_ks():
    # pool many cells and compare the empirical cdf against uniform
    topo = GeneticTopology(tuple(Gene(f"g{i}", ("a", "b")) for i in range(12)))
    ids = tuple(f"m{i}" for i in range(100))
    ds = Dataset(ids, np.linspace(0, 1, 100) + 1.0)
    provider = SyntheticProvider(topo, ds, seed=6)
    rng = random.Random(1)
    seen = set()
    chunks = []
    while len(seen) < 1000:
        g = random_genotype(topo, rng)
        if g.render() in seen:
            continue
        seen.add(g.render())
        chunks.append(provider.provide(g).values)
    pooled = np.sort(np.concatenate(chunks))  # 100k cells
    n = pooled.size
    ecdf = np.arange(1, n + 1) / n
    d = float(np.max(np.abs(ecdf - pooled)))
    assert d < 0.01


def test_synthetic_planted_noise_free_tracks_activity(topo, dataset):
    g = Genotype(topo, (0, 2))
    provider = SyntheticProvider(
        topo, dataset, seed=3,
        planted={g.render(): PlantedSignal(slope=2.0, intercept=-1.0)},
    )
    ph = provider.provide(g)
    # the independent check: fit the known linear map and inspect residuals
    slope, intercept = np.polyfit(dataset.activity, ph.values, 1)
    residuals = ph.values - (slope * dataset.activity + intercept)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-10)
    assert np.max(np.abs(residuals)) < 1e-10
    assert simple_r2(ph.values, dataset.activity) == pytest.approx(1.0)


def test_synthetic_planted_noise_is_deterministic(topo, dataset):
    g = Genotype(topo, (0, 2))
    planted = {g.render(): PlantedSignal(noise_sd=0.5)}
    a = SyntheticProvider(topo, dataset, seed=3, planted=planted).provide(g)
    b = SyntheticProvider(topo, dataset, seed=3, planted=planted).provide(g)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, dataset.activity)


def fresh_stream_values(provider, key):
    """The values a freshly built `Generator(Philox(key))` gives a key."""
    digest = hashlib.blake2b(f"{provider.seed}|{key}".encode(),
                             digest_size=16).digest()
    rng = np.random.Generator(
        np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64)))
    m = provider.dataset.size
    signal = provider.planted.get(key)
    if signal is None:
        return rng.uniform(provider.low, provider.high, m)
    values = signal.intercept + signal.slope * provider.dataset.activity
    if signal.noise_sd > 0.0:
        values = values + signal.noise_sd * rng.standard_normal(m)
    return values


def test_synthetic_rekeyed_stream_matches_fresh_generator():
    """One re-keyed generator serves every key; interleaving uniform and
    planted-noise genotypes (whose normal draws stop mid-buffer at an odd
    molecule count) and cache hits must not carry any state from one key
    into the next."""
    topo = binary_topology(8)
    ids = tuple(f"m{i}" for i in range(41))
    ds = Dataset(ids, np.random.default_rng(12).normal(6.5, 0.8, 41))
    rng = random.Random(13)
    genotypes = [random_genotype(topo, rng) for _ in range(60)]
    planted = {g.render(): PlantedSignal(slope=0.5, intercept=1.0,
                                         noise_sd=0.3)
               for g in genotypes[::3]}
    planted[genotypes[1].render()] = PlantedSignal(slope=2.0)  # no noise
    provider = SyntheticProvider(topo, ds, seed=14, low=-2.0, high=5.0,
                                 planted=planted)
    order = genotypes + genotypes[::-2] + genotypes[5:20]
    for g in order:
        got = provider.provide(g).values
        assert got.tobytes() == fresh_stream_values(provider, g.render()
                                                    ).tobytes()


def test_synthetic_cache_evicts_least_recent_and_resynthesizes(monkeypatch):
    """The provider keeps at most CACHE_PHENOTYPES phenotypes, evicting the
    least recently used; an evicted genotype is synthesized again to the
    same bits, planted or not."""
    monkeypatch.setattr(descriptors, "CACHE_PHENOTYPES", 3)
    topo = binary_topology(6)
    ds = normal_dataset(m=30)
    a, b, c, d = (Genotype(topo, tuple(int(x) for x in f"{i:06b}"))
                  for i in (1, 2, 3, 4))
    provider = SyntheticProvider(topo, ds, seed=3, planted={
        b.render(): PlantedSignal(slope=0.5, noise_sd=0.2)})
    first = {g.key: provider.provide(g).values.tobytes() for g in (a, b, c)}
    provider.provide(a)             # a becomes the most recent
    provider.provide(d)             # evicts b
    assert list(provider._cache) == [c.render(), a.render(), d.render()]
    for g in (b, c, a):
        assert provider.provide(g).values.tobytes() == first[g.key]
        assert len(provider._cache) == 3
    assert list(provider._cache) == [b.render(), c.render(), a.render()]


def test_planted_signal_and_interval_must_be_finite(topo, dataset):
    for bad in (dict(slope=math.nan), dict(intercept=math.inf),
                dict(noise_sd=math.nan), dict(noise_sd=-0.1)):
        with pytest.raises(ValueError, match="finite slope"):
            PlantedSignal(**bad)
    for low, high in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                      (1.0, 1.0)):
        with pytest.raises(ValueError, match="finite low < high"):
            SyntheticProvider(topo, dataset, seed=1, low=low, high=high)


def test_pick_planted_genotypes(topo):
    keys = pick_planted_genotypes(topo, 4, seed=8)
    assert len(keys) == len(set(keys)) == 4
    assert keys == pick_planted_genotypes(topo, 4, seed=8)
    with pytest.raises(ValueError):
        pick_planted_genotypes(topo, 7, seed=8)  # space holds only 6


# --- activity file -----------------------------------------------------------------


def test_activity_round_trip(tmp_path, dataset):
    path = tmp_path / "activity.csv"
    write_activity(dataset, path)
    loaded = load_activity(path)
    assert loaded.molecule_ids == dataset.molecule_ids
    assert np.array_equal(loaded.activity, dataset.activity)


def test_activity_reports_the_first_fault_in_the_file(tmp_path):
    """The activity column is parsed at once, yet a file with a bad cell
    and a row of the wrong width reports whichever comes first."""
    path = tmp_path / "faults.csv"
    for body, fault in [
        ("m1,1.0\nm2,abc\nm3\nm4,x\n", "non-numeric value in row 'm2'"),
        ("m1,1.0\nm2,abc\nm3,1.0,2.0\n", "non-numeric value in row 'm2'"),
        ("m1,1.0\nm2\nm3,abc\n", "row 'm2' has wrong width"),
        ("m1,1.0\nm2,2.0,3.0\nm3,abc\n", "row 'm2' has wrong width"),
        ("m1,1.0\nm2,1e5\nm3,?\nm4,!\n", "non-numeric value in row 'm3'"),
        ("m1,1.0\nm2,abc\n,3.0\n", "non-numeric value in row 'm2'"),
        ("m1,1.0\nm2,2.0\n,3.0\nm4,abc\n", "line 4: row has no label"),
    ]:
        path.write_text("molecule,activity\n" + body)
        with pytest.raises(DescriptorDataError) as info:
            load_activity(path)
        assert str(info.value) == f"{path}: {fault}"


def test_activity_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(DescriptorDataError):
        load_activity(path)
    path.write_text("molecule,value\nm1,1.0\n")
    with pytest.raises(DescriptorDataError,
                       match="expected header 'molecule,activity'"):
        load_activity(path)
    path.write_text("molecule,activity\nm1,abc\n")
    with pytest.raises(DescriptorDataError):
        load_activity(path)
    # the dataset's own checks name the file, and a repeated id by name
    for body, fault in [
        ("m1,1.0\nm2,2.0\nm1,3.0\n", "molecule id 'm1' is repeated"),
        ("m1,1.0\nm2,nan\nm3,3.0\n", "activity values must be finite"),
        ("m1,1.0\nm2,2.0\n", "dataset needs at least 3 molecules"),
        # every fit of a constant activity is exact (-0.0 equals 0.0)
        ("m1,6.0\nm2,6.0\nm3,6.0\n", "activity values are all equal"),
        ("m1,0.0\nm2,-0.0\nm3,0\n", "activity values are all equal"),
    ]:
        path.write_text("molecule,activity\n" + body)
        with pytest.raises(DescriptorDataError) as info:
            load_activity(path)
        assert str(info.value) == f"{path}: {fault}"
