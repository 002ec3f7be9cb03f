import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoreg.strategy import (
    METHODS,
    StrategySpec,
    extract,
    extract_deterministic,
    extract_proportional,
    extract_tournament,
)
from tests.conftest import proportional_oracle, tournament_oracle


# finite extremes: subnormal, tiny and near-overflow scores of either sign
EXTREMES = [5e-324, -5e-324, 1e-99, 1e-165, 0.0, 1.7e308, -1.7e308]


def table(scores):
    return np.array(scores, dtype=float)


def test_strategy_spec_validation():
    StrategySpec("tournament", use_ranks=True, normalization=(0.0, 1.0))
    with pytest.raises(ValueError):
        StrategySpec("roulette")
    for bounds in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 1.0),
                   (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="normalization bounds"):
            StrategySpec("proportional", normalization=bounds)
    with pytest.raises(ValueError):
        StrategySpec("proportional", significant_digits=0)


def test_extract_dispatch():
    t = table([1.0, 2.0, 3.0])
    rng = random.Random(0)
    assert len(extract("proportional", t, "max", 2, rng)) == 2
    assert len(extract("deterministic", t, "max", 2, rng)) == 2
    assert len(extract("tournament", t, "max", 2, rng)) == 2


@pytest.mark.parametrize("method", ["proportional", "deterministic", "tournament"])
def test_extract_returns_distinct_valid_indices(method):
    rng = random.Random(5)
    for trial in range(200):
        size = rng.randrange(2, 12)
        scores = [rng.randrange(0, 5) * 1.0 for _ in range(size)]
        direction = rng.choice(["min", "max"])
        t = table(scores)
        n_sel = rng.randrange(1, size + 1)
        picked = extract(method, t, direction, n_sel, rng)
        assert len(picked) == n_sel
        assert len(set(picked)) == n_sel
        assert all(0 <= i < size for i in picked)


def test_extract_fixed_seed_reproducible():
    t = table([3.0, 1.0, 4.0, 1.0, 5.0])
    for method in ("proportional", "deterministic", "tournament"):
        a = extract(method, t, "max", 3, random.Random(99))
        b = extract(method, t, "max", 3, random.Random(99))
        assert a == b


# --- proportional -------------------------------------------------------------


def test_proportional_first_draw_frequencies():
    t = table([1.0, 3.0])
    rng = random.Random(7)
    n = 100_000
    picks = Counter(extract_proportional(t, "max", 1, rng)[0]
                    for _ in range(n))
    assert abs(picks[0] / n - 0.25) < 0.01
    assert abs(picks[1] / n - 0.75) < 0.01


def test_proportional_exhaustion_returns_all():
    t = table([5.0, 1.0, 3.0])
    picked = extract_proportional(t, "max", 3, random.Random(3))
    assert sorted(picked) == [0, 1, 2]


def test_proportional_uniform_when_scores_equal():
    t = table([2.0, 2.0, 2.0, 2.0])
    rng = random.Random(11)
    n = 100_000
    picks = Counter(extract_proportional(t, "max", 1, rng)[0]
                    for _ in range(n))
    for i in range(4):
        assert abs(picks[i] / n - 0.25) < 0.01


def test_proportional_group_mass_matches_value_times_count():
    # first-draw group probabilities follow value*count / total
    t = table([1.0, 1.0, 3.0])
    rng = random.Random(13)
    n = 100_000
    group_low = 0
    for _ in range(n):
        pick = extract_proportional(t, "max", 1, rng)[0]
        group_low += pick in (0, 1)
    assert abs(group_low / n - 2.0 / 5.0) < 0.01


def test_proportional_min_direction_prefers_small_scores():
    t = table([1.0, 3.0])
    rng = random.Random(17)
    n = 100_000
    picks = Counter(extract_proportional(t, "min", 1, rng)[0]
                    for _ in range(n))
    # flipped scores give mass 3 to the small one, 1 to the large one
    assert abs(picks[0] / n - 0.75) < 0.01


def test_proportional_all_zero_scores_fall_back_to_uniform():
    t = table([0.0, 0.0, 0.0])
    rng = random.Random(19)
    n = 30_000
    picks = Counter(extract_proportional(t, "max", 1, rng)[0]
                    for _ in range(n))
    for i in range(3):
        assert abs(picks[i] / n - 1 / 3) < 0.015


def test_proportional_negative_scores_shifted():
    t = table([-2.0, 2.0])
    rng = random.Random(23)
    picks = [extract_proportional(t, "max", 1, rng)[0] for _ in range(20_000)]
    # after the shift the -2 score has zero mass
    assert Counter(picks)[1] > 19_990


# --- deterministic --------------------------------------------------------------


def test_deterministic_takes_best_group_plus_boundary():
    t = table([5.0, 3.0, 3.0, 1.0])
    rng = random.Random(1)
    for _ in range(100):
        picked = extract_deterministic(t, "max", 2, rng)
        assert picked[0] == 0
        assert picked[1] in (1, 2)


def test_deterministic_single_best():
    t = table([5.0, 3.0, 3.0, 1.0])
    assert extract_deterministic(t, "max", 1, random.Random(2)) == [0]
    assert extract_deterministic(t, "min", 1, random.Random(2)) == [3]


def test_deterministic_boundary_group_uniform():
    t = table([5.0, 3.0, 3.0, 1.0])
    rng = random.Random(29)
    n = 100_000
    picks = Counter(extract_deterministic(t, "max", 2, rng)[1]
                    for _ in range(n))
    assert abs(picks[1] / n - 0.5) < 0.01
    assert abs(picks[2] / n - 0.5) < 0.01


def test_deterministic_dominance_invariant():
    rng = random.Random(31)
    for _ in range(1000):
        size = rng.randrange(2, 10)
        direction = rng.choice(["min", "max"])
        scores = [float(rng.randrange(0, 4)) for _ in range(size)]
        t = table(scores)
        n_sel = rng.randrange(1, size + 1)
        picked = set(extract_deterministic(t, direction, n_sel, rng))
        left_out = set(range(size)) - picked
        if not left_out:
            continue
        if direction == "max":
            assert min(scores[i] for i in picked) >= max(
                scores[i] for i in left_out
            )
        else:
            assert max(scores[i] for i in picked) <= min(
                scores[i] for i in left_out
            )


# --- tournament -----------------------------------------------------------------


def test_tournament_prefers_better_index():
    t = table([1.0, 100.0])
    rng = random.Random(37)
    n = 100_000
    wins = sum(extract_tournament(t, "max", 1, rng)[0] == 1 for _ in range(n))
    assert wins / n > 0.6  # strictly better than a fair coin


def test_tournament_min_direction_prefers_small():
    t = table([1.0, 100.0])
    rng = random.Random(41)
    n = 50_000
    wins = sum(extract_tournament(t, "min", 1, rng)[0] == 0 for _ in range(n))
    assert wins / n > 0.6


def test_tournament_uniform_on_ties():
    t = table([7.0, 7.0, 7.0, 7.0])
    rng = random.Random(43)
    n = 100_000
    picks = Counter(extract_tournament(t, "max", 1, rng)[0] for _ in range(n))
    for i in range(4):
        assert abs(picks[i] / n - 0.25) < 0.01


def test_tournament_full_extraction_is_permutation():
    t = table([3.0, 1.0, 2.0, 5.0])
    picked = extract_tournament(t, "max", 4, random.Random(47))
    assert sorted(picked) == [0, 1, 2, 3]


# --- selection pressure -------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def selection_pressure(method, size, n_sel, sets=2000, seed=19):
    """(I, loss of diversity) of `method` drawing `n_sel` of `size` scores,
    direction max, over `sets` seeded sets of N(0, 1) scores shifted by
    their minimum, so the lowest is 0 and proportional mass is nonnegative
    (the shift moves only proportional's figures). Each set is drawn from
    ceil(size / n_sel) times, so the draws pick at least as many indices as
    the set holds (Blickle & Thiele select a whole population). I is the
    mean standardized score of the drawn indices over every draw, 0 for a
    uniform draw; the loss is the share of a set's indices no draw took."""
    gen, rng = np.random.default_rng(seed), random.Random(seed)
    draws = math.ceil(size / n_sel)
    intensity, never = 0.0, 0
    for _ in range(sets):
        x = gen.normal(size=size)
        z = (x - x.mean()) / x.std()
        drawn = np.zeros(size, dtype=bool)
        for _ in range(draws):
            picked = extract(method, x - x.min(), "max", n_sel, rng)
            intensity += z[picked].mean()
            drawn[picked] = True
        never += size - np.count_nonzero(drawn)
    return intensity / (sets * draws), never / (sets * size)


def test_selection_pressure_orders_the_methods():
    """At the engine's sizes (2k = 6 parents of p = 20, and 6 victims of
    the 18 slots outside a two-member elite), deterministic applies more
    pressure than proportional and proportional more than tournament, whose
    I lies within a Monte Carlo bound of a uniform draw's 0: one uniform
    draw's mean standardized score of 6 of 20 has sd sqrt((1/6)(14/19)) =
    0.35, so the mean over 2,000 sets has a standard error below 0.008, and
    0.05 is six of them. README's pressure table holds these figures."""
    readme = README.read_text(encoding="utf-8")
    parents, victims = ({m: selection_pressure(m, size, 6) for m in METHODS}
                        for size in (20, 18))
    for pressure in parents, victims:
        assert (pressure["deterministic"][0] > pressure["proportional"][0]
                > pressure["tournament"][0])
    assert abs(parents["tournament"][0]) < 0.05
    for m in METHODS:
        cells = (f"{v:.2f}" for v in (*parents[m], *victims[m]))
        assert f"| {m} | {' | '.join(cells)} |" in readme


# --- properties over scores with ties ------------------------------------------


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    scores=st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.5, 7.0]),
                    min_size=1, max_size=16)
    | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16)
    | st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=16),
    direction=st.sampled_from(("min", "max")),
    method=st.sampled_from(METHODS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_extract_properties(scores, direction, method, seed, data):
    """Every method, either direction: distinct in-range indices, a
    permutation when all are extracted, the same draw from the same seed,
    and deterministic extraction leaves out no score better than one it
    takes."""
    t = table(scores)
    size = len(scores)
    n_sel = data.draw(st.integers(1, size), label="n_sel")
    picked = extract(method, t, direction, n_sel, random.Random(seed))
    assert len(picked) == len(set(picked)) == n_sel
    assert all(type(i) is int and 0 <= i < size for i in picked)
    assert extract(method, t, direction, n_sel, random.Random(seed)) == picked
    assert sorted(extract(method, t, direction, size,
                          random.Random(seed))) == list(range(size))
    if method == "deterministic":
        taken = [t[i] for i in picked]
        left = [t[i] for i in range(size) if i not in set(picked)]
        if left and direction == "max":
            assert min(taken) >= max(left)
        elif left:
            assert max(taken) <= min(left)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scores=st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.5, 7.0]),
                    min_size=1, max_size=12)
    | st.lists(st.just(0.0), min_size=1, max_size=6)
    | st.lists(st.sampled_from([-1.7e308, 0.0, 1e308, 1.7e308]),
               min_size=1, max_size=8)
    | st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=8)
    | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
    direction=st.sampled_from(("min", "max")),
    seed=st.integers(0, 2**32 - 1),
)
@example(scores=[-1.7e308, 1.7e308, 1.7e308], direction="max", seed=0)
# 30 or more distinct groups, so that draws land before, in and after the
# groups already drawn from and the running sums are redone from each
@example(scores=[float(v) for v in range(30)], direction="max", seed=1)
@example(scores=[float(v % 31) * 0.75 - 9.0 for v in range(40)],
         direction="min", seed=2)
@example(scores=[0.0] * 5 + [2.0**-v for v in range(34)], direction="max",
         seed=3)
@example(scores=[-1.7e308, 0.0, 1e308] + [float(v) for v in range(30)],
         direction="min", seed=4)
@example(scores=[-1.7e308, 1.7e308, 1.7e308] + [v * 1e306 for v in range(30)],
         direction="max", seed=5)
@example(scores=[-1.7e308, 0.0, 1e308], direction="min", seed=0)
def test_extraction_draw_order_matches_oracle(scores, direction, seed):
    """Tournament and proportional extraction, at every n_sel, pick what
    their oracles pick and leave the generator in the same state, so every
    draw, each tie's coin included, happens in the oracle's order. The
    scores hold many ties, all-zero tables (uniform fallback) and masses
    that overflow to inf (a NaN point once an inf group is exhausted)."""
    t = table(scores)
    for n_sel in range(1, t.size + 1):
        for method, oracle in ((extract_tournament, tournament_oracle),
                               (extract_proportional, proportional_oracle)):
            rng, ref = random.Random(seed), random.Random(seed)
            assert method(t, direction, n_sel, rng) == \
                oracle(t, direction, n_sel, ref)
            assert rng.getstate() == ref.getstate()
