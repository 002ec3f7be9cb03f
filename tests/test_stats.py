import math
import random
import warnings

import numpy as np
import pytest

from evoreg.stats import (
    ContingencyTable,
    chi2_homogeneity,
    chi2_sf,
    format_report,
    jarque_bera,
    load_contingency_csv,
    student_t_two_tail,
    t_critical,
    write_contingency_csv,
)
from tests.conftest import chi2_partials_oracle, t_critical_oracle
from tests.test_acceptance import REFERENCE

# frozen once from an arbitrary-precision evaluation of the regularized
# incomplete gamma/beta functions
CHI2_SF_ORACLE = [
    (0.5, 1, 0.47950012218695346),
    (2.25, 2, 0.32465246735834973),
    (13.6, 2, 0.0011137751478448033),
    (4.85, 2, 0.088478119042087317),
    (51.4, 2, 6.8965488232212051e-12),
    (69.9, 4, 2.3829051298140694e-14),
    (15.1, 4, 0.0044982415868423447),
    (1.0, 3, 0.8012519569012008),
    (7.7, 5, 0.17356267022817298),
    (30.0, 10, 0.00085664121077530039),
    (80.0, 50, 0.0044826565655732046),
    (110.0, 100, 0.23220478050085633),
    (500.0, 100, 1.7201210053695375e-54),
    (450.0, 60, 4.0747246554481605e-61),
    (0.001, 1, 0.97477287936996039),
    (200.0, 4, 3.7572767357810443e-42),
    # mpmath 1.3.0 at 50 digits, gammainc(df/2, x/2, inf, regularized=True)
    (40.0, 9, 7.598525229464276e-6),
    (95.0, 9, 1.6080063508051432e-16),
    (120.0, 51, 1.7288918608233702e-7),
    (250.0, 51, 4.9169691267013428e-28),
]

T_TWO_TAIL_ORACLE = [
    (0.5, 1, 0.70483276469913345),
    (1.0, 1, 0.5),
    (2.0, 2, 0.18350341907227397),
    (1.5, 3, 0.23058386524482305),
    (2.228, 10, 0.050011771817111365),
    (1.96, 5, 0.10728795250529417),
    (2.5, 30, 0.018115649068066694),
    (1.96, 100, 0.052778901366229666),
    (3.2, 7, 0.015065811342489304),
    (1.96, 1000, 0.050273184955748718),
    (1.96, 1000000, 0.049996067585269791),
    (12.7062047361747, 1, 0.05000000000000002),
    (0.05, 4, 0.96251951844119452),
    (8.0, 20, 1.1656628271488523e-7),
    # near the alpha = 0.05 and 0.25 critical values at a sample's df: mpmath
    # 1.3.0 at 50 digits, betainc(df/2, 1/2, 0, df/(df+t^2), regularized=True)
    (1.97, 203, 0.0501981678257857),
    (1.972, 204, 0.049960978775008467),
    (1.155, 203, 0.24944817062827416),
    (1.15, 204, 0.25149021482357159),
]

# the root in t of the T_TWO_TAIL_ORACLE expression at alpha, by mpmath's
# findroot at 50 digits
T_CRITICAL_ORACLE = [
    (0.05, 204, 1.9716608894937619),
    (0.25, 203, 1.1536503652893365),
]


@pytest.mark.parametrize("x,df,expected", CHI2_SF_ORACLE)
def test_chi2_sf_against_frozen_oracle(x, df, expected):
    assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-10)


def test_chi2_sf_keeps_relative_accuracy_deep_in_the_tail():
    # a sum of positive terms: no cancellation however small the tail
    for x, df, expected in CHI2_SF_ORACLE:
        if expected < 1e-6:
            assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-12)


def test_chi2_sf_is_one_where_the_lower_tail_rounds_away():
    # the lower tail at (12.2, 100) is 1.5e-28 (mpmath), far below half an
    # ulp of 1; summed, the rounded upper-tail terms land a few ulps off 1
    assert chi2_sf(12.2, 100) == 1.0


def test_chi2_sf_closed_forms():
    # df = 2: exp(-x/2); df = 4: exp(-x/2) (1 + x/2)
    for x in (0.3, 1.0, 2.25, 13.6, 40.0, 180.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
        assert chi2_sf(x, 4) == pytest.approx(
            math.exp(-x / 2) * (1 + x / 2), rel=1e-12
        )


def test_chi2_sf_bounds_and_monotonicity():
    for df in (1, 2, 5, 20, 100):
        assert chi2_sf(0.0, df) == 1.0
        values = [chi2_sf(x, df) for x in np.linspace(0.01, 120, 60)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_chi2_sf_of_a_statistic_whose_half_underflows_is_one():
    for df in (1, 2, 3):
        assert chi2_sf(5e-324, df) == 1.0


def test_chi2_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)
    with pytest.raises(ValueError, match="nan"):
        chi2_sf(math.nan, 2)


def test_student_t_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        student_t_two_tail(math.nan, 5)


def test_infinite_statistics_have_zero_tails():
    assert chi2_sf(math.inf, 2) == 0.0
    for df in (1, 2, 7, 204):
        assert student_t_two_tail(math.inf, df) == 0.0
        assert student_t_two_tail(-math.inf, df) == 0.0


@pytest.mark.parametrize("tail", [chi2_sf, student_t_two_tail])
def test_df_must_be_integral(tail):
    assert tail(1.5, 4.0) == tail(1.5, 4)
    with pytest.raises(ValueError, match="positive integer, got 4.5"):
        tail(1.5, 4.5)


@pytest.mark.parametrize("t,df,expected", T_TWO_TAIL_ORACLE)
def test_student_t_against_frozen_oracle(t, df, expected):
    assert student_t_two_tail(t, df) == pytest.approx(expected, abs=1e-10)


def test_student_t_closed_forms():
    # df = 1 is a Cauchy tail; df = 2 has an elementary closed form
    for t in (0.2, 0.7, 1.5, 4.0, 20.0):
        assert student_t_two_tail(t, 1) == pytest.approx(
            1 - 2 / math.pi * math.atan(t), abs=1e-13
        )
        assert student_t_two_tail(t, 2) == pytest.approx(
            1 - t / math.sqrt(t * t + 2), abs=1e-13
        )


def test_student_t_normal_limit():
    # independent oracle: 2*Phi(-1.96) via the complementary error function
    limit = math.erfc(1.96 / math.sqrt(2))
    assert abs(student_t_two_tail(1.96, 10**6) - limit) < 5e-4


def test_student_t_symmetry_and_zero():
    assert student_t_two_tail(0.0, 7) == 1.0
    for t in (0.3, 1.2, 2.8):
        assert student_t_two_tail(t, 9) == student_t_two_tail(-t, 9)


def test_student_t_monotone_in_statistic():
    values = [student_t_two_tail(t, 12) for t in np.linspace(0, 8, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_t_critical_round_trip():
    for alpha in (0.01, 0.05, 0.2):
        for df in (3, 10, 200):
            crit = t_critical(alpha, df)
            assert student_t_two_tail(crit, df) == pytest.approx(alpha, abs=1e-9)


@pytest.mark.parametrize("alpha,df,expected", T_CRITICAL_ORACLE)
def test_t_critical_against_frozen_oracle(alpha, df, expected):
    assert t_critical(alpha, df) == pytest.approx(expected, rel=1e-12)


def test_t_critical_is_the_200_step_bisection_bit_for_bit():
    # once lo and hi are adjacent floats the midpoint is one of them, and
    # the reference's later steps write it back unchanged
    for alpha in (1e-6, 0.001, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999999,
                  1.0 - 2.0 ** -52):
        for df in (*range(1, 61), *range(199, 205), 1000):
            got = t_critical.__wrapped__(alpha, df)
            assert got.hex() == t_critical_oracle(alpha, df).hex(), (alpha, df)
    with pytest.raises(ArithmeticError, match="failed to bracket"):
        t_critical(1e-12, 1)


def test_jarque_bera_hand_computed():
    # mean 0, m2 = 1, m3 = 0, m4 = 1 -> S = 0, K = 1, JB = (4/6)(0 + 4/4)
    jb, p = jarque_bera([-1.0, -1.0, 1.0, 1.0])
    assert jb == pytest.approx(2 / 3, rel=1e-12)
    assert p == pytest.approx(math.exp(-1 / 3), rel=1e-10)


def test_jarque_bera_zero_for_skewless_mesokurtic_sample():
    # symmetric sample tuned so the fourth standardized moment equals 3
    a = math.sqrt(6 + math.sqrt(50))
    x = [-a, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, a]
    jb, p = jarque_bera(x)
    assert jb < 1e-12
    assert p > 1 - 1e-6


def test_jarque_bera_detects_outlier():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(500)
    x[13] = 10.0
    _, p = jarque_bera(x)
    assert p < 0.01


@pytest.mark.parametrize("x,jb", [
    ([1e200, -1e200, 1e200, 0.0, 3.0], math.nan),   # d * d overflows
    ([1e150, -1e150, 1e150, 0.0, 3.0], math.inf),   # m2 ** 1.5 overflows
])
def test_jarque_bera_overflowing_moments_give_p_zero(x, jb):
    """A statistic whose moments overflow is not finite; its tail
    probability is 0, with no RuntimeWarning and no OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, p = jarque_bera(x)
    assert p == 0.0
    assert (math.isnan(got) if math.isnan(jb) else got == jb)


@pytest.mark.parametrize("tiny", [1e-99, 1e-165])
def test_jarque_bera_underflowing_moments_are_scale_free(tiny):
    """A non-constant sample whose squared variance (or variance itself)
    underflows gives the statistic of the same sample at unit scale, with
    no ZeroDivisionError and no zero-variance error; so does a sample of
    subnormals."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    x[-1] = 6.0
    assert jarque_bera(x * tiny) == pytest.approx(jarque_bera(x), rel=1e-9)
    assert jarque_bera([0.0, 0.0, 0.0, 5e-324]) == pytest.approx(
        jarque_bera([0.0, 0.0, 0.0, 1.0]), rel=1e-12)


def test_jarque_bera_errors():
    with pytest.raises(ValueError):
        jarque_bera([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        jarque_bera([1.0, 2.0, 3.0])


# --- homogeneity -------------------------------------------------------------

TABLE_NUM = ContingencyTable(
    [[6760, 7466, 8070], [6537, 7529, 7964], [3922, 4965, 4385]],
    ["P", "T", "D"],
    ["P", "T", "D"],
)


def test_homogeneity_reference_table():
    report = chi2_homogeneity(TABLE_NUM)
    assert report.partial_row[0] == pytest.approx(13.6, abs=0.1)
    assert report.partial_row[1] == pytest.approx(4.85, abs=0.05)
    assert report.partial_row[2] == pytest.approx(51.4, abs=0.2)
    assert report.partial_col[0] == pytest.approx(2.25, abs=0.05)
    assert report.partial_col[1] == pytest.approx(39.3, abs=0.2)
    assert report.partial_col[2] == pytest.approx(28.3, abs=0.2)
    assert report.total == pytest.approx(69.9, abs=0.2)
    assert report.df_total == 4
    assert report.reject_total
    assert report.reject_row == (True, False, True)
    assert report.reject_col == (False, True, True)


def test_homogeneity_identical_rows():
    table = ContingencyTable(
        [[10, 20, 30], [10, 20, 30], [10, 20, 30]], "abc", "xyz"
    )
    report = chi2_homogeneity(table)
    assert report.total == 0.0
    assert report.p_total == 1.0
    assert not report.reject_total
    assert all(p == 1.0 for p in report.p_row + report.p_col)


def test_homogeneity_decomposition_identity():
    rng = random.Random(3)
    for _ in range(50):
        nrow = rng.randrange(2, 5)
        ncol = rng.randrange(2, 5)
        obs = [[rng.randrange(1, 500) for _ in range(ncol)] for _ in range(nrow)]
        report = chi2_homogeneity(ContingencyTable(obs, range(nrow), range(ncol)))
        assert sum(report.partial_row) == pytest.approx(report.total, rel=1e-9)
        assert sum(report.partial_col) == pytest.approx(report.total, rel=1e-9)


def test_homogeneity_expected_margins_match_observed():
    report = chi2_homogeneity(TABLE_NUM)
    obs = TABLE_NUM.observed
    assert np.allclose(report.expected.sum(axis=1), obs.sum(axis=1))
    assert np.allclose(report.expected.sum(axis=0), obs.sum(axis=0))


# the reference tables, and one whose expected counts are all 2.5: rounded
# half up, not to even
@pytest.mark.parametrize("observed", [ref[1] for ref in REFERENCE]
                         + [[[1, 4], [4, 1]]],
                         ids=[ref[0] for ref in REFERENCE] + ["half counts"])
def test_homogeneity_partials_are_the_cellwise_oracle_bit_for_bit(observed):
    labels = range(len(observed))
    report = chi2_homogeneity(ContingencyTable(observed, labels, labels))
    got = (report.partial_row, report.partial_col, report.total)
    assert got == chi2_partials_oracle(observed)


@pytest.mark.parametrize("observed", [[[1, 9], [0, 90]], [[1, 0], [7, 33]]])
def test_an_expected_count_below_one_half_stays_exact(observed):
    report = chi2_homogeneity(ContingencyTable(observed, "ab", "xy"))
    assert report.expected[0, 0] < 0.5
    assert f"({float(report.expected[0, 0])!r})" in format_report(report)
    # d * d may differ by an ulp from the oracle's C pow at a non-integer d
    rows, cols, total = chi2_partials_oracle(observed)
    for got, want, cells in zip(
            report.partial_row + report.partial_col + (report.total,),
            rows + cols + (total,), (2, 2, 2, 2, 4)):
        assert abs(got - want) <= cells * math.ulp(want), (got, want)


def test_homogeneity_rejects_zero_margin():
    with pytest.raises(ValueError):
        chi2_homogeneity(
            ContingencyTable([[0, 5], [0, 7]], ["a", "b"], ["x", "y"])
        )


@pytest.mark.parametrize("counts", [
    [[1, 2], [3, 1e308], [1e308, 5]],   # a margin overflows
    [[1e160, 1], [1, 1e160]],           # margins are finite, row x col is not
])
def test_homogeneity_rejects_overflowing_counts(counts):
    table = ContingencyTable(counts, range(len(counts)), ["x", "y"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^margins and expected counts "
                                             "must be finite$"):
            chi2_homogeneity(table)


def test_homogeneity_rejects_expected_counts_that_underflow():
    """Positive, finite margins whose products underflow give expected
    counts of 0; the test refuses them by its rule, without dividing 0 by 0
    into a NaN statistic."""
    table = ContingencyTable([[1e-200, 1e-200], [1e-200, 1e-200]],
                             ["a", "b"], ["x", "y"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^every expected count \(row "
                           r"margin x column margin / total\) must be "
                           r"positive$"):
            chi2_homogeneity(table)


def test_contingency_validation():
    with pytest.raises(ValueError):
        ContingencyTable([[1, 2]], ["a"], ["x", "y"])  # one row
    with pytest.raises(ValueError):
        ContingencyTable([[1, -2], [3, 4]], ["a", "b"], ["x", "y"])


def test_contingency_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    write_contingency_csv(TABLE_NUM, path)
    loaded = load_contingency_csv(path)
    assert loaded.row_labels == TABLE_NUM.row_labels
    assert loaded.col_labels == TABLE_NUM.col_labels
    assert np.array_equal(loaded.observed, TABLE_NUM.observed)
    r1 = chi2_homogeneity(TABLE_NUM)
    r2 = chi2_homogeneity(loaded)
    assert r1.total == r2.total


def test_contingency_csv_needs_a_two_by_two_table(tmp_path):
    """A contingency CSV needs two labelled rows and two columns of
    nonnegative counts; each fault names the file."""
    path = tmp_path / "table.csv"
    for text, message in (
        ("", "first header column must be ''"),
        (",P,T\n", "need a header and at least two rows"),
        (",P,T\na,1,2\n", "need a header and at least two rows"),
        ("\n,P,T\n\na,1,2\n,,\n", "need a header and at least two rows"),
        (",P\na,1\nb,2\n", "contingency table must be at least 2x2"),
        (",P,T\na,1,2\nb,3,-4\n", "counts must be finite and nonnegative"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_contingency_csv(path)
        assert str(err.value) == f"{path}: {message}"


def test_format_report_prints_verdicts():
    text = format_report(chi2_homogeneity(TABLE_NUM))
    assert "X^2(P,.)" in text
    assert "No" in text and "-" in text
