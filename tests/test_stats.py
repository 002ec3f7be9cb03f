import math
import random

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
]


@pytest.mark.parametrize("x,df,expected", CHI2_SF_ORACLE)
def test_chi2_sf_against_frozen_oracle(x, df, expected):
    assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-10)


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


def test_chi2_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)


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


def test_homogeneity_rejects_zero_margin():
    with pytest.raises(ValueError):
        chi2_homogeneity(
            ContingencyTable([[0, 5], [0, 7]], ["a", "b"], ["x", "y"])
        )


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


def test_format_report_prints_verdicts():
    text = format_report(chi2_homogeneity(TABLE_NUM))
    assert "X^2(P,.)" in text
    assert "No" in text and "-" in text
