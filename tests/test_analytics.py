import itertools
import math

import pytest

from goo import analytics
from goo.analytics import (
    DEFAULT_HL_CONSTANT,
    EULER_GAMMA,
    DomainError,
    StreamTooShortError,
    compute_cq,
    count_model_li,
    count_model_sqrt,
    count_table,
    count_table_csv,
    format_count_table,
    li,
)

A_BELOW_100 = [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56, 66, 74, 84, 90, 94]


# -- logarithmic integral ------------------------------------------------------


def test_li_reference_values():
    assert abs(li(2.0) - 1.0451637801174927) < 1e-12
    assert abs(li(10.0) - 6.1655995047872980) < 1e-12
    assert abs(li(1e10) - 455055614.5866) < 2e-3


def test_li_domain():
    for bad in (1.0, 0.5, 0.0, -3.0):
        with pytest.raises(DomainError):
            li(bad)


def test_li_against_quadrature():
    from scipy.integrate import quad

    # li(t) = gamma + log(log t) + int_0^{log t} (e^v - 1)/v dv for t > 1
    def oracle(t):
        u = math.log(t)
        integral, err = quad(
            lambda v: math.expm1(v) / v, 0.0, u, limit=200, epsrel=1e-12
        )
        assert err < 1e-10 * max(1.0, abs(integral))
        return EULER_GAMMA + math.log(u) + integral

    for t in (1.5, 2.0, 3.0, 17.0, 100.0, 12345.0, 1e6):
        want = oracle(t)
        assert abs(li(t) - want) <= 1e-10 * abs(want)


def test_li_against_exponential_integral():
    from scipy.special import expi

    for t in (1.1, 2.0, 1e3, 1e8, 1e12):
        want = float(expi(math.log(t)))
        assert abs(li(t) - want) <= 1e-12 * abs(want)


# -- the Euler-product constant ------------------------------------------------


def test_cq_first_factor():
    # only p = 3 contributes: 1 - (-1)/2 = 3/2
    assert compute_cq(3) == pytest.approx(1.5, abs=1e-15)
    assert compute_cq(4) == pytest.approx(1.5, abs=1e-15)


def test_cq_converges_to_stored_constant():
    assert abs(compute_cq(10**5) - DEFAULT_HL_CONSTANT) < 1e-3


def test_cq_validation():
    with pytest.raises(ValueError):
        compute_cq(2)


# -- density models -------------------------------------------------------------


def test_model_formulas():
    assert count_model_sqrt(100.0, 1.0) == pytest.approx(10.0 / math.log(100.0))
    assert count_model_li(100.0, 2.0) == pytest.approx(li(10.0))
    with pytest.raises(DomainError):
        count_model_sqrt(1.0)
    with pytest.raises(DomainError):
        count_model_li(0.5)


# -- the counting table ---------------------------------------------------------


def test_count_table_small_points():
    rows = count_table(A_BELOW_100, [10, 100, 1000, 10**4], covered_to=100)
    assert [r.pi_q for r in rows] == [2, 4, 10, 19]
    for row, want in zip(rows, [1.06080, 1.34181, 1.59120, 1.27472]):
        assert abs(row.ratio_f - want) <= 2e-4
    for row, want in zip(rows, [1.26253, 0.94516, 1.07947, 0.91882]):
        assert abs(row.ratio_g - want) <= 2e-4
    for r in rows:
        assert r.ratio_f == pytest.approx(r.pi_q / count_model_sqrt(r.x))
        assert r.ratio_g == pytest.approx(r.pi_q / count_model_li(r.x))


def test_count_table_stops_reading_once_done():
    rows = count_table(itertools.count(1), [10, 100])
    assert [r.pi_q for r in rows] == [3, 9]



@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 19])
def test_count_table_across_chunks(monkeypatch, chunk):
    monkeypatch.setattr(analytics, "CHUNK", chunk)
    rows = count_table(A_BELOW_100, [10, 100, 1000, 10**4])
    assert [r.pi_q for r in rows] == [2, 4, 10, 19]
    # order is checked up to the first value past the last threshold
    assert count_table([1, 2, 4, 3], [10])[0].pi_q == 2
    with pytest.raises(ValueError, match="got 3 after 4"):
        count_table([1, 2, 4, 3, 20], [100])

def test_count_table_coverage_guard():
    with pytest.raises(StreamTooShortError):
        count_table(A_BELOW_100, [10**4], covered_to=50)
    # declared coverage just past the threshold is accepted
    rows = count_table(A_BELOW_100, [10**4], covered_to=100)
    assert rows[0].pi_q == 19


def test_count_table_validation():
    assert count_table(A_BELOW_100, []) == []
    with pytest.raises(ValueError):
        count_table(A_BELOW_100, [100, 100])
    with pytest.raises(ValueError):
        count_table(A_BELOW_100, [9, 100])
    with pytest.raises(ValueError):
        count_table([1, 3, 2], [10, 100])


def test_count_table_rendering():
    rows = count_table(A_BELOW_100, [10, 100, 1000, 10**4], covered_to=100)
    text = format_count_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["x", "count", "count/sqrt-model", "count/li-model"]
    assert lines[1].split()[0] == "10^1"
    assert lines[4].split()[0] == "10^4"
    assert lines[4].split()[1] == "19"

    csv = count_table_csv(rows)
    assert csv.startswith("x,count,ratio_sqrt_model,ratio_li_model\n")
    r = rows[0]
    assert csv.splitlines()[1] == f"10,2,{r.ratio_f:.6f},{r.ratio_g:.6f}"
    assert csv.splitlines()[1].startswith("10,2,1.060802,")
