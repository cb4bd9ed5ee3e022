import math
import os
import random
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goo import hypotheses, oracle, sieve
from goo.hypotheses import (
    IntPolynomial,
    ScanCheckpoint,
    ValueOverflowError,
    _filter_hits,
    _prime_factors,
    bunyakovsky_check,
    construct_shifts,
    is_prime_64,
    parse_polynomial,
    residue_certificate,
    scan_csv,
    simultaneous_prime_scan,
)
from goo.sieve import shifted_square_fits, shifted_square_mask

ROOT = Path(__file__).resolve().parents[1]

SQ65_1 = IntPolynomial.shifted_square(65, 1)
SQ65_9 = IntPolynomial.shifted_square(65, 9)
Y2P1 = IntPolynomial((1, 0, 1))
PAIR = [Y2P1, IntPolynomial.shifted_square(1, -2)]


# -- polynomial type ------------------------------------------------------------


def test_polynomial_validation():
    with pytest.raises(ValueError):
        IntPolynomial((5,))  # degree 0
    with pytest.raises(ValueError):
        IntPolynomial((0, 1))
    with pytest.raises(ValueError):
        IntPolynomial((-1, 0, 1))
    with pytest.raises(ValueError):
        IntPolynomial.shifted_square(0, 3)


def test_shifted_square_expansion():
    assert SQ65_9.coefficients == (4225, 1170, 82)
    assert SQ65_1.coefficients == (4225, 130, 2)
    assert IntPolynomial.shifted_square(1, -2).coefficients == (1, -4, 5)


def test_polynomial_evaluation():
    assert Y2P1(7) == 50
    assert SQ65_1(1) == 66 * 66 + 1 == 4357
    assert SQ65_9(1) == 74 * 74 + 1 == 5477
    got = Y2P1.eval_array(np.arange(4, dtype=np.int64))
    assert got.tolist() == [1, 2, 5, 10]


def test_polynomial_str():
    assert str(Y2P1) == "y^2 + 1"
    assert str(IntPolynomial((1, -4, 5))) == "y^2 - 4y + 5"
    assert str(IntPolynomial((3, -1))) == "3y - 1"
    assert str(SQ65_9) == "4225y^2 + 1170y + 82"


def test_parse_polynomial():
    assert parse_polynomial("sq:65,9") == SQ65_9
    assert parse_polynomial("1,0,1") == Y2P1
    assert parse_polynomial(" 3 , -2 ") == IntPolynomial((3, -2))
    for bad in ("", "sq:65", "sq:a,b", "1,x,3", "5", "0,1"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


# -- local obstruction test -----------------------------------------------------


def test_bunyakovsky_satisfied():
    assert bunyakovsky_check([Y2P1]) is None
    assert bunyakovsky_check([SQ65_1, SQ65_9]) is None
    assert bunyakovsky_check(PAIR) is None


def test_bunyakovsky_violations():
    # y^2 + y + 2 is even for every y
    assert bunyakovsky_check([IntPolynomial((1, 1, 2))]) == 2
    # product y(y+1) of a two-member family is even for every y
    assert bunyakovsky_check([IntPolynomial((1, 0)), IntPolynomial((1, 1))]) == 2
    # content divisor larger than the total degree
    assert bunyakovsky_check([IntPolynomial((2, 2))]) == 2
    assert bunyakovsky_check([IntPolynomial((7, 7, 7))]) == 7
    big = 10**12 + 39  # a content prime is read off, not scanned residue by residue
    assert bunyakovsky_check([IntPolynomial((big, 3 * big))]) == big
    with pytest.raises(ValueError):
        bunyakovsky_check([])


def test_content_prime_near_2_62_is_found_fast():
    # trial division to the square root of such a content takes minutes;
    # the factoring stops once the cofactor passes is_prime_64
    big = next(n for n in range((1 << 62) + 1, (1 << 62) + 10**4, 2) if is_prime_64(n))
    began = time.process_time()
    assert bunyakovsky_check([IntPolynomial((big, 3 * big))]) == big
    # each member's content is factored on its own, so big^2 never arises
    assert bunyakovsky_check([IntPolynomial((big, big)), IntPolynomial((big, 3 * big))]) == big
    assert bunyakovsky_check([IntPolynomial((big, 0, big)), IntPolynomial((1, 1))]) == big
    assert _prime_factors(12 * big) == {2, 3, big}
    assert time.process_time() - began < 1.0


def test_content_with_two_large_primes_is_split_fast():
    # neither cofactor is prime until the smaller factor is found, so trial
    # division would run to 10^9; Pollard's rho takes about sqrt(10^9) steps
    p, q = 1_000_000_007, 1_000_000_009
    began = time.process_time()
    assert bunyakovsky_check([IntPolynomial((p * q, 3 * p * q))]) == p
    assert _prime_factors(-12 * p * q * q * 101**2) == {2, 3, 101, p, q}
    assert _prime_factors(101**3 * 103) == {101, 103}
    assert time.process_time() - began < 1.0


def test_residue_certificates():
    assert residue_certificate(Y2P1, 5) == {2, 3}
    assert residue_certificate(Y2P1, 3) == set()
    # 65 = 5 * 13, so shifts 3 and 5 are locally obstructed outright
    assert residue_certificate(IntPolynomial.shifted_square(65, 3), 5) == set(range(5))
    assert residue_certificate(IntPolynomial.shifted_square(65, 5), 13) == set(
        range(13)
    )
    for bad in (1, 4, 10**6 + 3):
        with pytest.raises(ValueError):
            residue_certificate(Y2P1, bad)


# -- shift construction ----------------------------------------------------------


def test_construct_shifts_basic():
    assert construct_shifts(1) == [0]
    # primes up to 6 give modulus 2 * 3 * 5
    assert construct_shifts(3) == [0, 30, 60]
    with pytest.raises(ValueError):
        construct_shifts(0)


def test_construct_shifts_family_has_no_obstruction():
    shifts = construct_shifts(4)
    family = [IntPolynomial.shifted_square(1, -b) for b in shifts]
    assert bunyakovsky_check(family) is None


# -- simultaneous prime scan ------------------------------------------------------


def test_scan_single_polynomial_matches_member_list():
    result = simultaneous_prime_scan([Y2P1], 10)
    assert result.hits == [1, 2, 4, 6, 10]
    assert result.count == 5


def test_scan_65_family():
    result = simultaneous_prime_scan([SQ65_1, SQ65_9], 200)
    assert result.hits == [1, 21, 45, 87, 97, 145, 165]
    first = result.hits[0]
    assert SQ65_1(first) == 4357 and SQ65_9(first) == 5477


def test_scan_pair_family_degenerate_hit_excluded():
    result = simultaneous_prime_scan(PAIR, 100)
    # y = 1 gives the same value 2 twice and must not count
    assert result.hits == [4, 6, 16, 26, 56]


def test_scan_checkpoints():
    result = simultaneous_prime_scan([SQ65_1, SQ65_9], 200)
    assert [(c.y, c.hits) for c in result.checkpoints] == [(10, 1), (100, 5), (200, 7)]
    for c in result.checkpoints:
        want = c.hits * math.log(c.y) ** 2 / c.y
        assert c.fitted_constant == pytest.approx(want)


def test_scan_rejections():
    with pytest.raises(ValueError):
        simultaneous_prime_scan([Y2P1, IntPolynomial((1, 0, 1))], 10)
    with pytest.raises(ValueError):
        simultaneous_prime_scan([IntPolynomial((1, 1, 2))], 10)
    with pytest.raises(ValueError):
        simultaneous_prime_scan([Y2P1], -1)
    with pytest.raises(ValueOverflowError):
        simultaneous_prime_scan([SQ65_1, SQ65_9], 10**9)


def test_scan_sends_scales_past_int64_to_the_filter():
    # c % p on a scale of 2^63 or more overflowed numpy inside the strike
    wide = IntPolynomial.shifted_square(2**64 + 1, 2)
    assert simultaneous_prime_scan([wide], 0).hits == [0]  # the value is 5
    assert simultaneous_prime_scan([IntPolynomial.shifted_square(2**64 + 1, 3)], 0).hits == []
    assert wide.eval_array(np.zeros(2, dtype=np.int64)).tolist() == [5, 5]
    assert not shifted_square_fits([(2**64 + 1, 2)], 0)
    with pytest.raises(ValueError, match="int64"):
        shifted_square_mask([(2**64 + 1, 2)], 0)
    top = sieve.MAX_ROOT_PRIME
    assert not shifted_square_fits([(top, 2)], 0)
    assert shifted_square_fits([(top - 1, 2)], 0)
    assert shifted_square_mask([(top - 1, 2)], 0).tolist() == [True]
    assert simultaneous_prime_scan([IntPolynomial.shifted_square(top, 4)], 0).hits == [0]
    # |x| past MAX_ROOT_PRIME is refused too; inside, k*p + 1 < 2^63
    assert not shifted_square_fits([(1, top)], 0)
    assert shifted_square_fits([(top - 1, -(top - 2))], 1)
    assert (top - 2) * (top - 1) + 1 < 1 << 63



@pytest.mark.parametrize(
    "family",
    [
        [IntPolynomial((2, 0, 1))],  # a leading coefficient that is no square
        [IntPolynomial((1, 1, 1))],  # y^2 + y + 1: an odd middle coefficient
        [Y2P1, IntPolynomial((2, 1))],  # a member of degree 1
    ],
    ids=["2y^2+1", "y^2+y+1", "degree-1"],
)
def test_scan_of_other_families_takes_the_filter_route(family, monkeypatch):
    # no such family is all shifted squares, so the strike must not run
    monkeypatch.setattr(hypotheses, "shifted_square_mask", None)
    want = [
        y for y in range(2001)
        if all(oracle.is_prime_64(f(y)) for f in family)
        and len({f(y) for f in family}) == len(family)
    ]
    assert want
    assert simultaneous_prime_scan(family, 2000).hits == want

def test_square_strike_refuses_a_member_sharing_a_factor_with_its_scale():
    # gcd(c, s^2 + 1) > 1 puts that factor in every value, and the strike,
    # which skips the primes dividing c, marked 122, 58 and 103 y here,
    # where the right masks hold y = 3 and 4, y = 0, and none
    for squares, y_limit, right in (
        ([(2, -7)], 500, [3, 4]),
        ([(5, 2)], 300, [0]),
        ([(10, 3)], 300, []),
    ):
        (c, s), = squares
        values = [(c * y + s) ** 2 + 1 for y in range(y_limit + 1)]
        assert [y for y, v in enumerate(values) if oracle.is_prime_64(v)] == right
        with pytest.raises(ValueError, match=f"divisible by {math.gcd(c, s * s + 1)}"):
            shifted_square_mask(squares, y_limit)
        with pytest.raises(ValueError, match="local obstruction"):
            simultaneous_prime_scan([IntPolynomial.shifted_square(c, s)], y_limit)
    with pytest.raises(ValueError, match="divisible by 5"):  # one bad member is enough
        shifted_square_mask([(65, 1), (5, 2)], 10)


@pytest.mark.parametrize(
    "squares",
    [[(997, 3)], [(997, -2_990_000)], [(997, -2_990_000), (991, 4)], [(3, -2_990_000)]],
)
def test_square_strike_spans_several_sieve_groups(squares):
    # |x| reaches about 2.99e6: twelve blocks of 2^18 numbers, sieved in
    # three groups of 2^20; the last family runs only on a reversed ray
    # whose t = 2,981,000 exceeds c*p for every prime of its first blocks
    family = [IntPolynomial.shifted_square(c, s) for c, s in squares]
    assert bunyakovsky_check(family) is None
    assert sieve._scan_top(squares, 3000) > 2 * sieve._SIEVE_SPAN
    struck = np.flatnonzero(shifted_square_mask(squares, 3000)).tolist()
    assert struck == _filter_hits(family, 3000)
    assert len(struck) > 10


@settings(max_examples=80, deadline=None)
@given(
    squares=st.lists(
        st.tuples(st.integers(1, 100), st.integers(-60, 60)),
        min_size=1, max_size=3, unique=True,
    ),
    y_limit=st.integers(0, 3000),
)
@example(squares=[(1, 0), (1, -2)], y_limit=100)  # PAIR: both values are 2 at y = 1
@example(squares=[(1, -60), (3, -6)], y_limit=3000)  # x < 0, and x = 0 at y = 2
@example(squares=[(65, 1), (65, 9)], y_limit=3000)  # 5 and 13 divide the scale
@example(squares=[(1, 0), (1, -2)], y_limit=10**5)  # criterion 09's pair
@example(squares=[(1, -5000)], y_limit=3000)  # every x < 0: no forward ray
@example(squares=[(1, -1)], y_limit=100)  # 2's own x = -1 reversed; x = 0 at y = 1
@example(squares=[(5, -10), (1, 0)], y_limit=3000)  # x = 0 inside the range
@example(squares=[(2, -4)], y_limit=3000)  # an even scale, and x = 0 at y = 2
@example(squares=[(1000, -10**6), (1000, -999990)], y_limit=3000)  # rays past 2^18
@example(squares=[(20000, 10)], y_limit=1000)  # c above a block's prime count
@example(squares=[(1, 0), (1, -2), (2, 2)], y_limit=100)  # values 2, 2, 17 at y = 1
def test_square_strike_matches_filter_path(squares, y_limit):
    # in the second example (y - 60)^2 + 1 is the prime 17 at y = 56, the
    # fourth hit of 17's chain, which first hits y = 5
    family = [IntPolynomial.shifted_square(c, s) for c, s in squares]
    assume(bunyakovsky_check(family) is None)
    struck = np.flatnonzero(shifted_square_mask(squares, y_limit)).tolist()
    assert struck == _filter_hits(family, y_limit)
    distinct = [y for y in struck if len({p(y) for p in family}) == len(family)]
    assert simultaneous_prime_scan(family, y_limit).hits == distinct


def test_is_prime_64_matches_oracle():
    for n in range(10**5):
        assert is_prime_64(n) == oracle.is_prime_64(n), n
    rng = random.Random(5)
    for n in [rng.getrandbits(64) for _ in range(3000)]:
        assert is_prime_64(n) == oracle.is_prime_64(n), n
    # strong pseudoprimes to the first bases: 2047 to base 2, the others
    # to every prime base up to 7, 11, 13, 17 and 23
    for n in (2047, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime_64(n) and not oracle.is_prime_64(n), n
    near = isqrt(1 << 63)
    primes = [q for q in range(near - 3000, near + 3000) if oracle.is_prime_64(q)]
    assert len(primes) > 100
    for p, q in zip(primes, primes[1:]):
        assert is_prime_64(p) and not is_prime_64(p * q), (p, q)


def _run_demo(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_demo_runs():
    lines = _run_demo("demo_hypotheses.py")
    assert "  3332 arguments where both values are prime" in lines
    checkpoints = [line for line in lines if line.startswith("  through")]
    assert checkpoints == [
        "  through      10:    1 hits, shape constant 0.5302",
        "  through     100:    5 hits, shape constant 1.0604",
        "  through    1000:   39 hits, shape constant 1.8610",
        "  through   10000:  240 hits, shape constant 2.0359",
        "  through  100000: 1809 hits, shape constant 2.3978",
        "  through  200000: 3332 hits, shape constant 2.4821",
    ]


def test_pipeline_demo_runs(tmp_path):
    # a fresh store through resume=True, then the complete one
    for _ in range(2):
        lines = _run_demo("demo_pipeline.py", str(tmp_path / "data"))
        assert any(line.startswith("54110 values in ") for line in lines)


def test_scan_csv():
    result = simultaneous_prime_scan(PAIR, 10)
    lines = scan_csv(result).splitlines()
    assert lines[0] == "y,f0,f1,all_prime"
    assert lines[1] == "4,17,5,1"
    assert lines[2] == "6,37,17,1"
