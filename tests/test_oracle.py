import random
from math import isqrt

import pytest

from goo import oracle, sieve

A_BELOW_100 = [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56, 66, 74, 84, 90, 94]


def _sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return flags


def test_is_prime_matches_sieve_exhaustively():
    limit = 200_000
    flags = _sieve_flags(limit)
    for n in range(limit + 1):
        assert oracle.is_prime_64(n) == bool(flags[n]), n


def test_is_prime_known_values():
    assert oracle.is_prime_64(2)
    assert not oracle.is_prime_64(1)
    assert not oracle.is_prime_64(0)
    assert not oracle.is_prime_64(5777)  # 53 * 109, famously 76^2 + 1
    assert not oracle.is_prime_64(5993)
    assert oracle.is_prime_64(5477)  # 74^2 + 1


def test_is_prime_above_trial_cutoff_against_trial_division():
    # straddle the internal strategy switch at 200^2, and 10^10 where it was
    def slow(n):
        if n < 2:
            return False
        for d in range(2, isqrt(n) + 1):
            if n % d == 0:
                return False
        return True

    assert oracle.is_prime_64(10**12 + 39) == slow(10**12 + 39)
    for n in range(10**10 - 30, 10**10 + 30):
        assert oracle.is_prime_64(n) == slow(n), n
    for n in range(200**2 - 300, 200**2 + 300):
        assert oracle.is_prime_64(n) == slow(n), n


def test_is_prime_past_the_trial_primes():
    # composites with no factor below 200 reach the witnesses: 211^2 and
    # 199 * 211 just above 200^2; 2047 is the least strong pseudoprime to
    # base 2, caught by trial division
    for n in (211 * 211, 199 * 211, 2047, 3215031751, 3825123056546413051):
        assert not oracle.is_prime_64(n), n
    assert oracle.is_prime_64(199) and oracle.is_prime_64(211)
    assert oracle.is_prime_64(2**61 - 1)


def test_is_prime_refuses_numbers_past_64_bits():
    assert 399165290221 * 798330580441 == 318665857834031151167461
    for n in (1 << 64, 318665857834031151167461):
        with pytest.raises(ValueError, match="2\\^64"):
            oracle.is_prime_64(n)
    assert oracle.is_prime_64((1 << 64) - 59)
    assert not oracle.is_prime_64((1 << 64) - 1)


def test_is_prime_semiprimes_near_word_size():
    rng = random.Random(11)
    primes = [p for p in range(10**6, 10**6 + 3000) if oracle.is_prime_64(p)]
    for _ in range(50):
        p, q = rng.choice(primes), rng.choice(primes)
        assert not oracle.is_prime_64(p * q)


def test_strong_pseudoprimes_are_rejected():
    # strong pseudoprimes to the first prime bases: 2047 to 2, 1373653 to 2
    # and 3, and so on up to 3825123056546413051, to every prime up to 31
    for n in (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
    ):
        assert not oracle.is_prime_64(n), n


def test_is_prime_skips_a_base_that_n_divides():
    # 9780504 = 2^3 * 3 * 407521 and 1795265022 = 2 * 3 * 299210837: each
    # prime reduces one base to 0, which proves nothing and is skipped
    assert 9780504 % 407521 == 0 and 1795265022 % 299210837 == 0
    assert oracle.is_prime_64(407521) and oracle.is_prime_64(299210837)
    assert not oracle.is_prime_64(407521 * 299210837)


def test_sqrt_minus_one_examples():
    assert oracle.sqrt_minus_one(5) == 2
    assert oracle.sqrt_minus_one(13) == 5
    assert oracle.sqrt_minus_one(17) == 4
    r = oracle.sqrt_minus_one(1000033)
    assert r * r % 1000033 == 1000032
    assert 2 * r < 1000033


def test_sqrt_minus_one_all_small_primes():
    primes = sieve.small_primes(10**5).tolist()
    for p in primes:
        if p % 4 != 1:
            continue
        r = oracle.sqrt_minus_one(p)
        assert r * r % p == p - 1
        assert 0 < r < p / 2


def test_sqrt_minus_one_rejects_wrong_class():
    for p in (2, 3, 7, 11, 19, 23):
        with pytest.raises(oracle.NotOneModFourError):
            oracle.sqrt_minus_one(p)


def test_sqrt_minus_one_composite_failure():
    # 21 = 1 mod 4 but -1 is not a square mod 3, so no root exists at all
    with pytest.raises(sieve.NoRootFoundError):
        oracle.sqrt_minus_one(21)
    # 25 has roots of -1, but never hits one via the exponent recipe
    with pytest.raises(sieve.NoRootFoundError):
        oracle.sqrt_minus_one(25)


def test_brute_a_prefix():
    assert oracle.brute_a(99) == A_BELOW_100
    assert oracle.brute_a(100) == A_BELOW_100
    assert oracle.brute_a(1) == [1]


def test_brute_a_extends_its_list_and_hands_out_copies():
    first = oracle.brute_a(100)
    first.append(-1)  # a caller's edit must not reach the kept list
    assert oracle.brute_a(100) == A_BELOW_100
    assert oracle.brute_a(2000) == [a for a in range(1, 2001) if oracle.is_prime_64(a * a + 1)]
    assert oracle.brute_a(0) == [] and oracle.brute_a(99) == A_BELOW_100


def test_brute_a_guard():
    with pytest.raises(ValueError):
        oracle.brute_a(10**7 + 1)


def test_brute_j_fixture_values():
    members = oracle.brute_a(1000)
    by_value = {a: i + 1 for i, a in enumerate(members)}
    assert oracle.brute_j(members, by_value[74]) == 3
    assert oracle.brute_j(members, by_value[384]) == 6
    assert oracle.brute_j(members, 2) == 1  # 2 - 1 = 1 is a member


def test_brute_j_argument_checks():
    members = oracle.brute_a(100)
    with pytest.raises(ValueError):
        oracle.brute_j(members, 1)
    with pytest.raises(ValueError):
        oracle.brute_j(members, len(members) + 1)
