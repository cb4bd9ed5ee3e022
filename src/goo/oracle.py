"""Brute-force reference answers, used to pin down the fast paths.

Everything in this module trades speed for obviousness: trial division,
linear scans, bisection over plain lists. The sieve and verifier are tested
against these functions, so nothing here may share code with them. Only an
exception type is shared: ``sqrt_minus_one`` raises the sieve's
``NoRootFoundError``, so one handler covers a missing root of -1 from either.
"""

from bisect import bisect_left, bisect_right

from .sieve import NoRootFoundError

_BASE_CAP = 1000  # sqrt_minus_one tries the prime bases up to this

# the primes up to _BASE_CAP, by trial division; the cap is tiny
_PRIMES = tuple(
    n for n in range(2, _BASE_CAP + 1) if all(n % d for d in range(2, int(n**0.5) + 1))
)

# Trial division by the primes below _TRIAL_LIMIT decides every n below its
# square; at or above it a fixed-base strong-pseudoprime test decides.
_TRIAL_LIMIT = 200
_TRIAL_PRIMES = _PRIMES[: bisect_left(_PRIMES, _TRIAL_LIMIT)]

# J. Sinclair's seven bases: taken mod n, with a base = 0 (mod n) skipped,
# no composite below 2^64 is a strong probable prime to all of them
# (https://miller-rabin.appspot.com/).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_BRUTE_A_CAP = 10**7

# the largest list brute_a has built: every a <= _built_limit in A
_built_limit, _built = 0, []


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_64(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64; n at or above 2^64 raises
    ValueError.

    Trial division by the primes below 200, which decides every n below
    200^2; for larger n, Miller-Rabin with J. Sinclair's seven bases,
    deterministic below 2^64 (https://miller-rabin.appspot.com/).
    """
    if n >= 1 << 64:
        raise ValueError(f"{n} is not below 2^64")
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        return True
    return all(_strong_probable_prime(n, a % n) for a in _MR_BASES if a % n)


class NotOneModFourError(ValueError):
    """p is not congruent to 1 mod 4, so -1 has no square root mod p."""


def sqrt_minus_one(p: int) -> int:
    """Canonical square root of -1 mod p for a prime p = 1 (mod 4).

    Tries t = n^((p-1)/4) for the prime bases n = 2, 3, 5, 7, ... up to
    ``_BASE_CAP`` and accepts the first t with t^2 = -1 (mod p). A fixed
    base is not enough: the base must be a quadratic non-residue mod p, so
    roughly every second prime works. Returns min(t, p-t), the root below
    p/2.
    """
    if p % 4 != 1:
        raise NotOneModFourError(f"p={p} is not 1 mod 4")
    exp = (p - 1) // 4
    for base in _PRIMES:
        t = pow(base % p, exp, p)
        if t * t % p == p - 1:
            return min(t, p - t)
    raise NoRootFoundError(
        f"no base <= {_BASE_CAP} yields a root of -1 mod {p}; "
        f"{p} is likely composite (corrupt input)"
    )


def brute_a(limit: int) -> list:
    """All a <= limit with a^2+1 prime, by testing every candidate, as a
    new list.

    Candidates are tested once per process: the largest list built so far
    is kept, extended from its old limit or cut to a prefix. Guarded at
    10^7 because the cost is quadratic-ish in the limit; the sieve is the
    tool for anything larger.
    """
    global _built_limit
    if limit > _BRUTE_A_CAP:
        raise ValueError(f"brute_a limit {limit} exceeds cap {_BRUTE_A_CAP}")
    if limit > _built_limit:
        fresh = range(_built_limit + 1, limit + 1)
        _built.extend([a for a in fresh if is_prime_64(a * a + 1)])
        _built_limit = limit
    return _built[: bisect_right(_built, limit)]


def brute_j(a_list: list, n: int) -> int:
    """j for the n-th member of A (n is 1-based), by linear scan.

    a_list must be a complete ascending prefix of A covering index n.
    Returns the least i >= 1 with a_n - a_{n-i} in A.
    """
    if n < 2 or n > len(a_list):
        raise ValueError(f"n={n} out of range for a list of {len(a_list)}")
    a_n = a_list[n - 1]
    for i in range(1, n):
        d = a_n - a_list[n - 1 - i]
        k = bisect_left(a_list, d)
        if k < len(a_list) and a_list[k] == d:
            return i
    raise ValueError(f"no j exists for a_n={a_n} within the given prefix")
