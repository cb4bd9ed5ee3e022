"""Constructive checks and scans for families of integer polynomials.

The interesting families here are shifted squares (c*y + s)^2 + 1: when do
several of them take prime values at the same argument? Tools:

* ``bunyakovsky_check``  -- no prime divides the product at every argument
  (the local obstruction test for simultaneous primality).
* ``residue_certificate`` -- exact root set of one polynomial mod p, which
  is how an obstruction is exhibited when one exists.
* ``construct_shifts``   -- build shift lists whose square family has no
  local obstruction.
* ``simultaneous_prime_scan`` -- enumerate arguments where every family
  member is prime, with running counts for density comparison.
"""

import bisect
import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Sequence

import numpy as np

from .sieve import shifted_square_fits, shifted_square_mask, small_primes

_SCAN_FILTER_LIMIT = 97  # pre-filter removes multiples of primes up to here
_SCAN_FILTER_CHUNK = 1 << 15  # arguments y per pass of the pre-filter
# Deterministic for every n < 3.18e23 (the least strong pseudoprime to
# all twelve), which covers the full 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ValueOverflowError(OverflowError):
    """Polynomial values would leave the exact 64-bit range."""


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coefficients leading-first, constant term last."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[0] <= 0:
            raise ValueError("leading coefficient must be positive")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def shifted_square(cls, scale: int, shift: int) -> "IntPolynomial":
        """(scale*y + shift)^2 + 1 as an explicit quadratic."""
        if scale == 0:
            raise ValueError("scale must be nonzero")
        return cls((scale * scale, 2 * scale * shift, shift * shift + 1))

    def __call__(self, y: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * y + c
        return acc

    def eval_array(self, y: np.ndarray) -> np.ndarray:
        """Values at int64 y, exact wherever the value fits int64.

        Horner's rule runs in wrapping int64 arithmetic, right modulo 2^64
        even where a coefficient (which at y = 0 the partial sums are) or a
        partial sum does not fit.
        """
        acc = np.zeros_like(y)
        for c in self.coefficients:
            acc = acc * y + ((c + (1 << 63)) % (1 << 64) - (1 << 63))
        return acc

    def __str__(self) -> str:
        deg = self.degree
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            power = deg - i
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                y = "y" if power == 1 else f"y^{power}"
                body = y if mag == 1 else f"{mag}{y}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        if not parts:
            return "0"
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def parse_polynomial(text: str) -> IntPolynomial:
    """Two grammars: "a_k,...,a_0" raw coefficients, or "sq:c,s" meaning
    (c*y + s)^2 + 1."""
    text = text.strip()
    if text.startswith("sq:"):
        body = text[3:]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"sq: form wants two integers, got {body!r}")
        try:
            scale, shift = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"bad shifted-square spec {text!r}") from None
        return IntPolynomial.shifted_square(scale, shift)
    try:
        coeffs = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}") from None
    return IntPolynomial(coeffs)


def is_prime_64(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64: Miller-Rabin to the bases 2..37."""
    if n < 2:
        return False
    for a in _MR_WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n, which has no prime factor up to
    37: Pollard's rho with Floyd's cycle finding, about sqrt(p) steps for
    the least prime factor p."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
    raise ArithmeticError(f"no factor of {n} found")


def _prime_factors(n: int) -> set:
    """Prime factors of |n|: trial division by the primes up to 37, then
    Pollard's rho on each cofactor that fails ``is_prime_64``, which is
    exact below 2^64 and a strong probable-prime test above."""
    n = abs(n)
    out = set()
    for p in _MR_WITNESSES:
        while n and n % p == 0:
            out.add(p)
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime_64(m):
            out.add(m)
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    return out


def bunyakovsky_check(polys: Sequence[IntPolynomial]) -> Optional[int]:
    """Smallest prime dividing prod f_i(a) for every a, or None if none.

    Only primes up to the product's total degree can vanish by having
    enough roots; beyond that the product must be zero as a polynomial
    mod p, which happens exactly when p divides every product coefficient.
    Both routes are covered, the second without scanning residues.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    total_degree = sum(p.degree for p in polys)
    candidates = set(small_primes(total_degree).tolist()) if total_degree > 1 else set()
    # Gauss's lemma: the product's content is the product of the members'
    for f in polys:
        candidates |= {p for p in _prime_factors(gcd(*f.coefficients)) if p > total_degree}
    for p in sorted(candidates):
        if p > total_degree or all(
            math.prod(f(a) for f in polys) % p == 0 for a in range(p)
        ):
            return p
    return None


def residue_certificate(poly: IntPolynomial, p: int) -> set:
    """Exact root set {a in [0, p) : f(a) = 0 mod p}, by exhaustive scan."""
    if p < 2 or p >= 10**6 or not is_prime_64(p):
        raise ValueError(f"p must be a prime below 10^6, got {p}")
    y = np.arange(p, dtype=np.int64)
    acc = np.zeros_like(y)
    for c in poly.coefficients:
        acc = (acc * y + c) % p
    return set(np.flatnonzero(acc == 0).tolist())


def construct_shifts(k: int) -> list:
    """The k multiples 0, P, ..., (k-1)P of P, the product of the primes p <= 2k.

    Every b_i = 0 (mod p) for p <= 2k, so at x = 0 (mod p) each (x - b_i)^2
    + 1 is 1 mod p; the product of the family is monic of degree 2k, so no
    larger p divides it at every x, and the family has no local
    obstruction.
    """
    if k < 1:
        raise ValueError("k must be positive")
    modulus = math.prod(small_primes(2 * k).tolist())
    return [i * modulus for i in range(k)]


@dataclass(frozen=True)
class ScanCheckpoint:
    y: int
    hits: int
    fitted_constant: float  # hits * log(y)^k / y, the density-shape fit


@dataclass
class ScanResult:
    polynomials: tuple
    y_limit: int
    hits: list
    checkpoints: list

    @property
    def count(self) -> int:
        return len(self.hits)


def simultaneous_prime_scan(polys: Sequence[IntPolynomial], y_limit: int) -> ScanResult:
    """All y in [0, y_limit] where every f_i(y) is prime, values distinct.

    Distinctness matters: two polynomials hitting the *same* prime (as
    {y^2+1, (y-2)^2+1} both do at y = 1, value 2) is a degenerate
    coincidence, not simultaneous primality of the family.

    When every member is a shifted square (c*y + s)^2 + 1 within the
    strike's int64 range (``shifted_square_fits``), the hits are the y with
    every |c*y + s| in A, struck over y by the sieve with no primality
    test. Any other family goes through a vectorized residue
    pre-filter that removes multiples of small primes, and its survivors
    get the deterministic 64-bit primality test. Checkpoints at powers of
    ten record running counts against the c*y/log^k(y) shape.
    """
    polys = list(polys)
    if len(set(p.coefficients for p in polys)) != len(polys):
        raise ValueError("polynomials must be pairwise distinct")
    bad = bunyakovsky_check(polys)
    if bad is not None:
        raise ValueError(
            f"family has a local obstruction: every value divisible by {bad}"
        )
    if y_limit < 0:
        raise ValueError("y_limit must be nonnegative")
    bound = max(
        sum(abs(c) * y_limit ** (p.degree - i) for i, c in enumerate(p.coefficients))
        for p in polys
    )
    if bound >= 1 << 63:
        raise ValueOverflowError(
            f"values reach {bound:.3e} at y = {y_limit}, past the 64-bit range"
        )

    squares = [_as_shifted_square(p) for p in polys]
    if None in squares or not shifted_square_fits(squares, y_limit):
        y = np.array(_filter_hits(polys, y_limit), dtype=np.int64)
    else:
        y = np.flatnonzero(shifted_square_mask(squares, y_limit))
    # keep the y with pairwise distinct values; int64 is exact, as every
    # value is below 2^63 (the guard above)
    values = np.sort([p.eval_array(y) for p in polys], axis=0)
    hits = y[(values[1:] != values[:-1]).all(axis=0)].tolist()
    k = len(polys)
    checkpoints = []
    for m in sorted({10**d for d in range(1, 19) if 10**d <= y_limit} | {y_limit}):
        n = bisect.bisect_right(hits, m)
        fitted = n * math.log(m) ** k / m if m > 1 and n else 0.0
        checkpoints.append(ScanCheckpoint(y=m, hits=n, fitted_constant=fitted))
    return ScanResult(
        polynomials=tuple(polys), y_limit=y_limit, hits=hits, checkpoints=checkpoints
    )


def _as_shifted_square(poly: IntPolynomial) -> Optional[tuple]:
    """(c, s) when poly is (c*y + s)^2 + 1, else None."""
    if poly.degree != 2:
        return None
    a, b, d = poly.coefficients
    c = isqrt(a)
    if c * c != a or b % (2 * c):
        return None
    s = b // (2 * c)
    return (c, s) if d == s * s + 1 else None


def _filter_hits(polys: Sequence[IntPolynomial], y_limit: int) -> list:
    """The y where every value is prime: a residue filter, then a primality test."""
    filter_primes = small_primes(_SCAN_FILTER_LIMIT).tolist()
    hits = []
    for lo in range(0, y_limit + 1, _SCAN_FILTER_CHUNK):
        y = np.arange(lo, min(lo + _SCAN_FILTER_CHUNK, y_limit + 1), dtype=np.int64)
        values = [p.eval_array(y) for p in polys]
        ok = np.ones(y.size, dtype=bool)
        for v in values:
            ok &= v >= 2
        for q in filter_primes:
            for v in values:
                ok &= ~((v % q == 0) & (v != q))
        for yi in y[ok].tolist():
            if all(is_prime_64(int(p(yi))) for p in polys):
                hits.append(yi)
    return hits


def scan_csv(result: ScanResult) -> str:
    """One row per hit: argument, each value, and the all-prime flag."""
    k = len(result.polynomials)
    lines = ["y," + ",".join(f"f{i}" for i in range(k)) + ",all_prime"]
    for y in result.hits:
        vals = ",".join(str(p(y)) for p in result.polynomials)
        lines.append(f"{y},{vals},1")
    return "\n".join(lines) + "\n"
