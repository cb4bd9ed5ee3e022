"""Reference answers for the benchmark, computed apart from goo.

Nothing here imports goo. Each checker takes the program's output and
returns a list of problems (empty when the output is right), so the
benchmark can count a failed operation and the tests in this directory can
feed each checker a corrupted output and watch it complain.

References:

* OEIS A083844, the number of primes x^2 + 1 below 10^k;
* a Miller-Rabin test of this file's own, with a witness set unlike the
  one in ``goo.oracle``;
* a vectorized least-offset search (the j of every member) with numpy;
* ``mpmath.li`` for the logarithmic-integral model.
"""

import hashlib
import math
import struct
from math import isqrt
from pathlib import Path

import numpy as np

# OEIS A083844: number of primes of the form x^2 + 1 below 10^k, k = 1..16.
A083844 = (
    2, 4, 10, 19, 51, 112, 316, 841,
    2378, 6656, 18822, 54110, 156081, 456362, 1339875, 3954181,
)

# The density constant the count table is asked to use (13 digits).
HL_CONSTANT = 1.3728134628182

# Deterministic for every n < 2^64 (Sinclair's seven bases).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _plain_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


# Only 2 and primes = 1 (mod 4) can divide x^2 + 1.
_FILTER = _plain_primes(1000)
_FILTER = _FILTER[(_FILTER % 4 == 1) | (_FILTER == 2)]


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for q in _TRIAL:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
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


def square_plus_one_prime(x: np.ndarray) -> np.ndarray:
    """Is x^2 + 1 prime, for each x (0 <= x < 3e9)? Boolean array."""
    x = np.asarray(x, dtype=np.int64)
    value = x * x + 1
    maybe = np.ones(x.size, dtype=bool)
    for q in _FILTER.tolist():
        maybe &= ((x % q) * (x % q) + 1) % q != 0
    small = value <= 1000
    maybe[small] = np.isin(value[small], _plain_primes(1000))
    out = maybe.copy()
    for i in np.flatnonzero(maybe & ~small).tolist():
        out[i] = is_prime(int(value[i]))
    return out


# ---------------------------------------------------------------------------
# reading a store without goo's decoder

_HEADER = struct.Struct("<4sBQQQ")


def decode_a_file(data: bytes) -> np.ndarray:
    """Members in one a-value segment file: u64 first value, then varints."""
    magic, _version, _lo, _hi, count = _HEADER.unpack_from(data)
    if magic != b"GOOA":
        raise ValueError(f"not an a-value segment: {magic!r}")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    (first,) = struct.unpack_from("<Q", data, _HEADER.size)
    buf = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size + 8)
    ends = np.flatnonzero(buf < 0x80)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    deltas = np.zeros(ends.size, dtype=np.int64)
    for width in range(int((ends - starts).max(initial=0)) + 1):
        sel = starts + width <= ends
        deltas[sel] |= (buf[starts[sel] + width].astype(np.int64) & 0x7F) << (7 * width)
    if deltas.size != count - 1:
        raise ValueError(f"{deltas.size + 1} values in a segment of {count}")
    return np.concatenate(([first], first + np.cumsum(deltas))).astype(np.int64)


def read_store_members(root: Path) -> np.ndarray:
    """Every member in a store directory, digest-checked, ascending."""
    parts = []
    for line in (Path(root) / "manifest.txt").read_text().splitlines():
        fields = line.split()
        if fields[:2] != ["segment", "a_values"]:
            continue
        digest, name = fields[5], fields[6]
        data = (Path(root) / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise ValueError(f"digest mismatch in {name}")
        parts.append((int(fields[2]), decode_a_file(data)))
    parts.sort(key=lambda part: part[0])
    return np.concatenate([values for _, values in parts])


# ---------------------------------------------------------------------------
# checkers: each returns a list of problems


def contains(members: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Is each value in the ascending array ``members``?"""
    i = np.minimum(np.searchsorted(members, values), members.size - 1)
    return members[i] == values


def count_problems(members: np.ndarray, k_max: int) -> list:
    """Members <= sqrt(10^k - 1) against A083844, k = 1..k_max."""
    got = member_counts(members, k_max)
    return [
        f"count below 10^{k}: {g} != A083844 {w}"
        for k, (g, w) in enumerate(zip(got, A083844), start=1)
        if g != w
    ]


def member_counts(members: np.ndarray, k_max: int) -> list:
    thresholds = [isqrt(10**k - 1) for k in range(1, k_max + 1)]
    return np.searchsorted(members, thresholds, side="right").tolist()


def sample_problems(members: np.ndarray, x_limit: int, rng, size: int) -> list:
    """Sampled members give x^2+1 prime; sampled even non-members composite."""
    problems = []
    picked = members[rng.integers(0, members.size, size)]
    bad = picked[~square_plus_one_prime(picked)]
    problems += [f"member {x}: x^2+1 is not prime" for x in bad.tolist()]
    even = 2 * rng.integers(1, (x_limit - 1) // 2 + 1, 4 * size)
    outside = even[~contains(members, even)][:size]
    bad = outside[square_plus_one_prime(outside)]
    problems += [f"non-member {x}: x^2+1 is prime" for x in bad.tolist()]
    return problems


def offsets(members: np.ndarray):
    """Least j >= 1 with a_n - a_{n-j} a member, for every n >= 2.

    Returns (j, lost): j[i] belongs to members[i] (j[0] is 0), lost the
    indices that have no decomposition within the prefix.
    """
    a = np.asarray(members, dtype=np.int64)
    member = np.zeros(int(a[-1]) // 2 + 1, dtype=bool)
    member[a[a % 2 == 0] >> 1] = True
    j = np.zeros(a.size, dtype=np.int64)
    pending = np.arange(1, a.size)
    lost = []
    k = 1
    while pending.size:
        out = pending < k
        lost += pending[out].tolist()
        pending = pending[~out]
        d = a[pending] - a[pending - k]
        hit = np.where(d & 1, d == 1, member[d >> 1])
        j[pending[hit]] = k
        pending = pending[~hit]
        k += 1
    return j, lost


def verify_problems(members: np.ndarray, report) -> list:
    """A verification report against the j of every member."""
    j, lost = offsets(members)
    if lost:
        return [f"member #{i + 1} has no decomposition" for i in lost[:5]]
    problems = []
    if report.members != members.size:
        problems.append(f"report saw {report.members} members of {members.size}")
    hist = np.bincount(j[1:])
    want_hist = {k: int(c) for k, c in enumerate(hist.tolist()) if c}
    if dict(report.j_histogram) != want_hist:
        problems.append("j histogram differs from the recomputed offsets")
    record = np.maximum(np.maximum.accumulate(j), 1)
    champ = np.flatnonzero(j[1:] > record[:-1]) + 1
    want = [(int(i) + 1, int(members[i]), int(j[i])) for i in champ]
    if [tuple(c) for c in report.champions] != want:
        problems.append("champions differ from the recomputed offsets")
    return problems


def count_table_problems(members: np.ndarray, rows, c=HL_CONSTANT) -> list:
    """count_table rows against numpy counts and mpmath's li, 1e-9 relative."""
    import mpmath

    mpmath.mp.dps = 30
    problems = []
    k_max = len(rows)
    for k, (row, want) in enumerate(zip(rows, member_counts(members, k_max)), 1):
        x = 10**k
        if row.x != x or row.pi_q != want:
            problems.append(f"row 10^{k}: ({row.x}, {row.pi_q}) != ({x}, {want})")
            continue
        f = want / (c * math.sqrt(x) / math.log(x))
        g = float(want / (mpmath.mpf(c) / 2 * mpmath.li(mpmath.sqrt(x))))
        for name, got, ref in (("ratio_f", row.ratio_f, f), ("ratio_g", row.ratio_g, g)):
            if abs(got - ref) > 1e-9 * abs(ref):
                problems.append(f"{name} at 10^{k}: {got!r} != {ref!r}")
    return problems


def window_problems(lo: int, hi: int, got: np.ndarray) -> list:
    """A window [lo, hi) of members against a brute-force scan."""
    x = np.arange(lo, hi, dtype=np.int64)
    want = x[square_plus_one_prime(x)]
    if np.array_equal(np.asarray(got), want):
        return []
    return [f"window [{lo},{hi}): {len(got)} members, brute force finds {want.size}"]


def root_problems(p: np.ndarray, r: np.ndarray) -> list:
    """Each pair has r^2 = -1 (mod p) and 0 < r < p/2."""
    p = np.asarray(p, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    bad = (r * r % p != p - 1) | (r <= 0) | (2 * r >= p)
    return [f"bad root pair ({pi}, {ri})" for pi, ri in zip(p[bad][:5].tolist(), r[bad][:5].tolist())]


def scan_problems(hits, members: np.ndarray, scale: int, shifts, y_limit: int) -> list:
    """Hits of the family (scale*y + s)^2 + 1 against membership in A.

    Every hit's values must be prime by this file's test, and the hits must
    be exactly the y <= y_limit with every scale*y + s a member.
    """
    hits = np.asarray(hits, dtype=np.int64)
    problems = []
    for s in shifts:
        bad = hits[~square_plus_one_prime(scale * hits + s)]
        problems += [f"hit {y}: ({scale}y+{s})^2+1 not prime" for y in bad[:5].tolist()]
    y = np.arange(y_limit + 1, dtype=np.int64)
    keep = np.ones(y.size, dtype=bool)
    for s in shifts:
        keep &= contains(members, scale * y + s)
    want = y[keep]
    if not np.array_equal(hits, want):
        missing = np.setdiff1d(want, hits)[:5].tolist()
        extra = np.setdiff1d(hits, want)[:5].tolist()
        problems.append(f"scan hits differ: missing {missing}, extra {extra}")
    return problems
