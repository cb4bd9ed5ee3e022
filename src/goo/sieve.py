"""Segmented sieves for primes of the form x^2 + 1.

Three stages, each feeding the next:

1. ``small_primes``  -- classic sieve up to the fourth root of the bound.
2. ``sieve_segment_1mod4`` + ``annotate_roots`` -- the class 1 mod 4 up to
   the square root of the bound, sieved in segments by ``_strike`` from
   every base prime's first index at once (the same sieve runs the class
   3 mod 4 too, for ``analytics.compute_cq``); each survivor p gets its
   canonical root of -1, the least prime non-residue (3 to 13 from one
   table over p mod 15015) to the (p-1)/4 power, in float64 for p up to
   2^27 and in int64 above. ``sieve_prime_roots`` runs the two over ranges,
   sieving consecutive ones together in groups of 2^20 numbers or more.
3. A sieve over the candidates x themselves: x survives when x^2 + 1 has no
   prime factor below it, i.e. when x avoids both roots of -1 modulo every
   annotated prime p < x^2 + 1.

``run_pipeline`` drives the three against a ``SegmentStore`` in one fused
pass: each prime-root block is sieved (or, on resume, read) once, feeds the
candidate strike as soon as it exists, and every A segment it completes is
committed right after it. Output is restartable and byte-deterministic.
``sieve_a_segment`` is the stand-alone form of stage 3 for one window of
candidates against a stream of blocks (random windows, tests, references).
Both stay below x_limit(10^18) = 10^9, find where each prime's chains
first hit their candidates with one int32 kernel, ``_first_hits``, in
cache-sized chunks, and clear them by stride class. Within a segment,
``_strike`` clears a chain of stride below 2^13 by one slice and the rest
in vectorised rounds, one hit per chain per round. In the fused pass a
prime from segment_len/8 up has all its hits generated on arrival and
cleared in a bit mask; the smaller ones find their first hits in each
segment anew, as in ``sieve_a_segment``, so no chain state passes from
one segment to the next.
``shifted_square_mask`` runs stage 3 over the arguments y of the shifted
squares (c*y + s)^2 + 1 for family scans, on rays where |c*y + s| grows.
"""

import fcntl
import os
from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .records import ASegment, PrimeRootBlock
from .store import (
    KIND_A,
    KIND_PRIME,
    MAX_BOUND,
    MAX_X_LIMIT,
    ManifestError,
    SegmentStore,
    check_geometry,
    x_limit,
)

_ROOT_BASE_CAP = 1000  # largest base tried for a prime's root of -1
# largest modulus whose residues square inside int64: (p - 1)^2 <= 2^63 - 1
MAX_ROOT_PRIME = isqrt(2**63 - 1) + 1
_CHUNK = 1 << 14  # pairs or primes per pass of the vector arithmetic: stays in cache
_WINDOW = 3  # exponent bits per step of _vector_pow: a table of 2^3 rows
# largest modulus _vector_pow reduces in float64: every product stays below 2^53
_FLOAT_MOD_LIMIT = 1 << 27
_EXACT_ROW = 1 << 26  # largest table entry _vector_pow leaves unreduced
_SCAN_BLOCK = 1 << 18  # numbers per block of the shifted-square strike: < _CHUNK pairs
_SIEVE_SPAN = 1 << 20  # least numbers per 1-mod-4 sieve call of sieve_prime_roots
_SLICE_BELOW = 1 << 13  # _strike slices chains of smaller stride, runs rounds for the rest


class NoRootFoundError(ArithmeticError):
    """No candidate base produced a root of -1; p is almost certainly
    composite, which callers must treat as data corruption."""


class InsufficientBasePrimesError(ValueError):
    """Base primes do not reach the square root of the segment end."""


class IncompleteRootStreamError(ValueError):
    """Prime-root blocks fail to cover [1, seg_hi) contiguously."""


class ResumeGeometryError(ValueError):
    """A resumed run asks for another bound or segment_len than its store has."""


@dataclass(frozen=True)
class SieveConfig:
    """Validated knobs for one sieve run; the geometry rules are
    ``store.check_geometry``'s."""

    bound_b: int
    segment_len: int = 1 << 20
    thread_count: int = 1

    def __post_init__(self):
        check_geometry(self.bound_b, self.segment_len)
        if self.thread_count < 1:
            raise ValueError("thread_count must be positive")


@dataclass
class SieveStats:
    """The hits ``sieve_a_segment`` strikes, for the cost-model tests and the bench."""

    strikes: int = 0


def small_primes(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending, as int64. Requires limit >= 2."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    half = (limit + 1) // 2
    odd = np.ones(half, dtype=bool)  # index i represents 2i + 1, index 0 stands in for 2
    for i in range(1, min((isqrt(limit) + 1) // 2 + 1, half)):
        if odd[i]:
            p = 2 * i + 1
            odd[(p * p) // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def sieve_segment_1mod4(
    seg_lo: int, seg_hi: int, base_primes: np.ndarray
) -> np.ndarray:
    """Primes p = seg_lo (mod 4) in [seg_lo, seg_hi), ascending.

    seg_lo must be odd, so the class of seg_lo mod 4 is 1 or 3; the
    pipeline sieves class 1, ``analytics.compute_cq`` both. The base
    primes must cover every prime up to the square root of seg_hi - 1; if
    they fall short *and* a prime actually hides in the uncovered stretch,
    the segment would silently keep composites, so that case raises
    instead. Each odd base prime p with p^2 < seg_hi strikes z = m*p from
    the least m >= max(p, seg_lo/p) with m*p = seg_lo (mod 4): all first
    indices at once, in one ``_strike``.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")
    if seg_lo % 2 != 1:
        raise ValueError("seg_lo must be odd")
    if len(base_primes) == 0:
        raise InsufficientBasePrimesError("no base primes supplied")
    top = int(base_primes[-1])
    need = isqrt(seg_hi - 1)
    if top < need and small_primes(need)[-1] > top:
        raise InsufficientBasePrimesError(
            f"base primes reach {top}, segment end needs {need}"
        )

    mask = np.ones((seg_hi - seg_lo + 3) // 4, dtype=bool)  # index k is seg_lo + 4k
    if seg_lo == 1:
        mask[0] = False  # z = 1 is not prime
    p = base_primes[1 : np.searchsorted(base_primes, need, "right")]  # 2 divides no odd z
    m = np.maximum(p, -(-seg_lo // p))
    m += (seg_lo % 4 * p - m) % 4  # m = seg_lo * p (mod 4), so m*p = seg_lo
    _strike(mask, (m * p - seg_lo) // 4, p)
    z = np.flatnonzero(mask).astype(np.int64, copy=False)  # in place: one array
    z *= 4
    z += seg_lo
    return z


def _vector_pow(base: np.ndarray, exp, mod) -> np.ndarray:
    """base**exp % mod elementwise, for base >= 0 and exp >= 0; exp and mod
    may be scalars. Every modulus must be in [1, MAX_ROOT_PRIME], or the
    int64 squares overflow.

    Left to right in fixed windows of _WINDOW bits: a table of base^0..7
    mod m, one column per element, then per window three squarings in
    place and one multiply by the table entry of the window's digit,
    gathered with one flat take. There is no per-bit select and no fresh
    array per window. The digits and their flat indices run in int32 while
    the exponent is below 2^31 and the table below 2^31 entries.

    Table row j stays the plain power base^j, unreduced, while
    max(base)^j <= _EXACT_ROW = 2^26, so small bases such as the root
    bases of ``annotate_roots`` skip most table reductions; a product of
    such an entry with a reduced residue stays exact in either arithmetic.
    A one-window exponent reduces its table entry once at the end.

    The arithmetic follows the moduli. When every m is at most
    _FLOAT_MOD_LIMIT = 2^27 it runs in float64 on symmetric residues: a
    product y is reduced by y -= rint(y * (1/m)) * m. Every factor is a
    reduced |r| <= m/2 + 1 <= 2^26 + 1 or an unreduced entry at most 2^26,
    so |y| <= (2^26 + 1)^2 < 2^53 is an exact double, and the computed
    quotient is within about |y| * 2^-52 / m of y/m (two roundings of
    relative size 2^-53). The new |r| is then below m/2 + 1 + 2^-24, and
    being an integer it is at most m/2 + 1 again; the quotient times m is
    exact too. So each reduced residue lies in (-m, m) (m = 1 and 2 divide
    exactly), and the result returns to [0, m) by adding m to the negative
    ones. Larger moduli reduce with int64 %.
    """
    n = base.size
    exp = np.broadcast_to(exp, base.shape)
    if int(np.max(mod, initial=0)) <= _FLOAT_MOD_LIMIT:
        m = np.asarray(mod, dtype=np.float64)
        inv = 1.0 / m
        q = np.empty(n)

        def reduce(y):
            np.multiply(y, inv, out=q)
            np.rint(q, out=q)
            np.multiply(q, m, out=q)
            y -= q

        table = np.empty((1 << _WINDOW, n))
    else:

        def reduce(y):
            y %= mod

        table = np.empty((1 << _WINDOW, n), dtype=np.int64)
    table[0] = 1  # unreduced like the other small rows: m = 1 reduces it to 0
    largest = int(np.max(base, initial=0))
    if largest <= _EXACT_ROW:
        table[1] = base
    else:
        table[1] = base % mod
        reduce(table[1])
    for j in range(2, 1 << _WINDOW):
        np.multiply(table[j - 1], table[1], out=table[j])
        if largest**j > _EXACT_ROW:
            reduce(table[j])
    flat = table.ravel()
    biggest = int(exp.max(initial=0))
    index = np.int32 if biggest < 1 << 31 and flat.size < 1 << 31 else np.int64
    exp = exp.astype(index)
    cols = np.arange(n, dtype=index)
    digit = np.empty(n, dtype=index)  # flat index of each element's entry
    entry = np.empty(n, dtype=table.dtype)
    top = max(biggest.bit_length() - 1, 0) // _WINDOW * _WINDOW
    x = None
    for shift in range(top, -1, -_WINDOW):
        np.right_shift(exp, shift, out=digit)
        digit &= (1 << _WINDOW) - 1
        digit *= n
        digit += cols
        if x is None:  # the leading window starts the power
            x = flat.take(digit)
            if not top:
                reduce(x)
            continue
        for _ in range(_WINDOW):
            x *= x
            reduce(x)
        np.take(flat, digit, out=entry)
        x *= entry
        reduce(x)
    if table.dtype == np.int64:
        return x
    x = x.astype(np.int64)
    x += (x >> 63) & mod  # symmetric residues back to [0, m)
    return x


def _non_residues(q: int) -> np.ndarray:
    """Bool table over k mod the odd prime q: True where k is a non-residue."""
    table = np.ones(q, dtype=bool)
    table[np.arange(q) ** 2 % q] = False
    return table


def _least_non_residue_table(primes: Sequence[int]) -> np.ndarray:
    """uint8 table over n mod the product of the odd ``primes``: the least
    of them that is a non-residue mod n, or 0 when none is."""
    n = np.arange(np.prod(primes))
    table = np.zeros(n.size, dtype=np.uint8)
    for q in sorted(primes, reverse=True):  # the least is written last
        table[_non_residues(q)[n % q]] = q
    return table


_BASE_PRIMES = (3, 5, 7, 11, 13)
_BASE_TABLE = _least_non_residue_table(_BASE_PRIMES)  # over p mod 15015
_LATE_BASES = [  # (q, its non-residue table) for the primes 17 <= q <= _ROOT_BASE_CAP
    (q, _non_residues(q)) for q in small_primes(_ROOT_BASE_CAP)[1 + len(_BASE_PRIMES) :].tolist()
]


def _root_bases(p: np.ndarray) -> np.ndarray:
    """Least prime quadratic non-residue mod each p = 1 (mod 4), or 0 when
    none is at most _ROOT_BASE_CAP.

    2 is a non-residue exactly when p = 5 (mod 8). For an odd prime q,
    reciprocity gives (q|p) = (p|q) because p = 1 (mod 4), so q is read
    off the residue p mod q without touching p's own arithmetic: for 3, 5,
    7, 11 and 13 at once, from _BASE_TABLE at p mod 15015 (taken as
    p - (p // 15015) * 15015, a division by a scalar). Only the ~1.5% of
    primes left at 0 try the primes from 17 on, one at a time, each from
    its table in _LATE_BASES.
    """
    size = _BASE_TABLE.size
    base = np.where(p & 7 == 5, 2, _BASE_TABLE[p - p // size * size]).astype(np.int64)
    pending = np.flatnonzero(base == 0)
    for q, non_residue in _LATE_BASES:
        if pending.size == 0:
            break
        hit = non_residue[p[pending] % q]
        base[pending[hit]] = q
        pending = pending[~hit]
    return base


def annotate_roots(
    primes: np.ndarray, *, lo: Optional[int] = None, hi: Optional[int] = None
) -> PrimeRootBlock:
    """Attach the canonical square root of -1 to each prime = 1 mod 4.

    The root is t = q^((p-1)/4) for a quadratic non-residue q (Euler's
    criterion makes t^2 = -1); q is the least prime non-residue, chosen
    before any exponentiation by ``_root_bases`` from tables built at
    import, so each prime costs one modular power, taken by ``_vector_pow``
    in slices of _CHUNK primes that stay in cache. q is small (2 for half
    the primes, at most 13 for about 98.5%), so the power's window table
    mostly holds plain powers q^j that need no reduction.
    Every root is checked in int64 (t*t % p == p - 1), whichever arithmetic
    the power ran in, and a failed check or a prime with no base up to
    _ROOT_BASE_CAP raises NoRootFoundError. Primes above MAX_ROOT_PRIME raise
    ValueError. Order is preserved and nothing else about the input is
    assumed.
    """
    p = np.asarray(primes, dtype=np.int64)
    if p.size and int(p.max()) > MAX_ROOT_PRIME:
        raise ValueError(
            f"prime {int(p.max())} above {MAX_ROOT_PRIME}: its squares overflow int64"
        )
    base = _root_bases(p)
    t = np.empty_like(p)
    for s in range(0, p.size, _CHUNK):  # slices small enough to stay in cache
        c = slice(s, s + _CHUNK)
        t[c] = _vector_pow(np.maximum(base[c], 1), (p[c] - 1) >> 2, p[c])
    bad = np.flatnonzero((base == 0) | (t * t % p != p - 1))
    if bad.size:
        raise NoRootFoundError(
            f"no base up to {_ROOT_BASE_CAP} yields a root of -1 mod "
            f"{int(p[bad[0]])}; composite input or corrupt stream?"
        )
    return PrimeRootBlock(lo=lo, hi=hi, p=p, r=np.minimum(t, p - t))


def _mod_ascending(base: int, m: np.ndarray, out: np.ndarray) -> None:
    """out = base mod m, for m ascending and positive: one remainder over
    the prefix with m <= base, and base itself past it, where it is
    already reduced. Every entry lands in [0, m)."""
    k = int(m.searchsorted(m.dtype.type(base), "right"))  # a Python int would cast m
    np.remainder(base, m[:k], out=out[:k])
    out[k:] = base


def _first_hits(
    block: PrimeRootBlock, base: int, n: int, top: int
) -> Iterator[tuple]:
    """The live first hits of the pairs of ``block`` with p < top.

    Candidates are the even x = base + 2i, i < n (base even). Each pair
    strikes two chains of stride 2p: the even representative of r is
    e = r + p(r & 1), that of p - r is 2p - e, and their first hits at or
    past base lie at i = ((e - base) mod 2p) >> 1 and ((-e - base) mod 2p)
    >> 1. A hit is live when i < n; x = r with r^2 + 1 = p is the one
    survivor on its own chain, so that hit moves one stride on. Pairs are
    taken in chunks of 2^14, copied into buffers reused per chunk, so the
    arithmetic stays in cache; each chunk yields int64 arrays (i, p) with
    one entry per live chain.

    The arithmetic runs in int32, exact while 2p and base are below 2^31,
    so that e, base mod 2p and both signed offsets in (-2p, 2p) fit too:
    every caller keeps top and base at or below MAX_X_LIMIT = 10^9. base
    mod 2p is one remainder over the pairs with 2p <= base only
    (``_mod_ascending``). The blocks stay int64, because their users
    square r in the block's own dtype; only the live hits return to int64,
    for the own-value test x * x + 1 == p and the strikes.
    """
    stop = int(np.searchsorted(block.p, top))
    size = min(stop, _CHUNK)
    p_buf, r_buf, two_p, e, fix = (np.empty(size, dtype=np.int32) for _ in range(5))
    hits = np.empty(2 * size, dtype=np.int32)
    for s in range(0, stop, _CHUNK):
        t = min(s + _CHUNK, stop)
        m = t - s
        p, r, tp, ee, b = p_buf[:m], r_buf[:m], two_p[:m], e[:m], fix[:m]
        h = hits[: 2 * m]
        lo, hi = h[:m], h[m:]
        p[...] = block.p[s:t]
        r[...] = block.r[s:t]
        np.left_shift(p, 1, out=tp)
        np.bitwise_and(r, 1, out=ee)
        ee *= p
        ee += r
        _mod_ascending(base, tp, b)
        np.subtract(ee, b, out=lo)  # = e - base (mod 2p), in (-2p, 2p)
        np.subtract(tp, ee, out=hi)
        hi -= b  # = -e - base (mod 2p), in (-2p, 2p)
        for d, scratch in ((lo, ee), (hi, b)):  # add 2p where negative
            np.right_shift(d, 31, out=scratch)  # -1 where d < 0, else 0
            scratch &= tp
            d += scratch
        live = np.flatnonzero(h < 2 * n)  # offsets are even, as e and base are
        i = h[live].astype(np.int64) >> 1
        live[live >= m] -= m
        step = block.p[s:t][live]
        if base * base < int(block.p[t - 1]):  # some x >= base may have x^2 + 1 = p
            x = base + 2 * i
            own = x * x + 1 == step
            if own.any():
                i[own] += step[own]
                keep = i < n
                i, step = i[keep], step[keep]
        yield i, step


def _strike(mask: np.ndarray, i: np.ndarray, step: np.ndarray) -> None:
    """Clear mask[i[k]::step[k]] for every k, i[k] >= 0 and step[k] > 0.

    A chain with stride below _SLICE_BELOW = 2^13 and two or more hits in
    the mask is cleared by one slice. Every other chain is cleared in
    rounds: one fancy index over the hits of the chains still in the mask,
    then one stride on for each, dropping those that pass the end. A chain
    with stride s has at most mask.size / s + 1 hits, so there are few
    rounds, and the first is the only one for the chains with a single
    hit. It strikes the base primes of ``sieve_segment_1mod4``, the
    shifted squares and A, where the fused pass never brings strides from
    segment_len / 8 up: ``_CandidateStrike`` clears those in its bit mask.
    """
    n = mask.size
    sliced = (step < _SLICE_BELOW) & (i + step < n)
    for i0, st in zip(i[sliced].tolist(), step[sliced].tolist()):
        mask[i0::st] = False
    j, step = i[~sliced], step[~sliced]
    live = j < n
    while True:
        j, step = j[live], step[live]
        if not j.size:
            return
        mask[j] = False
        j += step
        live = j < n


def sieve_a_segment(
    seg_lo: int,
    seg_hi: int,
    prime_root_blocks: Iterable[PrimeRootBlock],
    stats: Optional[SieveStats] = None,
) -> ASegment:
    """Members of A in [seg_lo, seg_hi) given annotated primes below seg_hi.

    Candidates are x = 1 plus the even x in range (odd x > 1 give even
    x^2 + 1). For each annotated prime p < seg_hi, both residues r and
    p - r are struck along their even representatives with stride 2p,
    from the first hits that ``_first_hits`` finds (the kernel the fused
    pass shares). A candidate x whose own value x^2 + 1 equals p is the one
    legitimate survivor on its strike chain, so that first hit is skipped.
    Each chunk of chains is cleared by ``_strike`` and counted in any ``stats``.

    The blocks must tile [1, seg_hi) or beyond without holes, starting at 1;
    anything less raises IncompleteRootStreamError. seg_hi above
    MAX_X_LIMIT = x_limit(10^18) = 10^9, past every supported run and the
    kernel's int32 arithmetic, raises ValueError.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")
    if seg_hi > MAX_X_LIMIT:
        raise ValueError(f"seg_hi {seg_hi} above {MAX_X_LIMIT}, the x_limit of {MAX_BOUND}")

    base = seg_lo + (seg_lo & 1)  # first even candidate
    n_idx = max(0, (seg_hi - base + 1) // 2)
    mask = np.ones(n_idx, dtype=bool)

    covered = 1
    for block in prime_root_blocks:
        if block.lo != covered:
            raise IncompleteRootStreamError(
                f"root blocks jump from {covered} to {block.lo}"
            )
        covered = block.hi
        for i, step in _first_hits(block, base, n_idx, seg_hi):
            if stats is not None:
                stats.strikes += int(np.sum((n_idx - i + step - 1) // step))
            _strike(mask, i, step)
        if covered >= seg_hi:
            break
    if covered < seg_hi:
        raise IncompleteRootStreamError(
            f"root blocks cover [1,{covered}), segment needs [1,{seg_hi})"
        )
    return _a_segment(seg_lo, seg_hi, base, mask)


def _a_segment(lo: int, hi: int, base: int, alive: np.ndarray) -> ASegment:
    """The A segment [lo, hi) whose even candidates base + 2i survive where
    ``alive`` is set, led by x = 1, the one odd member, when lo is 1."""
    values = base + 2 * np.flatnonzero(alive).astype(np.int64)
    if lo == 1:
        values = np.concatenate(([1], values))
    return ASegment(lo=lo, hi=hi, values=values)


def _totient(c: int) -> int:
    """Euler's phi of c >= 1, by trial division up to sqrt(c)."""
    phi, q = c, 2
    while q * q <= c:
        if c % q == 0:
            phi -= phi // q
            while c % q == 0:
                c //= q
        q += 1
    return phi - phi // c if c > 1 else phi


def _negative_inverses(c: int, phi: int, a: np.ndarray) -> np.ndarray:
    """k = -a^-1 mod c for each a >= 0 prime to c, where phi is phi(c):
    a^phi = 1 (mod c), so -a^(phi - 1) is the inverse's negative, a power
    modulo c with an exponent below c. Needs c < MAX_ROOT_PRIME."""
    return -_vector_pow(a, phi - 1, c) % c


def _times_inverse(a: np.ndarray, p: np.ndarray, k: np.ndarray, c: int) -> np.ndarray:
    """a * c^-1 mod p for each a in [0, p), where k = -p^-1 mod c.

    j = a*k mod c makes a + j*p = 0 (mod c), and (a + j*p)/c is the
    product, already in [0, p): a + j*p < c*p. No remainder by an array:
    "mod c" is a - (a // c)*c, a division by a scalar. Needs c*p < 2^63.
    """
    j = a * k
    j -= j // c * c
    j *= p
    j += a
    j //= c
    return j


def _scan_top(members: Sequence[tuple], y_limit: int) -> int:
    """1 + the largest |c*y + s| over the family and y in [0, y_limit]."""
    return max(max(abs(s), abs(c * y_limit + s)) for c, s in members) + 1


def shifted_square_fits(members: Sequence[tuple], y_limit: int) -> bool:
    """Whether ``shifted_square_mask`` can run the family in int64: every
    |c*y + s| below MAX_ROOT_PRIME, so the primes p annotate and their
    products fit, and every c below MAX_ROOT_PRIME, so c*p <=
    (MAX_ROOT_PRIME - 1)^2 < 2^63, as ``_times_inverse`` needs."""
    top = _scan_top(members, y_limit)
    return top <= MAX_ROOT_PRIME and all(c < MAX_ROOT_PRIME for c, _ in members)


def _scale_pairs(block: PrimeRootBlock, c: int, phi: int, table) -> tuple:
    """The chains of ``block`` on the rays of scale c, before the rays' t.

    Returns (p2, u2, k, own, r_own). The pairs whose p divides c are left
    out (only p <= c can); for the m others k = -p^-1 mod c, read from
    ``table`` at p mod c or, with no table, one power per prime; p2 holds
    p twice and u2 the chains' +-r * c^-1 mod p, u and p - u, so a ray with
    w = t * c^-1 starts its 2m chains at u2 - w (mod p2). own indexes p2 at
    the pairs with p = r^2 + 1, and r_own holds their r.
    """
    drop = np.flatnonzero(c % block.p[: block.p.searchsorted(c, "right")] == 0)
    p, r = np.delete(block.p, drop), np.delete(block.r, drop)
    residue = p - p // c * c
    k = _negative_inverses(c, phi, residue) if table is None else table[residue]
    u = _times_inverse(r, p, k, c)
    sq = np.flatnonzero(r * r + 1 == p)
    return (
        np.concatenate((p, p)),
        np.concatenate((u, p - u)),
        k,
        np.concatenate((sq, sq + p.size)),
        np.concatenate((r[sq], r[sq])),
    )


def _strike_rays(block: PrimeRootBlock, rays: list, scales: dict) -> None:
    """Strike each ray (c, t, view) that ``block`` reaches with its chains:
    one ``_strike`` per ray, over the chains whose first hit lies on it."""
    pairs = {}  # per scale c: _scale_pairs
    for c, t, view in rays:
        if block.lo > c * (view.size - 1) + t:
            continue
        if c not in pairs:
            pairs[c] = _scale_pairs(block, c, *scales[c])
        p2, u2, k, own, r_own = pairs[c]
        p = p2[: k.size]
        a = np.empty_like(p)
        _mod_ascending(t, p, a)  # t mod p
        i = (u2.reshape(2, -1) - _times_inverse(a, p, k, c)).ravel()  # in (-p, p)
        i += (i >> 63) & p2
        own = own[c * i[own] + t == r_own]  # first hits at |x| = r
        i[own] += p2[own]
        live = np.flatnonzero(i < view.size)
        _strike(view, i[live], p2[live])


def shifted_square_mask(members: Sequence[tuple], y_limit: int) -> np.ndarray:
    """Bool mask over y in [0, y_limit]: True where (c*y + s)^2 + 1 is
    prime for every (c, s) of ``members``, each c > 0. A family outside
    ``shifted_square_fits`` raises ValueError, and so does a member with
    gcd(c, s^2 + 1) > 1, whose values all share a prime factor.

    x = c*y + s has x^2 + 1 prime exactly when |x| is in A, so the mask is
    struck with no primality test, on at most two rays per member along
    which |x| = c*i + t grows with i >= 0: mask[z:] from the first y = z
    with x >= 0, and the reversed mask[z-1::-1]. On a ray, the pair (2, 1)
    and each annotated p not dividing c (one that does divides no value,
    as c and s^2 + 1 are coprime) strike the chains i = (+-r - t) c^-1
    (mod p). A chain spares only |x| = r with r^2 + 1 = p, and that is its
    first hit if any, the one before lying at r - c*p < 0; so it moves one
    stride on, as in ``_first_hits``. x = 0 gives 1, and is cleared where a
    ray starts at t = 0.

    The chains start at u - w and -u - w (mod p), with u = r * c^-1 and
    w = (t mod p) * c^-1 from ``_times_inverse``: no remainder by an array,
    and t mod p only over the primes p <= t. k = -p^-1 mod c is read from
    one table over the residues mod c per scale and scan while c is at most
    _CHUNK, and taken per prime above. Each block makes one ``_strike`` per
    ray, over the chains whose first hit lies on the ray.

    The primes come from ``sieve_prime_roots`` in blocks of 2^18 numbers
    tiling [1, max |x| + 1), under 2^14 pairs each. A ray skips the blocks
    whose primes are all past its own max |x|, which is exact: a composite
    x^2 + 1 has a prime factor at most |x|, and that factor does not divide
    c.
    """
    if not shifted_square_fits(members, y_limit):
        raise ValueError("family outside the int64 range of the strike")
    for c, s in members:
        if gcd(c, s * s + 1) > 1:
            raise ValueError(
                f"every value of (c*y + s)^2 + 1 with (c, s) = ({c}, {s}) "
                f"is divisible by {gcd(c, s * s + 1)}"
            )
    n = y_limit + 1
    top = _scan_top(members, y_limit)
    scales = {}  # c: phi(c) and the table of k = -a^-1 mod c over a mod c, or None
    for c in {c for c, _ in members}:
        phi = _totient(c)
        scales[c] = phi, _negative_inverses(c, phi, np.arange(c)) if c <= _CHUNK else None
    alive = np.ones(n, dtype=bool)
    rays = []  # (c, t, view): view[i] is the y with |x| = c*i + t
    for c, s in members:
        z = min(n, max(0, -(s // c)))  # the first y with x >= 0
        if z < n:
            t = c * z + s
            alive[z] &= t != 0  # x = 0 gives 1
            rays.append((c, t, alive[z:]))
        if z:
            rays.append((c, -c * (z - 1) - s, alive[z - 1 :: -1]))
    two = PrimeRootBlock(lo=2, hi=3, p=np.array([2]), r=np.array([1]))
    ranges = [(lo, min(lo + _SCAN_BLOCK, top)) for lo in range(1, top, _SCAN_BLOCK)]
    for block in chain([two], sieve_prime_roots(ranges)):
        _strike_rays(block, rays, scales)
    return alive


def sieve_prime_roots(
    ranges: Iterable[tuple], *, thread_count: int = 1
) -> Iterator[PrimeRootBlock]:
    """Sieve and annotate each range [lo, hi) of ``ranges``, in order.

    Every lo must be 1 mod 4. The base primes are sieved once, up to the
    square root of the highest end. Consecutive ranges are sieved together,
    one ``sieve_segment_1mod4`` call per group of at least _SIEVE_SPAN =
    2^20 numbers, so a base prime below 2^13 costs one slice per group, not
    one per range; a gap between ranges (a resume plan) starts a new group,
    and a range of 2^20 or more is a group of its own. Each range is still
    annotated on its own, so the blocks are those of one call per range.
    With thread_count > 1 the groups run on a thread pool with bounded
    lookahead; the blocks are the same.
    """
    groups = []
    for lo, hi in ranges:
        if groups and groups[-1][-1][1] == lo and lo - groups[-1][0][0] < _SIEVE_SPAN:
            groups[-1].append((lo, hi))
        else:
            groups.append([(lo, hi)])
    if not groups:
        return
    base_primes = small_primes(isqrt(max(g[-1][1] for g in groups) - 1) + 1)

    def job(group):
        primes = sieve_segment_1mod4(group[0][0], group[-1][1], base_primes)
        cuts = primes.searchsorted([lo for lo, _ in group[1:]])
        return [
            annotate_roots(part, lo=lo, hi=hi)
            for part, (lo, hi) in zip(np.split(primes, cuts), group)
        ]

    # chain drops each group's list once it is spent, before the next is sieved
    yield from chain.from_iterable(_ordered_map(job, groups, thread_count))


class _CandidateStrike:
    """The even candidates below ``limit`` that the primes fed so far leave.

    Primes fall in three stride classes:

    - p >= segment_len / 8 hits a segment at most eight times per root, so
      when it is fed, all its hits from the first pending segment up to
      ``limit`` are generated at once, as bit indices h (the even candidate
      2h) with stride p, from the first hits that ``_first_hits`` finds,
      and cleared in a bit-packed mask (limit/16 bytes); nothing about it
      is kept;
    - a smaller prime lies in the first block fed, which ends at
      1 + 4 * segment_len, and only its pair is kept: ``emit`` finds its
      first hits in each segment anew, as ``sieve_a_segment`` does, and
      strikes the segment's unpacked slice of the mask with ``_strike``:
      the chains of 2^13 <= p < segment_len / 8 in rounds, one fancy index
      over all of them per round;
    - and each chain of p < 2^13 by one slice.

    The split at segment_len / 8 keeps the pairs kept few and all in the
    first block.
    """

    def __init__(self, limit: int, segment_len: int):
        self.limit = limit
        self.slice_below = segment_len // 8
        self.bits = np.full((limit + 15) // 16, 0xFF, dtype=np.uint8)
        self.small = None  # the pairs of p < slice_below, from the first block

    def feed(self, block: PrimeRootBlock, start: int) -> None:
        """Clear the hits of the pairs of p >= segment_len / 8 from start on."""
        if self.small is None:
            k = int(np.searchsorted(block.p, self.slice_below))
            self.small = PrimeRootBlock(None, None, block.p[:k].copy(), block.r[:k].copy())
        base = start + (start & 1)
        for i, p in _first_hits(block, base, (self.limit - base + 1) // 2, self.limit):
            large = p >= self.slice_below
            self._clear_chains(i[large] + (base >> 1), p[large])

    def _clear_chains(self, h: np.ndarray, step: np.ndarray) -> None:
        # live hits by bit index; one per chain per batch, so a batch never exceeds the chunk
        end = (self.limit + 1) // 2  # past the last candidate's index
        while h.size:
            byte = h >> 3
            keep = ~(np.uint8(1) << (h & 7).astype(np.uint8))
            while byte.size:
                # hits sharing a byte write it once each and the last write
                # wins, so read back and repeat the clears that were lost
                self.bits[byte] &= keep
                lost = self.bits[byte] & ~keep != 0
                byte, keep = byte[lost], keep[lost]
            h += step
            live = h < end
            h, step = h[live], step[live]

    def emit(self, lo: int, hi: int) -> ASegment:
        """Members of A in [lo, hi), once every block up to hi is fed."""
        base = lo + (lo & 1)
        n = (hi - base + 1) // 2
        h = base >> 1
        packed = self.bits[h >> 3 : (h + n + 7) >> 3]
        alive = np.unpackbits(packed, bitorder="little")[h & 7 : (h & 7) + n].view(bool)
        for i, step in _first_hits(self.small, base, n, hi):
            _strike(alive, i, step)
        return _a_segment(lo, hi, base, alive)


def run_pipeline(
    config: SieveConfig,
    data_dir,
    *,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SegmentStore:
    """Sieve everything below the bound into ``data_dir`` and finalize.

    One fused pass over the prime-root segments in order. Each block is
    sieved and annotated, or read once (digest-checked) when the store
    already holds it and an A segment is still pending, and fed to the
    candidate strike; every pending A segment whose end its coverage
    reaches is committed right after it, so commits run P0, A0, A1, P1,
    A2, ... A fresh run is a resume whose plan lists every segment: with
    ``resume=True`` an existing manifest is honored and only missing or
    corrupt segments are recomputed. ``thread_count`` threads sieve and
    annotate prime blocks ahead of the strike. Output bytes depend only on
    (bound_b, segment_len), not on thread count or interruption history.
    While it runs it holds a flock on ``data_dir``; a second writer gets
    OSError.
    """

    def tell(entry) -> None:
        if progress is not None:
            progress(f"commit {entry.kind} [{entry.lo},{entry.hi}) count={entry.count}")

    os.makedirs(data_dir, exist_ok=True)
    lock = os.open(data_dir, os.O_RDONLY)
    try:
        try:  # the directory itself, so no lock file joins the run's files
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"another goo sieve is writing to {data_dir}") from None
        if resume:
            try:
                store = SegmentStore.open(data_dir)
            except ManifestError:
                store = SegmentStore.create(data_dir, config.bound_b, config.segment_len)
            else:
                if (
                    store.manifest.bound_b != config.bound_b
                    or store.manifest.segment_len != config.segment_len
                ):
                    raise ResumeGeometryError(
                        "resume geometry mismatch: store has "
                        f"bound_b={store.manifest.bound_b} "
                        f"segment_len={store.manifest.segment_len}"
                    )
                store.manifest.status = "in_progress"
        else:
            store = SegmentStore.create(data_dir, config.bound_b, config.segment_len)
        todo = set(store.resume_plan())

        fresh = sieve_prime_roots(
            [(lo, hi) for lo, hi in store.ranges[KIND_PRIME] if (KIND_PRIME, lo, hi) in todo],
            thread_count=config.thread_count,
        )
        # the A ranges to write, the next one last
        pending = [r for r in reversed(store.ranges[KIND_A]) if (KIND_A, *r) in todo]
        if pending:
            strike = _CandidateStrike(x_limit(config.bound_b), config.segment_len)
        for lo, hi in store.ranges[KIND_PRIME]:
            if (KIND_PRIME, lo, hi) in todo:
                block = next(fresh)
                tell(store.write_prime_segment(block))
            elif pending:
                block = store.read_prime_block(lo, hi)
            if not pending:
                continue
            strike.feed(block, pending[-1][0])
            while pending and pending[-1][1] <= hi:
                tell(store.write_a_segment(strike.emit(*pending.pop())))

        store.finalize()
    finally:
        os.close(lock)
    if progress is not None:
        progress("complete")
    return store


def _ordered_map(fn, items, workers: int):
    """Map preserving order; bounded lookahead when threaded."""
    if workers <= 1 or len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor
    from collections import deque

    window = 2 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        it = iter(items)
        for item in it:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
