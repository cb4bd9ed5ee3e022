"""Segmented sieves for primes of the form x^2 + 1.

Three stages, each feeding the next:

1. ``small_primes``  -- classic sieve up to the fourth root of the bound.
2. ``sieve_segment_1mod4`` + ``annotate_roots`` -- the class 1 mod 4 up to
   the square root of the bound, sieved in segments by ``_strike`` from
   every base prime's first index at once; each survivor p gets its
   canonical root of -1, the least prime non-residue (3 to 13 from one
   table over p mod 15015) to the (p-1)/4 power, in float64 for p up to
   2^27 and in int64 above. ``sieve_prime_roots`` runs the two over ranges.
3. A sieve over the candidates x themselves: x survives when x^2 + 1 has no
   prime factor below it, i.e. when x avoids both roots of -1 modulo every
   annotated prime p < x^2 + 1.

``run_pipeline`` drives the three against a ``SegmentStore`` in one fused
pass: each prime-root block is sieved (or, on resume, read) once, feeds the
candidate strike as soon as it exists, and every A segment it completes is
committed right after it. Output is restartable and byte-deterministic.
``sieve_a_segment`` is the stand-alone form of stage 3 for one window of
candidates against a stream of blocks (random windows, tests, references).
Both find where each prime's chains first hit their candidates with one
kernel, ``_first_hits``, which works through a block in cache-sized chunks,
and clear them by stride class. Within a segment, ``_strike`` clears a
chain of stride below 2^13 by one slice and the rest in vectorised rounds,
one hit per chain per round; in the fused pass a prime from segment_len/8
up has all its hits generated on arrival and cleared in a bit mask.
``shifted_square_mask`` runs stage 3 over the arguments y of the shifted
squares (c*y + s)^2 + 1 for family scans, on rays where |c*y + s| grows.
"""

import fcntl
import os
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .records import ASegment, PrimeRootBlock
from .store import (
    KIND_A,
    KIND_PRIME,
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
_SCAN_BLOCK = 1 << 18  # numbers per block of the shifted-square strike: < _CHUNK pairs
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
    """Work counters, mostly for the cost-model tests."""

    strikes: int = 0
    candidates: int = 0
    survivors: int = 0


def small_primes(limit: int) -> np.ndarray:
    """All primes p <= limit, ascending, as int64. Requires limit >= 2."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    half = (limit + 1) // 2
    odd = np.ones(half, dtype=bool)  # index i represents 2i + 1
    odd[0] = False
    for i in range(1, min((isqrt(limit) + 1) // 2 + 1, half)):
        if odd[i]:
            p = 2 * i + 1
            odd[(p * p) // 2 :: p] = False
    return np.concatenate(
        ([2], 2 * np.flatnonzero(odd).astype(np.int64) + 1)
    )


def sieve_segment_1mod4(
    seg_lo: int, seg_hi: int, base_primes: np.ndarray
) -> np.ndarray:
    """Primes p = 1 (mod 4) in [seg_lo, seg_hi), ascending.

    seg_lo must itself be 1 mod 4. The base primes must cover every prime
    up to the square root of seg_hi - 1; if they fall short *and* a prime
    actually hides in the uncovered stretch, the segment would silently
    keep composites, so that case raises instead. Each odd base prime p
    with p^2 < seg_hi strikes z = m*p from the least m >= max(p, seg_lo/p)
    with m = p (mod 4): all first indices at once, in one ``_strike``.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")
    if seg_lo % 4 != 1:
        raise ValueError("seg_lo must be congruent to 1 mod 4")
    if len(base_primes) == 0:
        raise InsufficientBasePrimesError("no base primes supplied")
    top = int(base_primes[-1])
    need = isqrt(seg_hi - 1)
    if top < need and small_primes(need)[-1] > top:
        raise InsufficientBasePrimesError(
            f"base primes reach {top}, segment end needs {need}"
        )

    t_lo = (seg_lo - 1) // 4
    t_hi = (seg_hi + 2) // 4  # first t with 4t + 1 >= seg_hi
    mask = np.ones(t_hi - t_lo, dtype=bool)
    if t_lo == 0:
        mask[0] = False  # z = 1 is not prime
    p = base_primes[1 : np.searchsorted(base_primes, need, "right")]  # 2 divides no 4t + 1
    m = np.maximum(p, -(-seg_lo // p))
    m += (p - m) % 4  # multiplier must be p mod 4 for z = 1 mod 4
    _strike(mask, (m * p - 1) // 4 - t_lo, p)
    return 4 * (t_lo + np.flatnonzero(mask).astype(np.int64)) + 1


def _vector_pow(base: np.ndarray, exp, mod) -> np.ndarray:
    """base**exp % mod elementwise, for exp >= 0; exp and mod may be
    scalars. Every modulus must be in [1, MAX_ROOT_PRIME], or the int64
    squares overflow.

    Left to right in fixed windows of _WINDOW bits: a table of base^0..7
    mod m, one column per element, then per window three squarings in
    place and one multiply by the table entry of the window's digit,
    gathered with one flat take. There is no per-bit select and no fresh
    array per window.

    The arithmetic follows the moduli. When every m is at most
    _FLOAT_MOD_LIMIT = 2^27 it runs in float64 on symmetric residues: a
    product y is reduced by y -= rint(y * (1/m)) * m. The computed quotient
    is within about 2^-27 of y/m (|y/m| <= 2^25 + 2, two roundings of
    relative size 2^-53), so every reduced |r| <= m/2 + 1, an integer;
    every square and table product is then
    at most (2^26 + 1)^2 < 2^53, and so is the quotient times m, so each
    product and difference is an exact double. The result returns to
    [0, m) in int64 once, at the end. Larger moduli reduce with int64 %.
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
    table[0] = 1 % mod
    table[1] = base % mod
    reduce(table[1])
    for j in range(2, 1 << _WINDOW):
        np.multiply(table[j - 1], table[1], out=table[j])
        reduce(table[j])
    flat = table.ravel()
    cols = np.arange(n, dtype=np.int64)
    digit = np.empty(n, dtype=np.int64)  # flat index of each element's entry
    entry = np.empty(n, dtype=table.dtype)
    top = max(int(exp.max(initial=0)).bit_length() - 1, 0) // _WINDOW * _WINDOW
    x = None
    for shift in range(top, -1, -_WINDOW):
        np.right_shift(exp, shift, out=digit)
        digit &= (1 << _WINDOW) - 1
        digit *= n
        digit += cols
        if x is None:  # the leading window starts the power
            x = flat.take(digit)
            continue
        for _ in range(_WINDOW):
            x *= x
            reduce(x)
        np.take(flat, digit, out=entry)
        x *= entry
        reduce(x)
    if table.dtype == np.int64:
        return x
    return x.astype(np.int64) % mod  # symmetric residues back to [0, m)


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


def _root_bases(p: np.ndarray) -> np.ndarray:
    """Least prime quadratic non-residue mod each p = 1 (mod 4), or 0 when
    none is at most _ROOT_BASE_CAP.

    2 is a non-residue exactly when p = 5 (mod 8). For an odd prime q,
    reciprocity gives (q|p) = (p|q) because p = 1 (mod 4), so q is read
    off the residue p mod q without touching p's own arithmetic: for 3, 5,
    7, 11 and 13 at once, from _BASE_TABLE at p mod 15015. Only the ~1.5%
    of primes left at 0 try the primes from 17 on, one at a time.
    """
    base = np.where(p & 7 == 5, 2, _BASE_TABLE[p % _BASE_TABLE.size]).astype(np.int64)
    pending = np.flatnonzero(base == 0)
    for q in small_primes(_ROOT_BASE_CAP)[1 + len(_BASE_PRIMES):].tolist():
        if pending.size == 0:
            break
        hit = _non_residues(q)[p[pending] % q]
        base[pending[hit]] = q
        pending = pending[~hit]
    return base


def annotate_roots(
    primes: np.ndarray, *, lo: Optional[int] = None, hi: Optional[int] = None
) -> PrimeRootBlock:
    """Attach the canonical square root of -1 to each prime = 1 mod 4.

    The root is t = q^((p-1)/4) for a quadratic non-residue q (Euler's
    criterion makes t^2 = -1); q is the least prime non-residue, chosen
    before any exponentiation, so each prime costs one modular power, taken
    by ``_vector_pow`` in slices of _CHUNK primes that stay in cache.
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

    One dtype rule: the arithmetic runs in int32 when top <= 2^30 and
    base < 2^30, else in int64. In int32, p < 2^30, so 2p, e, base mod 2p
    and both signed offsets in (-2p, 2p) fit, at half the bytes per pair.
    Every run the store takes is int32, its x below x_limit(10^18) = 10^9;
    int64 keeps wider windows up to MAX_ROOT_PRIME exact. The blocks stay
    int64, because their users square r in the block's own dtype; only
    the live hits return to int64, so the own-value test x * x + 1 == p
    and the strikes see what they saw before. base mod 2p is one remainder
    over the pairs with 2p <= base only (``_mod_ascending``).
    """
    stop = int(np.searchsorted(block.p, top))
    size = min(stop, _CHUNK)
    dtype = np.int32 if top <= 1 << 30 and base < 1 << 30 else np.int64
    sign = np.iinfo(dtype).bits - 1  # d >> sign is -1 where d < 0, else 0
    p_buf, r_buf, two_p, e, fix = (np.empty(size, dtype=dtype) for _ in range(5))
    hits = np.empty(2 * size, dtype=dtype)
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
            np.right_shift(d, sign, out=scratch)
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
    Each chunk of chains is cleared by ``_strike``.

    The blocks must tile [1, seg_hi) or beyond without holes, starting at 1;
    anything less raises IncompleteRootStreamError. seg_hi above
    MAX_ROOT_PRIME raises ValueError: the squares of candidates and primes
    must fit int64.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")
    if seg_hi > MAX_ROOT_PRIME:
        raise ValueError(
            f"seg_hi {seg_hi} above {MAX_ROOT_PRIME}: its squares overflow int64"
        )

    base = seg_lo + (seg_lo & 1)  # first even candidate
    n_idx = max(0, (seg_hi - base + 1) // 2)
    mask = np.ones(n_idx, dtype=bool)
    if stats is not None:
        stats.candidates += n_idx + (1 if seg_lo == 1 else 0)

    covered = 1
    for block in prime_root_blocks:
        if block.lo != covered:
            raise IncompleteRootStreamError(
                f"root blocks jump from {covered} to {block.lo}"
            )
        covered = block.hi
        if n_idx:
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

    values = base + 2 * np.flatnonzero(mask).astype(np.int64)
    if seg_lo == 1:
        values = np.concatenate(([1], values))
    if stats is not None:
        stats.survivors += values.size
    return ASegment(lo=seg_lo, hi=seg_hi, values=values)


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


def _scale_inverse(c: int, phi: int, p: np.ndarray) -> np.ndarray:
    """c^-1 mod each prime p not dividing c, where phi is phi(c).

    p^phi = 1 (mod c), so k = -p^(phi - 1) mod c makes 1 + k*p a multiple
    of c, and (1 + k*p)/c is c^-1 mod p: a power modulo c with an exponent
    below c, however large p is. k depends only on p mod c, so for c up to
    p.size one power per residue 0..c-1 is read back at p % c; above, each
    p takes its own. Needs c < MAX_ROOT_PRIME and (c - 1)*p + 1 < 2^63.
    """
    table = c <= p.size
    k = -_vector_pow(np.arange(c) if table else p % c, phi - 1, c) % c
    return (1 + (k[p % c] if table else k) * p) // c


def _scan_top(members: Sequence[tuple], y_limit: int) -> int:
    """1 + the largest |c*y + s| over the family and y in [0, y_limit]."""
    return max(max(abs(s), abs(c * y_limit + s)) for c, s in members) + 1


def shifted_square_fits(members: Sequence[tuple], y_limit: int) -> bool:
    """Whether ``shifted_square_mask`` can run the family in int64: every
    |c*y + s| below MAX_ROOT_PRIME, so the primes p annotate and their
    products fit, and every c below MAX_ROOT_PRIME, so c % p fits and
    (c - 1)*p + 1 <= (MAX_ROOT_PRIME - 1)^2 < 2^63, as ``_scale_inverse``
    needs."""
    top = _scan_top(members, y_limit)
    return top <= MAX_ROOT_PRIME and all(c < MAX_ROOT_PRIME for c, _ in members)


def shifted_square_mask(members: Sequence[tuple], y_limit: int) -> np.ndarray:
    """Bool mask over y in [0, y_limit]: True where (c*y + s)^2 + 1 is
    prime for every (c, s) of ``members``, a family with no local
    obstruction, each c > 0. A family outside ``shifted_square_fits``
    raises ValueError.

    x = c*y + s has x^2 + 1 prime exactly when |x| is in A, so the mask is
    struck with no primality test, on at most two rays per member along
    which |x| = c*i + t grows with i >= 0: mask[z:] from the first y = z
    with x >= 0, and the reversed mask[z-1::-1]. On a ray, the pair (2, 1)
    and each annotated p not dividing c (one that does divides no value)
    strike the chains i = (+-r - t) c^-1 (mod p), c^-1 from
    ``_scale_inverse``. A chain spares only |x| = r with r^2 + 1 = p, and
    that is its first hit if any, the one before lying at r - c*p < 0; so
    it moves one stride on, as in ``_first_hits``. x = 0 gives 1, and is
    cleared where a ray starts at t = 0. The primes come from
    ``sieve_prime_roots`` in blocks of 2^18 numbers tiling [1, max |x| + 1),
    under 2^14 pairs each. A ray skips the blocks whose primes are all past
    its own max |x|, which is exact: a composite x^2 + 1 has a prime factor
    at most |x|, and that factor does not divide c.
    """
    if not shifted_square_fits(members, y_limit):
        raise ValueError("family outside the int64 range of the strike")
    n = y_limit + 1
    top = _scan_top(members, y_limit)
    phi = {c: _totient(c) for c, _ in members}
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
        inverses = {}  # per scale c: pairs with c % p != 0, c^-1, those with p = r^2 + 1
        for c, t, view in rays:
            if block.lo > c * (view.size - 1) + t:
                continue
            if c not in inverses:
                unit = c % block.p != 0
                pc, rc = block.p[unit], block.r[unit]
                sq = np.flatnonzero(rc * rc + 1 == pc)
                inverses[c] = pc, rc, _scale_inverse(c, phi[c], pc), sq
            pc, rc, inv, sq = inverses[c]
            for root in (rc, pc - rc):
                i = (root - t) % pc * inv % pc
                own = sq[c * i[sq] + t == rc[sq]]  # first hits at |x| = r
                i[own] += pc[own]
                _strike(view, i, pc)
    return alive


def sieve_prime_roots(
    ranges: Iterable[tuple], *, thread_count: int = 1
) -> Iterator[PrimeRootBlock]:
    """Sieve and annotate each range [lo, hi) of ``ranges``, in order.

    Every lo must be 1 mod 4. The base primes are sieved once, up to the
    square root of the highest end. With thread_count > 1 the ranges run on
    a thread pool with bounded lookahead; the blocks are the same.
    """
    ranges = list(ranges)
    if not ranges:
        return
    base_primes = small_primes(isqrt(max(hi for _, hi in ranges) - 1) + 1)

    def job(rng):
        lo, hi = rng
        return annotate_roots(sieve_segment_1mod4(lo, hi, base_primes), lo=lo, hi=hi)

    yield from _ordered_map(job, ranges, thread_count)


class _CandidateStrike:
    """The even candidates below ``limit`` that the primes fed so far leave.

    Segments are taken in ascending order, from the one starting at
    ``start``. Primes fall in three stride classes:

    - p >= segment_len / 8 hits a segment at most eight times per root, so
      when it is fed, all its hits from the next segment up to ``limit``
      are generated at once from the first hits that ``_first_hits``
      finds, and cleared in a bit-packed mask (bit i is the even candidate
      2i; limit/16 bytes), and nothing about it is kept;
    - a smaller prime keeps the index of its next hit instead, and
      ``emit`` strikes each segment with ``_strike``: the chains of
      2^13 <= p < segment_len / 8 in rounds, one fancy index over all of
      them per round;
    - and each chain of p < 2^13 by one slice.

    The split at segment_len / 8 sits near the point where carrying a
    chain from segment to segment costs as much as the generated hits it
    replaces (about 50 ns each).
    """

    def __init__(self, limit: int, segment_len: int, start: int):
        self.limit = limit
        self.slice_below = segment_len // 8
        self.base = start + (start & 1)  # first even candidate of the next segment
        self.bits = np.full((limit + 15) // 16, 0xFF, dtype=np.uint8)
        self.small_p = np.zeros(0, dtype=np.int64)
        self.small_next = np.zeros(0, dtype=np.int64)  # hit index from base

    def feed(self, block: PrimeRootBlock) -> None:
        n = (self.limit - self.base + 1) // 2  # even candidates left
        small_p, small_next = [self.small_p], [self.small_next]
        for i, p in _first_hits(block, self.base, n, self.limit):
            small = p < self.slice_below
            small_p.append(p[small])
            small_next.append(i[small])
            self._clear_chains(self.base + 2 * i[~small], 2 * p[~small])
        self.small_p = np.concatenate(small_p)
        self.small_next = np.concatenate(small_next)

    def _clear_chains(self, x: np.ndarray, step: np.ndarray) -> None:
        # one hit per chain per batch, so a batch never exceeds the chunk
        live = x < self.limit
        x, step = x[live], step[live]
        while x.size:
            i = x >> 1
            byte = i >> 3
            keep = ~(np.uint8(1) << (i & 7).astype(np.uint8))
            while byte.size:
                # hits sharing a byte write it once each and the last write
                # wins, so read back and repeat the clears that were lost
                self.bits[byte] &= keep
                lost = self.bits[byte] & ~keep != 0
                byte, keep = byte[lost], keep[lost]
            x = x + step
            live = x < self.limit
            x, step = x[live], step[live]

    def emit(self, lo: int, hi: int) -> ASegment:
        """Members of A in [lo, hi), the next segment in order."""
        n = (hi - self.base + 1) // 2
        alive = np.ones(n, dtype=bool)
        _strike(alive, self.small_next, self.small_p)
        i = self.base >> 1
        packed = self.bits[i >> 3 : (i + n + 7) >> 3]
        alive &= np.unpackbits(packed, bitorder="little")[i & 7 : (i & 7) + n].view(bool)
        values = self.base + 2 * np.flatnonzero(alive).astype(np.int64)
        if lo == 1:
            values = np.concatenate(([1], values))
        self.skip(hi)
        return ASegment(lo=lo, hi=hi, values=values)

    def skip(self, hi: int) -> None:
        """Move past the segment ending at hi without emitting it."""
        n = (hi - self.base + 1) // 2
        hits = np.maximum((n - self.small_next + self.small_p - 1) // self.small_p, 0)
        self.small_next += self.small_p * hits - n
        self.base += 2 * n


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
    already holds it, and fed to the candidate strike; every A segment
    whose end its coverage reaches is committed right after it, so commits
    run P0, A0, A1, P1, A2, ... A fresh run is a resume whose plan lists
    every segment: with ``resume=True`` an existing manifest is honored and
    only missing or corrupt segments are recomputed. ``thread_count``
    threads sieve and annotate prime blocks ahead of the strike. Output
    bytes depend only on (bound_b, segment_len), not on thread count or
    interruption history. While it runs it holds a flock on ``data_dir``;
    a second writer gets OSError.
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

        prime_ranges, a_ranges = store.ranges[KIND_PRIME], store.ranges[KIND_A]
        a_todo = [i for i, (lo, hi) in enumerate(a_ranges) if (KIND_A, lo, hi) in todo]
        fresh = sieve_prime_roots(
            [(lo, hi) for lo, hi in prime_ranges if (KIND_PRIME, lo, hi) in todo],
            thread_count=config.thread_count,
        )
        k, a_end = (a_todo[0], a_todo[-1] + 1) if a_todo else (0, 0)
        if a_todo:
            strike = _CandidateStrike(
                x_limit(config.bound_b), config.segment_len, a_ranges[k][0]
            )
        for lo, hi in prime_ranges:
            if (KIND_PRIME, lo, hi) in todo:
                block = next(fresh)
                tell(store.write_prime_segment(block))
            elif k < a_end:
                block = store.read_prime_block(lo, hi)
            if k >= a_end:
                continue
            strike.feed(block)
            while k < a_end and a_ranges[k][1] <= hi:
                a_lo, a_hi = a_ranges[k]
                if (KIND_A, a_lo, a_hi) in todo:
                    tell(store.write_a_segment(strike.emit(a_lo, a_hi)))
                else:
                    strike.skip(a_hi)
                k += 1

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
