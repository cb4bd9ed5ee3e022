import hashlib
import random
import shutil
import tempfile
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goo import oracle, sieve, store
from goo.records import PrimeRootBlock
from goo.sieve import (
    IncompleteRootStreamError,
    InsufficientBasePrimesError,
    NoRootFoundError,
    SieveConfig,
    SieveStats,
    annotate_roots,
    run_pipeline,
    sieve_a_segment,
    sieve_prime_roots,
    sieve_segment_1mod4,
    small_primes,
)

A_BELOW_100 = [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56, 66, 74, 84, 90, 94]


# -- configuration ------------------------------------------------------------


def test_config_validation():
    SieveConfig(bound_b=10**4, segment_len=1024)
    with pytest.raises(ValueError):
        SieveConfig(bound_b=99)
    with pytest.raises(ValueError):
        SieveConfig(bound_b=10**19)
    with pytest.raises(ValueError):
        SieveConfig(bound_b=10**4, segment_len=512)
    with pytest.raises(ValueError):
        SieveConfig(bound_b=10**16, segment_len=1024)  # 1024^4 < 10^16
    with pytest.raises(ValueError):
        SieveConfig(bound_b=10**4, segment_len=1024, thread_count=0)


# -- base primes --------------------------------------------------------------


def test_small_primes_against_reference():
    def ref(n):
        flags = bytearray([1]) * (n + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, isqrt(n) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(flags[p * p :: p]))
        return [i for i in range(n + 1) if flags[i]]

    for limit in (2, 3, 4, 5, 6, 7, 30, 97, 100, 1000, 10**5):
        assert small_primes(limit).tolist() == ref(limit), limit
    with pytest.raises(ValueError):
        small_primes(1)


# -- second sieve -------------------------------------------------------------


def test_segment_1mod4_small_range():
    base = small_primes(100)
    got = sieve_segment_1mod4(1, 100, base).tolist()
    assert got == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


def test_segment_1mod4_matches_filtered_primes_across_boundaries():
    base = small_primes(isqrt(10**5) + 1)
    for c in (1, 3):  # the class of seg_lo mod 4
        want = [int(p) for p in small_primes(10**5) if p % 4 == c]
        got = []
        for lo in range(c, 10**5, 4096):
            hi = min(lo + 4096, 10**5 + 1)
            got.extend(sieve_segment_1mod4(lo, hi, base).tolist())
        assert got == want, c


def test_segment_1mod4_validates_alignment():
    base = small_primes(100)
    with pytest.raises(ValueError):
        sieve_segment_1mod4(2, 100, base)
    with pytest.raises(ValueError):
        sieve_segment_1mod4(101, 100, base)


def test_segment_1mod4_base_prime_coverage():
    # primes up to 7 genuinely cannot certify a segment reaching 200,
    # because 11 and 13 hide in the uncovered stretch
    with pytest.raises(InsufficientBasePrimesError):
        sieve_segment_1mod4(1, 200, np.array([2, 3, 5, 7], dtype=np.int64))
    # but a top prime short of the square root is fine when no prime
    # actually lives in the gap: isqrt(120) = 10 and (7, 10] holds none
    got = sieve_segment_1mod4(1, 121, np.array([2, 3, 5, 7], dtype=np.int64))
    assert got.tolist() == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113]


_Q = 1019  # a base prime; its square is 1 mod 4 like every odd square


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(0, 10**6).map(lambda k: 2 * k + 1), width=st.integers(1, 2**16))
@example(lo=_Q * _Q - 400, width=400)  # seg_hi = q^2: q strikes nothing
@example(lo=_Q * _Q - 400, width=401)  # seg_hi = q^2 + 1: q strikes its square
@example(lo=_Q * _Q, width=1)  # one number, a base prime's square
@example(lo=5, width=100)  # lo below the largest base prime's square
@example(lo=10**6 + 1, width=1000)  # lo above it
@example(lo=2 * 10**6 + 1, width=8)  # most first multiples lie past seg_hi
@example(lo=10**9 + 1, width=2**16)  # base primes to 31,607: strides >= 2^13 in rounds
@example(lo=3, width=100)  # class 3 mod 4, from the base prime 3 itself
@example(lo=_Q * (_Q + 2) - 400, width=401)  # class 3 mod 4: q strikes q(q + 2) first
@example(lo=10**9 + 3, width=2**16)  # class 3 mod 4, strides >= 2^13 in rounds
def test_segment_1mod4_matches_oracle(lo, width):
    # the oracle, not small_primes(hi - 1): near 10^9 that would be a 500 MB sieve
    hi = lo + width
    got = sieve_segment_1mod4(lo, hi, small_primes(isqrt(hi - 1) + 1))
    assert got.tolist() == [n for n in range(lo, hi, 4) if oracle.is_prime_64(n)]


# -- root annotation ----------------------------------------------------------


def test_annotate_roots_all_primes_to_1e6():
    base = small_primes(1001)
    primes = sieve_segment_1mod4(1, 10**6 + 1, base)
    block = annotate_roots(primes, lo=1, hi=10**6 + 1)
    p = block.p
    r = block.r
    assert np.all(r * r % p == p - 1)
    assert np.all(2 * r < p)
    assert np.all(r > 0)


def test_annotate_roots_known_values():
    block = annotate_roots(np.array([5, 13, 17], dtype=np.int64))
    assert block.p.tolist() == [5, 13, 17]
    assert block.r.tolist() == [2, 5, 4]
    assert list(zip(block.p.tolist(), block.r.tolist())) == [(5, 2), (13, 5), (17, 4)]


_MAXP = sieve.MAX_ROOT_PRIME


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([0, 1, 2**14 + 1]),
    bits=st.integers(0, 40),
    mod_hi=st.sampled_from([2, 3, 8, 1 << 26, _MAXP]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, bits=0, mod_hi=2, seed=0)
@example(size=2**14 + 1, bits=40, mod_hi=_MAXP, seed=1)
@example(size=2**14 + 1, bits=38, mod_hi=_MAXP, seed=2)
@example(size=2**14 + 1, bits=39, mod_hi=_MAXP, seed=3)
def test_vector_pow_matches_builtin_pow(size, bits, mod_hi, seed):
    # every exponent length mod the window width, the largest modulus,
    # bases that are multiples of their modulus, and leading zero windows
    rng = np.random.default_rng(seed)
    mod = rng.integers(2, mod_hi, size, endpoint=True)
    base = rng.integers(0, 1 << 62, size)
    exp = rng.integers(0, 1 << bits, size, endpoint=True)
    edge = slice(0, min(size, 4))
    mod[edge] = [2, _MAXP, mod_hi, 3][: edge.stop]
    exp[edge] = [1 << bits, (1 << bits) - (bits > 0), 0, 1 << bits][: edge.stop]
    base[1::3] = mod[1::3] * rng.integers(0, 4, size)[1::3]
    got = sieve._vector_pow(base, exp, mod)
    want = [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mod.tolist())]
    assert got.dtype == np.int64 and got.tolist() == want
    if size:  # the scalar exponent and modulus of the scan's inverse
        e, m = int(exp[0]), int(mod[-1])
        got = sieve._vector_pow(base, e, m)
        assert got.tolist() == [pow(b, e, m) for b in base.tolist()]


_FLOAT_TOP = 1 << 27  # the largest modulus of the float64 path


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3, 2**14 + 1]),
    bits=st.integers(0, 40),
    mod_hi=st.sampled_from(
        [1, 2, 3, 1 << 20, _FLOAT_TOP - 1, _FLOAT_TOP, _FLOAT_TOP + 1, 1 << 28]
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, bits=0, mod_hi=1, seed=0)
@example(size=2**14 + 1, bits=40, mod_hi=_FLOAT_TOP, seed=1)
@example(size=2**14 + 1, bits=38, mod_hi=_FLOAT_TOP, seed=2)
@example(size=2**14 + 1, bits=39, mod_hi=_FLOAT_TOP - 1, seed=3)
@example(size=2**14 + 1, bits=40, mod_hi=_FLOAT_TOP + 1, seed=4)
@example(size=2**14 + 1, bits=40, mod_hi=1 << 28, seed=5)
def test_vector_pow_float_path_matches_builtin_pow(size, bits, mod_hi, seed):
    # every modulus at most mod_hi, which is the first one: up to 2^27 the
    # power runs in float64, above it (2^27 + 1, and 2^28 where float squares
    # would round) in int64; a third of the bases sit at residue (m - 1)/2
    # and a third at -(m - 1)/2, the largest symmetric residues
    rng = np.random.default_rng(seed)
    mod = rng.integers(1, mod_hi, size, endpoint=True)
    mod[0] = mod_hi
    half = (mod - 1) // 2
    base = rng.integers(0, 1 << 62, size)
    k = rng.integers(0, 4, size)
    base[1::3] = (mod * k + half)[1::3]
    base[2::3] = (mod * (k + 1) - half)[2::3]
    exp = rng.integers(0, 1 << bits, size, endpoint=True)
    exp[0] = (1 << bits) - (bits > 0)  # every bit set: no zero windows
    got = sieve._vector_pow(base, exp, mod)
    want = [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mod.tolist())]
    assert got.dtype == np.int64 and got.tolist() == want
    e, m = int(exp[-1]), int(mod[0])  # a scalar exponent and modulus
    got = sieve._vector_pow(base, e, m)
    assert got.tolist() == [pow(b, e, m) for b in base.tolist()]


@pytest.mark.parametrize(
    "base",
    [0, 1, 2, 13, 14, 17, 406, 407, 8192, 8193, (1 << 26) - 1, 1 << 26, (1 << 26) + 1],
)
def test_vector_pow_unreduced_rows_match_builtin_pow(base):
    # table row j stays base^j while base^j <= 2^26: 13^7 is below 2^26 and
    # 14^7 above, as are 406^3 and 407^3, 8192^2 and 8193^2, and 2^26 and
    # 2^26 + 1 themselves; moduli 1, 2 and 3, moduli near 2^27 on the float
    # path and near MAX_ROOT_PRIME on the int64 path, where an entry one
    # power too large overflows the products; exponents at and past 2^31,
    # where the digits leave int32, and exponents of one window
    exps = [0, 1, 2, 7, 8, 63, 2**31 - 1, 2**31, 2**31 + 7, 2**40 - 1, 2**62 + 12345]
    exps += np.random.default_rng(base).integers(0, 1 << 36, 40).tolist()
    for mods in ([1, 2, 3], [_FLOAT_TOP, _FLOAT_TOP - 1, 3, 1], [_MAXP, _MAXP - 1, 2]):
        mod = np.resize(np.array(mods, dtype=np.int64), len(exps))
        b = np.full(len(exps), base, dtype=np.int64)
        got = sieve._vector_pow(b, np.array(exps, dtype=np.int64), mod)
        want = [pow(base, e, m) for e, m in zip(exps, mod.tolist())]
        assert got.dtype == np.int64 and got.tolist() == want, mods
        low = np.flatnonzero(np.array(exps) < 1 << 31)  # int32 digits only
        got = sieve._vector_pow(b[low], np.array(exps)[low], mod[low])
        assert got.tolist() == [want[k] for k in low.tolist()]
        for e in (0, 5, 2**31 + 1):  # scalar exponent and modulus
            got = sieve._vector_pow(b, e, mods[0])
            assert got.tolist() == [pow(base, e, mods[0])] * b.size


def _root_bases_by_loop(p: np.ndarray) -> np.ndarray:
    """Reference for ``sieve._root_bases``: one prime base at a time."""
    base = np.where(p % 8 == 5, 2, 0)
    pending = np.flatnonzero(base == 0)
    for q in small_primes(1000)[1:].tolist():
        non_residue = np.ones(q, dtype=bool)
        non_residue[np.arange(q) ** 2 % q] = False
        hit = non_residue[p[pending] % q]
        base[pending[hit]] = q
        pending = pending[~hit]
    return base


def test_root_bases_match_the_plain_loop():
    # every n = 1 (mod 4) below 10^6, composites and squares included
    n = np.arange(1, 10**6, 4, dtype=np.int64)
    assert sieve._root_bases(n).tolist() == _root_bases_by_loop(n).tolist()
    # primes for which 2, 3, 5, 7, 11 and 13 are all residues: the table
    # leaves them at 0 and the loop from 17 finds their base
    lo = 10**12 + 1
    p = sieve_segment_1mod4(lo, lo + 4 * 10**5, small_primes(10**6 + 1))
    got = sieve._root_bases(p)
    assert got.tolist() == _root_bases_by_loop(p).tolist()
    late = np.flatnonzero(got > 13)
    assert late.size > 20 and int(got.max()) > 29
    for q, prime in zip(got[late].tolist(), p[late].tolist()):
        # Euler's criterion: q is the least prime non-residue
        assert pow(q, (prime - 1) // 2, prime) == prime - 1
        assert all(pow(r, (prime - 1) // 2, prime) == 1 for r in (2, 3, 5, 7, 11, 13))


@pytest.mark.parametrize(
    "c, phi",
    [(1, 1), (2, 1), (3, 2), (65, 48), (5005, 2880), (2**20, 2**19),
     (3**13, 2 * 3**12), (999_983, 999_982), (3 * 10**9, 8 * 10**8)],
)
def test_scale_inverse_matches_builtin_pow(c, phi):
    # 5005 = 5 * 7 * 11 * 13 leaves many residues mod c that no prime takes
    assert sieve._totient(c) == phi
    top = [q for q in range(_MAXP - 2000, _MAXP) if oracle.is_prime_64(q)]
    p = np.concatenate((small_primes(10**5), np.array(top, dtype=np.int64)))
    p = p[c % p != 0]
    assert c * int(p[-1]) < 1 << 63
    k = sieve._negative_inverses(c, phi, p % c)  # one power per prime
    assert k.tolist() == [-pow(q, -1, c) % c for q in p.tolist()]
    if c <= sieve._CHUNK:  # the scan's table over the residues mod c
        assert sieve._negative_inverses(c, phi, np.arange(c))[p % c].tolist() == k.tolist()
    # c^-1 = (1 + k*p)/c, and a * c^-1 at random a, 0 and p - 1
    inverse = [pow(c, -1, q) for q in p.tolist()]
    got = sieve._times_inverse(np.ones_like(p), p, k, c)
    assert got.dtype == np.int64 and got.tolist() == inverse
    a = np.random.default_rng(c).integers(0, p)
    a[:2], a[-2:] = 0, p[-2:] - 1
    want = [x * v % q for x, v, q in zip(a.tolist(), inverse, p.tolist())]
    assert sieve._times_inverse(a, p, k, c).tolist() == want


def test_annotate_roots_range_guard():
    # the largest prime = 1 (mod 4) whose squares fit int64 still works
    top = 3_037_000_493
    assert sieve.MAX_ROOT_PRIME == 3_037_000_500
    r = int(annotate_roots(np.array([top], dtype=np.int64)).r[0])
    assert r * r % top == top - 1 and 2 * r < top
    # 3037000537 is the next such prime; near 4e9 the squares wrapped and a
    # real prime like 4000000009 was reported as composite input
    for p in (3_037_000_537, 4_000_000_009):
        assert oracle.is_prime_64(p)
        with pytest.raises(ValueError, match="overflow int64"):
            annotate_roots(np.array([5, p], dtype=np.int64))


def test_annotate_roots_rejects_rootless_input():
    with pytest.raises(NoRootFoundError):
        annotate_roots(np.array([5, 21], dtype=np.int64))  # 21 = 3 * 7
    with pytest.raises(NoRootFoundError):
        # a square that is 1 mod 8: no prime below 1000 is a non-residue of it
        annotate_roots(np.array([9], dtype=np.int64))


# -- third sieve --------------------------------------------------------------


def _blocks_to(x_cover):
    base = small_primes(isqrt(x_cover) + 2)
    primes = sieve_segment_1mod4(1, x_cover, base)
    return [annotate_roots(primes, lo=1, hi=x_cover)]


def test_a_segment_fixture_below_100():
    seg = sieve_a_segment(1, 100, _blocks_to(100))
    assert seg.values.tolist() == A_BELOW_100
    # 76 is the canonical near-miss: 76^2 + 1 = 5777 = 53 * 109
    assert 76 not in seg.values.tolist()


def test_a_segment_window_at_1e6():
    lo, hi = 10**6, 10**6 + 10**4
    seg = sieve_a_segment(lo, hi, _blocks_to(hi))
    want = [x for x in range(lo, hi) if oracle.is_prime_64(x * x + 1)]
    assert seg.values.tolist() == want


def test_a_segment_self_hit_survives():
    # x = 2 gives 5, prime; the p = 5 chain must not strike its own root
    seg = sieve_a_segment(1, 30, _blocks_to(30))
    values = seg.values.tolist()
    assert 2 in values
    assert 12 not in values  # 145 = 5 * 29: the next link on 5's chain


def test_a_segment_requires_contiguous_roots():
    blocks = _blocks_to(100)
    with pytest.raises(IncompleteRootStreamError):
        sieve_a_segment(1, 200, blocks)  # roots stop at 100
    shifted = [PrimeRootBlock(lo=5, hi=100, p=blocks[0].p, r=blocks[0].r)]
    with pytest.raises(IncompleteRootStreamError):
        sieve_a_segment(1, 50, shifted)  # roots start past 1


def test_a_segment_segmentation_invariance():
    blocks = _blocks_to(10**4 + 1)
    whole = sieve_a_segment(1, 10**4 + 1, blocks).values
    for piece in (512, 2048, 4096):
        parts = []
        lo = 1
        while lo < 10**4 + 1:
            hi = min(piece if lo == 1 else lo + piece, 10**4 + 1)
            parts.append(sieve_a_segment(lo, hi, iter(blocks)).values)
            lo = hi
        assert np.array_equal(np.concatenate(parts), whole)


def test_a_segment_monotone_and_gap_free():
    blocks = _blocks_to(10**4 + 1)
    values = sieve_a_segment(1, 10**4 + 1, blocks).values
    assert np.all(np.diff(values) > 0)


def test_strike_count_matches_direct_model():
    # every (p, r) chain hits each even candidate x = e mod 2p once;
    # the lone exception is the x whose own square-plus-one equals p
    n = 10**5
    blocks = _blocks_to(n + 1)
    stats = SieveStats()
    sieve_a_segment(1, n + 1, blocks, stats=stats)

    base = 2
    n_idx = (n + 1 - base + 1) // 2
    expected = 0
    for block in blocks:
        for p, r in zip(block.p.tolist(), block.r.tolist()):
            for e in (r if r % 2 == 0 else r + p,
                      (p - r) if (p - r) % 2 == 0 else 2 * p - r):
                first = e if e >= base else e + 2 * p * ((base - e + 2 * p - 1) // (2 * p))
                if first * first + 1 == p:
                    first += 2 * p
                idx = (first - base) // 2
                if idx < n_idx:
                    expected += (n_idx - idx + p - 1) // p
    assert stats.strikes == expected



def test_stats_are_counted_only_on_request():
    blocks = _blocks_to(2 * 10**5)
    stats = SieveStats()
    counted = sieve_a_segment(10**5, 2 * 10**5, blocks, stats=stats)
    plain = sieve_a_segment(10**5, 2 * 10**5, blocks)
    assert np.array_equal(counted.values, plain.values)
    assert stats == SieveStats(strikes=96507)


def test_a_segment_range_guard():
    # with no primes every even candidate survives, so only the guard can
    # refuse a window past the candidates of every supported run
    top = store.x_limit(store.MAX_BOUND)
    assert top == 10**9
    empty = np.zeros(0, dtype=np.int64)
    blocks = [PrimeRootBlock(lo=1, hi=top + 10, p=empty, r=empty)]
    assert sieve_a_segment(top - 10, top, blocks).values.tolist() == list(
        range(top - 10, top, 2)
    )
    with pytest.raises(ValueError, match="above 1000000000"):
        sieve_a_segment(top - 10, top + 1, blocks)


def test_a_segment_window_ending_at_the_largest_x_limit(roots_1e9):
    lo, hi = 10**9 - 3000, 10**9
    got = sieve_a_segment(lo, hi, roots_1e9).values.tolist()
    assert got == [x for x in range(lo, hi) if oracle.is_prime_64(x * x + 1)]


def test_blocks_hand_out_int64_pairs():
    # gate 07, annotate_roots' own root check, the decoder's and the scan's
    # square r in the block's dtype, so blocks stay int64 however small
    # their primes; only _first_hits narrows, inside itself
    blocks = [
        annotate_roots(np.array([5, 13, 17], dtype=np.int32)),
        *sieve_prime_roots([(1, 1025), (1025, 2049)]),
    ]
    blocks.append(store.decode_prime_segment(store.encode_prime_segment(blocks[1])))
    for block in blocks:
        assert block.p.dtype == np.int64 and block.r.dtype == np.int64


# -- first-hit kernel -----------------------------------------------------------

_NARROW = 1 << 30  # _first_hits' int32 arithmetic holds for top and base up to here
_X_TOP = 10**9  # its callers' limit: x_limit(10^18)


def _block_of(lo, hi):
    return annotate_roots(sieve_segment_1mod4(lo, hi, small_primes(isqrt(hi) + 1)))


# 41k pairs below 2^20, 26k around 2^29, 25k around 2^30 with the one
# p = x^2 + 1 there (x = 32,766) below 2^30, and 25k just below 10^9 with
# the one p = x^2 + 1 there (x = 31,614): each spans a chunk edge at 2^14 pairs
_LOW = _block_of(1, 1 << 20)
_MID = _block_of((1 << 29) - (1 << 19) + 1, (1 << 29) + (1 << 19))
_EDGE = _block_of(_NARROW - (1 << 19) + 1, _NARROW + (1 << 19))
_NEAR = _block_of(_X_TOP - (1 << 20) + 1, _X_TOP)
_WIDE = 1 << 21  # candidates per window on the large primes: a few hundred chains hit


def _first_hits_reference(block, base, n, top):
    # every chain's first hit at or past base, in Python ints
    hits = []
    for p, r in zip(block.p.tolist(), block.r.tolist()):
        if p >= top:
            break
        for root in (r, p - r):
            x = base + (root + p * (root & 1) - base) % (2 * p)
            if x * x + 1 == p:
                x += 2 * p
            if x < base + 2 * n:
                hits.append(((x - base) // 2, p))
    return sorted(hits)


@pytest.mark.parametrize(
    "block, base, n, top",
    [
        # top just below 2^30 and at it, and the same just below 10^9
        (_EDGE, _NARROW - 20_000, _WIDE, _NARROW - 1),
        (_EDGE, _NARROW - 20_000, _WIDE, _NARROW),
        (_NEAR, _X_TOP - 20_000, _WIDE, _X_TOP - 1),
        (_NEAR, _X_TOP - 20_000, _WIDE, _X_TOP),
        # base at the last candidates below 2^30 and 10^9, and at 2^30
        (_EDGE, _NARROW - 2, _WIDE, _NARROW),
        (_EDGE, _NARROW, _WIDE, _NARROW),
        (_NEAR, _X_TOP - 2, _WIDE, _X_TOP),
        # x from 31,000 and 32,000 across 46,341 (x^2 past int32), with the
        # own hits at 31,614 and 32,766
        (_NEAR, 31_000, _WIDE, _X_TOP),
        (_EDGE, 32_000, _WIDE, _NARROW),
        (_LOW, 2, 100_000, 1 << 20),
        # 2p < base, 2p == base and 2p > base in one chunk, the second past
        # a chunk edge, and with 2p near 2 * 10^9
        (_LOW, 2 * int(_LOW.p[1000]), 5_000, 1 << 20),
        (_LOW, 2 * int(_LOW.p[(1 << 14) + 5]), 5_000, 1 << 20),
        (_NEAR, 2 * int(_NEAR.p[20_000]), _WIDE, _X_TOP),
        # base just below 2p, so live hits come from offsets e - base near
        # -2p: down to -2^30, and to -2 * 10^9, near int32's least value
        (_MID, _NARROW - (1 << 20), _WIDE, _NARROW),
        (_NEAR, 2 * int(_NEAR.p[0]) - (1 << 20), _WIDE, _X_TOP),
    ],
)
def test_first_hits_match_python_ints(block, base, n, top):
    got = list(sieve._first_hits(block, base, n, top))
    assert all(i.dtype == np.int64 and p.dtype == np.int64 for i, p in got)
    pairs = sorted(
        zip(np.concatenate([i for i, _ in got]).tolist(), np.concatenate([p for _, p in got]).tolist())
    )
    want = _first_hits_reference(block, base, n, top)
    assert want and pairs == want


def test_mod_ascending_reduces_at_and_past_base():
    # m == base must take the remainder, 0, not base itself
    for dtype in (np.int32, np.int64):
        m = np.array([3, 5, 8, 10, 12, 40], dtype=dtype)
        for base in (0, 2, 7, 10, 11, 39, 40, 41, 1000):
            out = np.empty_like(m)
            sieve._mod_ascending(base, m, out)
            assert out.tolist() == [base % v for v in m.tolist()]


@pytest.fixture(scope="module")
def brute_a_3000():
    return oracle.brute_a(3000)


@settings(max_examples=150, deadline=None)
@given(
    # lo below 50 reaches the self-hit region lo < sqrt(hi), where some
    # candidate's own x^2 + 1 is an annotated prime; below width 10 every
    # chain hits the window at most once, wide windows slice the small primes
    lo=st.one_of(st.integers(1, 50), st.integers(1, 2999)),
    width=st.one_of(st.integers(1, 24), st.integers(1, 3000)),
    cuts=st.lists(st.integers(2, 2999), max_size=6),
    chunk=st.sampled_from([1, 3, 16, 1 << 14]),
    data=st.data(),
)
def test_a_segment_matches_brute_force(brute_a_3000, lo, width, cuts, chunk, data):
    hi = min(lo + width, 3001)
    reach = data.draw(st.integers(hi, 3001), label="reach")
    primes = sieve_segment_1mod4(1, reach, small_primes(60))
    root = annotate_roots(primes)
    edges = [1, *sorted({c for c in cuts if c < reach}), reach]
    blocks = []
    for b_lo, b_hi in zip(edges, edges[1:]):
        keep = (root.p >= b_lo) & (root.p < b_hi)
        blocks.append(PrimeRootBlock(lo=b_lo, hi=b_hi, p=root.p[keep], r=root.r[keep]))
    with mock.patch.object(sieve, "_CHUNK", chunk):
        got = sieve_a_segment(lo, hi, iter(blocks)).values.tolist()
    assert got == [a for a in brute_a_3000 if lo <= a < hi]


_S = 1 << 13  # the stride where _strike turns from slices to rounds


@settings(max_examples=150, deadline=None)
@given(
    size=st.one_of(
        st.sampled_from([0, 1, 2]), st.integers(0, 3 * _S), st.integers(2 * _S, 3 * _S)
    ),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_strike_matches_plain_clear(size, seed, data):
    # strides on both sides of _SLICE_BELOW, at or past the mask size, and
    # a fraction of it, so that chains of either class have several hits
    strides = data.draw(
        st.lists(
            st.one_of(
                st.integers(1, 40),
                st.integers(_S - 40, _S + 40),
                st.integers(1, 4 * _S),
                st.integers(1, 8).map(lambda k: max(size // k, 1)),
            ),
            max_size=24,
        )
    )
    # a start anywhere, at or past the end, or on the chain that ends at
    # the mask's last entry
    starts = [
        data.draw(
            st.one_of(
                st.integers(0, max(size - 1, 0)),
                st.integers(size, size + 2 * s),
                st.just((size - 1) % s if size else 0),
            )
        )
        for s in strides
    ]
    _check_strike(np.random.default_rng(seed).random(size) < 0.9, starts, strides)


def _check_strike(mask, starts, strides):
    """_strike against a plain-Python clear of the same chains."""
    want = mask.tolist()
    for i0, s in zip(starts, strides):
        for x in range(i0, mask.size, s):
            want[x] = False
    sieve._strike(mask, np.array(starts, dtype=np.int64), np.array(strides, dtype=np.int64))
    assert mask.tolist() == want


@pytest.mark.parametrize("size", [0, 1, 3 * _S])
def test_strike_edge_chains(size):
    # chains that end on the last entry, in both classes and with one hit,
    # a chain starting just past the end, and no chains at all
    for s in (2, _S - 1, _S, _S + 1, size // 2 + 1, size + 1):
        _check_strike(np.ones(size, dtype=bool), [(size - 1) % s if size else 0], [s])
    _check_strike(np.ones(size, dtype=bool), [size], [_S])
    _check_strike(np.ones(size, dtype=bool), [], [])


# -- pipeline ----------------------------------------------------------------


def test_pipeline_small_end_to_end(tmp_path):
    cfg = SieveConfig(bound_b=10**4, segment_len=1024)
    st = run_pipeline(cfg, tmp_path / "d")
    assert st.manifest.complete
    assert list(st.read_a_stream()) == A_BELOW_100
    prime_entries = st.manifest.entries_of(store.KIND_PRIME)
    a_entries = st.manifest.entries_of(store.KIND_A)
    assert len(prime_entries) == 1 and len(a_entries) == 1
    assert a_entries[0].count == 19


def test_pipeline_thread_count_does_not_change_bytes(tmp_path):
    cfg1 = SieveConfig(bound_b=10**8, segment_len=1024, thread_count=1)
    cfg4 = SieveConfig(bound_b=10**8, segment_len=1024, thread_count=4)
    st1 = run_pipeline(cfg1, tmp_path / "one")
    st4 = run_pipeline(cfg4, tmp_path / "four")
    files1 = {p.name: p.read_bytes() for p in st1.root.iterdir()}
    files4 = {p.name: p.read_bytes() for p in st4.root.iterdir()}
    assert files1 == files4


def test_pipeline_resume_completes_after_kill(tmp_path):
    cfg = SieveConfig(bound_b=10**8, segment_len=1024)

    class Kill(Exception):
        pass

    calls = []

    def killer(msg):
        calls.append(msg)
        if msg.startswith("commit"):
            raise Kill

    with pytest.raises(Kill):
        run_pipeline(cfg, tmp_path / "d", progress=killer)
    # manifest is consistent and the plan shrank by exactly one segment
    st = store.SegmentStore.open(tmp_path / "d")
    assert not st.manifest.complete
    full = len(store.prime_segment_ranges(10**8, 1024)) + len(
        store.a_segment_ranges(10**8, 1024)
    )
    assert len(st.resume_plan()) == full - 1

    st = run_pipeline(cfg, tmp_path / "d", resume=True)
    assert st.manifest.complete
    clean = run_pipeline(cfg, tmp_path / "clean")
    assert list(st.read_a_stream()) == list(clean.read_a_stream())


def test_pipeline_resume_rejects_geometry_change(tmp_path):
    run_pipeline(SieveConfig(bound_b=10**4, segment_len=1024), tmp_path / "d")
    with pytest.raises(ValueError):
        run_pipeline(
            SieveConfig(bound_b=10**4, segment_len=2048), tmp_path / "d", resume=True
        )


def test_sieve_prime_roots_tiles_candidate_space():
    blocks = list(sieve_prime_roots(store.prime_segment_ranges(10**8, 1024)))
    assert blocks[0].lo == 1
    assert blocks[-1].hi == store.x_limit(10**8)
    for a, b in zip(blocks, blocks[1:]):
        assert a.hi == b.lo


def _tiled(lo: int, width: int, count: int, last: int = 0) -> list:
    """count ranges of width from lo, the last one cut ``last`` short."""
    edges = [lo + k * width for k in range(count + 1)]
    edges[-1] -= last
    return list(zip(edges, edges[1:]))


_GROUPED = {  # name: ranges for sieve_prime_roots, each lo = 1 (mod 4)
    "2^10 from 1": _tiled(1, 1 << 10, 2600, last=3),
    "2^10 with gaps": [r for k, r in enumerate(_tiled(10**7 + 1, 1 << 10, 2600)) if k % 700 > 3],
    "2^18 from 1": _tiled(1, 1 << 18, 10, last=1000),
    "2^18 with gaps": [r for k, r in enumerate(_tiled(1, 1 << 18, 11)) if k not in (2, 7, 8)],
    "2^22": _tiled(10**8 + 1, 1 << 22, 3),
    "2^22 with a gap": _tiled(1, 1 << 22, 1) + _tiled(1 + (2 << 22), 1 << 22, 1, last=5),
    "store 10^12 at 2^10": store.prime_segment_ranges(10**12, 1 << 10),
    "mixed widths": _tiled(1, 1 << 10, 3) + _tiled(3073, 1 << 18, 2) + _tiled(527361, 1 << 22, 1),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(_GROUPED))
def test_grouped_sieve_yields_the_blocks_of_one_call_per_range(name, threads):
    # sieve_prime_roots sieves consecutive ranges in groups of 2^20 numbers
    # and over; the blocks must be those of one sieve and one annotation
    # per range, with gaps (as in a resume plan) and with threads
    ranges = _GROUPED[name]
    base = small_primes(isqrt(ranges[-1][1]) + 1)
    got = list(sieve_prime_roots(ranges, thread_count=threads))
    assert [(b.lo, b.hi) for b in got] == ranges
    for block, (lo, hi) in zip(got, ranges):
        want = annotate_roots(sieve_segment_1mod4(lo, hi, base), lo=lo, hi=hi)
        assert np.array_equal(block.p, want.p) and np.array_equal(block.r, want.r)
        assert block.p.dtype == np.int64 and block.r.dtype == np.int64


# -- fused pass -----------------------------------------------------------------

# x = r with r^2 + 1 = p prime survives its own chain; from p = 197 on, at
# segment_len 1024, p is in the class whose hits are generated on arrival
SELF_HITS = {2: 5, 4: 17, 6: 37, 10: 101, 14: 197, 16: 257, 20: 401, 26: 677, 36: 1297}


@pytest.fixture(scope="module")
def brute_a_1e5():
    return oracle.brute_a(10**5)


@pytest.mark.parametrize("segment_len", [1024, 2048, 4096])
def test_fused_pass_matches_oracle_and_window_sieve(tmp_path, segment_len, brute_a_1e5):
    for bound in (10**4, 10**7 + 1, 777_777_777, 10**10):
        cfg = SieveConfig(bound_b=bound, segment_len=segment_len)
        got = run_pipeline(cfg, tmp_path / str(bound)).read_a_stream()
        limit = store.x_limit(bound)
        want = [a for a in brute_a_1e5 if a < limit]
        assert list(got) == want, bound
        roots = sieve_prime_roots(store.prime_segment_ranges(bound, segment_len))
        window = sieve_a_segment(1, limit, roots)
        assert window.values.tolist() == want, bound
    assert want[0] == 1
    for x, p in SELF_HITS.items():
        assert x * x + 1 == p and x in want


def test_fused_pass_across_kernel_chunks(tmp_path, brute_a_1e5):
    # chunks of 5 pairs put chunk edges inside every prime block
    with mock.patch.object(sieve, "_CHUNK", 5):
        got = run_pipeline(SieveConfig(bound_b=10**8, segment_len=1024), tmp_path / "d")
    assert list(got.read_a_stream()) == [a for a in brute_a_1e5 if a < 10**4]


def test_fused_pass_strikes_medium_strides_in_rounds(tmp_path, brute_a_1e5):
    # at segment_len 2^17 emit finds the first hits of the primes below 2^14
    # in each segment anew, and _strike clears those of stride 2^13 and up in
    # rounds; x = 94 and x = 110 survive their own chains among them
    bound, segment_len = 10**12, 1 << 17
    runs = [
        run_pipeline(SieveConfig(bound, segment_len, thread_count=t), tmp_path / str(t))
        for t in (1, 2)
    ]
    assert _files(runs[0].root) == _files(runs[1].root)
    got = list(runs[0].read_a_stream())
    roots = sieve_prime_roots(store.prime_segment_ranges(bound, segment_len))
    assert got == sieve_a_segment(1, store.x_limit(bound), roots).values.tolist()
    assert got[: len(brute_a_1e5)] == brute_a_1e5
    for x, p in ((94, 8837), (110, 12101)):
        assert x * x + 1 == p and 1 << 13 <= p < segment_len // 8
        assert x in got


# SHA-256 of manifest.txt, which lists every segment's digest: a change to
# the strike that moves one byte of a store fails here
STORE_DIGESTS = {
    (10**10, 1 << 10): "6d79eb9e9f3a258184cec68fffe8079ee140fbdb3827eff3b5a8f166179d134e",
    (10**12, 1 << 17): "a27eda21fe96f0daa6936298ce76f53c1d06b4f8739d85ea0e0a513706049f34",
    (10**14, 1 << 12): "ba37abe152e8304d7f2a063c037523350d501f0546b65e173c28dde682e4b41a",
}


@pytest.mark.parametrize("bound, segment_len", sorted(STORE_DIGESTS))
def test_store_bytes_are_pinned(tmp_path, bound, segment_len):
    st = run_pipeline(SieveConfig(bound, segment_len), tmp_path / "d")
    manifest = (st.root / store.MANIFEST_NAME).read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == STORE_DIGESTS[bound, segment_len]


def test_fresh_pipeline_reads_no_prime_blocks(tmp_path, monkeypatch):
    reads = []
    for name in ("read_prime_blocks", "read_prime_block"):
        real = getattr(store.SegmentStore, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            reads.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(store.SegmentStore, name, counted)
    run_pipeline(SieveConfig(bound_b=10**9, segment_len=1024), tmp_path / "d")
    assert reads == []


def _files(root):
    return {p.name: p.read_bytes() for p in Path(root).iterdir()}


def test_pipeline_commit_order(tmp_path):
    # each prime block is followed by the A segments its coverage completes
    commits = []
    st = run_pipeline(
        SieveConfig(bound_b=10**8, segment_len=1024), tmp_path / "d", progress=commits.append
    )
    counts = {(e.kind, e.lo, e.hi): e.count for e in st.manifest.entries}
    order = [
        ("prime_root", 1, 4097),
        ("a_values", 1, 2048),
        ("a_values", 2048, 4096),
        ("prime_root", 4097, 8193),
        ("a_values", 4096, 6144),
        ("a_values", 6144, 8192),
        ("prime_root", 8193, 10000),
        ("a_values", 8192, 10000),
    ]
    assert sorted(order) == sorted(counts)
    assert commits == [
        f"commit {kind} [{lo},{hi}) count={counts[kind, lo, hi]}" for kind, lo, hi in order
    ] + ["complete"]


def test_resume_rewrites_corrupted_segments(tmp_path):
    cfg = SieveConfig(bound_b=10**9, segment_len=1024)
    clean = run_pipeline(cfg, tmp_path / "clean")
    work = tmp_path / "work"
    shutil.copytree(clean.root, work)
    a_entries = clean.manifest.entries_of(store.KIND_A)
    # the intact A segments 6-8 between the two corrupt ones are passed over
    broken = [clean.manifest.entries_of(store.KIND_PRIME)[1], a_entries[5], a_entries[9]]
    for entry in broken:
        path = work / entry.filename
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
    commits = []
    run_pipeline(cfg, work, resume=True, progress=commits.append)
    # the rewritten prime block 1 also feeds the strike of both A segments
    assert commits == [
        f"commit {e.kind} [{e.lo},{e.hi}) count={e.count}" for e in broken
    ] + ["complete"]
    assert _files(work) == _files(clean.root)


def test_resume_reads_the_intact_prime_blocks_up_to_the_last_pending_a(
    tmp_path, monkeypatch
):
    cfg = SieveConfig(bound_b=10**9, segment_len=1024)
    clean = run_pipeline(cfg, tmp_path / "clean")
    prime_entries = clean.manifest.entries_of(store.KIND_PRIME)
    a_entries = clean.manifest.entries_of(store.KIND_A)
    real = store.SegmentStore.read_prime_block
    reads = []

    def counted(self, lo, hi):
        reads.append(lo)
        return real(self, lo, hi)

    monkeypatch.setattr(store.SegmentStore, "read_prime_block", counted)
    seen = []
    for k, broken in enumerate(
        ([prime_entries[1]], [prime_entries[1], a_entries[5], a_entries[9]])
    ):
        work = tmp_path / f"work-{k}"
        shutil.copytree(clean.root, work)
        for entry in broken:
            path = work / entry.filename
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        reads.clear()
        run_pipeline(cfg, work, resume=True)
        assert _files(work) == _files(clean.root)
        seen.append(list(reads))
    # a damaged prime block alone feeds no strike; with A segments 5 and 9
    # pending, every intact block up to the one covering segment 9 is read
    assert seen == [[], [1, 8193, 12289, 16385]]


def test_fresh_run_deletes_stale_temp_files(tmp_path):
    cfg = SieveConfig(bound_b=10**8, segment_len=1024)
    clean = _files(run_pipeline(cfg, tmp_path / "clean").root)
    work = tmp_path / "work"
    work.mkdir()
    # what crashed writes of another geometry leave: temp files and segments
    for name in ("a_values-00009.bin.tmp", "prime_root-00001.bin.tmp", "a_values-00007.bin"):
        (work / name).write_bytes(b"stale")
    run_pipeline(cfg, work)
    assert _files(work) == clean


class _Kill(Exception):
    pass


@pytest.fixture(scope="module")
def clean_1e9(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean-1e9")
    run_pipeline(SieveConfig(bound_b=10**9, segment_len=1024), root)
    return _files(root)


@settings(max_examples=12, deadline=None)
@given(
    kills=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=3),
    threads=st.sampled_from([1, 2]),
)
def test_kill_and_resume_give_identical_bytes(clean_1e9, kills, threads):
    # bound 10^9 at segment_len 1024 commits 8 prime and 16 A segments
    cfg = SieveConfig(bound_b=10**9, segment_len=1024, thread_count=threads)
    with tempfile.TemporaryDirectory() as tmp:
        for i, kill_at in enumerate(kills):
            seen = []

            def killer(msg):
                seen.append(msg)
                if len(seen) > kill_at:
                    raise _Kill

            try:
                run_pipeline(cfg, tmp, resume=i > 0, progress=killer)
            except _Kill:
                pass
        run_pipeline(cfg, tmp, resume=True)
        assert _files(tmp) == clean_1e9


def test_a_crash_at_any_rename_resumes_to_identical_bytes(tmp_path, monkeypatch):
    # 10^8 at segment_len 1024 renames 18 times: the fresh manifest, then each
    # of 8 segments and the manifest naming it, then the complete manifest.
    # A crash at a rename leaves its .tmp file behind, and the resume runs in
    # this process, so a lock kept by the crashed run would refuse it.
    cfg = SieveConfig(bound_b=10**8, segment_len=1024, thread_count=1)
    real_replace = store.os.replace
    renames = []

    def crash_at(k):
        def replace(src, dst):
            renames.append(dst)
            if len(renames) == k:
                raise _Kill
            real_replace(src, dst)

        return replace

    with monkeypatch.context() as m:
        m.setattr(store.os, "replace", crash_at(0))
        clean = _files(run_pipeline(cfg, tmp_path / "clean").root)
    assert len(renames) == 18
    for k in range(1, 19):
        renames.clear()
        work = tmp_path / f"crash-{k}"
        with monkeypatch.context() as m:
            m.setattr(store.os, "replace", crash_at(k))
            with pytest.raises(_Kill):
                run_pipeline(cfg, work)
        run_pipeline(cfg, work, resume=True)
        assert _files(work) == clean, f"crash at rename {k}"
