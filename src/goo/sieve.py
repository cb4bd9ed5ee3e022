"""Segmented sieves for primes of the form x^2 + 1.

Three stages, each feeding the next:

1. ``small_primes``  -- classic sieve up to the fourth root of the bound.
2. ``sieve_segment_1mod4`` + ``annotate_roots`` -- segmented sieve over the
   residue class 1 mod 4 up to the square root of the bound, each surviving
   prime annotated with its canonical square root of -1.
3. ``sieve_a_segment`` -- sieve over candidates x themselves: x survives
   when x^2 + 1 has no prime factor below it, i.e. when x avoids both
   roots of -1 modulo every annotated prime p < x^2 + 1.

``run_pipeline`` drives all three against a ``SegmentStore``, segment by
segment, with restartable, byte-deterministic output.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .modarith import NoRootFoundError
from .records import ASegment, PrimeRootBlock
from .store import (
    KIND_A,
    KIND_PRIME,
    ManifestError,
    SegmentStore,
    prime_segment_ranges,
    x_limit,
)

MIN_BOUND = 100
MIN_SEGMENT_LEN = 1 << 10
MAX_BOUND = 10**18  # keeps every intermediate product inside int64

_ROOT_BASE_CAP = 1000


class InsufficientBasePrimesError(ValueError):
    """Base primes do not reach the square root of the segment end."""


class IncompleteRootStreamError(ValueError):
    """Prime-root blocks fail to cover [1, seg_hi) contiguously."""


@dataclass(frozen=True)
class SieveConfig:
    """Validated knobs for one sieve run."""

    bound_b: int
    segment_len: int = 1 << 20
    thread_count: int = 1

    def __post_init__(self):
        if self.bound_b < MIN_BOUND:
            raise ValueError(f"bound_b must be at least {MIN_BOUND}")
        if self.bound_b > MAX_BOUND:
            raise ValueError(f"bound_b above {MAX_BOUND:.0e} is not supported")
        if self.segment_len < MIN_SEGMENT_LEN:
            raise ValueError(f"segment_len must be at least {MIN_SEGMENT_LEN}")
        if self.segment_len**4 <= self.bound_b:
            raise ValueError(
                "segment_len must exceed the fourth root of bound_b"
            )
        if self.thread_count < 1:
            raise ValueError("thread_count must be positive")

    @property
    def candidate_limit(self) -> int:
        return x_limit(self.bound_b)


@dataclass
class SieveStats:
    """Work counters, mostly for the cost-model tests."""

    strikes: int = 0
    candidates: int = 0
    survivors: int = 0

    def merge(self, other: "SieveStats") -> None:
        self.strikes += other.strikes
        self.candidates += other.candidates
        self.survivors += other.survivors


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


def _has_prime_in(lo: int, hi: int, base_primes: np.ndarray) -> bool:
    """Trial-division scan for a prime in (lo, hi]."""
    divisors = base_primes.tolist()
    for n in range(lo + 1, hi + 1):
        for d in divisors:
            if d * d > n:
                return True
            if n % d == 0:
                break
        else:
            return True
    return False


def sieve_segment_1mod4(
    seg_lo: int, seg_hi: int, base_primes: np.ndarray
) -> np.ndarray:
    """Primes p = 1 (mod 4) in [seg_lo, seg_hi), ascending.

    seg_lo must itself be 1 mod 4. The base primes must cover every prime
    up to the square root of seg_hi - 1; if they fall short *and* a prime
    actually hides in the uncovered stretch, the segment would silently
    keep composites, so that case raises instead.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")
    if seg_lo % 4 != 1:
        raise ValueError("seg_lo must be congruent to 1 mod 4")
    if len(base_primes) == 0:
        raise InsufficientBasePrimesError("no base primes supplied")
    top = int(base_primes[-1])
    need = isqrt(seg_hi - 1)
    if top < need and _has_prime_in(top, need, base_primes):
        raise InsufficientBasePrimesError(
            f"base primes reach {top}, segment end needs {need}"
        )

    t_lo = (seg_lo - 1) // 4
    t_hi = (seg_hi + 2) // 4  # first t with 4t + 1 >= seg_hi
    mask = np.ones(t_hi - t_lo, dtype=bool)
    if t_lo == 0:
        mask[0] = False  # z = 1 is not prime
    for p in base_primes[1:].tolist():  # 2 never divides 4t + 1
        if p * p >= seg_hi:
            break
        m = max(p, -(-seg_lo // p))
        m += (p - m) % 4  # multiplier must be p mod 4 for z = 1 mod 4
        z = m * p
        if z >= seg_hi:
            continue
        mask[(z - 1) // 4 - t_lo :: p] = False
    return 4 * (t_lo + np.flatnonzero(mask).astype(np.int64)) + 1


def _vector_pow(base: int, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exp % mod elementwise; all moduli must stay below 2^31.5."""
    result = np.ones_like(mod)
    square = np.full_like(mod, base)
    np.mod(square, mod, out=square)
    e = exp.copy()
    while True:
        odd = (e & 1).astype(bool)
        if odd.any():
            result[odd] = result[odd] * square[odd] % mod[odd]
        e >>= 1
        if not e.any():
            return result
        square = square * square % mod


def annotate_roots(
    primes: np.ndarray,
    *,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    base_cap: int = _ROOT_BASE_CAP,
) -> PrimeRootBlock:
    """Attach the canonical square root of -1 to each prime = 1 mod 4.

    Roots come from raising small bases to the (p-1)/4 power; a base works
    for about half the primes, so a handful of rounds clears the block.
    Order is preserved and nothing else about the input is assumed.
    """
    p = np.asarray(primes, dtype=np.int64)
    r = np.zeros_like(p)
    exp = (p - 1) >> 2
    pending = np.arange(p.size)
    for base in small_primes(base_cap).tolist():
        if pending.size == 0:
            break
        t = _vector_pow(base, exp[pending], p[pending])
        ok = t * t % p[pending] == p[pending] - 1
        hit = pending[ok]
        r[hit] = np.minimum(t[ok], p[hit] - t[ok])
        pending = pending[~ok]
    if pending.size:
        raise NoRootFoundError(
            f"no base below {base_cap} yields a root of -1 mod "
            f"{int(p[pending[0]])}; composite input or corrupt stream?"
        )
    return PrimeRootBlock(lo=lo, hi=hi, p=p, r=r)


def sieve_a_segment(
    seg_lo: int,
    seg_hi: int,
    prime_root_blocks: Iterable[PrimeRootBlock],
    stats: Optional[SieveStats] = None,
) -> ASegment:
    """Members of A in [seg_lo, seg_hi) given annotated primes below seg_hi.

    Candidates are x = 1 plus the even x in range (odd x > 1 give even
    x^2 + 1). For each annotated prime p, both residues r and p - r are
    struck along their even representatives with stride 2p. A candidate x
    whose own value x^2 + 1 equals p is the one legitimate survivor on its
    strike chain, so that first hit is skipped.

    The blocks must tile [1, seg_hi) or beyond without holes, starting at 1;
    anything less raises IncompleteRootStreamError.
    """
    if seg_lo < 1 or seg_lo >= seg_hi:
        raise ValueError("need 1 <= seg_lo < seg_hi")

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
            _strike_block(mask, base, n_idx, block, seg_hi, stats)
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


def _strike_block(
    mask: np.ndarray,
    base: int,
    n_idx: int,
    block: PrimeRootBlock,
    seg_hi: int,
    stats: Optional[SieveStats],
) -> None:
    keep = block.p < seg_hi
    p = block.p[keep]
    r = block.r[keep]
    if p.size == 0:
        return
    # even representatives of the two residue classes +-r mod p
    e_lo = np.where(r & 1, r + p, r)
    mate = p - r
    e_hi = np.where(mate & 1, mate + p, mate)
    ee = np.concatenate((e_lo, e_hi))
    pp = np.concatenate((p, p))
    # self-hit guard: x = r with r^2 + 1 = p must survive its own chain
    own = np.zeros(2 * p.size, dtype=bool)
    own[: p.size] = r * r + 1 == p

    two_p = 2 * pp
    k = (base - ee + two_p - 1) // two_p
    np.maximum(k, 0, out=k)
    first = ee + two_p * k
    bump = own & (first == np.concatenate((r, r)))
    first[bump] += two_p[bump]

    idx = (first - base) >> 1
    live = idx < n_idx
    idx = idx[live]
    step = pp[live]
    if stats is not None:
        stats.strikes += int(np.sum((n_idx - idx + step - 1) // step))

    multi = idx + step < n_idx
    mask[idx[~multi]] = False
    for i0, st in zip(idx[multi].tolist(), step[multi].tolist()):
        mask[i0::st] = False


def iter_prime_root_blocks(
    config: SieveConfig, *, block_len: Optional[int] = None
) -> Iterator[PrimeRootBlock]:
    """Compute annotated prime-root blocks in memory, tiling [1, x_limit).

    Convenience for store-free use (tests, one-shot scans); the pipeline
    itself persists blocks through a SegmentStore instead.
    """
    seg = block_len if block_len is not None else config.segment_len
    base_primes = _base_primes_for(config.bound_b)
    for lo, hi in prime_segment_ranges(config.bound_b, seg):
        primes = sieve_segment_1mod4(lo, hi, base_primes)
        yield annotate_roots(primes, lo=lo, hi=hi)


def _base_primes_for(bound_b: int) -> np.ndarray:
    # covers sqrt(x_limit^2) = fourth root of the bound, with headroom
    return small_primes(max(isqrt(x_limit(bound_b) - 1) + 1, 3))


def run_pipeline(
    config: SieveConfig,
    data_dir,
    *,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SegmentStore:
    """Sieve everything below the bound into ``data_dir`` and finalize.

    Two phases: all prime-root segments, then all A segments (each A
    segment re-reads the annotated primes it needs from the store). Output
    bytes depend only on (bound_b, segment_len), not on thread count or
    interruption history. With ``resume=True`` an existing manifest is
    honored and only missing or corrupt segments are recomputed.
    """

    def tell(msg: str) -> None:
        if progress is not None:
            progress(msg)

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
                raise ValueError(
                    "resume geometry mismatch: store has "
                    f"bound_b={store.manifest.bound_b} "
                    f"segment_len={store.manifest.segment_len}"
                )
            store.manifest.status = "in_progress"
        plan = store.resume_plan()
    else:
        store = SegmentStore.create(data_dir, config.bound_b, config.segment_len)
        plan = store.resume_plan()

    prime_work = [(lo, hi) for kind, lo, hi in plan if kind == KIND_PRIME]
    a_work = [(lo, hi) for kind, lo, hi in plan if kind == KIND_A]
    base_primes = _base_primes_for(config.bound_b) if prime_work else None

    def prime_job(rng):
        lo, hi = rng
        primes = sieve_segment_1mod4(lo, hi, base_primes)
        return annotate_roots(primes, lo=lo, hi=hi)

    def a_job(rng):
        lo, hi = rng
        return sieve_a_segment(lo, hi, store.read_prime_blocks(upto=hi))

    for kind, work, job, write in (
        (KIND_PRIME, prime_work, prime_job, store.write_prime_segment),
        (KIND_A, a_work, a_job, store.write_a_segment),
    ):
        for result in _ordered_map(job, work, config.thread_count):
            entry = write(result)
            tell(
                f"commit {kind} [{entry.lo},{entry.hi}) count={entry.count}"
            )

    store.finalize()
    tell("complete")
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
