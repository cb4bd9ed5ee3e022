"""Batch verifier for the additive decomposition property of A.

For each member a_n (n >= 2) find the least back-offset j such that
a_n - a_{n-j} is itself a member. The conjecture under test says such a j
always exists; a member with no decomposition at all is a counterexample
and is reported loudly, never papered over.

The stream is read in chunks of at most ``CHUNK`` values by
``store.int64_chunks``: a store's ``read_a_stream()`` is cut from its
decoded segment arrays with no per-member Python step, and any other
iterable of ints is read into int64 arrays. The stream must be A-shaped:
an odd x > 1 is never a member, since x^2 + 1 is even, so it is refused
and every value kept is a member. Membership lives in a packed bitset
over even values (bit i stands for 2i, and bit 0 for the member 1). It
spans every value below ``MAX_X_LIMIT``, but only the pages holding set
bits become resident: last_member / 16 bytes, 6.25 MB at 10^16 and 62.5
MB at 10^18. A chunk's bits are set first, by OR-ing one packed copy of
the bytes its members span. Every difference is below its own a_n, so
the chunk's later members cannot answer for earlier ones.

The chunk's members sit contiguously after the carried tail, so for each
of the first ``SLICED`` offsets k, a_n - a_{n-k} for all of them is one
slice subtraction, with no gather. A difference below ``TABLE`` is read
from a bool table over d, built from the bitset's first bytes while the
stream is still below TABLE; a larger one from the bitset. The rest go on
offset by offset: for k = SLICED + 1, ... every member still unresolved
tests a_n - a_{n-k} at once, and is picked by an index array. Once at
most ``BLOCK`` members are left, their next BLOCK offsets are tested as
one 2-D block of differences, block after block. The last ``TAIL``
members carry over to the next chunk; a member whose j lies beyond them
walks the bitset downward, which is the whole member set, so no store is
read.

``VerifierState`` and ``j_of`` are the scalar form of the same rule, one
member at a time, kept as the reference the batch path is tested against.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

import numpy as np

from .analytics import DEFAULT_HL_CONSTANT, format_columns
from .store import MAX_BOUND, MAX_X_LIMIT, SegmentStore, int64_chunks

CHUNK = 1 << 15  # stream values resolved per numpy pass
TAIL = 256  # members carried across chunks; larger j walks the bitset
SLICED = 3  # offsets tested for every member of a chunk, as slices of it
BLOCK = 64  # at most this many members left: their next BLOCK offsets at once
TABLE = 1 << 16  # differences below this are read from a bool table
PROGRESS_EVERY = 1_000_000  # members between two progress lines


class CounterexampleFound(Exception):
    """A member admits no decomposition a_n = a_i + (member)."""

    def __init__(self, n: int, a_n: int):
        self.n = n
        self.a_n = a_n
        super().__init__(
            f"member #{n} = {a_n} has no i < n with a_n - a_i in the set"
        )


class ChampionRecord(NamedTuple):
    """(n, a_n, j) for a new record value of j."""

    n: int
    a_n: int
    j: int


def _check_next(a: int, last: int) -> None:
    """Refuse a value that does not ascend, that no supported run holds, or
    that is odd and not 1, since x^2 + 1 is even for every odd x > 1."""
    if a <= last:
        raise ValueError(f"stream must strictly ascend, got {a} after {last}")
    if a >= MAX_X_LIMIT:
        raise ValueError(
            f"value {a} is not below {MAX_X_LIMIT}, the x limit of the "
            f"largest supported bound {MAX_BOUND:.0e}"
        )
    if a & 1 and a != 1:
        raise ValueError(f"odd value {a} is not in A: {a}^2 + 1 is even")


def _is_member(bits, d: int) -> bool:
    """Is d >= 1 set in the bitset (bit i: member 2i; bit 0: member 1)?"""
    if d & 1 and d != 1:
        return False
    i = d >> 1
    return (i >> 3) < len(bits) and bool(bits[i >> 3] >> (i & 7) & 1)


def _members_below(bits, below: int) -> Iterator[int]:
    """The members set in the bitset under ``below``, descending."""
    for i in range((below - 1) >> 1, 0, -1):
        if bits[i >> 3] >> (i & 7) & 1:
            yield 2 * i
    if below > 1 and bits[0] & 1:
        yield 1


class VerifierState:
    """Scalar reference: the members pushed so far, as a bitset.

    One member at a time, with the bitset layout and the member rule of
    ``verify_stream``; ``j_of`` walks the bitset downward, so there is no
    window and no store.
    """

    def __init__(self):
        self.count = 0
        self.last = 0
        self.bits = bytearray()
        self.max_j = 1  # start above the vacuous j=1 so it never "wins"
        self.champions: list = []
        self.j_histogram: Counter = Counter()

    def push(self, a: int) -> None:
        _check_next(a, self.last)
        self.last = a
        self.count += 1
        need = (a >> 4) + 1
        if need > len(self.bits):
            self.bits.extend(bytes(need - len(self.bits)))
        i = a >> 1
        self.bits[i >> 3] |= 1 << (i & 7)

    def record(self, a: int, j: int) -> None:
        n = self.count + 1  # index this member will have once pushed
        self.j_histogram[j] += 1
        if j > self.max_j:
            self.max_j = j
            self.champions.append(ChampionRecord(n, a, j))


def j_of(state: VerifierState, value: int) -> int:
    """Least j >= 1 with value - (j-th most recent member) a member.

    ``value`` is the next member, not yet pushed. Raises
    CounterexampleFound when no earlier member decomposes it.
    """
    _check_next(value, state.last)
    for j, m in enumerate(_members_below(state.bits, state.last + 1), start=1):
        if _is_member(state.bits, value - m):
            return j
    raise CounterexampleFound(state.count + 1, value)


def _members_of(bits: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``_is_member`` over an array of differences, each below 16 * bits.size."""
    i = d >> 1
    found = (bits[i >> 3] >> (i & 7)) & 1 == 1
    return found & (((d & 1) == 0) | (d == 1))


def _small_members(bits: np.ndarray) -> np.ndarray:
    """Bool table over d < TABLE: member 1 at 1, bit i at 2i, odd d > 1 False."""
    table = np.zeros(TABLE, bool)
    table[::2] = np.unpackbits(bits[: TABLE >> 4], bitorder="little")
    table[1] = table[0]
    return table


def _hits(bits: np.ndarray, table: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``_members_of`` for differences d >= 1: the table below TABLE, the
    bitset from there on (d clipped to TABLE - 1, odd, reads False first)."""
    if d.max() < TABLE:
        return table[d]
    hit = table[np.minimum(d, TABLE - 1)]
    big = np.flatnonzero(d >= TABLE)
    hit[big] = _members_of(bits, d[big])
    return hit


def _mark(bits: np.ndarray, i: np.ndarray) -> None:
    """Set the ascending bit indices i. A dense run ORs in one packed copy
    of the bytes it spans; a run sparser than one bit per four bytes, which
    no stored segment is, sets its bits one by one and allocates no span."""
    lo = int(i[0]) >> 3
    span = (int(i[-1]) >> 3) - lo + 1
    if span > 4 * i.size:
        np.bitwise_or.at(bits, i >> 3, (1 << (i & 7)).astype(np.uint8))
        return
    run = np.zeros(8 * span, bool)
    run[i - 8 * lo] = True
    bits[lo : lo + span] |= np.packbits(run, bitorder="little")


def _offset_chunks(values: Iterable[int]) -> Iterator[tuple]:
    """(values, j) per chunk of the stream, from its second member on.

    j[i] is the least offset of values[i], or 0 where no earlier member
    decomposes it. A value that does not ascend, is out of range, or is
    odd and not 1 raises ValueError, after the chunk's values before it
    have been yielded, so the consumer sees every error in stream order.
    Every value kept is therefore a member.
    """
    # One zeroed allocation for every value below MAX_X_LIMIT: 62.5 MB of
    # address space, of which only the pages holding set bits, about
    # last / 16 bytes, ever become resident. It never grows, so it is never
    # copied and leaves no freed blocks behind in the heap.
    bits = np.zeros((MAX_X_LIMIT >> 4) + 1, np.uint8)
    table = None
    tail = np.zeros(0, np.int64)
    last = 0
    for chunk in int64_chunks(values, CHUNK):
        if not last and chunk[0] != 1:
            raise ValueError(f"stream must start at the first member 1, got {chunk[0]}")
        before = np.concatenate(([last], chunk[:-1]))
        odd = ((chunk & 1) == 1) & (chunk != 1)
        bad = np.flatnonzero((chunk <= before) | (chunk >= MAX_X_LIMIT) | odd)
        stop = int(bad[0]) if bad.size else chunk.size
        vals = chunk[:stop]
        if vals.size:
            _mark(bits, vals >> 1)
            if vals[0] < TABLE:  # this chunk may set bits the table reads
                table = _small_members(bits)

            # known: the carried tail, then this chunk's members, so member
            # q of the chunk sits at known[t + q] and a_n - a_{n-k} for all
            # of them is one slice subtraction. miss: no offset tested yet
            # decomposes the member; jm: 1 + the rounds it missed, which is
            # its least offset once it hits
            t = tail.size
            known = np.concatenate((tail, vals))
            miss = np.ones(vals.size, bool)
            jm = np.ones(vals.size, np.uint8)
            for k in range(1, SLICED + 1):
                s = max(0, k - t)  # members with fewer than k below them
                if s < vals.size:
                    d = vals[s:] - known[t - k + s : t - k + vals.size]
                    miss[s:] &= ~_hits(bits, table, d)
                jm += miss
            jm *= ~miss
            j = jm.astype(np.int64)

            # the rest offset by offset, then, once at most BLOCK are left,
            # BLOCK offsets at a time. p: the positions in known of the
            # members still to do, which is how many known members lie
            # below each of them
            first = 0 if last else 1  # member #1 has no offset
            p = t + first + np.flatnonzero(j[first:] == 0)
            k = SLICED + 1
            walk = []
            while p.size:
                gone = int(np.searchsorted(p, k))  # p ascends
                if gone:
                    walk.extend(p[:gone].tolist())
                    p = p[gone:]
                    if not p.size:
                        break
                if p.size > BLOCK:
                    hit = _hits(bits, table, known[p] - known[p - k])
                    j[p[np.flatnonzero(hit)] - t] = k
                    left = np.flatnonzero(~hit)
                    k += 1
                else:
                    # offsets k .. k + BLOCK - 1 at once. Every p >= k, so an
                    # offset past p reads known[0] again, as offset p does
                    at = np.maximum(p[:, None] - np.arange(k, k + BLOCK), 0)
                    d = known[p, None] - known[at]
                    hit = _hits(bits, table, d.ravel()).reshape(at.shape)
                    row = hit.any(1)
                    got = np.flatnonzero(row)
                    j[p[got] - t] = k + hit[got].argmax(1)
                    left = np.flatnonzero(~row)
                    k += BLOCK
                p = p[left]
            oldest = int(known[0])
            for q in walk:
                a = int(known[q])
                for off, m in enumerate(_members_below(bits, oldest), start=q + 1):
                    if _is_member(bits, a - m):
                        j[q - t] = off
                        break
            tail = known[-TAIL:].copy()
            last = int(vals[-1])
            if vals.size > first:
                yield vals[first:], j[first:]
        if bad.size:
            _check_next(int(chunk[stop]), int(before[stop]))
    if not last:
        raise ValueError("empty stream")


@dataclass
class VerificationReport:
    members: int
    verified: int
    last_member: int
    max_j: int
    champions: list
    j_histogram: dict

    def summary(self) -> str:
        lines = [
            f"members seen:      {self.members}",
            f"decompositions:    {self.verified}",
            f"largest member:    {self.last_member}",
            f"largest offset j:  {self.max_j}",
            f"champions:         {len(self.champions)}",
        ]
        return "\n".join(lines)


def verify_stream(
    values: Iterable[int],
    *,
    store: Optional[SegmentStore] = None,
    progress=None,
) -> VerificationReport:
    """Check every member of an ascending complete stream of A.

    ``values`` is a store's ``read_a_stream()``, whose segment arrays are
    taken whole, or any iterable of ints. The stream must start at 1 and
    contain every member up to its end; the decomposition search is only
    meaningful against the full prefix.
    Raises CounterexampleFound if some member has no decomposition, and
    ValueError for an empty stream, a first value other than 1, or a value
    that does not ascend, reaches ``MAX_X_LIMIT`` or is odd and not 1 (so
    not in A); whichever comes first in the stream wins, except that a
    value beyond int64 fails the whole chunk that holds it. ``store`` is
    accepted and not read: the bitset holds every member the search can
    need. ``progress``, when given, is called with a line every
    ``PROGRESS_EVERY`` members.
    """
    count = last = max_j = 1
    champions: list = []
    hist: Counter = Counter()
    for vals, j in _offset_chunks(values):
        missing = np.flatnonzero(j == 0)
        done = int(missing[0]) if missing.size else j.size
        if progress is not None:
            step = PROGRESS_EVERY
            for n in range(count - count % step + step, count + done + 1, step):
                progress(f"verified through member #{n} = {vals[n - count - 1]}")
        if missing.size:
            raise CounterexampleFound(count + done + 1, int(vals[done]))
        if j.max() > max_j:
            record = np.maximum.accumulate(np.concatenate(([max_j], j)))
            for i in np.flatnonzero(j > record[:-1]).tolist():
                champions.append(ChampionRecord(count + i + 1, int(vals[i]), int(j[i])))
            max_j = int(record[-1])
        hist.update(dict(enumerate(np.bincount(j).tolist())))
        count += j.size
        last = int(vals[-1])
    hist = {k: n for k, n in sorted(hist.items()) if n}
    return VerificationReport(
        members=count,
        verified=count - 1,
        last_member=last,
        max_j=max(hist) if hist else 0,
        champions=champions,
        j_histogram=hist,
    )


def write_champions_csv(champions: Iterable[ChampionRecord], out: TextIO) -> None:
    out.write("n,a_n,j\n")
    for c in champions:
        out.write(f"{c.n},{c.a_n},{c.j}\n")


@dataclass(frozen=True)
class ChampionTableRow:
    n: int
    a_n: int
    expected_a_n: int
    j: int
    j_over_log_n: float


def champion_table(champions: Iterable[ChampionRecord]) -> list:
    """Annotate champions with the density-model prediction for a_n.

    The model says the n-th member sits near (2/C) * n * log2(2n / C)
    where C is ``DEFAULT_HL_CONSTANT``, the Hardy-Littlewood constant for
    this prime family; the last column compares the record offset j
    against log n.
    """
    rows = []
    c_q = DEFAULT_HL_CONSTANT
    for c in champions:
        expected = round((2.0 / c_q) * c.n * math.log2(2.0 * c.n / c_q))
        rows.append(
            ChampionTableRow(
                n=c.n,
                a_n=c.a_n,
                expected_a_n=int(expected),
                j=c.j,
                j_over_log_n=round(c.j / math.log(c.n), 2),
            )
        )
    return rows


def format_champion_table(rows: Iterable[ChampionTableRow]) -> str:
    return format_columns(
        ("n", "a_n", "model a_n", "j", "j/log n"),
        [
            (str(r.n), str(r.a_n), str(r.expected_a_n), str(r.j), f"{r.j_over_log_n:.2f}")
            for r in rows
        ],
    )
