"""On-disk segment store: binary segment formats, manifest, resume planning.

Layout of a run directory:

    manifest.txt            line-oriented index, rewritten atomically
    prime_root-00000.bin    fixed-width (p, r) pair segments
    a_values-00000.bin      delta-compressed ascending integer segments

Both segment kinds tile [1, R) where R is derived from the run's bound via
``x_limit``. Readers walk that tiling, not the manifest's, and every read
passes ``SegmentStore._read``: a range listed never or more than once raises
``GapError``, and a missing file, a SHA-256 mismatch or a header naming
another range or count (a line pointing at another range's file) raises
``CorruptSegmentError``. ``SegmentStore.account`` walks the whole tiling
through that check, and ``SegmentStore.count_a`` up to a count's last threshold.
"""

import hashlib
import os
import re
import struct
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from .records import ASegment, PrimeRootBlock

MANIFEST_NAME = "manifest.txt"
MANIFEST_VERSION = 1
SEGMENT_VERSION = 1

PRIME_MAGIC = b"GOOP"
A_MAGIC = b"GOOA"

KIND_PRIME = "prime_root"
KIND_A = "a_values"

_HEADER = struct.Struct("<4sBQQQ")  # magic, version, lo, hi, count
_U64 = struct.Struct("<Q")

_FILENAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class StoreError(Exception):
    """Base class for storage failures."""


class ManifestError(StoreError):
    """Missing or unparseable manifest."""


class VersionMismatchError(StoreError):
    """Format version newer than this code understands."""


class CorruptSegmentError(StoreError):
    """Digest mismatch or undecodable segment bytes."""


class GapError(StoreError):
    """A range of the run's tiling has no line, or more than one, in the manifest."""


# ---------------------------------------------------------------------------
# geometry

MIN_BOUND = 100
MAX_BOUND = 10**18  # keeps every intermediate product inside int64
MIN_SEGMENT_LEN = 1 << 10


def check_geometry(bound_b: int, segment_len: int) -> None:
    """Refuse a run geometry this package does not support, with ValueError.

    Every (bound_b, segment_len) that ``SieveConfig`` takes,
    ``SegmentStore.create`` writes or a manifest declares passes here first,
    so the range tilings below stay small and every value they reach stays
    inside int64.
    """
    if bound_b < MIN_BOUND:
        raise ValueError(f"bound_b must be at least {MIN_BOUND}")
    if bound_b > MAX_BOUND:
        raise ValueError(f"bound_b above {MAX_BOUND:.0e} is not supported")
    if segment_len < MIN_SEGMENT_LEN:
        raise ValueError(f"segment_len must be at least {MIN_SEGMENT_LEN}")
    if segment_len**4 <= bound_b:
        raise ValueError("segment_len must exceed the fourth root of bound_b")


def x_limit(bound_b: int) -> int:
    """Smallest x whose square-plus-one reaches the bound.

    Candidates are 1 <= x < x_limit; x_limit is the first x with
    x^2 + 1 >= bound_b, so every stored value v satisfies v^2 + 1 < bound_b.
    """
    if bound_b < 3:
        raise ValueError("bound must be at least 3")
    return isqrt(bound_b - 2) + 1


MAX_X_LIMIT = x_limit(MAX_BOUND)  # 10^9: every candidate of every supported run is below


def _tiling(limit: int, first_hi: int, span: int) -> list:
    """Ranges [lo, hi) tiling [1, limit): the first ends at first_hi (or
    limit), each later one is span long, and the last ends at limit."""
    edges = [1, *range(first_hi, limit, span), limit]
    return list(zip(edges, edges[1:]))


def prime_segment_ranges(bound_b: int, segment_len: int) -> list:
    """Ranges [lo, hi) for the prime-root segments, tiling [1, x_limit).

    Boundaries sit at 1 mod 4 so each full segment holds exactly
    segment_len candidates of the form 4t + 1.
    """
    return _tiling(x_limit(bound_b), 1 + 4 * segment_len, 4 * segment_len)


def a_segment_ranges(bound_b: int, segment_len: int) -> list:
    """Ranges [lo, hi) for the A-value segments, tiling [1, x_limit).

    Each full segment spans 2 * segment_len integers: segment_len even
    candidates, plus the lone odd candidate x = 1 in the first segment.
    """
    return _tiling(x_limit(bound_b), 2 * segment_len, 2 * segment_len)


# ---------------------------------------------------------------------------
# segment codecs


def encode_prime_segment(block: PrimeRootBlock) -> bytes:
    if block.lo is None or block.hi is None:
        raise ValueError("block range must be set before encoding")
    count = len(block)
    head = _HEADER.pack(PRIME_MAGIC, SEGMENT_VERSION, block.lo, block.hi, count)
    pairs = np.empty(2 * count, dtype="<u8")
    pairs[0::2] = block.p
    pairs[1::2] = block.r
    return b"".join((head, memoryview(pairs)))  # one copy of the pairs


def _header(data: bytes, magic: bytes, what: str) -> tuple:
    """(lo, hi, count) from the header of a ``what`` segment whose magic
    must be ``magic``; a short, foreign or newer segment raises."""
    if len(data) < _HEADER.size:
        raise CorruptSegmentError(f"{what} segment shorter than header")
    found, version, lo, hi, count = _HEADER.unpack_from(data)
    if found != magic:
        raise CorruptSegmentError(f"bad magic {found!r}")
    if version != SEGMENT_VERSION:
        raise VersionMismatchError(f"{what} segment version {version}")
    return lo, hi, count


def decode_prime_segment(data: bytes) -> PrimeRootBlock:
    lo, hi, count = _header(data, PRIME_MAGIC, "prime")
    if len(data) != _HEADER.size + 16 * count:
        raise CorruptSegmentError(
            f"prime segment length {len(data)} does not match count {count}"
        )
    pairs = np.frombuffer(data, dtype="<u8", offset=_HEADER.size)
    p = pairs[0::2].astype(np.int64)
    r = pairs[1::2].astype(np.int64)
    if count:
        if p[0] < lo or p[-1] >= hi:
            raise CorruptSegmentError("prime outside declared range")
        if np.any(np.diff(p) <= 0):
            raise CorruptSegmentError("primes not strictly ascending")
        if p[-1] >= MAX_X_LIMIT:
            raise CorruptSegmentError("prime beyond every supported run")
        # the canonical root: 1 <= r <= (p - 1) / 2, so r * r < 2^60
        if np.any((r < 1) | (2 * r >= p)):
            raise CorruptSegmentError("root outside [1, (p - 1) / 2]")
        if np.any((r * r + 1) % p):
            raise CorruptSegmentError("root is not a square root of -1 mod p")
    return PrimeRootBlock(lo=lo, hi=hi, p=p, r=r)


def _encode_deltas(deltas: np.ndarray) -> bytes:
    """LEB128 varints: 7 payload bits per byte, high bit = continue.

    A delta takes one byte plus one per threshold 2^7, 2^14, ..., 2^56 it
    reaches, so up to nine; byte k of every varint longer than k is then
    written in one pass, from the least significant 7 bits up.
    """
    if int(deltas.min(initial=1)) <= 0:
        raise ValueError("deltas must be positive")
    nbytes = np.ones(deltas.size, dtype=np.int64)
    for k in range(1, (int(deltas.max(initial=1)).bit_length() + 6) // 7):
        nbytes += deltas >> 7 * k != 0
    buf = np.empty(int(nbytes.sum()), dtype=np.uint8)
    at = np.cumsum(nbytes) - nbytes
    while at.size:
        more = nbytes > 1
        buf[at] = (deltas & 0x7F) | more * 0x80
        at, deltas, nbytes = at[more] + 1, deltas[more] >> 7, nbytes[more] - 1
    return buf.tobytes()


def _decode_deltas(payload: bytes, out: np.ndarray) -> None:
    """Inverse of ``_encode_deltas``, written into ``out``, whose size is
    the number of deltas the segment declares.

    A byte below 0x80 ends a varint, so those bytes in order are the
    one-byte deltas and the top 7 bits of the longer ones; with no
    continuation byte they are the deltas as they stand. Otherwise the
    continuation bytes are folded into their varints in ``out``. A zero
    delta is refused: on the bytes in the first case, on the folded values
    in the second.
    """
    buf = np.frombuffer(payload, dtype=np.uint8)
    if buf.size == 0:
        if out.size:
            raise CorruptSegmentError("varint payload missing")
        return
    if buf[-1] >= 0x80:
        raise CorruptSegmentError("truncated varint at end of segment")
    more = buf >= 0x80
    cont = np.flatnonzero(more)
    if buf.size - cont.size != out.size:
        raise CorruptSegmentError(
            f"expected {out.size} deltas, payload holds {buf.size - cont.size}"
        )
    if not cont.size:
        if not buf.all():
            raise CorruptSegmentError("zero delta: values must strictly ascend")
        out[:] = buf
        return
    out[:] = buf[~more]
    # a continuation byte belongs to the varint counted by the final
    # bytes before it; runs of one owner are one multi-byte varint
    owner = cont - np.arange(cont.size)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    width = np.diff(first, append=cont.size)  # continuation bytes per varint
    if width.max() > 8:
        raise CorruptSegmentError("varint longer than 9 bytes")
    shift = 7 * (cont - np.repeat(cont[first], width))
    low = np.add.reduceat((buf[cont] & 0x7F).astype(np.int64) << shift, first)
    multi = owner[first]
    out[multi] = (out[multi] << 7 * width) | low
    if not out.all():
        raise CorruptSegmentError("zero delta: values must strictly ascend")


def encode_a_segment(segment: ASegment) -> bytes:
    count = len(segment)
    head = _HEADER.pack(A_MAGIC, SEGMENT_VERSION, segment.lo, segment.hi, count)
    if count == 0:
        return head
    values = np.asarray(segment.values, dtype=np.int64)
    return head + _U64.pack(int(values[0])) + _encode_deltas(np.diff(values))


def decode_a_segment(data: bytes) -> ASegment:
    lo, hi, count = _header(data, A_MAGIC, "a-value")
    if count == 0:
        if len(data) != _HEADER.size:
            raise CorruptSegmentError("empty segment carries payload")
        return ASegment(lo=lo, hi=hi, values=np.zeros(0, dtype=np.int64))
    if len(data) < _HEADER.size + _U64.size:
        raise CorruptSegmentError("missing first value")
    (first,) = _U64.unpack_from(data, _HEADER.size)
    if first >= 1 << 63:
        raise CorruptSegmentError("first value overflows int64")
    values = np.empty(count, dtype=np.int64)
    values[0] = first
    _decode_deltas(data[_HEADER.size + _U64.size :], values[1:])
    np.cumsum(values, out=values)
    # first and each delta are below 2^63, so a running sum that passes
    # int64 wraps negative where it first does, and the least value shows it
    if values.min() < lo or values[-1] >= hi:
        raise CorruptSegmentError("value outside declared range")
    return ASegment(lo=lo, hi=hi, values=values)


@dataclass(frozen=True)
class AStream:
    """The A values of one store, as ``read_a_stream`` returns them."""

    store: "SegmentStore"

    def arrays(self) -> Iterator[np.ndarray]:
        for segment in self.store.read_a_segments():
            yield segment.values

    def __iter__(self) -> Iterator[int]:
        for values in self.arrays():
            yield from values.tolist()


def int64_chunks(values: Iterable[int], size: int) -> Iterator[np.ndarray]:
    """The values in order as int64 arrays of at most ``size`` each.

    An ``AStream`` is cut from its segment arrays, with no per-value step;
    any other iterable is read ``size`` values at a time, and a value
    outside int64 raises ValueError.
    """
    if isinstance(values, AStream):
        for array in values.arrays():
            for i in range(0, array.size, size):
                yield array[i : i + size]
        return
    it = iter(values)
    while True:
        try:
            chunk = np.fromiter(islice(it, size), np.int64)
        except OverflowError:
            raise ValueError("stream values must be below 2^63") from None
        if not chunk.size:
            return
        yield chunk


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ManifestEntry:
    kind: str
    lo: int
    hi: int
    count: int
    digest: str
    filename: str


@dataclass
class RunManifest:
    bound_b: int
    segment_len: int
    status: str  # "in_progress" | "complete"
    entries: list

    def entries_of(self, kind: str) -> list:
        """The entries of one kind, ascending by lo: the manifest's one order."""
        return sorted((e for e in self.entries if e.kind == kind), key=lambda e: e.lo)

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def serialize_manifest(manifest: RunManifest) -> str:
    lines = [
        f"goo-manifest {MANIFEST_VERSION}",
        f"bound_b {manifest.bound_b}",
        f"segment_len {manifest.segment_len}",
        f"status {manifest.status}",
    ]
    ordered = manifest.entries_of(KIND_PRIME) + manifest.entries_of(KIND_A)
    for e in ordered:
        lines.append(
            f"segment {e.kind} {e.lo} {e.hi} {e.count} {e.digest} {e.filename}"
        )
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> RunManifest:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ManifestError("empty manifest")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "goo-manifest":
        raise ManifestError(f"bad manifest header: {lines[0]!r}")
    try:
        version = int(head[1])
    except ValueError:
        raise ManifestError(f"bad manifest version: {head[1]!r}") from None
    if version != MANIFEST_VERSION:
        raise VersionMismatchError(f"manifest version {version}")

    fields = {}
    entries = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "segment":
            if len(parts) != 7:
                raise ManifestError(f"bad segment line: {ln!r}")
            kind, lo, hi, count, digest, filename = parts[1:]
            if kind not in (KIND_PRIME, KIND_A):
                raise ManifestError(f"unknown segment kind {kind!r}")
            if not _FILENAME_RE.match(filename) or "/" in filename:
                raise ManifestError(f"unsafe filename {filename!r}")
            try:
                entries.append(
                    ManifestEntry(kind, int(lo), int(hi), int(count), digest, filename)
                )
            except ValueError:
                raise ManifestError(f"bad segment line: {ln!r}") from None
        elif len(parts) == 2:
            fields[parts[0]] = parts[1]
        else:
            raise ManifestError(f"bad manifest line: {ln!r}")
    for key in ("bound_b", "segment_len", "status"):
        if key not in fields:
            raise ManifestError(f"manifest missing {key}")
    try:
        bound_b = int(fields["bound_b"])
        segment_len = int(fields["segment_len"])
        check_geometry(bound_b, segment_len)
    except ValueError as e:
        raise ManifestError(f"bad geometry: {e}") from None
    status = fields["status"]
    if status not in ("in_progress", "complete"):
        raise ManifestError(f"bad status {status!r}")
    return RunManifest(bound_b, segment_len, status, entries)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # the rename lives in the directory, which must reach the disk too
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the store


class SegmentStore:
    """One sieve run's directory. Single writer, enforced by the lock that
    ``sieve.run_pipeline`` holds on the directory; readers are thread-safe.

    Commits are atomic: segment bytes land via temp-file rename, then the
    manifest is rewritten (also via rename) to mention them. A crash
    between the two leaves an orphan file that a resume simply rewrites.
    Reads and ``account`` walk ``ranges`` through ``_read``.
    """

    def __init__(self, root: Path, manifest: RunManifest):
        self.root = Path(root)
        self.manifest = manifest
        self.ranges = {  # each kind's tiling; prime first, as resume_plan lists
            KIND_PRIME: prime_segment_ranges(manifest.bound_b, manifest.segment_len),
            KIND_A: a_segment_ranges(manifest.bound_b, manifest.segment_len),
        }
        self._range_index = {
            kind: {rng: i for i, rng in enumerate(ranges)}
            for kind, ranges in self.ranges.items()
        }

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls, root: Union[str, Path], bound_b: int, segment_len: int
    ) -> "SegmentStore":
        check_geometry(bound_b, segment_len)
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        for kind in (KIND_PRIME, KIND_A):
            for stale in root.glob(f"{kind}-*.bin*"):  # and crashed writes' .bin.tmp
                stale.unlink()
        manifest = RunManifest(int(bound_b), int(segment_len), "in_progress", [])
        store = cls(root, manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: Union[str, Path]) -> "SegmentStore":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise ManifestError(f"no manifest at {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ManifestError(f"manifest at {path} is not UTF-8 text") from None
        return cls(root, parse_manifest(text))

    def _write_manifest(self) -> None:
        _atomic_write(
            self.root / MANIFEST_NAME,
            serialize_manifest(self.manifest).encode("utf-8"),
        )

    def finalize(self) -> None:
        self.manifest.status = "complete"
        self._write_manifest()

    # -- writes ---------------------------------------------------------

    def _commit(self, kind: str, lo: int, hi: int, count: int, data: bytes) -> ManifestEntry:
        index = self._range_index[kind].get((lo, hi))
        if index is None:
            raise ValueError(
                f"range [{lo},{hi}) is not a {kind} segment for this run"
            )
        filename = f"{kind}-{index:05d}.bin"
        _atomic_write(self.root / filename, data)
        digest = hashlib.sha256(data).hexdigest()
        entry = ManifestEntry(kind, lo, hi, count, digest, filename)
        entries = [e for e in self.manifest.entries if (e.kind, e.lo) != (kind, lo)]
        self.manifest.entries = [*entries, entry]
        self._write_manifest()
        return entry

    def write_prime_segment(self, block: PrimeRootBlock) -> ManifestEntry:
        return self._commit(
            KIND_PRIME, block.lo, block.hi, len(block), encode_prime_segment(block)
        )

    def write_a_segment(self, segment: ASegment) -> ManifestEntry:
        return self._commit(
            KIND_A, segment.lo, segment.hi, len(segment), encode_a_segment(segment)
        )

    # -- reads ----------------------------------------------------------

    def _listed(self, kind: str) -> dict:
        """The manifest's ``kind`` entries keyed by (lo, hi); a range listed
        more than once maps to None, since no line of it can be trusted."""
        entries = {}
        for e in self.manifest.entries_of(kind):
            entries[e.lo, e.hi] = None if (e.lo, e.hi) in entries else e
        return entries

    def _read(self, entries: dict, kind: str, lo: int, hi: int) -> bytes:
        """The ``kind`` segment [lo, hi)'s bytes: GapError unless ``entries``
        (from ``_listed``) holds the range once, CorruptSegmentError unless its
        file exists, matches the digest and its header is exactly (lo, hi, count)."""
        entry = entries.get((lo, hi))
        if entry is None:
            how = "more than once" if (lo, hi) in entries else "nowhere"
            raise GapError(f"{kind} segment [{lo},{hi}) is listed {how} in the manifest")
        try:
            data = (self.root / entry.filename).read_bytes()
        except FileNotFoundError:
            raise CorruptSegmentError(f"segment file missing: {entry.filename}") from None
        if hashlib.sha256(data).hexdigest() != entry.digest:
            raise CorruptSegmentError(f"digest mismatch in {entry.filename}")
        magic = PRIME_MAGIC if kind == KIND_PRIME else A_MAGIC
        if _header(data, magic, kind) != (lo, hi, entry.count):
            raise CorruptSegmentError(
                f"{entry.filename} is not the listed [{lo},{hi}) of {entry.count} values"
            )
        return data

    def read_prime_blocks(self) -> Iterator[PrimeRootBlock]:
        """Every prime-root block of the tiling, ascending, through ``_read``."""
        entries = self._listed(KIND_PRIME)
        for lo, hi in self.ranges[KIND_PRIME]:
            yield decode_prime_segment(self._read(entries, KIND_PRIME, lo, hi))

    def read_prime_block(self, lo: int, hi: int) -> PrimeRootBlock:
        """The committed prime-root segment [lo, hi), checked by ``_read``."""
        return decode_prime_segment(self._read(self._listed(KIND_PRIME), KIND_PRIME, lo, hi))

    def read_a_segments(self) -> Iterator[ASegment]:
        """Every A-value segment of the tiling, ascending, through ``_read``."""
        entries = self._listed(KIND_A)
        for lo, hi in self.ranges[KIND_A]:
            yield decode_a_segment(self._read(entries, KIND_A, lo, hi))

    def read_a_stream(self) -> "AStream":
        """Every stored A value, ascending, read lazily.

        Iterating the result yields Python ints; ``int64_chunks`` and
        ``verify_stream`` on it take its decoded segment arrays whole
        instead, and ``count_table`` takes its counts from ``count_a``.
        """
        return AStream(self)

    def lookup_a(self, value: int) -> bool:
        """Membership test against the stored set: the first segment ending
        beyond ``value``, read through ``_read``."""
        for lo, hi in self.ranges[KIND_A]:
            if hi > value:
                data = self._read(self._listed(KIND_A), KIND_A, lo, hi)
                return value in decode_a_segment(data).values
        raise GapError(f"no a-value segment covers {value}")

    # -- accounting -------------------------------------------------------

    def account(self) -> list:
        """(kind, lo, hi, count) for every range of the tiling, prime kind
        first, ascending; count is None where ``_read`` fails."""
        rows = []
        for kind, ranges in self.ranges.items():
            entries = self._listed(kind)
            for lo, hi in ranges:
                try:
                    self._read(entries, kind, lo, hi)
                    count = entries[lo, hi].count
                except StoreError:
                    count = None
                rows.append((kind, lo, hi, count))
        return rows

    def count_a(self, thresholds: list) -> list:
        """How many stored A values are at or below each of ``thresholds``
        (ascending), from the listed counts of the segments ``_read`` checks.

        A segment ending at or below a threshold (hi - 1 <= t) adds its
        count; only one holding a threshold inside (lo <= t < hi - 1) is
        decoded and searched, and no segment past the last threshold is read.
        """
        entries = self._listed(KIND_A)
        counts, total = [], 0
        for lo, hi in self.ranges[KIND_A]:
            pending = thresholds[len(counts) :]
            if not pending:
                break
            data = self._read(entries, KIND_A, lo, hi)
            inside = [t for t in pending if t < hi - 1]
            if inside:
                values = decode_a_segment(data).values
                counts += (total + np.searchsorted(values, inside, side="right")).tolist()
            total += entries[lo, hi].count
            if hi - 1 in pending:
                counts.append(total)
        return counts + [total] * (len(thresholds) - len(counts))

    def resume_plan(self) -> list:
        """(kind, lo, hi) of every range whose ``_read`` fails, prime kind first."""
        return [(kind, lo, hi) for kind, lo, hi, count in self.account() if count is None]
