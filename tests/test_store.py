import dataclasses
import os
import random
import shutil
import stat
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from goo import sieve, store
from goo.records import ASegment, PrimeRootBlock
from goo.store import (
    CorruptSegmentError,
    GapError,
    ManifestError,
    SegmentStore,
    StoreError,
    VersionMismatchError,
    decode_a_segment,
    decode_prime_segment,
    encode_a_segment,
    encode_prime_segment,
    parse_manifest,
    serialize_manifest,
)


def _a_seg(lo, hi, values):
    return ASegment(lo=lo, hi=hi, values=np.asarray(values, dtype=np.int64))


def _pr_block(lo, hi, pairs):
    p = np.asarray([x for x, _ in pairs], dtype=np.int64)
    r = np.asarray([x for _, x in pairs], dtype=np.int64)
    return PrimeRootBlock(lo=lo, hi=hi, p=p, r=r)


# -- geometry ---------------------------------------------------------------


def test_x_limit_values():
    assert store.x_limit(10**4) == 100
    assert store.x_limit(10**16) == 10**8
    assert store.x_limit(100) == 10
    # every candidate below the limit stays under the bound, the next does not
    for b in (100, 101, 10**4, 10**4 + 7, 123456789):
        r = store.x_limit(b)
        assert (r - 1) ** 2 + 1 < b <= r * r + 1


def test_segment_ranges_tile_the_candidate_space():
    for bound, seg in ((10**4, 1024), (10**8, 4096), (10**10, 1 << 12)):
        limit = store.x_limit(bound)
        for ranges, span, align in (
            (store.prime_segment_ranges(bound, seg), 4 * seg, 4),
            (store.a_segment_ranges(bound, seg), 2 * seg, None),
        ):
            assert ranges[0][0] == 1
            assert ranges[-1][1] == limit
            for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
                assert ahi == blo
            if align:
                assert all(lo % align == 1 for lo, _ in ranges)
            assert all(hi - lo <= span for lo, hi in ranges)


# -- prime segment codec ----------------------------------------------------


def test_prime_segment_round_trip():
    block = _pr_block(1, 100, [(5, 2), (13, 5), (17, 4), (29, 12), (37, 6)])
    out = decode_prime_segment(encode_prime_segment(block))
    assert (out.lo, out.hi) == (1, 100)
    assert out.p.tolist() == [5, 13, 17, 29, 37]
    assert out.r.tolist() == [2, 5, 4, 12, 6]


def test_prime_segment_empty_round_trip():
    out = decode_prime_segment(encode_prime_segment(_pr_block(201, 301, [])))
    assert len(out) == 0 and (out.lo, out.hi) == (201, 301)


def test_prime_segment_header_bytes():
    data = encode_prime_segment(_pr_block(1, 100, [(5, 2)]))
    assert data[:4] == b"GOOP"
    assert data[4] == 1
    assert len(data) == 29 + 16


def test_prime_segment_rejects_damage():
    good = encode_prime_segment(_pr_block(1, 100, [(5, 2), (13, 5)]))
    with pytest.raises(CorruptSegmentError):
        decode_prime_segment(b"GOOA" + good[4:])
    with pytest.raises(VersionMismatchError):
        decode_prime_segment(good[:4] + b"\x02" + good[5:])
    with pytest.raises(CorruptSegmentError):
        decode_prime_segment(good[:-3])  # truncated
    with pytest.raises(CorruptSegmentError):
        decode_prime_segment(good + b"\x00")  # trailing junk
    swapped = _pr_block(1, 100, [(13, 5), (5, 2)])
    with pytest.raises(CorruptSegmentError):
        decode_prime_segment(encode_prime_segment(swapped))  # not ascending
    outside = encode_prime_segment(_pr_block(1, 10, [(13, 5)]))
    with pytest.raises(CorruptSegmentError):
        decode_prime_segment(outside)


def test_prime_segment_refuses_roots_that_are_not_canonical():
    (block,) = sieve.sieve_prime_roots([(1, 1025)])
    p, r = block.p, block.r
    assert np.array_equal(decode_prime_segment(encode_prime_segment(block)).r, r)
    # r + 2p is still a root of x^2 + 1 mod p, and it changes what the A
    # sieve strikes: 115 members of [1, 1025) instead of 114
    shifted = dataclasses.replace(block, r=r + 2 * p)
    assert len(sieve.sieve_a_segment(1, 1025, [block])) == 114
    assert len(sieve.sieve_a_segment(1, 1025, [shifted])) == 115
    one = np.arange(r.size) == 17
    for bad in (r + 2 * p, p - r, r + one, np.where(one, 0, r), np.where(one, -r, r)):
        damaged = encode_prime_segment(dataclasses.replace(block, r=bad))
        with pytest.raises(CorruptSegmentError, match="root"):
            decode_prime_segment(damaged)
    # a prime past every supported run, whose root would overflow int64 squared
    beyond = store.x_limit(store.MAX_BOUND) + 4
    with pytest.raises(CorruptSegmentError, match="supported"):
        decode_prime_segment(encode_prime_segment(_pr_block(1, 2**40, [(beyond, 1)])))


# -- a-value segment codec --------------------------------------------------


def test_a_segment_round_trip_and_frozen_deltas():
    data = encode_a_segment(_a_seg(1, 8, [1, 2, 4, 6]))
    assert data[:4] == b"GOOA"
    assert data[4] == 1
    # first value as u64, then deltas 1,2,2 as single varint bytes
    assert data[29:37] == (1).to_bytes(8, "little")
    assert data[37:] == bytes([0x01, 0x02, 0x02])
    out = decode_a_segment(data)
    assert out.values.tolist() == [1, 2, 4, 6]


def test_a_segment_multibyte_deltas():
    values = [10, 10 + 199, 10 + 199 + 130, 10 + 199 + 130 + 16384]
    data = encode_a_segment(_a_seg(1, 40000, values))
    assert data[37:39] == bytes([0xC7, 0x01])  # 199 = 0b1_1000111
    assert decode_a_segment(data).values.tolist() == values


def test_a_segment_empty():
    data = encode_a_segment(_a_seg(500, 600, []))
    assert len(data) == 29
    out = decode_a_segment(data)
    assert len(out) == 0 and (out.lo, out.hi) == (500, 600)


def test_a_segment_random_round_trips():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 400)
        start = rng.randrange(1, 1 << 40)
        deltas = [rng.choice([1, 2, 3, 127, 128, 300, 16383, 16384, 10**6, 10**7])
                  for _ in range(n - 1)]
        values = [start]
        for d in deltas:
            values.append(values[-1] + d)
        seg = _a_seg(start, values[-1] + 1, values)
        assert decode_a_segment(encode_a_segment(seg)).values.tolist() == values


def test_a_segment_rejects_damage():
    good = encode_a_segment(_a_seg(1, 100, [1, 2, 4, 6, 10]))
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(good[:-1])  # one delta short
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(good + bytes([0x02]))  # one delta too many
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(good[:-1] + bytes([0x82]))  # dangling continuation
    zero_delta = good[:38] + bytes([0x00]) + good[39:]
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(zero_delta)
    with pytest.raises(VersionMismatchError):
        decode_a_segment(good[:4] + b"\x07" + good[5:])
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(b"GOOP" + good[4:])
    # values must sit inside the declared range
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(encode_a_segment(_a_seg(1, 5, [1, 2, 4, 6])))


def test_a_segment_refuses_deltas_that_wrap_int64():
    # 1 + (2^63 - 1) wraps to -2^63, and two more deltas bring the last
    # value back inside the declared [1, 100)
    head = store._HEADER.pack(b"GOOA", 1, 1, 100, 4) + (1).to_bytes(8, "little")
    data = head + store._encode_deltas(np.array([2**63 - 1, 2**63 - 1, 7]))
    with pytest.raises(CorruptSegmentError, match="outside declared range"):
        decode_a_segment(data)


# each width boundary of the varint code, from one byte (below 2^7) to nine
# (2^56 and up); the sums stay below 2^62, so every value fits int64
BOUNDARY_GAPS = (1, *(2**k + d for k in range(7, 57, 7) for d in (-1, 0, 1)))
_gaps = hst.lists(
    hst.one_of(hst.sampled_from(BOUNDARY_GAPS), hst.integers(1, 2**22)), max_size=200
).filter(lambda gaps: sum(gaps) < 2**62)


def _encoded(first, gaps):
    values = np.cumsum([first, *gaps]).tolist()
    return values, encode_a_segment(_a_seg(first, values[-1] + 1, values))


@settings(max_examples=200, deadline=None)
@given(first=hst.integers(1, 2**40), gaps=_gaps)
@example(first=1, gaps=list(BOUNDARY_GAPS))
@example(first=2**40, gaps=[2**21, 1, 2**21 - 1])
@example(first=2**40, gaps=[2**56, 1, 2**56 - 1, 2**49, 2**42 - 1])
@example(first=1, gaps=[2**62])
def test_a_codec_round_trips(first, gaps):
    values, data = _encoded(first, gaps)
    assert decode_a_segment(data).values.tolist() == values


def _with_count(data, count):
    magic, version, lo, hi, _ = store._HEADER.unpack_from(data)
    return store._HEADER.pack(magic, version, lo, hi, count) + data[store._HEADER.size :]


@settings(max_examples=200, deadline=None)
@given(first=hst.integers(1, 2**40), gaps=_gaps.filter(bool), pick=hst.integers(0, 2**32))
@example(first=1, gaps=list(BOUNDARY_GAPS), pick=0)
@example(first=1, gaps=list(BOUNDARY_GAPS), pick=5)
@example(first=1, gaps=list(BOUNDARY_GAPS), pick=2**31 + 7)
@example(first=1, gaps=[2**62], pick=3)
def test_a_codec_refuses_damage(first, gaps, pick):
    values, good = _encoded(first, gaps)
    payload_at = store._HEADER.size + 8
    # a payload cut short: a varint loses its tail, or whole deltas go missing
    cut = 1 + pick % (len(good) - payload_at)
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(good[:-cut])
    # or a varint begun after the last delta and never finished
    with pytest.raises(CorruptSegmentError, match="truncated"):
        decode_a_segment(good + bytes([0x80 | pick & 0x7F]))
    # a header count that disagrees with the payload
    count = pick % (len(values) + 4)
    count += count == len(values)
    with pytest.raises(CorruptSegmentError):
        decode_a_segment(_with_count(good, count))
    # a zero delta slipped in at a varint boundary, with the count to match
    ends = [payload_at] + [payload_at + i + 1 for i, b in enumerate(good[payload_at:]) if b < 0x80]
    at = ends[pick % len(ends)]
    zero = good[:at] + b"\x00" + good[at:]
    with pytest.raises(CorruptSegmentError, match="zero delta"):
        decode_a_segment(_with_count(zero, len(values) + 1))


def test_a_codec_refuses_overlong_varint():
    # nine bytes carry 63 bits, every positive int64; a tenth cannot be a delta
    good = encode_a_segment(_a_seg(1, 2**63 - 1, [1, 2**62]))
    assert len(good) == store._HEADER.size + 8 + 9
    for width in (10, 11):
        overlong = good[: store._HEADER.size + 8] + b"\x80" * (width - 1) + b"\x01"
        with pytest.raises(CorruptSegmentError, match="longer than 9 bytes"):
            decode_a_segment(overlong)


# -- manifest ---------------------------------------------------------------


def _manifest():
    return store.RunManifest(
        bound_b=10**4,
        segment_len=1024,
        status="in_progress",
        entries=[
            store.ManifestEntry("a_values", 1, 100, 19, "ab" * 32, "a_values-00000.bin"),
            store.ManifestEntry("prime_root", 1, 100, 11, "cd" * 32, "prime_root-00000.bin"),
        ],
    )


def test_manifest_round_trip():
    m = _manifest()
    out = parse_manifest(serialize_manifest(m))
    assert out.bound_b == m.bound_b
    assert out.segment_len == m.segment_len
    assert out.status == m.status
    assert set(out.entries) == set(m.entries)


def test_manifest_canonical_order():
    text = serialize_manifest(_manifest())
    lines = text.splitlines()
    assert lines[0] == "goo-manifest 1"
    # prime_root entries always serialize before a_values
    kinds = [ln.split()[1] for ln in lines if ln.startswith("segment ")]
    assert kinds == ["prime_root", "a_values"]


def test_manifest_parse_rejects_damage():
    good = serialize_manifest(_manifest())
    with pytest.raises(ManifestError):
        parse_manifest("")
    with pytest.raises(ManifestError):
        parse_manifest(good.replace("goo-manifest 1", "something 1"))
    with pytest.raises(VersionMismatchError):
        parse_manifest(good.replace("goo-manifest 1", "goo-manifest 9"))
    with pytest.raises(ManifestError):
        parse_manifest(good.replace("status in_progress", "status paused"))
    with pytest.raises(ManifestError):
        parse_manifest(good.replace("segment prime_root", "segment oddball"))
    with pytest.raises(ManifestError):
        parse_manifest(good.replace("prime_root-00000.bin", "../escape.bin"))
    with pytest.raises(ManifestError):
        parse_manifest("goo-manifest 1\nbound_b 100\nstatus complete\n")


# every (bound_b, segment_len) that the tests, the benchmark and the demos
# run or store, each of which must still parse
USED_GEOMETRIES = (
    (10**4, 1024), (10**4, 2048), (10**6, 1024), (10**7 + 1, 1024),
    (10**7 + 1, 2048), (10**7 + 1, 4096), (777_777_777, 1024), (777_777_777, 2048),
    (777_777_777, 4096), (10**8, 1024), (10**8, 4096), (10**9, 1024), (10**10, 1024),
    (10**10, 2048), (10**10, 4096), (10**10, 1 << 16), (10**10, 1 << 20),
    (10**12, 1 << 20), (10**16, 1 << 20), (10**16, 1 << 22), (10**18, 1 << 20),
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("segment_len", 0),  # tiled forever at the parent
        ("segment_len", -1),
        ("segment_len", 1023),
        ("bound_b", 2),
        ("bound_b", 99),
        ("bound_b", 10**30),
        ("bound_b", 1024**4),  # segment_len^4 <= bound_b
    ],
)
def test_manifest_refuses_bad_geometry(field, value):
    good = serialize_manifest(_manifest())
    bad = good.replace(f"{field} {getattr(_manifest(), field)}\n", f"{field} {value}\n")
    assert bad != good
    with pytest.raises(ManifestError, match="bad geometry"):
        parse_manifest(bad)


def test_manifest_accepts_every_used_geometry():
    for bound, seg in USED_GEOMETRIES:
        text = serialize_manifest(store.RunManifest(bound, seg, "complete", []))
        m = parse_manifest(text)
        assert (m.bound_b, m.segment_len) == (bound, seg)


_damage = hst.one_of(
    hst.sampled_from(
        [b"0", b"-1", b"1023", b"2", b"99", b"1" + b"0" * 30, b" ", b"\n", b"\xff"]
    ),
    hst.binary(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(at=hst.integers(0, 10**4), width=hst.integers(0, 12), new=_damage)
@example(at=0, width=0, new=b"\xff")  # not UTF-8: a traceback at the parent
def test_damaged_manifest_raises_only_store_errors(at, width, new):
    good = serialize_manifest(_manifest()).encode()
    at %= len(good) + 1
    raw = good[:at] + new + good[at + width :]
    try:
        parse_manifest(raw.decode("utf-8", "replace"))
    except StoreError:
        pass
    with tempfile.TemporaryDirectory() as d:
        Path(d, store.MANIFEST_NAME).write_bytes(raw)
        try:
            SegmentStore.open(d)
        except StoreError:
            pass


# -- the store itself -------------------------------------------------------


def _make_store(tmp_path, bound=10**4, seg=1024):
    return SegmentStore.create(tmp_path / "d", bound, seg)


def _fill_small(st):
    blocks = {
        (1, 100): [(5, 2), (13, 5), (17, 4), (29, 12), (37, 6), (41, 9),
                   (53, 23), (61, 11), (73, 27), (89, 34), (97, 22)],
    }
    for (lo, hi), pairs in blocks.items():
        st.write_prime_segment(_pr_block(lo, hi, pairs))
    st.write_a_segment(
        _a_seg(1, 100, [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56,
                        66, 74, 84, 90, 94])
    )
    st.finalize()
    return st


def test_store_write_read_cycle(tmp_path):
    st = _fill_small(_make_store(tmp_path))
    reopened = SegmentStore.open(st.root)
    assert reopened.manifest.complete
    blocks = list(reopened.read_prime_blocks())
    assert len(blocks) == 1 and blocks[0].p.tolist()[0] == 5
    assert list(reopened.read_a_stream()) == [1, 2, 4, 6, 10, 14, 16, 20, 24,
                                              26, 36, 40, 54, 56, 66, 74, 84,
                                              90, 94]
    assert reopened.lookup_a(74) is True
    assert reopened.lookup_a(76) is False
    assert reopened.resume_plan() == []


def test_store_rejects_unknown_range(tmp_path):
    st = _make_store(tmp_path)
    with pytest.raises(ValueError):
        st.write_a_segment(_a_seg(7, 44, [10]))


def test_store_no_temp_files_after_commit(tmp_path):
    st = _fill_small(_make_store(tmp_path))
    leftovers = [p.name for p in st.root.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_store_detects_bit_rot(tmp_path):
    st = _fill_small(_make_store(tmp_path))
    victim = st.root / st.manifest.entries_of("a_values")[0].filename
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x40
    victim.write_bytes(bytes(raw))
    fresh = SegmentStore.open(st.root)
    with pytest.raises(CorruptSegmentError):
        list(fresh.read_a_stream())
    assert fresh.resume_plan() == [("a_values", 1, 100)]


def test_store_detects_missing_file(tmp_path):
    st = _fill_small(_make_store(tmp_path))
    (st.root / st.manifest.entries_of("prime_root")[0].filename).unlink()
    fresh = SegmentStore.open(st.root)
    with pytest.raises(CorruptSegmentError):
        list(fresh.read_prime_blocks())
    assert ("prime_root", 1, 100) in fresh.resume_plan()


def test_store_gap_detection(tmp_path):
    st = _make_store(tmp_path, bound=10**8, seg=1024)
    # bound 10^8 tiles x-space [1, 10^4) into multiple segments of each kind
    ranges = store.a_segment_ranges(10**8, 1024)
    assert len(ranges) >= 3
    st.write_a_segment(_a_seg(*ranges[0], [1, 2, 4]))
    st.write_a_segment(_a_seg(*ranges[2], [ranges[2][0] + 2]))  # skip ranges[1]
    with pytest.raises(GapError):
        list(st.read_a_stream())
    with pytest.raises(GapError):
        st.lookup_a(ranges[1][0] + 2)


@pytest.fixture(scope="module")
def clean_1e8(tmp_path_factory):
    """A finished run to 10^8 at segment 1024: 3 prime and 5 A segments."""
    cfg = sieve.SieveConfig(bound_b=10**8, segment_len=1024)
    st = sieve.run_pipeline(cfg, tmp_path_factory.mktemp("clean") / "d")
    return st, list(st.read_a_stream())


def test_reads_walk_the_runs_tiling(tmp_path):
    # an unfinished store's prime blocks end in a GapError, not silently
    fresh = _make_store(tmp_path, bound=10**8, seg=1024)
    first, second = fresh.ranges[store.KIND_PRIME][:2]
    fresh.write_prime_segment(_pr_block(*first, [(5, 2)]))
    blocks = fresh.read_prime_blocks()
    assert next(blocks).p.tolist() == [5]
    with pytest.raises(GapError, match=rf"\[{second[0]},{second[1]}\)"):
        next(blocks)


def test_lookup_a_decodes_one_segment(clean_1e8):
    st, values = clean_1e8
    last_lo = st.ranges[store.KIND_A][-1][0]
    member = next(a for a in values if a >= last_lo)
    outsider = next(x for x in range(last_lo, store.x_limit(10**8)) if x not in values)
    for value, expected in ((0, False), (member, True), (outsider, False)):
        with mock.patch.object(store, "decode_a_segment", wraps=store.decode_a_segment) as decode:
            assert st.lookup_a(value) is expected
        assert decode.call_count == 1
    with pytest.raises(GapError):
        st.lookup_a(store.x_limit(10**8))


_damage_ops = hst.lists(
    hst.tuples(
        hst.sampled_from(["drop", "duplicate", "swap", "flip"]),
        hst.integers(0, 2**16), hst.integers(0, 2**16), hst.integers(0, 255),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(ops=_damage_ops)
def test_resume_plan_lists_exactly_the_ranges_that_fail_to_read(clean_1e8, ops):
    clean, values = clean_1e8
    own = {  # each range's own file, prime kind first as resume_plan lists
        (kind, lo, hi): f"{kind}-{i:05d}.bin"
        for kind, ranges in clean.ranges.items() for i, (lo, hi) in enumerate(ranges)
    }
    with tempfile.TemporaryDirectory() as d:
        st = SegmentStore.open(shutil.copytree(clean.root, Path(d, "run")))
        entries = st.manifest.entries
        for op, i, j, byte in ops:
            if not entries:
                break
            i %= len(entries)
            if op == "drop":
                del entries[i]
            elif op == "duplicate":
                entries.insert(i, entries[i])
            elif op == "swap":
                same = [k for k, e in enumerate(entries) if e.kind == entries[i].kind]
                j = same[j % len(same)]
                a, b = entries[i], entries[j]
                entries[i] = dataclasses.replace(a, filename=b.filename, digest=b.digest)
                entries[j] = dataclasses.replace(b, filename=a.filename, digest=a.digest)
            else:
                path = st.root / entries[i].filename
                raw = bytearray(path.read_bytes())
                raw[j % len(raw)] ^= 1 + byte % 255
                path.write_bytes(bytes(raw))
        st._write_manifest()
        st = SegmentStore.open(st.root)

        # the damage, modelled: a range fails unless it is listed exactly once,
        # with its own file, holding the clean bytes
        lines = Counter((e.kind, e.lo, e.hi) for e in st.manifest.entries)
        listed = {(e.kind, e.lo, e.hi): e.filename for e in st.manifest.entries}
        expected = [
            key for key, name in own.items()
            if lines[key] != 1 or listed[key] != name
            or (st.root / name).read_bytes() != (clean.root / name).read_bytes()
        ]
        plan = st.resume_plan()
        assert plan == expected
        for kind, ranges in st.ranges.items():
            for lo, hi in ranges:
                try:
                    st._read(st._listed(kind), kind, lo, hi)
                except StoreError:
                    assert (kind, lo, hi) in plan
                else:
                    assert (kind, lo, hi) not in plan
        try:
            assert list(st.read_a_stream()) == values
        except StoreError:
            assert any(kind == store.KIND_A for kind, _, _ in plan)


def test_account_counts_each_range_of_the_tiling_once(clean_1e8, tmp_path):
    clean, values = clean_1e8
    counts = {(e.kind, e.lo, e.hi): e.count for e in clean.manifest.entries}
    tiling = [(kind, lo, hi) for kind, ranges in clean.ranges.items() for lo, hi in ranges]
    assert clean.account() == [(*key, counts[key]) for key in tiling]
    assert sum(n for kind, _, _, n in clean.account() if kind == store.KIND_A) == len(values)
    # a range listed twice and a damaged file each read None; the rest keep counts
    st = SegmentStore.open(shutil.copytree(clean.root, tmp_path / "d"))
    a = st.manifest.entries_of(store.KIND_A)
    st.manifest.entries.append(a[1])
    st._write_manifest()
    (st.root / a[3].filename).write_bytes(b"damaged")
    broken = {(e.kind, e.lo, e.hi) for e in (a[1], a[3])}
    assert SegmentStore.open(st.root).account() == [
        (*key, None if key in broken else counts[key]) for key in tiling
    ]


def test_store_open_requires_manifest(tmp_path):
    with pytest.raises(ManifestError):
        SegmentStore.open(tmp_path / "nowhere")


def test_store_overwrite_same_range_replaces_entry(tmp_path):
    st = _make_store(tmp_path)
    st.write_a_segment(_a_seg(1, 100, [1, 2]))
    st.write_a_segment(_a_seg(1, 100, [1, 2, 4]))
    entries = st.manifest.entries_of("a_values")
    assert len(entries) == 1
    assert entries[0].count == 3


def test_atomic_write_syncs_the_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(store.os, "fsync", spy)
    store._atomic_write(tmp_path / "seg.bin", b"payload")
    assert (tmp_path / "seg.bin").read_bytes() == b"payload"
    assert synced == [False, True]  # the file, then its directory after the rename
