import bisect
import io
import math
import random
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goo import analytics, goldbach, oracle, store
from goo.analytics import count_table
from goo.goldbach import (
    ChampionRecord,
    CounterexampleFound,
    VerifierState,
    champion_table,
    format_champion_table,
    j_of,
    verify_stream,
    write_champions_csv,
)
from goo.sieve import SieveConfig, run_pipeline
from goo.store import CorruptSegmentError, GapError


def test_champion_record_behaves_like_tuple():
    c = ChampionRecord(16, 74, 3)
    assert c == (16, 74, 3)
    assert (c.n, c.a_n, c.j) == (16, 74, 3)


def test_verify_small_store(small_store):
    report = verify_stream(small_store.read_a_stream(), store=small_store)
    assert report.members == 19
    assert report.verified == 18
    assert report.last_member == 94
    assert report.max_j == 3
    assert report.champions == [(16, 74, 3)]
    assert report.j_histogram[1] == 17
    assert report.j_histogram[3] == 1
    assert "largest offset j:  3" in report.summary()


@pytest.fixture(scope="module")
def many_segments(tmp_path_factory):
    """Bound 10^10 at segment_len 2^10: the members below 10^5 in 49 segments."""
    cfg = SieveConfig(bound_b=10**10, segment_len=1 << 10, thread_count=1)
    return run_pipeline(cfg, tmp_path_factory.mktemp("many"))


@pytest.fixture(scope="module")
def a_below_1e5(a_members_1e6):
    return [a for a in a_members_1e6 if a < 10**5]


def _arrays_only():
    """Fail any read of the store's stream one Python int at a time."""
    return mock.patch.object(store.AStream, "__iter__", side_effect=AssertionError)


@pytest.mark.parametrize("chunk, tail", [(goldbach.CHUNK, goldbach.TAIL), (100, 3)])
def test_array_path_matches_int_path(many_segments, a_below_1e5, chunk, tail):
    st_ = many_segments
    assert len(st_.manifest.entries_of(store.KIND_A)) == 49
    with _tiny(chunk, tail):
        with _arrays_only():
            report = verify_stream(st_.read_a_stream())
        assert report == verify_stream(list(st_.read_a_stream()))
    assert report.members == len(a_below_1e5)


@pytest.mark.parametrize("chunk", [analytics.CHUNK, 100])
def test_count_array_path_matches_int_path(many_segments, a_below_1e5, monkeypatch, chunk):
    monkeypatch.setattr(analytics, "CHUNK", chunk)
    st_ = many_segments
    points = [10**k for k in range(1, 11)]
    stream = st_.read_a_stream()
    with _arrays_only():
        rows = count_table(stream, points, covered_to=10**5)
    assert rows == count_table(list(stream), points, covered_to=10**5)
    assert [r.pi_q for r in rows] == [
        bisect.bisect_right(a_below_1e5, math.isqrt(x - 1)) for x in points
    ]


def test_array_path_refuses_damage(many_segments, tmp_path):
    victim = many_segments.manifest.entries_of(store.KIND_A)[20]
    rotten = tmp_path / "rotten"
    shutil.copytree(many_segments.root, rotten)
    raw = bytearray((rotten / victim.filename).read_bytes())
    raw[-1] ^= 0x01
    (rotten / victim.filename).write_bytes(bytes(raw))
    with pytest.raises(CorruptSegmentError):
        verify_stream(store.SegmentStore.open(rotten).read_a_stream())
    holed = tmp_path / "holed"
    shutil.copytree(many_segments.root, holed)
    manifest = holed / store.MANIFEST_NAME
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if victim.filename not in ln))
    with pytest.raises(GapError):
        verify_stream(store.SegmentStore.open(holed).read_a_stream())


def test_j_of_matches_brute_force():
    members = oracle.brute_a(2000)
    state = VerifierState()
    state.push(members[0])
    for n in range(2, len(members) + 1):
        a = members[n - 1]
        assert j_of(state, a) == oracle.brute_j(members, n)
        state.push(a)


def _scalar_run(values, every):
    """verify_stream's results, one member at a time through VerifierState:
    (state, (n, a_n) of a counterexample or None, progress messages)."""
    state = VerifierState()
    seen = []
    state.push(values[0])
    for a in values[1:]:
        try:
            j = j_of(state, a)
        except CounterexampleFound as e:
            return state, (e.n, e.a_n), seen
        state.record(a, j)
        state.push(a)
        if state.count % every == 0:
            seen.append(f"verified through member #{state.count} = {a}")
    return state, None, seen


def _tiny(chunk, tail):
    """Shrink the batch geometry, so boundaries, the bitset walk and the
    bitset lookup of differences past the small table run."""
    return mock.patch.multiple(goldbach, CHUNK=chunk, TAIL=tail, TABLE=16)


@pytest.mark.parametrize("chunk, tail", [(7, 3), (1, 1), (64, 5)])
def test_batch_offsets_across_chunks_and_tail(chunk, tail):
    members = oracle.brute_a(2000)  # j reaches 10, beyond every tail here
    with _tiny(chunk, tail):
        got = [j for _, js in goldbach._offset_chunks(members) for j in js.tolist()]
        report = verify_stream(members)
    assert got == [oracle.brute_j(members, n) for n in range(2, len(members) + 1)]
    state, failure, _ = _scalar_run(members, len(members))
    assert failure is None
    assert report.champions == state.champions
    assert report.j_histogram == dict(sorted(state.j_histogram.items()))


@st.composite
def _streams(draw):
    """1, then ascending values: about half of the even numbers, which
    mostly decompose, and a few odd ones, which are never members."""
    picks = draw(st.lists(st.booleans(), max_size=300))
    odd = draw(st.sets(st.integers(1, 300), max_size=3))
    evens = {2 * (i + 1) for i, pick in enumerate(picks) if pick}
    return [1] + sorted(evens | {2 * i + 1 for i in odd})


@settings(max_examples=150, deadline=None)
@given(_streams(), st.integers(1, 64), st.integers(1, 6), st.integers(1, 5))
def test_batch_matches_scalar_reference(values, chunk, tail, every):
    state, failure, want = _scalar_run(values, every)
    seen = []
    with _tiny(chunk, tail), mock.patch.object(goldbach, "PROGRESS_EVERY", every):
        try:
            report = verify_stream(values, progress=seen.append)
        except CounterexampleFound as e:
            assert (e.n, e.a_n) == failure
        else:
            assert failure is None
            assert report.members == state.count
            assert report.last_member == state.last
            assert report.champions == state.champions
            assert report.j_histogram == dict(sorted(state.j_histogram.items()))
    assert seen == want


def test_differences_across_the_table_bound_match_scalar_reference():
    # members 2^k - e (each 2^(k-1) plus 2^(k-1) - e) reach 2^16 from below,
    # then each value lies a seeded jump of about 2^16 past the one before:
    # the first offsets test differences on both sides of TABLE, members
    # and not, and a value no earlier member decomposes is drawn again
    assert goldbach.TABLE == 1 << 16
    top = 1 << 16
    values = sorted({1, 2, 4, 6, 10, 14, top + 2, top + 4}
                    | {(1 << k) - e for k in range(3, 17) for e in (0, 2, 4)})
    rng = random.Random(19)
    while len(values) < 90:
        a = values[-1] + top + rng.choice((-6, -4, -2, -1, 0, 1, 2, 4, 6, 8))
        if any(a - m in values for m in values):
            values.append(a)
    state, failure, _ = _scalar_run(values, len(values))
    assert failure is None and max(state.j_histogram) > goldbach.SLICED
    for chunk, tail in ((goldbach.CHUNK, goldbach.TAIL), (7, 3)):
        with mock.patch.multiple(goldbach, CHUNK=chunk, TAIL=tail):
            report = verify_stream(values)
        assert report.members == state.count
        assert report.champions == state.champions
        assert report.j_histogram == dict(sorted(state.j_histogram.items()))


@pytest.mark.parametrize("gap", [1, 3, 16, 33, 40_000])
def test_mark_sets_exactly_the_given_bits(gap):
    # dense runs go through one packed span, sparse ones bit by bit
    i = np.cumsum(np.random.default_rng(gap).integers(1, gap + 1, 300)) + 7
    bits = np.zeros(int(i[-1]) // 8 + 9, np.uint8)
    bits[0] = 0x80  # a bit set before stays set
    goldbach._mark(bits, i)
    assert np.flatnonzero(np.unpackbits(bits, bitorder="little")).tolist() == [7, *i.tolist()]


def test_values_beyond_supported_runs_are_refused():
    # the bitset covers the values below MAX_X_LIMIT and nothing else
    for stream in ([1, 2, 10**12], [1, 2, 10**30], [1, 2, store.MAX_X_LIMIT]):
        with pytest.raises(ValueError, match="below"):
            verify_stream(stream)
    state = VerifierState()
    state.push(1)
    with pytest.raises(ValueError, match="below"):
        state.push(10**12)
    assert state.last == 1


def test_counterexample_is_reported():
    with pytest.raises(CounterexampleFound) as exc:
        verify_stream([1, 2, 4, 9])
    assert exc.value.n == 4
    assert exc.value.a_n == 9


def test_stream_validation():
    with pytest.raises(ValueError):
        verify_stream([])
    with pytest.raises(ValueError):
        verify_stream([2, 4, 6])
    with pytest.raises(ValueError):
        verify_stream([1, 2, 2])
    # whichever fault comes first in the stream is the one reported
    with pytest.raises(ValueError, match="ascend"):
        verify_stream([1, 2, 4, 4, 9])
    with pytest.raises(CounterexampleFound):
        verify_stream([1, 2, 4, 9, 8])
    with pytest.raises(CounterexampleFound):
        verify_stream([1, 2, 4, 9, 10**12])
    with pytest.raises(ValueError, match="below"):
        verify_stream([1, 2, 10**12, 9])


def test_vacuous_offset_never_champions():
    state = VerifierState()
    state.push(1)
    a = 2
    j = j_of(state, a)
    assert j == 1
    state.record(a, j)
    assert state.champions == []


def test_champion_table_model_values():
    champs = [
        ChampionRecord(16, 74, 3),
        ChampionRecord(1188, 14774, 14),
        ChampionRecord(62688, 1174484, 38),
        ChampionRecord(480452, 10564474, 44),
        ChampionRecord(1286852, 30294044, 52),
    ]
    rows = champion_table(champs)
    assert [r.expected_a_n for r in rows] == [
        106,
        18618,
        1504969,
        13590903,
        39066897,
    ]
    assert [r.j_over_log_n for r in rows] == [1.08, 1.98, 3.44, 3.36, 3.70]


def test_format_champion_table():
    rows = champion_table([ChampionRecord(16, 74, 3)])
    text = format_champion_table(rows)
    lines = text.splitlines()
    assert "model a_n" in lines[0]
    assert lines[1].split() == ["16", "74", "106", "3", "1.08"]


def test_champions_csv():
    buf = io.StringIO()
    write_champions_csv([ChampionRecord(16, 74, 3), ChampionRecord(55, 384, 6)], buf)
    assert buf.getvalue() == "n,a_n,j\n16,74,3\n55,384,6\n"


def test_progress_callback_fires(monkeypatch):
    monkeypatch.setattr(goldbach, "PROGRESS_EVERY", 2)
    seen = []
    verify_stream([1, 2, 4, 6, 10], progress=seen.append)
    assert seen == [
        "verified through member #2 = 2",
        "verified through member #4 = 6",
    ]
