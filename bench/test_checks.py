"""Fast tests for the benchmark's own code: each checker accepts goo's
output and rejects a corrupted copy of it (a dropped member, a wrong j, a
missing hit); the tracer restores what it wraps.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from goo import analytics, goldbach, hypotheses, sieve, store  # noqa: E402
from tracing import Tracer  # noqa: E402


def brute_members(limit):
    x = np.arange(1, limit + 1)
    return x[checks.square_plus_one_prime(x)]


def dropped(values, i):
    return np.delete(np.asarray(values), i)


@pytest.fixture(scope="module")
def members_1e5():
    return brute_members(10**5)


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("store")
    sieve.run_pipeline(sieve.SieveConfig(10**10, 1 << 12), out)
    return out


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    values = list(range(0, 3000)) + [rng.randrange(1 << 64) for _ in range(3000)]
    values += [561, 1105, 3215031751, 3825123056546413051, (1 << 61) - 1, (1 << 64) - 59]
    assert [checks.is_prime(n) for n in values] == [sympy.isprime(n) for n in values]


def test_members_match_a083844_prefix(members_1e5):
    assert checks.count_problems(members_1e5, 10) == []
    assert checks.count_problems(dropped(members_1e5, 40), 10)


def test_store_reader_and_counts(small_store, members_1e5):
    members = checks.read_store_members(small_store)
    assert np.array_equal(members, members_1e5)
    assert checks.count_problems(members, 10) == []
    rng = np.random.default_rng(3)
    assert checks.sample_problems(members, 10**5, rng, 500) == []


def test_store_reader_rejects_a_flipped_byte(small_store, tmp_path):
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in small_store.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    victim = sorted(copy.glob("a_values-*.bin"))[0]
    data = bytearray(victim.read_bytes())
    data[-1] ^= 1
    victim.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="digest"):
        checks.read_store_members(copy)


def test_samples_catch_a_wrong_member(members_1e5):
    rng = np.random.default_rng(3)
    bad = members_1e5.copy()
    bad[10] = 8  # 8^2 + 1 = 65
    assert checks.sample_problems(np.sort(bad), 10**5, rng, 2 * bad.size)


def test_verify_checker(members_1e5):
    report = goldbach.verify_stream(members_1e5.tolist())
    assert checks.verify_problems(members_1e5, report) == []

    hist = dict(report.j_histogram)
    hist[1] -= 1
    hist[2] += 1
    wrong_j = dataclasses.replace(report, j_histogram=hist)
    assert checks.verify_problems(members_1e5, wrong_j)

    champions = list(report.champions)
    champions[-1] = goldbach.ChampionRecord(champions[-1].n, champions[-1].a_n, 99)
    assert checks.verify_problems(members_1e5, dataclasses.replace(report, champions=champions))

    short = goldbach.verify_stream(dropped(members_1e5, 500).tolist())
    assert checks.verify_problems(members_1e5, short)


def test_offsets_match_the_oracle(members_1e5):
    from goo import oracle

    j, lost = checks.offsets(members_1e5)
    values = members_1e5.tolist()
    assert not lost
    assert [int(v) for v in j[1:300]] == [oracle.brute_j(values, n) for n in range(2, 301)]


def test_count_table_checker(members_1e5):
    points = [10**k for k in range(1, 11)]
    rows = analytics.count_table(members_1e5.tolist(), points, c_q=checks.HL_CONSTANT)
    assert checks.count_table_problems(members_1e5, rows) == []

    nudged = list(rows)
    nudged[6] = dataclasses.replace(rows[6], ratio_g=rows[6].ratio_g * (1 + 1e-7))
    assert checks.count_table_problems(members_1e5, nudged)

    short = analytics.count_table(dropped(members_1e5, 3).tolist(), points)
    assert checks.count_table_problems(members_1e5, short)


def test_window_and_root_checkers():
    blocks = run.root_blocks(2 * 10**6, 1 << 14)
    lo, hi = 10**6 + 17, 10**6 + 10**4 + 17
    got = sieve.sieve_a_segment(lo, hi, blocks).values
    assert got.size > 0
    assert checks.window_problems(lo, hi, got) == []
    assert checks.window_problems(lo, hi, dropped(got, got.size // 2))

    p = np.concatenate([b.p for b in blocks])
    r = np.concatenate([b.r for b in blocks])
    assert checks.root_problems(p, r) == []
    r[1000] = p[1000] - r[1000]
    assert checks.root_problems(p, r)


def test_scan_checker():
    family = [hypotheses.IntPolynomial.shifted_square(65, s) for s in (1, 9)]
    y_limit = 3000
    result = hypotheses.simultaneous_prime_scan(family, y_limit)
    members = brute_members(65 * y_limit + 10)
    assert result.count > 2
    assert checks.scan_problems(result.hits, members, 65, (1, 9), y_limit) == []
    assert checks.scan_problems(result.hits[1:], members, 65, (1, 9), y_limit)
    assert checks.scan_problems(sorted(result.hits + [7]), members, 65, (1, 9), y_limit)


def test_tracer_spans_and_restore(tmp_path):
    original = sieve.sieve_a_segment
    tracer = Tracer()
    with tracer:
        sieve.run_pipeline(sieve.SieveConfig(10**10, 1 << 12), tmp_path / "s")
        family = [hypotheses.IntPolynomial.shifted_square(65, s) for s in (1, 9)]
        hypotheses.simultaneous_prime_scan(family, 2000)
    assert sieve.sieve_a_segment is original
    assert store.SegmentStore.read_prime_blocks.__name__ == "read_prime_blocks"

    totals = tracer.totals()
    n_a = len(store.a_segment_ranges(10**10, 1 << 12))
    assert totals["sieve.sieve_a_segment"][0] == n_a
    assert totals["store.write_a_segment"][0] == n_a
    assert tracer.counts["store.read_prime_blocks.bytes"] > 0
    assert tracer.strike_stats.strikes > 0
    assert totals["oracle.is_prime_64"][0] > 0
    by_id = {span[0]: span for span in tracer.spans}
    for _id, name, parent, start, end, own in tracer.spans:
        assert start <= end and -1e-9 <= own <= end - start + 1e-9
        if parent >= 0:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]

    metrics = run.layer_metrics(tracer, {}, 0.0, 0.0, len(tracer.spans) * tracer.span_cost())
    assert set(metrics) == set(run.LAYER_UNITS)
    assert metrics["store.lookup_a.calls"]["value"] == 0
    assert 0 < metrics["trace.overhead_s"]["value"] < 1
    read_path = ("store.decode_a_segment", "store.read_a_segments", "store.lookup_a",
                 "goldbach.", "analytics.", "store.bytes_written", "store.segments_committed",
                 "hypotheses.hits_per_prime_test", "run.")
    silent = [k for k, v in metrics.items() if not v["value"] and not k.startswith(read_path)]
    assert silent == []
