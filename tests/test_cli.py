import dataclasses
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from goo import analytics, cli, goldbach, sieve, store
from goo.records import ASegment

A_BELOW_100 = [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56, 66, 74, 84, 90, 94]


@pytest.fixture(scope="module")
def run_1e6(tmp_path_factory):
    """A finished run with every value below 10^6, via the CLI itself."""
    d = tmp_path_factory.mktemp("cli") / "run1e6"
    code = cli.main(
        ["sieve", "--limit", "1e6", "--segment", "1024", "--threads", "1",
         "--out", str(d), "--quiet"]
    )
    assert code == 0
    return d


# -- sieve --------------------------------------------------------------------


def test_sieve_reports_totals(run_1e6, capsys):
    code = cli.main(["sieve", "--limit", "1e6", "--segment", "1024",
                     "--out", str(run_1e6), "--resume", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "values 112" in out
    assert "limit 1000000" in out


def test_sieve_progress_goes_to_stderr(tmp_path, capsys):
    code = cli.main(["sieve", "--limit", "1e4", "--segment", "1024",
                     "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 0
    assert "commit" in captured.err
    assert "complete" in captured.err
    assert "values 19" in captured.out
    assert "commit" not in captured.out


def test_sieve_desk_guard(tmp_path):
    assert cli.main(["sieve", "--limit", "1e19", "--out", str(tmp_path)]) == 64


def test_sieve_resume_with_other_geometry_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert cli.main(["sieve", "--limit", "1e4", "--segment", "1024", "--out", out,
                     "--quiet"]) == 0
    assert cli.main(["sieve", "--limit", "1e4", "--segment", "2048", "--out", out,
                     "--resume", "--quiet"]) == 64
    assert "resume geometry mismatch" in capsys.readouterr().err


def _tree_digest(root: Path) -> dict:
    """SHA-256 of every file under root, by relative path."""
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*")) if f.is_file()
    }


def test_sieve_refuses_to_overwrite_a_complete_run(run_1e6, capsys):
    before = _tree_digest(run_1e6)
    code = cli.main(["sieve", "--limit", "1e6", "--segment", "1024",
                     "--out", str(run_1e6), "--quiet"])
    err = capsys.readouterr().err
    assert code == 64
    assert "--resume" in err and f"remove {run_1e6}" in err
    assert _tree_digest(run_1e6) == before


def test_sieve_restarts_an_unfinished_or_damaged_store(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / store.MANIFEST_NAME).write_text("not a manifest\n")
    args = ["sieve", "--limit", "1e4", "--segment", "1024", "--out", str(out), "--quiet"]
    assert cli.main(args) == 0
    st = store.SegmentStore.open(out)
    st.manifest.status = "in_progress"
    st._write_manifest()
    assert cli.main(args) == 0
    assert store.SegmentStore.open(out).manifest.complete


def test_status_reports_a_store_read_only(run_1e6, capsys):
    before = _tree_digest(run_1e6)
    assert cli.main(["status", "--data", str(run_1e6)]) == 0
    assert _tree_digest(run_1e6) == before
    assert capsys.readouterr().out.splitlines() == [
        "status complete",
        "bound 1000000",
        "segment_len 1024",
        "coverage x in [1,1000) of [1,1000)",
        "segments prime_root 1/1",
        "segments a_values 1/1",
        "members 112",
        "pending 0",
    ]


def test_status_lists_pending_segments(tmp_path, capsys):
    st = sieve.run_pipeline(sieve.SieveConfig(10**10, 1024), tmp_path / "d")
    a = st.manifest.entries_of(store.KIND_A)
    st.manifest.entries.remove(a[3])  # as if the run stopped before it
    st.manifest.status = "in_progress"
    st._write_manifest()
    (st.root / a[5].filename).write_bytes(b"damaged")
    before = _tree_digest(st.root)
    assert cli.main(["status", "--data", str(st.root)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert _tree_digest(st.root) == before
    assert "status in_progress" in out
    assert f"coverage x in [1,{a[2].hi}) of [1,100000)" in out
    assert f"segments a_values {len(a) - 2}/{len(a)}" in out
    assert f"members {sum(e.count for e in a) - a[3].count - a[5].count}" in out
    assert out[-3:] == [
        "pending 2",
        f"pending a_values [{a[3].lo},{a[3].hi})",
        f"pending a_values [{a[5].lo},{a[5].hi})",
    ]


def test_status_of_a_damaged_store_is_data_error(tmp_path, capsys):
    st = sieve.run_pipeline(sieve.SieveConfig(10**8, 1024), tmp_path / "d")
    victim = st.root / st.manifest.entries_of(store.KIND_PRIME)[1].filename
    victim.write_bytes(victim.read_bytes()[:-1])
    before = _tree_digest(st.root)
    assert cli.main(["status", "--data", str(st.root)]) == 65
    captured = capsys.readouterr()
    assert "pending 1" in captured.out and "data error" in captured.err
    assert _tree_digest(st.root) == before
    (st.root / store.MANIFEST_NAME).write_text("goo-manifest 1\nbound_b 5\n")
    assert cli.main(["status", "--data", str(st.root)]) == 65
    assert cli.main(["status", "--data", str(tmp_path / "nope")]) == 65


def _swap_first_two(root: Path, kind: str) -> None:
    """Swap the filename and digest of the manifest's first two ``kind`` lines."""
    path = root / store.MANIFEST_NAME
    lines = path.read_text().splitlines()
    i, j = [n for n, ln in enumerate(lines) if ln.startswith(f"segment {kind} ")][:2]
    a, b = lines[i].split(), lines[j].split()
    a[5:], b[5:] = b[5:], a[5:]
    lines[i], lines[j] = " ".join(a), " ".join(b)
    path.write_text("\n".join(lines) + "\n")


def test_a_line_naming_another_segments_file_is_data_error(tmp_path, capsys):
    # both files stay intact and match the digests beside them; only their
    # headers show that each line names the other range's file
    out = str(tmp_path / "d")
    sieve_args = ["sieve", "--limit", "1e8", "--segment", "1024", "--threads", "1",
                  "--out", out, "--quiet"]
    assert cli.main(sieve_args) == 0
    _swap_first_two(tmp_path / "d", store.KIND_A)
    for command in (["verify", "--quiet"], ["count", "--at", "1e6"]):
        assert cli.main([*command, "--data", out]) == 65
        assert "is not the listed [1,2048)" in capsys.readouterr().err
    assert cli.main(["status", "--data", out]) == 65
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "pending 2", "pending a_values [1,2048)", "pending a_values [2048,4096)",
    ]
    assert cli.main([*sieve_args, "--resume"]) == 0
    capsys.readouterr()
    assert cli.main(["count", "--data", out, "--at", "1e6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["pi_q"] == 112


def test_a_range_listed_twice_is_data_error_until_resume_repairs_it(tmp_path, capsys):
    out = tmp_path / "d"
    sieve_args = ["sieve", "--limit", "1e8", "--segment", "1024", "--threads", "1",
                  "--out", str(out), "--quiet"]
    assert cli.main(sieve_args) == 0
    clean = _tree_digest(out)
    path = out / store.MANIFEST_NAME
    lines = path.read_text().splitlines()
    first_a = next(n for n, ln in enumerate(lines) if ln.startswith("segment a_values "))
    lines.insert(first_a, lines[first_a])
    path.write_text("\n".join(lines) + "\n")
    for command in (["verify", "--quiet"], ["count", "--at", "1e6"]):
        assert cli.main([*command, "--data", str(out)]) == 65
        assert "[1,2048) is listed more than once" in capsys.readouterr().err
    assert cli.main(["status", "--data", str(out)]) == 65
    status = capsys.readouterr().out.splitlines()
    # neither line is trusted: the range counts as pending, not twice
    assert "coverage x in [1,1) of [1,10000)" in status
    assert "segments a_values 4/5" in status
    assert "members 629" in status  # 841 below 10^4, less the 212 of [1,2048)
    assert status[-2:] == ["pending 1", "pending a_values [1,2048)"]
    assert cli.main([*sieve_args, "--resume"]) == 0
    assert "values 841" in capsys.readouterr().out
    assert _tree_digest(out) == clean  # one line per range again


def test_a_second_writer_is_refused_with_io_error(tmp_path, capsys):
    out = tmp_path / "d"
    sieve_args = ["sieve", "--limit", "1e4", "--segment", "1024", "--out", str(out),
                  "--quiet"]
    st = sieve.run_pipeline(sieve.SieveConfig(10**4, 1024), out)
    st.manifest.status = "in_progress"  # so a fresh sieve would start over
    st._write_manifest()
    before = _tree_digest(out)
    held = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for extra in ([], ["--resume"]):
            assert cli.main([*sieve_args, *extra]) == 74
            err = capsys.readouterr().err
            assert f"another goo sieve is writing to {out}" in err
            assert _tree_digest(out) == before
    finally:
        os.close(held)
    assert cli.main(sieve_args) == 0


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sieve_bad_thread_count_is_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "d"
    code = cli.main(["sieve", "--limit", "1e4", "--threads", threads, "--out", str(out)])
    assert code == 64
    assert "thread_count must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads, want", [(None, 2), ("16", 2), ("2", 2), ("1", 1)])
def test_sieve_threads_stop_at_the_usable_cpus(tmp_path, monkeypatch, threads, want):
    # each thread keeps two blocks in flight, so threads past the CPUs the
    # process may run on cost memory and no speed; no thread is started here
    class Captured(Exception):
        pass

    def capture(config, *args, **kwargs):
        raise Captured(config)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.sieve, "run_pipeline", capture)
    argv = ["sieve", "--limit", "1e4", "--out", str(tmp_path / "d")]
    with pytest.raises(Captured) as caught:
        cli.main(argv + (["--threads", threads] if threads else []))
    assert caught.value.args[0].thread_count == want


def test_sieve_bad_limit(tmp_path):
    assert cli.main(["sieve", "--limit", "abc", "--out", str(tmp_path)]) == 64
    assert cli.main(["sieve", "--limit", "1.5", "--out", str(tmp_path)]) == 64
    assert cli.main(["sieve", "--limit", "99", "--out", str(tmp_path)]) == 64



def test_numbers_parse_exactly(capsys):
    assert cli._parse_number("6.25e8") == 625_000_000
    # through a float this would be 123456789012345664, an even number
    assert cli._parse_number("12345678901234567e1") == 123456789012345670
    assert cli.main(["oracle", "prime", "123456789012345671e0"]) == 0
    assert capsys.readouterr().out.strip() == "prime"
    # non-integers that a float would round to an integer
    assert cli.main(["oracle", "a", "--limit", "100.000000000000001"]) == 64
    for text in ("nan", "inf", "1e999999999"):
        assert cli.main(["oracle", "prime", text]) == 64
    capsys.readouterr()

# -- verify -------------------------------------------------------------------


def test_verify_end_to_end(run_1e6, tmp_path, capsys):
    csv = tmp_path / "champs.csv"
    code = cli.main(["verify", "--data", str(run_1e6), "--quiet",
                     "--champions", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "members seen:      112" in out
    assert "largest offset j:  7" in out
    assert csv.read_text() == "n,a_n,j\n16,74,3\n55,384,6\n100,860,7\n"
    # the champion table renders under the summary
    row = [ln.split() for ln in out.splitlines() if ln.strip().startswith("16 ")]
    assert row and row[0] == ["16", "74", "106", "3", "1.08"]


def test_verify_json_is_the_whole_report(run_1e6, capsys):
    code = cli.main(["verify", "--data", str(run_1e6), "--quiet", "--json"])
    got = json.loads(capsys.readouterr().out)
    assert code == 0
    report = goldbach.verify_stream(store.SegmentStore.open(run_1e6).read_a_stream())
    assert got == {
        "members": report.members,
        "verified": report.verified,
        "last_member": report.last_member,
        "max_j": report.max_j,
        "champions": [{"n": n, "a_n": a, "j": j} for n, a, j in report.champions],
        "j_histogram": {str(j): c for j, c in report.j_histogram.items()},
    }
    assert got["members"] == 112 and got["max_j"] == 7
    assert sum(got["j_histogram"].values()) == got["verified"]


def _store_of(root: Path, values: list) -> str:
    """A complete, digest-valid store at 10^4 whose one A segment holds values."""
    st = store.SegmentStore.create(root, 10**4, 1024)
    (lo, hi), = store.a_segment_ranges(10**4, 1024)
    st.write_a_segment(ASegment(lo=lo, hi=hi, values=np.array(values, np.int64)))
    st.finalize()
    return str(root)


def test_verify_json_counterexample(tmp_path, capsys):
    data = _store_of(tmp_path / "d", [1, 2, 4, 12])
    for flags, want in (
        (["--json"], '{"counterexample": {"n": 4, "a_n": 12}}\n'),
        ([], "counterexample member 4 value 12\n"),
    ):
        assert cli.main(["verify", "--data", data, "--quiet", *flags]) == 2
        assert capsys.readouterr().out == want


def test_verify_of_values_that_are_not_a_prefix_of_a_is_data_error(tmp_path, capsys):
    # the digests hold, but the stream does not start at the member 1
    assert cli.main(["verify", "--data", _store_of(tmp_path / "d", [2, 4, 6])]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data error: stream must start at the first member 1, got 2" in captured.err


def test_verify_of_odd_values_is_data_error(tmp_path, capsys):
    # 3 and 9 are odd, so 3^2 + 1 and 9^2 + 1 are even: neither is in A
    for values in ([1, 2, 3], [1, 2, 4, 9]):
        data = _store_of(tmp_path / str(values[-1]), values)
        for flags in ([], ["--json"]):
            assert cli.main(["verify", "--data", data, "--quiet", *flags]) == 65
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"data error: odd value {values[-1]} is not in A" in captured.err


def test_verify_missing_data_dir(tmp_path):
    assert cli.main(["verify", "--data", str(tmp_path / "nope")]) == 65


def test_verify_incomplete_run(tmp_path):
    store.SegmentStore.create(tmp_path / "d", 10**4, 1024)
    assert cli.main(["verify", "--data", str(tmp_path / "d")]) == 65


def test_verify_damaged_manifest(run_1e6, tmp_path):
    manifest = (run_1e6 / store.MANIFEST_NAME).read_text()
    assert "segment_len 1024\n" in manifest
    (tmp_path / store.MANIFEST_NAME).write_text(
        manifest.replace("segment_len 1024\n", "segment_len 0\n")
    )
    assert cli.main(["verify", "--data", str(tmp_path), "--quiet"]) == 65


# -- count --------------------------------------------------------------------


def test_count_table(run_1e6, tmp_path, capsys):
    csv = tmp_path / "counts.csv"
    code = cli.main(["count", "--data", str(run_1e6), "--at", "1e4,1e6",
                     "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln.split() for ln in out.splitlines()]
    assert lines[1][:2] == ["10^4", "19"]
    assert lines[2][:2] == ["10^6", "112"]
    assert csv.read_text().splitlines()[1].startswith("10000,19,")


def test_count_json_is_the_rows(run_1e6, capsys):
    code = cli.main(["count", "--data", str(run_1e6), "--at", "1e4,1e6", "--json"])
    got = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = analytics.count_table(
        store.SegmentStore.open(run_1e6).read_a_stream(), [10**4, 10**6], covered_to=1000
    )
    assert got == {"rows": [dataclasses.asdict(r) for r in rows]}
    assert [r["pi_q"] for r in got["rows"]] == [19, 112]


def test_count_beyond_coverage(run_1e6):
    assert cli.main(["count", "--data", str(run_1e6), "--at", "1e8"]) == 64


def test_count_needs_a_point(run_1e6, capsys):
    assert cli.main(["count", "--data", str(run_1e6), "--at", ","]) == 64
    assert "--at needs at least one point" in capsys.readouterr().err


def _sieve_1e8(out: Path) -> store.SegmentStore:
    """A finished 10^8 run at segment 1024: A segments [1,2048), [2048,4096),
    [4096,6144), [6144,8192) and [8192,10000)."""
    return sieve.run_pipeline(sieve.SieveConfig(10**8, 1024), out)


def test_count_takes_the_listed_counts_of_digest_checked_segments(tmp_path, capsys):
    # isqrt(2e7 - 1) = 4472 falls in [4096,6144), isqrt(1e7 - 1) = 3162 in [2048,4096)
    st = _sieve_1e8(tmp_path / "d")
    data = ["--data", str(st.root)]
    assert cli.main(["count", *data, "--at", "2e7", "--json"]) == 0
    clean = capsys.readouterr().out
    # damage the payload of [2048,4096), then list the damaged file's digest
    entry = st.manifest.entries_of(store.KIND_A)[1]
    path = st.root / entry.filename
    raw = bytearray(path.read_bytes())
    raw[-1] |= 0x80
    path.write_bytes(bytes(raw))
    rehashed = dataclasses.replace(entry, digest=hashlib.sha256(raw).hexdigest())
    st.manifest.entries = [rehashed if e == entry else e for e in st.manifest.entries]
    st._write_manifest()
    # past the segment, its listed count stands; a threshold inside it decodes it
    assert cli.main(["count", *data, "--at", "2e7", "--json"]) == 0
    assert capsys.readouterr().out == clean
    for command in (["count", "--at", "1e7"], ["verify", "--quiet"]):
        assert cli.main([*command, *data]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: truncated varint at end of segment" in captured.err


def test_count_reads_no_segment_past_the_last_threshold(tmp_path, capsys):
    # isqrt(4095^2) = 4095 is the last value [2048,4096) can hold
    st = _sieve_1e8(tmp_path / "d")
    data = ["--data", str(st.root)]
    at = ["--at", f"1e6,{4095**2 + 1}"]
    assert cli.main(["count", *data, *at]) == 0
    clean = capsys.readouterr().out
    # [4096,6144) loses its manifest line and [8192,10000) its file
    a = st.manifest.entries_of(store.KIND_A)
    st.manifest.entries.remove(a[2])
    st._write_manifest()
    (st.root / a[4].filename).unlink()
    assert cli.main(["count", *data, *at]) == 0
    assert capsys.readouterr().out == clean
    assert cli.main(["count", *data, "--at", "1e8"]) == 65
    assert "[4096,6144) is listed nowhere" in capsys.readouterr().err
    assert cli.main(["status", *data]) == 65
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "pending 2", "pending a_values [4096,6144)", "pending a_values [8192,10000)",
    ]


def test_count_does_not_apply_the_a_shape_rule(tmp_path, capsys):
    # 3 and 9 are odd, so not in A, yet the digest-valid segment counts
    # 5 members through x = 100; only goo verify refuses the store
    data = _store_of(tmp_path / "d", [1, 2, 3, 4, 9])
    assert cli.main(["count", "--data", data, "--at", "100", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["pi_q"] == 5
    assert cli.main(["verify", "--data", data, "--quiet"]) == 65
    assert "odd value 3 is not in A" in capsys.readouterr().err


# -- cq -----------------------------------------------------------------------


def test_cq_output(capsys):
    code = cli.main(["cq", "--prime-limit", "1e4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stored   1.3728134628182" in out
    assert "computed 1.37" in out
    assert "delta" in out


def test_cq_bad_prime_limit(monkeypatch, capsys):
    # a sieve to 10^13 would ask for terabytes; it is refused before it starts
    def refuse(*args):
        raise AssertionError(f"a sieve was called with {args}")

    monkeypatch.setattr(sieve, "small_primes", refuse)
    monkeypatch.setattr(sieve, "sieve_segment_1mod4", refuse)
    for limit, message in (
        ("2", "prime_limit must be at least 3"),
        ("1e13", "prime_limit above 1e+09 is not supported"),
    ):
        assert cli.main(["cq", "--prime-limit", limit]) == 64
        assert message in capsys.readouterr().err


# -- hyp ----------------------------------------------------------------------


def test_hyp_check(capsys):
    assert cli.main(["hyp", "check", "--poly", "1,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "satisfied"
    assert cli.main(["hyp", "check", "--poly", "1,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "violated 2"
    assert cli.main(["hyp", "check", "--poly", "sq:65,1", "--poly", "sq:65,9"]) == 0
    assert capsys.readouterr().out.strip() == "satisfied"


def test_hyp_scan(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = cli.main(["hyp", "scan", "--poly", "sq:65,1", "--poly", "sq:65,9",
                     "--limit", "200", "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "hits 7" in out
    assert "through 10: 1 hits" in out
    assert "y: 1, 21, 45, 87, 97, 145, 165" in out
    assert csv.read_text().splitlines()[1] == "1,4357,5477,1"


def test_hyp_usage_errors(capsys):
    assert cli.main(["hyp"]) == 64
    assert cli.main(["hyp", "check", "--poly", "x"]) == 64
    assert cli.main(["hyp", "scan", "--poly", "1,1,2", "--limit", "10"]) == 64
    big = ["hyp", "scan", "--poly", "sq:65,1", "--poly", "sq:65,9",
           "--limit", "1e9"]
    assert cli.main(big) == 64
    capsys.readouterr()


# -- oracle -------------------------------------------------------------------


def test_oracle_a(capsys):
    assert cli.main(["oracle", "a", "--limit", "100"]) == 0
    out = capsys.readouterr().out
    assert [int(x) for x in out.split()] == A_BELOW_100


def test_oracle_prime(capsys):
    assert cli.main(["oracle", "prime", "5477"]) == 0
    assert capsys.readouterr().out.strip() == "prime"
    assert cli.main(["oracle", "prime", "5777"]) == 0
    assert capsys.readouterr().out.strip() == "composite"
    assert cli.main(["oracle", "prime", "2"]) == 0
    assert capsys.readouterr().out.strip() == "prime"
    for n in ("0", "1"):
        assert cli.main(["oracle", "prime", n]) == 0
        assert capsys.readouterr().out.strip() == "neither"
    assert cli.main(["oracle", "prime", "--", "-7"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


def test_oracle_prime_refuses_numbers_past_64_bits(capsys):
    # 399165290221 * 798330580441, the least strong pseudoprime to all
    # twelve witnesses; 2^64 - 59 is the largest 64-bit prime
    assert cli.main(["oracle", "prime", "318665857834031151167461"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "2^64" in captured.err
    assert cli.main(["oracle", "prime", str(2**64)]) == 64
    capsys.readouterr()
    assert cli.main(["oracle", "prime", "18446744073709551557"]) == 0
    assert capsys.readouterr().out.strip() == "prime"


def test_oracle_j(capsys):
    assert cli.main(["oracle", "j", "--limit", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2,2,1"
    assert "16,74,3" in lines


def test_oracle_usage(capsys):
    assert cli.main(["oracle"]) == 64
    assert cli.main(["oracle", "a", "--limit", "1e8"]) == 64  # brute cap
    capsys.readouterr()


# -- plumbing -----------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 64
    assert cli.main(["bogus"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_data_dir_from_environment(run_1e6, monkeypatch, capsys):
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(run_1e6))
    assert cli.main(["verify", "--quiet"]) == 0
    assert "members seen:      112" in capsys.readouterr().out


def test_data_dir_required(monkeypatch, capsys):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    assert cli.main(["verify"]) == 64
    assert cli.DATA_DIR_ENV in capsys.readouterr().err


@pytest.mark.parametrize("module", ["goo.cli", "goo"])
def test_module_entry_points_run_without_warnings(module):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "oracle", "prime", "5477"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "prime\n", "")
