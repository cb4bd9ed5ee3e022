"""Command-line surface.

Machine-readable results go to stdout; progress and diagnostics go to
stderr. Exit codes: 0 success, 2 verified counterexample, 64 usage,
65 data corruption, 74 I/O failure, 130 interrupted.
"""

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import analytics, goldbach, hypotheses, oracle, sieve, store

EX_OK = 0
EX_COUNTEREXAMPLE = 2
EX_USAGE = 64
EX_CORRUPT = 65
EX_IO = 74
EX_INTERRUPT = 130

DATA_DIR_ENV = "GOO_DATA_DIR"
MAX_DIGITS = 100  # no argument needs more; bounds the int a short "1e..." builds


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit 64
        raise UsageError(message)


@contextmanager
def _usage_errors(*errors):
    """Report the block's ``errors``, raised on bad arguments, as usage errors."""
    try:
        yield
    except errors as e:
        raise UsageError(str(e)) from None


def _parse_number(text: str) -> int:
    """Exact integer, allowing scientific notation like 1e12 or 6.25e8."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise UsageError(f"not a number: {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise UsageError(f"not an integer: {text!r}")
    if value.adjusted() >= MAX_DIGITS:
        raise UsageError(f"more than {MAX_DIGITS} digits: {text!r}")
    return int(value)


def _parse_points(text: str) -> list:
    """Comma-separated numbers, as ``_parse_number`` reads each; at least one."""
    points = [_parse_number(s) for s in text.split(",") if s.strip()]
    if not points:
        raise UsageError("--at needs at least one point")
    return points


def _data_dir(explicit) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise UsageError(f"--data/--out required (or set {DATA_DIR_ENV})")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, which a CPU-limited container narrows; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> _Parser:
    top = _Parser(prog="goo", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("sieve", help="sieve all values below a bound")
    p.add_argument(
        "--limit", type=_parse_number, required=True, help="bound on a^2+1, e.g. 1e12"
    )
    p.add_argument("--segment", type=_parse_number, default=1 << 20, help="segment length")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="sieving threads, at most the CPUs the process may run on "
        "(default: all of those); each keeps two blocks in flight",
    )
    p.add_argument("--resume", action="store_true")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("status", help="inspect a store without changing it")
    p.add_argument("--data", default=None)

    p = sub.add_parser("verify", help="check the decomposition property")
    p.add_argument("--data", default=None)
    p.add_argument("--champions", default=None, help="write champion CSV here")
    p.add_argument("--json", action="store_true", help="print the full report as JSON")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("count", help="counts against both density models")
    p.add_argument("--data", default=None)
    p.add_argument(
        "--at", type=_parse_points, required=True, help="points, e.g. 1e6,1e9,1e12"
    )
    p.add_argument("--csv", default=None, help="also write CSV here")
    p.add_argument("--json", action="store_true", help="print the rows as JSON")

    p = sub.add_parser("cq", help="recompute the density constant")
    p.add_argument(
        "--prime-limit", type=_parse_number, default=10**6, help="at most 1e9 (peak RSS 900 MB)"
    )

    p = sub.add_parser("hyp", help="polynomial family tools")
    hyp_sub = p.add_subparsers(dest="hyp_command", metavar="check|scan", required=True)
    c = hyp_sub.add_parser("check", help="local obstruction test")
    c.add_argument("--poly", action="append", required=True, metavar="SPEC")
    s = hyp_sub.add_parser("scan", help="simultaneous prime arguments")
    s.add_argument("--poly", action="append", required=True, metavar="SPEC")
    s.add_argument("--limit", type=_parse_number, required=True)
    s.add_argument("--csv", default=None)

    p = sub.add_parser("oracle", help="brute-force spot checks")
    o_sub = p.add_subparsers(dest="oracle_command", metavar="a|prime|j", required=True)
    a = o_sub.add_parser("a", help="enumerate members directly")
    a.add_argument("--limit", type=_parse_number, required=True)
    pr = o_sub.add_parser("prime", help="deterministic primality")
    pr.add_argument("n", type=_parse_number)
    j = o_sub.add_parser("j", help="decomposition offsets, quadratic time")
    j.add_argument("--limit", type=_parse_number, required=True)

    return top


def _progress_writer(quiet: bool):
    if quiet:
        return None
    return lambda msg: print(msg, file=sys.stderr, flush=True)


def _cmd_sieve(args) -> int:
    # more threads than CPUs add blocks in flight, not speed
    threads = min(args.threads, _usable_cpus())
    with _usage_errors(ValueError):
        config = sieve.SieveConfig(args.limit, args.segment, thread_count=threads)
    out = _data_dir(args.out)
    if not args.resume and _holds_complete_run(out):
        raise UsageError(
            f"{out} holds a complete run; pass --resume to keep it, "
            f"or remove {out} to sieve again"
        )
    with _usage_errors(sieve.ResumeGeometryError):
        st = sieve.run_pipeline(
            config, out, resume=args.resume, progress=_progress_writer(args.quiet)
        )
    intact = [(kind, count) for kind, _, _, count in st.account() if count is not None]
    print(f"values {sum(count for kind, count in intact if kind == store.KIND_A)}")
    print(f"limit {st.manifest.bound_b}")
    print(f"segments {len(intact)}")
    return EX_OK


def _holds_complete_run(root: Path) -> bool:
    try:
        return store.SegmentStore.open(root).manifest.complete
    except store.StoreError:  # no manifest, or a damaged one: nothing to keep
        return False


def _cmd_status(args) -> int:
    """Print what a store holds and what a resume would redo; read only."""
    st = store.SegmentStore.open(_data_dir(args.data))
    m = st.manifest
    rows = st.account()
    pending = [(kind, lo, hi) for kind, lo, hi, count in rows if count is None]
    intact = [(kind, count) for kind, _, _, count in rows if count is not None]
    limit = store.x_limit(m.bound_b)
    covered = next((lo for kind, lo, _ in pending if kind == store.KIND_A), limit)
    print(f"status {m.status}")
    print(f"bound {m.bound_b}")
    print(f"segment_len {m.segment_len}")
    print(f"coverage x in [1,{covered}) of [1,{limit})")
    for kind, ranges in st.ranges.items():
        print(f"segments {kind} {sum(k == kind for k, _ in intact)}/{len(ranges)}")
    print(f"members {sum(count for kind, count in intact if kind == store.KIND_A)}")
    print(f"pending {len(pending)}")
    for kind, lo, hi in pending:
        print(f"pending {kind} [{lo},{hi})")
    if m.complete and pending:
        raise store.CorruptSegmentError(
            f"complete run with {len(pending)} missing or damaged segments; "
            "repair it with sieve --resume"
        )
    return EX_OK


def _cmd_verify(args) -> int:
    st = store.SegmentStore.open(_data_dir(args.data))
    if not st.manifest.complete:
        raise store.ManifestError("run is incomplete; finish it with sieve --resume")
    try:
        report = goldbach.verify_stream(
            st.read_a_stream(), progress=_progress_writer(args.quiet)
        )
    except ValueError as e:  # the stored values are not A's ascending prefix
        raise store.StoreError(str(e)) from None
    except goldbach.CounterexampleFound as e:
        if args.json:
            print(json.dumps({"counterexample": {"n": e.n, "a_n": e.a_n}}))
        else:
            print(f"counterexample member {e.n} value {e.a_n}")
        return EX_COUNTEREXAMPLE
    if args.json:
        champions = [c._asdict() for c in report.champions]
        print(json.dumps({**dataclasses.asdict(report), "champions": champions}))
    else:
        print(report.summary())
        if report.champions:
            print()
            print(goldbach.format_champion_table(goldbach.champion_table(report.champions)))
    if args.champions:
        with open(args.champions, "w", encoding="utf-8") as fh:
            goldbach.write_champions_csv(report.champions, fh)
    return EX_OK


def _cmd_count(args) -> int:
    st = store.SegmentStore.open(_data_dir(args.data))
    limit = store.x_limit(st.manifest.bound_b)
    with _usage_errors(ValueError):  # StreamTooShortError among them
        rows = analytics.count_table(st.read_a_stream(), args.at, covered_to=limit)
    if args.json:
        print(json.dumps({"rows": [dataclasses.asdict(r) for r in rows]}))
    else:
        print(analytics.format_count_table(rows))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(analytics.count_table_csv(rows))
    return EX_OK


def _cmd_cq(args) -> int:
    with _usage_errors(ValueError):
        computed = analytics.compute_cq(args.prime_limit)
    stored = analytics.DEFAULT_HL_CONSTANT
    print(f"stored   {stored:.13f}")
    print(f"computed {computed:.13f}  (odd primes to {args.prime_limit})")
    print(f"delta    {abs(computed - stored):.3e}")
    return EX_OK


def _cmd_hyp(args) -> int:
    with _usage_errors(ValueError):
        polys = [hypotheses.parse_polynomial(s) for s in args.poly]
    if args.hyp_command == "check":
        bad = hypotheses.bunyakovsky_check(polys)
        if bad is None:
            print("satisfied")
        else:
            print(f"violated {bad}")
        return EX_OK
    with _usage_errors(ValueError, hypotheses.ValueOverflowError):
        result = hypotheses.simultaneous_prime_scan(polys, args.limit)
    print(f"hits {result.count}")
    for cp in result.checkpoints:
        print(f"through {cp.y}: {cp.hits} hits, shape constant {cp.fitted_constant:.4f}")
    shown = ", ".join(str(y) for y in result.hits[:20])
    more = "" if result.count <= 20 else f", ... ({result.count - 20} more)"
    print(f"y: {shown}{more}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(hypotheses.scan_csv(result))
    return EX_OK


def _cmd_oracle(args) -> int:
    if args.oracle_command == "a":
        with _usage_errors(ValueError):
            for a in oracle.brute_a(args.limit):
                print(a)
        return EX_OK
    if args.oracle_command == "prime":
        with _usage_errors(ValueError):
            prime = oracle.is_prime_64(args.n)
        print("prime" if prime else "composite")
        return EX_OK
    with _usage_errors(ValueError):
        members = oracle.brute_a(args.limit)
    for n in range(2, len(members) + 1):
        print(f"{n},{members[n - 1]},{oracle.brute_j(members, n)}")
    return EX_OK


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "sieve": _cmd_sieve,
        "status": _cmd_status,
        "verify": _cmd_verify,
        "count": _cmd_count,
        "cq": _cmd_cq,
        "hyp": _cmd_hyp,
        "oracle": _cmd_oracle,
    }[args.command]
    return handler(args)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else list(argv))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except store.StoreError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EX_CORRUPT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EX_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EX_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
