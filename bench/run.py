"""Benchmark for goo. One workload per run; the last stdout line is JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: goo is imported from ``src/``.
The timed part runs in one process and one thread. Set-up runs in child
processes that have exited before the timed part starts, so
``peak_rss_mb`` is the timed part's own memory. The timed part repeats
whole rounds of the workload's operations until ``--seconds`` have passed
(at least one round). ``run_s`` is the median round and ``setup_s`` the
median child set-up plus loading its result, both in CPU seconds (see
``cpu_seconds``). Outputs are checked against checks.py after the timed
part.

With ``--trace 1`` the run times one round with spans around goo's public
functions (tracing.py), reports the per-layer metrics and writes the spans
to ``.bench_run/``.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import traceback
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"

if not (ROOT / "src" / "goo" / "__init__.py").is_file():
    sys.exit(f"no goo sources at {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from goo import analytics, goldbach, hypotheses, sieve, store
from goo.records import PrimeRootBlock

import checks

BIG_BOUND = 10**16
POINTS = [10**k for k in range(1, 17)]


class Workload:
    """Set-up in a child process, then rounds of operations, then checks."""

    setup_reps = 3  # child set-ups per run; setup_s is their median
    ops = 1

    def setup(self, work):
        """Make the inputs under ``work``; runs in a child process."""

    def load(self, work):
        return None

    def round(self, inputs, work, index, stats):
        raise NotImplementedError

    def check(self, inputs, work, outputs):
        """One list of problems per operation of the round."""
        raise NotImplementedError

    def layer_counts(self, outputs):
        return {}


class Pipeline(Workload):
    segment_len = 1 << 20

    def round(self, inputs, work, index, stats):
        out = work / f"store-{index}"
        config = sieve.SieveConfig(BIG_BOUND, self.segment_len, thread_count=1)
        sieve.run_pipeline(config, out)
        return [out]

    def check(self, inputs, work, outputs):
        (out,) = outputs
        members = checks.read_store_members(out)
        problems = checks.count_problems(members, 16)
        rng = np.random.default_rng(self.seed)
        problems += checks.sample_problems(members, store.x_limit(BIG_BOUND), rng, 2000)
        reopened = store.SegmentStore.open(out)
        if not reopened.manifest.complete or reopened.resume_plan():
            problems.append("store does not reopen complete")
        return [problems]

    def layer_counts(self, outputs):
        (out,) = outputs
        files = list(out.iterdir())
        return {
            "store.bytes_written": sum(f.stat().st_size for f in files),
            "store.segments_committed": sum(f.suffix == ".bin" for f in files),
        }


class Verify(Workload):
    setup_reps = 1
    ops = 2

    def setup(self, work):
        config = sieve.SieveConfig(BIG_BOUND, 1 << 22, thread_count=1)
        sieve.run_pipeline(config, work / "store")

    def load(self, work):
        return store.SegmentStore.open(work / "store")

    def round(self, data, work, index, stats):
        report = goldbach.verify_stream(data.read_a_stream(), store=data)
        rows = analytics.count_table(
            data.read_a_stream(),
            POINTS,
            covered_to=store.x_limit(BIG_BOUND),
            c_q=checks.HL_CONSTANT,
        )
        return [report, rows]

    def check(self, data, work, outputs):
        members = checks.read_store_members(data.root)
        report, rows = outputs
        return [
            checks.verify_problems(members, report),
            checks.count_problems(members, 16) + checks.count_table_problems(members, rows),
        ]

    def layer_counts(self, outputs):
        report = outputs[0]
        return {
            "goldbach.members": report.members,
            "goldbach.offset_tests": sum(j * n for j, n in report.j_histogram.items()),
        }


class Windows(Workload):
    """50 windows of width 10^4, one drawn from each successive 2 * 10^6."""

    setup_reps = 1
    ops = 50
    width = 10**4
    reach = 10**8
    block_len = 1 << 22

    def windows(self):
        rng = random.Random(self.seed)
        stratum = self.reach // self.ops
        return [
            max(1, i * stratum + rng.randrange(stratum - self.width + 1))
            for i in range(self.ops)
        ]

    def setup(self, work):
        blocks = root_blocks(self.reach, self.block_len)
        np.savez(
            work / "roots.npz",
            lo=[b.lo for b in blocks],
            hi=[b.hi for b in blocks],
            size=[len(b) for b in blocks],
            p=np.concatenate([b.p for b in blocks]),
            r=np.concatenate([b.r for b in blocks]),
        )

    def load(self, work):
        with np.load(work / "roots.npz") as z:
            ends = np.cumsum(z["size"])
            p, r = np.split(z["p"], ends[:-1]), np.split(z["r"], ends[:-1])
            return [
                PrimeRootBlock(lo=int(lo), hi=int(hi), p=pb, r=rb)
                for lo, hi, pb, rb in zip(z["lo"].tolist(), z["hi"].tolist(), p, r)
            ]

    def round(self, blocks, work, index, stats):
        return [
            sieve.sieve_a_segment(lo, lo + self.width, blocks, stats).values
            for lo in self.windows()
        ]

    def check(self, blocks, work, outputs):
        roots = checks.root_problems(
            np.concatenate([b.p for b in blocks]), np.concatenate([b.r for b in blocks])
        )
        return [
            roots + checks.window_problems(lo, lo + self.width, got)
            for lo, got in zip(self.windows(), outputs)
        ]


class HypScan(Workload):
    """The README's family (65y + 1)^2 + 1, (65y + 9)^2 + 1 up to y = 10^6."""

    scale = 65
    shifts = (1, 9)
    y_limit = 10**6

    def round(self, inputs, work, index, stats):
        family = [hypotheses.IntPolynomial.shifted_square(self.scale, s) for s in self.shifts]
        return [hypotheses.simultaneous_prime_scan(family, self.y_limit)]

    def check(self, inputs, work, outputs):
        if not hasattr(self, "_members"):  # the reference A takes ~7 s; once per run
            top = self.scale * self.y_limit + max(self.shifts) + 1
            blocks = root_blocks(top, 1 << 22)
            self._members = sieve.sieve_a_segment(1, top, blocks).values
        (result,) = outputs
        return [
            checks.scan_problems(
                result.hits, self._members, self.scale, self.shifts, self.y_limit
            )
        ]

    def layer_counts(self, outputs):
        return {"hypotheses.hits": outputs[0].count}


WORKLOADS = {
    "pipeline-1e16": Pipeline,
    "verify-1e16": Verify,
    "windows-1e8": Windows,
    "hyp-scan": HypScan,
}


def root_blocks(reach, block_len):
    """Annotated prime-root blocks tiling [1, >= reach)."""
    bound = (reach + 2) ** 2
    base = sieve.small_primes(isqrt(reach + 4 * block_len) + 1)
    blocks = []
    for lo, hi in store.prime_segment_ranges(bound, block_len):
        primes = sieve.sieve_segment_1mod4(lo, hi, base)
        blocks.append(sieve.annotate_roots(primes, lo=lo, hi=hi))
        if hi >= reach:
            break
    return blocks


# ---------------------------------------------------------------------------
# per-layer metrics from a traced round

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def layer_metrics(tracer, counts, cpu_s, wall_s, overhead_s):
    totals = tracer.totals()
    counts = {**tracer.counts, **counts, "sieve.strikes": tracer.strike_stats.strikes}
    values = {}
    for name in LAYER_UNITS:
        span, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls") and span in totals:
            calls, inclusive, own = totals[span]
            values[name] = {"s": inclusive, "self_s": own, "calls": calls}[field]
        else:
            values[name] = counts.get(name, 0)
    calls = values["oracle.is_prime_64.calls"]
    values["hypotheses.hits_per_prime_test"] = counts.get("hypotheses.hits", 0) / calls if calls else 0.0
    values["run.cpu_s"], values["run.wall_s"] = cpu_s, wall_s
    values["trace.overhead_s"] = overhead_s
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Times are CPU seconds of one process (user + system). The timed part is
# single-threaded, so this is its wall time less the waits: time stolen by
# the host from a shared virtual CPU, and blocking I/O. On the 2-vCPU
# machine the README describes, stolen time moved the wall time of identical
# runs by up to 30%, far beyond any bound worth having.


def cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def child_setup(workload, work):
    """CPU seconds of fresh interpreters that import goo and make the inputs."""
    times = []
    for _ in range(workload.setup_reps):
        before = cpu_seconds(resource.RUSAGE_CHILDREN)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--setup", "--dir", str(work)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(cpu_seconds(resource.RUSAGE_CHILDREN) - before)
    return statistics.median(times)


def run_round(workload, inputs, work, index, stats):
    """(CPU seconds, wall seconds, outputs) of one round."""
    c0, t0 = time.process_time(), time.perf_counter()
    outputs = workload.round(inputs, work, index, stats)
    return time.process_time() - c0, time.perf_counter() - t0, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.name, workload.seed = args.workload, args.seed
    if args.setup:
        workload.setup(args.dir)
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = child_setup(workload, work)
        c_load = time.process_time()
        inputs = workload.load(work)
        setup_s += time.process_time() - c_load

        rounds = []
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer:
                rounds.append(run_round(workload, inputs, work, 0, tracer.strike_stats))
        else:
            began = time.perf_counter()
            while not rounds or time.perf_counter() - began < args.seconds:
                rounds.append(run_round(workload, inputs, work, len(rounds), sieve.SieveStats()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed = 0
        for _, _, outputs in rounds:
            try:
                verdicts = workload.check(inputs, work, outputs)
            except Exception:
                traceback.print_exc()
                verdicts = [["check raised"]] * workload.ops
            for problems in verdicts:
                for line in problems[:5]:
                    print("CHECK FAILED:", line, file=sys.stderr)
                failed += bool(problems)

        if args.trace:
            ((cpu_s, wall_s, outputs),) = rounds
            overhead_s = len(tracer.spans) * tracer.span_cost()
            metrics = layer_metrics(tracer, workload.layer_counts(outputs), cpu_s, wall_s, overhead_s)
            top = tracer.top_level_seconds()
            print(
                f"traced run_s {cpu_s:.3f} (wall {wall_s:.3f}), top-level spans {top:.3f} s, "
                f"{len(tracer.spans)} spans, overhead {overhead_s:.3f} s",
                file=sys.stderr,
            )
            tracer.write(
                WORK / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "run_s": cpu_s,
                 "wall_s": wall_s, "top_level_s": top, "overhead_s": overhead_s},
            )
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "run_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        result = {
            "correct": failed == 0,
            "attempted": workload.ops * len(rounds),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
