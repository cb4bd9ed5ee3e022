"""Spans and counts around goo's public functions, installed from outside.

``Tracer.install`` replaces the named functions and methods with timing
wrappers for the life of a ``with`` block and puts the originals back
after it; nothing under ``src/`` knows about tracing. Each wrapped call
records one span: name, start, end, parent span and self time. For a
generator function every ``next()`` is one span, so the time a consumer
spends waiting on the iterator it reads becomes the consumer's child time.
Self time is a span's duration minus the durations of its child spans.
Spans are timed in process CPU seconds, the clock ``run_s`` uses.

``read_a_stream`` is left unwrapped: it yields one integer per member, and
timing millions of yields would cost more than it measures. Its segment
reads and decodes are still spans (``read_a_segments``,
``decode_a_segment``), so only its per-member yield lands in the self time
of the function consuming it.
"""

import inspect
import json
import time
from collections import Counter, defaultdict

from goo import analytics, goldbach, hypotheses, sieve, store
from goo.store import SegmentStore

# (owner, attribute, span name). hypotheses imports is_prime_64 by name,
# so that is the reference the scan calls.
TARGETS = (
    (sieve, "small_primes", "sieve.small_primes"),
    (sieve, "sieve_segment_1mod4", "sieve.sieve_segment_1mod4"),
    (sieve, "annotate_roots", "sieve.annotate_roots"),
    (sieve, "sieve_a_segment", "sieve.sieve_a_segment"),
    (store, "encode_prime_segment", "store.encode_prime_segment"),
    (store, "decode_prime_segment", "store.decode_prime_segment"),
    (store, "encode_a_segment", "store.encode_a_segment"),
    (store, "decode_a_segment", "store.decode_a_segment"),
    (SegmentStore, "write_prime_segment", "store.write_prime_segment"),
    (SegmentStore, "write_a_segment", "store.write_a_segment"),
    (SegmentStore, "read_prime_blocks", "store.read_prime_blocks"),
    (SegmentStore, "read_a_segments", "store.read_a_segments"),
    (SegmentStore, "lookup_a", "store.lookup_a"),
    (goldbach, "verify_stream", "goldbach.verify_stream"),
    (analytics, "count_table", "analytics.count_table"),
    (hypotheses, "simultaneous_prime_scan", "hypotheses.simultaneous_prime_scan"),
    (hypotheses, "bunyakovsky_check", "hypotheses.bunyakovsky_check"),
    (hypotheses, "is_prime_64", "oracle.is_prime_64"),
)


class Tracer:
    def __init__(self):
        # closed spans as (id, name, parent id or -1, start, end, self seconds);
        # tuples of plain values, which the garbage collector stops tracking
        self.spans = []
        self.counts = Counter()
        self.strike_stats = sieve.SieveStats()
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._saved = []

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        self._stack.append([self._next_id, name, time.process_time(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = time.process_time()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, parent, start, end, duration - child))

    def _wrap_call(self, name, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if observe is not None:
                args, kwargs = observe(args, kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _wrap_generator(self, name, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    if observe is not None:
                        observe(item)
                    yield item

            return items()

        return wrapper

    # -- counts taken at the same calls ---------------------------------

    def _on_sieve_sieve_a_segment(self, args, kwargs):
        args = list(args)
        blocks = args[2] if len(args) > 2 else kwargs.pop("prime_root_blocks")

        def counted():
            for block in blocks:
                self.counts["sieve.sieve_a_segment.pairs_in"] += len(block)
                yield block

        if len(args) > 2:
            args[2] = counted()
        else:
            kwargs["prime_root_blocks"] = counted()
        # run_pipeline passes no SieveStats; give it one so strikes are kept
        if len(args) < 4 and kwargs.get("stats") is None:
            kwargs["stats"] = self.strike_stats
        return tuple(args), kwargs

    def _on_sieve_annotate_roots(self, args, kwargs):
        self.counts["sieve.annotate_roots.primes"] += len(args[0])
        return args, kwargs

    def _on_store_decode_prime_segment(self, args, kwargs):
        if self._stack and self._stack[-1][1] == "store.read_prime_blocks":
            self.counts["store.read_prime_blocks.bytes"] += len(args[0])
        return args, kwargs

    def _on_store_read_prime_blocks(self, block):
        self.counts["store.read_prime_blocks.blocks"] += 1

    def _on_store_read_a_segments(self, segment):
        self.counts["store.read_a_segments.segments"] += 1

    # -- install / remove -----------------------------------------------

    def __enter__(self):
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # -- reports ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _id, name, _parent, start, end, own in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def span_cost(self, calls=20000):
        """CPU seconds one wrapped call adds, measured on a function that
        does nothing; times the span count, it estimates the tracing
        overhead of a run without a second, untraced round."""

        def nothing():
            return None

        wrapped = Tracer()._wrap_call("calibration", nothing)
        start = time.process_time()
        for _ in range(calls):
            nothing()
        plain = time.process_time() - start
        start = time.process_time()
        for _ in range(calls):
            wrapped()
        return max(time.process_time() - start - plain, 0.0) / calls

    def top_level_seconds(self):
        return sum(span[4] - span[3] for span in self.spans if span[2] == -1)

    def write(self, path, extra):
        body = {
            "fields": ["id", "name", "parent", "start", "end", "self_s"],
            "spans": sorted(self.spans),
            "counts": dict(self.counts),
            **extra,
        }
        path.write_text(json.dumps(body))
