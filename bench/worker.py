"""One workload in one fresh interpreter: set up, run batches, check, report.

Started by run.py with the package on PYTHONPATH. `--t0` is the parent's
monotonic clock reading just before this process was spawned, so the
set-up time includes interpreter start, imports and input generation.
With `--setup-only` the process stops there. Otherwise it repeats the
workload's fixed batch until `--seconds` of batch time is used up and
prints one JSON line of results. With `--trace 1`, untraced and traced
batches alternate, so that the overhead of tracing is measured too.
Reported times are in reference seconds (see Clock); raw times are
printed on a line of their own.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
_perf = time.perf_counter

REF_LOOP = 20_000
REF_LOOP_S = 0.0012  # one pass of the loop, Xeon host at its faster speed
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5
SETUP_SAMPLES = 25


def _reference_loop() -> int:
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return total


class Clock:
    """Times ops, and scales their times to reference seconds.

    On a shared host the speed of one CPU drifts by up to half over
    periods of seconds to tens of seconds, more than a run short enough
    to be repeated many times in an hour can average out. So, from
    `start`, an interval timer interrupts the process every
    SAMPLE_EVERY_S, inside ops too, to time one pass of a fixed
    pure-Python loop. An op's reference time is its measured time, less
    the time those passes took, multiplied by REF_LOOP_S over the median
    duration of the passes timed within WINDOW_S of the op. Where the
    loop takes REF_LOOP_S, reference seconds are plain seconds. A change
    to the package moves its ops' times and not the loop's.
    """

    def __init__(self):
        self.at: list[float] = []  # midpoint of each loop pass
        self.loop: list[float] = []  # its duration
        self.spent = 0.0  # total time of all passes

    def sample(self, *_signal) -> None:
        t = _perf()
        _reference_loop()
        end = _perf()
        self.at.append((t + end) / 2)
        self.loop.append(end - t)
        self.spent += end - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REF_LOOP_S / statistics.median(self.loop[lo:hi] or self.loop)


class Batch:
    """One pass over the workload's ops; times are scaled by `finish`."""

    def __init__(self, workload, tracer, clock: Clock):
        self.tracer = tracer
        self.outputs = [None] * len(workload.ops)
        self.errors = {}
        self.spans = []  # (start, end, time spent in the clock's loop) of each op
        if tracer is not None:
            tracer.install()
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = i
            spent = clock.spent
            t = _perf()
            try:
                self.outputs[i] = op()
            except Exception as exc:  # an op that raises counts as failed
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            self.spans.append((t, _perf(), clock.spent - spent))
        if tracer is not None:
            tracer.uninstall()
        # as the trace's spans see it: the clock's passes included
        self.raw_wall = sum(end - start for start, end, _ in self.spans)

    def finish(self, clock: Clock) -> None:
        self.scaled = [(end - start - spent) * clock.scale(start, end)
                       for start, end, spent in self.spans]
        self.wall = sum(self.scaled)


class Checker:
    """Checks the first batch in full and every repeat against it."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None  # per op: fingerprint, or None when the op failed
        self.attempted = 0
        self.failed = 0

    def _fail(self, i, reason):
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed: {self.workload.name} op {i}: {reason}", file=sys.stderr)

    def batch(self, outputs, errors) -> None:
        wl = self.workload
        first = self.reference is None
        if first:
            self.reference = [None] * len(outputs)
        for i, output in enumerate(outputs):
            self.attempted += 1
            if i in errors:
                self._fail(i, errors[i])
                continue
            if first:
                try:
                    reason = wl.check(i, output)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is None:
                    self.reference[i] = wl.fingerprint(i, output)
                else:
                    self._fail(i, reason)
            elif self.reference[i] is None:
                self._fail(i, "failed in the first batch")
            elif wl.fingerprint(i, output) != self.reference[i]:
                self._fail(i, "output differs from the first batch")


def quantile_ms(values, q: int) -> float:
    """The q-th percentile, in ms, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def write_spans(workload, seed, batches) -> None:
    names: dict[str, int] = {}
    rows = []
    for b, spans in enumerate(batches):
        base = spans[0][1] if spans else 0.0
        for s in spans:
            rows.append([names.setdefault(s[0], len(names)), round(s[1] - base, 7),
                         round(s[2] - base, 7), s[3], s[4], b])
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "columns": ["name", "start_s", "end_s", "parent", "op", "batch"],
        "names": list(names),
        "spans": rows,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    setup_raw = time.monotonic() - args.t0
    clock = Clock()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    setup_s = setup_raw * REF_LOOP_S / statistics.median(clock.loop)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(workload)
    clock.start()
    batches, traced = [], []
    first_outputs = None
    while True:
        tracer = tracing.Tracer() if args.trace and len(batches) > len(traced) else None
        batch = Batch(workload, tracer, clock)
        if first_outputs is None:
            # through set-up and one batch; later batches only add allocator
            # fragmentation, which would tie the figure to the batch count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first_outputs = batch.outputs
        checker.batch(batch.outputs, batch.errors)
        batch.outputs = None  # checked; keep memory flat across batches
        (batches if tracer is None else traced).append(batch)
        used = [b.raw_wall for b in batches + traced]
        if sum(used) + statistics.median(used) > args.seconds and (traced or not args.trace):
            break
    clock.stop()
    for batch in batches + traced:
        batch.finish(clock)
    walls = [b.wall for b in batches]
    print(workload.describe(first_outputs))
    raw = statistics.median(b.raw_wall for b in batches)
    print(f"{workload.name}: raw batch wall median {raw:.4f} s, "
          f"raw set-up {setup_raw:.4f} s")

    result = {
        "setup_s": setup_s,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    if args.trace:
        counts = [tracing.batch_counts(b.tracer.spans, b.tracer.counts) for b in traced]
        seen = {s[0] for b in traced for s in b.tracer.spans}
        for name in workload.expects:
            if name not in seen:
                print(f"warning: traced {name} recorded no calls on {workload.name}",
                      file=sys.stderr)
        if any(c != counts[0] for c in counts):
            print("check failed: counts differ between traced batches", file=sys.stderr)
            result["failed"] += 1
        traced_wall = statistics.median(b.wall for b in traced)
        layer = dict(counts[0])
        layer.update(tracing.median_profile(
            [tracing.batch_profile(b.tracer.spans, b.raw_wall) for b in traced]))
        layer["trace.batch_wall_s"] = traced_wall
        layer["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
        result["metrics"] = layer
        write_spans(workload.name, args.seed, [b.tracer.spans for b in traced])
    else:
        latencies = [t for b in batches for t in b.scaled]
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": quantile_ms(latencies, 50),
            "op_p90_ms": quantile_ms(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        result["op_samples"] = len(latencies)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
