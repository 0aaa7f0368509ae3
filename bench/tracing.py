"""Spans around the package's public functions, recorded from outside it.

Tracer.install replaces each traced function at every place a quartets
module binds it (the defining module, the package namespace and every
module that imported it by name), so calls between modules are seen as
well as the benchmark's own calls. Nothing under src/ is edited and
uninstall puts the originals back. A span is [name, start, end, parent
span index, op index]; spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

import quartets
import quartets.cli
import quartets.construct
import quartets.decide
import quartets.enumeration
import quartets.model
import quartets.newick
import quartets.quartetfile
import quartets.search

LAYERS = (
    "cli",
    "construct",
    "decide",
    "enumeration",
    "model",
    "newick",
    "quartetfile",
    "search",
)

_perf = time.perf_counter


def _defines_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "fast")
    return "decide.defines_" + mode


def _after_defines(tracer, span, args, kwargs, verdict) -> None:
    parent = tracer.parent_name(span)
    if span[0] == "decide.defines_oracle":
        tracer.counts["decide.oracle.displayers"] += verdict.displayer_count
    elif parent != "decide.minimality_report":
        # the verdict of a decision someone asked for, not the one
        # minimality_report re-derives for the same set
        tracer.counts["decide.verdict." + verdict.status] += 1
    if parent == "search.run_search":
        tracer.counts["search.defines"] += 1


def _after_minimality(tracer, span, args, kwargs, report) -> None:
    for _, witness in report.entries:
        tracer.counts["decide.minimality." + witness.kind] += 1


def _after_verify(tracer, span, args, kwargs, report) -> None:
    tracer.counts["construct.levels"] += len(report.levels)


def _after_count(tracer, span, args, kwargs, total) -> None:
    tracer.counts["enumeration.trees"] += total


def _after_search(tracer, span, args, kwargs, findings) -> None:
    tracer.counts["search.trials"] += kwargs.get("budget", args[2] if len(args) > 2 else 0)
    tracer.counts["search.findings"] += len(findings)


def _after_serialize(tracer, span, args, kwargs, text) -> None:
    tracer.counts["newick.bytes"] += len(text)


def _after_parse_newick(tracer, span, args, kwargs, tree) -> None:
    tracer.counts["newick.bytes"] += len(args[0])


def _after_parse_quartets(tracer, span, args, kwargs, qs) -> None:
    tracer.counts["quartetfile.parse.bytes"] += len(args[0])


# function -> (span name or a function of the call's arguments, hook run after it)
TARGETS = (
    (quartets.cli.main, "cli.main", None),
    (quartets.construct.verify_construction, "construct.verify_construction", _after_verify),
    (quartets.construct.witness_chain, "construct.witness_chain", None),
    (quartets.decide.defines, _defines_name, _after_defines),
    (quartets.decide.minimality_report, "decide.minimality_report", _after_minimality),
    (quartets.enumeration.count_trees, "enumeration.count_trees", _after_count),
    (quartets.enumeration.enumerate_trees, "enumeration.enumerate_trees", None),
    (quartets.model.displays, "model.displays", None),
    (quartets.model.cherry_replace, "model.surgery", None),
    (quartets.model.reverse, "model.surgery", None),
    (quartets.model.contract, "model.surgery", None),
    (quartets.newick.serialize_newick, "newick.serialize", _after_serialize),
    (quartets.newick.parse_newick, "newick.parse", _after_parse_newick),
    (quartets.quartetfile.parse_quartet_file, "quartetfile.parse", _after_parse_quartets),
    (quartets.search.run_search, "search.run_search", _after_search),
)


class _TracedStream:
    """Iterable standing in for a TreeStream: each step of the walk is a span."""

    def __init__(self, stream, tracer: "Tracer"):
        self._stream = stream
        self._tracer = tracer

    def __iter__(self):
        tracer = self._tracer
        it = iter(self._stream)
        while True:
            span = tracer.open("enumeration.enumerate_trees")
            try:
                tree = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            tracer.counts["enumeration.trees"] += 1
            yield tree


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def parent_name(self, span) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _perf()
        return span

    def close(self, span) -> None:
        span[2] = _perf()
        self._stack.pop()

    def _wrap(self, fn, name, after):
        tracer = self
        streams = fn is quartets.enumeration.enumerate_trees

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            if streams:
                return _TracedStream(result, tracer)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded quartets modules."""
        wrappers = {id(fn): self._wrap(fn, name, after) for fn, name, after in TARGETS}
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "quartets" or key.startswith("quartets.")
        ]
        seen = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    seen.add(id(value))
        for fn, _, _ in TARGETS:
            if id(fn) not in seen:
                print(f"warning: no binding of {fn.__module__}.{fn.__name__} "
                      "found to trace", file=sys.stderr)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def batch_profile(spans, wall: float) -> dict[str, float]:
    """Shares of one traced batch's wall time, by span name and by layer."""
    busy: Counter = Counter()
    own: Counter = Counter()
    for s, self_s in zip(spans, self_times(spans)):
        name = s[0]
        layer = name.split(".", 1)[0]
        busy[name] += s[2] - s[1]
        own[name] += self_s
        own[layer] += self_s
    out = {
        "construct.verify_construction.self_frac": own["construct.verify_construction"],
        "construct.witness_chain.busy_frac": busy["construct.witness_chain"],
        "decide.defines_fast.busy_frac": busy["decide.defines_fast"],
        "decide.defines_oracle.busy_frac": busy["decide.defines_oracle"],
        "decide.minimality_report.self_frac": own["decide.minimality_report"],
        "enumeration.count_trees.busy_frac": busy["enumeration.count_trees"],
        "enumeration.enumerate_trees.busy_frac": busy["enumeration.enumerate_trees"],
        "model.displays.busy_frac": busy["model.displays"],
        "model.surgery.busy_frac": busy["model.surgery"],
        "newick.serialize.busy_frac": busy["newick.serialize"],
        "newick.parse.busy_frac": busy["newick.parse"],
        "quartetfile.parse.busy_frac": busy["quartetfile.parse"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = own[layer]
    out["trace.coverage_frac"] = sum(own[layer] for layer in LAYERS)
    return {key: value / wall for key, value in out.items()}


def batch_counts(spans, counts: Counter) -> dict[str, float]:
    """Machine-independent counts of one traced batch."""
    calls = Counter(s[0] for s in spans)
    entries = sum(counts["decide.minimality." + k]
                  for k in ("undistinguished_edge", "alternative_tree", "redundant"))
    trials = counts["search.trials"]
    out = {
        "cli.main.calls": calls["cli.main"],
        "construct.levels": counts["construct.levels"],
        "construct.witness_chain.calls": calls["construct.witness_chain"],
        "decide.defines_fast.calls": calls["decide.defines_fast"],
        "decide.defines_oracle.calls": calls["decide.defines_oracle"],
        "decide.oracle.displayers": counts["decide.oracle.displayers"],
        "decide.minimality_report.calls": calls["decide.minimality_report"],
        "decide.minimality.cheap_ratio": (
            counts["decide.minimality.undistinguished_edge"] / entries if entries else 0.0
        ),
        "enumeration.trees": counts["enumeration.trees"],
        "model.displays.calls": calls["model.displays"],
        "model.surgery.calls": calls["model.surgery"],
        "newick.serialize.calls": calls["newick.serialize"],
        "newick.parse.calls": calls["newick.parse"],
        "newick.bytes": counts["newick.bytes"],
        "quartetfile.parse.calls": calls["quartetfile.parse"],
        "quartetfile.parse.bytes": counts["quartetfile.parse.bytes"],
        "search.trials": trials,
        "search.findings": counts["search.findings"],
        "search.findings_per_trial": counts["search.findings"] / trials if trials else 0.0,
        "search.defines_per_trial": counts["search.defines"] / trials if trials else 0.0,
    }
    for kind in ("undistinguished_edge", "alternative_tree", "redundant"):
        out["decide.minimality." + kind] = counts["decide.minimality." + kind]
    for status in ("defines", "not_definitive", "incompatible"):
        out["decide.verdict." + status] = counts["decide.verdict." + status]
    return out


def median_profile(profiles: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
