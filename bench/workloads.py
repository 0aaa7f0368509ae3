"""The four workloads: their inputs, one batch of ops, and output checks.

A workload builds its inputs from the seed in its constructor (that is
set-up), exposes `ops`, a fixed batch of zero-argument callables that
each call into the package and return what it produced, and checks one
output with `check`, outside the timed region. `fingerprint` reduces an
output to a cheap comparable value, so repeats of a batch are checked
by equality with the first, fully checked, batch.

Every call goes through a module attribute (`quartets.defines`,
`quartets.cli.main`, ...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter

import quartets
import quartets.cli

import gen

# unrooted trees with no degree-2 vertex, by leaf count (OEIS A000311, shifted)
ALL_TREES = {4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208, 9: 660032}


def binary_trees(n: int) -> int:
    """(2n-5)!!, the number of unrooted binary trees on n leaves."""
    out = 1
    for k in range(3, 2 * n - 4, 2):
        out *= k
    return out


class Certify:
    """The headline: re-verify the 2n-8 construction level by level."""

    name = "certify"
    expects = (
        "cli.main", "construct.verify_construction", "construct.witness_chain",
        "decide.defines_fast", "decide.defines_oracle", "decide.minimality_report",
        "model.displays", "model.surgery",
    )

    def __init__(self, seed: int, tiny: bool):
        self.max_n = 8 if tiny else 12
        self.argv = ["verify-theorem", "--max-n", str(self.max_n),
                     "--oracle-max-n", "6" if tiny else "7", "--json"]
        self.ops = [self.verify]

    def verify(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = quartets.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, i, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        if payload["all_ok"] is not True:
            return "all_ok is not true"
        levels = {level["n"]: level["ok"] for level in payload["levels"]}
        if sorted(levels) != list(range(5, self.max_n + 1)):
            return f"levels reported: {sorted(levels)}"
        return None

    def fingerprint(self, i, output):
        return output

    def describe(self, outputs):
        return f"{self.name}: verify-theorem up to n={self.max_n}"


class OracleCheck:
    """Seeded sets on 6-8 leaves decided fast and by the oracle, then for minimality."""

    name = "oracle-check"
    expects = (
        "quartetfile.parse", "decide.defines_fast", "decide.defines_oracle",
        "decide.minimality_report",
    )

    def __init__(self, seed: int, tiny: bool):
        self.inputs = gen.quartet_inputs(seed, (6, 7) if tiny else (6, 7, 8),
                                         1 if tiny else 40)
        # the sampled trees, read back through the package's Newick reader
        self.sources = [
            quartets.parse_newick(inp.source.newick) if inp.source else None
            for inp in self.inputs
        ]
        self.ops = [lambda text=inp.text: self.decide(text) for inp in self.inputs]

    @staticmethod
    def decide(text):
        qs = quartets.parse_quartet_file(text)
        fast = quartets.defines(qs)
        oracle = quartets.defines(qs, mode="oracle")
        return qs, fast, oracle, quartets.minimality_report(qs)

    def check(self, i, output):
        qs, fast, oracle, report = output
        kind = self.inputs[i].kind
        source = self.sources[i]
        if fast.status != oracle.status:
            return f"fast says {fast.status}, oracle says {oracle.status}"
        expected_count = {quartets.DEFINES: 1, quartets.INCOMPATIBLE: 0}
        count = oracle.displayer_count
        if count != expected_count.get(oracle.status, count) or (
            oracle.status == quartets.NOT_DEFINITIVE and count < 2
        ):
            return f"oracle status {oracle.status} with {count} displayers"
        if fast.is_definitive and fast.tree != oracle.tree:
            return "fast and oracle define different trees"
        if report.verdict.status != fast.status:
            return "minimality_report disagrees with defines"
        for q, witness in report.entries:
            if witness.kind != "alternative_tree":
                continue
            rest = [other for other, _ in report.entries if other != q]
            if witness.tree == fast.tree or not all(
                quartets.displays(witness.tree, other) for other in rest
            ):
                return "an alternative_tree witness fails to display the rest"
        if kind == gen.CONSTRUCTION_MINUS_ONE and fast.status != quartets.NOT_DEFINITIVE:
            return f"construction minus one quartet came back {fast.status}"
        if source is not None and source.leaves == qs.leaves:
            shown = all(quartets.displays(source, q) for q in qs)
            if kind == gen.TREE_SAMPLE and not shown:
                return "the source tree does not display its own sample"
            if kind == gen.SAMPLE_PLUS_CONFLICT and shown:
                return "the source tree displays the conflicting quartet"
            if kind == gen.TREE_SAMPLE and fast.is_definitive and fast.tree != source:
                return "a sample defines a tree other than its source"
        return None

    def fingerprint(self, i, output):
        qs, fast, oracle, report = output
        return (fast.status, fast.tree, oracle.displayer_count, report.minimal,
                tuple((q, w.kind) for q, w in report.entries))

    def describe(self, outputs):
        mix = Counter(o[1].status for o in outputs if o is not None)
        kinds = Counter(inp.kind for inp in self.inputs)
        return (f"{self.name}: {len(self.inputs)} sets ({dict(kinds)}); verdicts "
                + " ".join(f"{s}={mix[s]}" for s in
                           (quartets.DEFINES, quartets.NOT_DEFINITIVE, quartets.INCOMPATIBLE)))


class Enumerate:
    """Unpruned enumeration, tree objects and Newick, with no decision at all."""

    name = "enumerate"
    expects = ("enumeration.count_trees", "enumeration.enumerate_trees",
               "newick.serialize", "newick.parse")

    def __init__(self, seed: int, tiny: bool):
        self.count_n, self.walk_n = (7, 6) if tiny else (10, 8)
        self.offset = seed % 10  # which tenth of the trees is read back
        self.ops = [self.count, self.walk]

    def count(self):
        return quartets.count_trees(self.count_n, "binary")

    def walk(self):
        texts = []
        pairs = []
        for i, tree in enumerate(quartets.enumerate_trees(self.walk_n, "all")):
            text = quartets.serialize_newick(tree)
            texts.append(text)
            if i % 10 == self.offset:
                pairs.append((tree, quartets.parse_newick(text)))
        return texts, pairs

    def check(self, i, output):
        if i == 0:
            want = binary_trees(self.count_n)
            return None if output == want else f"count_trees gave {output}, want {want}"
        texts, pairs = output
        want = ALL_TREES[self.walk_n]
        if len(texts) != want or len(set(texts)) != want:
            return f"{len(texts)} trees, {len(set(texts))} distinct, want {want}"
        if not all(tree == back for tree, back in pairs):
            return "a Newick round trip changed the tree"
        return None

    def fingerprint(self, i, output):
        if i == 0:
            return output
        texts, pairs = output
        return hash(tuple(texts)), all(tree == back for tree, back in pairs)

    def describe(self, outputs):
        return (f"{self.name}: count_trees({self.count_n}) and every tree on "
                f"{self.walk_n} leaves through Newick")


class Search:
    """Many small randomized searches: short, mixed fast decisions."""

    name = "search"
    expects = ("search.run_search", "decide.defines_fast", "decide.minimality_report",
               "model.displays")

    def __init__(self, seed: int, tiny: bool):
        self.n, self.target = (7, 5) if tiny else (8, 6)
        self.seeds = gen.trial_seeds(seed, 10 if tiny else 600)
        self.ops = [lambda s=s: quartets.run_search(self.n, self.target, 1, s)
                    for s in self.seeds]

    def check(self, i, output):
        for finding in output:
            qs = finding.quartets
            report = quartets.minimality_report(qs)
            if not (report.verdict.is_definitive and report.minimal):
                return "a finding is not minimal definitive"
            if finding.size != len(qs) or finding.size < self.target:
                return f"a finding has size {finding.size}"
            oracle = quartets.defines(qs, mode="oracle")
            if not oracle.is_definitive or oracle.tree != report.verdict.tree:
                return "the oracle disagrees on a finding"
        return None

    def fingerprint(self, i, output):
        return tuple(finding.quartets for finding in output)

    def describe(self, outputs):
        found = sum(len(o) for o in outputs if o is not None)
        return f"{self.name}: {len(self.seeds)} trials on {self.n} leaves, {found} findings"


WORKLOADS = {w.name: w for w in (Certify, OracleCheck, Enumerate, Search)}
