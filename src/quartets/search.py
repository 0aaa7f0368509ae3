"""Randomized search for minimal definitive quartet sets of a target size or more.

Minimal definitive sets larger than the 2n-8 construction exist (size 7
on 7 leaves, 11 on 8), but the maximum size for a given n is not known
here, so this is an explorer, not a decision procedure.
Each trial draws a random set of the requested size and repairs it
toward definitiveness: cover leaves nobody mentions, and when two
displayers survive, add a quartet that one displays and the other does
not. A trial that lands on a definitive set is then stripped of
redundant quartets (in canonical order, so runs are reproducible). The
strip's own removal checks prove the stripped set minimal and
definitive, so it is reported without being decided again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .decide import NOT_DEFINITIVE, _removal_witnesses, minimality_report
from .errors import QuartetError, TooFewLeavesError
from .model import (
    LeafSet,
    PhyloTree,
    Quartet,
    QuartetSet,
    displays,
    integer_leaves,
    normalized_quartet,
)

# bounded local repair; trials that keep ballooning are abandoned
_REPAIR_STEPS = 24
_SEPARATION_TRIES = 8


@dataclass(frozen=True)
class SearchFinding:
    n: int
    quartets: QuartetSet
    size: int
    verdict: str  # always "minimal_definitive"; present for report stability
    seed: int
    trials_used: int


@lru_cache(maxsize=1)
def _quartet_rows(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every normalized quartet on n leaves as its index tuple, in Quartet order.

    Built once per n, since run_search draws from it on every call; only
    the last n's rows are kept, as there are 3 C(n, 4) of them.
    """
    # a < b < c < d, so these three are in normal form already, and
    # sorting the index tuples gives the Quartet order
    rows = []
    for a, b, c, d in combinations(range(n), 4):
        rows += ((a, b, c, d), (a, c, b, d), (a, d, b, c))
    return tuple(sorted(rows))


def all_quartets(leaves: LeafSet) -> list[Quartet]:
    """Every normalized quartet on the leaf set, in canonical order."""
    return [Quartet(*row) for row in _quartet_rows(leaves.n)]


def _random_quartet_over(rng: random.Random, members: list[int]) -> Quartet:
    four = rng.sample(members, 4)
    return normalized_quartet(*four)


def _pick_separator(
    rng: random.Random, n: int, mask: int, avoid_tree: PhyloTree
) -> Quartet:
    """A quartet split by `mask`, preferring one the given tree fails to display.

    mask is a nontrivial split, so both sides have two leaves to draw and
    the first draw is always there to fall back on.
    """
    inside = [v for v in range(n) if (mask >> v) & 1]
    outside = [v for v in range(n) if not (mask >> v) & 1]
    fallback = None
    for _ in range(_SEPARATION_TRIES):
        a, b = rng.sample(inside, 2)
        c, d = rng.sample(outside, 2)
        q = normalized_quartet(a, b, c, d)
        if fallback is None:
            fallback = q
        if not displays(avoid_tree, q):
            return q
    return fallback


def run_search(
    n: int,
    target_size: int,
    budget: int,
    seed: int,
    *,
    cap: int | None = None,
) -> list[SearchFinding]:
    """Up to `budget` random trials for minimal definitive sets of size >= target_size.

    Deterministic for a fixed (n, target_size, budget, seed). Each repair
    step decides its set through minimality_report, so the set a trial
    lands on is decided once, and the strip reads the report that decided
    it. The strip asks the same removal check, decide._removal_witnesses,
    about one later quartet at a time. Those checks are the proof that
    the stripped set is minimal and definitive, so it is not decided
    again. Findings are deduplicated.
    """
    if n < 4:
        raise TooFewLeavesError("search needs at least four leaves")
    if target_size < 1:
        raise QuartetError("target size must be at least 1")
    if budget < 1:
        raise QuartetError("budget must be at least 1")
    rng = random.Random(seed)
    leaves = integer_leaves(n)
    # index tuples, so that only the quartets drawn are built
    rows = _quartet_rows(n)
    full = leaves.full_mask()
    members = list(range(n))
    findings: list[SearchFinding] = []
    seen: set[frozenset] = set()
    for trial in range(1, budget + 1):
        drawn = rng.sample(rows, min(target_size, len(rows)))
        chosen = {Quartet(*row) for row in drawn}
        settled = None
        for _ in range(_REPAIR_STEPS):
            qs = QuartetSet(leaves, frozenset(chosen))
            support = qs.support_mask()
            if support != full:
                missing = [v for v in members if not (support >> v) & 1]
                anchor = rng.choice(missing)
                rest = rng.sample([v for v in members if v != anchor], 3)
                chosen.add(_random_quartet_over(rng, [anchor] + rest))
                continue
            report = minimality_report(qs, mode="fast", cap=cap)
            verdict = report.verdict
            if verdict.is_definitive:
                settled = qs
                break
            if verdict.status == NOT_DEFINITIVE:
                # two distinct binary trees, so the first has a split the
                # second lacks
                first, second = verdict.examples
                edge = rng.choice(sorted(set(first.masks) - set(second.masks)))
                q = _pick_separator(rng, n, edge, second)
                if q not in chosen:
                    chosen.add(q)
                    continue
            # incompatible, or the separator is already in: shake one quartet loose
            drop = rng.choice(sorted(chosen))
            chosen.discard(drop)
            chosen.add(Quartet(*rng.choice(rows)))
        if settled is None:
            continue
        if report.minimal is False:
            # the stripped set K is minimal and definitive, by three steps:
            # 1. every drop is checked, so K still defines T. The report
            #    checked the first: it marked q redundant only after proving
            #    that S minus q defines T. Each later q gets the same removal
            #    check on the current set: T displays it minus q, so it
            #    minus q defines some tree only if that tree is T.
            # 2. each kept q was found needed in S, or in a larger kept set
            #    when its check came. A second displayer of that set minus q
            #    also displays K minus q, so q is still needed in K.
            # 3. K defines a tree on all n leaves, so it mentions every leaf.
            tree = report.verdict.tree
            redundant = [q for q, w in report.entries if w.kind == "redundant"]
            kept = [q for q, _ in report.entries if q != redundant[0]]
            pairs = [q.pair_masks() for q in kept]
            for q in redundant[1:]:
                i = kept.index(q)
                if _removal_witnesses(pairs, tree, (i,), cap)[i].kind == "redundant":
                    del kept[i], pairs[i]
            settled = QuartetSet(leaves, frozenset(kept))
        key = settled.quartets
        if len(key) < target_size or key in seen:
            continue
        seen.add(key)
        findings.append(
            SearchFinding(n, settled, len(key), "minimal_definitive", seed, trial)
        )
    return findings
