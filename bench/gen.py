"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed. Random binary trees are
grown by merging random pairs of subtrees (cherry merging) and emitted
as Newick text; the clusters formed along the way are kept so that the
generator knows which quartets a tree displays without asking the
package under test. The package only ever receives the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import quartets

TREE_SAMPLE = "tree_sample"
CONSTRUCTION_MINUS_ONE = "construction_minus_one"
SAMPLE_PLUS_CONFLICT = "sample_plus_conflict"
KINDS = (TREE_SAMPLE, CONSTRUCTION_MINUS_ONE, SAMPLE_PLUS_CONFLICT)


@dataclass(frozen=True)
class RandomTree:
    newick: str
    clusters: tuple[frozenset, ...]  # one side of every nontrivial split


@dataclass(frozen=True)
class QuartetInput:
    kind: str
    text: str  # one `a,b|c,d` per line, as parse_quartet_file reads it
    source: RandomTree | None  # the tree the sample came from, if any


def random_tree(rng: random.Random, labels: list[str]) -> RandomTree:
    """Binary tree on the labels, built by merging random pairs until three remain."""
    parts = [(label, frozenset([label])) for label in labels]
    clusters = []
    while len(parts) > 3:
        i, j = sorted(rng.sample(range(len(parts)), 2), reverse=True)
        text_i, side_i = parts.pop(i)
        text_j, side_j = parts.pop(j)
        merged = side_i | side_j
        parts.append((f"({text_j},{text_i})", merged))
        clusters.append(merged)  # at most n-2 leaves: three parts remain
    newick = "(" + ",".join(text for text, _ in parts) + ");"
    return RandomTree(newick, tuple(clusters))


def _separated(clusters, a, b, c, d) -> bool:
    for side in clusters:
        if a in side and b in side and c not in side and d not in side:
            return True
        if c in side and d in side and a not in side and b not in side:
            return True
    return False


def _pairings(a, b, c, d):
    return ((a, b, c, d), (a, c, b, d), (a, d, b, c))


def displayed_pairing(tree: RandomTree, four) -> tuple[str, str, str, str]:
    """The one pairing of four leaves a binary tree displays."""
    (hit,) = [p for p in _pairings(*four) if _separated(tree.clusters, *p)]
    return hit


def _line(p) -> str:
    return f"{p[0]},{p[1]}|{p[2]},{p[3]}\n"


def _tree_sample(rng, tree: RandomTree, labels, size: int) -> list[str]:
    fours = list(combinations(labels, 4))
    return [_line(displayed_pairing(tree, f)) for f in rng.sample(fours, size)]


def _construction_minus_one(rng, n: int, labels) -> list[str]:
    natural = quartets.integer_leaves(n)
    rename = dict(zip(natural.labels, labels))  # labels is a shuffled copy
    seq = list(quartets.minimal_definitive_sequence(n))
    del seq[rng.randrange(len(seq))]
    lines = []
    for q in seq:
        left, right = q.text(natural).split("|")
        a, b = left.split(",")
        c, d = right.split(",")
        lines.append(_line([rename[x] for x in (a, b, c, d)]))
    return lines


def quartet_inputs(seed: int, ns, per_cell: int) -> list[QuartetInput]:
    """per_cell sets for every (kind, n), shuffled into one list.

    Each kind and leaf count gets the same number of sets, so the mix of
    work is the same at every seed and only the draws within a cell vary.
    """
    rng = random.Random(seed)
    out = []
    for n in ns:
        for kind in KINDS:
            for _ in range(per_cell):
                labels = [str(i) for i in range(1, n + 1)]
                rng.shuffle(labels)
                if kind == CONSTRUCTION_MINUS_ONE:
                    lines = _construction_minus_one(rng, n, labels)
                    source = None
                else:
                    source = random_tree(rng, labels)
                    top = 2 * n if kind == TREE_SAMPLE else 2 * n - 1
                    lines = _tree_sample(rng, source, labels, rng.randint(n - 3, top))
                    if kind == SAMPLE_PLUS_CONFLICT:
                        four = rng.sample(labels, 4)
                        shown = displayed_pairing(source, four)
                        others = [p for p in _pairings(*four) if p != shown]
                        lines.append(_line(rng.choice(others)))
                rng.shuffle(lines)
                out.append(QuartetInput(kind, "".join(lines), source))
    rng.shuffle(out)
    return out


def trial_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]
