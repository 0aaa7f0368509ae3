"""Independent cross-checks the test suite trusts instead of the library.

Nothing here imports the package's enumeration internals: the counts
come from closed forms and a standalone recurrence, and displayers come
from a split-system backtrack, so an agreement failure points at the
implementation, not at a shared bug. The reference readers, of quartet
files and of Newick, are the exceptions: they build the package's own
QuartetSet or PhyloTree and raise its error classes, so that their
answers compare with the package's whole.
"""

from __future__ import annotations

import logging
import random
import re
from functools import lru_cache
from itertools import combinations

from quartets import (
    DuplicateLeafError,
    InteriorLabelError,
    LeafSet,
    ParseError,
    PhyloTree,
    QuartetSet,
    TooFewLeavesError,
    make_quartet,
)
from quartets.model import _canonical, _move_mask


def binary_tree_count(n: int) -> int:
    """(2n-5)!! unrooted binary trees on n labeled leaves."""
    if n < 3:
        raise ValueError(n)
    out = 1
    for odd in range(3, 2 * n - 4, 2):
        out *= odd
    return out


def all_tree_count(n: int) -> int:
    """Trees with no degree-2 vertices on n labeled leaves, by leaf insertion.

    State: number of interior edges s. A tree with k leaves and s interior
    edges has k+s edges total and s+1 interior vertices. Inserting a new
    leaf into any edge adds one interior edge; attaching it to an interior
    vertex keeps s.
    """
    if n < 3:
        raise ValueError(n)
    counts = {0: 1}  # k = 3
    for k in range(3, n):
        nxt: dict[int, int] = {}
        for s, ways in counts.items():
            nxt[s + 1] = nxt.get(s + 1, 0) + ways * (k + s)
            nxt[s] = nxt.get(s, 0) + ways * (1 + s)
        counts = nxt
    return sum(counts.values())


def quartet_index_pool(n: int) -> list[tuple[int, int, int, int]]:
    """All normalized quartets on indices 0..n-1 as (a, b, c, d) tuples."""
    pool = []
    for a, b, c, d in combinations(range(n), 4):
        pool.append((a, b, c, d))
        pool.append((a, c, b, d))
        pool.append((a, d, b, c))
    return sorted(pool)


def random_index_sets(
    n: int, count: int, seed: int, max_size: int = 6
) -> list[list[tuple[int, int, int, int]]]:
    """Deterministic random quartet-index sets, sizes 1..max_size."""
    rng = random.Random(seed)
    pool = quartet_index_pool(n)
    out = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        out.append(rng.sample(pool, min(size, len(pool))))
    return out


@lru_cache(maxsize=None)
def split_systems(n: int) -> tuple[frozenset[frozenset[int]], ...]:
    """Every tree on leaves 0..n-1 with no degree-2 vertices, as its splits.

    By the splits-equivalence theorem such trees correspond one to one
    with sets of pairwise-compatible nontrivial splits. A split is named
    by its side without leaf 0, so two sides are compatible exactly when
    they are disjoint or nested. Backtracking over the sides in a fixed
    order reaches each compatible set once.
    """
    sides = [
        frozenset(side)
        for size in range(2, n - 1)
        for side in combinations(range(1, n), size)
    ]

    def compatible(a, b):
        return not a & b or a <= b or b <= a

    out = []

    def extend(chosen, start):
        out.append(frozenset(chosen))
        for i in range(start, len(sides)):
            if all(compatible(sides[i], c) for c in chosen):
                chosen.append(sides[i])
                extend(chosen, i + 1)
                chosen.pop()

    extend([], 0)
    return tuple(out)


def shows(splits, a: int, b: int, c: int, d: int) -> bool:
    """Whether one of the splits has a and b on one side, c and d on the other."""
    return any(
        (a in s) == (b in s) and (c in s) == (d in s) and (a in s) != (c in s)
        for s in splits
    )


def reference_displayers(
    n: int, quartets: list[tuple[int, int, int, int]]
) -> list[frozenset[frozenset[int]]]:
    """The trees on leaves 0..n-1 displaying every quartet ab|cd, as splits."""
    return [
        splits
        for splits in split_systems(n)
        if all(shows(splits, *q) for q in quartets)
    ]


def reference_newick(labels: list[str], sides) -> str:
    """Newick text of a tree, written by plain recursion over its splits.

    labels lists the leaves in index order, and each split is given by
    the labels of one side. The tree is rooted at the vertex next to
    labels[0], so each split becomes its side without labels[0], a
    cluster. A part's parent is the smallest cluster strictly containing
    it, or the root, and children are written in order of their smallest
    index.
    """
    index = {label: i for i, label in enumerate(labels)}
    everyone = frozenset(index.values())
    clusters = set()
    for side in sides:
        s = frozenset(index[x] for x in side)
        clusters.add(everyone - s if 0 in s else s)
    children: dict[frozenset[int], list[frozenset[int]]] = {
        c: [] for c in clusters | {everyone}
    }
    for part in list(clusters) + [frozenset([v]) for v in everyone]:
        parent = min((c for c in clusters if part < c), key=len, default=everyone)
        children[parent].append(part)

    def write(part: frozenset[int]) -> str:
        if len(part) == 1:
            return labels[min(part)]
        return "(" + ",".join(write(c) for c in sorted(children[part], key=min)) + ")"

    return write(everyone) + ";"


_BAD_LABEL_CHAR = re.compile(r"[():,;|#\s]")
_SPACE = re.compile(r"\s*")
_LENGTH = re.compile(r"[0-9.+\-eE]*")


def reference_parse_newick(text: str) -> PhyloTree:
    """parse_newick as it was written before clusters became label
    ranges: each open cluster ORs in the bit of every leaf read under it,
    and the masks move onto the sorted leaf order bit by bit.

    Branch lengths are accepted and dropped. Labels on interior vertices
    are an error rather than silently discarded data.
    """
    pos = 0
    end = len(text)
    labels: list[str] = []
    clusters: list[int] = []  # bit masks over label-appearance order
    nest: list[int] = []  # the leaves read so far under each open '('
    # whitespace is rare, so each skip over it first tests one character
    while True:
        # a subtree starts at pos
        if text[pos:pos + 1].isspace():
            pos = _SPACE.match(text, pos).end()
        if pos >= end:
            raise ParseError("unexpected end of input", position=pos)
        if text[pos] == "(":
            nest.append(0)
            pos += 1
            continue
        start = pos
        stop = _BAD_LABEL_CHAR.search(text, pos)
        pos = stop.start() if stop else end
        if pos == start:
            raise ParseError("expected a leaf label", position=pos)
        labels.append(text[start:pos])
        below = 1 << (len(labels) - 1)
        # the subtree below ends at pos: read its length, then close every
        # cluster that ends with it, until a ',' opens the next subtree
        while True:
            if text[pos:pos + 1].isspace():
                pos = _SPACE.match(text, pos).end()
            if pos < end and text[pos] == ":":
                start = _SPACE.match(text, pos + 1).end()
                pos = _LENGTH.match(text, start).end()
                try:
                    float(text[start:pos])
                except ValueError:
                    raise ParseError(
                        "expected a numeric branch length after ':'", position=start
                    ) from None
                pos = _SPACE.match(text, pos).end()
            if not nest:
                break
            nest[-1] |= below
            if pos < end and text[pos] == ",":
                pos += 1
                break
            if pos >= end or text[pos] != ")":
                raise ParseError("expected ')' or ','", position=pos)
            pos += 1
            if text[pos:pos + 1].isspace():
                pos = _SPACE.match(text, pos).end()
            if pos < end and text[pos] not in ":,();":
                raise InteriorLabelError(
                    "labels on interior vertices are not supported", position=pos
                )
            below = nest.pop()
            clusters.append(below)
        if not nest:
            break
    if pos >= end or text[pos] != ";":
        raise ParseError("expected ';'", position=pos)
    pos = _SPACE.match(text, pos + 1).end()
    if pos != end:
        raise ParseError("trailing text after ';'", position=pos)
    leaves = LeafSet.from_labels(labels)
    n = leaves.n
    if n < 3:
        raise TooFewLeavesError("a tree needs at least three leaves")
    full = leaves.full_mask()
    # appearance order -> bit of the label's sorted index
    bit = [1 << leaves.index(label) for label in labels]
    masks = []
    for cluster in clusters:
        m = _move_mask(cluster, bit)
        if 2 <= m.bit_count() <= n - 2:
            masks.append(_canonical(m, full))
    # clusters of a nesting are laminar, so the splits are compatible
    return PhyloTree(leaves, masks)


reference_log = logging.getLogger("oracles.quartetfile")


def reference_split_line(raw: str, line: int | None):
    """The four labels of one `a,b|c,d` line, or None for a blank or
    comment line: the quartet-file reader as it was written before one
    pattern accepted its lines, split by split and label by label."""
    body = raw.split("#", 1)[0].strip()
    if not body:
        return None
    halves = body.split("|")
    if len(halves) != 2:
        raise ParseError("expected exactly one '|'", line=line)
    out = []
    for half in halves:
        names = [part.strip() for part in half.split(",")]
        if len(names) != 2:
            raise ParseError(
                "each side of '|' needs exactly two comma-separated labels",
                line=line,
            )
        for name in names:
            if not name or any(ch.isspace() or ch in ",|#" for ch in name):
                raise ParseError(f"bad label {name!r}", line=line)
            out.append(name)
    return tuple(out)


def reference_parse_quartet_text(text: str):
    """parse_quartet_text as reference_split_line reads it."""
    labels = reference_split_line(text, None)
    if labels is None:
        raise ParseError("empty quartet text")
    return labels


def reference_parse_quartet_file(text: str):
    """parse_quartet_file through reference_split_line and make_quartet,
    warning on reference_log about each repeated quartet."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parsed = reference_split_line(raw, lineno)
        if parsed is not None:
            rows.append((lineno, parsed))
    if not rows:
        raise ParseError("no quartets in input")
    leaves = LeafSet.from_labels({label for _, four in rows for label in four})
    first_seen: dict = {}
    for lineno, four in rows:
        try:
            q = make_quartet(leaves, *four)
        except DuplicateLeafError as exc:
            raise DuplicateLeafError(f"line {lineno}: {exc}") from None
        if q in first_seen:
            reference_log.warning(
                "line %d repeats quartet %s from line %d",
                lineno,
                q.text(leaves),
                first_seen[q],
            )
        else:
            first_seen[q] = lineno
    return QuartetSet(leaves, frozenset(first_seen))
