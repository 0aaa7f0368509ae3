"""Newick text for the unrooted trees this package works with.

Reading takes the usual rooted nesting, ignores branch lengths (each must
still read as a number), rejects interior labels, and keeps only the leaf
clusters; degree-2 vertices (including a degree-2 root) vanish on their
own because equal clusters collapse into one split. It walks the nesting
with an explicit stack of open clusters, so any depth reads. Like
writing, it refuses a tree on fewer than three leaves.

Writing roots the tree at the vertex next to leaf 0. The split masks,
each the side without leaf 0, nest as the clusters below that root. One
pass writes them smallest first: a cluster's parts are the leaves and
the clusters already written directly inside it, each named by its
smallest leaf, and they are written in that order. Every edge is visited
once, every tree has exactly one rendering, and reading it back returns
the identical value. The masks must be pairwise compatible, which
tree_from_splits checks and every tree built in this package satisfies.
"""

from __future__ import annotations

import re

from .errors import ParseError, InteriorLabelError, QuartetError, TooFewLeavesError
from .model import LeafSet, PhyloTree, _canonical, _move_mask

# labels may not contain structural characters or whitespace; \s matches
# exactly the characters for which str.isspace() is true
_BAD_LABEL_CHAR = re.compile(r"[():,;|#\s]")

_SPACE = re.compile(r"\s*")
_LENGTH = re.compile(r"[0-9.+\-eE]*")


def parse_newick(text: str) -> PhyloTree:
    """Tree from Newick text.

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


def serialize_newick(tree: PhyloTree) -> str:
    """Canonical Newick for the tree, invertible by parse_newick."""
    leaves = tree.leaves
    n = leaves.n
    if n < 3:
        raise TooFewLeavesError("serialisation needs at least three leaves")
    if _BAD_LABEL_CHAR.search("".join(leaves.labels)):
        for label in leaves.labels:
            if _BAD_LABEL_CHAR.search(label):
                raise QuartetError(f"label {label!r} cannot be written in this format")
    # smallest first, so every cluster inside m is written before m, and
    # the root, the full mask, last; reps holds the smallest leaf of each
    # part written so far, and a written cluster's text sits at the slot
    # of its smallest leaf
    full = leaves.full_mask()
    piece = list(leaves.labels)
    reps = full
    for m in sorted(tree.masks, key=int.bit_count) + [full]:
        parts = []
        rest = m & reps
        while rest:
            low = rest & -rest
            parts.append(piece[low.bit_length() - 1])
            rest ^= low
        low = m & -m
        piece[low.bit_length() - 1] = "(" + ",".join(parts) + ")"
        reps = reps & ~m | low
    return piece[0] + ";"
