"""Newick text for the unrooted trees this package works with.

Reading takes the usual rooted nesting, ignores branch lengths (each must
still read as a number), rejects interior labels, and keeps only the leaf
clusters; degree-2 vertices (including a degree-2 root) vanish on their
own because equal clusters collapse into one split. It walks the nesting
with an explicit stack of open clusters, so any depth reads. The leaves
of a cluster are consecutive in the order the labels appear, so the
stack holds the number of labels read before each open '(', and a ')'
records its cluster as that range of label positions. Once every label
is read, one running sum below[i] of the sorted-index bits of the first
i labels gives each cluster's mask as below[stop] ^ below[first]: the
bits are distinct, so the sum is their union. Like writing, it refuses a
tree on fewer than three leaves.

Writing roots the tree at the vertex next to leaf 0. The split masks,
each the side without leaf 0, nest as the clusters below that root. One
pass writes them in the tree's stored order, ascending as integers, and
the root, the full mask, last: a cluster strictly inside m is a smaller
integer than m, so it is written before m, and clusters that do not nest
are disjoint and write to different slots, so their order does not show
in the text. A cluster's parts are the leaves and the clusters already
written directly inside it, each named by its smallest leaf, and they
are written in that order. Every edge is visited once, every tree has
exactly one rendering, and reading it back returns the identical value.
The masks must be pairwise compatible, which tree_from_splits checks and
every tree built in this package satisfies.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate

from .errors import ParseError, InteriorLabelError, QuartetError, TooFewLeavesError
from .model import LeafSet, PhyloTree, _canonical

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
    clusters: list[tuple[int, int]] = []  # (first, stop) label positions
    nest: list[int] = []  # the number of labels read before each open '('
    # whitespace is rare, so each skip over it first tests one character
    while True:
        # a subtree starts at pos
        if text[pos:pos + 1].isspace():
            pos = _SPACE.match(text, pos).end()
        if pos >= end:
            raise ParseError("unexpected end of input", position=pos)
        if text[pos] == "(":
            nest.append(len(labels))
            pos += 1
            continue
        start = pos
        stop = _BAD_LABEL_CHAR.search(text, pos)
        pos = stop.start() if stop else end
        if pos == start:
            raise ParseError("expected a leaf label", position=pos)
        labels.append(text[start:pos])
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
            clusters.append((nest.pop(), len(labels)))
        if not nest:
            break
    if pos >= end or text[pos] != ";":
        raise ParseError("expected ';'", position=pos)
    pos = _SPACE.match(text, pos + 1).end()
    if pos != end:
        raise ParseError("trailing text after ';'", position=pos)
    # every label is a non-empty str, so from_labels would only copy them
    leaves = LeafSet(tuple(labels))
    n = leaves.n
    if n < 3:
        raise TooFewLeavesError("a tree needs at least three leaves")
    full = leaves.full_mask()
    index = leaves._index
    below = list(accumulate((1 << index[label] for label in labels), initial=0))
    # the labels are distinct, so a cluster holds stop - first leaves
    masks = [
        _canonical(below[stop] ^ below[first], full)
        for first, stop in clusters
        if 2 <= stop - first <= n - 2
    ]
    # clusters of a nesting are laminar, so the splits are compatible
    return PhyloTree(leaves, masks)


@lru_cache(maxsize=16)
def _check_labels(labels: tuple[str, ...]) -> None:
    """Refuse a leaf set with a label that Newick cannot hold; a set that
    passes is remembered, so a stream of trees checks it once."""
    if _BAD_LABEL_CHAR.search("".join(labels)):
        for label in labels:
            if _BAD_LABEL_CHAR.search(label):
                raise QuartetError(f"label {label!r} cannot be written in this format")


def serialize_newick(tree: PhyloTree) -> str:
    """Canonical Newick for the tree, invertible by parse_newick."""
    labels = tree.leaves.labels
    if len(labels) < 3:
        raise TooFewLeavesError("serialisation needs at least three leaves")
    _check_labels(labels)
    # ascending, so every cluster inside m is written before m, and the
    # root, the full mask, last; reps holds the smallest leaf of each
    # part written so far, and a written cluster's text sits at the slot
    # of its smallest leaf, which is also m's smallest leaf
    full = (1 << len(labels)) - 1
    piece = list(labels)
    reps = full
    for m in tree.masks + (full,):
        low = m & -m
        first = low.bit_length() - 1
        parts = [piece[first]]
        rest = m & reps ^ low
        while rest:
            bit = rest & -rest
            parts.append(piece[bit.bit_length() - 1])
            rest ^= bit
        piece[first] = "(" + ",".join(parts) + ")"
        reps = reps & ~m | low
    return piece[0] + ";"
