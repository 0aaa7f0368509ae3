"""Newick text for the unrooted trees this package works with.

Reading takes the usual rooted nesting, ignores branch lengths (each must
still read as a number), rejects interior labels, and keeps only the leaf
clusters; degree-2 vertices (including a degree-2 root) vanish on their
own because equal clusters collapse into one split. Like writing, it
refuses a tree on fewer than three leaves.

Writing roots the tree at the vertex next to leaf 0. The split masks,
each the side without leaf 0, nest as the clusters below that root, and
one descent over them writes children in order of their smallest leaf,
so every tree has exactly one rendering and reading it back returns the
identical value. The masks must be pairwise compatible, which
tree_from_splits checks and every tree built in this package satisfies.
"""

from __future__ import annotations

import re

from .errors import ParseError, InteriorLabelError, QuartetError, TooFewLeavesError
from .model import LeafSet, PhyloTree, _canonical, _move_mask

# labels may not contain structural characters or whitespace; \s matches
# exactly the characters for which str.isspace() is true
_BAD_LABEL_CHAR = re.compile(r"[():,;|#\s]")

_LENGTH_CHARS = set("0123456789.+-eE")


def parse_newick(text: str) -> PhyloTree:
    """Tree from Newick text.

    Branch lengths are accepted and dropped. Labels on interior vertices
    are an error rather than silently discarded data.
    """
    pos = 0
    end = len(text)
    labels: list[str] = []
    clusters: list[int] = []  # bit masks over label-appearance order

    def skip_ws() -> None:
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def skip_length() -> None:
        nonlocal pos
        skip_ws()
        if pos < end and text[pos] == ":":
            pos += 1
            skip_ws()
            start = pos
            while pos < end and text[pos] in _LENGTH_CHARS:
                pos += 1
            try:
                float(text[start:pos])
            except ValueError:
                raise ParseError(
                    "expected a numeric branch length after ':'", position=start
                ) from None

    def parse_subtree() -> int:
        nonlocal pos
        skip_ws()
        if pos >= end:
            raise ParseError("unexpected end of input", position=pos)
        if text[pos] == "(":
            pos += 1
            below = parse_subtree()
            skip_ws()
            while pos < end and text[pos] == ",":
                pos += 1
                below |= parse_subtree()
                skip_ws()
            if pos >= end or text[pos] != ")":
                raise ParseError("expected ')' or ','", position=pos)
            pos += 1
            skip_ws()
            if pos < end and text[pos] not in ":,();":
                raise InteriorLabelError(
                    "labels on interior vertices are not supported", position=pos
                )
            skip_length()
            clusters.append(below)
            return below
        start = pos
        stop = _BAD_LABEL_CHAR.search(text, pos)
        pos = stop.start() if stop else end
        if pos == start:
            raise ParseError("expected a leaf label", position=pos)
        labels.append(text[start:pos])
        skip_length()
        return 1 << (len(labels) - 1)

    root = parse_subtree()
    skip_ws()
    if pos >= end or text[pos] != ";":
        raise ParseError("expected ';'", position=pos)
    pos += 1
    skip_ws()
    if pos != end:
        raise ParseError("trailing text after ';'", position=pos)
    del root
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
    # largest first, so the first split found inside a cluster that holds
    # a given leaf is the child of that cluster on the leaf's side
    order = sorted(tree.masks, key=int.bit_count, reverse=True)

    def render(cluster: int) -> str:
        parts = []
        rest = cluster
        while rest:
            low = rest & -rest
            for m in order:
                if m & low and m != cluster and m & ~cluster == 0:
                    parts.append(render(m))
                    rest &= ~m
                    break
            else:
                parts.append(leaves.labels[low.bit_length() - 1])
                rest ^= low
        return "(" + ",".join(parts) + ")"

    return render(leaves.full_mask()) + ";"
