"""Exhaustive, duplicate-free streams of phylogenetic trees.

Trees on n leaves are generated by inserting leaves in index order,
starting from the 3-leaf star. In "binary" mode the new leaf subdivides
one of the 2k-3 edges of a k-leaf binary tree; "all" mode additionally
attaches the new leaf directly to an interior vertex, which is what
produces the trees with vertices of degree above three. Deleting the
highest leaf inverts any insertion, so each tree is reached exactly once.

Everything runs on canonical split masks (side without leaf index 0).
Inserting leaf k into the edge whose canonical mask is u rewrites an
existing split m to m | 1<<k exactly when u is a subset of m, because the
insertion point lies inside the component on m's side precisely then;
the subdivided edge contributes the two masks u and u | 1<<k, each kept
when nontrivial. Attaching to an interior vertex uses the fact that the
vertices of a tree are the root end (next to leaf 0) plus one vertex per
split m, sitting on the far side of exactly the splits containing m.

Insertion positions are scanned in a fixed order (edge masks ascending,
then the root-end vertex, then per-split vertices by ascending mask), so
the stream order is deterministic and restarting reproduces it.

Every stream grows through the one depth-first walk, _grow, and each
caller supplies only the children of a tree. The streams here keep them
all; a caller that prunes leaves some out, and a tree left out grows
nothing, so the survivors keep their stream order.

A k-leaf tree with s splits has k + s edges and, in "all" mode, s + 1
interior vertices, one child per position. Each edge child has s + 1
splits and each vertex child s, so the number of grandchildren follows
from k and s alone. count_trees therefore reads the stream only to n-2
leaves and sums each tree's grandchildren: that is the size of the
stream on n leaves, with its last two levels never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Literal

from .errors import CapError, QuartetError, TooFewLeavesError
from .model import (
    MAX_LEAVES,
    LeafSet,
    PhyloTree,
    _unchecked_tree,
    integer_leaves,
)

Mode = Literal["binary", "all"]

BINARY_CAP = 12  # 654,729,075 trees, the documented worst case
ALL_CAP = 9  # 660,032 trees

_MODES = ("binary", "all")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise QuartetError(f"mode must be one of {_MODES}, got {mode!r}")


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 3:
        raise QuartetError(f"cap must be at least 3 leaves, got {cap}")


def _check_size(n: int, mode: str, cap: int | None) -> None:
    _check_cap(cap)
    if n < 3:
        raise TooFewLeavesError("enumeration needs at least 3 leaves")
    if n > MAX_LEAVES:
        integer_leaves(n)  # raises the model's leaf-cap error, whatever the cap
    limit = cap if cap is not None else (BINARY_CAP if mode == "binary" else ALL_CAP)
    if n > limit:
        raise CapError(f"{n} leaves exceeds the enumeration cap {limit} for mode {mode!r}")


# the pendant edges of a tree on leaves 0..k-1, ascending, for every k;
# leaf 0's is (1 << k) - 2, since its canonical side is everyone else.
# The rows are slices of one tuple, so they share its ints.
_LEAF = tuple(1 << v for v in range(MAX_LEAVES))
_PENDANT = [_LEAF[1:k] + (_LEAF[k] - 2,) for k in range(MAX_LEAVES)]


def _edges(splits: tuple[int, ...], k: int) -> list[int]:
    """The canonical masks of every edge of a tree on leaves 0..k-1, ascending."""
    return sorted(_PENDANT[k] + splits)


def _insert(splits: tuple[int, ...], k: int, edges: list[int]) -> list[tuple[int, ...]]:
    """The trees obtained by subdividing each given edge with leaf k, in order.

    splits is ascending, and so is each child, built without a sort.
    Subdividing edge u turns each split m that strictly contains u into
    m | 1<<k and adds u | 1<<k beside u. The sides that gain leaf k sort
    after every other side and keep their order, and u | 1<<k is the
    smallest of them; every other split keeps its place, u too when it
    is one. Leaf 0's pendant edge is the exception: no split contains
    it, u | 1<<k is trivial, and u, every leaf but 0, becomes a split
    larger than all the others.
    """
    bitk = 1 << k
    root = bitk - 2
    children = []
    for u in edges:
        if u == root:
            children.append(splits + (u,))
            continue
        head = []
        tail = [u | bitk]
        for m in splits:
            if m <= u or m | u != m:  # not a strict superset of u
                head.append(m)
            else:
                tail.append(m | bitk)
        children.append(tuple(head + tail))
    return children


def _children(splits: tuple[int, ...], k: int, all_mode: bool) -> list[tuple[int, ...]]:
    """The trees obtained by inserting leaf k, in canonical position order:
    one per edge (_insert), then in "all" mode one per interior vertex,
    the root end first, where nothing moves, then the vertex of each
    split v in turn.

    Attaching k to v's vertex turns each split m that contains v, v too,
    into m | 1<<k. As in _insert, those sides sort after every other side
    and keep their order, and every other split keeps its place, so each
    child's splits are ascending, built without a sort.
    """
    children = _insert(splits, k, _edges(splits, k))
    if all_mode:
        bitk = 1 << k
        children.append(splits)  # attach beside leaf 0's neighbour, nothing moves
        for v in splits:
            head = []
            tail = []
            for m in splits:
                if m | v != m:
                    head.append(m)
                else:
                    tail.append(m | bitk)
            children.append(tuple(head + tail))
    return children


def _positions(k: int, s: int, all_mode: bool) -> int:
    """How many trees _children returns for a tree on k leaves with s
    splits, building none.

    One per edge: k pendant edges and one per split. "all" mode adds one
    per interior vertex: the root end and one per split.
    """
    edges = k + s
    return edges + 1 + s if all_mode else edges


def _grandchildren(k: int, s: int, all_mode: bool) -> int:
    """How many trees a tree on k leaves with s splits grows by inserting
    leaves k and k+1, building none.

    Subdividing an edge adds one split, so each of the tree's
    _positions(k, s, False) edge children has s + 1 splits; attaching to
    a vertex moves splits but adds none, so each of its other children,
    the vertex ones of "all" mode, has s. Each child then has its own
    _positions on k + 1 leaves.
    """
    edges = _positions(k, s, False)
    vertices = _positions(k, s, all_mode) - edges
    return (
        edges * _positions(k + 1, s + 1, all_mode)
        + vertices * _positions(k + 1, s, all_mode)
    )


def _grow(
    n: int, children: Callable[[tuple[int, ...], int], list[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """Yield the trees on leaf indices 0..n-1 that children grows, depth
    first in stream order: the one walk every tree stream goes through.

    children(splits, k) gives the trees that inserting leaf k into the
    tree on leaves 0..k-1 gives, in position order, or the ones of them
    a caller keeps. A tree it leaves out grows nothing, so pruning drops
    its whole subtree and keeps the survivors in stream order.
    """
    if n == 3:
        yield ()  # the star, the only tree on three leaves
        return
    stack: list[tuple[tuple[int, ...], int]] = [((), 3)]
    while stack:
        splits, k = stack.pop()
        found = children(splits, k)
        if k == n - 1:
            yield from found
        else:
            for child in reversed(found):
                stack.append((child, k + 1))


def _stream_masks(n: int, mode: Mode) -> Iterator[tuple[int, ...]]:
    """Yield split-mask tuples of every tree on leaf indices 0..n-1.

    _grow with every child of _children: this supplies the children only.
    """
    all_mode = mode == "all"
    return _grow(n, lambda splits, k: _children(splits, k, all_mode))


@dataclass(frozen=True)
class TreeStream:
    """Restartable deterministic stream of trees on a leaf set.

    Iterating wraps each tree as a PhyloTree; the same object can be
    iterated repeatedly and always replays the same order. The wrap skips
    the PhyloTree constructor's sort, dedupe and per-mask checks, which
    every tuple _stream_masks yields would pass: each child is built
    strictly ascending (see _insert and _children), inserting a leaf
    never adds index 0 to a side nor shrinks one, and each new split
    has at least two leaves on either side.
    """

    leaves: LeafSet
    mode: Mode = "binary"
    cap: int | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        _check_size(self.leaves.n, self.mode, self.cap)

    def __iter__(self) -> Iterator[PhyloTree]:
        leaves = self.leaves
        for masks in _stream_masks(leaves.n, self.mode):
            yield _unchecked_tree(leaves, masks)


def enumerate_trees(
    leaves: LeafSet | int,
    mode: Mode = "binary",
    *,
    cap: int | None = None,
) -> TreeStream:
    """Stream every phylogenetic tree on the leaf set, each exactly once.

    "binary" yields the trees with all interior vertices of degree 3;
    "all" yields every tree with no degree-2 vertices. An integer n is
    shorthand for leaves labelled "1".."n".
    """
    if isinstance(leaves, int):
        leaves = integer_leaves(leaves)
    return TreeStream(leaves, mode, cap)


def count_trees(n: int, mode: Mode = "binary", *, cap: int | None = None) -> int:
    """Count the trees the stream yields on n leaves.

    The stream's last two levels are the trees that inserting leaves n-2
    and n-1 gives each tree on n-2 leaves, and their number depends only
    on that tree's split count (_grandchildren). So the count reads the
    stream to n-2 leaves and adds each tree's _grandchildren, without
    building the last two levels. It still walks the stream rather than
    evaluating a formula, so it can serve as one side of closed-form
    cross-checks.
    """
    _check_mode(mode)
    _check_size(n, mode, cap)
    if n == 3:
        return 1
    all_mode = mode == "all"
    if n == 4:
        return _positions(3, 0, all_mode)  # the children of the star
    k = n - 2
    return sum(_grandchildren(k, len(s), all_mode) for s in _stream_masks(k, mode))
