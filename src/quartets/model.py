"""Core value types: leaf sets, splits, quartets, trees.

An unrooted phylogenetic tree on a leaf set L is represented by its
nontrivial splits (the bipartitions of L induced by interior edges).
That representation is canonical: two trees are equal exactly when their
split sets are equal, and any pairwise compatible set of distinct
nontrivial splits is realised by exactly one tree with no degree-2
vertices.

Splits are machine-word bit sets over dense leaf indices 0..n-1, always
holding the side that does NOT contain index 0. For two such canonical
masks, compatibility reduces to "disjoint or nested", which keeps the
hot checks to a couple of integer operations. A tree holds its masks as
one sorted tuple of ints; Split objects are built only on request.

Moving a tree or quartet set onto another leaf set (relabelling, cherry
replacement, leaf removal, reindexing) builds one table per call, old
leaf index to its place in the new leaf set, maps each mask through it
bit by bit and flips a moved split that holds index 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import (
    DuplicateLeafError,
    IncompatibleSplitsError,
    LabelCollisionError,
    NonBijectiveError,
    NoSuchSplitError,
    QuartetError,
    TooManyLeavesError,
    TrivialSplitError,
    UnknownLeafError,
)

MAX_LEAVES = 64  # splits must fit one machine word

_CHUNKS = re.compile(r"(\d+)")


def natural_key(label: str) -> tuple:
    """Sort key that orders digit runs numerically, so "2" < "10"."""
    if label.isdecimal():  # one digit run; isdecimal is exactly \d
        return (((0, int(label)),), label)
    parts = []
    for i, chunk in enumerate(_CHUNKS.split(label)):
        if not chunk:
            continue
        parts.append((0, int(chunk)) if i % 2 else (1, chunk))
    # raw label as final tiebreak so "02" and "2" stay distinct
    return (tuple(parts), label)


Label = Union[str, int]


def _as_label(x: Label) -> str:
    return x if isinstance(x, str) else str(x)


@dataclass(frozen=True)
class LeafSet:
    """Ordered set of distinct leaf labels with dense indices 0..n-1.

    Labels are stored sorted under natural_key, whatever order they are
    given in, so for integer-style labels the index order agrees with
    numeric order and index 0 is the smallest label. When every label is
    decimal, two sorts in C give the same order without a Python key:
    by the raw label, then, stably, by its number.
    """

    labels: tuple[str, ...]
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not all(isinstance(l, str) and l for l in self.labels):
            raise QuartetError("leaf labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLeafError("duplicate leaf label")
        if len(self.labels) > MAX_LEAVES:
            raise TooManyLeavesError(
                f"{len(self.labels)} leaves exceeds the {MAX_LEAVES}-leaf cap"
            )
        if all(map(str.isdecimal, self.labels)):
            labels = tuple(sorted(sorted(self.labels), key=int))
        else:
            labels = tuple(sorted(self.labels, key=natural_key))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(labels)})

    @classmethod
    def from_labels(cls, labels: Iterable[Label]) -> "LeafSet":
        return cls(tuple(_as_label(l) for l in labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[_as_label(label)]
        except KeyError:
            raise UnknownLeafError(f"unknown leaf {label!r}") from None

    def __contains__(self, label) -> bool:
        return _as_label(label) in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def integer_leaves(n: int) -> LeafSet:
    """The leaf set labelled "1".."n"."""
    return LeafSet.from_labels(str(i) for i in range(1, n + 1))


@dataclass(frozen=True)
class Split:
    """A bipartition of a leaf set, stored as the side without index 0.

    mask is the bit set of that side; n is the size of the leaf universe.
    Both sides are nonempty by construction. A split is nontrivial when
    both sides have at least two leaves; only nontrivial splits occur as
    tree edges.
    """

    mask: int
    n: int

    def __post_init__(self):
        if not 0 < self.mask < (1 << self.n):
            raise QuartetError("split mask out of range for its leaf set")
        if self.mask & 1:
            raise QuartetError("split mask must not contain leaf index 0")

    @classmethod
    def from_side(cls, leaves: LeafSet, side: Iterable[Label]) -> "Split":
        """Build a split from the labels of either side."""
        mask = 0
        for x in side:
            bit = 1 << leaves.index(x)
            if mask & bit:
                raise DuplicateLeafError(f"leaf {x!r} repeated in split side")
            mask |= bit
        if mask == 0:
            raise QuartetError("split side must not be empty")
        mask = _canonical(mask, leaves.full_mask())
        if mask == 0:
            raise QuartetError("split side must not be the whole leaf set")
        return cls(mask, leaves.n)

    def is_nontrivial(self) -> bool:
        size = self.mask.bit_count()
        return size >= 2 and self.n - size >= 2

    def sides(self, leaves: LeafSet) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Label tuples (side containing the smallest leaf, other side)."""
        if leaves.n != self.n:
            raise UnknownLeafError("split does not belong to this leaf set")
        ins, outs = [], []
        for i, label in enumerate(leaves.labels):
            (outs if self.mask >> i & 1 else ins).append(label)
        return tuple(ins), tuple(outs)

    def text(self, leaves: LeafSet) -> str:
        ins, outs = self.sides(leaves)
        return ",".join(ins) + "|" + ",".join(outs)


def compatible(a: Split, b: Split) -> bool:
    """Whether two splits of one leaf set can occur in the same tree.

    Of the four side intersections at least one must be empty. With both
    masks on the no-index-0 side this collapses to disjoint-or-nested.
    """
    if a.n != b.n:
        raise QuartetError("splits over different leaf sets")
    return _masks_compatible(a.mask, b.mask)


def _masks_compatible(x: int, y: int) -> bool:
    return (x & y) == 0 or (x & ~y) == 0 or (y & ~x) == 0


@dataclass(frozen=True, order=True)
class Quartet:
    """Topology ab|cd on four distinct leaves, stored as indices.

    Normal form: a < b, c < d, a < c, so each of the three topologies on a
    4-set has exactly one representation. Indices refer to the leaf set of
    whatever tree or quartet set the quartet is used with.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if len({self.a, self.b, self.c, self.d}) != 4:
            raise DuplicateLeafError("quartet leaves must be distinct")
        if not (self.a < self.b and self.c < self.d and self.a < self.c):
            raise QuartetError("quartet not in normal form")
        if self.a < 0:  # the least index, in normal form
            raise UnknownLeafError(f"quartet index {self.a} is negative")

    def indices(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def pair_masks(self) -> tuple[int, int]:
        return (1 << self.a) | (1 << self.b), (1 << self.c) | (1 << self.d)

    def text(self, leaves: LeafSet) -> str:
        ls = leaves.labels
        return f"{ls[self.a]},{ls[self.b]}|{ls[self.c]},{ls[self.d]}"


def normalized_quartet(a: int, b: int, c: int, d: int) -> Quartet:
    """Normalise index pairs {a,b}|{c,d} into the canonical Quartet."""
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    if a > c:
        a, b, c, d = c, d, a, b
    return Quartet(a, b, c, d)


def make_quartet(leaves: LeafSet, a: Label, b: Label, c: Label, d: Label) -> Quartet:
    """Quartet ab|cd from leaf labels, normalised."""
    return normalized_quartet(
        leaves.index(a), leaves.index(b), leaves.index(c), leaves.index(d)
    )


@dataclass(frozen=True)
class PhyloTree:
    """Unrooted phylogenetic tree as a leaf set plus its nontrivial splits.

    masks is the sorted tuple of the tree's distinct canonical split masks
    and the tree's only representation, so equality and hashing are by
    (leaves, masks). The tree is binary exactly when it has n - 3 splits.
    The constructor takes the masks in any order, checks each one on its
    own (in range, without leaf index 0, nontrivial) and stores them
    sorted; tree_from_splits also checks pairwise compatibility.
    """

    leaves: LeafSet
    masks: tuple[int, ...]

    def __post_init__(self):
        n = self.leaves.n
        masks = tuple(sorted(set(self.masks)))
        for m in masks:
            if not 0 < m < 1 << n:
                raise UnknownLeafError(f"split mask {m:#x} out of range for {n} leaves")
            if m & 1:
                raise QuartetError("split mask must not contain leaf index 0")
            size = m.bit_count()
            if size < 2 or n - size < 2:
                raise TrivialSplitError(f"trivial split mask {m:#x}")
        object.__setattr__(self, "masks", masks)

    @property
    def n(self) -> int:
        return self.leaves.n

    @property
    def splits(self) -> frozenset[Split]:
        return frozenset(Split(m, self.leaves.n) for m in self.masks)

    def is_binary(self) -> bool:
        return len(self.masks) == self.n - 3


def _unchecked_tree(leaves: LeafSet, masks: tuple[int, ...]) -> PhyloTree:
    """The PhyloTree on masks, skipping the constructor's sort, dedupe
    and per-mask checks.

    The caller guarantees what those would establish: masks is a
    strictly ascending tuple of canonical nontrivial split masks of
    leaves. Only the enumeration stream, which holds this by
    construction, should build trees this way.
    """
    tree = object.__new__(PhyloTree)
    object.__setattr__(tree, "leaves", leaves)
    object.__setattr__(tree, "masks", masks)
    return tree


def tree_from_splits(leaves: LeafSet, splits: Iterable[Split]) -> PhyloTree:
    """Validated tree construction: same leaf set, nontrivial, pairwise compatible."""
    ordered = sorted(frozenset(splits), key=lambda s: s.mask)
    for s in ordered:
        if s.n != leaves.n:
            raise UnknownLeafError("split indexed against a different leaf set")
    for i, s in enumerate(ordered):
        for t in ordered[i + 1 :]:
            if not _masks_compatible(s.mask, t.mask):
                raise IncompatibleSplitsError(
                    f"incompatible splits "
                    f"{s.text(leaves)} and {t.text(leaves)}",
                    pair=(s, t),
                )
    return PhyloTree(leaves, tuple(s.mask for s in ordered))


def _check_quartet_indices(tree: PhyloTree, q: Quartet) -> None:
    # normal form puts the largest index in b or d, never a or c
    top = q.b if q.b > q.d else q.d
    if top >= tree.n:
        raise UnknownLeafError(
            f"quartet index {top} out of range for {tree.n} leaves"
        )


def _displays_masks(masks: tuple[int, ...], pairs) -> bool:
    """Whether every quartet, given as pair masks (p1, p2), has a split in
    masks separating p1 from p2."""
    for p1, p2 in pairs:
        for m in masks:
            x = m & p1
            y = m & p2
            if (x == p1 and y == 0) or (y == p2 and x == 0):
                break
        else:
            return False
    return True


def _unique_separator(masks: tuple[int, ...], p1: int, p2: int) -> int | None:
    """The one split in masks separating p1 from p2; None if none or several."""
    found = None
    for m in masks:
        x = m & p1
        y = m & p2
        if (x == p1 and y == 0) or (y == p2 and x == 0):
            if found is not None:
                return None
            found = m
    return found


def displays(tree: PhyloTree, q: Quartet) -> bool:
    """Whether some edge of the tree separates {a,b} from {c,d}.

    Equivalent to: the subtree induced on the four leaves has topology
    ab|cd. The star induced topology displays nothing.
    """
    _check_quartet_indices(tree, q)
    return _displays_masks(tree.masks, (q.pair_masks(),))


def distinguished_edge(tree: PhyloTree, q: Quartet) -> Split | None:
    """The unique separating split of q in the tree, or None.

    None covers both failure modes: no separating split (q not displayed)
    and more than one (q displayed but pinning down no single edge).
    """
    _check_quartet_indices(tree, q)
    found = _unique_separator(tree.masks, *q.pair_masks())
    return None if found is None else Split(found, tree.n)


@dataclass(frozen=True)
class QuartetSet:
    """Deduplicated set of quartets over one ambient leaf set."""

    leaves: LeafSet
    quartets: frozenset[Quartet]

    def __post_init__(self):
        n = self.leaves.n
        for q in self.quartets:
            if max(q.b, q.d) >= n:
                raise UnknownLeafError(
                    f"quartet index {max(q.b, q.d)} out of range for {n} leaves"
                )

    @classmethod
    def from_quartets(cls, leaves: LeafSet, qs: Iterable[Quartet]) -> "QuartetSet":
        return cls(leaves, frozenset(qs))

    @classmethod
    def from_labels(
        cls, leaves: LeafSet, groups: Iterable[tuple[Label, Label, Label, Label]]
    ) -> "QuartetSet":
        return cls(leaves, frozenset(make_quartet(leaves, *g) for g in groups))

    def __len__(self) -> int:
        return len(self.quartets)

    def __iter__(self):
        return iter(self.sorted_quartets())

    def __contains__(self, q: Quartet) -> bool:
        return q in self.quartets

    def sorted_quartets(self) -> list[Quartet]:
        return sorted(self.quartets)

    def support_mask(self) -> int:
        mask = 0
        for q in self.quartets:
            mask |= (1 << q.a) | (1 << q.b) | (1 << q.c) | (1 << q.d)
        return mask

    def support_labels(self) -> tuple[str, ...]:
        mask = self.support_mask()
        return tuple(l for i, l in enumerate(self.leaves.labels) if mask >> i & 1)

    def restrict_to_support(self) -> "QuartetSet":
        """Reindex onto exactly the leaves that occur in some quartet."""
        sub = LeafSet.from_labels(self.support_labels())
        return self.translate(sub)

    def translate(self, other: LeafSet) -> "QuartetSet":
        """Reindex all quartets onto another leaf set by label; only the
        labels the quartets use need to be in it."""
        if other == self.leaves:
            return self
        support = self.support_mask()
        ls = self.leaves.labels
        table = {i: other.index(l) for i, l in enumerate(ls) if support >> i & 1}
        return QuartetSet(
            other, frozenset(_move_quartet(q, table) for q in self.quartets)
        )

    def without_quartet(self, q: Quartet) -> "QuartetSet":
        return QuartetSet(self.leaves, self.quartets - {q})

    def texts(self) -> list[str]:
        return [q.text(self.leaves) for q in self.sorted_quartets()]


# ---- surgery: moves onto a new leaf set through one index table per call ---- #


def _move_mask(mask: int, table) -> int:
    """OR of table[i] over the set bits i of mask: the bits old leaf i
    becomes in the new leaf set, 0 when the leaf is dropped."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical(mask: int, full: int) -> int:
    """The side of the split mask | full ^ mask that avoids leaf index 0."""
    return full ^ mask if mask & 1 else mask


def _move_quartet(q: Quartet, table) -> Quartet:
    """q with each leaf index i replaced by table[i], normalised."""
    return normalized_quartet(table[q.a], table[q.b], table[q.c], table[q.d])


def _image_leaves(leaves: LeafSet, mapping: dict[str, str]) -> tuple[LeafSet, list[int]]:
    """The image leaf set of a relabelling, and old index -> new index."""
    images = []
    for l in leaves.labels:
        if l not in mapping:
            raise UnknownLeafError(f"relabel map does not cover leaf {l!r}")
        images.append(mapping[l])
    if len(set(images)) != len(images):
        raise NonBijectiveError("relabel map is not injective on these leaves")
    new_leaves = LeafSet.from_labels(images)
    return new_leaves, [new_leaves.index(l) for l in images]


def relabel(x, mapping: Mapping, *, leaves: LeafSet | None = None):
    """Apply a label bijection to a tree, quartet set, or single quartet.

    The map must cover every leaf of x (for a bare Quartet, of the given
    leaf set). Returns the same kind of value; a relabelled Quartet is
    indexed against the image leaf set, which for a self-bijection is the
    original one.
    """
    m = {_as_label(k): _as_label(v) for k, v in mapping.items()}
    if isinstance(x, PhyloTree):
        new_leaves, table = _image_leaves(x.leaves, m)
        bits = [1 << j for j in table]
        full = new_leaves.full_mask()
        masks = [_canonical(_move_mask(s, bits), full) for s in x.masks]
        return PhyloTree(new_leaves, masks)
    if isinstance(x, QuartetSet):
        new_leaves, table = _image_leaves(x.leaves, m)
        return QuartetSet(
            new_leaves, frozenset(_move_quartet(q, table) for q in x.quartets)
        )
    if isinstance(x, Quartet):
        if leaves is None:
            raise QuartetError("relabelling a bare quartet needs its leaf set")
        # the map must cover x's four leaves and keep them apart; the
        # other leaves default to themselves
        _image_leaves(LeafSet.from_labels(leaves.labels[i] for i in x.indices()), m)
        _, table = _image_leaves(leaves, {l: m.get(l, l) for l in leaves.labels})
        return _move_quartet(x, table)
    raise QuartetError(f"cannot relabel {type(x).__name__}")


def reverse(x, *, leaves: LeafSet | None = None):
    """Relabel j to n+1-j; needs the leaf set to be exactly 1..n."""
    if leaves is None and not isinstance(x, (PhyloTree, QuartetSet)):
        if isinstance(x, Quartet):
            raise QuartetError("reversing a bare quartet needs its leaf set")
        raise QuartetError(f"cannot reverse {type(x).__name__}")
    ls = leaves if leaves is not None else x.leaves
    n = ls.n
    mapping = {str(j): str(n + 1 - j) for j in range(1, n + 1)}
    if set(ls.labels) != mapping.keys():
        raise QuartetError("reversal needs the labels 1..n")
    if isinstance(x, Quartet):
        return relabel(x, mapping, leaves=ls)
    return relabel(x, mapping)


def cherry_replace(tree: PhyloTree, x: Label, y: Label) -> PhyloTree:
    """Replace leaf x by a cherry {x, y}, enlarging the leaf set by y.

    Every existing split keeps its shape with y following x; one new
    split {x, y} versus the rest appears. Inverse of removing y again.
    """
    xl, yl = _as_label(x), _as_label(y)
    if xl not in tree.leaves:
        raise UnknownLeafError(f"no leaf {xl!r} in tree")
    if yl in tree.leaves:
        raise LabelCollisionError(f"leaf {yl!r} already present")
    new_leaves = LeafSet.from_labels(tree.leaves.labels + (yl,))
    table = [1 << new_leaves.index(l) for l in tree.leaves.labels]
    xi = tree.leaves.index(xl)
    table[xi] |= 1 << new_leaves.index(yl)  # x carries y along
    full = new_leaves.full_mask()
    masks = [_canonical(_move_mask(s, table), full) for s in tree.masks]
    if new_leaves.n >= 4:
        masks.append(_canonical(table[xi], full))
    return PhyloTree(new_leaves, masks)


def remove_leaf(tree: PhyloTree, x: Label) -> PhyloTree:
    """Delete a leaf and recanonicalise, dropping splits that turn trivial."""
    xl = _as_label(x)
    if xl not in tree.leaves:
        raise UnknownLeafError(f"no leaf {xl!r} in tree")
    new_leaves = LeafSet.from_labels(l for l in tree.leaves.labels if l != xl)
    table = [0 if l == xl else 1 << new_leaves.index(l) for l in tree.leaves.labels]
    full = new_leaves.full_mask()
    masks = []
    for s in tree.masks:
        side = _move_mask(s, table)
        if 2 <= side.bit_count() <= new_leaves.n - 2:
            masks.append(_canonical(side, full))
    return PhyloTree(new_leaves, masks)


def contract(tree: PhyloTree, edge: Split) -> PhyloTree:
    """Remove one interior edge, merging its endpoints."""
    if edge.n != tree.n or edge.mask not in tree.masks:
        raise NoSuchSplitError("edge is not an interior edge of this tree")
    return PhyloTree(tree.leaves, tuple(m for m in tree.masks if m != edge.mask))
