"""Deciding what a quartet set determines.

A quartet set Q is definitive (relative to the leaves it mentions) when
exactly one phylogenetic tree on those leaves displays every quartet of
Q. Two decision routes are provided and must agree. Both rest on one
fact, the restriction property of displayed quartets: deleting the
highest leaf of a tree gives back the tree it was grown from, and
inserting later leaves never changes the topology induced on leaves
already present. So a tree displays xy|zk exactly when its ancestor at
the level of its largest leaf k does, and a quartet's status is settled
once its last leaf is in.

* oracle mode grows every tree with no degree-2 vertices by leaf
  insertion, building every child of every surviving tree, and tests
  each child only against the quartets whose largest leaf it has just
  inserted; a child that fails is dropped with its whole subtree. What
  survives to the last leaf is counted. It is the ground truth and is
  deliberately kept free of the shortcuts below.
* fast mode scans binary trees for displayers, stopping at two, then
  certifies uniqueness among non-binary trees by checking that every
  edge of the sole binary displayer T is the unique separating edge of
  some quartet. Contracting an edge that no quartet pins down always
  yields a second displayer, and every non-binary displayer arises by
  contracting edges of T, so the certificate is exact.

The fast scan also prunes before it builds. Leaf k goes only where the
child displays every quartet xy|zk whose largest leaf is k: strictly
inside S*, the z-side of the edge next to the x,y,z median in the
parent. Every other position puts k on x's or y's branch or at the
median. So the rule drops no displayer and admits no extra one, and the
survivors keep their stream order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Literal

from .enumeration import _check_mode, _check_size, _children, _stream_masks, Mode
from .errors import AmbientMismatchError, QuartetError, TooFewLeavesError
from .model import (
    LeafSet,
    PhyloTree,
    Quartet,
    QuartetSet,
    Split,
    _displays_masks,
    _unique_separator,
    contract,
    normalized_quartet,
)

DecideMode = Literal["fast", "oracle"]

DEFINES = "defines"
NOT_DEFINITIVE = "not_definitive"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class DefinitivenessVerdict:
    """Outcome of a definitiveness check.

    displayer_count is exact in oracle mode and None in fast mode, which
    stops counting at two. examples holds up to two displayers; when the
    status is "defines" it is the single tree.
    """

    status: str
    tree: PhyloTree | None
    displayer_count: int | None
    examples: tuple[PhyloTree, ...]
    mode: str

    @property
    def is_definitive(self) -> bool:
        return self.status == DEFINES


@dataclass(frozen=True)
class RemovalWitness:
    """Why a quartet set minus one quartet stops (or fails to stop) defining.

    kind "undistinguished_edge": dropping the quartet leaves the carried
    split pinned down by nothing, so contracting it gives a second
    displayer. kind "alternative_tree": a different tree displaying the
    reduced set, found in stream order. kind "redundant": the reduced set
    still defines the same tree.
    """

    kind: str
    tree: PhyloTree | None = None
    split: Split | None = None


@dataclass(frozen=True)
class MinimalityReport:
    verdict: DefinitivenessVerdict
    entries: tuple[tuple[Quartet, RemovalWitness], ...]
    minimal: bool | None
    size: int
    n: int


def _level_quartets(qs: QuartetSet) -> dict[int, list[tuple[int, int]]]:
    """Each quartet xy|zk as (1<<z, xy mask), grouped by its largest leaf k."""
    levels: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for q in qs.sorted_quartets():
        if q.b > q.d:
            levels[q.b].append((1 << q.a, (1 << q.c) | (1 << q.d)))
        else:
            levels[q.d].append((1 << q.c, (1 << q.a) | (1 << q.b)))
    return dict(levels)


def _pruned_displayers(
    qs: QuartetSet, mode: Mode, cap: int | None
) -> Iterator[tuple[int, ...]]:
    n = qs.leaves.n
    _check_size(n, mode, cap)
    return _stream_masks(n, mode, _level_quartets(qs))


def _oracle_displayers(qs: QuartetSet, cap: int | None) -> Iterator[tuple[int, ...]]:
    """Every tree on qs's leaves displaying all of qs, in stream order.

    A depth-first walk over every child of every surviving tree. Each
    child is tested against the quartets whose largest leaf it has just
    inserted, and one that fails is dropped with its whole subtree.
    """
    n = qs.leaves.n
    _check_size(n, "all", cap)
    levels: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for q in qs.sorted_quartets():
        levels[max(q.b, q.d)].append(q.pair_masks())

    def walk() -> Iterator[tuple[int, ...]]:
        stack: list[tuple[tuple[int, ...], int]] = [((), 3)]
        while stack:
            splits, k = stack.pop()
            if k == n:
                yield splits
                continue
            children = _children(splits, k, True)
            pairs = levels.get(k)
            if pairs:
                children = [c for c in children if _displays_masks(c, pairs)]
            stack.extend((c, k + 1) for c in reversed(children))

    return walk()


def displayers(
    qs: QuartetSet,
    leaves: LeafSet | None = None,
    mode: Mode = "all",
    limit: int | None = None,
    *,
    cap: int | None = None,
) -> list[PhyloTree]:
    """Every tree on the ambient leaves displaying all of qs, in stream order.

    leaves defaults to the quartet set's own ambient leaf set and may be
    any superset of the leaves actually mentioned. limit, when given,
    must be at least 0 and truncates the result to that many displayers.
    """
    _check_mode(mode)
    if limit is not None and limit < 0:
        raise QuartetError(f"limit must be at least 0, got {limit}")
    ambient = leaves if leaves is not None else qs.leaves
    moved = qs.translate(ambient)
    stream = _pruned_displayers(moved, mode, cap)
    return [PhyloTree(ambient, masks) for masks in islice(stream, limit)]


def _resolve_ambient(
    qs: QuartetSet, leaves: LeafSet | None, allow_larger_ambient: bool
) -> tuple[QuartetSet, LeafSet]:
    support = qs.support_labels()
    if leaves is None:
        if len(support) < 4:
            raise TooFewLeavesError(
                "definitiveness needs at least four occupied leaves"
            )
        ambient = LeafSet.from_labels(support)
        return qs.translate(ambient), ambient
    if set(leaves.labels) != set(support):
        if not allow_larger_ambient:
            raise AmbientMismatchError(
                "ambient leaf set differs from the leaves the quartets use; "
                "definitiveness is taken relative to the used leaves, pass "
                "allow_larger_ambient=True to override"
            )
        if leaves.n < 4:
            raise TooFewLeavesError("ambient leaf set smaller than a quartet")
    return qs.translate(leaves), leaves


def defines(
    qs: QuartetSet,
    leaves: LeafSet | None = None,
    mode: DecideMode = "fast",
    *,
    allow_larger_ambient: bool = False,
    cap: int | None = None,
) -> DefinitivenessVerdict:
    """Whether exactly one tree on the leaves displays every quartet.

    By default the ambient leaf set is exactly the leaves the quartets
    mention; a larger one must be requested explicitly. Oracle mode grows
    every tree (no degree-2 vertices), drops each one as soon as a quartet
    whose last leaf it has inserted is not displayed, and counts the
    survivors; fast mode uses the binary scan plus the distinguished-edge
    certificate. Both report through the same verdict type.
    """
    if mode not in ("fast", "oracle"):
        raise QuartetError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    moved, ambient = _resolve_ambient(qs, leaves, allow_larger_ambient)
    n = ambient.n
    if mode == "oracle":
        stream = _oracle_displayers(moved, cap)
        kept = list(islice(stream, 2))
        count = len(kept) + sum(1 for _ in stream)
        examples = tuple(PhyloTree(ambient, m) for m in kept)
        if count == 0:
            return DefinitivenessVerdict(INCOMPATIBLE, None, 0, (), mode)
        if count == 1:
            return DefinitivenessVerdict(DEFINES, examples[0], 1, examples, mode)
        return DefinitivenessVerdict(NOT_DEFINITIVE, None, count, examples, mode)
    found: list[tuple[int, ...]] = []
    for masks in _pruned_displayers(moved, "binary", cap):
        found.append(masks)
        if len(found) == 2:
            break
    if not found:
        # no binary displayer means no displayer at all: refining any
        # displayer to a binary tree preserves every displayed quartet
        return DefinitivenessVerdict(INCOMPATIBLE, None, 0, (), mode)
    if len(found) == 2:
        examples = tuple(PhyloTree(ambient, m) for m in found)
        return DefinitivenessVerdict(NOT_DEFINITIVE, None, None, examples, mode)
    tree = PhyloTree(ambient, found[0])
    undistinguished = _undistinguished_masks(moved, tree)
    if undistinguished:
        loose = Split(min(undistinguished), n)
        return DefinitivenessVerdict(
            NOT_DEFINITIVE, None, None, (tree, contract(tree, loose)), mode
        )
    return DefinitivenessVerdict(DEFINES, tree, None, (tree,), mode)


def _undistinguished_masks(qs: QuartetSet, tree: PhyloTree) -> list[int]:
    masks = tree.masks
    pinned = set()
    for q in qs.sorted_quartets():
        p1, p2 = q.pair_masks()
        m = _unique_separator(masks, p1, p2)
        if m is not None:
            pinned.add(m)
    return [m for m in masks if m not in pinned]


def undistinguished_edges(qs: QuartetSet, tree: PhyloTree) -> tuple[Split, ...]:
    """Splits of the tree that are nobody's unique separating edge."""
    moved = qs.translate(tree.leaves)
    return tuple(
        Split(m, tree.n) for m in _undistinguished_masks(moved, tree)
    )


def minimality_report(
    qs: QuartetSet, mode: DecideMode = "fast", *, cap: int | None = None
) -> MinimalityReport:
    """Definitiveness plus a per-quartet account of why each one is needed.

    For a definitive set defining T, each entry shows that dropping the
    quartet loses T: either some edge of T is left with no quartet
    pinning it (contract it for a second displayer), or another tree
    displaying the rest is exhibited (the first such in stream order).
    Quartets whose removal keeps T defined are marked redundant, and the
    set is minimal exactly when there are none.
    """
    verdict = defines(qs, mode=mode, cap=cap)
    size = len(qs)
    n = len(qs.support_labels())
    if not verdict.is_definitive:
        return MinimalityReport(verdict, (), None, size, n)
    tree = verdict.tree
    ambient = tree.leaves
    moved = qs.translate(ambient)
    tree_masks = tree.masks
    entries = []
    redundant = False
    for q in moved.sorted_quartets():
        rest = moved.without_quartet(q)
        loose = _undistinguished_masks(rest, tree)
        if loose:
            entries.append(
                (q, RemovalWitness("undistinguished_edge", split=Split(min(loose), ambient.n)))
            )
            continue
        alternative = None
        for masks in _pruned_displayers(rest, "binary", cap):
            if masks != tree_masks:
                alternative = masks
                break
        if alternative is not None:
            entries.append(
                (q, RemovalWitness("alternative_tree", tree=PhyloTree(ambient, alternative)))
            )
        else:
            entries.append((q, RemovalWitness("redundant")))
            redundant = True
    return MinimalityReport(verdict, tuple(entries), not redundant, size, n)


def semantic_infers(
    qs: QuartetSet,
    q: Quartet,
    leaves: LeafSet | None = None,
    *,
    cap: int | None = None,
) -> bool:
    """Whether every tree displaying all of qs also displays q.

    Exhaustive over the trees with no degree-2 vertices on the ambient
    leaves (default: the quartet set's own) that display qs, as found by
    the oracle walk. The quartet q is indexed against the quartet set's
    leaf set.
    """
    ambient = leaves if leaves is not None else qs.leaves
    moved = qs.translate(ambient)
    (target,) = QuartetSet(qs.leaves, frozenset([q])).translate(ambient)
    query = [target.pair_masks()]
    return all(
        _displays_masks(masks, query) for masks in _oracle_displayers(moved, cap)
    )


def inference_closure(qs: QuartetSet) -> QuartetSet:
    """Least fixpoint of the one implemented inference rule.

    When two quartets have the same second pair in normal form and their
    first pairs overlap in exactly one leaf, the quartet joining the two
    non-shared first-pair leaves against that second pair is added: from
    ab|de and bc|de it adds ac|de. Sound: any tree with an edge
    separating {a,b} from {d,e} and one separating {b,c} from {d,e} has
    an edge separating {a,c} from {d,e}. The rule deliberately fires
    only on the normalized second pair, so it adds strictly less than
    the full semantic consequence set.
    """
    present = set(qs.quartets)
    groups: dict[tuple[int, int], list[Quartet]] = defaultdict(list)
    work = sorted(present)
    for q in work:
        groups[(q.c, q.d)].append(q)
    i = 0
    while i < len(work):
        q = work[i]
        i += 1
        far = (q.c, q.d)
        for other in list(groups[far]):
            if other == q:
                continue
            shared = {q.a, q.b} & {other.a, other.b}
            if len(shared) != 1:
                continue
            x, y = sorted(({q.a, q.b} | {other.a, other.b}) - shared)
            new = normalized_quartet(x, y, far[0], far[1])
            if new not in present:
                present.add(new)
                work.append(new)
                groups[(new.c, new.d)].append(new)
    return QuartetSet(qs.leaves, frozenset(present))


def common_leaf_certificate(qs: QuartetSet, tree: PhyloTree) -> bool:
    """Sufficient condition for qs to define the tree, checked directly.

    True when some leaf occurs in every quartet, the tree displays every
    quartet, and every edge of the tree is the unique separating edge of
    some quartet. The three conditions together force the tree to be the
    only displayer on these leaves.
    """
    moved = qs.translate(tree.leaves)
    if set(moved.support_labels()) != set(tree.leaves.labels):
        raise AmbientMismatchError(
            "certificate applies when the quartets use exactly the tree's leaves"
        )
    common = None
    pairs = []
    for q in moved.sorted_quartets():
        used = set(q.indices())
        common = used if common is None else (common & used)
        pairs.append(q.pair_masks())
    if not common:
        return False
    masks = tree.masks
    if not _displays_masks(masks, pairs):
        return False
    return not _undistinguished_masks(moved, tree)
