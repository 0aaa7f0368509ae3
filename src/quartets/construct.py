"""Small definitive quartet sets on caterpillar trees.

For every n >= 5 this module builds a quartet set of size 2n-8 on leaves
1..n that defines a caterpillar, beating the naive n-3 quartets-per-edge
bound by pinning several edges with shared quartets. The family is
defined by a two-step recursion: carry most of the previous level over
unchanged, bump the highest leaf in its last two quartets, then add two
fresh quartets anchoring the new cherry. One generator steps it once per
level; the witness chain, the verifier and minimal_definitive_sequence
all read their sequences from it.

Minimality is established constructively, and the verifier uses no
other proof: for each quartet q_i a witness tree is produced that
displays everything except q_i yet differs from the target, so no
quartet can be dropped. From level 7 up the witnesses are built
recursively (cherry replacement carries a witness up one level, one new
witness is a leaf-reversed copy of an earlier one, one comes from
contracting the edge left loose); at levels 5 and 6 every witness but
one is such a contraction. Every witness is checked on the spot and a
WitnessCheckError means the construction is broken, never that the
caller misused it.

The chain works in mask space over one leaf set per level. Label j is
leaf index j-1, so model.cherry_replace(W, k-1, k) adds index k-1 after
every other: each split side holding index k-2 gains k-1, and the new
cherry {k-2, k-1} is one more split. model.reverse maps index j to
k-1-j, which reverses each mask's k bits before recanonicalising. Each
witness still becomes a PhyloTree, with the model's mask checks, and is
validated in full.

The cherry lemma says why carrying works, and the tests check it on the
chain: if W' = cherry_replace(W, k-1, k) and quartet q does not hold
both k-1 and k, then W' displays q exactly when W displays q with k
renamed k-1. So a carried witness displays every quartet of its level
that it should, except the two new quartets holding both k-1 and k,
for which the cherry is the separating split. The verifier does not use
the lemma to skip any check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .decide import _undistinguished_masks, defines
from .errors import QuartetError, TooFewLeavesError, WitnessCheckError
from .model import (
    LeafSet,
    PhyloTree,
    Quartet,
    QuartetSet,
    Split,
    _canonical,
    _displays_masks,
    contract,
    displays,
    integer_leaves,
)

# both bases are in labels and already in the Quartet normal form
_BASE5 = ((1, 2, 3, 4), (1, 4, 3, 5))
_BASE6 = ((1, 2, 3, 5), (1, 3, 4, 6), (1, 2, 5, 6), (2, 4, 5, 6))
# leaf index orders: the level-5 target 1,2,4,3,5 and the level-6
# witness for quartet 3, 2,4,6,1,5,3
_TARGET5_ORDER = (0, 1, 3, 2, 4)
_WITNESS6_ORDER = (1, 3, 5, 0, 4, 2)


def _prefix_masks(order, full: int) -> list[int]:
    """Split masks of the caterpillar with leaf indices in this order:
    its prefixes of sizes 2 through n-2, canonicalised."""
    prefix = 1 << order[0]
    masks = []
    for i in order[1:-2]:
        prefix |= 1 << i
        masks.append(_canonical(prefix, full))
    return masks


def caterpillar_from_order(order) -> PhyloTree:
    """Caterpillar whose leaves hang off the spine in the given order.

    Accepts labels or ints. The splits are exactly the prefixes of the
    order, sizes 2 through n-2; the two ends of the spine carry cherries.
    """
    labels = [str(x) for x in order]
    leaves = LeafSet.from_labels(labels)
    if leaves.n < 3:
        raise TooFewLeavesError("a caterpillar needs at least three leaves")
    indices = [leaves.index(lab) for lab in labels]
    return PhyloTree(leaves, _prefix_masks(indices, leaves.full_mask()))


def caterpillar(n: int) -> PhyloTree:
    """Caterpillar on leaves 1..n in natural order."""
    if n < 4:
        raise TooFewLeavesError("a caterpillar with an interior edge needs four leaves")
    return caterpillar_from_order(range(1, n + 1))


def _target(leaves: LeafSet) -> PhyloTree:
    """target_tree(n) on leaves, which must be integer_leaves(n)."""
    order = _TARGET5_ORDER if leaves.n == 5 else range(leaves.n)
    return PhyloTree(leaves, _prefix_masks(order, leaves.full_mask()))


def _sequences(k: int) -> Iterator[tuple[Quartet, ...]]:
    """The sequences of levels 5 up to k, in indices: label j is index j-1."""
    yield tuple(Quartet(*(x - 1 for x in q)) for q in _BASE5)
    seq = [Quartet(*(x - 1 for x in q)) for q in _BASE6]
    for level in range(6, k + 1):
        if level > 6:
            # labels: level-1 becomes level in the last two quartets, then
            # 1,level-4|level-1,level and level-4,level-2|level-1,level
            old, new = level - 2, level - 1
            seq[-2:] = [
                Quartet(*(new if x == old else x for x in q.indices())) for q in seq[-2:]
            ]
            seq += [Quartet(0, level - 5, old, new), Quartet(level - 5, level - 3, old, new)]
        yield tuple(seq)


def minimal_definitive_sequence(n: int) -> tuple[Quartet, ...]:
    """The size 2n-8 definitive sequence on leaves 1..n, in recursion order.

    The order matters to the witness chain, which addresses quartets by
    position. Use minimal_definitive_set for the order-free view.
    """
    if n < 5:
        raise TooFewLeavesError("the construction starts at five leaves")
    integer_leaves(n)  # the model's leaf cap
    *_, seq = _sequences(n)
    return seq


def minimal_definitive_set(n: int) -> QuartetSet:
    leaves = integer_leaves(n)
    return QuartetSet(leaves, frozenset(minimal_definitive_sequence(n)))


@dataclass(frozen=True)
class WitnessChain:
    """Non-redundancy witnesses for the level-k sequence, one per quartet."""

    k: int
    entries: tuple[tuple[int, PhyloTree], ...]

    @property
    def witnesses(self) -> dict[int, PhyloTree]:
        return dict(self.entries)

    def witness(self, i: int) -> PhyloTree:
        return dict(self.entries)[i]


def _loose_edge_witness(level: int, rest: tuple[Quartet, ...], tree: PhyloTree) -> PhyloTree:
    loose = _undistinguished_masks(tree.masks, [q.pair_masks() for q in rest])
    if not loose:
        raise WitnessCheckError(
            "expected an edge pinned only by the removed quartet", level
        )
    return contract(tree, Split(min(loose), tree.n))


def _validate_level(
    level: int,
    seq: tuple[Quartet, ...],
    witnesses: dict[int, PhyloTree],
    target: PhyloTree,
) -> None:
    pairs = [q.pair_masks() for q in seq]
    for i, q in enumerate(seq, start=1):
        w = witnesses[i]
        if w.leaves != target.leaves:
            raise WitnessCheckError(f"witness {i}: wrong leaf set", level)
        if w == target:
            raise WitnessCheckError(
                f"witness {i}: coincides with the target tree", level
            )
        if not _displays_masks(w.masks, pairs[: i - 1] + pairs[i:]):
            missed = next(
                other
                for other, pair in zip(seq, pairs)
                if other != q and not _displays_masks(w.masks, (pair,))
            )
            raise WitnessCheckError(
                f"witness {i}: fails to display {missed.text(target.leaves)}",
                level,
            )


def _carried(masks: tuple[int, ...], level: int) -> list[int]:
    """The masks of cherry_replace(W, level-1, level), from W's masks."""
    old, new = 1 << (level - 2), 1 << (level - 1)
    return [m | new if m & old else m for m in masks] + [old | new]


def _reversed(masks: tuple[int, ...], level: int) -> list[int]:
    """The masks of reverse(W) for a witness W on leaves 1..level."""
    full = (1 << level) - 1
    return [_canonical(int(f"{m:0{level}b}"[::-1], 2), full) for m in masks]


def witness_chain(k: int) -> WitnessChain:
    """Witness trees for levels 5 up to k, validated at every level.

    Witness i displays the whole level sequence except its i-th quartet
    and is not the target tree, so removing any quartet breaks
    definitiveness. A WitnessCheckError carries the level that failed;
    every level below it validated. k past model.MAX_LEAVES fails up
    front, with the model's TooManyLeavesError.
    """
    if k < 5:
        raise TooFewLeavesError("the witness chain starts at five leaves")
    integer_leaves(k)  # the model's leaf cap, checked before any level
    witnesses: dict[int, PhyloTree] = {}
    for level, seq in enumerate(_sequences(k), start=5):
        leaves = integer_leaves(level)
        target = _target(leaves)
        size = 2 * level - 8
        if level == 6:
            masks = _prefix_masks(_WITNESS6_ORDER, leaves.full_mask())
            witnesses = {3: PhyloTree(leaves, masks)}
        elif level > 6:
            prev = witnesses
            witnesses = {
                i: PhyloTree(leaves, _carried(prev[i].masks, level))
                for i in range(1, size - 1)
            }
            masks = _reversed(witnesses[3].masks, level)
            witnesses[size - 1] = PhyloTree(leaves, masks)
        # every other quartet is the only one pinning some target edge
        for i in range(1, size + 1):
            if i not in witnesses:
                rest = seq[: i - 1] + seq[i:]
                witnesses[i] = _loose_edge_witness(level, rest, target)
        _validate_level(level, seq, witnesses, target)
    return WitnessChain(k, tuple(sorted(witnesses.items())))


@dataclass(frozen=True)
class LevelCheck:
    n: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


@dataclass(frozen=True)
class ConstructionReport:
    max_n: int
    oracle_max_n: int
    levels: tuple[LevelCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(level.ok for level in self.levels)


def target_tree(n: int) -> PhyloTree:
    """The tree the level-n sequence defines.

    The five leaf base case defines the caterpillar in the order
    1,2,4,3,5; every other n >= 4 gives the natural-order caterpillar.
    """
    if n < 4:
        raise TooFewLeavesError("a caterpillar with an interior edge needs four leaves")
    return _target(integer_leaves(n))


def verify_construction(
    max_n: int, oracle_max_n: int = 7, *, cap: int | None = None
) -> ConstructionReport:
    """Re-check every claimed property of the construction, level by level.

    Per level: the size is 2n-8, the target displays the set, fast mode
    finds the set definitive with the target as the unique tree, the set
    is minimal (it defines the target and the witness chain gives every
    quartet a witness, so no scan runs), the chain validates (reported
    from n = 6), and up to oracle_max_n the exhaustive oracle agrees.
    cap bounds the oracle and any scan fast mode falls back on. The
    chain is built once, up to max_n: a failure at one level fails that
    level and every level above it. oracle_max_n below 5 asks for no
    oracle rows; a negative one is refused.
    """
    if max_n < 5:
        raise TooFewLeavesError("verification starts at five leaves")
    if oracle_max_n < 0:
        raise QuartetError(f"oracle_max_n must be at least 0, not {oracle_max_n}")
    chain_fails_from = max_n + 1
    try:
        witness_chain(max_n)
    except WitnessCheckError as e:
        chain_fails_from = e.level
    levels = []
    for n, seq in enumerate(_sequences(max_n), start=5):
        leaves = integer_leaves(n)
        qs = QuartetSet(leaves, frozenset(seq))
        target = _target(leaves)
        checks: list[tuple[str, bool]] = []
        checks.append(("size", len(qs) == 2 * n - 8))
        checks.append(
            ("displays_target", all(displays(target, q) for q in qs))
        )
        fast = defines(qs, mode="fast", cap=cap)
        defined = fast.is_definitive and fast.tree == target
        checks.append(("fast_defines_target", defined))
        checks.append(("minimal", defined and n < chain_fails_from))
        if n >= 6:
            checks.append(("witness_chain", n < chain_fails_from))
        if n <= oracle_max_n:
            oracle = defines(qs, mode="oracle", cap=cap)
            checks.append(
                (
                    "oracle_defines_target",
                    oracle.is_definitive
                    and oracle.tree == target
                    and oracle.displayer_count == 1,
                )
            )
        levels.append(LevelCheck(n, tuple(checks)))
    return ConstructionReport(max_n, oracle_max_n, tuple(levels))
