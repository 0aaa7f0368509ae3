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

* oracle mode counts every tree with no degree-2 vertices that
  displays Q. A tree displays ab|cd exactly when one of its splits
  separates the two pairs (Semple and Steel, Phylogenetics, 2003), so
  on at most _INDEX_LEAVES leaves it reads the all-tree index below:
  the count is the number of trees in every quartet's row. Past that it
  reads the enumeration stream of those trees, filtered as it grows:
  each child of a surviving tree is tested only against the quartets
  whose largest leaf it has just received, and one that fails is
  dropped with its whole subtree. What survives to the last leaf is
  counted. It is the ground truth and is deliberately kept free of the
  shortcuts below.
* fast mode reads binary trees only: a non-binary displayer has at
  least three binary refinements, and each displays everything it
  displays (Semple and Steel, Phylogenetics, 2003, ch. 6). So when
  exactly one binary tree displays Q, no other tree does, and when none
  does, nothing does. On at most _INDEX_LEAVES = 8 leaves it reads the
  binary index below, whatever the cap. Past that it first tries the
  closure certificate below, and when that does not settle Q, it scans
  binary trees for displayers, stopping at two.

The closure certificate answers without a scan and is never wrong; it
only sometimes declines. Q is closed under the one inference rule,
which is sound, so every displayer of Q displays the closure. The
closed quartets that hold a leaf x, read with x as the root, are rooted
triples: xc|ab says that a and b share a cluster without c. BUILD (Aho,
Sagiv, Szymanski and Ullman, SIAM J. Comput. 1981) grows a rooted tree
from them: inside each cluster it links a and b for every triple ab|c
whose three leaves lie in the cluster, and the linked components become
the cluster's children. If some cluster stays connected, no rooted tree
displays the triples, so nothing displays Q: the verdict is
incompatible. If BUILD grows a binary tree T, x's triples define T.
Each cluster C with children C1 and C2 is linked, at its parent's
level, by some triple ab|c with a in C1 and b in C2, and c lies outside
C, or the same triple would join C1 and C2 at C's own level. So the
edge above C is the only one separating ab from xc: every edge of T is
pinned, and triples pinning every edge of a tree that displays them
define it (Semple and Steel, Phylogenetics, 2003, ch. 6). Every
displayer of Q, rooted at x, displays x's triples, so it is T: the
verdict is defines with T when T displays Q, and incompatible when it
does not. The first leaf whose BUILD fails or grows a binary tree
settles Q; when no leaf does, the scan decides.

There is one index per stream. For each n up to _INDEX_LEAVES, the
index of a stream holds its trees, _stream_masks(n, "binary") for fast
mode and _stream_masks(n, "all") for the oracle, as the bits of ints:
bit t is the t-th tree, so bit order is stream order. Each split mask
has the int of the trees holding it, filled from one pass of the
stream; each quartet's row is the OR of the rows of the splits
separating its two pairs. The displayers of Q are the AND of its
quartets' rows, and the first two set bits are the examples the stream
would give first. The same pass keeps every tree it streams: the masks
of the t-th tree fill the t-th slot of one bytes table, n - 3 bytes
wide, the splits of a binary tree, and padded with zeros. A mask on at
most 8 leaves fits one byte, and 0 is never a split mask, so bit t
reads back as its tree with one slice. At 8 leaves a binary row is
10,395 bits and an all-tree row 39,208. Each index caches every
quartet row it is asked for, so a row is ORed once per process. With
its 119 split rows, at most 210 quartet rows and its table, the binary
index takes about 0.5 MB and the all-tree index about 1.8 MB. Each is
built once per process.

minimality_report's removal witnesses start with the edge check: a
loose edge of the defined tree T, left when q is dropped, is q's
witness. Otherwise any binary tree displaying Q minus q and q is T, so
q's witness is the first tree in stream order that misses q alone, and
q is redundant when there is none. The index reads it directly: the
lowest set bit of the AND of the other rows with q's row cleared. Past
the index, q is first marked redundant without a scan when, in the
closure of Q minus q, the quartets holding one leaf pin every edge of T:
by the theorem above they define T. The rest get one walk per open
quartet: q's witness is the first tree of the binary walk over Q minus
q that does not display q. The scan cap bounds only these walks; the
index is bounded by _INDEX_LEAVES alone.

_binary_walk, decide's only walk, serves the fast route past the index:
the scan, and one walk per open quartet for the minimality witnesses.
It prunes before it builds: leaf k goes only into edges where the child
displays the quartets whose largest leaf is k, and, at the level of the
largest leaf of a quartet to avoid, only into edges where it does not.
It also looks ahead: a tree is dropped as soon as some later leaf w has
no edge admitting every quartet xy|zw whose x, y and z are placed,
since every tree grown from it hangs w on one of its edges. Its
docstring gives both arguments. displayers, semantic_infers, and the
oracle past the index read the filtered enumeration stream instead.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from operator import or_
from typing import Iterable, Iterator, Literal

from .enumeration import (
    _check_cap,
    _check_mode,
    _check_size,
    _edges,
    _insert,
    _stream_masks,
    count_trees,
    Mode,
)
from .errors import (
    AmbientMismatchError,
    QuartetError,
    TooFewLeavesError,
    TooManyLeavesError,
)
from .model import (
    LeafSet,
    PhyloTree,
    Quartet,
    QuartetSet,
    Split,
    _canonical,
    _displays_masks,
    _unchecked_tree,
    _unique_separator,
)

DecideMode = Literal["fast", "oracle"]

DEFINES = "defines"
NOT_DEFINITIVE = "not_definitive"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class DefinitivenessVerdict:
    """Outcome of a definitiveness check.

    displayer_count is exact in oracle mode. In fast mode, which stops
    at two displayers, it is 0 when the status is "incompatible" and None
    otherwise. examples is () when the status is "incompatible", (tree,)
    when it is "defines", and two distinct displayers, the first two the
    route found, when it is "not_definitive"; in fast mode both are binary.
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


def _insertion_test(q: Quartet) -> tuple[int, tuple[int, int]]:
    """Quartet xy|zk as its largest leaf k and the test (1<<z, xy mask)."""
    if q.b > q.d:
        return q.b, (1 << q.a, (1 << q.c) | (1 << q.d))
    return q.d, (1 << q.c, (1 << q.a) | (1 << q.b))


def _outside(splits: tuple[int, ...], k: int, z: int, xy: int) -> int:
    """The leaves of the tree on 0..k-1 outside S* for the test (z, xy).

    z is 1<<z and xy the mask of x and y. The one S* computation; the
    argument is in _binary_walk.
    """
    # S* is the largest side holding z but neither x nor y, or z alone when
    # there is none. Those sides are the z-sides of the edges on the path
    # from the median to z, so they shrink along it, and the ones holding
    # leaf 0, the complements of splits, come first. out is the rest.
    star = z
    for m in splits:
        if m & z:
            if not m & xy:
                star = m  # ascending, so the last one is the largest
        elif m & xy == xy:
            return m  # S* is the other side of the first, smallest such m
    return ((1 << k) - 1) ^ star


def _admissible(edges: list[int], splits: tuple[int, ...], k: int, tests) -> list[int]:
    """The edges where inserting leaf k gives a child displaying xy|zk for
    every test (z, xy): those with a side inside each test's S*."""
    for z, xy in tests:
        out = _outside(splits, k, z, xy)
        edges = [u for u in edges if not u & out or u & out == out]
        if not edges:
            break
    return edges


def _binary_walk(
    quartets: list[Quartet], n: int, avoid: Quartet | None = None
) -> Iterator[tuple[int, ...]]:
    """Finished binary trees on leaves 0..n-1 as masks, in stream order:
    those displaying every quartet, and not avoid when it is given.

    A depth-first walk of the binary stream that prunes before it builds:
    leaf k goes only into edges where the child displays the quartets
    xy|zk whose largest leaf is k, chosen on the parent. In the parent on
    0..k-1 let m be the median of x, y and z, and S* the leaves of the
    component of the tree minus m that holds z. S* is the union of the
    edge sides holding z but neither x nor y, because those are the
    nested z-sides of the edges on the path from m to z. Subdividing an
    edge with one side inside S* hangs k in that component, so the child
    displays xy|zk; any other edge puts k on x's or y's branch, where x,
    y, z, k induce xk|yz or yk|xz. Insertions never change the topology
    induced on existing leaves, so a quartet's status is frozen once its
    last leaf is in, and pruning drops no displayer, admits no extra one,
    and keeps the survivors in stream order. At the level of avoid's
    largest leaf the walk keeps the other edges instead: those whose
    child does not display avoid.

    It also looks ahead. Restricting any tree grown from a node to the
    node's leaves plus a later leaf w gives the node's tree with w hung on
    one of its edges, and that edge admits every quartet xy|zw whose x, y
    and z the node holds. So a node where no edge admits all of them, for
    some w, is dropped. When a leaf is inserted, an edge that admitted
    them still does, or one of its two halves does, so only a w that has
    just gained such a quartet is checked.
    """
    if n == 3:
        yield ()  # the star, the only tree on three leaves
        return
    levels: dict[int, list[tuple[int, int]]] = defaultdict(list)
    # by largest leaf w, the quartets xy|zw that are ready, x, y and z all
    # placed, at a node before the one inserting w
    early: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for q in quartets:
        k, (z, xy) = _insertion_test(q)
        levels[k].append((z, xy))
        ready = (z | xy).bit_length()  # the first node whose tree holds x, y, z
        if ready < k:
            early[k].append((ready, z, xy))
    # the lookahead: at the node on leaves 0..k-1, for each later leaf that
    # has just gained a ready quartet, the tests of all its ready quartets
    ahead: dict[int, list[list[tuple[int, int]]]] = defaultdict(list)
    for tests in early.values():
        for level in {ready for ready, _, _ in tests}:
            ahead[level].append([(z, xy) for ready, z, xy in tests if ready <= level])
    avoided, avoid_test = _insertion_test(avoid) if avoid is not None else (None, None)
    stack: list[tuple[tuple[int, ...], int]] = [((), 3)]
    while stack:
        splits, k = stack.pop()
        # each lookahead group, then the tests that prune here, must leave
        # an edge
        edges = _edges(splits, k)
        for tests in (*ahead.get(k, ()), levels.get(k, ())):
            kept = _admissible(edges, splits, k, tests)
            if not kept:
                break
        if not kept:
            continue  # some later leaf has no edge left to go into, or k has none
        if k == avoided:
            shown = set(_admissible(kept, splits, k, (avoid_test,)))
            kept = [u for u in kept if u not in shown]
            if not kept:
                continue
        children = _insert(splits, k, kept)
        if k == n - 1:
            yield from children
        else:
            stack.extend((child, k + 1) for child in reversed(children))


def _check_scan(n: int, cap: int | None, lead: str) -> None:
    """Refuse a binary walk past the cap, saying first what needed it."""
    try:
        _check_size(n, "binary", cap)
    except TooManyLeavesError as e:
        raise TooManyLeavesError(f"{lead}: {e}") from None


_INDEX_LEAVES = 8  # at most 8, or a split mask would not fit a byte of the table


class _Index:
    """The trees of _stream_masks(n, mode) as the bits of ints, bit t for
    the t-th tree: the index of the module docstring.

    splits maps each split mask to the trees holding it, and table holds
    the masks of each tree in a slot of width bytes, padded with zeros;
    both are filled from one pass of the stream, sized up front by
    count_trees. A quartet's row, the trees displaying it, is the
    OR of the rows of the splits separating its pairs, cached in rows on
    first use: there are at most 3 * C(n, 4) of them, 210 at 8 leaves. A
    row depends only on n, mode and the quartet, so a partly filled
    index answers as a fresh one would; threads racing on one entry
    compute it twice, the same both times.
    """

    def __init__(self, n: int, mode: Mode):
        size = count_trees(n, mode)
        self.every = (1 << size) - 1
        width = self.width = n - 3  # a binary tree's splits, the most a tree has
        # by mask, the trees holding it: a row for each split mask, the
        # masks without leaf 0 and with two leaves or more on either side,
        # in a list, which is read faster than a dict
        bits = [
            bytearray((size + 7) // 8)
            if not m & 1 and 1 < m.bit_count() < n - 1
            else None
            for m in range(1 << n)
        ]
        table = bytearray()
        byte, bit = 0, 1  # the t-th tree's: byte t >> 3, bit 1 << (t & 7)
        for masks in _stream_masks(n, mode):
            for m in masks:
                bits[m][byte] |= bit
            table += bytes(masks).ljust(width, b"\0")
            bit <<= 1
            if bit == 256:
                byte, bit = byte + 1, 1
        self.table = bytes(table)
        # each bytearray is freed as its int is made, so the two sets of
        # rows are never held at once
        self.splits: dict[int, int] = {}
        for m, row in enumerate(bits):
            if row is not None:
                bits[m] = None
                self.splits[m] = int.from_bytes(row, "little")
        self.rows: dict[tuple[int, int], int] = {}  # by pair masks, filled on use

    def row(self, pair: tuple[int, int]) -> int:
        """The trees displaying the quartet with these pair masks: those
        holding a split that separates them."""
        row = self.rows.get(pair)
        if row is None:
            row = reduce(
                or_,
                (t for m, t in self.splits.items() if _displays_masks((m,), (pair,))),
                0,
            )
            self.rows[pair] = row
        return row

    def tree(self, t: int) -> tuple[int, ...]:
        """The masks of the t-th tree: its slot of the table, less the zeros
        that pad it."""
        at = t * self.width
        return tuple(self.table[at : at + self.width].rstrip(b"\0"))

    def displayers(self, pairs, limit: int) -> tuple[int, list[tuple[int, ...]]]:
        """How many trees display every quartet, and the first limit of
        them, in stream order."""
        bits = self.every
        for pair in pairs:
            bits &= self.row(pair)
        count = bits.bit_count()
        found = []
        while bits and len(found) < limit:
            low = bits & -bits
            found.append(self.tree(low.bit_length() - 1))
            bits ^= low
        return count, found

    def first_misses(self, pairs, indices) -> list[tuple[int, tuple[int, ...]]]:
        """(i, masks) of the first tree that displays every quartet but
        pairs[i], for each i in indices that has one, in stream order."""
        rows = [self.row(pair) for pair in pairs]
        before = []  # before[i]: the trees displaying pairs[:i]
        bits = self.every
        for row in rows:
            before.append(bits)
            bits &= row
        wanted = set(indices)
        after = self.every  # the trees displaying pairs[i + 1:]
        found = []
        for i in reversed(range(len(rows))):
            if i in wanted:
                missing = before[i] & after & ~rows[i]
                if missing:
                    found.append(((missing & -missing).bit_length() - 1, i))
            after &= rows[i]
        return [(i, self.tree(t)) for t, i in sorted(found)]


@lru_cache(maxsize=None)
def _index(n: int, mode: Mode) -> _Index:
    """The index of the mode's stream on n leaves, built once per process."""
    return _Index(n, mode)


def _oracle_displayers(
    qs: QuartetSet, cap: int | None, mode: Mode = "all"
) -> Iterator[tuple[int, ...]]:
    """Every tree on qs's leaves displaying all of qs, in stream order.

    The enumeration stream itself, filtered as it grows: each tree is
    tested against the quartets whose largest leaf it has just received,
    and one that fails is dropped with every tree grown from it.
    """
    n = qs.leaves.n
    _check_size(n, mode, cap)
    levels: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for q in qs.sorted_quartets():
        levels[max(q.b, q.d)].append(q.pair_masks())
    return _stream_masks(n, mode, levels)


def _pairs(qs: QuartetSet) -> list[tuple[int, int]]:
    """Each quartet of qs as its pair masks (p1, p2)."""
    return [q.pair_masks() for q in qs.quartets]


def _holding(pairs, x: int) -> list[tuple[int, int]]:
    """The quartets, as pair masks, that hold leaf x."""
    return [p for p in pairs if (p[0] | p[1]) >> x & 1]


def _undistinguished_masks(masks: tuple[int, ...], pairs) -> list[int]:
    """The splits in masks that are no quartet's unique separating edge.

    The one edge-pinning check: a displayed quartet pins an edge when
    that edge is the only one separating its two pairs.
    """
    pinned = {_unique_separator(masks, p1, p2) for p1, p2 in pairs}
    return [m for m in masks if m not in pinned]


def _close_pairs(pairs) -> set[tuple[int, int]]:
    """Least fixpoint of the closure rule on quartets given as pair masks.

    Each quartet is (p1, p2) in normal form: p1 holds its lowest leaf.
    When two quartets have the same second pair and their first pairs
    share exactly one leaf, the quartet joining the two unshared leaves
    against that second pair is added: from ab|de and bc|de, ac|de.
    """
    present = set(pairs)
    groups: dict[int, list[int]] = defaultdict(list)
    work = sorted(present)
    for p1, p2 in work:
        groups[p2].append(p1)
    i = 0
    while i < len(work):
        p1, p2 = work[i]
        i += 1
        for other in tuple(groups[p2]):
            if (p1 & other).bit_count() != 1:
                continue
            joined = p1 ^ other
            new = (joined, p2) if joined & -joined < p2 & -p2 else (p2, joined)
            if new not in present:
                present.add(new)
                work.append(new)
                groups[new[1]].append(new[0])
    return present


def _build(leaves: int, triples: list[tuple[int, int]]) -> list[int] | None:
    """The clusters of the rooted tree BUILD grows on a leaf mask, or None.

    Each triple (ab, c) is the mask of a pair ab that the triple puts in
    a cluster without leaf c. BUILD links the two leaves of every pair
    whose three leaves lie in the current cluster, and the connected
    components become its children. None means some cluster of two or
    more leaves stayed connected, so no rooted tree displays the triples.
    """
    clusters = []
    stack = [(leaves, triples)]
    while stack:
        cluster, inside = stack.pop()
        linked: dict[int, int] = defaultdict(int)
        for ab, _ in inside:
            linked[ab & -ab] |= ab
            linked[ab & (ab - 1)] |= ab
        parts = []
        rest = cluster
        while rest:
            part = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = linked.get(low, 0) & ~part
                part |= new
                frontier |= new
            parts.append(part)
            rest ^= part
        if len(parts) == 1:
            return None
        for part in parts:
            if part & (part - 1):
                clusters.append(part)
                stack.append((part, [t for t in inside if not (t[0] | t[1]) & ~part]))
    return clusters


def _closure_certificate(qs: QuartetSet) -> list[tuple[int, ...]] | None:
    """Settle qs without a scan: its displayers' masks as defines reads them.

    The certificate of the module docstring. For each leaf x in turn,
    the closed quartets holding x are read as rooted triples with root x
    (xc|ab becomes ab|c) and handed to BUILD. The first x whose BUILD
    fails, or grows a binary tree T, settles qs: [T's masks] when T
    displays qs, and [] otherwise. None means no leaf settled it.
    """
    n = qs.leaves.n
    full = (1 << n) - 1
    pairs = _pairs(qs)
    closed = _close_pairs(pairs)
    for x in range(n):
        bit = 1 << x
        held = _holding(closed, x)
        triples = [(p2, p1 ^ bit) if p1 & bit else (p1, p2 ^ bit) for p1, p2 in held]
        clusters = _build(full ^ bit, triples)
        if clusters is None:
            return []
        if len(clusters) == n - 3:
            masks = tuple(_canonical(c, full) for c in clusters)
            return [masks] if _displays_masks(masks, pairs) else []
    return None


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
    Both modes read the oracle: the enumeration stream in that mode,
    filtered as it grows.
    """
    _check_mode(mode)
    if limit is not None and limit < 0:
        raise QuartetError(f"limit must be at least 0, got {limit}")
    ambient = leaves if leaves is not None else qs.leaves
    stream = _oracle_displayers(qs.translate(ambient), cap, mode)
    return [_unchecked_tree(ambient, masks) for masks in islice(stream, limit)]


def _resolve_ambient(
    qs: QuartetSet, leaves: LeafSet | None, allow_larger_ambient: bool
) -> tuple[QuartetSet, LeafSet]:
    support = qs.support_labels()
    if leaves is None:
        if len(support) < 4:
            raise TooFewLeavesError(
                "definitiveness needs at least four occupied leaves"
            )
        if len(support) == qs.leaves.n:
            return qs, qs.leaves
        moved = qs.restrict_to_support()
        return moved, moved.leaves
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
    mention; a larger one must be requested explicitly. Oracle mode
    counts every tree (no degree-2 vertices) that displays the set. On
    at most _INDEX_LEAVES leaves it reads the count and the first two
    displayers off the all-tree index; past that it grows every tree,
    drops each one as soon as a quartet whose last leaf it has inserted
    is not displayed, and counts the survivors. Either way the cap
    refuses an oracle set past it before any route runs. Fast mode reads
    the first two binary displayers off the binary index on at most
    _INDEX_LEAVES leaves, whatever the cap; past that it tries the
    closure certificate, then falls back on the binary scan, stopping at
    two displayers. The module docstring says why each is exact. In fast
    mode cap bounds the scans only: a set the index or the certificate
    settles is answered at any cap. A cap below 3 is refused on entry,
    whatever the route. Every route hands up to two displayers to one
    tail, which turns them into the verdict.
    """
    if mode not in ("fast", "oracle"):
        raise QuartetError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    _check_cap(cap)
    moved, ambient = _resolve_ambient(qs, leaves, allow_larger_ambient)
    n = ambient.n
    if mode == "oracle":
        if n <= _INDEX_LEAVES:
            _check_size(n, "all", cap)
            count, found = _index(n, "all").displayers(_pairs(moved), 2)
        else:
            stream = _oracle_displayers(moved, cap)
            found = list(islice(stream, 2))
            count = len(found) + sum(1 for _ in stream)
    elif n <= _INDEX_LEAVES:
        count = None
        _, found = _index(n, "binary").displayers(_pairs(moved), 2)
    else:
        count = None
        found = _closure_certificate(moved)
        if found is None:
            _check_scan(
                n,
                cap,
                f"the closure certificate did not settle {len(moved)} quartets on "
                f"{n} leaves, and the binary scan it falls back on refuses them",
            )
            found = list(islice(_binary_walk(moved.sorted_quartets(), n), 2))
    examples = tuple(PhyloTree(ambient, m) for m in found)
    if not examples:
        return DefinitivenessVerdict(INCOMPATIBLE, None, 0, (), mode)
    if len(examples) == 1:
        return DefinitivenessVerdict(DEFINES, examples[0], count, examples, mode)
    return DefinitivenessVerdict(NOT_DEFINITIVE, None, count, examples, mode)


def undistinguished_edges(qs: QuartetSet, tree: PhyloTree) -> tuple[Split, ...]:
    """Splits of the tree that are nobody's unique separating edge."""
    pairs = _pairs(qs.translate(tree.leaves))
    return tuple(Split(m, tree.n) for m in _undistinguished_masks(tree.masks, pairs))


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

    A binary tree that displays both Q minus q and q displays Q, so it
    is T; the trees other than T that display Q minus q are exactly
    those that miss q alone. So q's witness, when no edge is left loose,
    is the first tree in stream order whose only miss is q, and a
    quartet with no such tree is redundant: every edge of T is pinned
    without it, and T is the only binary tree left. On at most
    _INDEX_LEAVES leaves the index gives each such tree directly,
    whatever the cap. Past that, a removal is first settled as redundant
    when, in the closure of the rest, the quartets holding one leaf pin
    every edge of T, and each quartet still open gets one walk of its
    own: the first binary tree, in stream order, that displays the rest
    and not q.

    defines decides the set first, and refuses a cap below 3 before any
    route runs. The per-quartet checks are _removal_witnesses, which
    run_search's strip shares. mode picks only how definitiveness is
    decided: in both modes the removal witnesses come from the fast
    checks under the binary cap, and TestMinimalityAgainstTheOracle
    checks them against the oracle.
    """
    verdict = defines(qs, mode=mode, cap=cap)
    size = len(qs)
    n = len(qs.support_labels())
    if not verdict.is_definitive:
        return MinimalityReport(verdict, (), None, size, n)
    tree = verdict.tree
    quartets = qs.translate(tree.leaves).sorted_quartets()
    witnesses = _removal_witnesses(quartets, tree, range(len(quartets)), cap)
    entries = tuple((q, witnesses[i]) for i, q in enumerate(quartets))
    minimal = all(w.kind != "redundant" for w in witnesses.values())
    return MinimalityReport(verdict, entries, minimal, size, n)


def _removal_witnesses(
    quartets: list[Quartet], tree: PhyloTree, indices: Iterable[int], cap: int | None
) -> dict[int, RemovalWitness]:
    """The removal witness of quartets[i] for each i in indices, by index.

    quartets are sorted, indexed against tree's leaves, and define tree.
    This is the one removal check. Its first step fixes the witness
    kind: an edge of tree that the rest leaves unpinned. The quartets pin
    every edge, so that can only be quartets[i]'s own unique separator,
    when no other quartet pins it; one count of the quartets pinning
    each edge serves every index. On at most _INDEX_LEAVES leaves the
    index then gives each remaining index its first tree missing
    quartets[i] alone, or marks it redundant. Past that, the closure of
    the rest pinning every edge from one leaf makes quartets[i] redundant,
    and one walk per open quartet, refused past the cap, settles the
    rest: the first tree of _binary_walk over the other quartets that
    avoids quartets[i]. An index's witness depends only on the quartets,
    so asking for fewer indices gives the same witnesses for those:
    minimality_report asks for every index, the strip in run_search for
    one.
    """
    n = tree.n
    masks = tree.masks
    pairs = [q.pair_masks() for q in quartets]
    separators = [_unique_separator(masks, p1, p2) for p1, p2 in pairs]
    pins = Counter(separators)
    indexed = n <= _INDEX_LEAVES
    witnesses: dict[int, RemovalWitness] = {}
    left = []
    for i in indices:
        own = separators[i]
        if own is not None and pins[own] == 1:
            witnesses[i] = RemovalWitness("undistinguished_edge", split=Split(own, n))
            continue
        if not indexed:
            closed = _close_pairs(pairs[:i] + pairs[i + 1 :])
            if any(
                not _undistinguished_masks(masks, _holding(closed, x)) for x in range(n)
            ):
                witnesses[i] = RemovalWitness("redundant")
                continue
        left.append(i)
    if not left:
        return witnesses
    if indexed:
        alternatives = dict(_index(n, "binary").first_misses(pairs, left))
    else:
        _check_scan(
            n,
            cap,
            f"the minimality witnesses for {len(left)} of {len(quartets)} "
            f"quartets on {n} leaves need the binary scan, which refuses them",
        )
        alternatives = {
            i: next(_binary_walk(quartets[:i] + quartets[i + 1 :], n, quartets[i]), None)
            for i in left
        }
    for i in left:
        found = alternatives.get(i)
        witnesses[i] = (
            RemovalWitness("alternative_tree", tree=PhyloTree(tree.leaves, found))
            if found is not None
            else RemovalWitness("redundant")
        )
    return witnesses


def semantic_infers(
    qs: QuartetSet,
    q: Quartet,
    leaves: LeafSet | None = None,
    *,
    cap: int | None = None,
) -> bool:
    """Whether every tree displaying all of qs also displays q.

    Exhaustive over the trees with no degree-2 vertices on the ambient
    leaves (default: the quartet set's own) that display qs, as read
    from the oracle's filtered enumeration stream. The quartet q is
    indexed against the quartet set's leaf set.
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

    def quartet(p1: int, p2: int) -> Quartet:
        a, c = ((m & -m).bit_length() - 1 for m in (p1, p2))
        return Quartet(a, p1.bit_length() - 1, c, p2.bit_length() - 1)

    closed = _close_pairs(q.pair_masks() for q in qs.quartets)
    return QuartetSet(qs.leaves, frozenset(quartet(*p) for p in closed))

