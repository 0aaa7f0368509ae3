"""Exhaustive tree streams: counts, uniqueness, determinism, pruning."""

import random

import pytest

import oracles
from conftest import DATA
from quartets import (
    PhyloTree,
    QuartetSet,
    TooFewLeavesError,
    TooManyLeavesError,
    count_trees,
    displayers,
    enumerate_trees,
    integer_leaves,
    minimal_definitive_set,
    normalized_quartet,
    parse_quartet_file,
    tree_from_splits,
)
from quartets import enumeration
from quartets.decide import _binary_walk, _oracle_displayers
from quartets.enumeration import _children, _edges, _insert, _positions, _stream_masks
from quartets.model import _displays_masks


@pytest.mark.parametrize("n", range(4, 9))
def test_binary_counts_match_double_factorial(n):
    assert count_trees(n, "binary") == oracles.binary_tree_count(n)


@pytest.mark.parametrize("n", range(4, 10))
def test_all_mode_counts_match_recurrence(n):
    assert count_trees(n, "all") == oracles.all_tree_count(n)


def test_pinned_small_counts():
    # regression constants; the oracle functions above are the source
    assert count_trees(3, "binary") == 1
    assert count_trees(4, "all") == 4
    assert count_trees(5, "all") == 26
    assert count_trees(6, "all") == 236
    assert count_trees(7, "all") == 2752
    assert count_trees(8, "all") == 39208


@pytest.mark.parametrize("mode", ["binary", "all"])
@pytest.mark.parametrize("m", range(3, 9))
def test_positions_count_the_children(m, mode):
    # count_trees rests on this: the stream's next level is one child per
    # position of every tree it yields
    all_mode = mode == "all"
    for splits in _stream_masks(m, mode):
        assert len(_children(splits, m, all_mode)) == _positions(splits, m, all_mode)


class TestCountWork:
    """How many trees a count builds, pinned so that building the last
    level again fails here instead of only running slower."""

    @pytest.mark.parametrize(
        "n, mode, built",
        [
            # the trees on 4..9 leaves; building the last level too
            # would make it 2,173,623
            (10, "binary", 146598),
            (8, "all", 4 + 26 + 236 + 2752),
            (4, "binary", 0),
        ],
    )
    def test_children_built(self, n, mode, built, monkeypatch):
        sizes = []
        real = enumeration._children

        def counting(*args):
            children = real(*args)
            sizes.append(len(children))
            return children

        monkeypatch.setattr(enumeration, "_children", counting)
        count_trees(n, mode)
        assert sum(sizes) == built


@pytest.mark.parametrize("mode", ["binary", "all"])
@pytest.mark.parametrize("n", range(4, 8))
def test_no_duplicates(n, mode):
    stream = list(enumerate_trees(integer_leaves(n), mode))
    assert len(set(stream)) == len(stream)


@pytest.mark.parametrize("n", range(4, 8))
def test_binary_stream_is_the_binary_slice_of_all(n):
    ls = integer_leaves(n)
    binary = set(enumerate_trees(ls, "binary"))
    everything = set(enumerate_trees(ls, "all"))
    assert binary <= everything
    assert {t for t in everything if t.is_binary()} == binary


def test_yielded_trees_survive_validation():
    ls = integer_leaves(6)
    for mode in ("binary", "all"):
        for tree in enumerate_trees(ls, mode):
            rebuilt = tree_from_splits(ls, tree.splits)
            assert rebuilt == tree
            assert len(tree.splits) <= ls.n - 3


def test_stream_is_restartable_and_deterministic():
    stream = enumerate_trees(integer_leaves(6), "all")
    assert list(stream) == list(stream)


@pytest.mark.parametrize(
    "n, mode", [(n, mode) for n in range(4, 9) for mode in ("binary", "all")] + [(9, "binary")]
)
def test_stream_trees_pass_the_checking_constructor(n, mode):
    # the stream wraps its trees unchecked; each must be the tree the
    # checking constructor builds, on masks it would not have to fix
    ls = integer_leaves(n)
    for tree in enumerate_trees(ls, mode):
        masks = tree.masks
        assert type(masks) is tuple
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(not m & 1 and 2 <= m.bit_count() <= n - 2 for m in masks)
        assert tree == PhyloTree(ls, masks)


def test_stream_and_displayers_skip_the_checking_constructor(monkeypatch):
    qs = parse_quartet_file((DATA / "q7.txt").read_text())
    checked = PhyloTree.__post_init__
    calls = 0

    def counting(self):
        nonlocal calls
        calls += 1
        checked(self)

    monkeypatch.setattr(PhyloTree, "__post_init__", counting)
    assert sum(1 for _ in enumerate_trees(7, "all")) == 2752
    assert len(displayers(qs)) == 1
    assert calls == 0
    PhyloTree(integer_leaves(4), ())
    assert calls == 1  # the count is live


def _insert_by_sorting(splits, k, edges):
    """Subdivide each edge with leaf k and sort each child's splits."""
    bitk = 1 << k
    children = []
    for u in edges:
        child = [m | bitk if u & ~m == 0 else m for m in splits if m != u]
        child += [s for s in (u, u | bitk) if 2 <= s.bit_count() <= k - 1]
        children.append(tuple(sorted(child)))
    return children


@pytest.mark.parametrize("mode", ["binary", "all"])
def test_insert_matches_a_sorted_rebuild(mode):
    # every parent of a tree on up to 8 leaves, with all its edges and with
    # every second one, as the walk passes the edges it has not pruned
    for k in range(3, 8):
        for splits in _stream_masks(k, mode):
            edges = _edges(splits, k)
            pendant = [1 << v for v in range(1, k)] + [(1 << k) - 2]
            assert edges == sorted(pendant + list(splits))
            for some in (edges, edges[::2], edges[1::2]):
                assert _insert(splits, k, some) == _insert_by_sorting(splits, k, some)


def _attach_by_sorting(splits, k):
    """Attach leaf k to each split's vertex and sort each child's splits."""
    bitk = 1 << k
    return [tuple(sorted(m | bitk if v & ~m == 0 else m for m in splits)) for v in splits]


def test_vertex_attach_matches_a_sorted_rebuild():
    for k in range(3, 8):
        for splits in _stream_masks(k, "all"):
            subdivided = _children(splits, k, False)
            expected = subdivided + [splits] + _attach_by_sorting(splits, k)
            assert _children(splits, k, True) == expected


def _assert_pruned_is_filtered(qs, mode, whole):
    """The binary walk with nothing to avoid and binary displayers, or for
    "all" the oracle, are the full stream filtered at the end, in order."""
    pairs = [q.pair_masks() for q in qs.sorted_quartets()]
    expected = [m for m in whole if _displays_masks(m, pairs)]
    if mode == "all":
        assert list(_oracle_displayers(qs, None)) == expected
    else:
        walked = list(_binary_walk(qs.sorted_quartets(), qs.leaves.n))
        assert walked == expected
        assert [t.masks for t in displayers(qs, mode="binary")] == expected
    return len(expected)


def _random_quartets(rng, n, whole):
    """Mostly quartets displayed by one random tree, so displayers survive,
    plus some arbitrary ones, so conflicts and empty streams occur too."""
    source = rng.choice(whole)
    quartets = set()
    for _ in range(rng.randint(1, n)):
        a, b, c, d = rng.sample(range(n), 4)
        options = [normalized_quartet(a, b, c, d)]
        if rng.random() < 0.7:
            options += [normalized_quartet(a, c, b, d), normalized_quartet(a, d, b, c)]
            options = [q for q in options if _displays_masks(source, [q.pair_masks()])]
        quartets.update(options[:1])
    return quartets


@pytest.mark.parametrize("mode", ["binary", "all"])
@pytest.mark.parametrize("n", range(4, 9))
def test_pruned_stream_is_the_filtered_stream(n, mode):
    rng = random.Random(100 * n + len(mode))
    ls = integer_leaves(n)
    whole = list(_stream_masks(n, mode))
    survivors = []
    for _ in range(15):
        quartets = _random_quartets(rng, n, whole)
        if quartets:
            qs = QuartetSet(ls, frozenset(quartets))
            survivors.append(_assert_pruned_is_filtered(qs, mode, whole))
    assert any(survivors) and not all(survivors)


def test_pruned_stream_on_the_ten_leaf_construction():
    whole = _stream_masks(10, "binary")
    assert _assert_pruned_is_filtered(minimal_definitive_set(10), "binary", whole) == 1


@pytest.mark.parametrize("mode", ["binary", "all"])
def test_pruned_stream_on_the_eight_leaf_construction_minus_one(mode):
    qs = minimal_definitive_set(8)
    whole = list(_stream_masks(8, mode))
    for q in qs.sorted_quartets():
        assert _assert_pruned_is_filtered(qs.without_quartet(q), mode, whole) > 1


def test_caps_enforced():
    with pytest.raises(TooManyLeavesError):
        count_trees(13, "binary")
    with pytest.raises(TooManyLeavesError):
        count_trees(10, "all")
    with pytest.raises(TooFewLeavesError):
        count_trees(2, "binary")


def test_explicit_cap_overrides_default():
    with pytest.raises(TooManyLeavesError):
        count_trees(9, "binary", cap=8)
    assert count_trees(9, "binary", cap=9) == oracles.binary_tree_count(9)


@pytest.mark.parametrize("n, mode", [(70, "binary"), (65, "all")])
def test_no_cap_reaches_past_the_model_cap(n, mode):
    with pytest.raises(TooManyLeavesError, match=f"^{n} leaves exceeds the 64-leaf cap$"):
        count_trees(n, mode, cap=n)


def test_bad_mode_rejected():
    with pytest.raises(Exception):
        count_trees(5, "ternary")
