"""Core value types: leaves, splits, quartets, trees, and tree surgery."""

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from quartets import (
    DuplicateLeafError,
    IncompatibleSplitsError,
    LabelCollisionError,
    LeafSet,
    NoSuchSplitError,
    NonBijectiveError,
    PhyloTree,
    Quartet,
    QuartetError,
    QuartetSet,
    Split,
    TooManyLeavesError,
    TrivialSplitError,
    UnknownLeafError,
    caterpillar,
    caterpillar_from_order,
    cherry_replace,
    compatible,
    contract,
    displays,
    distinguished_edge,
    enumerate_trees,
    integer_leaves,
    make_quartet,
    normalized_quartet,
    relabel,
    remove_leaf,
    reverse,
    tree_from_splits,
)
from quartets import model
from quartets.model import natural_key


def _natural_key_by_regex(label):
    """natural_key without its all-decimal shortcut."""
    parts = []
    for i, chunk in enumerate(re.split(r"(\d+)", label)):
        if chunk:
            parts.append((0, int(chunk)) if i % 2 else (1, chunk))
    return (tuple(parts), label)


class TestLeafSet:
    def test_numeric_aware_ordering(self):
        ls = LeafSet.from_labels(["10", "2", "1"])
        assert ls.labels == ("1", "2", "10")

    def test_constructor_sorts_the_labels(self):
        assert LeafSet(("10", "2", "1")).labels == ("1", "2", "10")

    def test_from_labels_sorts_once(self, monkeypatch):
        calls = []

        def counting(label):
            calls.append(label)
            return natural_key(label)

        monkeypatch.setattr(model, "natural_key", counting)
        LeafSet.from_labels(["10", "2", "1", "b"])
        assert sorted(calls) == ["1", "10", "2", "b"]

    def test_natural_key_mixes_text_and_numbers(self):
        labels = ["b2", "b10", "a", "a1"]
        assert sorted(labels, key=natural_key) == ["a", "a1", "b2", "b10"]

    def test_natural_key_fast_path_matches_the_regex_path(self):
        # "²" and "①" are digits but not decimal, so they take the regex path
        labels = ["0", "7", "007", "10", "٣", "१२", "²", "①", "a1", "1a", ""]
        for label in labels:
            assert natural_key(label) == _natural_key_by_regex(label), label
        mixed = labels[:-1]
        random.Random(5).shuffle(mixed)
        expected = tuple(sorted(mixed, key=_natural_key_by_regex))
        assert LeafSet.from_labels(mixed).labels == expected

    def test_all_decimal_labels_sort_as_natural_key_sorts_them(self):
        # the sets whose labels are all decimal, which sort without a key:
        # leading zeros tie on the number, and non-ASCII digits count too
        rng = random.Random(32)
        for labels in (
            ["7", "07", "007", "10", "0", "1", "01", "70"],
            ["٣", "१२", "3", "12", "03", "٠٣", "2"],
            [str(rng.randrange(200)).zfill(rng.randint(1, 4)) for _ in range(40)],
        ):
            labels = list(dict.fromkeys(labels))
            for _ in range(5):
                rng.shuffle(labels)
                expected = tuple(sorted(labels, key=_natural_key_by_regex))
                assert LeafSet(tuple(labels)).labels == expected

    def test_index_label_bijection(self):
        ls = integer_leaves(8)
        for i, label in enumerate(ls.labels):
            assert ls.index(label) == i
        assert "3" in ls
        assert "9" not in ls

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLeafError):
            LeafSet.from_labels(["1", "2", "1"])

    def test_empty_label_rejected(self):
        with pytest.raises(QuartetError):
            LeafSet.from_labels(["1", ""])

    def test_hard_cap_64(self):
        integer_leaves(64)
        with pytest.raises(TooManyLeavesError):
            integer_leaves(65)

    def test_unknown_label(self):
        with pytest.raises(UnknownLeafError):
            integer_leaves(4).index("7")


class TestSplit:
    def test_canonical_side_excludes_first_leaf(self):
        ls = integer_leaves(6)
        a = Split.from_side(ls, ["1", "2"])
        b = Split.from_side(ls, ["3", "4", "5", "6"])
        assert a == b
        assert a.mask & 1 == 0

    def test_mask_containing_index_zero_rejected(self):
        with pytest.raises(QuartetError):
            Split(0b0011, 6)

    @pytest.mark.parametrize("mask", [0, 1 << 6])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(QuartetError, match="split mask out of range for its leaf set"):
            Split(mask, 6)

    def test_whole_leaf_set_is_not_a_side(self):
        with pytest.raises(QuartetError, match="split side must not be the whole leaf set") as caught:
            Split.from_side(integer_leaves(5), ["1", "2", "3", "4", "5"])
        assert type(caught.value) is QuartetError

    def test_empty_side_is_not_a_side(self):
        # it canonicalises to mask 0 as the whole leaf set does, but gets
        # its own message
        with pytest.raises(QuartetError) as caught:
            Split.from_side(integer_leaves(5), [])
        assert type(caught.value) is QuartetError
        assert str(caught.value) == "split side must not be empty"

    def test_sides_need_the_split_leaf_set(self):
        split = Split.from_side(integer_leaves(6), ["5", "6"])
        with pytest.raises(UnknownLeafError, match="split does not belong to this leaf set"):
            split.sides(integer_leaves(5))

    def test_text_puts_low_side_first(self):
        ls = integer_leaves(6)
        s = Split.from_side(ls, ["5", "6"])
        assert s.text(ls) == "1,2,3,4|5,6"
        assert s.sides(ls) == (("1", "2", "3", "4"), ("5", "6"))

    def test_nontrivial(self):
        ls = integer_leaves(5)
        assert Split.from_side(ls, ["4", "5"]).is_nontrivial()
        assert not Split.from_side(ls, ["5"]).is_nontrivial()

    def test_compatibility(self):
        ls = integer_leaves(6)
        nested = Split.from_side(ls, ["5", "6"])
        outer = Split.from_side(ls, ["4", "5", "6"])
        disjoint = Split.from_side(ls, ["2", "3"])
        crossing = Split.from_side(ls, ["4", "6"])
        assert compatible(nested, outer)
        assert compatible(nested, disjoint)
        assert not compatible(nested, crossing)

    def test_compatibility_across_leaf_sets_rejected(self):
        a = Split.from_side(integer_leaves(5), ["4", "5"])
        b = Split.from_side(integer_leaves(6), ["5", "6"])
        with pytest.raises(QuartetError, match="splits over different leaf sets"):
            compatible(a, b)

    def test_duplicate_side_label(self):
        ls = integer_leaves(5)
        with pytest.raises(DuplicateLeafError):
            Split.from_side(ls, ["2", "2"])


class TestQuartet:
    def test_normalization_collapses_symmetries(self):
        ls = integer_leaves(6)
        q = make_quartet(ls, "5", "6", "1", "2")
        assert q.text(ls) == "1,2|5,6"
        for a, b in (("1", "2"), ("2", "1")):
            for c, d in (("5", "6"), ("6", "5")):
                assert make_quartet(ls, a, b, c, d) == q
                assert make_quartet(ls, c, d, a, b) == q

    def test_first_quartet_of_the_size_four_set(self, leaves6):
        assert make_quartet(leaves6, 1, 2, 3, 5).text(leaves6) == "1,2|3,5"

    def test_duplicate_leaf_rejected(self, leaves6):
        with pytest.raises(DuplicateLeafError):
            make_quartet(leaves6, 1, 1, 2, 3)

    def test_unknown_label_rejected(self, leaves6):
        with pytest.raises(UnknownLeafError):
            make_quartet(leaves6, 1, 2, 3, 9)

    def test_not_normal_form_rejected(self):
        with pytest.raises(QuartetError, match="quartet not in normal form"):
            Quartet(2, 3, 0, 1)

    def test_negative_index_rejected(self):
        # Python would read index -1 as the last label, and a shift by it
        # fails with a bare ValueError
        with pytest.raises(UnknownLeafError, match="quartet index -1 is negative"):
            Quartet(-1, 0, 1, 2)
        with pytest.raises(UnknownLeafError):
            QuartetSet(integer_leaves(4), frozenset({normalized_quartet(0, -1, 1, 2)}))

    def test_set_index_out_of_range_rejected(self):
        with pytest.raises(UnknownLeafError, match="quartet index 5 out of range for 5 leaves"):
            QuartetSet(integer_leaves(5), frozenset({normalized_quartet(0, 1, 2, 5)}))

    @given(st.permutations(range(8)))
    def test_normal_form_invariants(self, perm):
        a, b, c, d = perm[:4]
        q = normalized_quartet(a, b, c, d)
        assert q.a < q.b and q.c < q.d and q.a < q.c
        assert sorted(q.indices()) == sorted((a, b, c, d))

    def test_ordering_is_total_on_indices(self):
        qs = {normalized_quartet(*p[:4]) for p in itertools.permutations(range(5), 4)}
        ordered = sorted(qs)
        assert ordered == sorted(ordered, key=lambda q: q.indices())


class TestTreeConstruction:
    def test_caterpillar_from_named_splits(self, leaves6, t6):
        splits = [
            Split.from_side(leaves6, ["1", "2"]),
            Split.from_side(leaves6, ["1", "2", "3"]),
            Split.from_side(leaves6, ["5", "6"]),
        ]
        assert tree_from_splits(leaves6, splits) == t6
        assert t6.is_binary()

    def test_star_tree(self):
        star = tree_from_splits(integer_leaves(4), [])
        assert star.splits == frozenset()
        assert not star.is_binary()

    def test_incompatible_pair_named(self):
        ls = integer_leaves(5)
        a = Split.from_side(ls, ["1", "2"])
        b = Split.from_side(ls, ["1", "3"])
        with pytest.raises(IncompatibleSplitsError) as err:
            tree_from_splits(ls, [a, b])
        assert set(err.value.pair) == {a, b}

    def test_trivial_split_rejected(self):
        ls = integer_leaves(5)
        with pytest.raises(TrivialSplitError):
            PhyloTree(ls, (Split.from_side(ls, ["5"]).mask,))

    def test_mask_holding_leaf_zero_rejected(self):
        ls = integer_leaves(5)
        with pytest.raises(QuartetError):
            PhyloTree(ls, (0b00011,))  # the side holding "1" is not canonical

    @pytest.mark.parametrize("mask", [0, 1 << 5, 0b100110])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(UnknownLeafError):
            PhyloTree(integer_leaves(5), (mask,))

    def test_masks_stored_sorted_and_distinct(self, leaves6, t6):
        shuffled = tuple(reversed(t6.masks)) + t6.masks
        assert PhyloTree(leaves6, shuffled).masks == t6.masks == tuple(sorted(t6.masks))

    def test_split_from_other_leaf_set_rejected(self):
        ls5 = integer_leaves(5)
        with pytest.raises(UnknownLeafError):
            tree_from_splits(ls5, [Split.from_side(integer_leaves(6), ["1", "2"])])

    def test_equality_ignores_split_order(self, leaves6, t6):
        shuffled = sorted(t6.splits, key=lambda s: -s.mask)
        assert tree_from_splits(leaves6, shuffled) == t6


class TestDisplays:
    def test_caterpillar_displays_ordered_quartets(self, leaves6, t6):
        # any a<b<c<d quartet lies along the spine
        for a, b, c, d in itertools.combinations(range(1, 7), 4):
            assert displays(t6, make_quartet(leaves6, a, b, c, d))

    def test_alternative_order_caterpillar_misses_one(self, leaves6):
        other = caterpillar_from_order([2, 4, 6, 1, 5, 3])
        assert displays(other, make_quartet(leaves6, 1, 3, 4, 6))
        assert not displays(other, make_quartet(leaves6, 1, 2, 5, 6))

    def test_star_displays_nothing(self):
        ls = integer_leaves(4)
        star = tree_from_splits(ls, [])
        assert not displays(star, make_quartet(ls, 1, 2, 3, 4))

    def test_out_of_range_quartet(self, t6):
        ls9 = integer_leaves(9)
        q = make_quartet(ls9, 1, 9, 2, 3)
        with pytest.raises(UnknownLeafError):
            displays(t6, q)

    def test_swapping_pairs_changes_nothing(self, leaves6, t6):
        assert displays(t6, make_quartet(leaves6, 3, 5, 1, 2))


class TestDistinguishedEdge:
    def test_unique_separator(self, leaves6, t6):
        e = distinguished_edge(t6, make_quartet(leaves6, 1, 2, 3, 5))
        assert e is not None and e.text(leaves6) == "1,2|3,4,5,6"

    def test_multiple_separators_give_none(self, leaves6, t6):
        # all three interior edges separate {1,2} from {5,6}
        assert distinguished_edge(t6, make_quartet(leaves6, 1, 2, 5, 6)) is None

    def test_middle_edge(self, leaves6, t6):
        e = distinguished_edge(t6, make_quartet(leaves6, 1, 3, 4, 6))
        assert e is not None and e.text(leaves6) == "1,2,3|4,5,6"

    def test_implies_displays(self, leaves6, t6):
        for a, b, c, d in itertools.combinations(range(1, 7), 4):
            for q in (
                make_quartet(leaves6, a, b, c, d),
                make_quartet(leaves6, a, c, b, d),
                make_quartet(leaves6, a, d, b, c),
            ):
                if distinguished_edge(t6, q) is not None:
                    assert displays(t6, q)


class TestRelabel:
    def test_identity(self, t6):
        ident = {str(j): str(j) for j in range(1, 7)}
        assert relabel(t6, ident) == t6

    def test_reverse_fixes_the_caterpillar(self, t6):
        assert reverse(t6) == t6

    def test_reverse_quartet_on_seven_leaves(self):
        ls7 = integer_leaves(7)
        q = make_quartet(ls7, 1, 2, 3, 5)
        assert reverse(q, leaves=ls7).text(ls7) == "3,5|6,7"

    def test_reverse_bare_quartet_needs_its_leaf_set(self):
        q = make_quartet(integer_leaves(7), 1, 2, 3, 5)
        with pytest.raises(QuartetError, match="bare quartet needs its leaf set"):
            reverse(q)
        with pytest.raises(QuartetError, match="bare quartet needs its leaf set"):
            relabel(q, {"1": "2", "2": "1"})

    def test_reverse_rejects_a_non_tree(self):
        with pytest.raises(QuartetError, match="cannot reverse int"):
            reverse(42)

    def test_relabel_rejects_a_non_tree(self):
        with pytest.raises(QuartetError, match="cannot relabel int"):
            relabel(42, {})

    def test_non_bijective_rejected(self, t6):
        squash = {str(j): "1" for j in range(1, 7)}
        with pytest.raises(NonBijectiveError):
            relabel(t6, squash)

    def test_partial_map_rejected(self, t6):
        with pytest.raises(UnknownLeafError):
            relabel(t6, {"1": "2", "2": "1"})

    def test_reverse_needs_integer_range(self):
        tree = caterpillar_from_order(["a", "b", "c", "d"])
        with pytest.raises(QuartetError):
            reverse(tree)

    @pytest.mark.parametrize(
        "labels",
        [["01", "2", "3", "4"], ["1", "2", "3", "+4"], ["1", "2", "3", "x"]],
        ids=["leading-zero", "plus-sign", "non-numeric"],
    )
    def test_reverse_needs_exactly_the_labels_one_to_n(self, labels):
        # "01" and "+4" parse as integers but are not the labels 1..n
        tree = caterpillar_from_order(labels)
        with pytest.raises(QuartetError, match="reversal needs the labels 1..n") as info:
            reverse(tree)
        assert not isinstance(info.value, UnknownLeafError)

    def test_displays_invariant_under_relabel(self):
        # sample trees from the stream, quartets and label permutations at random
        rng = random.Random(2024)
        ls = integer_leaves(8)
        trees = []
        want = sorted(rng.sample(range(10395), 40))
        for i, tree in enumerate(enumerate_trees(ls, "binary")):
            if want and i == want[0]:
                trees.append(tree)
                want.pop(0)
            if not want:
                break
        checked = 0
        for tree in trees:
            for _ in range(5):
                a, b, c, d = rng.sample(range(1, 9), 4)
                q = make_quartet(ls, a, b, c, d)
                perm = list(range(1, 9))
                rng.shuffle(perm)
                sigma = {str(j): str(perm[j - 1]) for j in range(1, 9)}
                moved_tree = relabel(tree, sigma)
                moved_q = relabel(q, sigma, leaves=ls)
                assert displays(moved_tree, moved_q) == displays(tree, q)
                checked += 1
        assert checked == 200


class TestCherryReplace:
    def test_single_edge_example(self):
        ls4 = integer_leaves(4)
        tree = tree_from_splits(ls4, [Split.from_side(ls4, ["3", "4"])])
        grown = cherry_replace(tree, "4", "5")
        ls5 = grown.leaves
        assert ls5.labels == ("1", "2", "3", "4", "5")
        texts = {s.text(ls5) for s in grown.splits}
        assert texts == {"1,2|3,4,5", "1,2,3|4,5"}

    def test_split_count_grows_by_one(self, t6):
        grown = cherry_replace(t6, 6, 7)
        assert len(grown.splits) == len(t6.splits) + 1

    def test_unknown_leaf(self, t6):
        with pytest.raises(UnknownLeafError):
            cherry_replace(t6, "9", "10")

    def test_remove_unknown_leaf(self, t6):
        with pytest.raises(UnknownLeafError, match="no leaf '9' in tree"):
            remove_leaf(t6, "9")

    def test_label_collision(self, t6):
        with pytest.raises(LabelCollisionError):
            cherry_replace(t6, "6", "1")

    # "0" sorts before leaf 0, so every canonical side flips; "3a" lands
    # between 3 and 4; "7" sorts last
    @pytest.mark.parametrize("new", ["0", "3a", "7"])
    def test_remove_leaf_inverts_it(self, new):
        # round trip over every enumerated binary tree and every leaf, n=6
        ls = integer_leaves(6)
        for tree in enumerate_trees(ls, "binary"):
            for x in ls.labels:
                grown = cherry_replace(tree, x, new)
                assert remove_leaf(grown, new) == tree


def _from_sides(leaves, sides):
    """Reference: the tree on leaves with one split per label side."""
    return tree_from_splits(leaves, {Split.from_side(leaves, side) for side in sides})


class TestSurgeryAgainstLabelReference:
    def test_every_six_leaf_tree(self):
        # remove_leaf, cherry_replace and relabel against rebuilding each
        # tree from its label sides
        rng = random.Random(6)
        ls = integer_leaves(6)
        for tree in enumerate_trees(ls, "all"):
            sides = [s.sides(ls)[1] for s in tree.splits]
            for x in ls.labels:
                rest = LeafSet.from_labels(l for l in ls.labels if l != x)
                kept = [[l for l in side if l != x] for side in sides]
                assert remove_leaf(tree, x) == _from_sides(
                    rest, [k for k in kept if 2 <= len(k) <= rest.n - 2]
                )
                for new in ("0", "3a", "7"):
                    grown = LeafSet.from_labels(ls.labels + (new,))
                    carried = [side + (new,) if x in side else side for side in sides]
                    assert cherry_replace(tree, x, new) == _from_sides(
                        grown, carried + [(x, new)]
                    )
            letters = list("abcdef")
            rng.shuffle(letters)
            sigma = dict(zip(ls.labels, letters))
            assert relabel(tree, sigma) == _from_sides(
                LeafSet.from_labels(letters), [[sigma[l] for l in side] for side in sides]
            )


class TestContract:
    def test_removes_exactly_one_split(self, leaves6, t6):
        edge = Split.from_side(leaves6, ["1", "2"])
        smaller = contract(t6, edge)
        assert smaller.splits == t6.splits - {edge}
        assert displays(smaller, make_quartet(leaves6, 1, 3, 4, 6))
        assert displays(smaller, make_quartet(leaves6, 2, 4, 5, 6))
        assert not displays(smaller, make_quartet(leaves6, 1, 2, 3, 5))

    def test_contracting_distinguished_edge_drops_the_quartet(self, leaves6, t6):
        q = make_quartet(leaves6, 1, 3, 4, 6)
        e = distinguished_edge(t6, q)
        assert not displays(contract(t6, e), q)

    def test_missing_split(self, leaves6, t6):
        with pytest.raises(NoSuchSplitError):
            contract(t6, Split.from_side(leaves6, ["2", "3"]))

    def test_contract_last_split_gives_star(self):
        ls4 = integer_leaves(4)
        tree = caterpillar(4)
        star = contract(tree, next(iter(tree.splits)))
        assert star.splits == frozenset()
