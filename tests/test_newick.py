"""Newick reading and writing; writing is canonical, reading is liberal."""

import hashlib
import random
import re
from string import ascii_lowercase

import pytest
from oracles import reference_newick, reference_parse_newick

from quartets import (
    DuplicateLeafError,
    InteriorLabelError,
    LeafSet,
    ParseError,
    PhyloTree,
    QuartetError,
    Split,
    TooFewLeavesError,
    caterpillar,
    enumerate_trees,
    parse_newick,
    serialize_newick,
    tree_from_splits,
)
from quartets.newick import _BAD_LABEL_CHAR


class TestSerialize:
    def test_caterpillar_six(self, t6):
        assert serialize_newick(t6) == "(1,2,(3,(4,(5,6))));"

    def test_quartet_tree(self):
        assert serialize_newick(caterpillar(4)) == "(1,2,(3,4));"

    def test_star(self):
        ls = LeafSet.from_labels(["1", "2", "3", "4"])
        star = PhyloTree(ls, frozenset())
        assert serialize_newick(star) == "(1,2,3,4);"

    def test_three_leaves(self):
        ls = LeafSet.from_labels(["a", "b", "c"])
        assert serialize_newick(PhyloTree(ls, frozenset())) == "(a,b,c);"

    def test_children_ordered_by_smallest_descendant(self):
        ls = LeafSet.from_labels([str(i) for i in range(1, 7)])
        splits = [
            Split.from_side(ls, ["3", "4"]),
            Split.from_side(ls, ["5", "6"]),
        ]
        t = tree_from_splits(ls, splits)
        assert serialize_newick(t) == "(1,2,(3,4),(5,6));"

    def test_nested_multifurcations_on_letter_labels(self):
        # index order (alphabetical) differs from the order the labels are given
        ls = LeafSet.from_labels(["emu", "gnu", "fox", "dog", "cat", "bat", "hen", "anole"])
        splits = [
            Split.from_side(ls, ["gnu", "fox", "dog", "cat", "bat"]),
            Split.from_side(ls, ["fox", "dog", "cat"]),
        ]
        t = tree_from_splits(ls, splits)
        assert serialize_newick(t) == "(anole,(bat,(cat,dog,fox),gnu),emu,hen);"

    def test_every_tree_on_seven_leaves_is_pinned(self):
        text = "".join(serialize_newick(t) + "\n" for t in enumerate_trees(7, "all"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "61b73709ff303a2337ba29e20b94167fcde84cbcaa4c5f8ddef7fa1784f98cda"

    def test_too_small(self):
        ls = LeafSet.from_labels(["1", "2"])
        with pytest.raises(TooFewLeavesError):
            serialize_newick(PhyloTree(ls, frozenset()))

    def test_reserved_label_rejected(self):
        ls = LeafSet.from_labels(["a", "b|c", "d", "e"])
        with pytest.raises(QuartetError, match=re.escape("'b|c'")):
            serialize_newick(PhyloTree(ls, frozenset()))

    def test_whitespace_label_rejected(self):
        ls = LeafSet.from_labels(["a", "b", "c\u2003d", "e"])
        with pytest.raises(QuartetError, match=re.escape(repr("c\u2003d"))):
            serialize_newick(PhyloTree(ls, frozenset()))

    def test_label_pattern_is_the_character_rule(self):
        # every code point, since the CI matrix spans several Unicode versions
        everything = "".join(map(chr, range(0x110000)))
        by_rule = {ch for ch in everything if ch in "():,;|#" or ch.isspace()}
        assert set(_BAD_LABEL_CHAR.findall(everything)) == by_rule


class TestParse:
    def test_caterpillar_six(self, t6):
        assert parse_newick("(1,2,(3,(4,(5,6))));") == t6

    def test_rooted_variant_of_the_same_tree(self, t6):
        assert parse_newick("((1,2),3,(4,(5,6)));") == t6

    def test_degree_two_root_is_suppressed(self):
        assert parse_newick("((1,2),(3,4));") == caterpillar(4)

    def test_branch_lengths_ignored(self, t6):
        text = "(1:0.1,2:0.2,(3:1e-3,(4:4,(5:0.5,6:6):0.6):0.4):0.3):0;"
        assert parse_newick(text) == t6

    def test_whitespace_tolerated(self, t6):
        text = " ( 1 , 2 , ( 3 , ( 4 , ( 5 , 6 ) ) ) ) ;\n"
        assert parse_newick(text) == t6
        assert parse_newick("(1\u2003,2,(3,(4,(5,6\u3000))));") == t6

    def test_letter_labels(self):
        t = parse_newick("(anole,(bat,cat),(dog,emu));")
        assert t.leaves == LeafSet.from_labels(["anole", "bat", "cat", "dog", "emu"])
        assert len(t.splits) == 2

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_newick("((1,2,3;")

    def test_trailing_text(self):
        with pytest.raises(ParseError):
            parse_newick("(1,2,(3,4)); junk")

    def test_interior_label(self):
        with pytest.raises(InteriorLabelError):
            parse_newick("(1,2,(3,4)anc);")

    def test_duplicate_leaf(self):
        with pytest.raises(DuplicateLeafError):
            parse_newick("(1,2,(1,4));")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_newick("")

    def test_missing_length_after_colon(self):
        with pytest.raises(ParseError):
            parse_newick("(1,2,(3,4):);")

    @pytest.mark.parametrize(
        "text, position",
        [("(1,2,(3,4):--);", 11), ("(1,2,(3,4):1.2.3);", 11), ("(1:e,2,(3,4));", 3)],
    )
    def test_branch_length_must_be_a_number(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_newick(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["(a);", "a;", "(a,b);", "((a,b));"])
    def test_fewer_than_three_leaves(self, text):
        with pytest.raises(TooFewLeavesError):
            parse_newick(text)

    def test_three_leaves(self):
        tree = parse_newick("(a,b,c);")
        assert tree.leaves.labels == ("a", "b", "c")
        assert tree.masks == ()

    def test_empty_leaf_label(self):
        with pytest.raises(ParseError, match="expected a leaf label") as info:
            parse_newick("(,a,b);")
        assert info.value.position == 1

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_newick("(1,2,(3,4))")

    def test_any_depth_of_nesting(self):
        text = "(" * 5000 + "a,b,c" + ")" * 5000 + ";"
        star = PhyloTree(LeafSet.from_labels(["a", "b", "c"]), frozenset())
        assert parse_newick(text) == star

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_newick("(1,2,(3,4)); junk")
        assert "position" in str(info.value)

    def test_edited_texts_read_as_the_reference_reads_them(self):
        # seeded edits of the texts of every tree on 7 leaves: each text
        # must give the reference reader's tree, or its exception class,
        # message and position (about 0.25 s on a 2-core host)
        texts = [serialize_newick(t) for t in enumerate_trees(7, "all")]
        rng = random.Random(32)
        alphabet = "(),;:|# \t\u20030123456789.+-eEabx"
        lengths = ["1", "1e-3", "+2", "", "x"]

        def edit(text):
            at = rng.randrange(len(text) + 1)
            kind = rng.randrange(7)
            if kind == 0:
                return text[:at] + rng.choice(alphabet) + text[at:]
            if kind == 1:
                return text[:at] + text[at + 1:]
            if kind == 2:
                return text[:at] + rng.choice(alphabet) + text[at + 1:]
            if kind == 3:
                return text[:at] + rng.choice([" ", "\n", "\u3000 "]) + text[at:]
            if kind == 4:
                # a branch length after a leaf or a ')'
                ends = [i + 1 for i, ch in enumerate(text) if ch not in "(,;"]
                at = rng.choice(ends)
                return text[:at] + ":" + rng.choice(lengths) + text[at:]
            if kind == 5:
                return text[:at] + rng.choice("|#") + text[at:]
            # a leaf under a new pair of parentheses, or a label renamed
            return text.replace("5", rng.choice(["(5)", "5a", "1", "07"]), 1)

        def outcome(read, text):
            try:
                return read(text)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "position", None)

        trees = 0
        for i in range(6000):
            text = texts[i % len(texts)]
            for _ in range(rng.randint(1, 3)):
                text = edit(text)
            want = outcome(reference_parse_newick, text)
            assert outcome(parse_newick, text) == want, text
            trees += isinstance(want, PhyloTree)
        # about a quarter of the edited texts still read as trees
        assert 1000 < trees < 3000


class TestRoundTrip:
    @pytest.mark.parametrize(
        "mode, n",
        [(mode, n) for mode in ("binary", "all") for n in (4, 5, 6, 7)] + [("all", 8)],
    )
    def test_every_small_tree_survives(self, mode, n):
        # at 8 leaves, the 39,208 trees of the benchmark's walk (about 1.2 s
        # on a 2-core host)
        for tree in enumerate_trees(n, mode):
            assert parse_newick(serialize_newick(tree)) == tree

    def test_random_trees_match_the_reference_writer(self):
        # binary trees by merging two random parts until three are left,
        # every other one with a random share of its edges contracted
        rng = random.Random(25)
        contracted = 0
        for i in range(200):
            n = rng.randint(4, 64)
            names = set()
            while len(names) < n:
                names.add("".join(rng.choices(ascii_lowercase, k=rng.randint(1, 4))))
            names = sorted(names)
            parts = [[x] for x in names]
            sides = []
            while len(parts) > 3:
                a, b = sorted(rng.sample(range(len(parts)), 2))
                merged = parts.pop(b) + parts.pop(a)
                parts.append(merged)
                sides.append(merged)
            if i % 2:
                keep = rng.random()
                kept = [side for side in sides if rng.random() < keep]
                contracted += len(kept) < len(sides)
                sides = kept
            leaves = LeafSet.from_labels(rng.sample(names, n))
            tree = tree_from_splits(leaves, [Split.from_side(leaves, s) for s in sides])
            text = serialize_newick(tree)
            assert text == reference_newick(list(leaves.labels), sides)
            assert parse_newick(text) == tree
        assert contracted > 50

    def test_serialization_is_stable(self, t6):
        once = serialize_newick(t6)
        assert serialize_newick(parse_newick(once)) == once
