"""Definitiveness, minimality, inference: oracle and fast paths must agree."""

import hashlib
import random
from collections import defaultdict
from functools import lru_cache, partial
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DATA, qset, quartet_set_from_indices, refuse_scan
from quartets import (
    AmbientMismatchError,
    CapError,
    TooFewLeavesError,
    TooManyLeavesError,
    DEFINES,
    INCOMPATIBLE,
    NOT_DEFINITIVE,
    PhyloTree,
    QuartetError,
    QuartetSet,
    all_quartets,
    caterpillar,
    caterpillar_from_order,
    defines,
    displayers,
    displays,
    inference_closure,
    integer_leaves,
    make_quartet,
    minimal_definitive_set,
    minimality_report,
    normalized_quartet,
    parse_newick,
    parse_quartet_file,
    relabel,
    run_search,
    semantic_infers,
    serialize_newick,
    undistinguished_edges,
)
from quartets import decide, enumeration
from quartets.enumeration import _children, _stream_masks
from quartets.model import _displays_masks


def split_texts(tree):
    return frozenset(s.text(tree.leaves) for s in tree.splits)


class TestDisplayers:
    def test_two_overlapping_quartets_have_four_displayers(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 2, 3, 5))
        found = displayers(qs, mode="all")
        assert len(found) == 4
        shapes = {split_texts(t) for t in found}
        assert shapes == {
            frozenset({"1,2|3,4,5"}),
            frozenset({"1,2|3,4,5", "1,2,5|3,4"}),
            frozenset({"1,2|3,4,5", "1,2,4|3,5"}),
            frozenset({"1,2|3,4,5", "1,2,3|4,5"}),
        }
        assert sum(1 for t in found if t.is_binary()) == 3

    def test_incompatible_pair_has_none(self):
        ls = integer_leaves(4)
        qs = qset(ls, (1, 2, 3, 4), (1, 3, 2, 4))
        assert displayers(qs, leaves=ls, mode="all") == []

    def test_empty_set_is_displayed_by_everything(self):
        ls = integer_leaves(4)
        qs = QuartetSet(ls, frozenset())
        assert len(displayers(qs, leaves=ls, mode="all")) == 4

    def test_limit_truncates_in_stream_order(self, q6):
        first_two = displayers(q6, mode="binary", limit=2)
        assert len(first_two) == 1  # the set is definitive, one binary displayer
        everything = displayers(q6, leaves=integer_leaves(7), mode="all")
        for limit in (0, 1, 3):
            found = displayers(q6, leaves=integer_leaves(7), mode="all", limit=limit)
            assert found == everything[:limit]

    def test_negative_limit_rejected(self, q6):
        with pytest.raises(QuartetError):
            displayers(q6, limit=-1)

    def test_ambient_beyond_support(self, q6):
        bigger = displayers(q6, leaves=integer_leaves(7), mode="binary", limit=3)
        assert len(bigger) == 3  # the loose leaf can sit in several places


class TestDefines:
    def test_size_four_set_defines_the_caterpillar(self, q6, t6):
        for mode in ("fast", "oracle"):
            v = defines(q6, mode=mode)
            assert v.is_definitive and v.tree == t6
        assert defines(q6, mode="oracle").displayer_count == 1

    def test_five_leaf_pair_defines_bent_caterpillar(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 4, 3, 5))
        expected = caterpillar_from_order([1, 2, 4, 3, 5])
        assert defines(qs, mode="fast").tree == expected
        assert defines(qs, mode="oracle").tree == expected

    def test_four_displayers_is_not_definitive(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 2, 3, 5))
        oracle = defines(qs, mode="oracle")
        assert oracle.status == NOT_DEFINITIVE
        assert oracle.displayer_count == 4
        assert len(oracle.examples) == 2
        fast = defines(qs, mode="fast")
        assert fast.status == NOT_DEFINITIVE
        assert len(fast.examples) == 2
        assert fast.examples[0] != fast.examples[1]

    def test_incompatible_is_a_verdict_not_an_error(self):
        ls = integer_leaves(4)
        qs = qset(ls, (1, 2, 3, 4), (1, 3, 2, 4))
        for mode in ("fast", "oracle"):
            v = defines(qs, mode=mode)
            assert v.status == INCOMPATIBLE
            assert v.tree is None and v.examples == ()

    def test_ambient_mismatch_needs_the_flag(self, q6):
        ls7 = integer_leaves(7)
        moved = q6.translate(ls7)
        with pytest.raises(AmbientMismatchError):
            defines(moved, leaves=ls7)
        relaxed = defines(moved, leaves=ls7, allow_larger_ambient=True)
        assert relaxed.status == NOT_DEFINITIVE  # leaf 7 is unconstrained

    def test_ambient_smaller_than_a_quartet_rejected(self):
        qs = qset(integer_leaves(4), (1, 2, 3, 4))
        with pytest.raises(TooFewLeavesError, match="ambient leaf set smaller than a quartet"):
            defines(qs, leaves=integer_leaves(3), allow_larger_ambient=True)

    def test_fewer_than_four_occupied_leaves_rejected(self):
        with pytest.raises(
            TooFewLeavesError, match="definitiveness needs at least four occupied leaves"
        ):
            defines(QuartetSet(integer_leaves(5), frozenset()))

    def test_unknown_mode_rejected(self, q6):
        with pytest.raises(QuartetError, match="mode must be 'fast' or 'oracle', got 'slow'"):
            defines(q6, mode="slow")

    def test_default_ambient_is_the_support(self, q6):
        moved = q6.translate(integer_leaves(9))
        v = defines(moved)
        assert v.is_definitive
        assert v.tree.leaves == integer_leaves(6)

    def test_loose_edge_contraction_yields_second_displayer(self, q6, t6, leaves6):
        # contracting an edge no quartet pins down keeps every display
        from quartets import contract

        qs = q6.without_quartet(make_quartet(leaves6, 1, 2, 3, 5))
        loose = undistinguished_edges(qs, t6)
        assert loose
        smaller = contract(t6, loose[0])
        assert len(smaller.splits) == len(t6.splits) - 1
        for q in qs:
            assert displays(smaller, q)
        assert defines(qs, mode="oracle").status == NOT_DEFINITIVE

    def test_two_binary_displayers_give_two_trees(self):
        ls = integer_leaves(6)
        qs = qset(ls, (1, 2, 5, 6), (3, 4, 5, 6))
        v = defines(qs, mode="fast")
        assert v.status == NOT_DEFINITIVE
        first, second = v.examples
        assert first != second
        for tree in (first, second):
            for q in qs:
                assert displays(tree, q)


class TestMinimalityReport:
    def test_the_size_four_set_is_minimal(self, q6, t6, leaves6):
        report = minimality_report(q6)
        assert report.minimal is True
        assert report.size == 4 and report.n == 6
        assert report.size >= report.n - 3  # one quartet pins each edge
        kinds = {q.text(leaves6): w.kind for q, w in report.entries}
        assert kinds == {
            "1,2|3,5": "undistinguished_edge",
            "1,3|4,6": "undistinguished_edge",
            "2,4|5,6": "undistinguished_edge",
            "1,2|5,6": "alternative_tree",
        }

    def test_witnesses_actually_witness(self, q6, t6):
        report = minimality_report(q6)
        for q, w in report.entries:
            rest = q6.without_quartet(q)
            if w.kind == "alternative_tree":
                assert w.tree != t6
                for other in rest:
                    assert displays(w.tree, other)
            else:
                assert w.split in t6.splits
                assert w.split in undistinguished_edges(rest, t6)

    def test_redundant_quartet_detected(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 4, 3, 5), (1, 2, 3, 5))
        report = minimality_report(qs)
        assert report.verdict.is_definitive
        assert report.minimal is False
        by_text = {q.text(ls): w.kind for q, w in report.entries}
        assert by_text["1,2|3,5"] == "redundant"

    def test_non_definitive_report_is_empty(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 2, 3, 5))
        report = minimality_report(qs)
        assert not report.verdict.is_definitive
        assert report.entries == ()
        assert report.minimal is None

    # ROADMAP item 3: minimal definitive sets larger than 2n-8 on 7 and 8 leaves
    @pytest.mark.parametrize("mode", ["fast", "oracle"])
    @pytest.mark.parametrize(
        "n, text",
        [
            (7, "1,2|3,5 1,2|4,6 1,2|6,7 1,3|4,6 1,3|6,7 2,4|5,7 3,5|6,7"),
            (
                8,
                "1,2|3,5 1,2|4,6 1,2|6,7 1,2|7,8 1,3|4,6 1,3|6,7 1,3|7,8 "
                "2,4|5,8 3,5|6,7 3,5|7,8 4,6|7,8",
            ),
        ],
    )
    def test_sets_larger_than_the_construction(self, n, text, mode):
        rows = [t.replace("|", ",").split(",") for t in text.split()]
        qs = qset(integer_leaves(n), *rows)
        report = minimality_report(qs, mode=mode)
        assert report.verdict.is_definitive
        assert report.minimal is True
        assert report.size > 2 * n - 8


class TestSemanticInference:
    def test_shared_far_pair_instance(self):
        labels = ["1", "2", "4", "5", "6"]
        from quartets import LeafSet

        ls = LeafSet.from_labels(labels)
        qs = qset(ls, (1, 2, 5, 6), (2, 4, 5, 6))
        assert semantic_infers(qs, make_quartet(ls, 1, 4, 5, 6))

    def test_rule_shape_on_five_leaves(self):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 4, 5), (2, 3, 4, 5))
        assert semantic_infers(qs, make_quartet(ls, 1, 3, 4, 5))

    def test_members_are_inferred(self, q6):
        for q in q6:
            assert semantic_infers(q6, q)

    def test_negative_case(self):
        ls = integer_leaves(4)
        qs = qset(ls, (1, 2, 3, 4))
        assert not semantic_infers(qs, make_quartet(ls, 1, 3, 2, 4))


class TestClosure:
    def test_fixpoint_of_the_size_four_set(self, q6, leaves6):
        closed = inference_closure(q6)
        assert set(closed.texts()) == set(q6.texts()) | {"1,4|5,6"}

    def test_fixpoint_of_the_size_six_set(self):
        q7 = minimal_definitive_set(7)
        closed = inference_closure(q7)
        assert set(closed.texts()) == set(q7.texts()) | {"1,4|5,7", "1,5|6,7"}

    def test_no_rule_instance_fires(self):
        ls = integer_leaves(4)
        qs = qset(ls, (1, 2, 3, 4))
        assert inference_closure(qs) == qs

    def test_closure_is_sound_semantically(self, q6):
        closed = inference_closure(q6)
        for q in closed:
            if q not in q6:
                assert semantic_infers(q6, q)

    def test_closure_on_random_sets_is_sound(self):
        ls = integer_leaves(6)
        for rows in oracles.random_index_sets(6, 30, seed=7, max_size=4):
            qs = quartet_set_from_indices(ls, rows)
            closed = inference_closure(qs)
            for q in closed.quartets - qs.quartets:
                assert semantic_infers(qs, q, leaves=ls)


class TestOneLeafsClosedTriples:
    """Sets whose quartets all hold one leaf. When such a set defines a
    tree, that leaf's triples alone define it, so the closure certificate
    settles it and defines answers with the index off and the scan refused."""

    def test_ladder_set_passes(self, leaves6, t6, no_scan, no_index):
        qs = qset(leaves6, (1, 2, 3, 5), (1, 3, 4, 6), (1, 4, 5, 6))
        assert defines(qs).tree == t6

    def test_the_size_four_set_is_settled_by_another_leafs_triples(
        self, q6, t6, no_scan, no_index
    ):
        # no single leaf occurs in all four quartets; another leaf's
        # closed triples settle the set all the same
        assert not set.intersection(*(set(q.indices()) for q in q6))
        assert defines(q6).tree == t6

    def test_quartets_must_use_every_tree_leaf(self, leaves6):
        qs = qset(leaves6, (1, 2, 3, 4))
        with pytest.raises(
            AmbientMismatchError,
            match="ambient leaf set differs from the leaves the quartets use",
        ):
            defines(qs, leaves6)

    def test_single_quartet_passes(self, no_scan, no_index):
        qs = qset(integer_leaves(4), (1, 2, 3, 4))
        assert defines(qs).tree == caterpillar(4)

    def test_display_failure_fails(self, leaves6, t6):
        # t6 does not display 1,3|2,5, and the set defines no tree: the
        # certificate declines, and the set has seven displayers
        qs = qset(leaves6, (1, 3, 2, 5), (1, 3, 4, 6), (1, 4, 5, 6))
        assert decide._closure_certificate(decide._pairs(qs), qs.leaves.n) is None
        assert defines(qs).status == NOT_DEFINITIVE
        assert defines(qs, mode="oracle").displayer_count == 7
        assert t6 not in displayers(qs)

    def test_non_binary_tree_fails(self):
        # every quartet holds 1 and pins ((1,2),3,4,5)'s one edge, but its
        # three binary refinements display both quartets too: leaf 1's
        # BUILD tree is that non-binary tree, and the scan finds two
        qs = parse_quartet_file("1,2|3,4\n1,2|3,5\n")
        assert decide._closure_certificate(decide._pairs(qs), qs.leaves.n) is None
        assert defines(qs).status == NOT_DEFINITIVE
        assert defines(qs, mode="oracle").displayer_count == 4


class TestUndistinguishedEdges:
    def test_complete_set_pins_everything(self, q6, t6):
        assert undistinguished_edges(q6, t6) == ()

    def test_dropping_a_quartet_frees_its_edge(self, q6, t6, leaves6):
        rest = q6.without_quartet(make_quartet(leaves6, 1, 2, 3, 5))
        loose = undistinguished_edges(rest, t6)
        assert [s.text(leaves6) for s in loose] == ["1,2|3,4,5,6"]

    def test_empty_set_pins_nothing(self, t6, leaves6):
        qs = QuartetSet(leaves6, frozenset())
        assert set(undistinguished_edges(qs, t6)) == t6.splits


def _random_sets(n):
    """The seeded random sets on n leaves that mention at least four leaves."""
    ls = integer_leaves(n)
    for rows in oracles.random_index_sets(n, 120, seed=100 + n):
        qs = quartet_set_from_indices(ls, rows)
        if len(qs.support_labels()) >= 4:
            yield qs


def _assert_verdict_shape(v, qs):
    """examples is (), (tree,) or two distinct displayers, as the status says."""
    if v.status == INCOMPATIBLE:
        assert v.examples == () and v.displayer_count == 0
    elif v.status == DEFINES:
        assert v.examples == (v.tree,)
    else:
        first, second = v.examples
        assert first != second
        for t in v.examples:
            assert all(displays(t, q) for q in qs.translate(t.leaves))
            if v.mode == "fast":
                assert t.is_binary()


class TestOracleFastAgreement:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_sets_agree(self, n):
        definitive_seen = 0
        for qs in _random_sets(n):
            fast = defines(qs, mode="fast")
            oracle = defines(qs, mode="oracle")
            assert fast.status == oracle.status
            _assert_verdict_shape(fast, qs)
            _assert_verdict_shape(oracle, qs)
            if fast.is_definitive:
                assert fast.tree == oracle.tree
                # the defined tree is binary with every edge pinned
                assert fast.tree.is_binary()
                assert undistinguished_edges(qs, fast.tree) == ()
                assert len(qs) >= len(qs.support_labels()) - 3
                definitive_seen += 1
        assert definitive_seen > 0

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_scan_route_agrees(self, n, monkeypatch, no_index):
        # with the index off and the certificate declining, every set goes
        # through the binary scan, and a sole binary displayer must have every
        # edge pinned:
        # a loose edge would contract to a second, non-binary displayer
        walk = decide._binary_walk
        sole = []

        def recording(pairs, *rest):
            trees = list(walk(pairs, *rest))
            if len(trees) == 1:
                sole.append((pairs, trees[0]))
            return iter(trees)

        monkeypatch.setattr(decide, "_closure_certificate", lambda pairs, n: None)
        monkeypatch.setattr(decide, "_binary_walk", recording)
        definitive = 0
        for qs in _random_sets(n):
            fast = defines(qs, mode="fast")
            oracle = defines(qs, mode="oracle")
            assert (fast.status, fast.tree) == (oracle.status, oracle.tree)
            _assert_verdict_shape(fast, qs)
            definitive += fast.is_definitive
        for pairs, masks in sole:
            assert decide._undistinguished_masks(masks, pairs) == []
        assert len(sole) == definitive > 0


def _sides(tree):
    """The tree's splits as sets of leaf indices, the reference's form."""
    return frozenset(
        frozenset(i for i in range(tree.n) if m >> i & 1) for m in tree.masks
    )


class TestOracleReference:
    """defines(mode="oracle") against the split-system backtrack in oracles."""

    @pytest.mark.parametrize("n", range(4, 8))
    def test_reference_without_quartets_counts_every_tree(self, n):
        assert len(oracles.reference_displayers(n, [])) == oracles.all_tree_count(n)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_oracle_matches_the_reference(self, n):
        # the reference shares no code with the index or the stream; at 8
        # leaves it takes about 0.1 s a set, so fewer sets are drawn there
        rng = random.Random(500 + n)
        ls = integer_leaves(n)
        binary = [s for s in oracles.split_systems(n) if len(s) == n - 3]
        statuses = set()
        for _ in range(60 if n < 8 else 20):
            # quartets shown by one binary tree, sometimes plus an arbitrary one
            source = rng.choice(binary)
            rows = []
            for _ in range(rng.randint(1, 2 * n)):
                a, b, c, d = rng.sample(range(n), 4)
                for row in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
                    if oracles.shows(source, *row):
                        rows.append(row)
            if rng.random() < 0.3:
                rows.append(tuple(rng.sample(range(n), 4)))
            expected = oracles.reference_displayers(n, rows)
            qs = quartet_set_from_indices(ls, rows)
            v = defines(qs, leaves=ls, mode="oracle", allow_larger_ambient=True)
            assert v.displayer_count == len(expected)
            assert v.status == {0: INCOMPATIBLE, 1: DEFINES}.get(
                len(expected), NOT_DEFINITIVE
            )
            assert all(_sides(t) in expected for t in v.examples)
            if v.is_definitive:
                assert _sides(v.tree) == expected[0]
            statuses.add(v.status)
            # the public lists, as split sides, are the reference's trees
            resolved = [s for s in expected if len(s) == n - 3]
            for mode, want in (("all", expected), ("binary", resolved)):
                found = [_sides(t) for t in displayers(qs, leaves=ls, mode=mode)]
                assert len(found) == len(want) and set(found) == set(want)
        assert statuses == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}


def _random_binary_tree(rng, n):
    splits = ()
    for k in range(3, n):
        splits = rng.choice(_children(splits, k, False))
    return PhyloTree(integer_leaves(n), splits)


def _resolutions(four):
    """The three quartets on four leaves."""
    a, b, c, d = four
    return (
        normalized_quartet(a, b, c, d),
        normalized_quartet(a, c, b, d),
        normalized_quartet(a, d, b, c),
    )


def _assert_fast_matches_oracle(qs):
    fast = defines(qs, mode="fast")
    oracle = defines(qs, mode="oracle")
    assert fast.status == oracle.status
    assert fast.tree == oracle.tree
    return oracle.status


class TestOracleFastAgreementPastSeven:
    """Structured sets on 8 and 9 leaves, where random sets rarely define."""

    @pytest.mark.parametrize("n", [8, 9])
    def test_samples_of_a_random_binary_tree(self, n):
        rng = random.Random(800 + n)
        ls = integer_leaves(n)
        statuses = []
        for _ in range(30):
            tree = _random_binary_tree(rng, n)
            quartets = set()
            for _ in range(rng.randint(n - 3, 3 * n)):
                quartets.update(
                    q for q in _resolutions(rng.sample(range(n), 4)) if displays(tree, q)
                )
            statuses.append(_assert_fast_matches_oracle(QuartetSet(ls, frozenset(quartets))))
        assert set(statuses) == {DEFINES, NOT_DEFINITIVE}

    @pytest.mark.parametrize("n", [8, 9])
    def test_construction_minus_each_quartet(self, n):
        qs = minimal_definitive_set(n)
        for q in qs.sorted_quartets():
            assert _assert_fast_matches_oracle(qs.without_quartet(q)) == NOT_DEFINITIVE

    @pytest.mark.parametrize("n", [8, 9])
    def test_construction_plus_a_conflicting_quartet(self, n):
        rng = random.Random(900 + n)
        qs = minimal_definitive_set(n)
        tree = defines(qs).tree
        for _ in range(6):
            for q in _resolutions(rng.sample(range(n), 4)):
                if not displays(tree, q):
                    conflicting = QuartetSet(qs.leaves, qs.quartets | {q})
                    assert _assert_fast_matches_oracle(conflicting) == INCOMPATIBLE


def _swap15(qs):
    """qs with leaves "1" and "5" swapped, which the certificate cannot settle."""
    sigma = dict(zip(qs.leaves.labels, qs.leaves.labels))
    sigma["1"], sigma["5"] = "5", "1"
    return relabel(qs, sigma)


def _shuffle(n, seed):
    """A seeded permutation of the labels "1".."n", as a relabelling map."""
    labels = [str(i) for i in range(1, n + 1)]
    images = list(labels)
    random.Random(seed).shuffle(images)
    return dict(zip(labels, images))


def _definitive_sets(count, seed=17, least=6, most=9):
    """Seeded sets that define a random binary tree on least..most leaves,
    each stripped of some redundant quartets in a random order so that
    every kind of witness turns up."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(least, most)
        tree = _random_binary_tree(rng, n)
        chosen = set()
        for _ in range(rng.randint(n - 2, 2 * n)):
            four = rng.sample(range(n), 4)
            chosen.update(q for q in _resolutions(four) if displays(tree, q))
        qs = QuartetSet(tree.leaves, frozenset(chosen))
        if defines(qs).tree != tree:
            continue
        order = qs.sorted_quartets()
        rng.shuffle(order)
        for q in order[: len(order) // 2]:
            if defines(qs.without_quartet(q)).tree == tree:
                qs = qs.without_quartet(q)
        yield qs, tree
        count -= 1


_LETTERS = ["a", "a1", "b", "b2", "b10", "c", "c3", "d", "e", "e20", "f"]


def _witness_kinds(report, sigma=None):
    """Each entry's witness kind by its quartet, as two label pairs with
    the labels mapped through sigma when it is given."""
    sigma = sigma or {}
    labels = [sigma.get(x, x) for x in report.verdict.tree.leaves.labels]
    kinds = {}
    for q, w in report.entries:
        pairs = (labels[q.a], labels[q.b]), (labels[q.c], labels[q.d])
        kinds[frozenset(map(frozenset, pairs))] = w.kind
    return kinds


class TestRelabelInvariance:
    """Past 8 leaves the certificate, the scan and the per-quartet walks
    answer, up to 8 the index: both must follow the labels."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_verdict_and_tree_follow_the_labels(self, data):
        n = data.draw(st.integers(5, 11), label="n")
        splits = ()
        for k in range(3, n):
            splits = data.draw(st.sampled_from(_children(splits, k, False)))
        tree = PhyloTree(integer_leaves(n), splits)
        quartets = set()
        fours = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3 * n))
        for perm in fours:
            quartets.update(q for q in _resolutions(perm[:4]) if displays(tree, q))
        if data.draw(st.booleans(), label="extra quartet"):
            quartets.add(normalized_quartet(*data.draw(st.permutations(range(n)))[:4]))
        qs = QuartetSet(tree.leaves, frozenset(quartets))
        # shuffled images, so the two label orders interleave
        pool = data.draw(st.sampled_from([[str(i) for i in range(2 * n)], _LETTERS]))
        images = data.draw(st.permutations(pool), label="images")[:n]
        sigma = dict(zip(tree.leaves.labels, images))
        moved = relabel(qs, sigma)
        before, after = defines(qs), defines(moved)
        assert after.status == before.status
        if before.is_definitive:
            assert after.tree == relabel(before.tree, sigma)
            # the edge check reads only the tree's shape, and redundancy is a
            # property of the set, so no witness kind depends on the labels
            old, new = minimality_report(qs), minimality_report(moved)
            assert new.minimal == old.minimal
            assert _witness_kinds(new) == _witness_kinds(old, sigma)
        if n <= 7:
            count = defines(qs, mode="oracle").displayer_count
            assert defines(moved, mode="oracle").displayer_count == count

    @pytest.mark.parametrize(
        "qs",
        [_swap15(minimal_definitive_set(n)) for n in (9, 10, 11)]
        + [qs for qs, _ in _definitive_sets(3, seed=17, least=9, most=11)],
        ids=[f"swap15-{n}" for n in (9, 10, 11)] + [f"redundant-{i}" for i in (1, 2, 3)],
    )
    def test_reports_past_the_index_follow_the_labels(self, qs):
        # these sets send some removals to the per-quartet walks, which the
        # random sets above seldom reach
        report = minimality_report(qs)
        for seed in (1, 2):
            sigma = _shuffle(qs.leaves.n, seed)
            moved = minimality_report(relabel(qs, sigma))
            assert moved.verdict.tree == relabel(report.verdict.tree, sigma)
            assert moved.minimal == report.minimal
            assert _witness_kinds(moved) == _witness_kinds(report, sigma)


class TestClosureCertificate:
    """The route fast defines tries before the scan: sound, and enough for
    the construction at every size (ROADMAP items 1 and 2)."""

    @staticmethod
    def _inputs():
        """Random sets on 5-7 leaves, then the three oracle-check kinds on
        5-8: samples of a random binary tree, samples plus a quartet the
        tree does not display, and the construction minus one quartet."""
        for n in (5, 6, 7):
            ls = integer_leaves(n)
            for rows in oracles.random_index_sets(n, 80, seed=300 + n):
                yield quartet_set_from_indices(ls, rows)
        rng = random.Random(2011)
        for n in (5, 6, 7, 8):
            ls = integer_leaves(n)
            for _ in range(40):
                tree = _random_binary_tree(rng, n)
                quartets = set()
                for _ in range(rng.randint(1, 3 * n)):
                    four = _resolutions(rng.sample(range(n), 4))
                    quartets.update(q for q in four if displays(tree, q))
                yield QuartetSet(ls, frozenset(quartets))
                four = _resolutions(rng.sample(range(n), 4))
                conflict = next(q for q in four if not displays(tree, q))
                yield QuartetSet(ls, frozenset(quartets | {conflict}))
        for n in (6, 7, 8):
            qs = minimal_definitive_set(n)
            for q in qs.sorted_quartets():
                yield qs.without_quartet(q)

    def test_every_answer_matches_the_oracle(self):
        statuses, certified = set(), set()
        for qs in self._inputs():
            oracle = defines(qs, qs.leaves, mode="oracle", allow_larger_ambient=True)
            statuses.add(oracle.status)
            settled = decide._closure_certificate(decide._pairs(qs), qs.leaves.n)
            if settled == []:
                assert oracle.status == INCOMPATIBLE
                certified.add(INCOMPATIBLE)
            elif settled is not None:
                assert oracle.is_definitive
                assert PhyloTree(qs.leaves, settled[0]) == oracle.tree
                certified.add(DEFINES)
        assert statuses == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}
        assert certified == {DEFINES, INCOMPATIBLE}

    def test_the_scan_never_runs_on_the_construction(self, no_scan):
        for n in range(6, 65):
            v = defines(minimal_definitive_set(n))
            assert v.is_definitive and v.tree == caterpillar(n)

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_redundancy_is_settled_without_a_scan(self, n, no_scan, no_index):
        # every quartet the closure adds to the construction is redundant
        qs = inference_closure(minimal_definitive_set(n))
        report = minimality_report(qs)
        kinds = [w.kind for _, w in report.entries]
        assert kinds.count("redundant") == len(qs) - 2
        assert kinds.count("undistinguished_edge") == 2

    def test_a_binary_tree_that_misses_the_set_is_incompatible(self, no_scan, no_index):
        # leaf 3's triples grow a binary tree, the only tree they fit, and
        # it does not display 1,4|3,6, so no tree displays the set
        qs = parse_quartet_file("1,4|3,6\n1,6|4,5\n2,5|3,4\n2,6|3,5\n")
        assert defines(qs).status == INCOMPATIBLE
        assert defines(qs, mode="oracle").status == INCOMPATIBLE

    @staticmethod
    def _differential_inputs():
        """Seeded sets on 5-12 leaves, 25 of each kind per n: random sets,
        samples of a random binary tree with a conflicting quartet half
        the time, and the construction with two leaves swapped, then a
        quartet dropped or flipped two times in three."""
        rng = random.Random(22)
        for n in range(5, 13):
            ls = integer_leaves(n)
            for rows in oracles.random_index_sets(n, 25, seed=22 + n, max_size=2 * n):
                yield quartet_set_from_indices(ls, rows)
            for _ in range(25):
                tree = _random_binary_tree(rng, n)
                quartets = set()
                for _ in range(rng.randint(n, 6 * n)):
                    four = _resolutions(rng.sample(range(n), 4))
                    quartets.update(q for q in four if displays(tree, q))
                if rng.random() < 0.5:
                    four = _resolutions(rng.sample(range(n), 4))
                    quartets.add(next(q for q in four if not displays(tree, q)))
                yield QuartetSet(ls, frozenset(quartets))
            construction = minimal_definitive_set(n)
            labels = construction.leaves.labels
            for _ in range(25):
                sigma = dict(zip(labels, labels))
                i, j = rng.sample(labels, 2)
                sigma[i], sigma[j] = j, i
                quartets = set(relabel(construction, sigma).quartets)
                r = rng.random()
                if r < 2 / 3:
                    q = rng.choice(sorted(quartets))
                    quartets.remove(q)
                    if r < 1 / 3:
                        quartets.add(rng.choice([p for p in _resolutions(q.indices()) if p != q]))
                yield QuartetSet(ls, frozenset(quartets))

    def test_settled_answers_match_the_oracle_or_the_scan(self):
        # the oracle checks up to 9 leaves, the binary scan past that; the
        # counts pin how much the certificate settles
        settled_by_status = {DEFINES: 0, INCOMPATIBLE: 0}
        for qs in self._differential_inputs():
            n = qs.leaves.n
            settled = decide._closure_certificate(decide._pairs(qs), n)
            if settled is None:
                continue
            if n <= 9:
                oracle = defines(qs, qs.leaves, mode="oracle", allow_larger_ambient=True)
                expected = [oracle.tree] if oracle.is_definitive else []
                assert oracle.status != NOT_DEFINITIVE
            else:
                walk = decide._binary_walk(sorted(decide._pairs(qs)), n)
                expected = [PhyloTree(qs.leaves, m) for m in islice(walk, 2)]
            assert [PhyloTree(qs.leaves, m) for m in settled] == expected
            settled_by_status[DEFINES if settled else INCOMPATIBLE] += 1
        assert settled_by_status == {DEFINES: 108, INCOMPATIBLE: 196}

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_dropping_a_quartet_defeats_it(self, n):
        qs = minimal_definitive_set(n)
        for q in qs.sorted_quartets():
            rest = qs.without_quartet(q)
            assert decide._closure_certificate(decide._pairs(rest), n) is None

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_swapping_two_leaves_defeats_it(self, n):
        # the certificate settles a swapped set only for the swapped tree,
        # which is the target only when the two leaves form a cherry; the
        # closure rule reads the leaf order, so some swaps go unsettled
        qs = minimal_definitive_set(n)
        target = caterpillar(n)
        labels = qs.leaves.labels
        settled_count = 0
        for i in range(n):
            for j in range(i + 1, n):
                sigma = dict(zip(labels, labels))
                sigma[labels[i]], sigma[labels[j]] = labels[j], labels[i]
                settled = decide._closure_certificate(decide._pairs(relabel(qs, sigma)), n)
                if settled is None:
                    continue
                settled_count += 1
                tree = PhyloTree(qs.leaves, settled[0])
                assert tree == relabel(target, sigma)
                assert (tree == target) == ((i, j) in ((0, 1), (n - 2, n - 1)))
        assert settled_count >= n


class TestMinimalityAgainstTheOracle:
    """Each removal witness is the first binary tree other than the
    defined one that the oracle's stream gives for the set minus the
    quartet, and the redundant marks are the oracle's."""

    @staticmethod
    def _inputs():
        """The sets of every verdict TestClosureCertificate draws (5-8
        leaves), then sets with witnesses of every kind: the construction,
        search findings, and findings plus a quartet their tree displays,
        where some removals find witnesses and others are redundant."""
        yield from TestClosureCertificate._inputs()
        for n in (5, 6, 7, 8):
            yield minimal_definitive_set(n)
            for f in run_search(n, n - 2, 20, seed=n):
                qs = f.quartets
                yield qs
                tree = defines(qs).tree
                extra = [q for q in all_quartets(qs.leaves) if displays(tree, q) and q not in qs]
                for q in extra[:2]:
                    yield QuartetSet(qs.leaves, qs.quartets | {q})

    def test_witnesses_and_redundancy(self):
        statuses, kinds = set(), set()
        for qs in self._inputs():
            report = minimality_report(qs)
            statuses.add(report.verdict.status)
            if not report.verdict.is_definitive:
                assert report.entries == ()
                continue
            tree = report.verdict.tree
            moved = qs.translate(tree.leaves)  # the entries' indexing
            for q, w in report.entries:
                kinds.add(w.kind)
                rest = moved.without_quartet(q)
                oracle = defines(rest, tree.leaves, mode="oracle", allow_larger_ambient=True)
                assert (w.kind == "redundant") == (oracle.tree == tree)
                if w.kind == "alternative_tree":
                    first = displayers(rest, mode="binary", limit=2)
                    assert w.tree == next(t for t in first if t != tree)
        assert statuses == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}
        assert kinds == {"undistinguished_edge", "alternative_tree", "redundant"}


def _data(name):
    return parse_quartet_file(DATA.joinpath(name).read_text())


class TestWalkSize:
    """How many trees the binary walk builds, pinned so that a pruning
    regression fails here instead of only running slower. The index route
    is off, so that the sets on up to eight leaves reach the walk too."""

    @pytest.mark.parametrize(
        "call, qs, built",
        [
            (defines, _swap15(minimal_definitive_set(10)), 477),
            (defines, _swap15(minimal_definitive_set(11)), 2730),
            (defines, _swap15(minimal_definitive_set(12)), 18843),
            # a report walks once for each quartet still open, from the
            # 3-leaf star
            (minimality_report, _swap15(minimal_definitive_set(10)), 609),
            (minimality_report, _swap15(minimal_definitive_set(11)), 3025),
            (minimality_report, _swap15(minimal_definitive_set(12)), 19663),
            (minimality_report, minimal_definitive_set(8), 32),
            (minimality_report, minimal_definitive_set(12), 422),
            (minimality_report, _data("q6.txt"), 5),
            (minimality_report, _data("q7.txt"), 16),
            # a search decides through the scan and the per-quartet walks,
            # with the seed in qs's place
            (partial(run_search, 8, 6, 50), 1, 12184),
        ],
        ids=[
            "defines-swap15-10", "defines-swap15-11", "defines-swap15-12",
            "report-swap15-10", "report-swap15-11", "report-swap15-12",
            "report-8", "report-12", "report-q6", "report-q7", "search-8-6-50",
        ],
    )
    def test_children_built(self, call, qs, built, monkeypatch, no_index):
        sizes = []
        real = decide._insert

        def counting(*args):
            children = real(*args)
            sizes.append(len(children))
            return children

        monkeypatch.setattr(decide, "_insert", counting)
        call(qs)
        assert sum(sizes) == built


def _two_misses(masks, pairs):
    """The indices of the first two quartets, as pair masks, that the tree
    does not display: fewer when it misses fewer."""
    missed = []
    for i, p in enumerate(pairs):
        if not _displays_masks(masks, [p]):
            missed.append(i)
            if len(missed) == 2:
                break
    return missed


def _first_misses(whole, misses, indices):
    """For each i in indices, the first tree of whole that misses quartet
    i alone, in the order of whole; misses are _two_misses of each tree."""
    open_ = set(indices)
    found = []
    for masks, missed in zip(whole, misses):
        if len(missed) == 1 and missed[0] in open_:
            found.append((missed[0], masks))
            open_.remove(missed[0])
            if not open_:
                break
    return found


def _sampled_walks(seed, count, streams):
    """count seeded (n, quartets, indices) on the leaf counts of streams:
    mostly quartets of one tree from the stream, some of them flipped."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min(streams), max(streams))
        source = rng.choice(streams[n])
        chosen = set()
        for _ in range(rng.randint(n - 3, 2 * n)):
            options = _resolutions(rng.sample(range(n), 4))
            shown = [q for q in options if _displays_masks(source, [q.pair_masks()])]
            chosen.add(shown[0] if rng.random() < 0.9 else rng.choice(options))
        quartets = sorted(chosen)
        indices = sorted(rng.sample(range(len(quartets)), rng.randint(1, len(quartets))))
        yield n, quartets, indices


class TestAvoidWalk:
    """The walk over every quartet but one, avoiding that one, yields the
    trees that miss it alone, checked against the unpruned binary
    stream; the first of them is its removal witness."""

    def test_matches_the_unpruned_stream(self):
        streams = {n: list(_stream_masks(n, "binary")) for n in range(5, 9)}
        witnessed = unwitnessed = 0
        for n, quartets, indices in _sampled_walks(15, 300, streams):
            pairs = [q.pair_masks() for q in quartets]
            misses = [_two_misses(masks, pairs) for masks in streams[n]]
            first = dict(_first_misses(streams[n], misses, indices))
            for i in indices:
                rest = pairs[:i] + pairs[i + 1 :]
                walked = list(decide._binary_walk(rest, n, pairs[i]))
                alone = [m for m, missed in zip(streams[n], misses) if missed == [i]]
                assert walked == alone
                assert (walked[0] if walked else None) == first.get(i)
                witnessed += bool(walked)
                unwitnessed += not walked
        assert witnessed and unwitnessed


class TestIndex:
    """The indices that decide sets on up to eight leaves, checked against
    the unpruned streams and against the routes they replace there."""

    def test_decodes_every_stream_position(self):
        # no oracle example in the sampled sets needed a vertex child, so
        # this is the test that holds their slots of the table to the
        # stream; all 10,395 + 39,208 positions at 8 leaves, and n = 3,
        # whose slots are empty
        for mode in ("binary", "all"):
            for n in range(3, 9):
                stream = list(_stream_masks(n, mode))
                index = decide._index(n, mode)
                assert index.every == (1 << len(stream)) - 1
                assert [index.tree(t) for t in range(len(stream))] == stream

    @staticmethod
    def _cases():
        """Sampled sets on 4-8 leaves with their displayers and first
        misses, both read off the unpruned binary stream."""
        streams = {n: list(_stream_masks(n, "binary")) for n in range(4, 9)}
        for n, quartets, indices in _sampled_walks(16, 150, streams):
            pairs = [q.pair_masks() for q in quartets]
            misses = [_two_misses(masks, pairs) for masks in streams[n]]
            shown = [m for m, missed in zip(streams[n], misses) if not missed]
            yield n, pairs, indices, shown, dict(_first_misses(streams[n], misses, indices))

    @staticmethod
    def _answers(n, pairs, indices):
        index = decide._index(n, "binary")
        every = index.every.bit_length()  # no limit: every tree on n leaves
        count, shown = index.displayers(pairs, every)
        assert count == len(shown)
        return shown, index.first_misses(pairs, indices)

    def test_matches_the_unpruned_stream(self):
        cases = list(self._cases())
        for n, pairs, indices, shown, misses in cases:
            assert self._answers(n, pairs, indices) == (shown, misses)
        assert {n for n, *_ in cases} == set(range(4, 9))
        assert any(misses for *_, misses in cases)
        assert any(len(shown) == 1 for *_, shown, _ in cases)
        assert any(len(shown) > 1 for *_, shown, _ in cases)
        assert any(not shown for *_, shown, _ in cases)

    def test_answers_do_not_depend_on_the_index(self, monkeypatch):
        # a quartet's row depends only on n, the stream and the quartet, so
        # an emptied index, the same index filled, and one with half its
        # rows dropped answer alike, in both streams: the binary one against
        # the unpruned stream, the oracle's in its exact count and examples
        cases = list(self._cases())
        sets = list(self._oracle_inputs())

        def oracle():
            return [
                defines(qs, qs.leaves, mode="oracle", allow_larger_ambient=True)
                for qs in sets
            ]

        fresh = lru_cache(maxsize=None)(decide._Index)
        monkeypatch.setattr(decide, "_index", fresh)
        verdicts = oracle()
        for _ in range(2):
            for n, pairs, indices, shown, misses in cases:
                assert self._answers(n, pairs, indices) == (shown, misses)
        assert oracle() == verdicts
        for n in range(4, 9):
            for mode in ("binary", "all"):
                rows = fresh(n, mode).rows
                assert rows
                for pair in list(rows)[::2]:
                    del rows[pair]
        for n, pairs, indices, shown, misses in cases:
            assert self._answers(n, pairs, indices) == (shown, misses)
        assert oracle() == verdicts
        assert {v.status for v in verdicts} == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}

    @staticmethod
    def _route_inputs():
        """Both example sets, the 8-leaf construction and each of its
        quartets dropped, search findings on 8 leaves, and random sets."""
        yield _data("q6.txt")
        yield _data("q7.txt")
        qs = minimal_definitive_set(8)
        yield qs
        for q in qs.sorted_quartets():
            yield qs.without_quartet(q)
        for f in run_search(8, 6, 20, seed=2):
            yield f.quartets
        for n in (5, 6, 7):
            yield from islice(_random_sets(n), 40)

    def test_route_on_and_off_agree(self, monkeypatch):
        inputs = list(self._route_inputs())
        wider = integer_leaves(8)
        larger = [_data("q6.txt"), _data("q7.txt")]

        def answers():
            return (
                [(defines(qs), minimality_report(qs)) for qs in inputs],
                [defines(qs, wider, allow_larger_ambient=True) for qs in larger],
            )

        on = answers()
        monkeypatch.setattr(decide, "_INDEX_LEAVES", 3)
        assert answers() == on
        kinds = {w.kind for _, report in on[0] for _, w in report.entries}
        assert kinds == {"undistinguished_edge", "alternative_tree", "redundant"}
        statuses = {v.status for v, _ in on[0]} | {v.status for v in on[1]}
        assert statuses == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}

    @staticmethod
    def _oracle_inputs():
        """Seeded random sets on 4-8 leaves, then the 8-leaf construction
        and each of its quartets dropped, so that 8 leaves see every verdict."""
        for n in range(4, 9):
            ls = integer_leaves(n)
            for rows in oracles.random_index_sets(n, 200, seed=40 + n, max_size=2 * n):
                yield quartet_set_from_indices(ls, rows)
        qs = minimal_definitive_set(8)
        yield qs
        for q in qs.sorted_quartets():
            yield qs.without_quartet(q)

    def test_oracle_on_and_off_agree(self, monkeypatch):
        # the all-tree index against the filtered stream: the status, the
        # exact count, the tree and both examples, in stream order
        inputs = list(self._oracle_inputs())

        def answers():
            return [
                defines(qs, qs.leaves, mode="oracle", allow_larger_ambient=True)
                for qs in inputs
            ]

        on = answers()
        monkeypatch.setattr(decide, "_INDEX_LEAVES", 3)
        assert answers() == on
        by_n = defaultdict(set)
        for qs, v in zip(inputs, on):
            by_n[qs.leaves.n].add(v.status)
        assert by_n[8] == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}
        assert set().union(*by_n.values()) == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}
        assert max(v.displayer_count for v in on) > 2


class TestPairOrder:
    """Every route takes its quartets as a list of pair masks, and answers
    the same whatever the order of that list: the sorted list and three
    shuffles of it, on seeded sets on 5-10 leaves."""

    @staticmethod
    def _cases():
        """25 sets per n: the quartets of a random binary tree on n to 3n
        random 4-leaf subsets, one in four given a quartet it does not
        display, each with three shuffles of its sorted pairs."""
        rng = random.Random(35)
        for n in range(5, 11):
            for _ in range(25):
                tree = _random_binary_tree(rng, n)
                chosen = set()
                for _ in range(rng.randint(n, 3 * n)):
                    four = _resolutions(rng.sample(range(n), 4))
                    chosen.update(q for q in four if displays(tree, q))
                if rng.random() < 0.25:
                    four = _resolutions(rng.sample(range(n), 4))
                    chosen.add(next(q for q in four if not displays(tree, q)))
                pairs = sorted(q.pair_masks() for q in chosen)
                yield n, pairs, [rng.sample(pairs, len(pairs)) for _ in range(3)]

    @staticmethod
    def _answers(n, pairs, avoid):
        """What each route gives for the pairs in this order: the first
        trees of each stream, as many as it takes to see their order."""
        def first(stream):
            return list(islice(stream, 20))

        rest = [p for p in pairs if p != avoid]
        settled = decide._closure_certificate(pairs, n)
        answers = [
            first(decide._binary_walk(pairs, n)),
            first(decide._binary_walk(rest, n, avoid)),
            settled and [tuple(sorted(masks)) for masks in settled],
        ]
        if n <= 9:
            for mode in ("binary", "all"):
                answers.append(first(decide._oracle_displayers(pairs, n, None, mode)))
        if n <= decide._INDEX_LEAVES:
            misses = decide._index(n, "binary").first_misses(pairs, range(len(pairs)))
            answers.append({pairs[i]: masks for i, masks in misses.items()})
        return answers

    def test_routes_ignore_the_order(self):
        answered = [0] * 6  # the sets where each route found something
        for n, pairs, shuffles in self._cases():
            avoid = pairs[len(pairs) // 2]
            expected = self._answers(n, pairs, avoid)
            for shuffled in shuffles:
                assert self._answers(n, shuffled, avoid) == expected
            for route, answer in enumerate(expected):
                answered[route] += bool(answer)
        assert all(answered)


class TestRemovalWitnesses:
    """The one removal check, asked about a few quartets, answers as the
    full report does and as defines on the set minus each quartet does."""

    def test_redundant_exactly_when_the_rest_defines_the_tree(self):
        kinds = set()
        for qs, tree in _definitive_sets(200):
            quartets = qs.sorted_quartets()
            pairs = [q.pair_masks() for q in quartets]
            for i, q in enumerate(quartets):
                w = decide._removal_witnesses(pairs, tree, (i,), None)[i]
                kinds.add(w.kind)
                rest = defines(qs.without_quartet(q))
                assert (w.kind == "redundant") == (rest.tree == tree)
        assert kinds == {"undistinguished_edge", "alternative_tree", "redundant"}

    @pytest.mark.parametrize(
        "qs",
        [_data("q6.txt"), _data("q7.txt")]
        + [minimal_definitive_set(n) for n in range(5, 13)]
        + [_swap15(minimal_definitive_set(n)) for n in (10, 11, 12)],
        ids=["q6", "q7"] + [f"set-{n}" for n in range(5, 13)]
        + [f"swap15-{n}" for n in (10, 11, 12)],
    )
    def test_a_subset_matches_the_report(self, qs):
        report = minimality_report(qs)
        tree = report.verdict.tree
        pairs = [q.pair_masks() for q, _ in report.entries]
        everything = range(len(pairs))
        for subset in [(i,) for i in everything] + [everything[::2], everything[1::2]]:
            expected = {i: report.entries[i][1] for i in subset}
            assert decide._removal_witnesses(pairs, tree, subset, None) == expected


def _report_digest(reports):
    """sha256 over each report's verdict and every entry: the quartet, the
    witness kind, and the witness tree's Newick or the loose split."""
    lines = []
    for report in reports:
        verdict = report.verdict
        tree = verdict.tree
        lines.append(f"{verdict.status} {serialize_newick(tree)} {report.minimal}")
        for q, w in report.entries:
            if w.tree is not None:
                shown = serialize_newick(w.tree)
            else:
                shown = w.split.text(tree.leaves) if w.split is not None else "-"
            lines.append(f"{q.text(tree.leaves)} {w.kind} {shown}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestReportsPastTheIndex:
    """minimality_report on 9-12 leaves, where neither the index nor, for
    these sets, the closure step settles every removal, pinned to the
    bytes of its verdicts and witnesses."""

    @pytest.mark.parametrize(
        "inputs, digest",
        [
            (
                lambda: [_swap15(minimal_definitive_set(n)) for n in range(9, 13)],
                "03a21157c54e10d0bde3be3a5240d56c654a6a64ed7fc511c087dc0f01ecc80c",
            ),
            (
                lambda: [
                    relabel(minimal_definitive_set(n), _shuffle(n, seed))
                    for n in range(9, 13)
                    for seed in (1, 2)
                ],
                "fb532dd3ef817da25e160bbaac556da7f5a355bf5e9f6887ab2718651a792125",
            ),
            (
                lambda: [qs for qs, _ in _definitive_sets(6, seed=17, least=9, most=11)],
                "fe886b754ab61df3d96e4a0b9af3b6b5dd04658cce9fa6b4ff15f63519fc494f",
            ),
        ],
        ids=["swapped", "shuffled", "redundant"],
    )
    def test_reports_are_pinned(self, inputs, digest):
        reports = [minimality_report(qs, cap=12) for qs in inputs()]
        assert all(r.verdict.is_definitive for r in reports)
        assert _report_digest(reports) == digest


def _minus_first(qs):
    return qs.without_quartet(qs.sorted_quartets()[0])


def _exhaustive_inputs():
    yield _data("q6.txt")
    yield _data("q7.txt")
    qs = minimal_definitive_set(8)
    for q in qs.sorted_quartets():
        yield qs.without_quartet(q)


class TestOracleIsTheStream:
    """The exhaustive answers read the enumeration stream, filtered as it
    grows, and never the pruned walk of the fast route."""

    def test_never_runs_the_pruned_walk(self, no_scan):
        for qs in _exhaustive_inputs():
            found = displayers(qs, mode="all")
            assert displayers(qs, mode="binary") == [t for t in found if t.is_binary()]
            assert defines(qs, mode="oracle").displayer_count == len(found)
            for query in all_quartets(qs.leaves)[:3]:
                shown = all(displays(t, query) for t in found)
                assert semantic_infers(qs, query) == shown

    @pytest.mark.parametrize(
        "qs, built",
        [
            (minimal_definitive_set(8), 571),
            (minimal_definitive_set(9), 2696),
            (_minus_first(minimal_definitive_set(9)), 6600),
            (_data("q7.txt"), 182),
        ],
        ids=["set-8", "set-9", "set-9-minus-first", "q7"],
    )
    def test_children_built(self, qs, built, monkeypatch, no_index):
        """The filter runs per level: filtering only finished trees gives
        the same answers at many times this work. The index is off, so
        that the sets on up to eight leaves read the stream too."""
        sizes = []
        real = enumeration._insert

        def counting(*args):
            children = real(*args)
            sizes.append(len(children))
            return children

        monkeypatch.setattr(enumeration, "_insert", counting)
        defines(qs, mode="oracle")
        assert sum(sizes) == built

    def test_a_built_index_builds_no_child(self, monkeypatch):
        # once the all-tree index is built, an oracle verdict on up to
        # eight leaves is read off it: the stream never grows a tree
        inputs = [_data("q6.txt"), _data("q7.txt"), minimal_definitive_set(8)]
        inputs += [qs for n in range(5, 9) for qs in islice(_random_sets(n), 20)]
        for n in range(4, 9):
            decide._index(n, "all")

        def refuse(*args):
            raise AssertionError("the oracle grew a tree")

        monkeypatch.setattr(enumeration, "_insert", refuse)
        statuses = {defines(qs, mode="oracle").status for qs in inputs}
        assert statuses == {DEFINES, NOT_DEFINITIVE, INCOMPATIBLE}


class TestScanCap:
    """In fast mode the cap bounds only the binary scan, not the certificate
    or the index; the oracle refuses a set past it on either route."""

    @pytest.mark.parametrize("n", [13, 20, 30, 64])
    def test_construction_is_defined_past_the_cap(self, n):
        v = defines(minimal_definitive_set(n))
        assert v.status == DEFINES and v.tree == caterpillar(n)

    def test_unsettled_set_names_the_certificate_and_the_cap(self):
        qs = minimal_definitive_set(13)
        rest = qs.without_quartet(qs.sorted_quartets()[0])
        with pytest.raises(TooManyLeavesError) as info:
            defines(rest)
        message = str(info.value)
        assert "closure certificate did not settle" in message
        assert "cap 12" in message

    def test_a_scan_refusal_is_a_cap_error_led_by_its_cause(self):
        qs = minimal_definitive_set(13)
        with pytest.raises(CapError) as info:
            minimality_report(qs)
        assert str(info.value).startswith("the minimality witnesses for ")
        assert str(info.value).endswith(
            ": 13 leaves exceeds the enumeration cap 12 for mode 'binary'"
        )

    def test_a_cap_below_n_gives_the_index_answer(self, monkeypatch):
        # on up to eight leaves the index answers whatever the cap, so a
        # cap below n changes neither the route nor the answer
        q8, q7 = minimal_definitive_set(8), _data("q7.txt")
        uncapped = defines(q8), minimality_report(q7)
        monkeypatch.setattr(decide, "_closure_certificate", refuse_scan)
        monkeypatch.setattr(decide, "_binary_walk", refuse_scan)
        assert defines(q8, cap=7) == uncapped[0]
        for cap in range(3, 7):
            assert minimality_report(q7, cap=cap) == uncapped[1]

    def test_the_oracle_refuses_a_set_past_the_cap(self, monkeypatch):
        # the oracle's index holds every tree, as its stream does, so a cap
        # below n refuses the set before either route runs, with one message
        q7 = _data("q7.txt")
        messages = []
        for limit in (decide._INDEX_LEAVES, 3):
            monkeypatch.setattr(decide, "_INDEX_LEAVES", limit)
            with pytest.raises(TooManyLeavesError) as info:
                defines(q7, mode="oracle", cap=6)
            messages.append(str(info.value))
        assert messages == ["7 leaves exceeds the enumeration cap 6 for mode 'all'"] * 2

    @pytest.mark.parametrize("cap", [-3, 0, 2])
    def test_a_cap_below_three_is_refused(self, cap):
        # the 9-leaf set is settled by the certificate, which needs no cap
        for call in (
            partial(defines, minimal_definitive_set(6)),
            partial(defines, minimal_definitive_set(9)),
            partial(minimality_report, _data("q7.txt")),
            partial(minimality_report, minimal_definitive_set(9)),
            partial(enumeration.enumerate_trees, 5),
        ):
            with pytest.raises(QuartetError) as info:
                call(cap=cap)
            assert type(info.value) is QuartetError
            assert str(info.value) == f"cap must be at least 3 leaves, got {cap}"

    def test_displayers_refuse_before_the_first_tree(self):
        with pytest.raises(TooManyLeavesError):
            displayers(minimal_definitive_set(13), mode="binary", limit=0)
        with pytest.raises(TooManyLeavesError):
            displayers(minimal_definitive_set(10), mode="all", limit=0)
