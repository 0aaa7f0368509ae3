"""Small definitive sets, their witnesses, and the level-by-level checker."""

import hashlib
import itertools

import pytest

from quartets import (
    LeafSet,
    PhyloTree,
    QuartetError,
    QuartetSet,
    TooFewLeavesError,
    TooManyLeavesError,
    WitnessChain,
    WitnessCheckError,
    caterpillar,
    caterpillar_from_order,
    cherry_replace,
    defines,
    displays,
    enumerate_trees,
    inference_closure,
    integer_leaves,
    make_quartet,
    minimal_definitive_sequence,
    minimal_definitive_set,
    minimality_report,
    normalized_quartet,
    reverse,
    serialize_newick,
    serialize_quartet_set,
    target_tree,
    verify_construction,
    witness_chain,
)
from quartets import construct


def texts(n):
    return [q.text(integer_leaves(n)) for q in minimal_definitive_sequence(n)]


class TestCaterpillar:
    def test_four_leaves(self):
        t = caterpillar(4)
        assert [s.text(t.leaves) for s in t.splits] == ["1,2|3,4"]

    def test_six_leaves_spine(self, t6):
        assert caterpillar(6) == t6
        assert {s.text(t6.leaves) for s in t6.splits} == {
            "1,2|3,4,5,6",
            "1,2,3|4,5,6",
            "1,2,3,4|5,6",
        }

    @pytest.mark.parametrize("n", range(6, 11))
    def test_reversal_symmetry(self, n):
        assert reverse(caterpillar(n)) == caterpillar(n)

    def test_too_few(self):
        with pytest.raises(TooFewLeavesError):
            caterpillar(3)

    def test_custom_order_too_few(self):
        with pytest.raises(TooFewLeavesError, match="a caterpillar needs at least three leaves"):
            caterpillar_from_order(["a", "b"])

    def test_custom_order(self):
        t = caterpillar_from_order([2, 4, 6, 1, 5, 3])
        assert "1,3,5,6|2,4" in {s.text(t.leaves) for s in t.splits}


class TestSequence:
    def test_five(self):
        assert texts(5) == ["1,2|3,4", "1,4|3,5"]

    def test_six(self):
        assert texts(6) == ["1,2|3,5", "1,3|4,6", "1,2|5,6", "2,4|5,6"]

    def test_seven(self):
        assert texts(7) == [
            "1,2|3,5",
            "1,3|4,6",
            "1,2|5,7",
            "2,4|5,7",
            "1,3|6,7",
            "3,5|6,7",
        ]

    def test_eight(self):
        assert texts(8) == [
            "1,2|3,5",
            "1,3|4,6",
            "1,2|5,7",
            "2,4|5,7",
            "1,3|6,8",
            "3,5|6,8",
            "1,4|7,8",
            "4,6|7,8",
        ]

    def test_nine_tail(self):
        assert texts(9)[-4:] == ["1,4|7,9", "4,6|7,9", "1,5|8,9", "5,7|8,9"]

    @pytest.mark.parametrize("n", range(5, 13))
    def test_size(self, n):
        expected = 2 * n - 8 if n > 5 else 2
        assert len(minimal_definitive_sequence(n)) == expected

    @pytest.mark.parametrize("n", range(6, 13))
    def test_sorted_indices_within_each_quartet(self, n):
        for q in minimal_definitive_sequence(n):
            assert q.a < q.b < q.c < q.d

    def test_too_few(self):
        with pytest.raises(TooFewLeavesError):
            minimal_definitive_set(4)

    @pytest.mark.parametrize("k", range(7, 11))
    def test_reversal_pairing(self, k):
        # flipping the leaf order maps the tail quartets onto each other
        ls = integer_leaves(k)
        seq = minimal_definitive_sequence(k)
        by_index = {i + 1: q for i, q in enumerate(seq)}
        assert reverse(by_index[1], leaves=ls) == by_index[2 * k - 8]
        assert reverse(by_index[2], leaves=ls) == by_index[2 * k - 10]
        assert reverse(by_index[4], leaves=ls) == by_index[2 * k - 12]

    @pytest.mark.parametrize("k", range(6, 13))
    def test_closure_contains_the_ladder(self, k, no_scan, no_index):
        ls = integer_leaves(k)
        closed = inference_closure(minimal_definitive_set(k))
        ladder = [make_quartet(ls, 1, m, m + 1, m + 3) for m in range(2, k - 2)]
        ladder.append(make_quartet(ls, 1, k - 2, k - 1, k))
        for q in ladder:
            assert q in closed
        # leaf 1 is common to the whole ladder, whose triples on it define
        # the caterpillar without any enumeration
        ladder_set = QuartetSet.from_quartets(ls, ladder)
        assert defines(ladder_set).tree == caterpillar(k)


class TestTargetTree:
    def test_five_is_the_bent_caterpillar(self):
        assert target_tree(5) == caterpillar_from_order([1, 2, 4, 3, 5])

    @pytest.mark.parametrize("n", range(6, 11))
    def test_rest_are_caterpillars(self, n):
        assert target_tree(n) == caterpillar(n)

    def test_four_is_the_caterpillar(self):
        assert target_tree(4) == caterpillar(4)

    def test_too_few(self):
        with pytest.raises(TooFewLeavesError):
            target_tree(3)

    def test_output_to_the_leaf_cap_is_pinned(self):
        # every set and target of the family, 5 to 64 leaves
        text = "".join(
            serialize_quartet_set(minimal_definitive_set(k)) + serialize_newick(target_tree(k))
            for k in range(5, 65)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "19c8f3f6951d11dc42110074df631786597aac56f2797deef00e02120dfab395"

    def test_five_is_defined_by_the_seed(self):
        qs = minimal_definitive_set(5)
        for mode in ("fast", "oracle"):
            v = defines(qs, mode=mode)
            assert v.is_definitive and v.tree == target_tree(5)


class TestWitnessChain:
    def test_base_level_shape(self):
        chain = witness_chain(6)
        assert isinstance(chain, WitnessChain)
        assert chain.k == 6
        assert sorted(chain.witnesses) == [1, 2, 3, 4]

    def test_base_level_caterpillar_witness(self):
        chain = witness_chain(6)
        alt = chain.witness(3)
        assert alt == caterpillar_from_order([2, 4, 6, 1, 5, 3])

    def test_level_seven_tail(self):
        ls7 = integer_leaves(7)
        chain = witness_chain(7)
        assert sorted(chain.witnesses) == [1, 2, 3, 4, 5, 6]
        t_dprime = chain.witness(3)
        assert {s.text(ls7) for s in t_dprime.splits} == {
            "1,3,5,6,7|2,4",
            "1,3,5|2,4,6,7",
            "1,2,4,6,7|3,5",
            "1,2,3,4,5|6,7",
        }
        t_tprime = chain.witness(5)
        assert t_tprime == reverse(t_dprime)
        assert {s.text(ls7) for s in t_tprime.splits} == {
            "1,2,3,5,7|4,6",
            "1,2,4,6|3,5,7",
            "1,2,4,6,7|3,5",
            "1,2|3,4,5,6,7",
        }

    def test_pinned_masks_from_the_base(self):
        t_prime = witness_chain(6).witness(3)
        assert {s.mask for s in t_prime.splits} == {10, 42, 20}
        t_dprime = witness_chain(7).witness(3)
        assert {s.mask for s in t_dprime.splits} == {10, 106, 20, 96}
        t_tprime = witness_chain(7).witness(5)
        assert {s.mask for s in t_tprime.splits} == {40, 124, 84, 20}

    @pytest.mark.parametrize("k", range(5, 9))
    def test_every_witness_witnesses(self, k):
        # witness i displays everything except quartet i
        qs = minimal_definitive_set(k)
        seq = minimal_definitive_sequence(k)
        tree = target_tree(k)
        chain = witness_chain(k)
        for i, q in enumerate(seq, start=1):
            alt = chain.witness(i)
            assert alt != tree
            for other in qs.without_quartet(q):
                assert displays(alt, other)

    def test_thirty_leaf_chain_is_pinned(self):
        # the 52 witnesses of level 30, in order
        chain = witness_chain(30)
        text = "".join(serialize_newick(w) + "\n" for _, w in chain.entries)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "8252c66d3b19291390fa17171ae2ae0da335a074c53a496efc39ff24ffc3b327"

    def test_loose_edge_failure_names_its_level(self, monkeypatch):
        # with every edge pinned there is no loose edge to contract
        monkeypatch.setattr(construct, "_undistinguished_masks", lambda masks, pairs: [])
        with pytest.raises(WitnessCheckError) as info:
            witness_chain(7)
        assert info.value.level == 5

    @pytest.mark.parametrize(
        "witness, message",
        [
            (lambda target: caterpillar(6), "witness 1: wrong leaf set"),
            (lambda target: target, "witness 1: coincides with the target tree"),
        ],
        ids=["wrong-leaves", "the-target"],
    )
    def test_level_check_refuses_a_bad_witness(self, witness, message, monkeypatch):
        # level 5 takes both its witnesses from the loose edges
        monkeypatch.setattr(
            construct, "_loose_edge_witness", lambda level, rest, target: witness(target)
        )
        with pytest.raises(WitnessCheckError) as info:
            witness_chain(5)
        assert info.value.level == 5
        assert str(info.value) == f"{message} at level 5"

    @pytest.mark.parametrize("i, missed", [(1, "1,3|4,6"), (2, "1,2|3,5")])
    def test_display_failure_names_the_first_missed_quartet(self, i, missed):
        witnesses = witness_chain(6).witnesses
        witnesses[i] = PhyloTree(integer_leaves(6), ())  # the star displays nothing
        seq = minimal_definitive_sequence(6)
        with pytest.raises(WitnessCheckError) as info:
            construct._validate_level(6, seq, witnesses, caterpillar(6))
        assert info.value.level == 6
        assert str(info.value).startswith(f"witness {i}: fails to display {missed} ")

    def test_too_few(self):
        with pytest.raises(TooFewLeavesError):
            witness_chain(4)

    def test_five_leaf_base_contracts_the_loose_edges(self):
        chain = witness_chain(5)
        leaves = integer_leaves(5)
        assert {i: [s.text(leaves) for s in w.splits] for i, w in chain.entries} == {
            1: ["1,2,4|3,5"],
            2: ["1,2|3,4,5"],
        }

    def test_past_the_leaf_cap_fails_before_any_level(self, monkeypatch):
        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(construct, "_validate_level", no_level)
        with pytest.raises(TooManyLeavesError):
            witness_chain(65)
        with pytest.raises(TooManyLeavesError):
            verify_construction(65)


@pytest.fixture(scope="module")
def chains():
    return {k: witness_chain(k) for k in range(6, 31)}


class TestMaskStep:
    # the chain carries witnesses up in mask space; model surgery is the
    # reference for every carried and reversed witness
    @pytest.mark.parametrize("k", range(7, 31))
    def test_matches_model_surgery(self, chains, k):
        prev, cur = chains[k - 1].witnesses, chains[k].witnesses
        size = 2 * k - 8
        for i in range(1, size - 1):
            assert cur[i] == cherry_replace(prev[i], k - 1, k), i
        assert cur[size - 1] == reverse(cur[3])

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_tree(self, n):
        for tree in enumerate_trees(n, "all"):
            grown = cherry_replace(tree, n, n + 1)
            assert sorted(construct._carried(tree.masks, n + 1)) == list(grown.masks)
            assert sorted(construct._reversed(tree.masks, n)) == list(reverse(tree).masks)

    @pytest.mark.parametrize("k", [12, 30])
    def test_one_leaf_set_per_level(self, monkeypatch, k):
        built = []
        real = LeafSet.__post_init__

        def counting(self):
            built.append(self.labels)
            real(self)

        monkeypatch.setattr(LeafSet, "__post_init__", counting)
        witness_chain(k)
        levels = k - 4
        assert len(built) <= levels + 2


def _all_quartets(n):
    for a, b, c, d in itertools.combinations(range(n), 4):
        yield from (
            normalized_quartet(a, b, c, d),
            normalized_quartet(a, c, b, d),
            normalized_quartet(a, d, b, c),
        )


class TestCherryLemma:
    # if W' = cherry_replace(W, k-1, k) and q does not hold both k-1 and
    # k, W' displays q exactly when W displays q with k renamed k-1
    @pytest.mark.parametrize("k", range(7, 31))
    def test_on_the_chain(self, chains, k):
        old, new = k - 2, k - 1  # leaf indices of labels k-1 and k
        if k <= 9:
            quartets = list(_all_quartets(k))
        else:
            quartets = minimal_definitive_sequence(k) + minimal_definitive_sequence(k - 1)
        prev, cur = chains[k - 1].witnesses, chains[k].witnesses
        checked = 0
        for i in range(1, 2 * k - 9):
            for q in quartets:
                ix = q.indices()
                if old in ix and new in ix:
                    continue
                renamed = normalized_quartet(*(old if x == new else x for x in ix))
                assert displays(cur[i], q) == displays(prev[i], renamed), (i, q)
                checked += 1
        assert checked


class TestVerifyConstruction:
    def test_report_shape(self):
        report = verify_construction(7, oracle_max_n=6)
        assert report.max_n == 7
        assert [lv.n for lv in report.levels] == [5, 6, 7]
        assert report.all_ok

    def test_oracle_rows_are_skipped_above_the_bound(self):
        report = verify_construction(8, oracle_max_n=6)
        by_n = {lv.n: dict(lv.checks) for lv in report.levels}
        assert "oracle_defines_target" in by_n[6]
        assert "oracle_defines_target" not in by_n[8]

    def test_check_names(self):
        report = verify_construction(6, oracle_max_n=6)
        names = dict(report.levels[-1].checks)
        assert {
            "size",
            "displays_target",
            "fast_defines_target",
            "minimal",
            "witness_chain",
            "oracle_defines_target",
        } == set(names)
        assert all(names.values())

    def test_cap_reaches_the_oracle(self):
        with pytest.raises(TooManyLeavesError):
            verify_construction(9, oracle_max_n=9, cap=8)

    def test_minimality_needs_no_scan(self, no_scan):
        assert verify_construction(12, oracle_max_n=5).all_ok

    def test_past_the_old_scan_ceiling(self):
        report = verify_construction(30, oracle_max_n=5)
        assert [lv.n for lv in report.levels] == list(range(5, 31))
        assert report.all_ok

    def test_witness_chain_is_walked_once(self, monkeypatch):
        calls = []
        real = construct.witness_chain

        def counting(k):
            calls.append(k)
            return real(k)

        monkeypatch.setattr(construct, "witness_chain", counting)
        assert verify_construction(9, oracle_max_n=5).all_ok
        assert calls == [9]

    def test_witness_failure_fails_its_level_and_those_above(self, monkeypatch):
        real = construct._validate_level

        def failing_at_8(level, *args):
            if level == 8:
                raise WitnessCheckError("planted failure", level)
            return real(level, *args)

        monkeypatch.setattr(construct, "_validate_level", failing_at_8)
        report = verify_construction(10, oracle_max_n=5)
        checks = {lv.n: dict(lv.checks) for lv in report.levels}
        chain = {n: c.pop("witness_chain") for n, c in checks.items() if n >= 6}
        assert chain == {6: True, 7: True, 8: False, 9: False, 10: False}
        minimal = {n: c.pop("minimal") for n, c in checks.items()}
        assert minimal == {5: True, 6: True, 7: True, 8: False, 9: False, 10: False}
        assert all(all(c.values()) for c in checks.values())

    def test_too_small(self):
        with pytest.raises(TooFewLeavesError):
            verify_construction(4)

    def test_negative_oracle_bound_is_refused(self):
        with pytest.raises(QuartetError, match="oracle_max_n"):
            verify_construction(6, oracle_max_n=-3)

    @pytest.mark.parametrize("bound", [0, 4])
    def test_low_oracle_bound_means_no_oracle_rows(self, bound):
        report = verify_construction(6, oracle_max_n=bound)
        assert report.all_ok
        assert all(
            "oracle_defines_target" not in dict(lv.checks) for lv in report.levels
        )


class TestMinimalityOfTheFamily:
    # the scan-based reference for the verifier's witness-chain minimality
    @pytest.mark.parametrize("n", range(5, 13))
    def test_family_member_is_minimal_and_definitive(self, n):
        qs = minimal_definitive_set(n)
        report = minimality_report(qs)
        assert report.verdict.is_definitive
        assert report.verdict.tree == target_tree(n)
        assert report.minimal is True
        assert report.size == (2 * n - 8 if n > 5 else 2)
        assert report.size >= n - 3
