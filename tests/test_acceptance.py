"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion re-derives its expected values from an independent route
(pinned constants, the brute-force oracle, or a second implementation)
and enforces its own wall-clock budget.
"""

import contextlib
import itertools
import json
import subprocess
import sys
import time

import pytest

import oracles
from conftest import DATA, quartet_set_from_indices, qset, refuse_scan
from quartets import (
    count_trees,
    defines,
    displayers,
    displays,
    enumerate_trees,
    integer_leaves,
    make_quartet,
    minimal_definitive_sequence,
    minimal_definitive_set,
    minimality_report,
    parse_newick,
    parse_quartet_file,
    semantic_infers,
    serialize_newick,
    serialize_quartet_set,
    target_tree,
    undistinguished_edges,
    witness_chain,
)
from quartets import decide


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _run(label, limit=None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"ACCEPTANCE {label}: FAIL ({elapsed:.2f}s)")
            raise
        elapsed = time.perf_counter() - start
        verdict = "pass"
        if limit is not None and elapsed >= limit:
            verdict = f"FAIL (over {limit:.0f}s budget)"
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {verdict} ({elapsed:.2f}s)")
        if limit is not None:
            assert elapsed < limit, f"{label} exceeded {limit}s"

    return _run


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "quartets", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_01_golden_constructions(announce):
    with announce("1 golden constructions", limit=1.0):
        for n, name in ((6, "q6.txt"), (7, "q7.txt")):
            out = cli("construct", "--n", str(n))
            assert out.returncode == 0
            assert out.stdout == DATA.joinpath(name).read_text()


def test_criterion_02_construction_verifies_to_ten_leaves(announce):
    with announce("2 construction verified for n=5..10", limit=120.0):
        out = cli("verify-theorem", "--max-n", "10", "--oracle-max-n", "7", "--json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["all_ok"] is True
        assert [level["n"] for level in payload["levels"]] == list(range(5, 11))
        for level in payload["levels"]:
            checks = level["checks"]
            assert checks["size"] and checks["minimal"]
            assert ("oracle_defines_target" in checks) == (level["n"] <= 7)


def test_criterion_03_four_displayers_of_two_overlapping_quartets(announce):
    with announce("3 four displayers on five leaves", limit=1.0):
        ls = integer_leaves(5)
        qs = qset(ls, (1, 2, 3, 4), (1, 2, 3, 5))
        found = displayers(qs, mode="all")
        assert len(found) == 4
        assert sum(1 for t in found if t.is_binary()) == 3
        mask_sets = {frozenset(s.mask for s in t.splits) for t in found}
        assert mask_sets == {
            frozenset({28}),
            frozenset({28, 12}),
            frozenset({28, 20}),
            frozenset({28, 24}),
        }


def test_criterion_04_exhaustive_five_leaf_inference(announce):
    with announce("4 exhaustive five-leaf inference", limit=5.0):
        ls = integer_leaves(5)
        for a, b, c, d, e in itertools.permutations(range(1, 6)):
            premises = qset(ls, (a, b, d, e), (b, c, d, e))
            conclusion = make_quartet(ls, a, c, d, e)
            assert semantic_infers(premises, conclusion, leaves=ls)


def test_criterion_05_definitive_sets_behave(announce, monkeypatch):
    with announce("5 definitive sets pin edges and respect the bound"):
        certified = 0
        for n in (5, 6, 7):
            ls = integer_leaves(n)
            samples = [
                quartet_set_from_indices(ls, rows)
                for rows in oracles.random_index_sets(n, 300, seed=50 + n)
            ]
            samples.append(minimal_definitive_set(n).translate(ls))
            ladder = [(1, m, m + 1, m + 3) for m in range(2, n - 2)]
            ladder.append((1, n - 2, n - 1, n))
            samples.append(qset(ls, *ladder))
            for qs in samples:
                support = qs.restrict_to_support()
                v = defines(support, mode="fast")
                if not v.is_definitive:
                    continue
                assert undistinguished_edges(support, v.tree) == ()
                assert len(support) >= len(support.support_labels()) - 3
                if set.intersection(*(set(q.indices()) for q in support)):
                    # one leaf's triples define the tree: no scan is needed
                    certified += 1
                    with monkeypatch.context() as patch:
                        patch.setattr(decide, "_binary_walk", refuse_scan)
                        assert defines(support).tree == v.tree
                    oracle = defines(support, mode="oracle")
                    assert oracle.is_definitive and oracle.tree == v.tree
        assert certified > 0


def test_criterion_06_enumeration_counts(announce):
    with announce("6 enumeration counts", limit=60.0):
        pinned_binary = [3, 15, 105, 945, 10395, 135135, 2027025, 34459425]
        for n, expected in zip(range(4, 12), pinned_binary):
            assert oracles.binary_tree_count(n) == expected
            assert count_trees(n, "binary", cap=12) == expected
        assert [oracles.all_tree_count(n) for n in range(4, 10)] == [
            4,
            26,
            236,
            2752,
            39208,
            660032,
        ]
        for n in range(4, 10):
            assert count_trees(n, "all") == oracles.all_tree_count(n)


def test_criterion_07_oracle_fast_equivalence(announce):
    with announce("7 oracle and fast verdicts agree", limit=300.0):
        for n in (5, 6, 7):
            ls = integer_leaves(n)
            for rows in oracles.random_index_sets(n, 1000, seed=100 + n):
                qs = quartet_set_from_indices(ls, rows).restrict_to_support()
                fast = defines(qs, mode="fast")
                oracle = defines(qs, mode="oracle")
                assert fast.status == oracle.status
                if fast.is_definitive:
                    assert fast.tree == oracle.tree


def test_criterion_08_witness_chain(announce):
    with announce("8 witness chain for k=6..10"):
        for k in range(6, 11):
            qs = minimal_definitive_set(k)
            seq = minimal_definitive_sequence(k)
            tree = target_tree(k)
            chain = witness_chain(k)
            assert sorted(chain.witnesses) == list(range(1, 2 * k - 7))
            for i, q in enumerate(seq, start=1):
                alt = chain.witness(i)
                assert alt != tree
                for other in qs.without_quartet(q):
                    assert displays(alt, other)
        assert {s.mask for s in witness_chain(6).witness(3).splits} == {10, 42, 20}
        assert {s.mask for s in witness_chain(7).witness(3).splits} == {10, 106, 20, 96}
        assert {s.mask for s in witness_chain(7).witness(5).splits} == {40, 124, 84, 20}


def test_criterion_09_parser_round_trips(announce):
    with announce("9 parser round trips"):
        for n in (4, 5, 6):
            for mode in ("binary", "all"):
                for tree in enumerate_trees(n, mode):
                    assert parse_newick(serialize_newick(tree)) == tree
        done = 0
        for n in (5, 6, 7, 8, 9):
            ls = integer_leaves(n)
            for rows in oracles.random_index_sets(n, 100, seed=900 + n):
                qs = quartet_set_from_indices(ls, rows).restrict_to_support()
                assert parse_quartet_file(serialize_quartet_set(qs)) == qs
                done += 1
        assert done == 500


def test_criterion_10_search_sanity(announce):
    with announce("10 search sanity"):
        out = cli(
            "search", "--n", "5", "--target-size", "2",
            "--budget", "1000", "--seed", "1", "--json",
        )
        assert out.returncode == 0
        rows = json.loads(out.stdout)
        assert len(rows) >= 1
        for row in rows:
            qs = parse_quartet_file("\n".join(row["quartets"]) + "\n")
            report = minimality_report(qs, mode="oracle")
            assert report.verdict.is_definitive and report.minimal
            assert row["size"] >= 2

        out = cli("search", "--n", "6", "--target-size", "4", "--json")
        assert out.returncode == 0
        rows = json.loads(out.stdout)
        assert any(row["size"] == 4 for row in rows)
        for row in rows:
            if row["size"] != 4:
                continue
            qs = parse_quartet_file("\n".join(row["quartets"]) + "\n")
            report = minimality_report(qs, mode="oracle")
            assert report.verdict.is_definitive and report.minimal
            break
