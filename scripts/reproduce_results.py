#!/usr/bin/env python3
"""Re-derive the headline numbers in one run.

Prints the golden small sets, re-checks the whole construction level by
level, and cross-checks the enumeration counts against closed forms.
Exits nonzero if anything disagrees.
"""

import argparse
import sys
import time

from quartets import (
    count_trees,
    displayers,
    enumerate_trees,
    inference_closure,
    integer_leaves,
    minimal_definitive_set,
    make_quartet,
    QuartetError,
    QuartetSet,
    serialize_newick,
    serialize_quartet_set,
    verify_construction,
)
from quartets.cli import run
from quartets.enumeration import BINARY_CAP


def double_factorial_count(n):
    out = 1
    for odd in range(3, 2 * n - 4, 2):
        out *= odd
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--oracle-max-n", type=int, default=7)
    parser.add_argument(
        "--binary-count-n",
        type=int,
        default=9,
        help="largest n for the binary-count cross-check",
    )
    args = parser.parse_args(argv)
    return run(reproduce, args)


def reproduce(args):
    if args.binary_count_n < 4:
        # the count cross-check starts at four leaves, so a smaller n checks nothing
        raise QuartetError(
            f"--binary-count-n must be at least 4, got {args.binary_count_n}"
        )
    # opening the stream checks the enumeration cap, so a count that would
    # run for hours is refused before any work; the cap is passed, because
    # this script has no option to raise it and the library's own refusal
    # would advise passing one
    enumerate_trees(args.binary_count_n, "binary", cap=BINARY_CAP)
    failures = 0

    print("== golden sets ==")
    for n in (6, 7):
        print(f"n={n}:")
        sys.stdout.write(serialize_quartet_set(minimal_definitive_set(n)))

    print("\n== construction, level by level ==")
    start = time.perf_counter()
    report = verify_construction(args.max_n, args.oracle_max_n)
    for level in report.levels:
        bad = [name for name, ok in level.checks if not ok]
        print(f"n={level.n}: " + ("pass" if not bad else f"FAIL {bad}"))
        failures += len(bad)
    print(f"({time.perf_counter() - start:.2f}s)")

    print("\n== four displayers of two overlapping quartets ==")
    ls = integer_leaves(5)
    qs = QuartetSet.from_quartets(
        ls, [make_quartet(ls, 1, 2, 3, 4), make_quartet(ls, 1, 2, 3, 5)]
    )
    found = displayers(qs, mode="all")
    for tree in found:
        print(" ", serialize_newick(tree))
    if len(found) != 4:
        print(f"FAIL: expected 4 displayers, got {len(found)}")
        failures += 1

    print("\n== closure fixpoints ==")
    for n in (6, 7):
        closed = inference_closure(minimal_definitive_set(n))
        added = sorted(set(closed.texts()) - set(minimal_definitive_set(n).texts()))
        print(f"n={n}: adds {added}")

    print("\n== tree counts ==")
    for n in range(4, args.binary_count_n + 1):
        got = count_trees(n, "binary")
        want = double_factorial_count(n)
        tag = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"binary n={n}: {got} ({tag})")
    for n in range(4, 9):
        print(f"all    n={n}: {count_trees(n, 'all')}")

    print("\n== verdict ==")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("everything reproduces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
