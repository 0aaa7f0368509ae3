#!/usr/bin/env python3
"""Hunt for minimal definitive sets larger than the constructed family.

The constructed sets have size 2n-8. Larger minimal definitive sets
exist (size 7 on 7 leaves, 11 on 8); this script runs seeded random
searches with no size floor and reports the largest set found per n.

Example:
    python3 scripts/explore_search.py --n 6 7 --budget 2000 --seeds 5
"""

import argparse
import sys

from quartets import QuartetError, run_search
from quartets.cli import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[6, 7])
    parser.add_argument("--budget", type=int, default=2000, help="trials per seed")
    parser.add_argument("--seeds", type=int, default=3, help="seeds 1..k per n")
    args = parser.parse_args(argv)
    return run(explore, args)


def explore(args):
    if args.seeds < 1:
        raise QuartetError(f"--seeds must be at least 1, got {args.seeds}")
    for n in args.n:
        family = 2 * n - 8 if n >= 5 else None  # the family starts at five leaves
        best = None
        for seed in range(1, args.seeds + 1):
            for f in run_search(n, target_size=1, budget=args.budget, seed=seed):
                if best is None or f.size > best.size:
                    best = f
        if best is None:
            print(f"n={n}: nothing found (budget too small?)")
            continue
        if family is None:
            print(f"n={n}: best found {best.size}")
        else:
            marker = "  <-- larger than the constructed family" if best.size > family else ""
            print(f"n={n}: constructed size {family}, best found {best.size}{marker}")
        for text in best.quartets.texts():
            print(f"    {text}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
