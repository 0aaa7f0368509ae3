"""Command line front end.

Exit codes: 0 for success (or a true answer), 1 for a false answer or a
failed check, 2 for unusable input or a failed write, reported as one
`error:` line on stderr. Every boolean-flavoured command mirrors its
printed answer in the exit code so shell pipelines can branch on it
without scraping output. A reader that closes the pipe early, such as
`head`, ends the command quietly with exit code 1. `run` holds this
contract; the scripts under scripts/ end through it too.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .construct import caterpillar, minimal_definitive_set, verify_construction
from .decide import (
    INCOMPATIBLE,
    NOT_DEFINITIVE,
    inference_closure,
    minimality_report,
    semantic_infers,
)
from .enumeration import ALL_CAP, count_trees, enumerate_trees
from .errors import CapError, ParseError, QuartetError
from .model import LeafSet, make_quartet, displays
from .newick import parse_newick, serialize_newick
from .quartetfile import parse_quartet_file, parse_quartet_text, serialize_quartet_set
from .search import run_search

# command-line default binary enumeration ceiling, tighter than the library's
_CLI_BINARY_CAP = 10


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics instead of argparse's usage dump
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None


def _report_json(report) -> dict:
    verdict = report.verdict
    tree = verdict.tree
    entries = []
    for q, w in report.entries:
        ambient = tree.leaves
        if w.kind == "alternative_tree":
            witness = serialize_newick(w.tree)
        elif w.kind == "undistinguished_edge":
            witness = w.split.text(ambient)
        else:
            witness = None
        entries.append(
            {"quartet": q.text(ambient), "witness_kind": w.kind, "witness": witness}
        )
    return {
        "n": report.n,
        "size": report.size,
        "lower_bound": report.n - 3,
        "defines": verdict.is_definitive,
        "tree": serialize_newick(tree) if tree is not None else None,
        "minimal": report.minimal,
        "entries": entries,
        "mode": verdict.mode,
    }


def _report_text(report) -> str:
    """The text report, whole, so that a label Newick cannot write fails
    it before any of it is printed."""
    verdict = report.verdict
    lines = [
        f"n={report.n} size={report.size} lower_bound={report.n - 3} "
        f"mode={verdict.mode}"
    ]
    if verdict.status == INCOMPATIBLE:
        lines.append("defines: no (incompatible: nothing displays the set)")
    elif verdict.status == NOT_DEFINITIVE:
        if verdict.displayer_count is not None:
            lines.append(f"defines: no ({verdict.displayer_count} displayers)")
        else:
            lines.append("defines: no (more than one displayer)")
        lines.extend(f"  displayer: {serialize_newick(t)}" for t in verdict.examples)
    else:
        lines.append(f"defines: {serialize_newick(verdict.tree)}")
        lines.append(f"minimal: {'yes' if report.minimal else 'no'}")
        ambient = verdict.tree.leaves
        for q, w in report.entries:
            if w.kind == "alternative_tree":
                detail = "needed; dropping it admits " + serialize_newick(w.tree)
            elif w.kind == "undistinguished_edge":
                detail = f"needed; dropping it leaves edge {w.split.text(ambient)} loose"
            else:
                detail = "redundant"
            lines.append(f"  {q.text(ambient)}: {detail}")
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> int:
    qs = minimal_definitive_set(args.n)
    sys.stdout.write(serialize_quartet_set(qs))
    return 0


def _cmd_caterpillar(args) -> int:
    print(serialize_newick(caterpillar(args.n)))
    return 0


def _cmd_check(args) -> int:
    qs = parse_quartet_file(_read_text(args.quartets))
    report = minimality_report(qs, mode=args.mode, cap=args.cap)
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        sys.stdout.write(_report_text(report))
    return 0 if (report.verdict.is_definitive and report.minimal) else 1


def _cmd_display(args) -> int:
    tree = parse_newick(_read_text(args.tree))
    a, b, c, d = parse_quartet_text(args.quartet)
    q = make_quartet(tree.leaves, a, b, c, d)
    answer = displays(tree, q)
    print("true" if answer else "false")
    return 0 if answer else 1


def _cmd_enumerate(args) -> int:
    mode = "binary" if args.binary else "all"
    cap = args.cap
    if cap is None:
        cap = _CLI_BINARY_CAP if mode == "binary" else ALL_CAP
    if args.count_only:
        print(count_trees(args.n, mode, cap=cap))
        return 0
    for tree in enumerate_trees(args.n, mode, cap=cap):
        print(serialize_newick(tree))
    return 0


def _cmd_infer(args) -> int:
    qs = parse_quartet_file(_read_text(args.quartets))
    if args.closure:
        sys.stdout.write(serialize_quartet_set(inference_closure(qs)))
        return 0
    four = parse_quartet_text(args.query)
    ambient = LeafSet.from_labels(set(qs.leaves.labels) | set(four))
    moved = qs.translate(ambient)
    q = make_quartet(ambient, *four)
    if args.semantic:
        answer = semantic_infers(moved, q, cap=args.cap)
    else:
        answer = q in inference_closure(moved).quartets
    print("true" if answer else "false")
    return 0 if answer else 1


def _cmd_verify_theorem(args) -> int:
    report = verify_construction(args.max_n, args.oracle_max_n, cap=args.cap)
    if args.json:
        payload = {
            "max_n": report.max_n,
            "oracle_max_n": report.oracle_max_n,
            "all_ok": report.all_ok,
            "levels": [
                {"n": level.n, "ok": level.ok, "checks": dict(level.checks)}
                for level in report.levels
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for level in report.levels:
            failed = [name for name, ok in level.checks if not ok]
            if failed:
                print(f"n={level.n}: FAIL ({', '.join(failed)})")
            else:
                names = ", ".join(name for name, _ in level.checks)
                print(f"n={level.n}: pass ({names})")
        print("result:", "all levels pass" if report.all_ok else "FAILED")
    return 0 if report.all_ok else 1


def _cmd_search(args) -> int:
    findings = run_search(
        args.n, args.target_size, args.budget, args.seed, cap=args.cap
    )
    if args.json:
        payload = [
            {
                "n": f.n,
                "size": f.size,
                "verdict": f.verdict,
                "seed": f.seed,
                "trials_used": f.trials_used,
                "quartets": list(f.quartets.texts()),
            }
            for f in findings
        ]
        print(json.dumps(payload, indent=2))
    else:
        if not findings:
            print(
                f"no minimal definitive set of size >= {args.target_size} "
                f"found on {args.n} leaves in {args.budget} trials"
            )
        for f in findings:
            print(
                f"trial {f.trials_used}: minimal definitive set of size "
                f"{f.size} on {f.n} leaves"
            )
            for text in f.quartets.texts():
                print(f"  {text}")
    return 0 if findings else 1


def _add_cap(parser: argparse.ArgumentParser, bounds: str) -> None:
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="N",
        help=f"override the leaf-count ceiling of {bounds}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quartets",
        description="Construct, check, and explore definitive quartet sets.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "construct",
        help="print the size 2n-8 definitive set for the n-leaf caterpillar",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("caterpillar", help="print the n-leaf caterpillar as Newick")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_caterpillar)

    p = sub.add_parser(
        "check",
        help="decide definitiveness and minimality of a quartet file",
    )
    p.add_argument("--quartets", required=True, metavar="FILE")
    p.add_argument("--mode", choices=("fast", "oracle"), default="fast")
    p.add_argument("--json", action="store_true")
    _add_cap(
        p,
        "the scans past the 8-leaf index deciding the set and its removals; "
        "with --mode oracle it also bounds the oracle itself, which refuses "
        "a set on more leaves than the cap, however few",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("display", help="does a tree display one quartet")
    p.add_argument("--tree", required=True, metavar="NEWICK_FILE")
    p.add_argument("--quartet", required=True, metavar="'a,b|c,d'")
    p.set_defaults(func=_cmd_display)

    p = sub.add_parser(
        "enumerate",
        help="stream every tree on n leaves (all trees unless --binary)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--binary", action="store_true", help="binary trees only")
    p.add_argument("--count-only", action="store_true")
    _add_cap(p, f"the listing (default {_CLI_BINARY_CAP} binary, {ALL_CAP} all)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "infer",
        help="close a quartet file under the inference rule, or test one query",
    )
    p.add_argument("--quartets", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--closure", action="store_true")
    group.add_argument("--query", metavar="'a,b|c,d'")
    p.add_argument(
        "--semantic",
        action="store_true",
        help="answer the query against every tree instead of the rule closure",
    )
    _add_cap(p, "the scan of every tree that --semantic runs")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser(
        "verify-theorem",
        help="re-check the whole construction level by level",
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--oracle-max-n", type=int, default=7)
    p.add_argument("--json", action="store_true")
    _add_cap(p, "the oracle rows and any scan fast defines falls back on")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser(
        "search",
        help="random search for minimal definitive sets of at least a target size",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--budget", type=int, default=1000, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    _add_cap(
        p, "the scans past the 8-leaf index deciding each trial's set and its removals"
    )
    p.set_defaults(func=_cmd_search)

    return parser


def run(body, args) -> int:
    """Run one entry point's body under the exit contract and return its code."""
    try:
        code = body(args)
        sys.stdout.flush()  # a closed pipe or a full disk shows here, not at exit
        return code
    except BrokenPipeError:
        code = 1
    except (QuartetError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, CapError) and getattr(args, "cap", 0) is None:
            # a command's default cap refused: name the flag that lifts it
            message += "; pass --cap to override"
        print(f"error: {message}", file=sys.stderr)
        code = 2
    try:
        sys.stdout.flush()  # what was printed before an input error still goes out
    except OSError:
        # stdout takes nothing more: send what is still buffered nowhere, as
        # the Python docs advise for SIGPIPE, so that exit does not flush it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "semantic", False) and not getattr(args, "query", None):
        parser.error("--semantic requires --query")
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
