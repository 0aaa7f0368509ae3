"""Plain-text quartet sets, one `a,b|c,d` per line.

`#` starts a comment, blank lines are skipped, repeated quartets are
collapsed with a logged warning. The leaf set of a parsed file is
exactly the set of labels that occur. Serialisation emits one line per
quartet in canonical index order, so files round-trip byte for byte.
"""

from __future__ import annotations

import logging

from .errors import DuplicateLeafError, ParseError, QuartetError
from .model import LeafSet, QuartetSet, make_quartet

log = logging.getLogger("quartets.quartetfile")

_FORBIDDEN = set(",|#")


def parse_quartet_text(text: str) -> tuple[str, str, str, str]:
    """The four labels of one `a,b|c,d`, unvalidated against any leaf set."""
    labels = _split_line(text, None)
    if labels is None:
        raise ParseError("empty quartet text")
    return labels


def _split_line(raw: str, line: int | None) -> tuple[str, str, str, str] | None:
    body = raw.split("#", 1)[0].strip()
    if not body:
        return None
    halves = body.split("|")
    if len(halves) != 2:
        raise ParseError("expected exactly one '|'", line=line)
    out = []
    for half in halves:
        names = [part.strip() for part in half.split(",")]
        if len(names) != 2:
            raise ParseError(
                "each side of '|' needs exactly two comma-separated labels",
                line=line,
            )
        for name in names:
            if not name or any(ch.isspace() or ch in _FORBIDDEN for ch in name):
                raise ParseError(f"bad label {name!r}", line=line)
            out.append(name)
    return tuple(out)


def parse_quartet_file(text: str) -> QuartetSet:
    rows: list[tuple[int, tuple[str, str, str, str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parsed = _split_line(raw, lineno)
        if parsed is not None:
            rows.append((lineno, parsed))
    if not rows:
        raise ParseError("no quartets in input")
    leaves = LeafSet.from_labels({label for _, four in rows for label in four})
    first_seen: dict = {}
    for lineno, four in rows:
        try:
            q = make_quartet(leaves, *four)
        except DuplicateLeafError as exc:
            raise DuplicateLeafError(f"line {lineno}: {exc}") from None
        if q in first_seen:
            log.warning(
                "line %d repeats quartet %s from line %d",
                lineno,
                q.text(leaves),
                first_seen[q],
            )
        else:
            first_seen[q] = lineno
    return QuartetSet(leaves, frozenset(first_seen))


def serialize_quartet_set(qs: QuartetSet) -> str:
    for label in qs.leaves.labels:
        if any(ch.isspace() or ch in _FORBIDDEN for ch in label):
            raise QuartetError(f"label {label!r} cannot be written in this format")
    return "".join(q.text(qs.leaves) + "\n" for q in qs.sorted_quartets())
