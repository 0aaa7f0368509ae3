"""Plain-text quartet sets, one `a,b|c,d` per line.

`#` starts a comment, blank lines are skipped, repeated quartets are
collapsed with a logged warning. The leaf set of a parsed file is
exactly the set of labels that occur. Serialisation emits one line per
quartet in canonical index order, so files round-trip byte for byte.

One pattern, _LINE, accepts every well-formed line and yields its four
labels. A line it rejects is read again piece by piece, only to say
what is wrong with it: the bar, then each side's comma, then each label.
"""

from __future__ import annotations

import logging
import re

from .errors import DuplicateLeafError, ParseError, QuartetError
from .model import LeafSet, QuartetSet, normalized_quartet

log = logging.getLogger("quartets.quartetfile")

_FORBIDDEN = set(",|#")

# Blank, a comment, or a quartet with an optional comment after it. `\s`
# is what str.isspace and str.strip call whitespace, so a label is what
# strip() leaves of a piece between separators, when it holds no space.
_LABEL = r"([^\s,|#]+)"
_LINE = re.compile(
    rf"\s*(?:{_LABEL}\s*,\s*{_LABEL}\s*\|\s*{_LABEL}\s*,\s*{_LABEL}\s*)?(?:#.*)?",
    re.DOTALL,
)


def parse_quartet_text(text: str) -> tuple[str, str, str, str]:
    """The four labels of one `a,b|c,d`, unvalidated against any leaf set."""
    labels = _split_line(text, None)
    if labels is None:
        raise ParseError("empty quartet text")
    return labels


def _split_line(raw: str, line: int | None) -> tuple[str, str, str, str] | None:
    """The four labels of one line, or None for a blank or comment line."""
    match = _LINE.fullmatch(raw)
    if match is None:
        raise _fault(raw, line)
    return None if match[1] is None else match.groups()


def _fault(raw: str, line: int | None) -> ParseError:
    """The error in a line that _LINE rejects."""
    halves = raw.split("#", 1)[0].strip().split("|")
    if len(halves) != 2:
        return ParseError("expected exactly one '|'", line=line)
    for half in halves:
        names = [part.strip() for part in half.split(",")]
        if len(names) != 2:
            return ParseError(
                "each side of '|' needs exactly two comma-separated labels",
                line=line,
            )
        for name in names:
            if not name or any(ch.isspace() for ch in name):
                return ParseError(f"bad label {name!r}", line=line)
    raise AssertionError(f"_LINE rejects the well-formed line {raw!r}")


def parse_quartet_file(text: str) -> QuartetSet:
    rows: list[tuple[int, tuple[str, str, str, str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parsed = _split_line(raw, lineno)
        if parsed is not None:
            rows.append((lineno, parsed))
    if not rows:
        raise ParseError("no quartets in input")
    leaves = LeafSet.from_labels({label for _, four in rows for label in four})
    index = leaves._index  # built from these very labels, so it holds each one
    first_seen: dict = {}
    for lineno, (a, b, c, d) in rows:
        try:
            q = normalized_quartet(index[a], index[b], index[c], index[d])
        except DuplicateLeafError as exc:
            raise DuplicateLeafError(f"line {lineno}: {exc}") from None
        first = first_seen.setdefault(q, lineno)
        if first != lineno:
            log.warning(
                "line %d repeats quartet %s from line %d", lineno, q.text(leaves), first
            )
    return QuartetSet(leaves, frozenset(first_seen))


def serialize_quartet_set(qs: QuartetSet) -> str:
    for label in qs.leaves.labels:
        if any(ch.isspace() or ch in _FORBIDDEN for ch in label):
            raise QuartetError(f"label {label!r} cannot be written in this format")
    return "".join(q.text(qs.leaves) + "\n" for q in qs.sorted_quartets())
