"""The line-per-quartet text format used by the command line tools."""

import logging
import random
import re

import pytest

import oracles
from conftest import DATA, quartet_set_from_indices
from quartets import (
    DuplicateLeafError,
    LeafSet,
    ParseError,
    QuartetError,
    QuartetSet,
    integer_leaves,
    minimal_definitive_set,
    parse_quartet_file,
    parse_quartet_text,
    serialize_quartet_set,
)


class TestParseFile:
    def test_fixture_is_the_size_four_set(self, q6):
        assert parse_quartet_file(DATA.joinpath("q6.txt").read_text()) == q6

    def test_side_and_pair_order_normalize(self):
        a = parse_quartet_file("3,5|1,2\n")
        b = parse_quartet_file("2,1|5,3\n")
        assert a == b
        assert a.texts() == ["1,2|3,5"]

    def test_comments_and_blanks(self, q6):
        text = (
            "# the size-four set on six leaves\n"
            "\n"
            "1,2|3,5   # spine pin\n"
            "1,3|4,6\n"
            "   \n"
            "1,2|5,6\n"
            "2,4|5,6  # tail\n"
        )
        assert parse_quartet_file(text) == q6

    def test_duplicates_warn_and_collapse(self, caplog):
        with caplog.at_level(logging.WARNING, logger="quartets.quartetfile"):
            qs = parse_quartet_file("1,2|3,4\n3,4|2,1\n")
        assert len(qs) == 1
        assert any("repeats quartet 1,2|3,4" in r.getMessage() for r in caplog.records)

    def test_labels_sorted_naturally(self):
        qs = parse_quartet_file("2,10|9,1\n")
        assert qs.leaves.labels == ("1", "2", "9", "10")

    def test_word_labels(self):
        qs = parse_quartet_file("cat,dog|emu,fox\n")
        assert qs.texts() == ["cat,dog|emu,fox"]

    def test_no_quartets(self):
        with pytest.raises(ParseError, match="no quartets"):
            parse_quartet_file("# nothing here\n\n")

    def test_error_reports_the_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_quartet_file("1,2|3,4\n1,2|3,5\n1,2,3|4,5\n")

    def test_two_bars(self):
        with pytest.raises(ParseError, match="one '\\|'"):
            parse_quartet_file("1,2|3|4\n")

    def test_repeated_leaf_inside_quartet(self):
        with pytest.raises(DuplicateLeafError, match="line 1"):
            parse_quartet_file("1,1|3,4\n")

    def test_bad_label(self):
        with pytest.raises(ParseError):
            parse_quartet_file("1,|3,4\n")


class TestParseText:
    def test_single(self):
        assert parse_quartet_text("1,2|3,4") == ("1", "2", "3", "4")

    def test_strips_comment(self):
        assert parse_quartet_text("a,b|c,d # note") == ("a", "b", "c", "d")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_quartet_text("   ")


class TestAgainstTheReference:
    """The pattern reader against the reader it replaced, kept in oracles:
    the same QuartetSet, or the same error class and message, and the
    same repeat warnings, on seeded edits of the texts above."""

    TEXTS = [
        DATA.joinpath("q6.txt").read_text(),
        "3,5|1,2\n",
        "2,1|5,3\n",
        "# the size-four set on six leaves\n\n1,2|3,5   # spine pin\n1,3|4,6\n"
        "   \n1,2|5,6\n2,4|5,6  # tail\n",
        "1,2|3,4\n3,4|2,1\n",
        "2,10|9,1\n",
        "cat,dog|emu,fox\n",
        "# nothing here\n\n",
        "1,2|3,4\n1,2|3,5\n1,2,3|4,5\n",
        "1,2|3|4\n",
        "1,1|3,4\n",
        "1,|3,4\n",
    ]
    # separators, whitespace that str.strip and str.splitlines know beyond
    # ASCII (\x1c and \x85 end a line too), and label characters
    ALPHABET = [",", "|", "#", " ", "\t", "\r", "\n", "\x0b", "\x1c", "\x85", "\u2003",
                "1", "2", "7", "a"]

    @classmethod
    def _texts(cls, count, seed):
        rng = random.Random(seed)
        yield from cls.TEXTS
        for _ in range(count):
            text = rng.choice(cls.TEXTS)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                edit = rng.randrange(3)  # delete, insert or substitute
                put = rng.choice(cls.ALPHABET) if edit else ""
                text = text[:at] + put + text[at + (edit != 1):]
            yield text

    @staticmethod
    def _outcome(parse, text, caplog, logger):
        caplog.clear()
        try:
            result = parse(text)
        except Exception as exc:  # compared, class and message, below
            result = (type(exc), str(exc))
        return result, [r.getMessage() for r in caplog.records if r.name == logger]

    def test_same_answers_as_the_reference_reader(self, caplog):
        sets = warned = 0
        errors = set()
        with caplog.at_level(logging.WARNING):
            for text in self._texts(20000, seed=30):
                got = self._outcome(parse_quartet_file, text, caplog, "quartets.quartetfile")
                want = self._outcome(
                    oracles.reference_parse_quartet_file, text, caplog, "oracles.quartetfile"
                )
                assert got == want, repr(text)
                result, warnings = got
                if isinstance(result, QuartetSet):
                    sets += 1
                    warned += bool(warnings)
                else:
                    kind = re.sub(r" '.*'| on line \d+|^line \d+: ", "", result[1])
                    errors.add((result[0], kind))
                for line in [text, *text.splitlines()]:
                    got = self._outcome(parse_quartet_text, line, caplog, "")
                    want = self._outcome(oracles.reference_parse_quartet_text, line, caplog, "")
                    assert got == want, repr(line)
        # every outcome occurs: sets with and without a repeat, each error
        assert 0 < warned < sets
        assert errors == {
            (ParseError, "expected exactly one"),
            (ParseError, "each side of needs exactly two comma-separated labels"),
            (ParseError, "bad label"),
            (ParseError, "no quartets in input"),
            (DuplicateLeafError, "quartet leaves must be distinct"),
        }


class TestSerialize:
    def test_golden_bytes(self, q6):
        assert serialize_quartet_set(q6) == "1,2|3,5\n1,2|5,6\n1,3|4,6\n2,4|5,6\n"

    def test_bad_label_rejected(self):
        ls = LeafSet.from_labels(["a b", "c", "d", "e"])
        qs = QuartetSet.from_labels(ls, [("a b", "c", "d", "e")])
        with pytest.raises(QuartetError):
            serialize_quartet_set(qs)

    def test_empty_set_serializes_to_nothing(self):
        qs = QuartetSet(integer_leaves(4), frozenset())
        assert serialize_quartet_set(qs) == ""


class TestRoundTrip:
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_random_sets(self, n):
        ls = integer_leaves(n)
        for rows in oracles.random_index_sets(n, 60, seed=n):
            qs = quartet_set_from_indices(ls, rows)
            back = parse_quartet_file(serialize_quartet_set(qs))
            assert back == qs.restrict_to_support()

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_family_sets(self, n):
        qs = minimal_definitive_set(n)
        assert parse_quartet_file(serialize_quartet_set(qs)) == qs
