"""End-to-end runs of the installed command line tool."""

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import DATA
from quartets import displays, make_quartet, parse_newick, parse_quartet_file


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "quartets", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


Q6 = str(DATA / "q6.txt")
Q7 = str(DATA / "q7.txt")


class TestConstruct:
    def test_six_matches_fixture_bytes(self):
        out = run("construct", "--n", "6")
        assert out.returncode == 0
        assert out.stdout == DATA.joinpath("q6.txt").read_text()

    def test_seven_matches_fixture_bytes(self):
        out = run("construct", "--n", "7")
        assert out.returncode == 0
        assert out.stdout == DATA.joinpath("q7.txt").read_text()

    def test_too_small_is_a_usage_level_failure(self):
        out = run("construct", "--n", "4")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error:")
        assert out.stderr.count("\n") == 1


class TestCaterpillar:
    def test_golden(self):
        out = run("caterpillar", "--n", "6")
        assert out.returncode == 0
        assert out.stdout == "(1,2,(3,(4,(5,6))));\n"


class TestCheck:
    def test_text_report(self):
        out = run("check", "--quartets", Q6)
        assert out.returncode == 0
        assert "defines: (1,2,(3,(4,(5,6))));" in out.stdout
        assert "minimal: yes" in out.stdout

    def test_json_schema_and_witnesses(self):
        out = run("check", "--quartets", Q6, "--json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload) == {
            "n",
            "size",
            "lower_bound",
            "defines",
            "tree",
            "minimal",
            "entries",
            "mode",
        }
        assert payload["n"] == 6
        assert payload["size"] == 4
        assert payload["lower_bound"] == 3
        assert payload["defines"] is True
        assert payload["tree"] == "(1,2,(3,(4,(5,6))));"
        assert payload["minimal"] is True
        assert payload["mode"] == "fast"
        kinds = {e["quartet"]: e["witness_kind"] for e in payload["entries"]}
        assert kinds == {
            "1,2|3,5": "undistinguished_edge",
            "1,3|4,6": "undistinguished_edge",
            "2,4|5,6": "undistinguished_edge",
            "1,2|5,6": "alternative_tree",
        }
        # the alternative tree really does display the other three
        qs = parse_quartet_file(DATA.joinpath("q6.txt").read_text())
        for entry in payload["entries"]:
            if entry["witness_kind"] != "alternative_tree":
                continue
            alt = parse_newick(entry["witness"])
            dropped = make_quartet(qs.leaves, *entry["quartet"].replace("|", ",").split(","))
            for q in qs.without_quartet(dropped):
                assert displays(alt, q)

    def test_oracle_mode(self):
        out = run("check", "--quartets", Q6, "--mode", "oracle", "--json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["mode"] == "oracle"

    def test_non_definitive_exits_one(self, tmp_path):
        f = tmp_path / "loose.txt"
        f.write_text("1,2|3,4\n1,2|3,5\n")
        out = run("check", "--quartets", str(f))
        assert out.returncode == 1
        assert "defines: no" in out.stdout

    def test_minimality_witnesses_past_the_scan_cap(self, tmp_path):
        # the certificate defines the 13-leaf construction at any cap; the
        # witnesses for the quartets no cheap check settles need the scan
        f = tmp_path / "q13.txt"
        f.write_text(run("construct", "--n", "13").stdout)
        out = run("check", "--quartets", str(f))
        assert out.returncode == 2
        assert "minimality witnesses" in out.stderr
        assert "cap 12" in out.stderr
        out = run("check", "--quartets", str(f), "--cap", "13", "--json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["defines"] is True and payload["minimal"] is True

    def test_a_cap_below_the_leaves_gives_the_uncapped_answer(self):
        # on up to eight leaves the index answers whatever the cap
        out = run("check", "--quartets", Q7, "--cap", "6")
        assert out.returncode == 0
        assert out.stderr == ""
        assert out.stdout == run("check", "--quartets", Q7).stdout

    def test_a_cap_below_three_is_refused(self):
        out = run("check", "--quartets", Q7, "--cap", "-3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: cap must be at least 3 leaves, got -3\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_a_label_newick_cannot_write_prints_no_report(self, tmp_path, json_flag):
        # the file reads, and the set defines a tree, but "a(" cannot be
        # written as Newick: no half of the report may go out
        f = tmp_path / "paren.txt"
        f.write_text(DATA.joinpath("q6.txt").read_text().replace("1,", "a(,"))
        out = run("check", "--quartets", str(f), *json_flag)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: label 'a(' cannot be written in this format\n"

    def test_missing_file(self):
        out = run("check", "--quartets", "/nonexistent/q.txt")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")


class TestDisplay:
    def test_true(self, tmp_path):
        f = tmp_path / "t.nwk"
        f.write_text("(1,2,(3,(4,(5,6))));\n")
        out = run("display", "--tree", str(f), "--quartet", "1,2|3,5")
        assert out.returncode == 0
        assert out.stdout == "true\n"

    def test_false(self, tmp_path):
        f = tmp_path / "t.nwk"
        f.write_text("(1,2,(3,(4,(5,6))));\n")
        out = run("display", "--tree", str(f), "--quartet", "1,3|2,4")
        assert out.returncode == 1
        assert out.stdout == "false\n"


class TestEnumerate:
    def test_count_all_mode_default(self):
        out = run("enumerate", "--n", "5", "--count-only")
        assert out.returncode == 0
        assert out.stdout == "26\n"

    def test_count_binary(self):
        out = run("enumerate", "--n", "5", "--binary", "--count-only")
        assert out.returncode == 0
        assert out.stdout == "15\n"

    def test_listing(self):
        out = run("enumerate", "--n", "4")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert len(lines) == 4
        assert "(1,2,3,4);" in lines
        assert all(line.endswith(";") for line in lines)

    def test_eight_leaf_listing_is_pinned(self):
        out = run("enumerate", "--n", "8")
        assert out.returncode == 0
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()
        assert digest == "544569fde4d8ed32d3e181ba5ecfef4506aae39123cbba0b63f3840eb10ef719"

    def test_default_cap_refuses_big_n(self):
        out = run("enumerate", "--n", "12", "--count-only")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")

    def test_closed_pipe_is_quiet(self):
        # the reader takes one line and goes, as `head -1` does; the rest
        # of the listing is far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "quartets", "enumerate", "--n", "9", "--binary"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first == b"(1,((((((2,9),8),7),6),5),4),3);\n"
        assert err == b""


class TestInfer:
    def test_closure_golden_bytes(self):
        out = run("infer", "--quartets", Q6, "--closure")
        assert out.returncode == 0
        assert out.stdout == "1,2|3,5\n1,2|5,6\n1,3|4,6\n1,4|5,6\n2,4|5,6\n"

    def test_query_in_closure(self):
        out = run("infer", "--quartets", Q6, "--query", "1,4|5,6")
        assert out.returncode == 0
        assert out.stdout == "true\n"

    def test_query_outside_closure(self):
        out = run("infer", "--quartets", Q6, "--query", "1,2|3,6")
        assert out.returncode == 1
        assert out.stdout == "false\n"

    def test_semantic_query_sees_more(self):
        out = run("infer", "--quartets", Q6, "--query", "1,2|3,6", "--semantic")
        assert out.returncode == 0
        assert out.stdout == "true\n"

    def test_semantic_needs_a_query(self):
        out = run("infer", "--quartets", Q6, "--closure", "--semantic")
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1

    def test_closure_and_query_conflict(self):
        out = run("infer", "--quartets", Q6, "--closure", "--query", "1,4|5,6")
        assert out.returncode == 2


class TestVerifyTheorem:
    def test_text_output(self):
        out = run("verify-theorem", "--max-n", "8", "--oracle-max-n", "6")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[-1] == "result: all levels pass"
        for n in (5, 6, 7, 8):
            assert any(line.startswith(f"n={n}: pass") for line in lines)

    def test_json_output(self):
        out = run("verify-theorem", "--max-n", "7", "--oracle-max-n", "6", "--json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["all_ok"] is True
        assert [level["n"] for level in payload["levels"]] == [5, 6, 7]
        assert all(level["ok"] for level in payload["levels"])
        assert payload["levels"][-1]["checks"]["witness_chain"] is True

    def test_past_the_scan_cap(self):
        out = run("verify-theorem", "--max-n", "13")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[-1] == "result: all levels pass"
        for n in range(5, 14):
            assert any(line.startswith(f"n={n}: pass") for line in lines)

    def test_too_small(self):
        out = run("verify-theorem", "--max-n", "4")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")

    def test_negative_oracle_bound(self):
        out = run("verify-theorem", "--max-n", "6", "--oracle-max-n", "-3", "--json")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: oracle_max_n")
        assert out.stderr.count("\n") == 1


class TestSearch:
    def test_finds_and_is_reproducible(self):
        args = ("search", "--n", "5", "--target-size", "2", "--budget", "300", "--seed", "1")
        first = run(*args)
        second = run(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "minimal definitive set of size 2 on 5 leaves" in first.stdout

    def test_json_payload(self):
        out = run(
            "search",
            "--n",
            "5",
            "--target-size",
            "2",
            "--budget",
            "300",
            "--seed",
            "1",
            "--json",
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload
        row = payload[0]
        assert set(row) == {"n", "size", "verdict", "seed", "trials_used", "quartets"}
        assert row["n"] == 5 and row["size"] >= 2

    def test_unreachable_target_exits_one(self):
        out = run("search", "--n", "5", "--target-size", "12", "--budget", "20", "--seed", "1")
        assert out.returncode == 1
        assert "no minimal definitive set" in out.stdout


class TestUsage:
    def test_unknown_command(self):
        out = run("frobnicate")
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1

    def test_missing_required_flag(self):
        out = run("construct")
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1

    def test_non_integer_n(self):
        out = run("enumerate", "--n", "six")
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "command, flag, extra",
        [
            ("check", "--quartets", ()),
            ("infer", "--quartets", ("--closure",)),
            ("display", "--tree", ("--quartet", "1,2|3,4")),
        ],
    )
    def test_input_that_is_not_utf8(self, command, flag, extra, tmp_path):
        f = tmp_path / "latin1.txt"
        f.write_bytes("1,2|3,4\n# caf\u00e9\n".encode("latin-1"))
        out = run(command, flag, str(f), *extra)
        assert out.returncode == 2
        assert out.stderr == f"error: {f} is not UTF-8 text: invalid continuation byte at byte 13\n"

    def test_no_cap_reaches_past_the_model_cap(self):
        out = run("enumerate", "--n", "70", "--count-only", "--cap", "70")
        assert out.returncode == 2
        assert out.stderr == "error: 70 leaves exceeds the 64-leaf cap\n"

    def test_version(self):
        out = run("--version")
        assert out.returncode == 0
        assert out.stdout.startswith("quartets ")

    @pytest.mark.parametrize(
        "command, bounds", [("enumerate", "the listing"), ("infer", "--semantic runs")]
    )
    def test_cap_help_says_what_it_bounds(self, command, bounds):
        # neither command reaches the closure certificate, so its cap help
        # does not mention it
        out = run(command, "--help")
        assert out.returncode == 0
        text = " ".join(out.stdout.split())
        assert bounds in text
        assert "certificate" not in text
