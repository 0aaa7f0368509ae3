"""The scripts under scripts/ run to completion on small inputs, and every
entry point, the command line tool included, ends under one exit contract."""

import errno
import os
import pathlib
import subprocess
import sys
import time

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
DEV_FULL = pathlib.Path("/dev/full")


def _python(*argv, stdout=subprocess.PIPE, env=None):
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )


def run(name, *args):
    return _python(str(SCRIPTS / name), *args)


def test_reproduce_results():
    out = run("reproduce_results.py", "--max-n", "8", "--binary-count-n", "8")
    assert out.returncode == 0, out.stderr
    assert "everything reproduces" in out.stdout


def test_explore_search():
    out = run("explore_search.py", "--n", "6", "--budget", "50", "--seeds", "1")
    assert out.returncode == 0, out.stderr


def test_explore_search_below_the_family():
    # the constructed family starts at five leaves, so n = 4 has no size to compare
    out = run("explore_search.py", "--n", "4", "--budget", "50", "--seeds", "1")
    assert out.returncode == 0, out.stderr
    assert "n=4:" in out.stdout
    assert "constructed" not in out.stdout


def _refused(out, message):
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr
    assert "Traceback" not in out.stderr


def test_reproduce_results_refuses_a_count_past_the_cap():
    # 13 leaves is 13.7 billion binary trees: refused before any work
    start = time.perf_counter()
    out = run("reproduce_results.py", "--binary-count-n", "13")
    _refused(out, "exceeds the enumeration cap 12")
    assert "override" not in out.stderr  # the script has no cap option
    assert out.stdout == ""
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize(
    "max_n, message", [("65", "64-leaf cap"), ("4", "starts at five leaves")], ids=["65", "4"]
)
def test_reproduce_results_refuses_a_construction_out_of_range(max_n, message):
    _refused(run("reproduce_results.py", "--max-n", max_n), message)


def test_explore_search_names_no_cap_option():
    # past 12 leaves a set the certificate does not settle needs the binary
    # scan, and the script has no option that lifts its cap
    out = run("explore_search.py", "--n", "13", "--budget", "5", "--seeds", "1")
    _refused(out, "enumeration cap 12")
    assert out.stderr.count("\n") == 1
    assert "override" not in out.stderr and "--cap" not in out.stderr


def test_explore_search_refuses_three_leaves():
    out = run("explore_search.py", "--n", "3", "--budget", "5", "--seeds", "1")
    _refused(out, "at least four leaves")


def test_explore_search_refuses_no_seeds():
    # no seed runs no search, so "nothing found" would say nothing
    out = run("explore_search.py", "--n", "6", "--budget", "5", "--seeds", "0")
    _refused(out, "--seeds must be at least 1, got 0")
    assert out.stdout == ""


def test_reproduce_results_refuses_a_count_that_checks_nothing():
    # the binary count starts at four leaves, so n = 3 would count no tree
    out = run("reproduce_results.py", "--binary-count-n", "3")
    _refused(out, "--binary-count-n must be at least 4, got 3")
    assert out.stdout == ""


@pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "quartets", "construct", "--n", "7"],
        [str(SCRIPTS / "reproduce_results.py"), "--max-n", "6", "--binary-count-n", "5"],
        [str(SCRIPTS / "explore_search.py"), "--n", "6", "--budget", "50", "--seeds", "1"],
    ],
    ids=["cli", "reproduce_results", "explore_search"],
)
def test_write_error_is_one_line(argv, buffered):
    # every write to /dev/full fails with ENOSPC, as on a full disk; a buffered
    # stdout meets it at the runner's flush and would meet it again at exit,
    # an unbuffered one (-u) meets it at the first print
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with DEV_FULL.open("w") as full:
        out = _python(*([] if buffered else ["-u"]), *argv, stdout=full, env=env)
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "name, args",
    [
        ("reproduce_results.py", ["--max-n", "8", "--binary-count-n", "8"]),
        ("explore_search.py", ["--n", "6", "7", "--budget", "200", "--seeds", "2"]),
    ],
    ids=["reproduce_results", "explore_search"],
)
def test_closed_pipe_is_quiet(name, args):
    # the reader takes one line and goes, as `head -1` does; -u writes each
    # line as it is printed, so the lines after the first meet a closed pipe
    # instead of all leaving in one write at exit
    proc = subprocess.Popen(
        [sys.executable, "-u", str(SCRIPTS / name), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"==" if name == "reproduce_results.py" else b"n=6:")
    assert err == b""
