"""The scripts under scripts/ run to completion on small inputs."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


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
