import pathlib

import pytest

from quartets import (
    LeafSet,
    QuartetSet,
    caterpillar,
    integer_leaves,
    make_quartet,
    minimal_definitive_set,
    normalized_quartet,
)
from quartets import decide

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def leaves6() -> LeafSet:
    return integer_leaves(6)


@pytest.fixture(scope="session")
def t6():
    return caterpillar(6)


@pytest.fixture(scope="session")
def q6() -> QuartetSet:
    return minimal_definitive_set(6)


def refuse_scan(*args):
    raise AssertionError("the binary scan ran")


@pytest.fixture
def no_scan(monkeypatch):
    """Make the binary walk raise. Past eight leaves only the closure
    certificate then answers; on up to eight the index answers first, so
    a test of the certificate there takes no_index too."""
    monkeypatch.setattr(decide, "_binary_walk", refuse_scan)


@pytest.fixture
def no_index(monkeypatch):
    """Turn both indices off, so that sets on up to eight leaves go
    through the routes larger ones take: fast mode through the closure
    certificate and the walk, the oracle through the filtered stream."""
    monkeypatch.setattr(decide, "_INDEX_LEAVES", 3)


def quartet_set_from_indices(leaves: LeafSet, index_rows) -> QuartetSet:
    qs = frozenset(normalized_quartet(*row) for row in index_rows)
    return QuartetSet(leaves, qs)


def qset(leaves: LeafSet, *numbered) -> QuartetSet:
    """QuartetSet from (a, b, c, d) leaf-number tuples like (1, 2, 3, 5)."""
    return QuartetSet(
        leaves, frozenset(make_quartet(leaves, *row) for row in numbered)
    )
