"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path
from random import Random

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.digraph.generators import (  # noqa: E402
    cycle_digraph,
    random_strongly_connected,
    triangle,
    two_leader_triangle,
)


@pytest.fixture
def triangle_digraph():
    """The §1 three-way swap digraph (Alice -> Bob -> Carol -> Alice)."""
    return triangle()


@pytest.fixture
def k3_digraph():
    """The two-leader complete digraph of Figures 6-8."""
    return two_leader_triangle()


@pytest.fixture
def cycle5():
    return cycle_digraph(5)


@pytest.fixture
def random_graphs():
    """A deterministic batch of random strongly connected digraphs."""
    return [
        random_strongly_connected(n, p, Random(seed))
        for n, p, seed in [
            (3, 0.2, 1),
            (4, 0.3, 2),
            (5, 0.25, 3),
            (6, 0.2, 4),
            (7, 0.15, 5),
        ]
    ]


def assert_no_conforming_underwater(result) -> None:
    """Theorem 4.9's assertion, shared across fault/adversary tests."""
    assert result.conforming_acceptable(), (
        "conforming party ended Underwater:\n" + result.summary()
    )
    assert result.assets_conserved(), "an asset vanished or was duplicated"
