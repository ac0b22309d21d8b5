"""Shared fixtures: the named small diagrams, cached exhaustive sweeps and
seeded random diagrams for tests beyond exhaustive reach."""

import random

import pytest

from chordlab.diagram import ChordDiagram
from chordlab.enumeration import all_diagrams

# named fixtures used throughout the suite
Ca = ChordDiagram.from_text("(1,2)")
Cb = ChordDiagram.from_text("(1,3)(2,4)")
Cc = ChordDiagram.from_text("(1,2)(3,4)")
Cd = ChordDiagram.from_text("(1,4)(2,6)(3,5)")
Ce = ChordDiagram.from_text("(1,5)(2,4)(3,6)")
Cf = ChordDiagram.from_text("(1,3)(2,5)(4,6)")
K3 = ChordDiagram.from_text("(1,4)(2,5)(3,6)")
Cg = ChordDiagram.from_text("(1,3)(2,7)(4,6)(5,8)")
N2 = ChordDiagram.from_text("(1,4)(2,3)")

_sweep_cache: dict[int, tuple[ChordDiagram, ...]] = {}


def sweep(n: int) -> tuple[ChordDiagram, ...]:
    """All diagrams of size n, enumerated once per test session."""
    if n not in _sweep_cache:
        _sweep_cache[n] = tuple(all_diagrams(n))
    return _sweep_cache[n]


@pytest.fixture(scope="session")
def diagrams_by_size():
    return sweep


def left_neighbors(d: ChordDiagram, i: int) -> tuple[int, ...]:
    """Chords crossing chord i from the left, read off `relation()`."""
    return tuple(j for j in range(1, i) if d.relation(i, j) == "cross")


def path_diagram(n: int) -> ChordDiagram:
    """Chord i crosses only chords i - 1 and i + 1 (n >= 2)."""
    middle = ((2 * i - 2, 2 * i + 1) for i in range(2, n))
    return ChordDiagram([(1, 3), *middle, (2 * n - 2, 2 * n)])


def uniform_matching(n: int, rng: random.Random) -> ChordDiagram:
    """A uniformly random diagram of size n."""
    pts = list(range(1, 2 * n + 1))
    rng.shuffle(pts)
    return ChordDiagram(zip(pts[::2], pts[1::2]))


def connected_matching(n: int, rng: random.Random) -> ChordDiagram:
    """A uniformly random connected diagram of size n >= 1, by rejection."""
    while True:
        d = uniform_matching(n, rng)
        if d.is_connected():
            return d
