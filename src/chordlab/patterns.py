"""Named pattern diagrams and forbidden-subdiagram classes.

Complete and nesting patterns, the two realizations of induced cycles,
permutation diagrams, containment tests, and the class predicates built
from them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .diagram import ChordDiagram


def complete_diagram(k: int) -> ChordDiagram:
    """K_k: k mutually crossing chords (i, k+i)."""
    return ChordDiagram((i, k + i) for i in range(1, k + 1))


def nesting_diagram(k: int) -> ChordDiagram:
    """N_k: k mutually nesting chords (i, 2k+1-i)."""
    return ChordDiagram((i, 2 * k + 1 - i) for i in range(1, k + 1))


def top_cycle(m: int) -> ChordDiagram:
    """The induced-m-cycle realization with the long chord nesting over the
    path's middle; equals K3 at m = 3."""
    if m < 3:
        raise ValueError("cycles need m >= 3")
    if m == 3:
        return complete_diagram(3)
    return ChordDiagram([(1, 4), (2, 2 * m - 1)] + [(2 * i - 3, 2 * i) for i in range(3, m + 1)])


def bottom_cycle(m: int) -> ChordDiagram:
    """The other induced-m-cycle realization; equals K3 at m = 3.

    Coordinates fixed by exhaustive search: for every m >= 4 exactly two
    size-m diagrams have an induced m-cycle crossing graph.
    """
    if m < 3:
        raise ValueError("cycles need m >= 3")
    if m == 3:
        return complete_diagram(3)
    return ChordDiagram([(1, 2 * m - 2), (2, 5), (3, 2 * m)]
                        + [(2 * i - 2, 2 * i + 1) for i in range(3, m)])


def permutation_diagram(sigma: Iterable[int] | int | str) -> ChordDiagram:
    """Diagram with chords (i, k + sigma(i)); all sources precede all sinks."""
    if isinstance(sigma, int):
        sigma = str(sigma)
    if isinstance(sigma, str):
        sigma = [int(ch) for ch in sigma]
    perm = list(sigma)
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..k")
    return ChordDiagram((i + 1, k + perm[i]) for i in range(k))


def is_permutation_diagram(d: ChordDiagram) -> bool:
    """All n sources precede all n sinks."""
    n = d.n
    return all(a <= n < b for a, b in d.pairs)


def is_shifted_permutation_diagram(d: ChordDiagram) -> bool:
    """1-terminal, and a permutation diagram once the terminal chord is removed."""
    from .structure import is_one_terminal, terminal_labels

    if d.n == 0 or not is_one_terminal(d):
        return False
    return is_permutation_diagram(d.remove_chord(terminal_labels(d)[0]))


def contains_pattern(d: ChordDiagram, pattern: ChordDiagram) -> bool:
    """Does some chord subset of d induce exactly the pattern's configuration?"""
    k = pattern.n
    if k == 0:
        return True
    if k > d.n:
        return False
    for subset in combinations(range(1, d.n + 1), k):
        if d.subdiagram(subset) == pattern:
            return True
    return False


def _induced_cycles(d: ChordDiagram) -> list[tuple[int, tuple[int, ...]]]:
    """All chord subsets whose induced crossing graph is a cycle, as
    (length, labels). Includes m = 3 triangles."""
    n = d.n
    adj = d.adjacency()
    out = []
    for m in range(3, n + 1):
        for subset in combinations(range(n), m):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if any((adj[v] & mask).bit_count() != 2 for v in subset):
                continue
            # degrees all 2; connected means a single cycle
            seen = 1 << subset[0]
            frontier = seen
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    v = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= adj[v] & mask
                frontier = nxt & ~seen
                seen |= nxt
            if seen == mask:
                out.append((m, tuple(v + 1 for v in subset)))
    return out


def cycle_profile(d: ChordDiagram) -> dict[tuple[int, str], int]:
    """Counts of induced-cycle realizations by (length, "top"/"bottom").

    Every induced cycle must compress to one of the two named realizations;
    the m = 3 triangle counts as both kinds at once (K3 is self-paired),
    recorded under "top" only with bottom_cycle(3) equal to it.
    """
    profile: dict[tuple[int, str], int] = {}
    for m, labels in _induced_cycles(d):
        sub = d.subdiagram(labels)
        if sub == top_cycle(m):
            key = (m, "top")
        elif sub == bottom_cycle(m):
            key = (m, "bottom")
        else:
            raise AssertionError(f"induced {m}-cycle with unknown realization: {sub.to_text()}")
        profile[key] = profile.get(key, 0) + 1
    return profile


CYCLE_CLASSES = (
    "top-cycle-free",
    "bottom-cycle-free",
    "triangle-free",
    "tree",
    "chordal",
    "bipartite",
)


def cycle_classes(profile: dict[tuple[int, str], int]) -> dict[str, bool]:
    """Membership in each of CYCLE_CLASSES, read off a cycle profile.

    The triangle is both a top and a bottom cycle.
    """
    lengths = {m for m, _ in profile}
    kinds = {kind for _, kind in profile}
    return {
        "top-cycle-free": 3 not in lengths and "top" not in kinds,
        "bottom-cycle-free": 3 not in lengths and "bottom" not in kinds,
        "triangle-free": (3, "top") not in profile,
        "tree": not profile,
        "chordal": lengths <= {3},
        "bipartite": all(m % 2 == 0 for m in lengths),
    }


def contains_any_top_cycle(d: ChordDiagram) -> bool:
    return not cycle_classes(cycle_profile(d))["top-cycle-free"]


def contains_any_bottom_cycle(d: ChordDiagram) -> bool:
    return not cycle_classes(cycle_profile(d))["bottom-cycle-free"]


CLASS_NAMES = (
    "all",
    "connected",
    "indecomposable",
    "one-terminal",
    "top-cycle-free",
    "bottom-cycle-free",
    "triangle-free",
    "tree",
    "chordal",
    "bipartite",
    "noncrossing",
    "nonnesting",
)


def in_class(d: ChordDiagram, name: str) -> bool:
    """Class membership by stable name.

    Fixed names as in CLASS_NAMES, plus the parametric forms "K3-free",
    "N2-free", and "perm-231-free".
    """
    if name == "all":
        return True
    if name == "connected":
        return d.is_connected()
    if name == "indecomposable":
        return d.is_indecomposable()
    if name == "one-terminal":
        from .structure import is_one_terminal

        return is_one_terminal(d)
    if name == "noncrossing":
        return d.is_noncrossing()
    if name == "nonnesting":
        return d.is_nonnesting()
    if name in CYCLE_CLASSES:
        return cycle_classes(cycle_profile(d))[name]
    if name.endswith("-free"):
        base = name[: -len("-free")]
        if base.startswith("K") and base[1:].isdigit():
            return not contains_pattern(d, complete_diagram(int(base[1:])))
        if base.startswith("N") and base[1:].isdigit():
            return not contains_pattern(d, nesting_diagram(int(base[1:])))
        if base.startswith("perm-") and base[len("perm-"):].isdigit():
            return not contains_pattern(d, permutation_diagram(base[len("perm-"):]))
    raise ValueError(f"unknown class name: {name}")

