"""Named pattern diagrams and forbidden-subdiagram classes.

Complete and nesting patterns, the two realizations of induced cycles,
permutation diagrams, containment tests, and the class predicates built
from them.

Two algorithms do the work, both over the crossing masks of the diagram:

- Induced cycles of the crossing graph are found by a depth-first search
  over chordless paths from each cycle's lowest chord (Uno and Satoh,
  2014), so the cost follows the number of chordless paths, not the 2^n
  chord subsets.
- Pattern containment is a backtracking embedding. With chords numbered
  in source order, the pairwise relations (cross, nest, disjoint) fix the
  induced subdiagram, so the candidates for each pattern chord are the
  AND of relation masks picked out by the chords already placed.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator

from .diagram import ChordDiagram, _mask_labels
from .structure import is_one_terminal


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


# relation codes of a later chord j to an earlier chord i
_CROSS, _NEST, _RIGHT = 0, 1, 2


@lru_cache
def _relation_table(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """Entry t lists the relation code of chord t to each earlier chord s < t
    (0-based, source order)."""
    table = []
    for t, (at, bt) in enumerate(pairs):
        row = []
        for a, b in pairs[:t]:
            if at > b:
                row.append(_RIGHT)
            else:
                row.append(_NEST if bt < b else _CROSS)
        table.append(tuple(row))
    return tuple(table)


def _relation_masks(d: ChordDiagram) -> tuple[list[int], list[int], list[int]]:
    """Per chord i (0-based), masks of the later chords that cross i, that
    nest inside i and that lie wholly to its right, indexed by relation code."""
    adj = d.adjacency()
    sources = [a for a, _ in d.pairs]
    full = (1 << len(adj)) - 1
    cross, nest, right = [], [], []
    for i, (_, b) in enumerate(d.pairs):
        above = full & (-2 << i)
        # later chords whose source lies inside i
        inside = above & ((1 << bisect_left(sources, b)) - 1)
        c = adj[i] & above
        cross.append(c)
        nest.append(inside ^ c)
        right.append(above ^ inside)
    return cross, nest, right


def contains_pattern(d: ChordDiagram, pattern: ChordDiagram) -> bool:
    """Does some chord subset of d induce exactly the pattern's configuration?

    Places the pattern's chords at chords s1 < s2 < ... of d, one at a time;
    the candidates for the next place are the chords related to every
    placed chord as the pattern requires.
    """
    k = pattern.n
    if k == 0:
        return True
    n = d.n
    if k > n:
        return False
    table = _relation_table(pattern.pairs)
    masks = _relation_masks(d)
    placed = [0] * k
    # the first chord leaves room for the k - 1 after it
    cand = [(1 << (n - k + 1)) - 1] + [0] * (k - 1)
    t = 0
    while t >= 0:
        c = cand[t]
        if not c:
            t -= 1
            continue
        low = c & -c
        cand[t] = c ^ low
        placed[t] = low.bit_length() - 1
        if t == k - 1:
            return True
        t += 1
        m = (1 << (n - k + t + 1)) - 1
        for s, r in enumerate(table[t]):
            m &= masks[r][placed[s]]
        cand[t] = m
    return False


def _induced_cycles(d: ChordDiagram) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield every chord subset whose induced crossing graph is a cycle, once,
    as (length, labels). Includes m = 3 triangles.

    Each cycle is grown from its lowest chord v as a chordless path
    v, p1, ..., last over higher chords and closed by a neighbour w of v
    with w > p1, so it is found once.
    """
    adj = d.adjacency()
    for v, nv in enumerate(adj):
        below = (1 << (v + 1)) - 1
        rest = nv & ~below
        while rest:
            b1 = rest & -rest
            rest ^= b1
            p1 = b1.bit_length() - 1
            # forbid: the path, the chords at or below v, the neighbours of
            # v below p1 (they could only close a cycle already found the
            # other way round) and, as the path grows, the neighbours of its
            # interior chords
            start = (1 << v) | b1
            stack = [(p1, start, below | start | (nv & (b1 - 1)))]
            while stack:
                last, path, forbid = stack.pop()
                cand = adj[last] & ~forbid
                while cand:
                    bw = cand & -cand
                    cand ^= bw
                    if nv & bw:
                        cycle = path | bw
                        yield cycle.bit_count(), _mask_labels(cycle)
                    else:
                        stack.append((bw.bit_length() - 1, path | bw, forbid | adj[last] | bw))


@lru_cache
def _realizations(m: int) -> tuple[ChordDiagram, ChordDiagram]:
    return top_cycle(m), bottom_cycle(m)


def _kind(d: ChordDiagram, m: int, labels: tuple[int, ...]) -> str:
    """The named realization, "top" or "bottom", that the induced m-cycle on
    the labels compresses to. The m = 3 triangle is both, reported as "top"."""
    if m == 3:
        # three pairwise-crossing chords can only be (1,4)(2,5)(3,6)
        return "top"
    sub = d.subdiagram(labels)
    top, bottom = _realizations(m)
    if sub == top:
        return "top"
    if sub == bottom:
        return "bottom"
    raise AssertionError(f"induced {m}-cycle with unknown realization: {sub.to_text()}")


def cycle_profile(d: ChordDiagram) -> dict[tuple[int, str], int]:
    """Counts of induced-cycle realizations by (length, "top"/"bottom").

    Every induced cycle must compress to one of the two named realizations;
    the m = 3 triangle counts as both kinds at once (K3 is self-paired),
    recorded under "top" only with bottom_cycle(3) equal to it.
    """
    profile: dict[tuple[int, str], int] = {}
    for m, labels in _induced_cycles(d):
        key = (m, _kind(d, m, labels))
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
    """Some induced cycle is a top cycle (a triangle counts); stops at the
    first one."""
    return any(_kind(d, m, labels) == "top" for m, labels in _induced_cycles(d))


def contains_any_bottom_cycle(d: ChordDiagram) -> bool:
    """Some induced cycle is a bottom cycle (a triangle counts); stops at the
    first one."""
    return any(m == 3 or _kind(d, m, labels) == "bottom" for m, labels in _induced_cycles(d))


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
        return is_one_terminal(d)
    if name == "noncrossing":
        return d.is_noncrossing()
    if name == "nonnesting":
        return d.is_nonnesting()
    if name == "top-cycle-free":
        return not contains_any_top_cycle(d)
    if name == "bottom-cycle-free":
        return not contains_any_bottom_cycle(d)
    if name in CYCLE_CLASSES:
        return cycle_classes(cycle_profile(d))[name]
    return not contains_pattern(d, _forbidden_pattern(name))


@lru_cache
def _forbidden_pattern(name: str) -> ChordDiagram:
    """The pattern excluded by a parametric class name such as "K3-free"."""
    if name.endswith("-free"):
        base = name[: -len("-free")]
        if base.startswith("K") and base[1:].isdigit():
            return complete_diagram(int(base[1:]))
        if base.startswith("N") and base[1:].isdigit():
            return nesting_diagram(int(base[1:]))
        if base.startswith("perm-") and base[len("perm-"):].isdigit():
            return permutation_diagram(base[len("perm-"):])
    raise ValueError(f"unknown class name: {name}")

