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

The hereditary classes (closed under removing the root chord) are built
by root insertion in `enumeration`. `root_members` decides which roots over
a member of size n-1 keep the class, testing only what uses the new root,
with no child built. Mask rules decide the named classes and the complete
and nesting patterns K_k and N_k, told apart by their own pairs; the K_k,
tree and bipartite rules decide every root of a parent at once, from the
roots at which each chord is open. Any other pattern, such as a
permutation diagram, runs the embedding anchored at the root, which stays
the oracle of the K_k and N_k rules. `in_class` stays the per-diagram
predicate, independent of this.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

from .diagram import ChordDiagram, _mask_labels, component_mask, component_masks, crossing_mask
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
    """Does some chord subset of d induce exactly the pattern's configuration?"""
    k = pattern.n
    if k == 0:
        return True
    n = d.n
    if k > n:
        return False
    # the first chord leaves room for the k - 1 after it
    return _embeds(_relation_masks(d), n, _relation_table(pattern.pairs), (1 << (n - k + 1)) - 1)


def _embeds(masks, n: int, table, first: int) -> bool:
    """Places the pattern's chords (relation `table`, at most n of them) at
    chords s1 < s2 < ... of a size-n diagram with relation `masks`, one at a
    time, the first at one of the chords of the mask `first`; the
    candidates for the next place are the chords related to every placed
    chord as the pattern requires."""
    k = len(table)
    placed = [0] * k
    cand = [first] + [0] * (k - 1)
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


def _induced_cycles(adj: tuple[int, ...], lows: Iterable[int]) -> Iterator[int]:
    """Yield, as masks, the chord subsets whose induced crossing graph is a
    cycle and whose lowest chord is one of `lows` (0-based), each once.
    Includes m = 3 triangles.

    Each cycle is grown from its lowest chord v as a chordless path
    v, p1, ..., last over higher chords and closed by a neighbour w of v
    with w > p1, so it is found once.
    """
    for v in lows:
        nv = adj[v]
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
                        yield path | bw
                    else:
                        stack.append((bw.bit_length() - 1, path | bw, forbid | adj[last] | bw))


@lru_cache
def _realizations(m: int) -> tuple[ChordDiagram, ChordDiagram]:
    return top_cycle(m), bottom_cycle(m)


def _kind(d: ChordDiagram, cycle: int) -> str:
    """The named realization, "top" or "bottom", that the induced cycle on
    the chord mask `cycle` compresses to. The m = 3 triangle is both,
    reported as "top"."""
    m = cycle.bit_count()
    if m == 3:
        # three pairwise-crossing chords can only be (1,4)(2,5)(3,6)
        return "top"
    sub = d.subdiagram(_mask_labels(cycle))
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
    for cycle in _induced_cycles(d.adjacency(), range(d.n)):
        key = (cycle.bit_count(), _kind(d, cycle))
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
    return any(_kind(d, c) == "top" for c in _core_cycles(d.adjacency()))


def contains_any_bottom_cycle(d: ChordDiagram) -> bool:
    """Some induced cycle is a bottom cycle (a triangle counts); stops at the
    first one."""
    return any(c.bit_count() == 3 or _kind(d, c) == "bottom" for c in _core_cycles(d.adjacency()))


def _core_cycles(adj: tuple[int, ...]) -> Iterator[int]:
    """The induced cycles of `_induced_cycles`, searched in the 2-core only:
    every chord of an induced cycle crosses two others of it, so peeling
    the chords that cross at most one chord left loses no cycle, and the
    paths of a tree-like crossing graph are never grown."""
    full = core = (1 << len(adj)) - 1
    degree = [m.bit_count() for m in adj]
    stack = [v for v, k in enumerate(degree) if k <= 1]
    while stack:
        v = stack.pop()
        core &= ~(1 << v)
        rest = adj[v] & core
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            degree[w] -= 1
            if degree[w] == 1:
                stack.append(w)
    if core == full:
        return _induced_cycles(adj, range(len(adj)))
    return _induced_cycles(tuple([m & core for m in adj]), _mask_labels(core, -1))


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


# Every class here is closed under removing the root chord, as are the
# parametric pattern classes: its members of size n are root chords over its
# members of size n-1, and such a child is a member iff no forbidden
# configuration uses the root.
HEREDITARY_CLASSES = ("noncrossing", "nonnesting", *CYCLE_CLASSES)


def hereditary_key(name: str) -> str | ChordDiagram | None:
    """The key `root_members` takes for a hereditary class: the name of a
    class of HEREDITARY_CLASSES, or the forbidden pattern of a parametric
    class such as "K3-free". None for the other names of CLASS_NAMES;
    unknown names raise ValueError."""
    if name in HEREDITARY_CLASSES:
        return name
    if name in CLASS_NAMES:
        return None
    return _forbidden_pattern(name)


def root_members(key: str | ChordDiagram, s: ChordDiagram, roots: list[int], comps: list | None) -> int:
    """Which root insertions over a member s of the hereditary class `key`
    (see hereditary_key) stay in the class: bit k of the result is set when
    the root (1, k + 2) gives a member, for each k < len(roots). That root
    crosses the chords of s in the mask roots[k], and comps are the masks
    of s's components (None if not yet found). Only configurations that use
    the root are tested: the others lie in s. No child is built.

    The root crosses chord (a, b) of s at the roots a <= k < b, its span.
    The K_m, tree and bipartite rules OR spans into the roots that fail, all
    at once; an N_m through the root is the root over m - 1 mutually
    nesting chords that close among s's first k points."""
    rule = _rule(key)
    if rule is not None:
        complete, size = rule
        if not complete:
            # the roots k before that point, which is at most 2m + 1 = len(roots)
            return (1 << _nesting_close(s.pairs, size)) - 1
        return (1 << len(roots)) - 1 & ~_clique_roots(s.pairs, s.adjacency(), size)
    if isinstance(key, ChordDiagram):
        return _pattern_free_roots(s, key, roots)
    adj = s.adjacency()
    if key not in ("tree", "bipartite"):
        return _cycle_free_roots(key, adj, roots)
    bad = 0
    for c in component_masks(adj) if comps is None else comps:
        if key == "tree":
            bad |= _open(s.pairs, c)[1]
        elif c & (c - 1):
            a = _colour_class(adj, c)
            bad |= _open(s.pairs, a)[0] & _open(s.pairs, c ^ a)[0]
    return (1 << len(roots)) - 1 & ~bad


@lru_cache
def _rule(key: str | ChordDiagram) -> tuple[bool, int] | None:
    """How root_members reads the classes that forbid a complete or a
    nesting pattern: (True, m - 1) for K_m, whose pairs are (i, m + i),
    and (False, m - 1) for N_m, whose pairs are (i, 2m + 1 - i), the
    number of chords the pattern needs besides the root; noncrossing is
    K2-free, nonnesting N2-free and triangle-free K3-free. None for any
    other key. K1 = N1 reads as K1."""
    if isinstance(key, str):
        return {"noncrossing": (True, 1), "nonnesting": (False, 1), "triangle-free": (True, 2)}.get(key)
    m = key.n
    if all(p == (i, m + i) for i, p in enumerate(key.pairs, 1)):
        return True, m - 1
    if all(p == (i, 2 * m + 1 - i) for i, p in enumerate(key.pairs, 1)):
        return False, m - 1
    return None


def _clique_roots(pairs: tuple[tuple[int, int], ...], adj: tuple[int, ...], size: int) -> int:
    """The roots that cross `size` pairwise crossing chords (-1, every root,
    for size <= 0). Those of one clique run from its highest chord's source
    to its lowest chord's sink, so the cliques whose lowest chord is x are
    crossed from the source of their lowest-labelled top to x's sink."""
    if size < 1:
        return -1  # the root alone is K1, and the empty pattern lies in every child
    bad = 0
    for x, (_, b) in enumerate(pairs):
        top = _clique_top(adj, adj[x] >> x + 1 << x + 1, size - 1) if size > 1 else 1 << x
        if top:
            bad |= (1 << b) - (1 << pairs[top.bit_length() - 1][0])
    return bad


def _clique_top(adj: tuple[int, ...], mask: int, size: int) -> int:
    """The lowest chord, as a bit, topping `size` >= 1 pairwise crossing
    chords of the mask (0 if none): a branch per lowest chord over its later
    neighbours below the best top so far, size deep."""
    if size == 1:
        return mask & -mask
    best = 0
    while mask.bit_count() >= size:
        low = mask & -mask
        mask ^= low
        top = _clique_top(adj, adj[low.bit_length() - 1] & mask, size - 1)
        if top:
            best = top
            mask &= top - 1
    return best


def _nesting_close(pairs: tuple[tuple[int, int], ...], size: int) -> int:
    """The point of the diagram with these pairs at which `size` mutually
    nesting chords have first all closed (2n + 1 if never, 0 for size <= 0).

    In sink order the sources of a nesting chain fall, so the longest
    chain with each chord outermost is one more than the longest falling
    run of sources before it. Patience sorting keeps, for each length, the
    largest source that ends a run of that length (negated, to keep the
    list ascending)."""
    if size <= 0:
        return 0
    ends: list[int] = []
    for a, b in sorted(pairs, key=itemgetter(1)):
        j = bisect_left(ends, -a)
        if j == len(ends):
            if j + 1 == size:
                return b
            ends.append(-a)
        else:
            ends[j] = -a
    return 2 * len(pairs) + 1


def _open(pairs: tuple[tuple[int, int], ...], mask: int) -> tuple[int, int]:
    """The roots where a chord (a, b) of the mask is open, a <= k < b, and where two are."""
    once = twice = 0
    while mask:
        low = mask & -mask
        mask ^= low
        a, b = pairs[low.bit_length() - 1]
        twice |= once & (span := (1 << b) - (1 << a))
        once |= span
    return once, twice


def _colour_class(adj: tuple[int, ...], comp: int) -> int:
    """The chords of the component `comp` at even distance from its lowest
    chord: one side of its 2-colouring, when it is bipartite."""
    side = seen = frontier = comp & -comp
    even = True
    while frontier:
        frontier = crossing_mask(adj, frontier) & ~seen
        seen |= frontier
        even = not even
        if even:
            side |= frontier
    return side


def _cycle_free_roots(key: str, adj: tuple[int, ...], roots: list[int]) -> int:
    """root_members for chordal, top- and bottom-cycle-free, by mask rules.
    A cycle of four or more chords through the root joins two non-crossing
    chords of r = roots[k] through a component of s - r: of O_k, the chords
    after s's first k points, for a top cycle, else of the rest. The chords
    of r that cross one component of the side searched must pairwise cross."""
    full = (1 << len(adj)) - 1
    bits = 0
    for k, r in enumerate(roots):
        if key == "chordal":
            side = full ^ r
        elif crossing_mask(adj, r) & r:
            continue  # a triangle, both a top and a bottom cycle
        else:
            side = full ^ _first_chords(k, r) if key == "top-cycle-free" else _first_chords(k, r) ^ r
        # each component of the side that r crosses, when r holds two chords or more
        seeds = crossing_mask(adj, r) & side if r & (r - 1) else 0
        while seeds:
            c = component_mask(adj, seeds & -seeds, side)
            seeds &= ~c
            x = crossing_mask(adj, c) & r
            if x & (x - 1) and not _pairwise_crossing(adj, x):
                break
        else:
            bits |= 1 << k
    return bits


def _pairwise_crossing(adj: tuple[int, ...], mask: int) -> bool:
    rest = mask
    while rest and mask & ~adj[(rest & -rest).bit_length() - 1] == rest & -rest:
        rest &= rest - 1
    return not rest


def _first_chords(k: int, r: int) -> int:
    """s's chords with a source among its first k points, r open after them."""
    return (1 << (k + r.bit_count()) // 2) - 1


def _pattern_free_roots(s: ChordDiagram, pattern: ChordDiagram, roots: list[int]) -> int:
    """root_members for a pattern other than K_k and N_k, and the oracle of
    their rules: the embedding with the pattern's
    first chord pinned to the root, on s's relation masks moved up one chord
    behind the root's own. The root is the child's first chord, so every
    later-chord mask of s carries over."""
    n = s.n + 1
    # sized before its relation table, which is quadratic in the pattern
    if pattern.n > n:
        return (1 << len(roots)) - 1
    table = _relation_table(pattern.pairs)
    if not table:
        return 0
    cross, nest, right = ([m << 1 for m in ms] for ms in _relation_masks(s))
    full = (1 << s.n) - 1
    bits = 0
    for k, r in enumerate(roots):
        o = _first_chords(k, r)
        masks = ([r << 1, *cross], [(o ^ r) << 1, *nest], [(full ^ o) << 1, *right])
        if not _embeds(masks, n, table, 1):
            bits |= 1 << k
    return bits
