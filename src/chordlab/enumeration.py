"""Exhaustive generation of rooted chord diagrams and class counting.

`all_pairs` walks every diagram of a size, and `members` of "all" is that
stream. `all_texts` is the same walk as text: the listing of "all" prints
it, and builds no diagram object. The walk places chords one at a time
down to six free points, and then joins each completion of those points,
taken from a table of endings that the walk fills as it goes and drops
when it ends.

A diagram of size n is a root chord (1, p) over a diagram S of size n-1,
and every other class is built that way one size down, with the
children's connectivity and intersection order filled in:

- indecomposable: S is any diagram, and the root holds the first point of
  S's last indecomposable block, so that no proper prefix closes up;
- the hereditary classes, closed under removing the root (noncrossing,
  nonnesting, the cycle classes and the pattern classes such as
  "K3-free", "N3-free" and "perm-213-free"): S is in the class, and
  `patterns.root_members` tests only the configurations that use the new
  root, by a mask rule, or by an embedding at the root for a pattern
  other than K_k and N_k;
- the VARIANTS "connected" and "one-terminal" of any class, those of "all"
  being the classes of these names: the class's walk, keeping the children
  whose root crosses every component of S, over one-terminal S only for
  "one-terminal" (`_sites`).

`_sites` is the one walk over the root-insertion parents: `members` builds
the children from it, and a class size adds up the member bits of each
parent, or reads each child's statistics off the parent and its root
(`_site_columns`), without building the children. `_class_sizes` is the
one memo of class sizes: the three VARIANTS of a class off one walk, with
the components of each parent, the "all" size of "all" counted on the
stream; `count_members`, `census` and `pattern_free_count` read it. The
plain count `_count`, behind `count_class` and `enum --count`, finds no
component, and is the oracle of `_class_sizes` in the tests.
`count_classes_parallel` gives worker j of a pool of jobs one part of the
same walk: every jobs-th parent of `_sites` from parent j on, or for the
plain count of "all", every jobs-th first chord of the stream.
`members`, `count_members` and `count_class` read a class and a variant by
one rule (`_root_key`), so `tcf_refined`, the paper's connected
top-cycle-free count by t1, is the t1 column of `count_class`.
Two tables come from a recurrence over smaller sizes and walk no diagram
(`_recurrence`): "all" by crossings, nestings and terminal chords
(`_histories`), and "connected" by t1 and terminal chords, over the
paper's root share (`_root_shares`).

`tally` counts built diagrams by a key function, for the two sweeps that
measure each diagram: `class_census`, which tests every diagram of the
stream, one cycle profile each, and is the independent sweep for the site
rows of `conjectures` and `series` (of the checks `enum-jelinek-equalities`
and `report-determinism` read it), and the series weight tally.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from functools import lru_cache
from itertools import compress, islice, repeat
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping

from .diagram import (
    ChordDiagram,
    _mask_labels,
    _set_connected,
    _set_order,
    component_masks,
    insert_root,
    open_masks,
)
from .patterns import (
    CYCLE_CLASSES,
    HEREDITARY_CLASSES,
    cycle_classes,
    cycle_profile,
    hereditary_key,
    root_members,
)
from .structure import (
    _order,
    _terminal_depth,
    is_one_terminal,
    mask_order,
    minimum_separators,
    terminal_labels,
)


def all_pairs(n: int, branch: int | None = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """Source-sorted pair tuples, lexicographic in the partner array.
    `branch` restricts to diagrams whose first chord is (1, branch); it must
    be one of `branches(n)`. A generator function, which perfbench wraps."""
    yield from _matchings(n, branch, False)


def all_texts(n: int) -> Iterator[str]:
    """The `to_text` of every diagram of `all_pairs(n)`, in its order, with
    no diagram built."""
    return _matchings(n, None, True) if n else iter(("()",))


# `_matchings` completes a node with at most this many free points from its
# table of endings. At n = 7, four is barely faster than one stack frame per
# prefix, six takes half the time with a 0.3 MB table, and eight saves 10%
# more with a 1.6 MB table
_TAIL = 6


def _matchings(n: int, branch: int | None, text: bool) -> Iterator:
    """The walk of `all_pairs`: each diagram is its chords' pieces joined in
    source order, the text "(a,b)" if `text`, else the pair tuple ((a, b),)."""
    if n < 0:
        raise ValueError("size must be >= 0")
    # the piece of the chord (a, b) is piece[a * m + b]: a list index is
    # cheaper than hashing a pair
    m = 2 * n + 1
    piece = [("(%d,%d)" % (a, b) if text else ((a, b),)) for a in range(m) for b in range(m)]
    points = tuple(range(1, m))
    if branch is None:
        stack = [("" if text else (), points)]
    elif 2 <= branch < m:
        stack = [(piece[m + branch], points[1:branch - 1] + points[branch:])]
    else:
        raise ValueError("branch %r is not in branches(%d)" % (branch, n))
    # depth first on an explicit stack of (chords placed, free points): the
    # smallest free point is matched with every later one, and the children
    # are pushed in reverse so that they pop in that order. A node with at
    # most _TAIL free points yields its prefix joined to each of their
    # completions, in walk order; those endings do not depend on the prefix,
    # so each free-point tuple's are found once per walk, by the same rule
    ends = {(): ("" if text else (),)}

    def endings(free: tuple[int, ...]) -> tuple:
        tail = ends.get(free)
        if tail is None:
            a = free[0] * m
            tail = ends[free] = tuple(
                piece[a + free[i]] + e
                for i in range(1, len(free))
                for e in endings(free[1:i] + free[i + 1:])
            )
        return tail

    pop = stack.pop
    push = stack.append
    while stack:
        prefix, free = pop()
        k = len(free)
        if k > _TAIL:
            a = free[0] * m
            for i in range(k - 1, 0, -1):
                push((prefix + piece[a + free[i]], free[1:i] + free[i + 1:]))
        else:
            for e in endings(free):
                yield prefix + e


def all_diagrams(n: int) -> Iterator[ChordDiagram]:
    """Every size-n diagram exactly once, deterministic order."""
    return map(ChordDiagram._trusted, all_pairs(n))


VARIANTS = ("all", "connected", "one-terminal")


def members(
    n: int, cls: str = "all", ordered: bool = True, variant: str = "all"
) -> Iterator[ChordDiagram]:
    """The size-n diagrams of a variant of a class, in generation order.
    "all" is the `all_pairs` stream, and everything else is built by root
    insertion over size n-1 (`_grown`). Unless `ordered`, each parent's
    children come together, so that no level of parents is held."""
    key, variant = _root_key(cls, variant)
    if key == variant == "all":
        return all_diagrams(n)
    return _grown(n, key, variant, ordered)


def count_members(n: int, cls: str = "all", variant: str = "all") -> int:
    """How many diagrams `members` yields: the class's size in
    `_class_sizes`, read on each call."""
    key, variant = _root_key(cls, variant)
    return _class_sizes(n, key)[VARIANTS.index(variant)]


@lru_cache(maxsize=None)
def _class_sizes(n: int, key) -> tuple[int, int, int]:
    """The sizes of the VARIANTS of `key` at n, in their order, from one
    walk of its sites, with no child built: each parent adds its member
    bits, and those of them that are connected bits too, to the connected
    size, and to the one-terminal size when the parent is one-terminal or
    empty (see `_sites`). The "all" size of "all" counts the `all_pairs`
    stream itself. Cached: the one memo of class sizes."""
    if n <= 0:
        return tuple(_count(n, key, v) for v in VARIANTS)
    sizes = [0, 0, 0]
    for s, _, member, connected, comps in _sites(n, key):
        sizes[0] += member.bit_count()
        c = (member & connected).bit_count()
        sizes[1] += c
        # a one-terminal parent is connected, which the components tell
        # before its terminal chords are scanned
        if c and (not s.n or len(comps) == 1 and is_one_terminal(s)):
            sizes[2] += c
    if key == "all":
        sizes[0] = _count(n, key)
    return tuple(sizes)


def _root_key(cls: str, variant: str = "all") -> tuple[str | ChordDiagram, str]:
    """How root insertion tells the class apart: "all", "indecomposable" or
    a `hereditary_key`, and the stronger of `variant` and the name's own
    one ("connected" or "one-terminal"); unknown names raise ValueError."""
    if variant not in VARIANTS:
        raise ValueError("unknown variant: %s" % variant)
    if cls in VARIANTS:
        return "all", max(cls, variant, key=VARIANTS.index)
    key = hereditary_key(cls)
    return (cls if key is None else key), variant


def _grown(
    n: int, key, variant: str, ordered: bool, part: tuple[int, int] = (0, 1)
) -> Iterator[ChordDiagram]:
    """`members` built by root insertion over the parents of size n-1. Part
    j of jobs, `part` = (j, jobs), takes every jobs-th child of the walk
    from child j on, and builds no other child."""
    if n < 0:
        raise ValueError("size must be >= 0")
    j, jobs = part
    if n == 0:
        # the empty diagram is in every hereditary class but the one that
        # forbids the empty pattern, and is neither connected, indecomposable
        # nor one-terminal; it is child 0, so part 0's alone
        member = key.n > 0 if isinstance(key, ChordDiagram) else key in HEREDITARY_CLASSES
        if member and variant == "all" and j == 0:
            yield ChordDiagram._trusted(())
        return
    ks = range(2 * n - 1)
    # per parent, what all its roots share: the member roots, the pairs, the
    # connected roots and the connected children's intersection order
    sites = (
        (member, s.pairs, connected,
         connected and (1, *[x + 1 for x in _rest_order(s, comps)]))
        for s, _, member, connected, comps in _sites(n, key, variant, ordered)
    )
    if ordered:
        sites = list(sites)  # held for this call
        walk = ((k, site) for k in ks for site in sites if site[0] >> k & 1)
    else:
        walk = ((k, site) for site in sites for k in ks if site[0] >> k & 1)
    for k, (_, pairs, connected, order) in islice(walk, j, None, jobs):
        d = insert_root(pairs, k)
        _set_connected(d, connected >> k & 1 == 1)
        if connected >> k & 1:
            _set_order(d, order)
        yield d


def _count(n: int, key, variant: str = "all", part: tuple[int, int] = (0, 1)) -> int:
    """count_members of a variant of `key`, or the share of part j of
    jobs, `part` = (j, jobs): for "all", of the diagrams whose first chord
    is (1, b) for b in branches(n)[j::jobs]; else of the children of the
    parents that `_sites` gives the part."""
    if key == variant == "all":
        j, jobs = part
        if jobs == 1:
            return sum(1 for _ in all_pairs(n))
        # every branch holds (2n - 3)!! diagrams, so the parts are equal
        return sum(1 for b in branches(n)[j::jobs] for _ in all_pairs(n, b))
    if n <= 0:
        return sum(1 for _ in _grown(n, key, variant, False))
    sites = _sites(n, key, variant, components=False, part=part)
    return sum(m.bit_count() for _, _, m, _, _ in sites)


def _sites(
    n: int, key, variant: str = "all", ordered: bool = False, components: bool = True,
    part: tuple[int, int] = (0, 1),
) -> Iterator[tuple[ChordDiagram, list[int], int, int | None, list[int] | None]]:
    """The root-insertion sites of size n >= 1: (s, *`_insertions`) over
    the parents s of size n-1, in generation order if `ordered`; with the
    connected bits and the components of s if `components`. Part j of
    jobs, `part` = (j, jobs), takes every jobs-th parent of the walk from
    parent j on, so that the parts interleave to the whole; a grown parent
    outside the part is never built (`_grown`). The parents of
    "all" and "indecomposable" are every diagram of size n-1, those of the
    other classes and of their connected variant are the class's members.
    The one-terminal variant grows over its own members: a one-terminal
    diagram less its root is one-terminal, and a child of a one-terminal s
    is one-terminal iff connected, since the root then crosses a chord."""
    # the empty diagram is the parent of every single chord, although it is
    # neither connected nor one-terminal
    below = variant if variant == "one-terminal" and n > 1 else "all"
    if key in ("all", "indecomposable") and below == "all":
        j, jobs = part
        parents = map(ChordDiagram._trusted, islice(all_pairs(n - 1), j, None, jobs))
    else:
        parents = _grown(n - 1, key, below, ordered, part)
    for s in parents:
        yield (s, *_insertions(s, key, variant, components))


def _insertions(s: ChordDiagram, key, variant: str, components: bool = True) -> tuple:
    """The root insertions over s. Returns the root's crossing mask over
    s's labels for each k (the root's sink follows k points of s), the bits
    k whose child is a member (every one for "all"), those whose child is
    connected, and the masks of s's components. The last two are None
    unless `components` or the variant reads them."""
    # the root crosses the chords with one end among s's first k points,
    # the chords open after them (none when they close up on their own)
    roots = open_masks(s)
    every = (1 << len(roots)) - 1
    comps = connected = None
    if components or variant != "all":
        comps = component_masks(s.adjacency())
        # the root crosses a component iff it holds the component's first
        # point but not its last, so the child is connected iff lo <= k < hi
        # for the largest first point lo and the smallest last point hi. The
        # spans of the components nest or are disjoint: if the child at
        # k = lo is connected, they nest, and hi is the last point of the
        # innermost one, the component that starts at lo
        connected = every
        if len(comps) == 1:
            connected &= (1 << len(roots) - 1) - 2  # lo = 1, hi = 2m
        elif comps:
            inner = comps[-1]
            lo = s.pairs[(inner & -inner).bit_length() - 1][0]
            r = roots[lo]
            for c in comps:
                if not r & c:
                    connected = 0
                    break
            else:
                hi = max(s.pairs[j - 1][1] for j in _mask_labels(inner))
                connected &= (1 << hi) - (1 << lo)
    if key == "all":
        member = every
    elif key == "indecomposable":
        # the child splits right after the root's sink iff s's first j
        # points close up for some k <= j < 2m: it is indecomposable iff k
        # exceeds the largest such j, q (-1 for the empty s)
        q = len(roots) - 2
        while q >= 0 and roots[q]:
            q -= 1
        member = every >> q + 1 << q + 1
    else:
        member = root_members(key, s, roots, comps)
    if variant != "all":
        member &= connected
    return roots, member, connected, comps


def _rest_order(s: ChordDiagram, comps: list[int]) -> tuple[int, ...]:
    """s's part of the intersection order of a connected child: the root
    comes first, then s's components, each in its own order."""
    return _order(s) if len(comps) == 1 else mask_order(s.adjacency(), comps)


def tally(
    n: int, key: Callable[[ChordDiagram], Hashable | None], cls: str = "all", variant: str = "all"
) -> dict:
    """Counts of the values of `key` over the size-n members of a class, in
    first-occurrence order over the walk of `members(..., ordered=False)`;
    a key of None skips the diagram."""
    counts: dict = {}
    for d in members(n, cls, False, variant):
        k = key(d)
        if k is not None:
            counts[k] = counts.get(k, 0) + 1
    return counts


def branches(n: int) -> list[int]:
    """Partner choices for point 1; prefix-split handles for parallel sweeps."""
    return list(range(2, 2 * n + 1))


def _pool_size(n: int, jobs: int) -> int:
    """Worker count for a parallel sweep: never more than the CPUs or the
    branches of size n."""
    return max(1, min(jobs, os.cpu_count() or 1, len(branches(n))))


STAT_NAMES = ("t1", "terminal-count", "crossings", "nestings", "kappa", "terminality")
_ARC_STATS = frozenset(("crossings", "nestings", "terminal-count"))
_SHARE_STATS = ("t1", "terminal-count")


_T1_DISCONNECTED = "statistic t1 needs connected diagrams; class %s has disconnected members"


def count_class(
    n: int, cls: str = "all", statistics: tuple[str, ...] = (), variant: str = "all"
) -> dict[tuple, int]:
    """The rows (n, *statistic values) -> count of the size-n diagrams of a
    variant of a class, refined by the named statistics, with no child
    built: by a recurrence over smaller sizes (`_recurrence`: `_histories`
    or `_root_shares`), or off the root-insertion sites (`_site_columns`);
    only n = 0 tallies a built diagram. A plain count is one `_count` walk
    of the class, which finds no component, apart from the `_class_sizes`
    memo that `census` reads."""
    return _count_class_share((n, cls, tuple(statistics), (0, 1)), variant)


def _count_class_share(args, variant: str = "all") -> dict[tuple, int]:
    """The count_class rows of part j of jobs of a class, for the work item
    (n, cls, statistics, (j, jobs)) of count_classes_parallel; (0, 1) is
    the whole class. The plain count of "all" takes every jobs-th branch of
    its stream from branch j on, and the others every jobs-th parent of
    `_sites` from parent j on."""
    n, cls, statistics, part = args
    for i, stat in enumerate(statistics):
        if stat not in STAT_NAMES:
            raise ValueError("unknown statistic: %s" % stat)
        if stat in statistics[:i]:
            raise ValueError("statistic given twice: %s" % stat)
    key, variant = _root_key(cls, variant)
    if not statistics:
        total = _count(n, key, variant, part)
        return {(n,): total} if total else {}
    recurrence = _recurrence(key, variant, statistics)
    if recurrence:
        return recurrence(n, statistics)
    if n == 0:
        # the one diagram of size 0 is the empty one: disconnected, and 0
        # by every statistic
        empty = _count(0, key, variant)
        if "t1" in statistics and empty:
            raise ValueError(_T1_DISCONNECTED % cls)
        return {(0,) * (len(statistics) + 1): empty} if empty else {}
    # tallied once per site (s, k) whose child is a member; only t1,
    # terminality and kappa read the connected bits and the components
    components = not _ARC_STATS.issuperset(statistics)
    counts: Counter = Counter()
    for s, roots, member, connected, comps in _sites(n, key, variant, False, components, part):
        if not member:
            continue
        if "t1" in statistics and member & ~connected:
            raise ValueError(_T1_DISCONNECTED % cls)
        rows = zip(repeat(n), *_site_columns(s, roots, connected, comps, statistics))
        counts.update(compress(rows, [member >> k & 1 for k in range(len(roots))]))
    return dict(counts)


def _recurrence(key, variant: str, statistics: tuple[str, ...]) -> Callable | None:
    """The recurrence that counts the table of `_root_key` (key, variant)
    by `statistics` from smaller sizes, walking no diagram: `_histories`
    for "all" by crossings, nestings and terminal-count, `_root_shares`
    for "connected" by t1 and terminal-count; None for a plain count or
    any other table."""
    if not statistics or key != "all":
        return None
    if _ARC_STATS.issuperset(statistics) and variant == "all":
        return _histories
    if set(statistics).issubset(_SHARE_STATS) and variant == "connected":
        return _root_shares
    return None


def _histories(n: int, statistics: tuple[str, ...]) -> dict[tuple, int]:
    """The rows of "all" by crossings, nestings and terminal-count, over
    Flajolet's histories (1980): from left to right with h chords open, a
    point opens a chord if the points after it can close h + 1, or closes
    the open chord with i later-opened chords still open, which adds i
    crossings and h-1-i nestings and is terminal iff i = 0."""
    if n < 0:
        raise ValueError("size must be >= 0")
    layer = Counter({(0,) * (len(statistics) + 1): 1})
    for left in range(2 * n - 1, -1, -1):  # the points after this one
        after: Counter = Counter()
        for (h, *values), count in layer.items():
            if h < left:
                after[(h + 1, *values)] += count
            for i in range(h):
                gain = {"crossings": i, "nestings": h - 1 - i, "terminal-count": int(i == 0)}
                after[(h - 1, *[v + gain[s] for s, v in zip(statistics, values)])] += count
        layer = after
    return {(n, *values): count for (_, *values), count in layer.items()}


def _root_shares(n: int, statistics: tuple[str, ...]) -> dict[tuple, int]:
    """The rows of "connected" by t1 and terminal-count, over the root
    share of the paper: C <-> (C1, C2, idx), where C2 is the component of
    C less its root that holds chord 2, C1 is the rest of C with the root,
    and idx in 1..2|C2|-1 counts the points of C2 before C1's second point
    (`bijections.root_share_decompose`). So, with N(1) = {(1, 1): 1}, every
    split m1 + m2 = m >= 2 adds (2 m2 - 1) N(m1)[(., c1)] N(m2)[(t2, c2)]
    to N(m)[(t2 + 1, c1 + c2 - [m1 = 1])]:

    - the root share is a bijection onto the triples of connected C1, C2
      and idx in 1..2|C2|-1;
    - in C = C1 (+)_idx C2, a chord of C2 crosses only chords of C2 and
      possibly C1's root, and a chord of C1 other than the root crosses
      only chords of C1;
    - so the intersection order of C is the root, then C2's order, then
      the rest of C1's order, and t1(C) = 1 + t1(C2), since the root of a
      connected C of size >= 2 crosses a later chord;
    - a chord is terminal in C iff it is terminal in its own part, except
      the root of a one-chord C1, which then crosses a chord of C2.
    """
    if n < 0:
        raise ValueError("size must be >= 0")
    rows = [Counter(), Counter({(1, 1): 1})]
    for m in range(2, n + 1):
        row: Counter = Counter()
        for m1 in range(1, m):
            # C1 enters by its terminal chords alone
            c1s: Counter = Counter()
            for (_, c1), count in rows[m1].items():
                c1s[c1 - (m1 == 1)] += count
            ways = 2 * (m - m1) - 1  # the values of idx
            for (t2, c2), count in rows[m - m1].items():
                for c1, count1 in c1s.items():
                    row[t2 + 1, c1 + c2] += ways * count * count1
        rows.append(row)
    at = [_SHARE_STATS.index(s) for s in statistics]
    counts: Counter = Counter()
    for values, count in rows[n].items():
        counts[(n, *[values[i] for i in at])] += count
    return dict(counts)


def _site_columns(
    s: ChordDiagram, roots: list[int], connected: int, comps: list[int], statistics: tuple[str, ...]
) -> list[list[int]]:
    """The statistics of the children of s, one column per statistic with
    an entry per root k; roots[k] is the mask r of s's chords that the root
    crosses, and bit k of `connected` is set when the child is connected;
    "all" reads only t1, terminality and kappa here (see `_histories`).
    The root is chord 1 of the child, so it is no right neighbour of a
    chord of s, and a connected child's intersection order is the root
    followed by `_rest_order`, the same for every k. So, with m = s.n:

    - crossings: cr(s) + |r|
    - nestings: ne(s) + (k - |r|) / 2, the chords of s inside the root
    - terminal-count: tc(s) + [r = 0]
    - t1 (connected children only): 1 + the position of s's first
      terminal chord in `_rest_order`, or 1 when s is empty
    - terminality: 0 for a disconnected child, else min(tau, |r|), or m + 1
      when both are m; tau is s's `_terminal_depth` along `_rest_order`,
      and |r| >= j is the root's share of the condition at j
    - kappa, by Whitney's inequality and the expansion lemma (West,
      Introduction to Graph Theory, Lemma 4.2.3), with K = kappa(s) and
      its minimum separators from one `minimum_separators` scan:
      0 for a disconnected child; m (= n - 1) when s is complete (m <= 1
      counts) and |r| = m, since the child is complete; |r| when s is
      complete and |r| < m; K + 1 when |r| >= K + 1 and, for every
      minimum separator X of s, r meets every component of s - X (for a
      disconnected s: K = 0, X is empty, and the components are s's);
      min(K, |r|) otherwise. A separator of the child of size K must
      avoid the root and be a minimum separator of s, and the root joins
      what is left of s unless r misses a part. A complete s has no
      minimum separator and K = m - 1 when m >= 1, so the last two cases
      give its two; the empty s has r = 0 and K = 0 only.
    """
    adj = s.adjacency()
    m = len(adj)
    size = [r.bit_count() for r in roots]
    rest = None
    cols = []
    for stat in statistics:
        if stat == "crossings":
            cr = sum(map(int.bit_count, adj)) // 2
            col = [cr + c for c in size]
        elif stat == "nestings":
            ne = s.nestings()
            col = [ne + (k - c) // 2 for k, c in enumerate(size)]
        elif stat == "terminal-count":
            tc = len(terminal_labels(s))
            col = [tc + (not r) for r in roots]
        elif not connected:
            col = [0] * len(roots)
        elif stat == "kappa":
            kappa, separators = minimum_separators(adj)
            parts = [c for _, comps_x in separators for c in comps_x]
            col = [
                (kappa + 1 if c > kappa and all(r & p for p in parts) else min(kappa, c))
                if connected >> k & 1
                else 0
                for k, (r, c) in enumerate(zip(roots, size))
            ]
        else:
            if rest is None:
                rest = _rest_order(s, comps)
            if stat == "t1":
                first = next((p for p, x in enumerate(rest, 2) if not adj[x - 1] >> x), 1)
                col = [first] * len(roots)
            else:
                tau = _terminal_depth(rest, adj)
                col = [
                    (min(tau, c) if tau < m or c < m else m + 1) if connected >> k & 1 else 0
                    for k, c in enumerate(size)
                ]
        cols.append(col)
    return cols


def count_classes_parallel(
    n: int,
    classes: tuple[str, ...],
    statistics: tuple[str, ...] = (),
    jobs: int = 1,
) -> dict[str, dict[tuple, int]]:
    """count_class for each of several classes, with one pool of at most
    `jobs` workers (`_pool_size`) mapping one work item (n, class,
    statistics, (j, jobs)) per class and worker j: part j of the class's
    count (`_count_class_share`), so that each worker walks the level
    below the parents once. A table with a `_recurrence` is counted in
    this process. A class's rows are added up in the order of its items."""
    jobs = _pool_size(n, jobs)
    shared = [c for c in classes if not _recurrence(*_root_key(c), statistics)]
    if jobs <= 1 or n <= 1 or not shared:
        return {c: count_class(n, c, statistics) for c in classes}
    work = [(n, c, statistics, (j, jobs)) for c in shared for j in range(jobs)]
    with multiprocessing.Pool(jobs) as pool:
        parts = pool.map(_count_class_share, work)
    tables: dict[str, dict[tuple, int]] = {c: {} for c in shared}
    for (_, c, _, _), rows in zip(work, parts):
        table = tables[c]
        for k, v in rows.items():
            table[k] = table.get(k, 0) + v
    return {c: tables[c] if c in shared else count_class(n, c, statistics) for c in classes}


def census(n: int) -> Mapping[str, int]:
    """Counts of all / connected / one-terminal diagrams of size n, read
    from `_class_sizes`: "all" counts the `all_pairs` stream, the others
    its parents' sites. Read-only."""
    return MappingProxyType(dict(zip(VARIANTS, _class_sizes(n, "all"))))


# classes whose membership falls out of one crossing-graph cycle profile
PROFILE_CLASSES = ("all", *CYCLE_CLASSES, "noncrossing", "nonnesting")


@lru_cache(maxsize=None)
def class_census(n: int) -> Mapping[str, Mapping[str, int]]:
    """One sweep over size-n diagrams scoring every profile class at once;
    returns class -> {all, connected, one-terminal} counts. The oracle of
    the class sizes in two checks: `report-determinism` compares the
    conjecture report with one counted here, and `enum-jelinek-equalities`
    reads its top-cycle-free sizes. Cached, and read-only."""

    def key(d: ChordDiagram) -> tuple:
        # the diagram's classes, and how many of VARIANTS it counts towards
        flags = {
            "all": True,
            **cycle_classes(cycle_profile(d)),
            "noncrossing": d.is_noncrossing(),
            "nonnesting": d.is_nonnesting(),
        }
        return tuple(c for c, ok in flags.items() if ok), 1 + d.is_connected() + is_one_terminal(d)

    out = {c: dict.fromkeys(VARIANTS, 0) for c in PROFILE_CLASSES}
    for (inside, depth), count in tally(n, key).items():
        for c in inside:
            for v in VARIANTS[:depth]:
                out[c][v] += count
    return MappingProxyType({c: MappingProxyType(v) for c, v in out.items()})


@lru_cache(maxsize=None)
def tcf_refined(n: int) -> Mapping[int, int]:
    """Connected top-cycle-free counts of size n by t1, in ascending t1: the
    t1 column of `count_class`, read off the root-insertion sites. Cached,
    and read-only."""
    rows = count_class(n, "top-cycle-free", ("t1",), "connected")
    return MappingProxyType({t: rows[n, t] for _, t in sorted(rows)})


def pattern_free_count(n: int, pattern: ChordDiagram) -> int:
    """Size-n diagrams with no induced copy of `pattern`, read from
    `_class_sizes`."""
    return _class_sizes(n, pattern)[0]
