"""Structural statistics of chord diagrams.

Intersection order, terminal chords, k-terminality (all of it read off
`terminality`, one pass over the intersection order), source-sink groups,
traced subdiagrams, chord valencies, and crossing-graph connectivity.
Groups, valencies and the apart masks of the path search are closed forms
over the pairs, the crossing masks and `open_masks`: no walk over points.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, count

from .diagram import (
    ChordDiagram, _mask_labels, _set_order, component_mask, component_masks, open_masks,
)


def intersection_order(d: ChordDiagram) -> tuple[int, ...]:
    """Chord labels in the intersection order.

    Label the root, remove it, and recurse on the crossing-graph components
    of what is left, taken in order of their smallest source. Entry p-1 of
    the result is the standard-order label sitting at position p. Defined
    for connected nonempty diagrams.
    """
    if d.n == 0 or not d.is_connected():
        raise ValueError("intersection order needs a connected nonempty diagram")
    return _order(d)


def _order(d: ChordDiagram) -> tuple[int, ...]:
    # cached on the diagram
    order = d._order
    if order is None:
        order = mask_order(d.adjacency(), [(1 << d.n) - 1])
        _set_order(d, order)
    return order


def mask_order(adj: tuple[int, ...], parts: list[int]) -> tuple[int, ...]:
    """The intersection orders of the connected chord sets `parts` (masks,
    by smallest label), one after another: what is left of a diagram once
    its root is removed is ordered this way, one component at a time.

    In a connected chord set C, the component that chord x roots in the
    recursion is x's crossing component among the chords of C labelled
    >= x: a chord outside it that crosses it roots an enclosing component,
    so its label is smaller than x. One pass from the largest label down
    therefore builds the recursion tree with a union-find whose sets are
    those components, each rooted at its smallest label; x's children
    are the sets its later neighbours lie in. Each crossing mask is read
    once."""
    n = len(adj)
    up = list(range(n + 1))  # union-find parent; a set's root is its minimum
    members = [0] * (n + 1)  # a root's set, as a mask
    kids = [0] * (n + 1)  # a chord's children in the tree, as a mask
    out = []
    for part in parts:
        m = part
        while m:
            x = m.bit_length()
            comp = 1 << (x - 1)
            m ^= comp
            later = adj[x - 1] >> x << x & part
            children = 0
            while later:
                r = (later & -later).bit_length()
                while up[r] != r:  # find, halving the path
                    up[r] = r = up[up[r]]
                up[r] = x
                children |= 1 << (r - 1)
                joined = members[r]
                comp |= joined
                later &= ~joined
            members[x] = comp
            kids[x] = children
        # preorder from the part's smallest label, children ascending
        stack = [x]
        while stack:
            x = stack.pop()
            out.append(x)
            s = kids[x]
            while s:
                c = s.bit_length()
                stack.append(c)
                s ^= 1 << (c - 1)
    return tuple(out)


def terminal_labels(d: ChordDiagram) -> tuple[int, ...]:
    """Chords with no right neighbor, in standard order. Any diagram."""
    return tuple(i for i, m in enumerate(d.adjacency(), 1) if not m >> i)


def terminal_profile(d: ChordDiagram) -> tuple[int, ...]:
    """Positions of the terminal chords in the intersection order, ascending.

    Connected nonempty diagrams only.
    """
    order = intersection_order(d)
    adj = d.adjacency()
    return tuple(p for p, lab in enumerate(order, 1) if not adj[lab - 1] >> lab)


def t1(d: ChordDiagram) -> int:
    """Index of the first terminal chord in the intersection order."""
    return terminal_profile(d)[0]


def is_one_terminal(d: ChordDiagram) -> bool:
    """Connected with exactly one terminal chord.

    The last chord is terminal, and so is each component's last one, so a
    nonempty diagram is one-terminal iff every other chord crosses a later
    one, and so reaches the last chord through later and later ones."""
    adj = d.adjacency()
    return bool(adj) and all(m >> i for i, m in enumerate(adj[:-1], 1))


def is_k_terminal(d: ChordDiagram, k: int) -> bool:
    """No chord with at most j-1 right neighbors sits strictly before
    intersection position n-j+1, for every j <= k.

    True for the empty diagram, false for disconnected ones (k >= 1).
    k beyond n means the same as k = n.
    """
    return terminality(d) >= min(k, d.n)


def terminality(d: ChordDiagram) -> int:
    """Largest k <= n for which the diagram is k-terminal; 0 if none or empty."""
    if d.n == 0 or not d.is_connected():
        return 0
    return _terminal_depth(_order(d), d.adjacency())


def _terminal_depth(order: tuple[int, ...], adj: tuple[int, ...]) -> int:
    """The terminality of the n chords `order` (labels in intersection
    order) with crossing masks `adj`: a chord at position p with c right
    neighbours first breaks k-terminality at k = c + 1 if c < n - p, so the
    terminality is the least such c, or n."""
    n = len(order)
    counts = [(adj[x - 1] >> x).bit_count() for x in order]
    return min((c for p, c in enumerate(counts, 1) if c < n - p), default=n)


def is_k_terminal_minimal(d: ChordDiagram, k: int) -> bool:
    """k-terminal, and all but the last k chords in the intersection order
    have exactly k right neighbors."""
    if not is_k_terminal(d, k):
        return False
    adj = d.adjacency()
    return all((adj[x - 1] >> x).bit_count() == k for x in intersection_order(d)[:d.n - k])


def source_sink_groups(d: ChordDiagram, m: int | None = None) -> dict[int, list[int]]:
    """Per-chord endpoint groups over the ground set D of the first m chords
    in the intersection order (m defaults to t1).

    The group of c in D is the run of points from c's source up to the
    first stopper, the next D source or c's own sink: it takes in sinks of
    other D chords and whole indecomposable blocks of C - D, and ends just
    before a block whose span holds the stopper.
    """
    if m is None:
        m = terminal_profile(d)[0]
    head = intersection_order(d)[:m]
    in_d = set(head)
    pairs = d.pairs
    # one pass in source order: each D chord's next D source, and the block
    # spans of the other chords (a block starts at a source past every sink
    # so far), after a sentinel block that no stopper lies in
    nxt, last, starts, ends = {}, 0, [0], [0]
    for i, (a, b) in enumerate(pairs, 1):
        if i in in_d:
            nxt[last] = a
            last = i
        elif a > ends[-1]:
            starts.append(a)
            ends.append(b)
        elif b > ends[-1]:
            ends[-1] = b
    nxt[last] = 2 * d.n + 1
    groups: dict[int, list[int]] = {}
    for c in head:
        s, stop = pairs[c - 1]
        x = nxt[c]
        if x < stop:
            stop = x
        k = bisect_left(starts, stop) - 1
        if ends[k] > stop:
            stop = starts[k]
        groups[c] = list(range(s, stop))
    return groups


def traced_subdiagram(d: ChordDiagram, label: int) -> set[int]:
    """Closure of {label}: a chord joins when its rightmost-source right
    neighbor is already in the set. Meaningful for 1-terminal diagrams.

    Labels follow source order, so that neighbor is the top bit of the
    chord's crossing mask and lies above the chord: one downward scan of
    the masks from `label` finds the closure in O(n) steps.
    """
    if not 1 <= label <= d.n:
        raise ValueError("no chord %r in a diagram of %d chords" % (label, d.n))
    adj = d.adjacency()
    out = 1 << (label - 1)
    for i in range(label - 1, 0, -1):  # the highest chord left to decide
        top = adj[i - 1].bit_length()
        if top > i and out >> (top - 1) & 1:
            out |= 1 << (i - 1)
    return set(_mask_labels(out))


def valencies(d: ChordDiagram) -> list[int]:
    """The valency k + l of each chord i, at entry i - 1. k counts the
    chords h < i whose highest crossing chord is i. l counts the blocks of
    the chords after i that close inside i. Their spans come off a stack
    built from chord n down, leftmost on top: chord i pops the spans that
    start inside it, counts those that end inside it, and pushes the span
    they make together with i."""
    val = [0] * d.n
    for h, m in enumerate(d.adjacency(), 1):
        if m >> h:
            val[m.bit_length() - 1] += 1
    stack: list[tuple[int, int]] = []
    for i in range(d.n, 0, -1):
        x, y = d.pairs[i - 1]
        end = y
        while stack and stack[-1][0] < y:
            e = stack.pop()[1]
            val[i - 1] += e < y
            end = max(end, e)
        stack.append((x, end))
    return val


def vertex_connectivity(d: ChordDiagram) -> int:
    """Connectivity of the crossing graph: 0 for empty, single-chord, or
    disconnected diagrams, n-1 for complete crossing graphs, else the
    smallest vertex cut, found as a max flow between non-adjacent pairs."""
    n = d.n
    if n <= 1 or not d.is_connected():
        return 0
    adj = d.adjacency()
    full = (1 << n) - 1
    # the split graph, built once: node v -> v_in (2v) -> v_out (2v+1) ->
    # w_in for every neighbor w, as successor bitmasks
    split = []
    for v, m in enumerate(adj):
        out = 0
        while m:
            low = m & -m
            m ^= low
            out |= low * low  # bit w -> bit 2w
        split += (1 << (2 * v + 1), out)
    # Whitney: no vertex cut is larger than the smallest degree, and the
    # graph is connected, so none is smaller than 1
    best = min(map(int.bit_count, adj))
    for s in range(n):
        if s > best or best == 1:
            break  # some vertex among the first best+1 lies outside a minimum cut
        if adj[s] | 1 << s == full:
            continue  # adjacent to everything, no cut excludes it as endpoint
        for t in range(s + 1, n):
            if not adj[s] >> t & 1:
                best = min(best, _vertex_flow(split, s, t, best))
                if best == 1:
                    break
    return best


def minimum_separators(adj: tuple[int, ...]) -> tuple[int, list[tuple[int, list[int]]]]:
    """(κ, separators) of the crossing graph with masks `adj`: the sets X
    of k = 0, 1, ... chords (as masks) are tried in turn, and κ is the
    first k at which some X disconnects the graph; each such X comes with
    the component masks of the rest. X = 0 with its components for a
    disconnected graph; a complete graph on m chords has no separator
    and gives (max(m - 1, 0), []) at once, with no chord set tried; a
    nearly complete one still tries every set below κ."""
    m = len(adj)
    if all(x.bit_count() == m - 1 for x in adj):
        return max(m - 1, 0), []
    full = (1 << m) - 1
    for k in count():  # two chords that do not cross are cut apart by the m - 2 others
        out = []
        for chords in combinations([1 << j for j in range(m)], k):
            x = sum(chords)
            rest = full ^ x
            comp = component_mask(adj, rest & -rest, rest)
            if comp != rest:
                out.append((x, [comp, *component_masks(adj, rest ^ comp)]))
        if out:
            return k, out


def is_k_connected(d: ChordDiagram, k: int) -> bool:
    """At least k chords, and no set of fewer than k chords disconnects the
    crossing graph.

    Complete crossing graphs have no disconnecting set at all, so they are
    k-connected for every k up to their size; for any other graph this is
    vertex_connectivity(d) >= k.
    """
    if k <= 0:
        return True
    n = d.n
    if n < k or not d.is_connected():
        return False
    adj = d.adjacency()
    full = (1 << n) - 1
    if all(adj[v] | 1 << v == full for v in range(n)):
        return True
    return vertex_connectivity(d) >= k


def _vertex_flow(split: list[int], s: int, t: int, cap_at: int) -> int:
    # unit-capacity augmenting paths from s_out to t_in, at most cap_at of
    # them, on a copy of the split graph's successor masks
    succ = list(split)
    src, dst = 2 * s + 1, 2 * t
    prev = [0] * len(succ)
    flow = 0
    while flow < cap_at:
        seen = 1 << src
        queue = [src]
        for u in queue:
            new = succ[u] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                prev[w] = u
                queue.append(w)
            if seen >> dst & 1:
                break
        else:
            break
        v = dst
        while v != src:
            u = prev[v]
            succ[u] &= ~(1 << v)
            succ[v] |= 1 << u
            v = u
        flow += 1
    return flow


def exists_nonnesting_induced_path(d: ChordDiagram, a: int, b: int) -> bool:
    """Is there an induced crossing-graph path from a to b whose chords are
    pairwise non-nesting (non-consecutive ones disjoint)?"""
    if a == b:
        return True
    adj = d.adjacency()
    apart = _apart_masks(d)
    goal = 1 << (b - 1)
    # depth first over paths: each ends at `last`, and `allowed` holds the
    # chords disjoint from every chord before last, so the path's next chord
    # is one of allowed that crosses last
    stack = [(a - 1, (1 << d.n) - 1)]
    while stack:
        last, allowed = stack.pop()
        step = adj[last] & allowed
        if step & goal:
            return True
        allowed &= apart[last]
        while step:
            low = step & -step
            step ^= low
            stack.append((low.bit_length() - 1, allowed))
    return False


def _apart_masks(d: ChordDiagram) -> list[int]:
    """Per chord (0-based), the mask of the chords wholly to its left or
    right: for chord x = (a, b), the labels below x not open after point
    a - 1, and those past the k = (b + |open after b|) / 2 sources up to b."""
    opened = open_masks(d)
    apart = []
    for x, (a, b) in enumerate(d.pairs):
        k = (b + opened[b].bit_count()) >> 1
        apart.append((1 << x) - 1 & ~opened[a - 1] | (1 << d.n) - (1 << k))
    return apart
