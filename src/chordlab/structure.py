"""Structural statistics of chord diagrams.

Intersection order, terminal chords, k-terminality (all of it read off
`terminality`, one pass over the intersection order), source-sink groups,
traced subdiagrams, chord valencies, and crossing-graph connectivity.
"""

from __future__ import annotations

from itertools import combinations

from .diagram import ChordDiagram, _mask_labels, _set_order, component_mask, component_masks


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

    Each component's last chord is terminal, so one terminal chord makes
    the diagram connected: every other chord crosses a later one, and so
    reaches the last chord through later and later ones. No component scan
    is needed.
    """
    return len(terminal_labels(d)) == 1


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

    The group of c in D is the maximal contiguous stretch from c's source
    onward that consumes sinks of other D chords and whole indecomposable
    blocks of C - D; it stops at the first D source, at c's own sink, or
    at a block that cannot be swallowed before reaching either.
    """
    order = intersection_order(d)
    if m is None:
        m = terminal_profile(d)[0]
    in_d = [False] * (d.n + 1)
    for x in order[:m]:
        in_d[x] = True
    # one pass over the points: kind[p] is 1 for a D source, 2 for a D
    # sink and 3 outside D; reach[p] is the far end of the indecomposable
    # block of the non-D chords that holds p.  A point is a source iff its
    # label is the next new one (standard form).
    n2 = 2 * d.n
    kind = [0] * (n2 + 1)
    reach = [0] * (n2 + 1)
    block: list[int] = []
    depth = 0
    nxt = 1
    for p, x in enumerate(d.point_labels(), 1):
        source = x == nxt
        if source:
            nxt += 1
        if in_d[x]:
            kind[p] = 1 if source else 2
            continue
        kind[p] = 3
        block.append(p)
        depth += 1 if source else -1
        if not depth:
            for q in block:
                reach[q] = p
            block = []

    groups: dict[int, list[int]] = {}
    for c in order[:m]:
        s, own_sink = d.pairs[c - 1]
        pts_out = [s]
        p = s + 1
        while p <= n2:
            if kind[p] != 3:
                if p == own_sink or kind[p] == 1:
                    break
                pts_out.append(p)
                p += 1
                continue
            h = reach[p]
            q = p
            ok = True
            while q <= h:
                if kind[q] != 3:
                    if q == own_sink or kind[q] == 1:
                        ok = False
                        break
                else:
                    h = max(h, reach[q])
                q += 1
            if not ok:
                break
            pts_out.extend(range(p, h + 1))
            p = h + 1
        groups[c] = pts_out
    return groups


def traced_subdiagram(d: ChordDiagram, label: int) -> set[int]:
    """Closure of {label}: a chord joins when its rightmost-source right
    neighbor is already in the set. Meaningful for 1-terminal diagrams.

    Labels follow source order, so that neighbor is the top bit of the
    chord's crossing mask and lies above the chord: one downward scan of
    the masks from `label` (traced_mask) finds the closure in O(n) steps.
    """
    adj = d.adjacency()
    return set(_mask_labels(traced_mask(adj, label, (1 << len(adj)) - 1)))


def traced_mask(adj: tuple[int, ...], label: int, within: int) -> int:
    """traced_subdiagram of `label` in the subdiagram on the chord set
    `within` (a mask holding label), as a mask over the whole diagram."""
    out = 1 << (label - 1)
    below = within & (out - 1)
    while below:
        i = below.bit_length()  # the highest chord left to decide
        below ^= 1 << (i - 1)
        top = (adj[i - 1] & within).bit_length()
        if top > i and out >> (top - 1) & 1:
            out |= 1 << (i - 1)
    return out


def valency_parts(d: ChordDiagram, i: int) -> tuple[int, int]:
    """(k, l) for chord i: k counts left neighbors crossing nothing later
    than i; l counts the closed chord blocks packed consecutively after i's
    source once all left neighbors are deleted, stopping at i's own sink or
    at a block that cannot close before reaching it."""
    adj = d.adjacency()
    x, y = d.pairs[i - 1]
    # a left neighbor b crosses no chord after i iff its mask has no bit >= i
    left = _mask_labels(adj[i - 1] & ((1 << (i - 1)) - 1))
    k = sum(1 for b in left if not adj[b - 1] >> i)

    # Inside (x, y), a point whose partner lies left of x is the sink of a
    # left neighbor, so it is skipped as deleted; every other point there
    # belongs to a chord nested in i or to a right neighbor.
    partner = d.partner()
    l = 0
    p = x + 1
    while p < y:
        h = partner[p - 1]
        if h < x:
            p += 1
            continue
        if h < p or h > y:
            break
        q = p + 1
        while q < h <= y:
            h = max(h, partner[q - 1])
            q += 1
        if h > y:
            break
        l += 1
        p = h + 1
    return k, l


def valency(d: ChordDiagram, i: int) -> int:
    k, l = valency_parts(d, i)
    return k + l


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


def minimum_separators(adj: tuple[int, ...], k: int) -> list[tuple[int, list[int]]]:
    """The k-sets X of chords (as masks) whose removal disconnects the
    crossing graph with masks `adj`, each with the component masks of the
    rest. With k the graph's vertex connectivity these are its minimum
    separators: none for a complete graph, and X = 0 with its components
    for a disconnected one."""
    full = (1 << len(adj)) - 1
    out = []
    for chords in combinations([1 << j for j in range(len(adj))], k):
        x = sum(chords)
        rest = full ^ x
        comp = component_mask(adj, rest & -rest, rest)
        if comp != rest:  # else what is left is connected, or nothing is
            out.append((x, [comp, *component_masks(adj, rest ^ comp)]))
    return out


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
    right: those closed before its source and those opened after its sink."""
    full = (1 << d.n) - 1
    apart = [0] * d.n
    opened = closed = 0
    for x in d.point_labels():
        bit = 1 << (x - 1)
        if opened & bit:
            closed |= bit
            apart[x - 1] |= full ^ opened
        else:
            opened |= bit
            apart[x - 1] = closed
    return apart
