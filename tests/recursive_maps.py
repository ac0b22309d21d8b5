"""Test-only oracles: the recursive, definition-following versions of the
maps that chordlab computes on crossing masks and explicit stacks, the
point-by-point relabellings that chordlab replaces with one label layout,
the recursive pair generator, the full mask search for the intersection
order, the root-share split by a search over raw pairs, the source-sink
groups by sorted points and set lookups, and the path-by-path search for
non-nesting induced paths.

They share with the fast paths only ChordDiagram itself (its validating
constructor, `partner` and `relation`), the intersection order, t1, the
terminal chords and the Triangulation type, which are tested on their
own. `mask_order` uses the crossing masks and
`component_mask`, not the order's own search.
"""

from chordlab.diagram import ChordDiagram, component_mask
from chordlab.structure import (
    intersection_order,
    is_one_terminal,
    t1,
    terminal_labels,
)
from chordlab.triangulation import Triangulation


def gen_pairs(points):
    """Every perfect matching of `points` as a source-sorted pair list:
    match the smallest point with every later one, in order, recursively."""
    if not points:
        yield []
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for tail in gen_pairs(rest):
            yield [(a, points[i])] + tail


def all_pairs(n, branch=None):
    """The size-n pair lists, or those whose first chord is (1, branch)."""
    points = tuple(range(1, 2 * n + 1))
    if branch is None:
        yield from gen_pairs(points)
        return
    for tail in gen_pairs(tuple(p for p in points[1:] if p != branch)):
        yield [(1, branch)] + tail


def mask_order(d):
    """The intersection order by a full component search of what is left
    after each root: quadratic, but with no recursion."""
    adj = d.adjacency()
    out = []
    stack = [(1 << d.n) - 1]
    while stack:
        rest = stack.pop()
        low = rest & -rest
        out.append(low.bit_length())
        rest ^= low
        comps = []
        while rest:
            comp = component_mask(adj, rest & -rest, rest)
            rest ^= comp
            comps.append(comp)
        stack.extend(reversed(comps))
    return tuple(out)


def source_sink_groups(d, m=None):
    """The source-sink groups over the first m chords D of the
    intersection order (m defaults to t1), with the indecomposable blocks
    of C - D read off their sorted points and set lookups."""
    order = intersection_order(d)
    if m is None:
        m = t1(d)
    dset = set(order[:m])
    n2 = 2 * d.n
    kind = [0] * (n2 + 1)  # 1 = D source, 2 = D sink, 3 = outside D
    for i in range(1, d.n + 1):
        a, b = d.pairs[i - 1]
        if i in dset:
            kind[a], kind[b] = 1, 2
        else:
            kind[a] = kind[b] = 3

    # indecomposable blocks of the non-D chords: reach[p] = far end of p's block
    reach = [0] * (n2 + 1)
    rest = [i for i in range(1, d.n + 1) if i not in dset]
    if rest:
        pts = sorted(p for i in rest for p in d.pairs[i - 1])
        sinks = {d.pairs[i - 1][1] for i in rest}
        open_count = 0
        block = []
        for p in pts:
            block.append(p)
            open_count += -1 if p in sinks else 1
            if open_count == 0:
                for q in block:
                    reach[q] = block[-1]
                block = []

    groups = {}
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


def psi(t):
    """Order the points (each source after the sink run that follows it),
    renumber them by that order, drop the terminal chord and rank the rest."""
    if not is_one_terminal(t):
        raise ValueError("psi requires a one-terminal diagram")
    n = t.n
    partner = t.partner()
    order = []
    p = 1
    while p <= 2 * n:
        if partner[p - 1] > p:
            own = partner[p - 1]
            q = p + 1
            run = []
            while q <= 2 * n and partner[q - 1] < q and q != own:
                run.append(q)
                q += 1
            order.extend(run)
            order.append(p)
            p = q
        else:
            order.append(p)
            p += 1
    pos = {pt: r + 1 for r, pt in enumerate(order)}
    term = terminal_labels(t)[0]
    kept = [
        tuple(sorted((pos[a], pos[b])))
        for lbl, (a, b) in enumerate(t, 1)
        if lbl != term
    ]
    used = sorted(v for pair in kept for v in pair)
    rank = {v: r + 1 for r, v in enumerate(used)}
    return ChordDiagram((rank[a], rank[b]) for a, b in kept)


def chi(c):
    """Append the chord (2n+1, 2n+2), then move every source in front of
    the sink run before it, renumbering points by the new order."""
    n = c.n
    big = ChordDiagram(list(c) + [(2 * n + 1, 2 * n + 2)])
    partner = big.partner()
    order = []
    run = []
    for p in range(1, 2 * n + 3):
        if partner[p - 1] > p:
            order.append(p)
            order.extend(run)
            run = []
        else:
            run.append(p)
    order.extend(run)
    pos = {pt: r + 1 for r, pt in enumerate(order)}
    return ChordDiagram(tuple(sorted((pos[a], pos[b]))) for a, b in big)


def beta(parts):
    """Lay out (part, point) keys, then look up each chord's two keys."""
    parts = [(p, tuple(sorted(block))) for p, block in parts]
    j = sum(len(b) for _, b in parts)
    slots = [[] for _ in range(j)]
    tails = []
    for idx, (p, b) in enumerate(parts):
        groups = source_sink_groups(p, m=len(b))
        used = set()
        for r, g in enumerate(groups.values()):
            slots[b[r] - 1] = [(idx, pt) for pt in g]
            used.update(g)
        tails.append([(idx, pt) for pt in range(1, 2 * p.n + 1) if pt not in used])
    layout = [key for s in slots for key in s]
    layout.append((-1, 1))
    for tail in reversed(tails):
        layout.extend(tail)
    layout.append((-1, 2))
    pos = {key: r + 1 for r, key in enumerate(layout)}
    pairs = [(pos[(-1, 1)], pos[(-1, 2)])]
    for idx, (p, _) in enumerate(parts):
        for a, b2 in p:
            pairs.append((pos[(idx, a)], pos[(idx, b2)]))
    return ChordDiagram(pairs)


def root_share_compose(c1, c2, idx):
    """Lay out (diagram, point) keys: C1's root source, C2's first idx
    points, the rest of C1, the rest of C2."""
    layout = [(1, 1)]
    layout += [(2, p) for p in range(1, idx + 1)]
    layout += [(1, p) for p in range(2, 2 * c1.n + 1)]
    layout += [(2, p) for p in range(idx + 1, 2 * c2.n + 1)]
    pos = {key: r + 1 for r, key in enumerate(layout)}
    pairs = [(pos[(1, a)], pos[(1, b)]) for a, b in c1]
    pairs += [(pos[(2, a)], pos[(2, b)]) for a, b in c2]
    return ChordDiagram(pairs)


def root_share_decompose(c):
    """Delete the root, grow the component of chord 2 over crossing raw
    pairs (C2), keep the rest with the root (C1), rebuild both through the
    validating constructor and count the C2 points before C1's second."""
    ps = c.pairs
    c2 = {2}
    todo = [2]
    while todo:
        (a, b) = ps[todo.pop() - 1]
        for y in range(3, c.n + 1):
            p, q = ps[y - 1]
            if y not in c2 and (a < p < b < q or p < a < q < b):
                c2.add(y)
                todo.append(y)
    c1 = [x for x in range(1, c.n + 1) if x not in c2]

    def points(labels):
        return sorted(p for x in labels for p in ps[x - 1])

    def sub(labels):
        rank = {p: r for r, p in enumerate(points(labels), 1)}
        return ChordDiagram((rank[a], rank[b]) for a, b in (ps[x - 1] for x in labels))

    e = points(c1)[1]
    return sub(c1), sub(sorted(c2)), sum(p < e for p in points(c2))


def _remap(t, m):
    g = lambda v: m.get(v, v)
    return Triangulation(
        [tuple(g(x) for x in f) for f in t.faces],
        [g(x) for x in t.boundary],
    )


def omega(c):
    """Build the triangulation recursively over the alpha parts: a part's
    apex is numbered after every vertex of its children."""
    return _build(c, 0)[0]


def _build(c, base):
    if c.n == 1:
        return Triangulation((), (base, base + 1)), base + 2
    pieces = []
    nxt = base
    for p, block in alpha(c):
        t, nxt = _build(p, nxt)
        pieces.append((t, len(block)))
    glued = [pieces[0]]
    for t, i in pieces[1:]:
        prev_t, prev_i = glued[-1]
        join = prev_t.boundary[prev_i]
        glued.append((_remap(t, {t.boundary[0]: join}), i))
    faces = [f for t, _ in glued for f in t.faces]
    walk = [glued[0][0].boundary[0]]
    for t, i in glued:
        b = t.boundary
        walk.extend(b[len(b) - 1:i - 1:-1])
    apex = nxt
    nxt += 1
    for r in range(len(walk) - 1):
        faces.append((walk[r + 1], walk[r], apex))
    boundary = list(glued[0][0].boundary[:glued[0][1] + 1])
    for t, i in glued[1:]:
        boundary.extend(t.boundary[1:i + 1])
    boundary.append(apex)
    return Triangulation(faces, boundary), nxt


def stirling_check(w):
    """The definitional Stirling-word check: each of 1..n twice, and no
    smaller symbol between the two copies of any symbol."""
    n, r = divmod(len(w), 2)
    if r:
        raise ValueError("word length must be even")
    if sorted(w) != sorted(list(range(1, n + 1)) * 2):
        raise ValueError("word must use each of 1..n exactly twice")
    first = {}
    last = {}
    for i, s in enumerate(w):
        if s in first:
            last[s] = i
        else:
            first[s] = i
    for s in range(1, n + 1):
        if any(x < s for x in w[first[s] + 1:last[s]]):
            raise ValueError("smaller symbol between the two copies of %d" % s)
    return n


def zeta(c):
    """Insert the pair `n n` into the word of the diagram without its root."""
    if c.n == 0:
        return ()
    p = c.sink(1)
    w = zeta(c.remove_chord(1))
    at = p - 2
    return w[:at] + (c.n, c.n) + w[at:]


def zeta_inverse(w):
    w = tuple(int(x) for x in w)
    n = stirling_check(w)
    if n == 0:
        return ChordDiagram.empty()
    i0 = w.index(n)
    sub = zeta_inverse(w[:i0] + w[i0 + 2:])
    p = i0 + 2
    mapping = {}
    q = 2
    for old in range(1, 2 * n - 1):
        if q == p:
            q += 1
        mapping[old] = q
        q += 1
    return ChordDiagram([(1, p)] + [(mapping[a], mapping[b]) for a, b in sub])


def traced_subdiagram(d, label):
    """Fixed point: a chord joins when its rightmost-source right neighbor
    is already in the set."""
    last_rn = {}
    for i in range(1, d.n + 1):
        rn = d.right_neighbors(i)
        if rn:
            last_rn[i] = max(rn, key=lambda j: d.pairs[j - 1][0])
    out = {label}
    changed = True
    while changed:
        changed = False
        for i, j in last_rn.items():
            if i not in out and j in out:
                out.add(i)
                changed = True
    return out


def _traced_within(c, d_labels, x):
    # traced subdiagram of chord x inside the subdiagram on d_labels
    sub = c.subdiagram(d_labels)
    back = dict(enumerate(sorted(d_labels), 1))
    fwd = {v: k for k, v in back.items()}
    return {back[y] for y in traced_subdiagram(sub, fwd[x])}


def alpha(c):
    """Split at the first terminal chord with pairwise crossing tests."""
    if not c.is_connected() or c.n < 2:
        raise ValueError("alpha requires a connected diagram of size >= 2")
    order = intersection_order(c)
    cut = t1(c)
    j = cut - 1
    term = order[cut - 1]
    d_labels = sorted(order[:cut])
    d_set = set(d_labels)
    pos_of = {lbl: r + 1 for r, lbl in enumerate(order)}
    neighbors = [x for x in range(1, c.n + 1) if c.crosses(term, x)]

    rest = sorted(x for x in range(1, c.n + 1) if x not in d_set)
    comps = []
    if rest:
        sub = c.subdiagram(rest)
        comps = [tuple(rest[i - 1] for i in comp)
                 for comp in sub.indecomposable_components()]

    parent = {x: x for x in neighbors}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for comp in comps:
        touched = [x for x in neighbors if any(c.crosses(y, x) for y in comp)]
        for x in touched[1:]:
            parent[root(x)] = root(touched[0])

    groups = {}
    for x in neighbors:
        groups.setdefault(root(x), []).append(x)

    parts = []
    for members in groups.values():
        dl = set()
        for x in members:
            dl |= _traced_within(c, d_labels, x)
        cl = set(dl)
        for comp in comps:
            if any(c.crosses(y, z) for y in comp for z in dl):
                cl |= set(comp)
        parts.append((max(c.sink(x) for x in members), cl))

    parts.sort(key=lambda pr: -pr[0])
    return [(c.subdiagram(sorted(cl)),
             tuple(sorted(pos_of[y] for y in cl if pos_of[y] <= j)))
            for _, cl in parts]


def _relabel_tree(t, values):
    return (values[t[0]], tuple(_relabel_tree(k, values) for k in t[1]))


def theta(t):
    """Recurse on the alpha-parts, relabelling each subtree by its block."""
    if not is_one_terminal(t):
        raise ValueError("theta requires a one-terminal diagram")
    if t.n == 1:
        return (0, ())
    return (0, tuple(_relabel_tree(theta(p), list(block)) for p, block in alpha(t)))


def theta_inverse(t):
    def labels_of(node):
        out = [node[0]]
        for k in node[1]:
            out.extend(labels_of(k))
        return out

    def normalize(node, rank):
        return (rank[node[0]], tuple(normalize(k, rank) for k in node[1]))

    parts = []
    for k in t[1]:
        block = sorted(labels_of(k))
        rank = {v: r for r, v in enumerate(block)}
        parts.append((theta_inverse(normalize(k, rank)), tuple(block)))
    return beta(parts)


def nonnesting_induced_path(d, a, b):
    """Is there an induced path from a to b of pairwise non-nesting chords?
    Extends every path by each chord that crosses its last chord and is
    disjoint from the others, read off `relation()`."""
    if a == b:
        return True

    def extend(path):
        last = path[-1]
        for w in range(1, d.n + 1):
            if w in path or not d.crosses(last, w):
                continue
            if any(d.relation(u, w) != "disjoint" for u in path[:-1]):
                continue
            if w == b or extend(path + (w,)):
                return True
        return False

    return extend((a,))
