"""Test-only oracles: the recursive, definition-following versions of the
maps that chordlab computes on crossing masks and explicit stacks, the
point-by-point relabellings that chordlab replaces with one label layout,
the recursive pair generator, gamma by face clustering and validate
over an undirected edge set, the full mask search for the intersection
order, the root-share split by a search over raw pairs, the source-sink
groups by sorted points and set lookups, the path-by-path search for
non-nesting induced paths, the crossing masks of a root-insertion child
shifted from its parent's, and the point walks that chordlab replaces
with closed forms: each chord's valency parts and its apart mask, which
read the partner array of the points.

They share with the fast paths only ChordDiagram itself (its validating
constructor, `relation` and `point_labels`), the intersection
order, t1, the terminal chords and the Triangulation type, which are
tested on their own. `mask_order` uses the crossing masks and
`component_mask`, not the order's own search, and the valency walk reads
the crossing masks for its left neighbors.
"""

from chordlab.diagram import ChordDiagram, component_mask
from chordlab.structure import (
    intersection_order,
    is_one_terminal,
    t1,
    terminal_labels,
)
from chordlab.triangulation import Triangulation


def partners(d):
    """Partner array over points 1..2n (entry p-1 holds the match of p)."""
    arr = [0] * (2 * d.n)
    for a, b in d.pairs:
        arr[a - 1] = b
        arr[b - 1] = a
    return tuple(arr)


def root_masks(adj, r):
    """The crossing masks of the child under a new root that crosses the
    chords of the mask r, from the parent's masks adj, with no child
    built: the root is chord 1, and every chord moves up one label."""
    return (r << 1, *[m << 1 | r >> j & 1 for j, m in enumerate(adj)])


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
    partner = partners(t)
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
    partner = partners(big)
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


def _third(f, u, v):
    # the vertex after v when f is read cyclically from u
    i = f.index(u)
    assert f[(i + 1) % 3] == v
    return f[(i + 2) % 3]


def gamma(t):
    """Peel the apex by a directed edge -> face map of its own, cluster the
    other faces by a union-find over shared undirected edges, and give each
    piece every cluster that touches one of its boundary edges."""
    if len(t.boundary) < 3:
        raise ValueError("gamma needs at least one bounded face")
    apex = t.boundary[-1]
    face_dir = {}
    for f in t.faces:
        for i in range(3):
            face_dir[(f[i], f[(i + 1) % 3])] = f
    walk = [t.boundary[0]]
    x = t.boundary[0]
    while (x, apex) in face_dir:
        x = _third(face_dir[(x, apex)], x, apex)
        walk.append(x)
    bpos = {v: q for q, v in enumerate(t.boundary)}
    cuts = [r for r in range(1, len(walk)) if walk[r] in bpos]
    spans = [bpos[walk[r]] for r in cuts]
    assert spans == sorted(spans) and spans[-1] == len(t.boundary) - 2

    inner = [f for f in t.faces if apex not in f]
    parent = {f: f for f in inner}

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    owner = {}
    for f in inner:
        for i in range(3):
            e = frozenset((f[i], f[(i + 1) % 3]))
            if e in owner:
                parent[find(owner[e])] = find(f)
            else:
                owner[e] = f
    clusters = {}
    for f in inner:
        clusters.setdefault(find(f), []).append(f)

    out = []
    prev_cut = 0
    prev_span = 0
    for r, s in zip(cuts, spans):
        seg = walk[prev_cut + 1:r + 1]
        b = list(t.boundary[prev_span:s + 1]) + list(reversed(seg))[1:]
        bset = {frozenset((b[i], b[(i + 1) % len(b)])) for i in range(len(b))}
        faces = []
        for rep, fs in clusters.items():
            if any(
                frozenset((f[i], f[(i + 1) % 3])) in bset
                for f in fs
                for i in range(3)
            ):
                faces.extend(fs)
                clusters[rep] = []
        clusters = {k: v for k, v in clusters.items() if v}
        out.append((Triangulation(faces, b), s - prev_span))
        prev_cut, prev_span = r, s
    assert not clusters, "every face cluster belongs to a piece"
    return out


def validate(t):
    """Check a triangulation over its set of undirected edges: both sides
    of each in the corner map, the directed edges paired, one rotation
    cycle per vertex, connected, and Euler's count."""
    b = t.boundary
    if len(b) < 2 or len(set(b)) != len(b):
        raise ValueError("boundary must be a simple walk of >= 2 vertices")
    for f in t.faces:
        if len(f) != 3 or len(set(f)) != 3:
            raise ValueError("faces must be triangles")
    corner = t.corner_map()
    es = set()
    for i in range(len(b)):
        es.add(frozenset((b[i], b[(i + 1) % len(b)])))
    for f in t.faces:
        for i in range(3):
            es.add(frozenset((f[i], f[(i + 1) % 3])))
    for e in es:
        u, v = tuple(e)
        if u == v:
            raise ValueError("loop edge")
        if (u, v) not in corner or (v, u) not in corner:
            raise ValueError("edge missing a side: %r" % (e,))
    if len(corner) != 2 * len(es):
        raise ValueError("directed edges do not pair up")
    nbr = {}
    for u, v in corner:
        nbr.setdefault(v, set()).add(u)
    for v, ns in nbr.items():
        start = next(iter(ns))
        x, cnt = start, 0
        while True:
            x = corner[(x, v)]
            cnt += 1
            if x == start:
                break
            if cnt > len(ns):
                raise ValueError("split rotation at vertex %d" % v)
        if cnt != len(ns):
            raise ValueError("split rotation at vertex %d" % v)
    verts = t.vertices()
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in nbr.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(verts):
        raise ValueError("not connected")
    if len(verts) - len(es) + len(t.faces) + 1 != 2:
        raise ValueError("Euler count failed")


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


def valency_parts(d):
    """(k, l) for every chord i, by a walk over the points inside i: k counts
    left neighbors crossing nothing later than i; l counts the closed chord
    blocks packed consecutively after i's source once all left neighbors
    are deleted, stopping at i's own sink or at a block that cannot close
    before reaching it."""
    adj = d.adjacency()
    partner = partners(d)
    out = []
    for i, (x, y) in enumerate(d.pairs, 1):
        # a left neighbor b crosses no chord after i iff its mask has no bit >= i
        left = [b for b in range(1, i) if adj[i - 1] >> (b - 1) & 1]
        k = sum(1 for b in left if not adj[b - 1] >> i)
        # inside (x, y), a point whose partner lies left of x is the sink of
        # a left neighbor, so it is skipped as deleted; every other point
        # there belongs to a chord nested in i or to a right neighbor
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
        out.append((k, l))
    return out


def apart_masks(d):
    """Per chord (0-based), the mask of the chords closed before its source
    or opened after its sink, from one walk over the points."""
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
