"""Test-only oracles: the recursive, definition-following versions of the
maps that chordlab computes on crossing masks and explicit stacks, the
recursive pair generator, and the full mask search for the intersection
order.

They share with the fast paths only ChordDiagram itself, the intersection
order, t1 and beta, which are tested on their own. `mask_order` uses the
crossing masks and `component_mask`, not the order's own search.
"""

from chordlab.bijections import beta
from chordlab.diagram import ChordDiagram, component_mask
from chordlab.structure import intersection_order, is_one_terminal, t1


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
