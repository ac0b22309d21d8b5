"""Bijections on rooted chord diagrams.

psi / chi        one-terminal diagrams of size n <-> all diagrams of size n-1
alpha / beta     splitting a connected diagram at its first terminal chord
zeta             diagrams <-> Stirling words
eta              increasing ordered trees <-> Stirling words
theta            one-terminal diagrams <-> increasing ordered trees
root share       connected diagrams <-> (smaller connected) x (connected) x index

Each public map validates its input once; none recurses per chord or per
tree level.  psi, chi, beta, root share and zeta_inverse each lay out the
chord labels of their result along its points and hand that one layout to
the trusted constructor ChordDiagram._from_point_labels, which joins equal
labels.  alpha works on the crossing masks: a traced subdiagram is one
downward scan of the masks restricted to the chords before the first
terminal one (structure.traced_mask), and a leftover component meets a
chord set when the OR of its masks does.  zeta and zeta_inverse are loops
over the root-removal sequence: chord k goes in after the live points
inside it, counted from the source order and the right-neighbor masks.
theta, theta_inverse and the tree maps run on explicit stacks.
"""

from __future__ import annotations

from bisect import bisect_left

from .diagram import ChordDiagram, _mask_labels
from .structure import (
    intersection_order,
    is_one_terminal,
    source_sink_groups,
    t1,
    terminal_labels,
    traced_mask,
)

# parts: (component diagram, block of intersection-order positions)
Parts = list[tuple[ChordDiagram, tuple[int, ...]]]

# increasing ordered tree: (label, (child, child, ...))
Tree = tuple


def psi(t: ChordDiagram) -> ChordDiagram:
    """Map a one-terminal diagram of size n to a diagram of size n-1.

    Each source hops over the run of sinks that follows it, then the
    chord that was terminal is deleted.
    """
    if not is_one_terminal(t):
        raise ValueError("psi requires a one-terminal diagram")
    # a point is a source iff its label is the next new one (standard
    # form); each source is held back until the next source, so it lands
    # after the sinks that follow it.  Only the terminal chord, whose
    # letters are dropped, can land after its own sink.
    out: list[int] = []
    nxt = 1
    for x in t.point_labels():
        if x == nxt:
            if x > 1:
                out.append(x - 1)
            nxt += 1
        else:
            out.append(x)
    out.append(nxt - 1)
    term = terminal_labels(t)[0]
    return ChordDiagram._from_point_labels([x for x in out if x != term])


def chi(c: ChordDiagram) -> ChordDiagram:
    """Inverse of psi: append a fresh terminal chord, then pull every
    source in front of the sink run that precedes it."""
    out: list[int] = []
    run: list[int] = []
    nxt = 1
    for x in c.point_labels() + (c.n + 1, c.n + 1):
        if x == nxt:  # a source
            nxt += 1
            out.append(x)
            out.extend(run)
            run = []
        else:
            run.append(x)
    out.extend(run)
    return ChordDiagram._from_point_labels(out)


def alpha(c: ChordDiagram) -> Parts:
    """Split a connected diagram of size >= 2 at its first terminal chord.

    Returns parts (C_l, I_l): C_l a connected subdiagram, I_l the block of
    intersection-order positions (within 1..t1-1) it occupies.  beta
    inverts this.
    """
    if not c.is_connected() or c.n < 2:
        raise ValueError("alpha requires a connected diagram of size >= 2")
    return _alpha(c)


def _alpha(c: ChordDiagram) -> Parts:
    # alpha on a diagram already known to be connected, of size >= 2
    adj = c.adjacency()
    order = intersection_order(c)
    j = t1(c) - 1
    term = order[j]
    pos_of = [0] * (c.n + 1)
    for r, lbl in enumerate(order, 1):
        pos_of[lbl] = r
    d_mask = 0
    for lbl in order[:j + 1]:
        d_mask |= 1 << (lbl - 1)
    neighbors = adj[term - 1]
    assert not neighbors & ~d_mask

    # the indecomposable components of C - D, each as (chords, chords it crosses)
    full = (1 << c.n) - 1
    rest = _mask_labels(full ^ d_mask)
    comps: list[tuple[int, int]] = []
    if rest:
        for comp in c.subdiagram(rest).indecomposable_components():
            mask = reach = 0
            for i in comp:
                y = rest[i - 1]
                mask |= 1 << (y - 1)
                reach |= adj[y - 1]
            comps.append((mask, reach))

    # group the terminal chord's neighbors: two neighbors stick together
    # when some leftover component crosses both (transitively)
    groups = [1 << (x - 1) for x in _mask_labels(neighbors)]
    for _, reach in comps:
        touched = neighbors & reach
        joined = [g for g in groups if g & touched]
        if len(joined) > 1:
            groups = [g for g in groups if not g & touched]
            groups.append(sum(joined))  # the masks are disjoint

    parts: list[tuple[int, int]] = []
    for members in groups:
        dl = 0
        for x in _mask_labels(members):
            dl |= traced_mask(adj, x, d_mask)
        cl = dl
        for mask, reach in comps:
            if reach & dl:
                cl |= mask
        attach = max(c.sink(x) for x in _mask_labels(members))
        parts.append((attach, cl))

    parts.sort(key=lambda pr: -pr[0])
    seen = 0
    out: Parts = []
    for _, cl in parts:
        assert not cl & seen, "parts must be disjoint"
        seen |= cl
        labels = _mask_labels(cl)
        block = tuple(sorted(pos_of[y] for y in labels if pos_of[y] <= j))
        out.append((c.subdiagram(labels), block))
    assert seen == full ^ (1 << (term - 1)), "parts must cover C - term"
    flat = sorted(x for _, b in out for x in b)
    assert flat == list(range(1, j + 1)), "blocks must partition 1..t1-1"
    return out


def beta(parts: Parts) -> ChordDiagram:
    """Rebuild the connected diagram whose alpha-decomposition is `parts`.

    An empty list gives the single chord.
    """
    blocks = [tuple(sorted(block)) for _, block in parts]
    j = sum(len(b) for b in blocks)
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(1, j + 1)):
        raise ValueError("blocks must partition 1..j")
    for (p, _), b in zip(parts, blocks):
        if not p.is_connected():
            raise ValueError("parts must be connected")
        if not 1 <= len(b) <= t1(p):
            raise ValueError("block size must be between 1 and t1(part)")
    return _beta([(p, b) for (p, _), b in zip(parts, blocks)])


def _beta(parts: Parts) -> ChordDiagram:
    # beta on valid parts whose blocks are sorted; a part's chord i is the
    # letter off + i, off counting the chords of the parts before it, and
    # the new chord is the last letter
    j = sum(len(b) for _, b in parts)
    # one slot per position 1..j, then the new source, then the unused
    # tails of the parts in reverse order, then the new sink
    slots: list[list[int]] = [[] for _ in range(j)]
    tails: list[list[int]] = []
    off = 0
    for p, b in parts:
        w = p.point_labels()
        groups = source_sink_groups(p, m=len(b))
        used: set[int] = set()
        for r, g in enumerate(groups.values()):
            slots[b[r] - 1] = [off + w[pt - 1] for pt in g]
            used.update(g)
        tails.append([off + x for pt, x in enumerate(w, 1) if pt not in used])
        off += p.n

    layout = [x for s in slots for x in s]
    layout.append(off + 1)
    for tail in reversed(tails):
        layout.extend(tail)
    layout.append(off + 1)
    return ChordDiagram._from_point_labels(layout)


def root_share_decompose(c: ChordDiagram) -> tuple[ChordDiagram, ChordDiagram, int]:
    """Split a connected diagram of size >= 2 as (C1, C2, idx): C2 is the
    outermost crossing component after deleting the root, C1 the rest
    (root included), idx how many C2 endpoints precede C1's second point."""
    if not c.is_connected() or c.n < 2:
        raise ValueError("root share requires a connected diagram of size >= 2")
    rest = list(range(2, c.n + 1))
    sub = c.subdiagram(rest)
    first = sub.components()[0]
    c2_labels = sorted(x + 1 for x in first)
    c1_labels = sorted(set(range(1, c.n + 1)) - set(c2_labels))
    c2_points = sorted(p for lbl in c2_labels for p in c.chord(lbl))
    c1_points = sorted(p for lbl in c1_labels for p in c.chord(lbl))
    e = c1_points[1]
    idx = sum(1 for p in c2_points if p < e)
    assert 1 <= idx <= 2 * len(c2_labels) - 1
    return c.subdiagram(c1_labels), c.subdiagram(c2_labels), idx


def root_share_compose(c1: ChordDiagram, c2: ChordDiagram, idx: int) -> ChordDiagram:
    """Inverse of root_share_decompose: thread the first idx endpoints of
    C2 under C1's root."""
    if not c1.is_connected() or not c2.is_connected():
        raise ValueError("root share composes connected diagrams")
    if not 1 <= idx <= 2 * c2.n - 1:
        raise ValueError("index out of range")
    w1 = c1.point_labels()
    w2 = tuple(c1.n + x for x in c2.point_labels())
    return ChordDiagram._from_point_labels(w1[:1] + w2[:idx] + w1[1:] + w2[idx:])


def zeta(c: ChordDiagram) -> tuple[int, ...]:
    """Encode a diagram as a Stirling word: recursively insert the pair
    `n n` at the gap just before where the root sink sat."""
    # removing the root n times removes chords 1, 2, ..., n; so build the
    # word from chord n up, inserting chord k's pair after the live points
    # inside it: twice the later sources inside it less its right neighbors
    n = c.n
    adj = c.adjacency()
    sources = [a for a, _ in c.pairs]
    word: list[int] = []
    for k in range(n, 0, -1):
        inside = bisect_left(sources, c.pairs[k - 1][1]) - k
        at = 2 * inside - (adj[k - 1] >> k).bit_count()
        s = n - k + 1
        word[at:at] = (s, s)
    return tuple(word)


def _stirling_check(w: tuple[int, ...]) -> int:
    n, r = divmod(len(w), 2)
    if r:
        raise ValueError("word length must be even")
    copies = [0] * (n + 1)
    for s in w:
        if not 0 < s <= n or copies[s] == 2:
            raise ValueError("word must use each of 1..n exactly twice")
        copies[s] += 1
    # the open symbols increase toward the top of the stack, and a symbol
    # closes only from the top
    stack = [0]
    for s in w:
        if s > stack[-1]:
            stack.append(s)
        elif s == stack[-1]:
            stack.pop()
        else:
            raise ValueError("smaller symbol between the two copies of %d"
                             % _first_unstirling(w, n))
    return n


def _first_unstirling(w: tuple[int, ...], n: int) -> int:
    # the smallest symbol with a smaller one between its copies
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, s in enumerate(w):
        if s in first:
            last[s] = i
        else:
            first[s] = i
    return next(s for s in range(1, n + 1)
                if any(x < s for x in w[first[s] + 1:last[s]]))


def zeta_inverse(w) -> ChordDiagram:
    """Decode a Stirling word back into the unique diagram mapping to it."""
    w = tuple(int(x) for x in w)
    n = _stirling_check(w)
    # peel n, n-1, ..., 1: symbol s stands for chord n-s+1, and where its
    # two copies sit, that chord's sink follows its source and `at` points
    rest = list(w)
    ats = []
    for s in range(n, 0, -1):
        at = rest.index(s)
        del rest[at:at + 2]
        ats.append(at)
    # put chords n, n-1, ..., 1 back; the chord labels in point order are
    # kept reversed, so that each new source is an append
    points: list[int] = []
    for k in range(n, 0, -1):
        points.insert(len(points) - ats[k - 1], k)
        points.append(k)
    return ChordDiagram._from_point_labels(points[::-1])


def check_tree(t: Tree) -> int:
    """Validate an increasing ordered tree (label, children); root label 0,
    labels 0..n each once, child labels exceed parents.  Returns n."""
    if not isinstance(t, tuple) or len(t) != 2:
        raise ValueError("tree nodes are (label, children) pairs")
    if t[0] != 0:
        raise ValueError("root label must be 0")
    labels: list[int] = []
    stack = [(-1, t)]  # (parent label, node), popped in preorder
    while stack:
        up, node = stack.pop()
        if node[0] <= up:
            raise ValueError("labels must increase away from the root")
        lbl, kids = node
        labels.append(lbl)
        stack.extend((lbl, k) for k in reversed(kids))
    if sorted(labels) != list(range(len(labels))):
        raise ValueError("labels must be exactly 0..n")
    return len(labels) - 1


def _freeze(label: list[int], kids: list[list[int]]) -> Tree:
    # nested tuples from nodes numbered parents first, node 0 the root
    done: list = [None] * len(label)
    for v in range(len(label) - 1, -1, -1):
        done[v] = (label[v], tuple(done[k] for k in kids[v]))
    return done[0]


def eta(t: Tree) -> tuple[int, ...]:
    """Read a Stirling word off an increasing ordered tree: each edge
    contributes the child's label on the way down and on the way back."""
    check_tree(t)
    out: list[int] = []
    # nodes to enter, and (label,) markers to leave them
    stack = list(reversed(t[1]))
    while stack:
        node = stack.pop()
        out.append(node[0])
        if len(node) == 2:
            stack.append((node[0],))
            stack.extend(reversed(node[1]))
    return tuple(out)


def eta_inverse(w) -> Tree:
    """Parse a Stirling word into the increasing ordered tree tracing it."""
    w = tuple(int(x) for x in w)
    _stirling_check(w)
    label = [0]
    kids: list[list[int]] = [[]]
    stack = [0]
    for s in w:
        v = stack[-1]
        if label[v] == s:
            stack.pop()
        else:
            kids[v].append(len(label))
            stack.append(len(label))
            label.append(s)
            kids.append([])
    if len(stack) != 1:
        raise ValueError("unbalanced word")
    return _freeze(label, kids)


def theta(t: ChordDiagram) -> Tree:
    """Turn a one-terminal diagram of size n+1 into an increasing ordered
    tree on labels 0..n by recursing on the alpha-parts."""
    if not is_one_terminal(t):
        raise ValueError("theta requires a one-terminal diagram")
    # the alpha-parts of a one-terminal diagram are one-terminal; each node
    # is (part, tree label of each label of the part's own tree)
    label = [0]
    kids: list[list[int]] = [[]]
    todo = [(t, list(range(t.n)), 0)]
    while todo:
        p, values, v = todo.pop()
        if p.n == 1:
            continue
        for q, block in _alpha(p):
            assert len(block) == q.n, "one-terminal parts fill their blocks"
            sub = [values[b] for b in block]
            kids[v].append(len(label))
            todo.append((q, sub, len(label)))
            label.append(sub[0])
            kids.append([])
    return _freeze(label, kids)


def theta_inverse(t: Tree) -> ChordDiagram:
    """Inverse of theta: rebuild the one-terminal diagram from the tree."""
    check_tree(t)
    nodes = [t]
    kids: list[list[int]] = []
    for node in nodes:  # grows while it is read: breadth first, parents first
        kids.append(list(range(len(nodes), len(nodes) + len(node[1]))))
        nodes.extend(node[1])
    # children before parents: each subtree's sorted labels and diagram;
    # a child's block holds the ranks of its labels among its parent's
    labels: list = [None] * len(nodes)
    built: list = [None] * len(nodes)
    for v in range(len(nodes) - 1, -1, -1):
        lab = sorted([nodes[v][0], *(x for k in kids[v] for x in labels[k])])
        rank = {x: r for r, x in enumerate(lab)}
        built[v] = _beta([(built[k], tuple(rank[x] for x in labels[k])) for k in kids[v]])
        labels[v] = lab
        for k in kids[v]:
            labels[k] = built[k] = None
    return built[0]
