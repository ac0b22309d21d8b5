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
labels.  alpha runs on the crossing masks (_alpha_parts): it takes a chord
set with its intersection order and returns each part as a chord mask, a
block and the part's order, which is the parent's order restricted to the
part, so a walk over the part tree (omega's) computes one order in all.
The part diagrams that alpha returns keep that order, and the parts of
alpha and root share are marked connected, so beta and
root_share_compose check them with no component scan and no new order;
psi and theta need no scan either, since one terminal chord makes a
diagram connected.  One downward scan of the masks traces every
neighbor of the terminal chord, and a leftover component meets a chord
set when the OR of its masks does.  In a one-terminal diagram the part
tree is the tree of latest crossing chords (_top_tree): theta reads its
labels off that tree, and theta_inverse rebuilds the chord order from
the labels and lays out one word, each chord's source followed by its
children's sinks.  zeta and zeta_inverse are loops over the
root-removal sequence: chord k goes in after the live points inside it,
counted from the source order and the right-neighbor masks.  The tree
maps run on explicit stacks.
"""

from __future__ import annotations

from bisect import bisect_left

from .diagram import ChordDiagram, _mask_labels, _set_connected, _set_order, component_mask
from .structure import _order, is_one_terminal, source_sink_groups, t1, terminal_labels

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
    parts = _alpha_parts(c.adjacency(), c.pairs, _order(c), (1 << c.n) - 1)
    subs = _subdiagrams(c, [mask for mask, _, _ in parts], [order for _, _, order in parts])
    return [(sub, block) for sub, (_, block, _) in zip(subs, parts)]


def _first_terminal(adj: tuple[int, ...], order, mask: int) -> int:
    # index in `order` of the first chord that crosses no later chord of
    # mask; the last chord of mask is one
    return next(j for j, x in enumerate(order) if not (adj[x - 1] & mask) >> x)


def _alpha_parts(adj: tuple[int, ...], pairs, order, mask: int) -> list[tuple[int, tuple, list]]:
    """alpha on the connected chord set `mask` (two chords or more) of a
    diagram with crossing masks `adj` and chords `pairs`, where `order` is
    the intersection order of the chord set, as the diagram's labels.

    Returns the parts as (chord mask, block, order), where a part's order
    is `order` restricted to its chords: every alpha part inherits its
    parent's order, so the walks over the part tree never recompute one.
    """
    j = _first_terminal(adj, order, mask)
    term = order[j]
    d_mask = 0
    for x in order[:j + 1]:
        d_mask |= 1 << (x - 1)
    neighbors = adj[term - 1] & mask
    assert not neighbors & ~d_mask

    # the indecomposable components of C - D as [chords, chords they
    # cross]: in source order, a component starts at a source past every
    # sink so far
    comps: list[list[int]] = []
    end = 0
    for x in _mask_labels(mask ^ d_mask):
        a, b = pairs[x - 1]
        if a > end:
            comps.append([0, 0])
        comps[-1][0] |= 1 << (x - 1)
        comps[-1][1] |= adj[x - 1]
        end = max(end, b)

    # group the terminal chord's neighbors: two neighbors stick together
    # when some leftover component crosses both (transitively).  The parts
    # come in order of their neighbors' latest sink, last first.
    groups = [1 << (x - 1) for x in _mask_labels(neighbors)]
    for _, reach in comps:
        touched = neighbors & reach
        joined = [g for g in groups if g & touched]
        if len(joined) > 1:
            groups = [g for g in groups if not g & touched]
            groups.append(sum(joined))  # the masks are disjoint
    groups.sort(key=lambda g: -max(pairs[x - 1][1] for x in _mask_labels(g)))

    # each part: its group, the traced subdiagrams in D of the group's
    # chords, and the leftover components crossing those.  A chord of D
    # joins the traced subdiagram holding its latest crossing chord in D,
    # if that chord is later than itself (structure.traced_mask), so one
    # downward scan of D traces every neighbor at once.
    part: dict[int, int] = {}
    for r, g in enumerate(groups):
        for x in _mask_labels(g):
            part[x] = r
    for x in reversed(_mask_labels(d_mask ^ neighbors)):
        top = (adj[x - 1] & d_mask).bit_length()
        if top > x and top in part:
            part[x] = part[top]
    for chords, reach in comps:
        touched = reach & d_mask
        r = part[(touched & -touched).bit_length()]
        for x in _mask_labels(chords):
            part[x] = r

    # one pass over `order` gives each part its chords, order and block
    masks = [0] * len(groups)
    blocks: list[list[int]] = [[] for _ in groups]
    orders: list[list[int]] = [[] for _ in groups]
    for p, x in enumerate(order, 1):
        if x != term:
            r = part[x]
            masks[r] |= 1 << (x - 1)
            orders[r].append(x)
            if p <= j:
                blocks[r].append(p)
    assert sum(masks) == mask ^ (1 << (term - 1)), "parts must partition C - term"
    return [(m, tuple(b), o) for m, b, o in zip(masks, blocks, orders)]


def _subdiagrams(c: ChordDiagram, masks: list[int], orders=None) -> list[ChordDiagram]:
    # the subdiagram on each chord set, from one pass over c's points; a
    # chord's label in its part is its rank there, which is standard form.
    # Every chord set is connected, and `orders`, if given, holds their
    # intersection orders in c's labels: each part keeps both, relabelled.
    part = [-1] * (c.n + 1)
    rank = [0] * (c.n + 1)
    for r, m in enumerate(masks):
        for i, x in enumerate(_mask_labels(m), 1):
            part[x] = r
            rank[x] = i
    words: list[list[int]] = [[] for _ in masks]
    for x in c.point_labels():
        if part[x] >= 0:
            words[part[x]].append(rank[x])
    subs = [ChordDiagram._from_point_labels(w) for w in words]
    for r, sub in enumerate(subs):
        _set_connected(sub, True)
        if orders is not None:
            _set_order(sub, tuple([rank[x] for x in orders[r]]))
    return subs


def _top_tree(adj: tuple[int, ...], pairs, mask: int) -> dict[int, list[int]]:
    """The alpha-part tree of the one-terminal chord set `mask`: each chord
    with the chords whose latest crossing chord in `mask` it is, latest
    sink first.  Its root is the last chord, the terminal one.

    Removing the root of a one-terminal diagram leaves a one-terminal
    diagram (each crossing component holds a terminal chord), so its
    intersection order is the source order, t1 = n and D is every chord.
    There are no leftover components, and the part of a neighbor x of the
    last chord is x's traced subdiagram: x's subtree here.  That part is
    one-terminal again, with the same tree below x.
    """
    labels = _mask_labels(mask)
    kids: dict[int, list[int]] = {x: [] for x in labels}
    for x in sorted(labels[:-1], key=lambda y: -pairs[y - 1][1]):
        kids[(adj[x - 1] & mask).bit_length()].append(x)
    return kids


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
    # a part's chord i is the letter off + i, off counting the chords of
    # the parts before it, and the new chord is the last letter.  One slot
    # per position 1..j, then the new source, then the unused tails of the
    # parts in reverse order, then the new sink.
    slots: list[list[int]] = [[] for _ in range(j)]
    tails: list[list[int]] = []
    off = 0
    for (p, _), b in zip(parts, blocks):
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
    full = (1 << c.n) - 1
    c2 = component_mask(c.adjacency(), 0b10, full ^ 1)
    sub1, sub2 = _subdiagrams(c, [full ^ c2, c2])
    # every point between the root's source and C1's second point is C2's
    labels = c.point_labels()
    idx = 0
    while c2 >> (labels[idx + 1] - 1) & 1:
        idx += 1
    assert 1 <= idx <= 2 * sub2.n - 1
    return sub1, sub2, idx


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
    # In the recursion, the value a part gives its chord y is the value its
    # parent gives the chord after y there, the whole diagram gives chord y
    # the value y - 1 (its orders are source orders, see _top_tree), and a
    # part's label is the value it gives its first chord.  So the label of
    # the part whose root is chord x comes from a walk: start at the first
    # chord of x's part, step to the next chord in each enclosing part,
    # from x's parent up to the whole diagram, and subtract one.  All walks
    # run at once, children before parents: each part keeps its chords in
    # order and, beside them, the nodes whose walks stand there, on every
    # chord but the first.  A part merges its children's lists, then puts
    # its own walk in front and its own chord, the last, at the end, which
    # moves every walk to the next chord.
    kids = _top_tree(t.adjacency(), t.pairs, (1 << t.n) - 1)
    frames: dict[int, tuple[list[int], list[int]]] = {}
    for x in kids:  # children before parents
        chords, walks = _merged([frames.pop(k) for k in kids[x]])
        chords.append(x)
        walks.insert(0, x)
        frames[x] = chords, walks
    # the walk standing on chord i + 1 gives label i
    label = {x: i for i, x in enumerate(walks)}
    return _freeze(range(t.n), [[label[k] for k in kids[x]] for x in walks])


def theta_inverse(t: Tree) -> ChordDiagram:
    """Inverse of theta: rebuild the one-terminal diagram from the tree."""
    check_tree(t)
    nodes = [t]
    kids: list[list[int]] = []
    for node in nodes:  # grows while it is read: breadth first, parents first
        kids.append(list(range(len(nodes), len(nodes) + len(node[1]))))
        nodes.extend(node[1])
    # theta's walks backwards, children before parents: each subtree keeps
    # its labels in order and, beside each, the node whose chord's position
    # in the subtree's diagram is one more than the label's rank.  beta
    # moves a child's chord from position r + 1 to the parent's position
    # for the child's label of rank r, its rank among the parent's labels.
    # So a node merges its children's lists, then puts its own label, the
    # smallest, in front and itself, whose chord is the last, at the end.
    frames: list = [None] * len(nodes)
    for v in range(len(nodes) - 1, -1, -1):
        labels, at = _merged([frames[k] for k in kids[v]])
        for k in kids[v]:
            frames[k] = None
        labels.insert(0, nodes[v][0])
        at.append(v)
        frames[v] = labels, at
    # each node's chord in order: its source, then the sinks of its
    # children's chords, last child first; the root's sink closes the word
    pos = [0] * len(nodes)
    for p, v in enumerate(at, 1):
        pos[v] = p
    word: list[int] = []
    for p, v in enumerate(at, 1):
        word.append(p)
        word.extend(pos[k] for k in reversed(kids[v]))
    word.append(len(at))
    return ChordDiagram._from_point_labels(word)


def _merged(frames: list[tuple[list[int], list[int]]]) -> tuple[list[int], list[int]]:
    # (keys, values) lists with ascending keys, merged into the longest:
    # each value stays with its key
    if not frames:
        return [], []
    frames.sort(key=lambda f: -len(f[0]))
    keys, values = frames[0]
    for ks, vs in frames[1:]:
        for k, v in zip(ks, vs):
            i = bisect_left(keys, k)
            keys.insert(i, k)
            values.insert(i, v)
    return keys, values
