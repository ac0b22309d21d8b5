"""Rooted plane triangulations of a polygon, and the maps omega / gamma
between them and connected top-cycle-free diagrams.

omega walks the diagram's tree of alpha parts on its crossing masks, each
part with the order it inherits (bijections._alpha_parts, and _top_tree
once a part is one-terminal).  It then joins the parts' boundaries
children first, puts every face in one list and rotates each face once,
at the end.  gamma reads the corner map alone: it walks the apex's fan,
then floods each piece's faces from the fan edges below it.
"""

from __future__ import annotations

from .bijections import _alpha_parts, _first_terminal, _top_tree
from .diagram import ChordDiagram
from .patterns import contains_any_top_cycle
from .structure import _order


def _rot_min(f: tuple[int, int, int]) -> tuple[int, int, int]:
    # rotate an oriented triple so its smallest vertex leads
    i = f.index(min(f))
    return f[i:] + f[:i]


class Triangulation:
    """A rooted plane triangulation of a polygon.

    `boundary` walks the outer face once; the root edge joins boundary[0]
    to boundary[-1].  `faces` holds the bounded faces as oriented triples,
    each rotated so its smallest vertex leads.  Face orientation is
    opposite to the boundary walk, so every directed edge lies on exactly
    one side: a bounded face or the outer walk.
    """

    __slots__ = ("faces", "boundary")

    def __init__(self, faces, boundary):
        _init(self, frozenset(_rot_min(tuple(f)) for f in faces), boundary)

    @classmethod
    def _trusted(cls, faces, boundary) -> "Triangulation":
        """Wrap faces already rotated so their smallest vertex leads,
        without rotating them again."""
        t = object.__new__(cls)
        _init(t, frozenset(faces), boundary)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Triangulation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.faces == other.faces
            and self.boundary == other.boundary
        )

    def __hash__(self) -> int:
        return hash((self.faces, self.boundary))

    def __repr__(self) -> str:
        return "Triangulation(%s, %r)" % (sorted(self.faces), list(self.boundary))

    def vertices(self) -> list[int]:
        vs = set(self.boundary)
        for f in self.faces:
            vs.update(f)
        return sorted(vs)

    def corner_map(self) -> dict[tuple[int, int], int]:
        """For each directed edge (u, v): the exit vertex w such that the
        walk u -> v -> w turns inside the face owning (u, v)."""
        corner: dict[tuple[int, int], int] = {}
        cycles = [tuple(f) for f in self.faces] + [self.boundary]
        for cyc in cycles:
            m = len(cyc)
            for i in range(m):
                key = (cyc[i], cyc[(i + 1) % m])
                if key in corner:
                    raise ValueError("directed edge on two faces: %r" % (key,))
                corner[key] = cyc[(i + 2) % m]
        return corner

    def validate(self) -> None:
        b = self.boundary
        if len(b) < 2 or len(set(b)) != len(b):
            raise ValueError("boundary must be a simple walk of >= 2 vertices")
        for f in self.faces:
            if len(f) != 3 or len(set(f)) != 3:
                raise ValueError("faces must be triangles")
        corner = self.corner_map()
        for u, v in corner:
            if (v, u) not in corner:
                raise ValueError("edge missing a side: %r" % ((u, v),))
        # single rotation cycle at every vertex
        nbr: dict[int, set[int]] = {}
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
        # connected
        verts = self.vertices()
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
        # Euler: V - E + (bounded faces + outer) = 2
        if len(verts) - len(corner) // 2 + len(self.faces) + 1 != 2:
            raise ValueError("Euler count failed")

    def canonical_code(self) -> str:
        """Label vertices by a breadth-first sweep from the root edge,
        reading each rotation from the entry edge; equal codes mean equal
        rooted plane triangulations."""
        corner = self.corner_map()
        root, anchor = self.boundary[0], self.boundary[-1]
        lab = {root: 0}
        entry = {root: anchor}
        queue = [root]
        rows: list[str] = []
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            u0 = entry[v]
            seq = []
            x = u0
            while True:
                seq.append(x)
                x = corner[(x, v)]
                if x == u0:
                    break
            row = []
            for w in seq:
                if w not in lab:
                    lab[w] = len(lab)
                    entry[w] = v
                    queue.append(w)
                row.append(lab[w])
            rows.append(",".join(map(str, row)))
        return ";".join(rows)


def _init(t: Triangulation, faces: frozenset, boundary) -> None:
    object.__setattr__(t, "faces", faces)
    object.__setattr__(t, "boundary", tuple(boundary))


def _build(c: ChordDiagram) -> Triangulation:
    # the tree of alpha parts, parents first: each node's children with
    # their block sizes.  A node is a (chord mask, order) pair, or a chord
    # of the _top_tree of a one-terminal part, whose own parts are the
    # subtrees below its children, each filling its block.
    adj, pairs = c.adjacency(), c.pairs
    below: dict[int, list[int]] = {}
    size: dict[int, int] = {}
    todo: list = [((1 << c.n) - 1, _order(c))]
    kids: list[list[tuple[int, int]]] = []
    for v, node in enumerate(todo):  # todo grows while it is read
        todo[v] = None
        if type(node) is int:
            parts = [(x, size[x]) for x in below.pop(node)]
        else:
            mask, order = node
            if _first_terminal(adj, order, mask) < len(order) - 1:
                parts = [((m, o), len(b)) for m, b, o in _alpha_parts(adj, pairs, order, mask)]
            else:  # one-terminal from here down
                tree = _top_tree(adj, pairs, mask)
                for x, ks in tree.items():  # children before parents
                    size[x] = 1 + sum(size[k] for k in ks)
                below.update(tree)
                parts = [(x, size[x]) for x in below.pop(order[-1])]
        kids.append([(len(todo) + r, i) for r, (_, i) in enumerate(parts)])
        todo.extend(p for p, _ in parts)
    # children before parents; each new vertex takes the next number.  The
    # faces go to one list, and a vertex merged into another at a join is
    # renamed once, at the end.
    faces: list[tuple[int, int, int]] = []
    merged: dict[int, int] = {}
    built: list = [None] * len(kids)
    nxt = 0
    for v in range(len(kids) - 1, -1, -1):
        if kids[v]:
            built[v] = _join([(built[k], i) for k, i in kids[v]], nxt, faces, merged)
            nxt += 1
            for k, _ in kids[v]:
                built[k] = None
        else:
            built[v] = [nxt, nxt + 1]
            nxt += 2
    return Triangulation(
        [tuple(merged.get(x, x) for x in f) for f in faces], built[0]
    )


def _join(pieces: list[tuple[list[int], int]], apex: int,
          faces: list[tuple[int, int, int]], merged: dict[int, int]) -> list[int]:
    # chain the pieces, given by their boundaries: each next piece's first
    # boundary vertex lands on the previous piece's boundary at its block
    # size.  That vertex leaves every boundary there, and the vertex it
    # lands on never becomes a first one, so one renaming is final.
    # Adds the new faces and returns the new boundary.
    first, i = pieces[0]
    # walk of the new bounded region: start at the far root corner, then
    # ride each piece's boundary backwards down to its join vertex
    walk = [first[0], *first[:i - 1:-1]]
    boundary = first
    del boundary[i + 1:]
    for b, i in pieces[1:]:
        merged[b[0]] = boundary[-1]
        walk.extend(b[:i - 1:-1])
        boundary.extend(b[1:i + 1])
    for r in range(len(walk) - 1):
        faces.append((walk[r + 1], walk[r], apex))
    boundary.append(apex)
    return boundary


def omega(c: ChordDiagram) -> Triangulation:
    """Map a connected top-cycle-free diagram of size n to a rooted plane
    triangulation with t1(C)+1 outer and n-t1(C) inner vertices."""
    if not c.is_connected():
        raise ValueError("omega requires a connected diagram")
    if contains_any_top_cycle(c):
        raise ValueError("omega requires a top-cycle-free diagram")
    return _build(c)


def gamma(t: Triangulation) -> list[tuple[Triangulation, int]]:
    """Peel the apex off a triangulation: returns the glued pieces and
    their block sizes, inverting the omega join step."""
    b = t.boundary
    if len(b) < 3:
        raise ValueError("gamma needs at least one bounded face")
    corner = t.corner_map()
    apex = b[-1]
    # fan walk: the apex's neighbours, from the root edge round to the
    # boundary edge (b[-2], apex)
    walk = [b[0]]
    while walk[-1] != b[-2]:
        walk.append(corner[(walk[-1], apex)])
    bpos = {v: q for q, v in enumerate(b)}
    cuts = [r for r in range(1, len(walk)) if walk[r] in bpos]
    spans = [bpos[walk[r]] for r in cuts]
    assert spans == sorted(spans) and spans[-1] == len(b) - 2

    # each piece is bounded by a stretch of b and the fan edges below it;
    # its faces are those reached from the inner side (walk[i], walk[i+1])
    # of those fan edges without crossing the piece's boundary, whose outer
    # sides start out seen
    out: list[tuple[Triangulation, int]] = []
    fan = {_rot_min((walk[i], apex, walk[i + 1])) for i in range(len(walk) - 1)}
    prev_cut = 0
    prev_span = 0
    for r, s in zip(cuts, spans):
        pb = list(b[prev_span:s + 1]) + walk[r - 1:prev_cut:-1]
        seen = {(pb[i - 1], pb[i]) for i in range(len(pb))}
        faces: list[tuple[int, int, int]] = []
        todo = [(walk[i], walk[i + 1]) for i in range(prev_cut, r)]
        while todo:
            u, v = e = todo.pop()
            if e in seen:
                continue
            w = corner[e]
            seen.update((e, (v, w), (w, u)))
            faces.append(_rot_min((u, v, w)))
            todo += ((w, v), (u, w))
        out.append((Triangulation._trusted(faces, pb), s - prev_span))
        prev_cut, prev_span = r, s
    assert t.faces == fan.union(*(p.faces for p, _ in out)), (
        "every face lies in the fan or in one piece")
    return out
