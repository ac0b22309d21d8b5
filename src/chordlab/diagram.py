"""Rooted chord diagrams as immutable values.

A diagram of size n is a perfect matching of the points 1..2n. Each chord
is stored as a (source, sink) pair with source < sink, and chords are
numbered 1..n in order of their sources (the standard order). The size-0
diagram is a legitimate value. After the class comes the kernel on pairs
and crossing masks: `open_masks` (their one writer), `insert_root` (a
child under a new root chord), `crossing_mask` and `component_masks`.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import accumulate, chain
from operator import xor
from typing import Iterable, Iterator, Sequence

_PAIR_RE = re.compile(r"\((\d+)\s*,\s*(\d+)\)")


class ChordDiagram:
    """Immutable rooted chord diagram.

    The crossing masks, the connectivity and the intersection order are
    computed on first use and cached in slots; the components are computed
    on each call.
    """

    __slots__ = ("pairs", "_adj", "_connected", "_order")

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        # orientation-normalizing: each pair is stored smaller point first
        ps = sorted(
            (a, b) if a < b else (b, a)
            for a, b in ((int(x), int(y)) for x, y in pairs)
        )
        # 2n endpoints, each in 1..2n and none twice, cover 1..2n
        m = 2 * len(ps)
        seen = bytearray(m + 1)
        for a, b in ps:
            if not 0 < a < b <= m or seen[a] or seen[b]:
                raise ValueError("endpoints must cover 1..2n exactly once")
            seen[a] = seen[b] = 1
        _init(self, tuple(ps))

    @classmethod
    def _trusted(cls, pairs: Iterable[tuple[int, int]]) -> "ChordDiagram":
        """Wrap pairs already in standard form, without sorting or checking:
        (source, sink) int tuples, sorted by source, covering 1..2n."""
        d = _new(cls)
        _init(d, tuple(pairs))
        return d

    @classmethod
    def _from_point_labels(cls, seq: Sequence[int]) -> "ChordDiagram":
        """Join the two occurrences of each letter into a chord, without
        checking: the letters are ints in 1..len(seq), each used twice.
        Chords are numbered by first occurrence, which is standard form."""
        opened = [-1] * (len(seq) + 1)  # letter -> index of its open chord
        pairs: list = []
        for p, x in enumerate(seq, 1):
            i = opened[x]
            if i < 0:
                opened[x] = len(pairs)
                pairs.append(p)
            else:
                pairs[i] = (pairs[i], p)
        return cls._trusted(pairs)

    def __setattr__(self, name, value):
        raise AttributeError("ChordDiagram is immutable")

    # -- constructors

    @classmethod
    def empty(cls) -> "ChordDiagram":
        return cls(())

    @classmethod
    def from_text(cls, text: str) -> "ChordDiagram":
        """Parse the plain format "(1,3)(2,4)". "()" and "" denote the empty diagram."""
        if not isinstance(text, str):
            raise TypeError("diagram text must be a string, not %s" % type(text).__name__)
        t = text.strip()
        if t in ("", "()"):
            return cls(())
        pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(t)]
        if not pairs or _PAIR_RE.sub("", t).strip():
            raise ValueError(f"unparseable diagram text: {text!r}")
        return cls(pairs)

    @classmethod
    def from_json(cls, obj) -> "ChordDiagram":
        if isinstance(obj, str):
            obj = json.loads(obj)
        pairs = [(int(a), int(b)) for a, b in obj["pairs"]]
        d = cls(pairs)
        if "n" in obj and int(obj["n"]) != d.n:
            raise ValueError("size field disagrees with pair count")
        return d

    # -- basic accessors

    @property
    def n(self) -> int:
        return len(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def chord(self, i: int) -> tuple[int, int]:
        """The i-th chord in the standard order, 1-based."""
        return self.pairs[i - 1]

    def source(self, i: int) -> int:
        return self.pairs[i - 1][0]

    def sink(self, i: int) -> int:
        return self.pairs[i - 1][1]

    def point_labels(self) -> tuple[int, ...]:
        """Chord labels read along points 1..2n; each label appears twice."""
        out = [0] * (2 * len(self.pairs))
        for i, (a, b) in enumerate(self.pairs, 1):
            out[a - 1] = out[b - 1] = i
        return tuple(out)

    def chord_at(self, point: int) -> int:
        """Label of the chord having the given endpoint."""
        for i, (a, b) in enumerate(self.pairs):
            if point == a or point == b:
                return i + 1
        raise ValueError(f"no endpoint {point}")

    # -- serialization

    def to_text(self) -> str:
        ps = self.pairs
        return "(%d,%d)" * len(ps) % tuple(chain(*ps)) if ps else "()"

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": [list(p) for p in self.pairs]}

    def __repr__(self) -> str:
        return f"ChordDiagram({self.to_text()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    # -- pair relations

    def relation(self, i: int, j: int) -> str:
        """Exactly one of "cross", "nest", "disjoint" for two chord labels."""
        (x1, y1), (x2, y2) = sorted((self.pairs[i - 1], self.pairs[j - 1]))
        if x2 < y1 < y2:
            return "cross"
        if y2 < y1:
            return "nest"
        return "disjoint"

    def crosses(self, i: int, j: int) -> bool:
        return self.relation(i, j) == "cross"

    def nested(self, i: int, j: int) -> bool:
        return self.relation(i, j) == "nest"

    def disjoint(self, i: int, j: int) -> bool:
        return self.relation(i, j) == "disjoint"

    def crossings(self) -> int:
        return sum(map(int.bit_count, self.adjacency())) // 2

    def nestings(self) -> int:
        # chords come in source order, so a chord nests inside an earlier
        # one iff its sink comes first: count the earlier sinks past each
        seen = total = 0
        for _, b in self.pairs:
            total += (seen >> b).bit_count()
            seen |= 1 << b
        return total

    def is_noncrossing(self) -> bool:
        return not any(self.adjacency())

    def is_nonnesting(self) -> bool:
        return self.nestings() == 0

    # -- crossing graph

    def adjacency(self) -> tuple[int, ...]:
        """Crossing-graph adjacency as bitmasks: bit j-1 of entry i-1 means i crosses j."""
        if self._adj is None:
            open_masks(self)
        return self._adj

    def right_neighbors(self, i: int) -> tuple[int, ...]:
        """Chords crossing i whose source lies inside chord i (so their sink is to its right)."""
        return _mask_labels(self.adjacency()[i - 1] >> i, i)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Directed crossing pairs (i, j): j is a right neighbor of i. Always acyclic."""
        out = []
        for i in range(1, self.n + 1):
            for j in self.right_neighbors(i):
                out.append((i, j))
        return tuple(out)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the crossing graph, as sorted label tuples.

        Ordered by smallest label, which is also source order. Each call
        returns a new list.
        """
        return list(map(_mask_labels, component_masks(self.adjacency())))

    def is_connected(self) -> bool:
        """Nonempty with a weakly connected crossing graph; size 1 is connected."""
        conn = self._connected
        if conn is None:
            adj = self.adjacency()
            full = (1 << len(adj)) - 1
            conn = bool(adj) and component_mask(adj, 1, full) == full
            _set_connected(self, conn)
        return conn

    # -- subdiagrams and concatenation

    def subdiagram(self, labels: Iterable[int]) -> "ChordDiagram":
        """Induced subdiagram on the given chord labels, endpoints renumbered.

        Labels outside 1..n raise ValueError.
        """
        keep = sorted(set(labels))
        ps = self.pairs
        if keep and not (1 <= keep[0] and keep[-1] <= len(ps)):
            raise ValueError(f"chord labels must lie in 1..{len(ps)}")
        pts = sorted(p for i in keep for p in ps[i - 1])
        rank = {p: r + 1 for r, p in enumerate(pts)}
        # kept in label order, the renumbered pairs are already in standard form
        return ChordDiagram._trusted([(rank[a], rank[b]) for a, b in (ps[i - 1] for i in keep)])

    def remove_chords(self, labels: Iterable[int]) -> "ChordDiagram":
        drop = set(labels)
        return self.subdiagram(i for i in range(1, self.n + 1) if i not in drop)

    def remove_chord(self, i: int) -> "ChordDiagram":
        return self.remove_chords((i,))

    def concat(self, other: "ChordDiagram") -> "ChordDiagram":
        """Place other entirely to the right of self."""
        off = 2 * self.n
        return ChordDiagram._trusted(self.pairs + tuple((a + off, b + off) for a, b in other.pairs))

    def indecomposable_components(self) -> list[tuple[int, ...]]:
        """Maximal concatenation factors as label tuples, cut at every closed prefix."""
        # the first 2i points close up iff chords 1..i (numbered by source)
        # end there, so that the largest of their sinks is 2i
        out = []
        top = start = 0
        for i, (_, b) in enumerate(self.pairs, 1):
            top = max(top, b)
            if top == 2 * i:
                out.append(tuple(range(start + 1, i + 1)))
                start = i
        return out

    def is_indecomposable(self) -> bool:
        return self.n > 0 and len(self.indecomposable_components()) == 1

    def root_label(self) -> int:
        """The chord containing point 1; always label 1 in source order."""
        if not self.pairs:
            raise ValueError("empty diagram has no root")
        return 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


def concat_all(parts: Iterable[ChordDiagram]) -> ChordDiagram:
    out = ChordDiagram.empty()
    for p in parts:
        out = out.concat(p)
    return out


def _mask_labels(mask: int, offset: int = 0) -> tuple[int, ...]:
    """Labels offset + j + 1 of the set bits j of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() + offset)
        mask ^= low
    return tuple(out)


def open_masks(d: ChordDiagram) -> list[int]:
    """Entry p is the mask of d's chords open after its first p points (bit
    i-1 for chord i). Fills in d's crossing masks if unset: chord (a, b)
    crosses the chords open after exactly one of a - 1 and b points."""
    ps = d.pairs
    bits = [0] * (2 * len(ps))
    bit = 1
    for a, b in ps:
        bits[a - 1] = bits[b - 1] = bit
        bit <<= 1
    opened = list(accumulate(bits, xor, initial=0))
    if d._adj is None:
        _set_adj(d, tuple([opened[a - 1] ^ opened[b] for a, b in ps]))
    return opened


def insert_root(pairs: tuple, k: int) -> ChordDiagram:
    """The child of the diagram with these pairs under the root (1, k + 2),
    which computes its crossing masks on first read, by `open_masks`."""
    moves = _moves(k)
    return ChordDiagram._trusted((moves.root, *map(moves.__getitem__, pairs)))


class _Moves(dict):
    """A parent's pair (a, b) -> its place under the root (1, k + 2), made
    on first use: the children of one root share these pair tuples, as
    `all_pairs` does. A point p moves to p + 1 if p <= k, else to p + 2."""

    __slots__ = ("k", "root")

    def __init__(self, k: int):
        self.k, self.root = k, (1, k + 2)

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, int]:
        a, b = pair
        moved = self[pair] = (a + 1 + (a > self.k), b + 1 + (b > self.k))
        return moved


_moves = lru_cache(maxsize=None)(_Moves)  # one table per root


def crossing_mask(adj: tuple[int, ...], mask: int) -> int:
    """Bitmask of the chords that cross some chord of the mask."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= adj[low.bit_length() - 1]
        mask ^= low
    return reach


def component_mask(adj: tuple[int, ...], seed: int, within: int) -> int:
    """Bitmask of the component containing the seed bits in the crossing
    graph induced on the chord set `within`."""
    comp = frontier = seed
    while frontier:
        frontier = crossing_mask(adj, frontier) & within & ~comp
        comp |= frontier
    return comp


def component_masks(adj: tuple[int, ...], within: int | None = None) -> list[int]:
    """Bitmasks of the components of the crossing graph induced on the
    chord set `within` (every chord if None), by smallest label."""
    rest = (1 << len(adj)) - 1 if within is None else within
    out = []
    while rest:
        comp = component_mask(adj, rest & -rest, rest)
        rest ^= comp
        out.append(comp)
    return out


_new = object.__new__
_set_pairs = ChordDiagram.pairs.__set__
_set_adj = ChordDiagram._adj.__set__
_set_connected = ChordDiagram._connected.__set__
_set_order = ChordDiagram._order.__set__


def _init(d: ChordDiagram, pairs: tuple[tuple[int, int], ...]) -> None:
    _set_pairs(d, pairs)
    _set_adj(d, None)
    _set_connected(d, None)
    _set_order(d, None)
