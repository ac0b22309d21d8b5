"""The cached diagram kernel against independent oracles.

Every kernel result (crossing masks, neighbors, terminal chords, pair
statistics, components, intersection order, vertex connectivity) is
recomputed here from the raw pairs or from networkx, over every diagram
with at most six chords, and never from the kernel itself. The
intersection order is also compared with the full mask search of
`recursive_maps.mask_order` on inputs too deep for the recursive
definition.
"""

import random
import time
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from chordlab import cli, enumeration, structure
from chordlab.bijections import chi
from chordlab.diagram import (
    ChordDiagram, _mask_labels, _set_adj, component_masks, insert_root, open_masks,
)
from chordlab.enumeration import all_diagrams, all_pairs, census, class_census, tcf_refined
from chordlab.patterns import complete_diagram
from chordlab.series import _weight_tally
from chordlab.structure import (
    intersection_order,
    minimum_separators,
    terminal_labels,
    vertex_connectivity,
)
from conftest import connected_matching, path_diagram, sweep, uniform_matching
from recursive_maps import mask_order, root_masks

MAX_N = 6


def every_diagram():
    for n in range(MAX_N + 1):
        yield from sweep(n)


def interleave(p, q) -> bool:
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def crossing_graph(d: ChordDiagram) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(1, d.n + 1))
    g.add_edges_from(
        (i, j)
        for i in range(1, d.n + 1)
        for j in range(i + 1, d.n + 1)
        if interleave(d.pairs[i - 1], d.pairs[j - 1])
    )
    return g


def recursive_intersection_order(d: ChordDiagram) -> tuple[int, ...]:
    """The definition, recursively: label the root, remove it, and recurse
    on the components of the rest in order of their smallest label."""

    def crosses(i, j):
        return interleave(d.pairs[i - 1], d.pairs[j - 1])

    def rec(labels: list[int]) -> list[int]:
        if not labels:
            return []
        out = [labels[0]]
        remaining = set(labels[1:])
        while remaining:
            comp = {min(remaining)}
            frontier = set(comp)
            while frontier:
                frontier = {w for w in remaining - comp for v in frontier if crosses(v, w)}
                comp |= frontier
            out += rec(sorted(comp))
            remaining -= comp
        return out

    return tuple(rec(list(range(1, d.n + 1))))


def test_adjacency_matches_interleaving_of_raw_pairs():
    for d in every_diagram():
        adj = d.adjacency()
        for i in range(d.n):
            for j in range(d.n):
                assert bool(adj[i] >> j & 1) == interleave(d.pairs[i], d.pairs[j]), d


def relation_masks(d: ChordDiagram) -> tuple[int, ...]:
    """The crossing masks read off `relation()`, one pair at a time."""
    out = [0] * d.n
    for i in range(1, d.n + 1):
        for j in range(i + 1, d.n + 1):
            if d.relation(i, j) == "cross":
                out[i - 1] |= 1 << j - 1
                out[j - 1] |= 1 << i - 1
    return tuple(out)


def check_open_masks(pairs, entries: bool = True) -> None:
    d = ChordDiagram._trusted(pairs)
    opened = open_masks(d)
    assert d._adj == relation_masks(d), pairs
    if entries:
        # entry p holds the chords with their source among the first p
        # points and their sink after them
        want = [0] * (2 * len(pairs) + 1)
        for i, (a, b) in enumerate(pairs):
            for p in range(a, b):
                want[p] |= 1 << i
        assert opened == want, pairs


def test_open_masks_fill_in_the_crossings_of_every_small_diagram():
    for n in range(8):
        for pairs in all_pairs(n):
            check_open_masks(pairs, n < 7)


def test_open_masks_fill_in_the_crossings_of_large_diagrams():
    rng = random.Random(2296)
    for n in (40, 57, 73, 100):
        for _ in range(5):
            check_open_masks(uniform_matching(n, rng).pairs)


def test_open_masks_leave_set_crossing_masks_alone():
    d = ChordDiagram._trusted(((1, 3), (2, 4)))
    _set_adj(d, (0, 0))
    assert open_masks(d) == [0, 1, 3, 2, 0] and d.adjacency() == (0, 0)


def test_right_neighbors_and_terminal_labels_match_their_definitions():
    for d in every_diagram():
        right = {}
        for i in range(1, d.n + 1):
            x, y = d.pairs[i - 1]
            right[i] = tuple(
                j for j in range(1, d.n + 1)
                if x < d.pairs[j - 1][0] < y < d.pairs[j - 1][1]
            )
            assert d.right_neighbors(i) == right[i], (d, i)
        assert terminal_labels(d) == tuple(i for i in right if not right[i]), d


def test_crossings_and_nestings_match_relation_counts():
    for d in every_diagram():
        rel = [d.relation(i, j) for i in range(1, d.n + 1) for j in range(i + 1, d.n + 1)]
        assert d.crossings() == rel.count("cross"), d
        assert d.nestings() == rel.count("nest"), d
        assert d.is_noncrossing() == ("cross" not in rel)
        assert d.is_nonnesting() == ("nest" not in rel)


def test_components_and_connectivity_match_networkx():
    for d in every_diagram():
        g = crossing_graph(d)
        want = sorted(tuple(sorted(c)) for c in nx.connected_components(g))
        assert d.components() == want, d
        assert d.is_connected() == (d.n > 0 and nx.is_connected(g)), d


def test_intersection_order_matches_the_recursive_definition():
    for d in every_diagram():
        if d.is_connected():
            assert intersection_order(d) == recursive_intersection_order(d), d


def from_points(chords) -> ChordDiagram:
    """The diagram of chords given by any distinct sortable endpoints."""
    rank = {p: r for r, p in enumerate(sorted(p for c in chords for p in c), 1)}
    return ChordDiagram((rank[a], rank[b]) for a, b in chords)


def caterpillar(m: int) -> ChordDiagram:
    """A path of m chords with a leaf chord crossing each of them, labelled
    between its spine chord and the next: removing a spine chord leaves its
    leaf and the rest of the spine, the leaf first."""
    half = Fraction(1, 2)
    spine = path_diagram(m).pairs
    leaves = [(2 * i - half, 3 * m + 1 - i) for i in range(1, m + 1)]
    return from_points([*spine, *leaves])


def root_over_blocks(k: int) -> ChordDiagram:
    """A root crossing k pairwise disjoint two-chord blocks."""
    gap = Fraction(2, 5)
    crossing = [(j, 100 - j) for j in range(1, k + 1)]
    hanging = [(100 - j - gap, 100 - j + gap) for j in range(1, k + 1)]
    return from_points([(0, k + gap), *crossing, *hanging])


def test_intersection_order_matches_the_mask_search_exhaustively():
    checked = 0
    for n in range(8):
        for d in sweep(n) if n <= MAX_N else all_diagrams(n):
            if d.is_connected():
                assert intersection_order(d) == mask_order(d), d
                checked += 1
    assert checked == 41343


def test_intersection_order_matches_the_mask_search_at_large_n():
    rng = random.Random(2104)
    for n in (40, 75, 150, 300):
        d = connected_matching(n, rng)
        assert intersection_order(d) == mask_order(d), n
        lift = chi(uniform_matching(n - 1, rng))
        assert lift.n == n and intersection_order(lift) == mask_order(lift), n
    for n in (400, 2000):
        d = path_diagram(n)
        assert intersection_order(d) == mask_order(d) == tuple(range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 400), st.booleans(), st.integers(0, 2**32))
def test_intersection_order_matches_the_mask_search_on_drawn_diagrams(n, lift, seed):
    rng = random.Random(seed)
    d = chi(uniform_matching(n - 1, rng)) if lift else connected_matching(n, rng)
    assert intersection_order(d) == mask_order(d)


def test_mask_order_of_every_component_at_once():
    # the call `_rest_order` makes: one part per component, one after
    # another, each ordered as its own subdiagram (one part is the
    # exhaustive test above)
    orders = {}
    checked = 0
    for n in range(8):
        for d in sweep(n) if n <= MAX_N else all_diagrams(n):
            comps = component_masks(d.adjacency())
            if len(comps) < 2:
                continue
            want = []
            for comp in comps:
                labels = _mask_labels(comp)
                sub = d.subdiagram(labels)
                if sub not in orders:
                    orders[sub] = mask_order(sub)
                want += [labels[i - 1] for i in orders[sub]]
            assert structure.mask_order(d.adjacency(), comps) == tuple(want), d
            checked += 1
    assert checked == 105256


def test_mask_order_reads_only_the_chords_of_its_parts():
    # the parts leave out the last chord, which may cross several of them
    for n in range(2, MAX_N + 1):
        for d in sweep(n):
            rest = d.remove_chord(n)
            parts = component_masks(rest.adjacency())
            want = structure.mask_order(rest.adjacency(), parts)
            assert structure.mask_order(d.adjacency(), parts) == want, d


@pytest.mark.parametrize("k", [3, 4, 7])
def test_intersection_order_of_a_root_over_disjoint_blocks(k):
    d = root_over_blocks(k)
    assert d.is_connected() and len(d.remove_chord(1).components()) == k
    want = recursive_intersection_order(d)
    assert intersection_order(d) == mask_order(d) == want
    assert want[:3] == (1, 2, 2 * k + 1)


class CountingMasks(tuple):
    """Crossing masks that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def linear_shape(shape: str) -> ChordDiagram:
    rng = random.Random(1000)
    if shape == "path":
        return path_diagram(2000)
    if shape == "caterpillar":
        return caterpillar(1000)
    if shape == "uniform":
        return connected_matching(1000, rng)
    return chi(uniform_matching(998, rng))


@pytest.mark.parametrize("shape", ["path", "caterpillar", "uniform", "chi"])
def test_intersection_order_reads_linearly_many_masks(monkeypatch, shape):
    # each chord's crossing mask is read once, however deep or wide the
    # recursion below it; no component search runs over what is left
    d = linear_shape(shape)
    assert d.is_connected() and d.n in (999, 1000, 2000)
    want = mask_order(d)
    masks = CountingMasks(d.adjacency())
    monkeypatch.setattr(ChordDiagram, "adjacency", lambda self: masks)
    assert intersection_order(d) == want
    assert masks.reads <= d.n


def test_vertex_connectivity_matches_networkx():
    checked = 0
    for d in every_diagram():
        if d.n >= 2 and d.is_connected():
            assert vertex_connectivity(d) == nx.node_connectivity(crossing_graph(d)), d
            checked += 1
    assert checked == 3110


def test_minimum_separators_match_networkx():
    checked = 0
    for d in every_diagram():
        g = crossing_graph(d)
        k, got = minimum_separators(d.adjacency())
        assert k == vertex_connectivity(d), d
        if d.n * (d.n - 1) == 2 * g.number_of_edges():
            cuts = set()  # a complete graph has no separator
        elif not nx.is_connected(g):
            cuts = {0}
        else:
            cuts = {sum(1 << (v - 1) for v in c) for c in nx.all_node_cuts(g)}
        assert {x for x, _ in got} == cuts, d
        for x, parts in got:
            rest = g.subgraph(v for v in g if not x >> (v - 1) & 1)
            want = sorted(sum(1 << (v - 1) for v in c) for c in nx.connected_components(rest))
            assert sorted(parts) == want, d
        checked += len(got)
    assert checked > 0
    # at size 7 only κ is compared, with the max-flow connectivity
    for d in all_diagrams(7):
        assert minimum_separators(d.adjacency())[0] == vertex_connectivity(d), d


def test_minimum_separators_of_a_complete_crossing_graph_try_no_chord_set(monkeypatch):
    # every chord set below m - 1 leaves the complete graph connected, so
    # trying them all would take about 2^m component scans: 0.4 s at m = 18
    scans = []
    real = structure.component_mask
    monkeypatch.setattr(structure, "component_mask", lambda *args: scans.append(1) or real(*args))
    start = time.perf_counter()
    for m in range(19):
        d = complete_diagram(m)
        assert minimum_separators(d.adjacency()) == (vertex_connectivity(d), []), m
    assert scans == []
    assert time.perf_counter() - start < 0.05


def test_vertex_connectivity_matches_networkx_beyond_exhaustive_sizes():
    # uniform connected diagrams and chi lifts, which have chords of low
    # degree, so that the minimum degree is sometimes a loose bound
    rng = random.Random(2104)
    for n in range(9, 13):
        for _ in range(12):
            for d in (connected_matching(n, rng), chi(uniform_matching(n - 1, rng))):
                assert vertex_connectivity(d) == nx.node_connectivity(crossing_graph(d)), d


def test_intersection_order_of_a_large_diagram_needs_no_recursion():
    rng = random.Random(1999)
    pts = list(range(1, 2 * 1999 + 1))
    rng.shuffle(pts)
    d = chi(ChordDiagram(zip(pts[::2], pts[1::2])))
    assert d.n == 2000 and d.is_connected()
    assert sorted(intersection_order(d)) == list(range(1, 2001))


def fresh_child(s, k):
    """The child of s under the root (1, k + 2), built by the validating
    constructor from s's point labels with the root's two ends put in."""
    labels = s.point_labels()
    ends: dict[int, list[int]] = {}
    for p, x in enumerate((0, *labels[:k], 0, *labels[k:]), 1):
        ends.setdefault(x, []).append(p)
    return ChordDiagram(tuple(e) for e in ends.values())


def test_root_insertion_matches_a_fresh_diagram():
    # the child under the root (1, k + 2) from the parent's point labels,
    # and the root's mask from the chords with one end among the first k
    # points, against `insert_root` and the shifted parent masks of
    # `root_masks`
    checked = 0
    for n in range(6):
        for s in sweep(n):
            labels = s.point_labels()
            for k in range(2 * n + 1):
                fresh = fresh_child(s, k)
                r = sum(1 << (x - 1) for x in set(labels[:k]) if labels[:k].count(x) == 1)
                child = insert_root(s.pairs, k)
                assert child.pairs == fresh.pairs, (s, k)
                assert child.adjacency() == root_masks(s.adjacency(), r) == fresh.adjacency(), (s, k)
                checked += 1
    assert checked == sum((2 * n + 1) * len(sweep(n)) for n in range(6))


def test_root_insertion_over_2000_chords_is_linear():
    # each root takes memory linear in the parent: its moved pairs, and the
    # child computes its crossing masks only when read
    s = uniform_matching(2000, random.Random(35))
    for k in (0, 1, 1999, 3999, 4000):
        tracemalloc.start()
        try:
            child = insert_root(s.pairs, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, (k, peak)
        fresh = fresh_child(s, k)
        assert child.pairs == fresh.pairs, k
        assert child.adjacency() == fresh.adjacency(), k


def test_components_within_a_chord_set_match_networkx():
    rng = random.Random(24)
    for d in every_diagram():
        g = crossing_graph(d)
        full = (1 << d.n) - 1
        for within in range(full + 1) if d.n <= 4 else rng.sample(range(full + 1), 4):
            sub = g.subgraph(v for v in g if within >> (v - 1) & 1)
            want = [sum(1 << (v - 1) for v in c) for c in nx.connected_components(sub)]
            # by smallest label: the components' lowest bits are distinct
            assert component_masks(d.adjacency(), within) == sorted(want, key=lambda m: m & -m)
        assert component_masks(d.adjacency()) == component_masks(d.adjacency(), full)


def test_trusted_constructor_agrees_with_the_validating_one():
    for n in range(MAX_N + 1):
        for pairs in all_pairs(n):
            assert ChordDiagram._trusted(pairs).pairs == ChordDiagram(pairs).pairs


def test_mutating_returned_components_leaves_the_cache_alone():
    d = ChordDiagram.from_text("(1,2)(3,5)(4,6)")
    first = d.components()
    first.append((9,))
    first[0] = (7,)
    assert d.components() == [(1,), (2, 3)]


def test_cached_sweep_results_are_read_only():
    calls = [lambda: census(4), lambda: class_census(4),
             lambda: class_census(4)["all"], lambda: tcf_refined(4),
             lambda: _weight_tally(4, "all"), lambda: _weight_tally(4, "all")[2]]
    before = [dict(call()) for call in calls]
    for call in calls:
        value = call()
        assert isinstance(value, MappingProxyType)
        with pytest.raises(TypeError):
            value[next(iter(value))] = 0
    assert [dict(call()) for call in calls] == before
    assert census(4) == {"all": 105, "connected": 27, "one-terminal": 15}


def test_enum_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert cli.main(["enum", "--size", "3", "--count", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size, jobs, cpus, want",
    [(3, 64, 4, 4), (2, 64, 8, 3), (3, 2, 8, 2), (4, 3, 1, None)],
)
def test_enum_clamps_the_pool_size(monkeypatch, capsys, size, jobs, cpus, want):
    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(w) for w in work]

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    # t1 with terminality, since t1 alone of "connected" is counted in-process
    for extra in (["--count"], ["--stats", "t1,terminality", "--class", "connected"]):
        assert cli.main(["enum", "--size", str(size), "--jobs", str(jobs), *extra]) == 0
    capsys.readouterr()
    rows = enumeration.count_classes_parallel(size, ("connected",), jobs=jobs)["connected"]
    assert sum(rows.values()) == census(size)["connected"]
    # one clamped pool per parallel sweep; a single worker runs serially
    assert requested == ([] if want is None else [want] * 3)
