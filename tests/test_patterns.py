"""Pattern containment, the named pattern families, induced-cycle
realizations, and the profile classes."""

import random
from itertools import combinations

import networkx as nx
import pytest

from chordlab.diagram import ChordDiagram, _mask_labels, insert_root, open_masks, root_masks
from chordlab.enumeration import members
from chordlab.patterns import (
    CLASS_NAMES,
    CYCLE_CLASSES,
    _induced_cycles,
    _kind,
    bottom_cycle,
    complete_diagram,
    contains_any_bottom_cycle,
    contains_any_top_cycle,
    contains_pattern,
    cycle_classes,
    cycle_profile,
    in_class,
    nesting_diagram,
    permutation_diagram,
    root_members,
    top_cycle,
)
from conftest import Ca, Cb, Cc, Ce, Cg, K3, left_neighbors, sweep

# -- brute-force oracles: chord subsets, pairwise relations and point ranks,
# with none of the crossing masks, path search or embedding of the library


def crossing_sets(d):
    """Neighbour sets of the crossing graph, 1-based, from relation()."""
    nbrs = {i: set() for i in range(1, d.n + 1)}
    for i, j in combinations(range(1, d.n + 1), 2):
        if d.relation(i, j) == "cross":
            nbrs[i].add(j)
            nbrs[j].add(i)
    return nbrs


def induced_cycles_oracle(d):
    """Every chord subset whose induced crossing graph is one cycle."""
    nbrs = crossing_sets(d)
    out = []
    for m in range(3, d.n + 1):
        for subset in combinations(range(1, d.n + 1), m):
            keep = set(subset)
            if any(len(nbrs[v] & keep) != 2 for v in subset):
                continue
            # all degrees 2: one cycle exactly when connected
            seen, todo = {subset[0]}, [subset[0]]
            while todo:
                for w in nbrs[todo.pop()] & keep - seen:
                    seen.add(w)
                    todo.append(w)
            if seen == keep:
                out.append((m, subset))
    return out


def induced_pairs(d, labels):
    """Pairs of the subdiagram on the labels, its points ranked."""
    chords = [d.pairs[i - 1] for i in labels]
    rank = {p: r for r, p in enumerate(sorted(p for c in chords for p in c), 1)}
    return tuple(sorted((rank[a], rank[b]) for a, b in chords))


def contains_pattern_oracle(d, pattern):
    return any(
        induced_pairs(d, subset) == pattern.pairs
        for subset in combinations(range(1, d.n + 1), pattern.n)
    )


def cycle_profile_oracle(d):
    profile = {}
    for m, labels in induced_cycles_oracle(d):
        sub = induced_pairs(d, labels)
        # the triangle is both; it counts as "top"
        if sub == top_cycle(m).pairs:
            kind = "top"
        else:
            assert sub == bottom_cycle(m).pairs, (d, labels)
            kind = "bottom"
        profile[(m, kind)] = profile.get((m, kind), 0) + 1
    return profile


ORACLE_PATTERNS = [
    complete_diagram(3),
    complete_diagram(4),
    nesting_diagram(2),
    nesting_diagram(3),
    permutation_diagram("213"),
    permutation_diagram("132"),
    permutation_diagram("231"),
    top_cycle(4),
    top_cycle(5),
    bottom_cycle(4),
    bottom_cycle(5),
]


def uniform_matchings(count, sizes, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(sizes)
        pts = list(range(1, 2 * n + 1))
        rng.shuffle(pts)
        yield ChordDiagram(zip(pts[::2], pts[1::2]))


def assert_matches_oracles(d):
    cycles = _induced_cycles(d.adjacency(), range(d.n))
    assert sorted((c.bit_count(), _mask_labels(c)) for c in cycles) == induced_cycles_oracle(d), d
    profile = cycle_profile_oracle(d)
    assert cycle_profile(d) == profile, d
    classes = cycle_classes(profile)
    assert contains_any_top_cycle(d) == (not classes["top-cycle-free"]), d
    assert contains_any_bottom_cycle(d) == (not classes["bottom-cycle-free"]), d
    for name in CYCLE_CLASSES:
        assert in_class(d, name) == classes[name], (d, name)
    for pattern in ORACLE_PATTERNS:
        assert contains_pattern(d, pattern) == contains_pattern_oracle(d, pattern), (d, pattern)


@pytest.mark.parametrize("n", range(0, 7))
def test_cycles_and_patterns_match_the_oracles_exhaustively(n):
    for d in sweep(n):
        assert_matches_oracles(d)


def test_cycles_and_patterns_match_the_oracles_on_random_matchings():
    for d in uniform_matchings(50, (9, 10, 11), seed=2014):
        assert_matches_oracles(d)


def test_graph_classes_match_networkx():
    for n in range(1, 7):
        for d in sweep(n):
            g = nx.Graph(crossing_sets(d))
            assert in_class(d, "bipartite") == nx.is_bipartite(g), d
            assert in_class(d, "chordal") == nx.is_chordal(g), d
            assert in_class(d, "tree") == nx.is_forest(g), d
            assert in_class(d, "triangle-free") == (sum(nx.triangles(g).values()) == 0), d


def test_pattern_family_constructors():
    assert complete_diagram(3) == K3
    assert complete_diagram(1) == Ca
    assert nesting_diagram(2) == ChordDiagram.from_text("(1,4)(2,3)")
    assert top_cycle(3) == K3
    assert bottom_cycle(3) == K3


def test_cycle_realizations_at_size_four():
    t4, b4 = top_cycle(4), bottom_cycle(4)
    assert t4 == ChordDiagram.from_text("(1,4)(2,7)(3,6)(5,8)")
    assert b4 == ChordDiagram.from_text("(1,6)(2,5)(3,8)(4,7)")
    assert t4 != b4
    # both realize an induced 4-cycle and nothing else does
    cycles = [
        d
        for d in sweep(4)
        if sorted(len(d.right_neighbors(i)) + len(left_neighbors(d, i)) for i in range(1, 5))
        == [2, 2, 2, 2]
        and d.is_connected()
        and not contains_pattern(d, K3)
    ]
    assert sorted(c.to_text() for c in cycles) == sorted([t4.to_text(), b4.to_text()])


def test_contains_pattern_examples():
    assert contains_pattern(K3, K3)
    assert not contains_pattern(Ce, K3)
    assert contains_pattern(Cb, Ca)


def test_top_cycle_detection_examples():
    assert contains_any_top_cycle(K3)
    assert not contains_any_top_cycle(Ce)
    assert not contains_any_top_cycle(Cg)
    assert not contains_any_bottom_cycle(Ce)


def is_permutation_diagram(d):
    """All n sources precede all n sinks."""
    return all(a <= d.n < b for a, b in d.pairs)


def test_permutation_diagrams():
    assert permutation_diagram("231") == ChordDiagram.from_text("(1,5)(2,6)(3,4)")
    assert permutation_diagram("132") == ChordDiagram.from_text("(1,4)(2,6)(3,5)")
    assert permutation_diagram([2, 3, 1]) == permutation_diagram("231")
    assert is_permutation_diagram(permutation_diagram("231"))
    assert is_permutation_diagram(Cb)
    # all sources precede all sinks in Ce, so it encodes a permutation too
    assert is_permutation_diagram(Ce)
    assert not is_permutation_diagram(ChordDiagram.from_text("(1,3)(2,5)(4,6)"))


def test_in_class_examples():
    assert not in_class(K3, "triangle-free")
    assert in_class(Ce, "tree")
    assert in_class(Cc, "noncrossing")
    assert in_class(Cb, "one-terminal")
    with pytest.raises(ValueError):
        in_class(Ca, "no-such-class")


def test_class_names_cover_cli_surface():
    assert set(CLASS_NAMES) >= {
        "all",
        "connected",
        "one-terminal",
        "top-cycle-free",
        "bottom-cycle-free",
        "noncrossing",
        "nonnesting",
    }


def test_small_class_counts():
    # frozen from exhaustive sweeps; catalan(n) for the crossing-free and
    # nesting-free columns, stein values for connected
    for n, conn, noncross, nonnest in [(1, 1, 1, 1), (2, 1, 2, 2), (3, 4, 5, 5), (4, 27, 14, 14)]:
        ds = sweep(n)
        assert sum(in_class(d, "connected") for d in ds) == conn
        assert sum(in_class(d, "noncrossing") for d in ds) == noncross
        assert sum(in_class(d, "nonnesting") for d in ds) == nonnest


def cycle_search_roots(key, s, ks):
    """The member roots of chordal, top- and bottom-cycle-free over s, by a
    search for the induced cycles whose lowest chord is the root, each one
    longer than a triangle told top from bottom on the built child."""
    pairs, adj, roots = s.pairs, s.adjacency(), open_masks(s)
    banned = "top" if key == "top-cycle-free" else "bottom"
    bits = 0
    for k in ks:
        child = None
        for cycle in _induced_cycles(root_masks(adj, roots[k]), (0,)):
            if cycle.bit_count() == 3:
                if key != "chordal":
                    break
                continue
            if key == "chordal":
                break
            if child is None:
                child = insert_root(pairs, adj, k, roots[k])
            if _kind(child, cycle) == banned:
                break
        else:
            bits |= 1 << k
    return bits


@pytest.mark.parametrize(
    "key, parents", [("top-cycle-free", 4990), ("bottom-cycle-free", 4959), ("chordal", 9545)]
)
def test_cycle_class_mask_rules_match_the_cycle_search(key, parents):
    seen = 0
    for n in range(7):
        ks = list(range(2 * n + 1))
        for s in members(n, key, ordered=False):
            want = cycle_search_roots(key, s, ks)
            assert root_members(key, s, open_masks(s), None, ks) == want, s
            seen += 1
    assert seen == parents
