"""Pattern containment, the named pattern families, induced-cycle
realizations, and the profile classes."""

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from chordlab import enumeration, patterns
from chordlab.diagram import ChordDiagram, _mask_labels, component_masks, crossing_mask, insert_root, open_masks
from chordlab.enumeration import count_members, members
from chordlab.patterns import (
    CLASS_NAMES,
    CYCLE_CLASSES,
    _colour_class,
    _induced_cycles,
    _kind,
    _pattern_free_roots,
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
from recursive_maps import root_masks

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
                child = insert_root(pairs, k)
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
            assert root_members(key, s, open_masks(s), None) == want, s
            seen += 1
    assert seen == parents


# Each complete or nesting class with the largest parent size at which its
# rule is compared with the embedding, and the number of member parents up
# to it. K5 and N5 stop one size short of the rest: the embedding on their
# size-6 parents would add about 1 s to the 3 s that the rest take.
RULE_CLASSES = [
    ("K1-free", 6, 1), ("N1-free", 6, 1), ("K2-free", 6, 197), ("N2-free", 6, 197),
    ("K3-free", 6, 5416), ("N3-free", 6, 5416), ("K4-free", 6, 10482), ("N4-free", 6, 10482),
    ("K5-free", 5, 1069), ("N5-free", 5, 1069),
]


@pytest.mark.parametrize("name, top, parents", RULE_CLASSES)
def test_complete_and_nesting_rules_match_the_anchored_embedding(name, top, parents):
    pattern = patterns.hereditary_key(name)
    seen = 0
    for n in range(top + 1):
        for s in members(n, name, ordered=False):
            roots = open_masks(s)
            assert root_members(pattern, s, roots, None) == _pattern_free_roots(s, pattern, roots), s
            seen += 1
    assert seen == parents


def test_the_empty_pattern_keeps_no_root():
    for name in ("K0-free", "N0-free"):
        pattern = patterns.hereditary_key(name)
        for s in sweep(3):
            roots = open_masks(s)
            assert root_members(pattern, s, roots, None) == 0, (name, s)
            assert _pattern_free_roots(s, pattern, roots) == 0, (name, s)


def one_line_rule(key, s, roots, ks):
    """The member roots of noncrossing, nonnesting and triangle-free over s,
    each by the one-line rule of its own."""
    if key == "noncrossing":
        return sum(1 << k for k in ks if not roots[k])
    if key == "nonnesting":
        # no chord of s may close inside the root
        low = min((b for _, b in s.pairs), default=1)
        return sum(1 << k for k in ks if k < low)
    # the root's neighbours must be pairwise non-crossing
    adj = s.adjacency()
    return sum(1 << k for k in ks if not crossing_mask(adj, roots[k]) & roots[k])


@pytest.mark.parametrize("key, parents", [("noncrossing", 197), ("nonnesting", 197), ("triangle-free", 5416)])
def test_named_complete_and_nesting_classes_match_their_one_line_rules(key, parents):
    seen = 0
    for n in range(7):
        ks = list(range(2 * n + 1))
        for s in members(n, key, ordered=False):
            roots = open_masks(s)
            assert root_members(key, s, roots, None) == one_line_rule(key, s, roots, ks), s
            seen += 1
    assert seen == parents


def test_complete_and_nesting_walks_never_embed(monkeypatch):
    calls = []
    real = patterns._embeds
    monkeypatch.setattr(patterns, "_embeds", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(enumeration, "_class_sizes", lru_cache(maxsize=None)(enumeration._class_sizes.__wrapped__))
    for name in ("K3-free", "N3-free", "K4-free", "N4-free", "K5-free", "N5-free"):
        count_members(6, name)
    assert calls == []
    count_members(5, "perm-213-free")
    assert calls


# -- the per-root rules that the span masks of `root_members` replaced:
# each root is decided on its own crossing mask r alone


def holds_clique(adj, mask, size):
    """Do `size` >= 2 pairwise crossing chords lie in the mask? Each branch
    takes the lowest chord left and keeps its later neighbours, and ends
    when fewer than `size` chords are left."""
    while mask.bit_count() >= size:
        low = mask & -mask
        mask ^= low
        later = adj[low.bit_length() - 1] & mask
        if later if size == 2 else holds_clique(adj, later, size - 1):
            return True
    return False


def per_root_rule(key, s, roots, comps):
    """The member roots of the K_k-free classes, noncrossing, triangle-free,
    tree and bipartite over s, one root at a time; comps are the masks of
    s's components."""
    adj = s.adjacency()
    if key == "tree":
        # a second neighbour in one component of s closes a cycle
        return sum(1 << k for k, r in enumerate(roots) if all(not r & c & (r & c) - 1 for c in comps))
    if key == "bipartite":
        # within a component of s, the root's neighbours must share a colour
        sides = [(c, _colour_class(adj, c)) for c in comps]
        return sum(1 << k for k, r in enumerate(roots) if all(not r & a or not r & (c ^ a) for c, a in sides))
    # K_m needs m - 1 pairwise crossing chords besides the root
    size = {"noncrossing": 1, "triangle-free": 2}[key] if isinstance(key, str) else key.n - 1
    if size < 1:
        # a single chord is a clique, and the empty set is one of every
        # size below it
        return 0
    if size == 1:
        return sum(1 << k for k, r in enumerate(roots) if not r)
    return sum(1 << k for k, r in enumerate(roots) if not holds_clique(adj, r, size))


@pytest.mark.parametrize("size", range(1, 5))
def test_clique_span_rule_matches_the_per_root_search_on_every_diagram(size):
    pattern = complete_diagram(size + 1)
    for n in range(7):
        for s in sweep(n):
            roots = open_masks(s)
            assert root_members(pattern, s, roots, None) == per_root_rule(pattern, s, roots, None), s


# Each class with the classes read on the same walk and its number of member
# parents of size 0..7: a named class shares the walk of the pattern class
# it equals, and tree that of bipartite, which holds every forest. The
# K4- and K5-free parents of size 0..6 are among every diagram of the test
# above; their 245,453 parents of size 7 would add about 4 s.
SPAN_CLASSES = [
    ("K1-free", (), 1), ("K2-free", ("noncrossing",), 626),
    ("K3-free", ("triangle-free",), 46314), ("bipartite", ("tree",), 45053),
]


@pytest.mark.parametrize("name, twins, parents", SPAN_CLASSES)
def test_span_rules_match_the_per_root_rules_on_every_member_parent(name, twins, parents):
    key = patterns.hereditary_key(name)
    seen = 0
    for n in range(8):
        for s in members(n, name, ordered=False):
            roots, comps = open_masks(s), component_masks(s.adjacency())
            for k in (key, *twins):
                assert root_members(k, s, roots, comps) == per_root_rule(k, s, roots, comps), (k, s)
            seen += 1
    assert seen == parents
