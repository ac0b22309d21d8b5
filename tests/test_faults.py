"""Seeded faults: each test plants one plausible defect in the code that a
check guards, never in the check or its oracle, runs the check on fresh
caches, and asserts that the check reports a failure, with the witness or
kind the defect causes, and that the defect was hit."""

from functools import lru_cache

import pytest

from chordlab import checks, enumeration, patterns, series, triangulation
from chordlab.checks import run_check
from chordlab.series import WeightPoly, YPoly


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty `_class_domain` and `_class_sizes` caches, so that every walk
    runs under the fault and no faulty result outlives the test."""
    monkeypatch.setattr(checks, "_class_domain", lru_cache(maxsize=None)(checks._class_domain.__wrapped__))
    monkeypatch.setattr(enumeration, "_class_sizes", lru_cache(maxsize=None)(enumeration._class_sizes.__wrapped__))


def add_top_cycle_root(monkeypatch) -> list:
    """The top-cycle-free rule keeps one root too many: over (1,3)(2,4),
    the one parent with crossing masks (2, 1), also the root at k = 2,
    whose child (1,4)(2,5)(3,6) is a triangle."""
    rule = patterns._cycle_free_roots
    fired = []

    def faulty(key, adj, roots):
        bits = rule(key, adj, roots)
        if key == "top-cycle-free" and adj == (2, 1):
            fired.append(adj)
            bits |= 1 << 2
        return bits

    monkeypatch.setattr(patterns, "_cycle_free_roots", faulty)
    return fired


def add_nesting_root(monkeypatch) -> list:
    """The nonnesting rule closes one point late over the one-chord parent,
    and so keeps the root at k = 2, whose child (1,4)(2,3) nests."""
    close = patterns._nesting_close
    fired = []

    def faulty(pairs, size):
        point = close(pairs, size)
        if size == 1 and pairs == ((1, 2),):
            fired.append(pairs)
            return point + 1
        return point

    monkeypatch.setattr(patterns, "_nesting_close", faulty)
    return fired


@pytest.mark.parametrize(
    "check_id, details",
    [
        ("patterns-topcycle-tree-characterization",
         {"witness": "(1,4)(2,5)(3,6)", "lhs": True, "rhs": False}),
        ("alpha-interval-blocks", {"witness": "(1,4)(2,5)(3,6)", "blocks": [2, 1]}),
        ("enum-one-terminal-tcf-catalan",
         {"witness": "(1,4)(2,5)(3,6)", "kind": "bottom cycle present"}),
    ],
)
def test_a_triangle_in_the_top_cycle_free_walk_fails_the_check(
    fresh_caches, monkeypatch, check_id, details
):
    fired = add_top_cycle_root(monkeypatch)
    rep = run_check(check_id, 5)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == details


@pytest.mark.parametrize(
    "check_id, details",
    [
        ("structure-nonnesting-connectivity", {"witness": "(1,4)(2,6)(3,5)", "k": 1}),
        ("enum-catalan-classes", {"n": 2, "noncrossing": 2, "nonnesting": 3}),
    ],
)
def test_a_nesting_in_the_nonnesting_walk_fails_the_check(fresh_caches, monkeypatch, check_id, details):
    fired = add_nesting_root(monkeypatch)
    rep = run_check(check_id, 5)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == details


def test_a_count_moved_on_the_first_walk_only_fails_report_determinism(fresh_caches, monkeypatch):
    # the tree rule drops one member root over the first 3-chord parent of
    # the joint walk, and never again: the two reports differ only if the
    # second one counts the class by another path than the first
    insertions = enumeration._insertions
    fired = []

    def faulty(s, key, variant, components=True):
        roots, member, connected, comps = insertions(s, key, variant, components)
        if key == "tree" and variant == "all" and s.n == 3 and not fired:
            fired.append(s.to_text())
            member &= member - 1
        return roots, member, connected, comps

    monkeypatch.setattr(enumeration, "_insertions", faulty)
    rep = run_check("report-determinism", 5)
    assert len(fired) == 1
    assert not rep["ok"]
    assert rep["details"] == {"kind": "conjecture report differs between runs"}


def test_a_connected_root_dropped_from_the_joint_walk_fails_series_ogf_egf(fresh_caches, monkeypatch):
    # over the 4-chord path, the chordal walk loses the connected bit of its
    # first root that gives a connected member
    insertions = enumeration._insertions
    path = ((1, 3), (2, 5), (4, 7), (6, 8))
    fired = []

    def faulty(s, key, variant, components=True):
        roots, member, connected, comps = insertions(s, key, variant, components)
        if key == "chordal" and s.pairs == path:
            first = member & connected & -(member & connected)
            fired.append(first)
            connected &= ~first
        return roots, member, connected, comps

    monkeypatch.setattr(enumeration, "_insertions", faulty)
    rep = run_check("series-ogf-egf", 5)
    assert fired and all(fired)
    assert not rep["ok"]
    classes = {c: None if c == "nonnesting" else True for c in enumeration.PROFILE_CLASSES}
    assert rep["details"] == {"stein": True, "egf": True, "classes": {**classes, "chordal": False}}


def test_a_diagram_dropped_from_the_stream_fails_enum_stream_counts(fresh_caches, monkeypatch):
    # the walk of size 4 loses its first diagram
    pairs = enumeration.all_pairs
    fired = []

    def faulty(n, branch=None):
        walk = pairs(n, branch)
        if n == 4:
            fired.append(next(walk))
        yield from walk

    monkeypatch.setattr(enumeration, "all_pairs", faulty)
    rep = run_check("enum-stream-counts", 5)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == {"n": 4, "got": 104}


def test_a_connected_root_dropped_from_all_fails_enum_connected_stein(fresh_caches, monkeypatch):
    # over the crossing pair (1,3)(2,4), the walk of "all" loses the
    # connected bit of its first connected child
    insertions = enumeration._insertions
    fired = []

    def faulty(s, key, variant, components=True):
        roots, member, connected, comps = insertions(s, key, variant, components)
        if key == "all" and s.pairs == ((1, 3), (2, 4)):
            fired.append(connected & -connected)
            connected &= connected - 1
        return roots, member, connected, comps

    monkeypatch.setattr(enumeration, "_insertions", faulty)
    rep = run_check("enum-connected-stein", 5)
    assert fired and all(fired)
    assert not rep["ok"]
    assert rep["details"] == {"n": 3, "got": 3, "want": 4}


def test_a_one_terminal_parent_missed_fails_enum_one_terminal_counts(fresh_caches, monkeypatch):
    # the joint walk takes the crossing pair, the one one-terminal diagram
    # of size 2, for a parent that is not one-terminal
    one_terminal = enumeration.is_one_terminal
    fired = []

    def faulty(s):
        if s.pairs == ((1, 3), (2, 4)):
            fired.append(s.pairs)
            return False
        return one_terminal(s)

    monkeypatch.setattr(enumeration, "is_one_terminal", faulty)
    rep = run_check("enum-one-terminal-counts", 5)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == {"n": 3, "got": 0, "want": 3}


@pytest.mark.parametrize(
    "check_id, details",
    [
        ("enum-k3-stanley", {"n": 3, "got": 15, "want": 14}),
        ("patterns-k3-n3-symmetry", {"n": 3, "k3_free": 15, "n3_free": 14}),
    ],
)
def test_a_triangle_missed_by_the_clique_rule_fails_the_check(fresh_caches, monkeypatch, check_id, details):
    # over the crossing pair (1,3)(2,4), the clique search finds no later
    # neighbour of the first chord, so the root that crosses both chords
    # is taken for no triangle, and (1,4)(2,5)(3,6) counts as K3-free
    top = patterns._clique_top
    fired = []

    def faulty(adj, mask, size):
        found = top(adj, mask, size)
        if found and size == 1 and adj == (2, 1):
            fired.append(mask)
            return 0
        return found

    monkeypatch.setattr(patterns, "_clique_top", faulty)
    rep = run_check(check_id, 5)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == details


# the one parent whose chords cross, open at the roots k = 1, 2 and 2, 3
CROSSING_PAIR = ((1, 3), (2, 4))


def test_a_cycle_missed_by_the_tree_span_rule_fails_report_determinism(fresh_caches, monkeypatch):
    # the tree rule's sweep over the crossing pair misses the root k = 2,
    # where both chords are open, so the triangle (1,4)(2,5)(3,6) counts as
    # a tree in the site walks but not in the per-diagram sweep
    open_roots = patterns._open
    fired = []

    def faulty(pairs, mask):
        once, twice = open_roots(pairs, mask)
        if pairs == CROSSING_PAIR and mask == 0b11:
            fired.append(twice)
            twice &= ~(1 << 2)
        return once, twice

    monkeypatch.setattr(patterns, "_open", faulty)
    rep = run_check("report-determinism", 5)
    assert fired and all(f >> 2 & 1 for f in fired)
    assert not rep["ok"]
    assert rep["details"] == {"kind": "conjecture report differs between runs"}


def test_an_odd_cycle_missed_by_the_bipartite_span_rule_fails_report_determinism(fresh_caches, monkeypatch):
    # over the crossing pair, the colour side of the second chord opens one
    # root late, at k = 3, so the root k = 2 that crosses both sides is kept
    # and the triangle (1,4)(2,5)(3,6) counts as bipartite in the site walks
    open_roots = patterns._open
    fired = []

    def faulty(pairs, mask):
        once, twice = open_roots(pairs, mask)
        if pairs == CROSSING_PAIR and mask == 0b10:
            fired.append(once)
            once &= once - 1
        return once, twice

    monkeypatch.setattr(patterns, "_open", faulty)
    rep = run_check("report-determinism", 5)
    assert fired and all(f == 0b1100 for f in fired)
    assert not rep["ok"]
    assert rep["details"] == {"kind": "conjecture report differs between runs"}


def test_a_213_root_kept_fails_enum_jelinek_equalities(fresh_caches, monkeypatch):
    # over the crossing pair (1,3)(2,4), the 213 embedding misses the root
    # at k = 3, whose child (1,5)(2,4)(3,6) is the pattern itself
    free_roots = patterns._pattern_free_roots
    pattern = patterns.permutation_diagram("213")
    fired = []

    def faulty(s, key, roots):
        bits = free_roots(s, key, roots)
        if key == pattern and s.pairs == ((1, 3), (2, 4)):
            fired.append(bits)
            bits |= 1 << 3
        return bits

    monkeypatch.setattr(patterns, "_pattern_free_roots", faulty)
    rep = run_check("enum-jelinek-equalities", 5)
    assert fired and not fired[0] >> 3 & 1
    assert not rep["ok"]
    assert rep["details"] == {"n": 3, "counts": (14, 15, 14)}


def test_zeta_suite_reports_an_invalid_word(monkeypatch):
    # a faulty zeta is a failed check, not an exception out of run_check
    zeta = checks.zeta
    fired = []

    def faulty(d):
        if d.n != 2:
            return zeta(d)
        fired.append(d)
        return (2, 1, 2, 1)

    monkeypatch.setattr(checks, "zeta", faulty)
    rep = run_check("zeta-stirling-suite", 2)
    assert fired
    assert not rep["ok"]
    assert rep["details"]["kind"] == "invalid word"


def test_omega_suite_reports_an_invalid_triangulation(monkeypatch):
    # faces turned to run with the boundary share its directed edges
    omega = triangulation.omega
    fired = []

    def faulty(d):
        t = omega(d)
        if d.n != 3:
            return t
        fired.append(d)
        return triangulation.Triangulation([f[::-1] for f in t.faces], t.boundary)

    monkeypatch.setattr(triangulation, "omega", faulty)
    rep = run_check("omega-code-suite", 4)
    assert fired
    assert not rep["ok"]
    assert rep["details"]["kind"] == "invalid triangulation"
    assert rep["details"]["error"].startswith("directed edge on two faces")


def test_series_cocycle_reports_a_moved_operator_coefficient(monkeypatch):
    apply_operator = series.apply_operator
    fired = []

    def faulty(name, p):
        img = apply_operator(name, p)
        if p != YPoly.basis(2):
            return img
        fired.append(name)
        c = list(img.coeffs)
        c[1], c[2] = c[2], c[1]
        return YPoly(c)

    monkeypatch.setattr(series, "apply_operator", faulty)
    rep = run_check("series-cocycle", 3)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == {"pairing": "binomial"}


def test_series_rge_reports_a_moved_g_coefficient(monkeypatch):
    g_table = series.g_table
    fired = []

    def faulty(s, phi=None):
        g = g_table(s, phi)
        fired.append(len(s))
        g[1, 3], g[2, 3] = g[2, 3], g[1, 3]
        return g

    monkeypatch.setattr(series, "g_table", faulty)
    rep = run_check("series-rge", 4)
    assert fired
    assert not rep["ok"]
    assert rep["details"] == {"operator": "binomial"}


def test_series_root_share_reports_a_moved_weight_sum_coefficient(monkeypatch):
    root_share_sum = series.root_share_sum
    fired = []

    def faulty(n, i):
        a = root_share_sum(n, i)
        if (n, i) != (3, 1):
            return a
        fired.append((n, i))
        # the coefficient of the first monomial goes to the next one
        (_, c1), (m2, c2), *rest = sorted(a.terms.items())
        return WeightPoly({m2: c1 + c2, **dict(rest)})

    monkeypatch.setattr(series, "root_share_sum", faulty)
    rep = run_check("series-root-share", 4)
    assert fired
    assert not rep["ok"]
    assert {k: rep["details"]["first_failure"][k] for k in ("n", "i")} == {"n": 3, "i": 1}
