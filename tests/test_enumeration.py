"""Exhaustive enumeration and the counting oracles it is checked against."""

from collections import Counter
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import comb, prod

import pytest

import recursive_maps

from chordlab import bijections, checks, diagram, enumeration, patterns
from chordlab.conjectures import variant_counts
from chordlab.diagram import ChordDiagram
from chordlab.enumeration import (
    PROFILE_CLASSES,
    VARIANTS,
    all_diagrams,
    all_pairs,
    all_texts,
    branches,
    census,
    class_census,
    count_class,
    count_members,
    count_classes_parallel,
    members,
    pattern_free_count,
    tally,
    tcf_refined,
)
from chordlab.oracles import (
    baxter,
    brown,
    catalan,
    corollary_count,
    corollary_sum,
    double_factorial,
    gen_catalan,
    kreweras,
    one_terminal,
    oracle_value,
    schroeder,
    semi_baxter,
    stanley,
    stein,
    tutte,
)
from chordlab.patterns import HEREDITARY_CLASSES, complete_diagram, in_class, permutation_diagram
from chordlab.structure import (
    intersection_order,
    is_one_terminal,
    t1,
    terminal_labels,
    vertex_connectivity,
)
from conftest import K3, sweep


def test_stream_sizes():
    assert len(sweep(2)) == 3
    assert len(sweep(3)) == 15
    assert [d.to_text() for d in all_diagrams(0)] == ["()"]


def test_stream_counts_match_double_factorial():
    for n in range(0, 7):
        assert census(n)["all"] == double_factorial(n)


def test_census_is_job_count_independent():
    for jobs in (1, 3):
        for cls, want in census(5).items():
            assert sum(count_classes_parallel(5, (cls,), jobs=jobs)[cls].values()) == want


def test_one_pool_counts_several_classes(monkeypatch):
    from chordlab import enumeration

    pools = []
    real_pool = enumeration.multiprocessing.Pool
    monkeypatch.setattr(
        enumeration.multiprocessing, "Pool", lambda jobs: pools.append(jobs) or real_pool(jobs)
    )
    # each class walks the root-insertion sites, shared out by the first
    # chord of the parents
    classes = ("connected", "one-terminal", "top-cycle-free", "K3-free", "indecomposable")
    for stats in (("crossings",), ()):
        tables = count_classes_parallel(5, classes, stats, jobs=2)
        assert list(tables) == list(classes)
        for cls in classes:
            assert tables[cls] == count_class(5, cls, stats), (cls, stats)
    assert pools == [2, 2]


def test_branches_split_the_stream():
    counts = [sum(1 for _ in all_pairs(4, b)) for b in branches(4)]
    assert sum(counts) == double_factorial(4)
    # the branches are consecutive blocks of the stream, in branch order
    assert [p for b in branches(4) for p in all_pairs(4, b)] == list(all_pairs(4))


def test_all_pairs_matches_the_recursive_generator():
    for n in range(8):
        for got, want in zip_longest(all_pairs(n), recursive_maps.all_pairs(n)):
            assert got == tuple(want), n
        # the text stream is the same walk, written as to_text writes it
        for got, want in zip_longest(all_texts(n), recursive_maps.all_pairs(n)):
            assert got == ("".join("(%d,%d)" % p for p in want) or "()"), n
    for n in range(7):
        for b in branches(n):
            for got, want in zip_longest(all_pairs(n, b), recursive_maps.all_pairs(n, b)):
                assert got == tuple(want), (n, b)


def test_all_pairs_walks_standard_pair_tuples_in_partner_order():
    for n in range(8):
        count = 0
        last = None
        for pairs in all_pairs(n):
            assert type(pairs) is tuple and len(pairs) == n
            for pair in pairs:
                assert type(pair) is tuple and len(pair) == 2
                assert all(type(p) is int for p in pair)
                assert pair[0] < pair[1]
            assert [a for a, _ in pairs] == sorted(a for a, _ in pairs)
            partner = [0] * (2 * n)
            for a, b in pairs:
                partner[a - 1] = b
                partner[b - 1] = a
            assert sorted(partner) == list(range(1, 2 * n + 1))
            assert last is None or partner > last
            last = partner
            count += 1
        assert count == double_factorial(n)
    assert list(all_pairs(0)) == [()]


@pytest.mark.parametrize("n, b", [(3, 1), (3, 99), (2, 0), (0, 2), (3, -2), (1, 3)])
def test_branches_outside_the_split_are_rejected(n, b):
    with pytest.raises(ValueError, match="branch"):
        list(all_pairs(n, b))


def test_negative_sizes_are_rejected():
    calls = (
        lambda: list(all_pairs(-1)),
        lambda: census(-1),
        lambda: count_class(-1),
        # classes built by root insertion, which would recurse one size down
        lambda: list(members(-1, "K3-free")),
        lambda: count_members(-1, "nonnesting"),
        lambda: count_members(-1, "one-terminal"),
        lambda: count_class(-2, "tree"),
        lambda: list(members(-1, "indecomposable")),
        lambda: count_members(-1, "indecomposable"),
        lambda: count_class(-1, "indecomposable", ("crossings",)),
        # the histories of "all", which walk no diagram
        lambda: count_class(-1, "all", ("crossings",)),
        # the root shares of "connected", which walk no diagram either
        lambda: count_class(-1, "connected", ("t1",)),
        lambda: pattern_free_count(-1, K3),
        lambda: tally(-1, t1, cls="chordal"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="size must be >= 0"):
            call()


def test_count_class_examples():
    assert count_class(3, "connected") == {(3,): 4}
    assert count_class(3, "one-terminal") == {(3,): 3}
    assert count_class(4, "connected") == {(4,): 27}


def test_connected_top_cycle_free_count():
    from chordlab.patterns import contains_any_top_cycle

    got = sum(
        1 for d in sweep(4) if d.is_connected() and not contains_any_top_cycle(d)
    )
    assert got == 13


def test_count_class_with_statistics():
    table = count_class(3, "connected", statistics=("t1",))
    assert table == {(3, 2): 1, (3, 3): 3}
    assert count_classes_parallel(3, ("connected",), ("t1",), jobs=2)["connected"] == table


def test_count_class_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        count_class(3, "no-such-class")
    with pytest.raises(ValueError):
        count_class(3, "all", statistics=("no-such-stat",))
    with pytest.raises(ValueError):
        count_members(3, "all", "no-such-variant")
    with pytest.raises(ValueError):
        members(3, "K3-free", variant="no-such-variant")


def leaf_filter(n, cls):
    """The size-n members of a class, filtered from every leaf of the stream."""
    return tuple(d for d in all_diagrams(n) if in_class(d, cls))


# the classes with a root-insertion rule of their own, filtered up to n = 7
# below; the other hereditary classes are filtered up to n = 6
ROOT_RULES = ("connected", "one-terminal", "noncrossing", "nonnesting")
# a sample of the parametric pattern classes, the empty and one-chord
# patterns included (K2, N2, K3 and N3 are the permutation diagrams of 12,
# 21, 123 and 321)
PATTERN_CLASSES = (
    "K0-free", "K1-free", "K2-free", "K3-free", "K4-free", "N2-free", "N3-free",
    "perm-132-free", "perm-213-free", "perm-231-free", "perm-312-free", "perm-2143-free",
)
HEREDITARY = (*HEREDITARY_CLASSES, *PATTERN_CLASSES)


@pytest.mark.parametrize("n", range(7))
def test_variants_of_every_class_match_the_leaf_filter(n, monkeypatch):
    # an empty domain cache, dropped after each size
    monkeypatch.setattr(checks, "_class_domain", lru_cache(maxsize=None)(checks._class_domain.__wrapped__))
    tests = {"connected": ChordDiagram.is_connected, "one-terminal": is_one_terminal}
    leaves = list(all_diagrams(n))
    for cls in ("all", "indecomposable", *HEREDITARY):
        inside = [d for d in leaves if in_class(d, cls)]
        walk = checks._domain(n, cls)
        for variant, test in tests.items():
            want = [d.pairs for d in inside if test(d)]
            got = [d.pairs for d in members(n, cls, variant=variant)]
            assert Counter(got) == Counter(want), (cls, variant)
            assert count_members(n, cls, variant) == len(want), (cls, variant)
            # both variants keep the order of the class's own walk
            assert got == [d.pairs for d in walk if test(d)], (cls, variant)
            assert [d.pairs for d in checks._domain(n, cls, variant)] == got, (cls, variant)


@pytest.mark.parametrize("n", range(8))
def test_root_insertion_matches_the_leaf_filter(n):
    for cls in ROOT_RULES:
        want = tuple(d.pairs for d in leaf_filter(n, cls))
        assert tuple(d.pairs for d in members(n, cls)) == want, cls
        # walked parent by parent, the same diagrams in another order
        assert sorted(d.pairs for d in members(n, cls, ordered=False)) == sorted(want), cls


def test_one_terminal_stream_matches_filter():
    for n in range(1, 8):
        slow = leaf_filter(n, "one-terminal")
        assert checks._domain(n, "one-terminal") == slow
        assert len(slow) == one_terminal(n)
        assert checks._domain(n, "connected") == leaf_filter(n, "connected")


def test_root_insertion_at_sizes_zero_and_one():
    empty, chord = ChordDiagram(()), ChordDiagram([(1, 2)])
    for cls in HEREDITARY_CLASSES:
        assert list(members(0, cls)) == [empty], cls
    assert list(members(0, "connected")) == list(members(0, "one-terminal")) == []
    for cls in ("all", "indecomposable", *HEREDITARY_CLASSES):
        for variant in VARIANTS[1:]:
            assert list(members(0, cls, variant=variant)) == [], (cls, variant)
    for cls in (*ROOT_RULES, *HEREDITARY_CLASSES):
        assert list(members(1, cls)) == [chord], cls
        assert list(members(1, cls))[0].is_connected()
    # every diagram holds the empty pattern, and every nonempty one a chord
    assert [count_members(n, "K0-free") for n in range(3)] == [0, 0, 0]
    assert [count_members(n, "K1-free") for n in range(3)] == [1, 0, 0]


class SerialPool:
    """A stand-in for multiprocessing.Pool that maps in this process."""

    def __init__(self, jobs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_parallel_shares_match_the_leaf_filter(monkeypatch):
    # the work items of a parallel count, mapped in this process: the
    # first chord for the plain count of "all", which counts the stream,
    # the first chord of the root-insertion parents for the others
    monkeypatch.setattr(enumeration.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    classes = ("all", *ROOT_RULES, "K3-free", "chordal", "indecomposable")
    for n in range(2, 7):
        want = {cls: leaf_filter(n, cls) for cls in classes}
        tables = count_classes_parallel(n, classes, jobs=2)
        for cls in classes:
            assert tables[cls] == {(n,): len(want[cls])}, (n, cls)
        tables = count_classes_parallel(n, classes, ("crossings",), jobs=2)
        for cls in classes:
            rows = Counter((n, d.crossings()) for d in want[cls])
            assert tables[cls] == rows, (n, cls)


def test_root_insertion_fills_in_what_a_fresh_diagram_computes():
    for n in range(1, 7):
        for cls in (*ROOT_RULES, "indecomposable", "chordal", "K3-free", "perm-213-free"):
            for d in members(n, cls):
                fresh = ChordDiagram._trusted(d.pairs)
                assert d._adj == fresh.adjacency(), d
                assert d._connected == fresh.is_connected(), d
                if d._connected:
                    assert d._order == intersection_order(fresh), d
                else:
                    assert d._order is None, d


# "indecomposable" is not hereditary, but is built by root insertion too
@pytest.mark.parametrize("cls", (*HEREDITARY, "indecomposable"))
def test_hereditary_classes_match_the_leaf_filter(cls):
    for n in range(7):
        want = tuple(d for d in sweep(n) if in_class(d, cls))
        assert tuple(members(n, cls)) == want, n
        assert sorted(d.pairs for d in members(n, cls, ordered=False)) == sorted(
            d.pairs for d in want
        ), n
        assert count_members(n, cls) == len(want), n


def test_k3_n3_and_triangle_free_counts_are_stanley():
    for n in range(8):
        counts = {count_members(n, c) for c in ("triangle-free", "K3-free", "N3-free")}
        assert counts == {stanley(n)}, n


def count_built(monkeypatch):
    """Count the diagrams built through `_trusted` (which
    `_from_point_labels` calls too), by size."""
    built = Counter()
    trusted = ChordDiagram._trusted.__func__

    def counted(cls, pairs):
        pairs = tuple(pairs)
        built[len(pairs)] += 1
        return trusted(cls, pairs)

    monkeypatch.setattr(ChordDiagram, "_trusted", classmethod(counted))
    return built


def test_hereditary_counts_build_no_diagram_of_the_counted_size(monkeypatch):
    built = count_built(monkeypatch)
    for cls, want in (
        ("bipartite", 4659), ("K3-free", stanley(6)),
        ("top-cycle-free", 4318), ("bottom-cycle-free", 4288), ("chordal", 8549),
    ):
        built.clear()
        assert count_members.__wrapped__(6, cls) == want
        assert built[6] == 0 and built[5] > 0, (cls, built)
    built.clear()
    assert pattern_free_count.__wrapped__(6, permutation_diagram("213")) == 4318
    assert built[6] == 0 and built[5] > 0, built


# count_class reads every statistic off the root-insertion sites: each
# alone, and the pairs of the benchmark's sweep
SITE_STAT_SETS = (
    *((s,) for s in enumeration.STAT_NAMES),
    ("t1", "terminal-count"),
    ("crossings", "nestings"),
    ("terminality", "kappa"),
)
SITE_CLASSES = ("all", "connected", "one-terminal")
SITE_CLASSES_TO_SIX = (
    *SITE_CLASSES, "nonnesting", "tree", "K3-free", "top-cycle-free", "indecomposable"
)


@lru_cache(maxsize=None)
def leaf_statistics(n):
    """(classes, every statistic of count_class) -> how many diagrams of
    the all_pairs stream, each read off a fresh ChordDiagram(pairs) that
    inherits no mask, order or connectivity; t1 is None off connected
    diagrams."""
    classes = SITE_CLASSES if n == 7 else SITE_CLASSES_TO_SIX
    out = Counter()
    for pairs in all_pairs(n):
        d = ChordDiagram(pairs)
        inside = tuple(c for c in classes if in_class(d, c))
        if inside:
            values = {
                name: f(d)
                for name, f in enumeration._STAT_FUNCS.items()
                if name not in ("t1", "kappa")
            }
            values["t1"] = t1(d) if d.is_connected() else None
            values["kappa"] = vertex_connectivity(d)
            out[inside, tuple(sorted(values.items()))] += 1
    return out


@pytest.mark.parametrize("n", range(8))
def test_site_rules_match_the_leaf_statistics(n):
    for cls in SITE_CLASSES if n == 7 else SITE_CLASSES_TO_SIX:
        for stats in SITE_STAT_SETS:
            want = Counter()
            for (inside, values), count in leaf_statistics(n).items():
                if cls in inside:
                    values = dict(values)
                    want[(n, *(values[s] for s in stats))] += count
            if "t1" in stats and any(k[1 + stats.index("t1")] is None for k in want):
                with pytest.raises(ValueError, match="class %s has disconnected" % cls):
                    count_class(n, cls, stats)
            else:
                assert count_class(n, cls, stats) == want, (cls, stats)


def test_site_rows_do_not_depend_on_the_job_count():
    for stats in SITE_STAT_SETS:
        classes = SITE_CLASSES_TO_SIX
        if "t1" in stats:
            # the classes with disconnected members refuse t1 at any job count
            classes = ("connected", "one-terminal")
        tables = count_classes_parallel(6, classes, stats, jobs=2)
        for cls in classes:
            assert tables[cls] == count_class(6, cls, stats), (cls, stats)
    for jobs in (1, 2):
        with pytest.raises(ValueError) as raised:
            count_classes_parallel(5, ("all",), ("crossings", "t1"), jobs=jobs)
        assert str(raised.value) == (
            "statistic t1 needs connected diagrams; class all has disconnected members"
        )


def test_site_rows_build_no_diagram_of_the_counted_size(monkeypatch):
    # the indecomposable rows of the filtered stream, read before counting
    want = Counter((7, d.crossings()) for d in all_diagrams(7) if in_class(d, "indecomposable"))
    assert sum(want.values()) == 110410
    # the histories of "all" and the root shares of "connected" build no
    # diagram of any size, through either constructor
    inits = []
    init = diagram._init
    monkeypatch.setattr(diagram, "_init", lambda d, pairs: inits.append(pairs) or init(d, pairs))
    for stats in (("crossings", "nestings"), ("terminal-count",)):
        assert sum(count_class(7, "all", stats).values()) == double_factorial(7)
        assert inits == [], stats
    assert sum(count_class(8, "connected", ("t1", "terminal-count")).values()) == A000699[8]
    assert inits == []
    monkeypatch.undo()
    built = count_built(monkeypatch)
    assert count_members(7, "indecomposable") == 110410
    assert count_class(7, "indecomposable", ("crossings",)) == want
    assert built[7] == 0 and built[6] == 2 * double_factorial(6), built


def test_kappa_site_rows_build_no_diagram_of_the_counted_size(monkeypatch):
    built = count_built(monkeypatch)
    table = count_class(7, "one-terminal", ("terminality", "kappa"))
    assert sum(table.values()) == one_terminal(7)
    assert built[7] == 0 and built[6] > 0, built


def test_histories_of_all_open_no_pool(monkeypatch):
    # "all" by crossings, nestings and terminal-count is counted in this
    # process; only the other classes are shared out to the pool
    def no_pool(jobs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for stats in (("crossings", "nestings"), ("terminal-count",), ("nestings", "crossings")):
        tables = count_classes_parallel(6, ("all",), stats, jobs=2)
        assert tables["all"] == count_class(6, "all", stats), stats
    # and so are the root shares of "connected" by t1 and terminal-count
    for stats in SHARE_STAT_SETS:
        tables = count_classes_parallel(6, ("connected",), stats, jobs=2)
        assert tables["connected"] == count_class(6, "connected", stats), stats
    tables = count_classes_parallel(6, ("all", "connected"), ("terminal-count",), jobs=2)
    assert list(tables) == ["all", "connected"]
    items = []

    class RecordingPool(SerialPool):
        def map(self, fn, work):
            items.extend(work)
            return super().map(fn, work)

    monkeypatch.setattr(enumeration.multiprocessing, "Pool", RecordingPool)
    tables = count_classes_parallel(6, ("all", "connected"), ("crossings",), jobs=2)
    assert list(tables) == ["all", "connected"]
    assert {c for _, c, _, _ in items} == {"connected"}
    for cls in tables:
        assert tables[cls] == count_class(6, cls, ("crossings",)), cls


def touchard_riordan(n):
    """{k: diagrams of size n with k crossings}, by the Touchard-Riordan
    formula: the sum over k >= 0 of (-1)^k (C(2n, n-k) - C(2n, n-k-1))
    q^(k(k+1)/2), divided by (1 - q)^n."""
    poly = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        ballot = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if k < n else 0)
        poly[k * (k + 1) // 2] += (-1) ** k * ballot
    for _ in range(n):
        # P = (1 - q) Q leaves no remainder, and Q's coefficients are P's
        # prefix sums
        assert sum(poly) == 0
        poly = list(accumulate(poly))[:-1]
    return {k: c for k, c in enumerate(poly) if c}


def test_touchard_riordan_counts_the_stream():
    for n in range(7):
        assert touchard_riordan(n) == Counter(d.crossings() for d in all_diagrams(n)), n


@pytest.mark.parametrize("n", range(8, 13))
def test_histories_match_the_formulas_beyond_the_sweep(n):
    # the tables of "all" past exhaustive reach, against closed forms
    crossings = count_class(n, "all", ("crossings",))
    nestings = count_class(n, "all", ("nestings",))
    joint = count_class(n, "all", ("crossings", "nestings"))
    terminal = count_class(n, "all", ("crossings", "terminal-count"))
    every = count_class(n, "all", ("terminal-count", "nestings", "crossings"))
    want = {(n, k): c for k, c in touchard_riordan(n).items()}
    assert crossings == want and nestings == want
    # crossings and nestings are symmetric jointly (Kasraoui and Zeng, 2006)
    assert joint == {(n, b, a): c for (_, a, b), c in joint.items()}
    assert sum(c for (_, a, _), c in joint.items() if a == 0) == catalan(n)
    assert sum(c for (_, _, b), c in joint.items() if b == 0) == catalan(n)
    # all n chords are terminal exactly when the diagram is noncrossing
    assert {k: c for k, c in terminal.items() if k[1] == 0 or k[2] == n} == {(n, 0, n): catalan(n)}
    for table in (crossings, nestings, joint, terminal, every):
        assert sum(table.values()) == double_factorial(n)


# connected diagrams of sizes 8 to 12 (OEIS A000699)
A000699 = {8: 593859, 9: 10401712, 10: 202601898, 11: 4342263000, 12: 101551822350}
SHARE_STAT_SETS = (
    ("t1",), ("terminal-count",), ("t1", "terminal-count"), ("terminal-count", "t1"), ("t1", "t1")
)


def connected_t1_terminals(n):
    """{(t1, terminal chords): count} over the connected diagrams of size
    n, each a fresh diagram measured on its own."""
    out = Counter()
    for pairs in all_pairs(n):
        d = ChordDiagram(pairs)
        if d.is_connected():
            out[t1(d), len(terminal_labels(d))] += 1
    return out


@pytest.mark.parametrize("n", range(8))
def test_root_shares_match_a_per_diagram_tally(n):
    measured = connected_t1_terminals(n)
    for stats in SHARE_STAT_SETS:
        assert enumeration._recurrence("connected", stats) is enumeration._root_shares
        want = Counter()
        for values, count in measured.items():
            named = dict(zip(("t1", "terminal-count"), values))
            want[(n, *[named[s] for s in stats])] += count
        assert count_class(n, "connected", stats) == want, stats
    if n == 0:
        assert count_class(0, "connected", ("t1", "terminal-count")) == {}


@pytest.mark.parametrize("n", range(8, 13))
def test_root_shares_match_the_counts_beyond_the_sweep(n):
    rows = count_class(n, "connected", ("t1", "terminal-count"))
    assert sum(rows.values()) == A000699[n]
    # the one-terminal diagrams, (2n-3)!! of them, have their one terminal
    # chord last in the intersection order
    one = {k: c for k, c in rows.items() if k[2] == 1}
    assert one == {(n, n, 1): prod(range(2 * n - 3, 0, -2))}


def test_root_share_t1_rows_match_the_site_walk(monkeypatch):
    shares = count_class(8, "connected", ("t1",))
    monkeypatch.setattr(enumeration, "_recurrence", lambda cls, stats: None)
    assert count_class(8, "connected", ("t1",)) == shares
    assert sum(shares.values()) == A000699[8]


def loop_connected(s, ks):
    """The roots k whose child is connected, by testing the root's crossing
    mask against every component of s: the oracle of `_insertions`'
    interval rule."""
    roots = [0]
    for x in s.point_labels():
        roots.append(roots[-1] ^ 1 << (x - 1))
    comps = s.components()
    masks = [sum(1 << (label - 1) for label in c) for c in comps]
    return sum(1 << k for k in ks if all(roots[k] & c for c in masks))


def test_connected_roots_follow_the_interval_rule():
    parents = 0
    for m in range(7):
        ks = list(range(2 * m + 1))
        for s in sweep(m):
            want = loop_connected(s, ks)
            assert enumeration._insertions(s, "all", "all", ks)[2] == want, s
            # one root, as a walk split by the parents' first chord asks
            k = (m * 7 + parents) % len(ks)
            assert enumeration._insertions(s, "all", "all", [k])[2] == want & 1 << k, (s, k)
            parents += 1
    assert parents == 11465


def test_census_counts_the_stream_itself(monkeypatch):
    real = enumeration.all_pairs

    def one_short(n, branch=None):
        stream = real(n, branch)
        next(stream)
        return stream

    want = census(4)["all"]
    monkeypatch.setattr(enumeration, "all_pairs", one_short)
    monkeypatch.setattr(enumeration, "count_members", count_members.__wrapped__)
    assert census.__wrapped__(4)["all"] == want - 1


def test_the_one_terminal_domain_is_not_built_by_chi(monkeypatch):
    # psi-bijection walks this domain; built from chi's image, it would
    # test psi only where chi already inverts it
    def refuse(*_):
        raise AssertionError("the one-terminal domain must not call chi or psi")

    for name in ("chi", "psi"):
        monkeypatch.setattr(bijections, name, refuse)
        monkeypatch.setattr(checks, name, refuse)
    for n in range(1, 6):
        assert checks._class_domain.__wrapped__(n, "one-terminal", "all") == leaf_filter(n, "one-terminal")


def test_class_census_cross_class_identities():
    rows = class_census(4)
    assert rows["all"]["connected"] == 27
    assert rows["all"]["one-terminal"] == 15
    assert rows["noncrossing"]["all"] == catalan(4)
    assert rows["nonnesting"]["all"] == catalan(4)
    # cycle-free intersection graphs are in particular top-cycle-free
    assert rows["top-cycle-free"]["all"] >= rows["tree"]["all"]


def test_tcf_refined_matches_corollary_counts():
    for n in range(1, 6):
        refined = tcf_refined(n)
        assert refined == {
            i: corollary_count(n, i) for i in range(min(2, n), n + 1)
        }
        assert sum(refined.values()) == corollary_sum(n)


def direct_variants(n, cls):
    """{all, connected, one-terminal} counts of a class, one diagram at a time."""
    out = {"all": 0, "connected": 0, "one-terminal": 0}
    for d in all_diagrams(n):
        if in_class(d, cls):
            out["all"] += 1
            out["connected"] += d.is_connected()
            out["one-terminal"] += is_one_terminal(d)
    return out


@pytest.mark.parametrize("n", range(0, 6))
def test_census_and_class_census_match_a_direct_loop(n):
    assert dict(census(n)) == direct_variants(n, "all")
    rows = class_census(n)
    assert list(rows) == list(PROFILE_CLASSES)
    for cls in PROFILE_CLASSES:
        want = direct_variants(n, cls)
        for variant, count in want.items():
            assert rows[cls][variant] == count, (cls, variant)


@pytest.mark.parametrize("cls", ["K3-free", "indecomposable", "connected"])
def test_variant_counts_outside_the_profile_classes_match_a_direct_loop(cls):
    rows = [direct_variants(n, cls) for n in range(1, 6)]
    assert variant_counts(cls, 5) == {v: [row[v] for row in rows] for v in rows[0]}


@pytest.mark.parametrize("cls", PROFILE_CLASSES)
def test_variant_counts_match_the_class_census(cls):
    # the rows come off the root-insertion sites; class_census tests every
    # diagram's cycle profile
    assert variant_counts(cls, 7) == {v: [class_census(n)[cls][v] for n in range(1, 8)] for v in VARIANTS}


def test_tally_counts_key_values_in_first_occurrence_order():
    def key(d):
        return (d.crossings(), t1(d)) if d.is_connected() else None

    for n in range(1, 6):
        whole = tally(n, key)
        keys = [key(d) for d in all_diagrams(n)]
        assert list(whole) == list(dict.fromkeys(k for k in keys if k is not None))
        assert whole == Counter(k for k in keys if k is not None)
        assert sum(whole.values()) == census(n)["connected"]


def test_pattern_free_counts():
    assert pattern_free_count(3, K3) == 14


def test_patterns_larger_than_every_child_build_no_relation_table(monkeypatch):
    # the table is quadratic in the pattern; a pattern with more chords
    # than the child is absent from it, whatever the table would say
    sizes = []
    real = patterns._relation_table
    monkeypatch.setattr(patterns, "_relation_table", lambda pairs: sizes.append(len(pairs)) or real(pairs))
    assert pattern_free_count.__wrapped__(3, complete_diagram(5000)) == 15
    assert count_members(3, "N5000-free") == 15
    assert sizes == []


def test_oracle_fixed_values():
    assert [double_factorial(n) for n in range(1, 6)] == [1, 3, 15, 105, 945]
    assert [stein(n) for n in range(1, 8)] == [1, 1, 4, 27, 248, 2830, 38232]
    assert stein(8) == 593859
    assert [catalan(n) for n in range(0, 7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [one_terminal(n) for n in range(1, 6)] == [1, 1, 3, 15, 105]
    assert corollary_count(4, 3) == 5
    assert corollary_count(1, 1) == 1
    assert corollary_sum(1) == 1
    assert [corollary_count(n, n) for n in range(1, 7)] == [
        catalan(n - 1) for n in range(1, 7)
    ]
    # the root of a connected diagram with two or more chords is never terminal
    assert [corollary_count(n, 1) for n in range(2, 7)] == [0] * 5
    for n, i in [(1, 0), (3, 0), (3, -1), (1, 2), (3, 4)]:
        with pytest.raises(ValueError):
            corollary_count(n, i)
    assert stanley(3) == 14
    assert brown(1, 0) == 2
    assert [tutte(n) for n in range(1, 6)] == [1, 3, 13, 68, 399]
    assert corollary_sum(4) == 13
    assert [kreweras(n) for n in range(1, 5)] == [1, 3, 12, 55]
    assert schroeder(0) == 1 and schroeder(2) == 6
    assert baxter(5) == 22
    assert semi_baxter(5) == 23
    assert gen_catalan(3) == 13


def test_oracle_value_lookup():
    assert oracle_value("catalan", 4) == 14
    assert oracle_value("stein", 3) == 4
    assert oracle_value("catalan", -1) is None
    with pytest.raises(ValueError):
        oracle_value("no-such-oracle", 3)
