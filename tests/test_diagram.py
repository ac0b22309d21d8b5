"""Core diagram type: construction, normalization, pairwise relations,
components, and the text/JSON wire formats."""

import pytest
from hypothesis import given, strategies as st

import recursive_maps
from chordlab.diagram import ChordDiagram, concat_all
from conftest import Ca, Cb, Cc, Ce, Cg, K3, N2, sweep


@st.composite
def diagrams(draw, min_size=1, max_size=5):
    n = draw(st.integers(min_size, max_size))
    pts = draw(st.permutations(list(range(1, 2 * n + 1))))
    return ChordDiagram((pts[2 * i], pts[2 * i + 1]) for i in range(n))


def test_construction_normalizes_orientation_and_order():
    assert ChordDiagram([(1, 3), (2, 4)]) == Cb
    assert ChordDiagram([(3, 1), (4, 2)]) == Cb
    assert ChordDiagram([(2, 4), (1, 3)]) == Cb


def test_construction_rejects_reused_point():
    with pytest.raises(ValueError):
        ChordDiagram([(1, 2), (2, 3)])


def test_construction_rejects_gap_in_points():
    with pytest.raises(ValueError):
        ChordDiagram([(1, 2), (3, 5)])
    with pytest.raises(ValueError):
        ChordDiagram.from_json({"pairs": [[1, 2], [3, 5]]})


@pytest.mark.parametrize("pairs", [
    [(1, 2), (2, 3)],  # a point twice across two chords
    [(1, 1), (2, 3)],  # a point twice in one chord
    [(3, 4), (3, 4)],  # a chord twice, so 1 and 2 are missing
    [(1, 4), (2, 3), (1, 5)],  # 6 missing
    [(0, 1)],  # zero
    [(-1, 2)],
    [(1, 2), (3, 5)],  # 2n + 1 in place of 2n
    [(1, 5), (2, 3)],
], ids=str)
def test_construction_names_endpoints_that_do_not_cover_1_to_2n(pairs):
    with pytest.raises(ValueError, match=r"^endpoints must cover 1\.\.2n exactly once$"):
        ChordDiagram(pairs)


def test_empty_diagram():
    e = ChordDiagram.empty()
    assert e.n == 0
    assert e.to_text() == "()"
    assert ChordDiagram.from_text("()") == e


@given(diagrams())
def test_partner_is_fixed_point_free_involution(d):
    p = recursive_maps.partners(d)
    assert len(p) == 2 * d.n
    for point in range(1, 2 * d.n + 1):
        assert p[p[point - 1] - 1] == point
        assert p[point - 1] != point


def test_point_labels_round_trip_through_the_trusted_constructor():
    assert Ce.point_labels() == (1, 2, 3, 2, 1, 3)
    assert ChordDiagram.empty().point_labels() == ()
    # any letters in 1..2n; chords are numbered by first occurrence
    assert ChordDiagram._from_point_labels([4, 2, 4, 2]) == Cb
    for n in range(0, 7):
        for d in sweep(n):
            assert ChordDiagram._from_point_labels(d.point_labels()) == d


@given(diagrams())
def test_chords_sorted_by_source_with_source_below_sink(d):
    sources = [d.source(i) for i in range(1, d.n + 1)]
    assert sources == sorted(sources)
    assert all(d.source(i) < d.sink(i) for i in range(1, d.n + 1))


def test_crossing_and_nesting_counts():
    assert (Cb.crossings(), Cb.nestings()) == (1, 0)
    assert (N2.crossings(), N2.nestings()) == (0, 1)
    assert (Ce.crossings(), Ce.nestings()) == (2, 1)


def test_pairwise_relations():
    assert Cb.crosses(1, 2)
    assert N2.nested(1, 2)
    assert Cc.disjoint(1, 2)
    assert Ce.relation(1, 2) == "nest"
    assert Ce.relation(1, 3) == "cross"


def test_right_neighbor_arcs():
    assert Cb.arcs() == ((1, 2),)
    assert K3.arcs() == ((1, 2), (1, 3), (2, 3))
    assert Cc.arcs() == ()


@given(diagrams())
def test_arcs_are_acyclic_by_source_order(d):
    assert all(a < b for a, b in d.arcs())


def test_concat_examples():
    assert Ca.concat(Ca) == Cc
    assert ChordDiagram.empty().concat(Cb) == Cb
    assert Cb.concat(Ca) == ChordDiagram.from_text("(1,3)(2,4)(5,6)")
    assert concat_all([Ca, Ca, Ca]) == ChordDiagram.from_text("(1,2)(3,4)(5,6)")


def test_subdiagram_examples():
    assert Ce.subdiagram([1, 2]) == N2
    assert K3.subdiagram([2, 3]) == Cb
    assert Ce.subdiagram([1, 2, 3]) == Ce


@given(diagrams())
def test_subdiagram_of_all_chords_is_identity(d):
    assert d.subdiagram(range(1, d.n + 1)) == d


def test_subdiagram_rejects_labels_outside_the_diagram():
    # label 0 would otherwise read the last chord through pairs[-1]
    for labels in ([0], [0, 1], [1, 4], [4]):
        with pytest.raises(ValueError):
            K3.subdiagram(labels)
    assert K3.subdiagram([]) == ChordDiagram.empty()


@given(diagrams(max_size=6), st.data())
def test_subdiagram_matches_the_validating_constructor(d, data):
    labels = data.draw(st.sets(st.integers(1, d.n)))
    sub = d.subdiagram(labels)
    assert sub == ChordDiagram(sub.pairs)
    assert sub.n == len(labels)


def test_components_distinguish_connected_from_indecomposable():
    assert Cc.components() == [(1,), (2,)]
    assert Cc.indecomposable_components() == [(1,), (2,)]
    # nested pair: disconnected crossing graph, yet not a concatenation
    assert N2.components() == [(1,), (2,)]
    assert N2.indecomposable_components() == [(1, 2)]
    assert Ce.components() == [(1, 2, 3)]
    assert Ce.is_connected()
    assert not N2.is_connected()
    assert N2.is_indecomposable()


def test_text_round_trip_examples():
    assert Cb.to_text() == "(1,3)(2,4)"
    assert ChordDiagram.from_text("(2,4)(1,3)") == Cb
    with pytest.raises(ValueError):
        ChordDiagram.from_text("(1,3)(2,3)")


def test_text_of_small_and_large_diagrams_formats_every_chord():
    # the text of every size comes from one format string
    for n in (1, 12, 13):
        nested = ChordDiagram((i, 2 * n + 1 - i) for i in range(1, n + 1))
        crossing = ChordDiagram((i, i + n) for i in range(1, n + 1))
        for d in (nested, crossing):
            assert d.to_text() == "".join("(%d,%d)" % p for p in d.pairs)


@given(diagrams())
def test_text_and_json_round_trips(d):
    assert ChordDiagram.from_text(d.to_text()) == d
    assert ChordDiagram.from_json(d.to_json()) == d


def test_chord_at_maps_points_to_chords():
    assert Cg.chord_at(5) == 4
    assert Cg.chord_at(7) == 2
    assert [Cb.chord_at(p) for p in range(1, 5)] == [1, 2, 1, 2]


def test_exhaustive_size_two_and_three_counts():
    assert len(sweep(2)) == 3
    assert len(sweep(3)) == 15
    assert len(set(sweep(3))) == 15


def test_indecomposable_components_cut_at_every_closed_prefix():
    # a cut after point p means every chord with a point in 1..p ends there
    for n in range(0, 6):
        for d in sweep(n):
            cuts = [p for p in range(1, 2 * n + 1)
                    if all(b <= p for a, b in d if a <= p)]
            want = []
            lo = 0
            for hi in cuts:
                want.append(tuple(i for i, (a, b) in enumerate(d, 1) if lo < b <= hi))
                lo = hi
            assert d.indecomposable_components() == want
