"""Structural statistics: intersection order, terminal chords, source-sink
groups, traced subdiagrams, valency, and crossing-graph connectivity."""

import random

import pytest

import per_diagram_series
import recursive_maps
from chordlab.bijections import chi
from chordlab.diagram import ChordDiagram
from chordlab.enumeration import all_diagrams, all_pairs, members
from chordlab.oracles import stein
from chordlab.structure import (
    exists_nonnesting_induced_path,
    intersection_order,
    is_k_connected,
    is_k_terminal,
    is_k_terminal_minimal,
    is_one_terminal,
    source_sink_groups,
    t1,
    terminal_labels,
    terminal_profile,
    terminality,
    traced_subdiagram,
    valency,
    valency_parts,
    vertex_connectivity,
)
from conftest import (
    Ca, Cb, Cc, Cd, Ce, Cf, Cg, K3, N2, connected_matching, left_neighbors, sweep,
    uniform_matching,
)


def test_intersection_order_agrees_with_standard_order_on_fixtures():
    assert intersection_order(Cd) == (1, 2, 3)
    assert intersection_order(Ce) == (1, 2, 3)
    assert intersection_order(Cg) == (1, 2, 3, 4)


def test_intersection_order_requires_connected_nonempty():
    with pytest.raises(ValueError):
        intersection_order(Cc)
    with pytest.raises(ValueError):
        intersection_order(ChordDiagram.empty())


def test_intersection_order_root_first_and_extends_arcs():
    for n in range(1, 6):
        for d in sweep(n):
            if not d.is_connected():
                continue
            order = intersection_order(d)
            assert sorted(order) == list(range(1, n + 1))
            assert order[0] == 1
            rank = {c: i for i, c in enumerate(order)}
            assert all(rank[a] < rank[b] for a, b in d.arcs())


def test_terminal_profiles():
    assert terminal_profile(Cd) == (2, 3)
    assert terminal_profile(Ce) == (3,)
    assert terminal_profile(K3) == (3,)
    assert t1(Ce) == 3
    assert t1(Cb) == 2


def test_last_terminal_is_final_chord_for_connected_diagrams():
    for n in range(1, 6):
        for d in sweep(n):
            if d.is_connected():
                assert terminal_profile(d)[-1] == n


def test_one_terminal_fixtures():
    assert is_one_terminal(Ce)
    assert is_one_terminal(Cb)
    assert not is_one_terminal(Cd)
    assert not is_one_terminal(Cc)


def test_k_terminal_examples():
    assert is_k_terminal(Ce, 1)
    assert not is_k_terminal(Cd, 1)
    assert is_k_terminal(K3, 2)
    # a complete crossing graph is k-terminal for every k
    assert all(is_k_terminal(K3, k) for k in range(1, 6))


def k_terminal_by_definition(d, k):
    """For every j <= min(k, n), no chord with at most j - 1 right
    neighbours sits strictly before intersection position n - j + 1."""
    if k <= 0 or d.n == 0:
        return True
    if not d.is_connected():
        return False
    order = intersection_order(d)
    return all(
        len(d.right_neighbors(x)) >= j
        for j in range(1, min(k, d.n) + 1)
        for x in order[:d.n - j]
    )


def test_k_terminality_matches_the_definition_at_every_k():
    checked = 0
    for n in range(8):
        for d in sweep(n) if n <= 6 else map(ChordDiagram._trusted, all_pairs(n)):
            if n and not d.is_connected():
                continue
            want = [k_terminal_by_definition(d, k) for k in range(n + 2)]
            assert [is_k_terminal(d, k) for k in range(n + 2)] == want, d
            assert terminality(d) == (max(k for k in range(n + 1) if want[k]) if n else 0), d
            checked += 1
    assert checked == 1 + sum(stein(n) for n in range(1, 8))


def test_k_terminal_minimal_examples():
    assert is_k_terminal_minimal(Cf, 1)
    # settled by exhaustive oracle: both non-final chords of Ce have exactly
    # one right neighbor, so Ce is 1-terminal-minimal
    assert is_k_terminal_minimal(Ce, 1)
    assert is_k_terminal_minimal(K3, 2)
    assert not is_k_terminal_minimal(Cd, 1)


def test_source_sink_groups():
    assert source_sink_groups(Cf) == {1: [1], 2: [2, 3], 3: [4, 5]}
    assert source_sink_groups(Ce) == {1: [1], 2: [2], 3: [3, 4, 5]}
    assert source_sink_groups(Ca) == {1: [1]}


def test_one_terminal_is_one_terminal_chord_and_connected():
    for n in range(8):
        for d in all_diagrams(n):
            assert is_one_terminal(d) == (d.is_connected() and len(terminal_labels(d)) == 1), d


def test_groups_partition_points_below_root_sink():
    for n in range(1, 6):
        for d in sweep(n):
            if not is_one_terminal(d):
                continue
            groups = source_sink_groups(d)
            flat = sorted(p for g in groups.values() for p in g)
            assert flat == list(range(1, 2 * n))


def test_traced_subdiagram_examples():
    assert traced_subdiagram(Ce, 3) == {1, 2, 3}
    assert traced_subdiagram(Ce, 2) == {2}
    assert traced_subdiagram(Cf, 2) == {1, 2}


def test_traced_subdiagrams_are_one_terminal():
    for n in range(1, 6):
        for d in sweep(n):
            if not d.is_connected():
                continue
            for c in range(1, n + 1):
                labels = traced_subdiagram(d, c)
                assert is_one_terminal(d.subdiagram(labels))


def test_traced_subdiagram_matches_fixed_point_oracle_exhaustive():
    for n in range(1, 7):
        for d in sweep(n):
            for c in range(1, n + 1):
                assert traced_subdiagram(d, c) == recursive_maps.traced_subdiagram(d, c)


def test_traced_subdiagram_matches_fixed_point_oracle_at_large_n():
    rng = random.Random(20261018)
    for n in (40, 60, 80, 100):
        for d in (uniform_matching(n, rng), connected_matching(n, rng),
                  chi(uniform_matching(n - 1, rng))):
            for c in range(1, n + 1):
                assert traced_subdiagram(d, c) == recursive_maps.traced_subdiagram(d, c)


def test_valency_examples():
    assert [valency(Ce, i) for i in (1, 2, 3)] == [0, 0, 2]
    assert [valency(Cf, i) for i in (1, 2, 3)] == [0, 1, 1]
    assert valency(Ca, 1) == 0


def test_valency_parts_match_the_pairwise_oracle():
    rng = random.Random(7)
    seeded = [uniform_matching(n, rng) for n in (12, 20, 30) for _ in range(5)]
    for d in [d for n in range(7) for d in sweep(n)] + seeded:
        for i in range(1, d.n + 1):
            assert valency_parts(d, i) == per_diagram_series.valency_parts(d, i), (d, i)


def test_connectivity_fixtures():
    assert vertex_connectivity(K3) == 2
    assert vertex_connectivity(Cb) == 1
    assert vertex_connectivity(Cc) == 0
    assert vertex_connectivity(Ca) == 0


def test_k_connected_predicate_on_complete_diagrams():
    # no chord subset disconnects a complete crossing graph, so K3 passes
    # every level up to its size; kappa still reports the standard n-1
    assert all(is_k_connected(K3, k) for k in range(0, 4))
    assert not is_k_connected(K3, 4)
    assert is_k_connected(Ca, 1)
    assert not is_k_connected(Ca, 2)
    assert not is_k_connected(Cc, 1)


def test_k_connected_matches_kappa_off_the_complete_case():
    for n in range(1, 6):
        for d in sweep(n):
            kappa = vertex_connectivity(d)
            full = d.is_connected() and all(
                len(d.right_neighbors(i)) + len(left_neighbors(d, i)) == n - 1
                for i in range(1, n + 1)
            )
            for k in range(1, n + 2):
                want = k <= n if full else kappa >= k
                assert is_k_connected(d, k) == want


def test_nonnesting_induced_path_examples():
    assert exists_nonnesting_induced_path(Cf, 1, 3)
    assert exists_nonnesting_induced_path(Ce, 2, 3)
    assert not exists_nonnesting_induced_path(N2, 1, 2)


def test_nonnesting_induced_path_matches_the_recursive_search():
    for n in range(1, 7):
        for d in members(n, "connected"):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    want = recursive_maps.nonnesting_induced_path(d, a, b)
                    assert exists_nonnesting_induced_path(d, a, b) == want, (d, a, b)
