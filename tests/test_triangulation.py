"""Diagrams as rooted triangulations: the omega map, canonical codes, and
the child decomposition gamma."""

import random

import pytest

import recursive_maps
from chordlab.bijections import alpha, beta
from chordlab.oracles import corollary_count
from chordlab.patterns import contains_any_top_cycle
from chordlab.structure import t1
from chordlab.triangulation import Triangulation, gamma, omega
from conftest import Ca, Cb, Ce, Cg, beta_grown, path_diagram, sweep


def _tcf_connected(n):
    return [d for d in sweep(n) if d.is_connected() and not contains_any_top_cycle(d)]


def test_omega_examples():
    edge = omega(Ca)
    assert edge.faces == frozenset()
    assert list(edge.boundary) == [0, 1]
    tri = omega(Cb)
    assert len(tri.faces) == 1
    assert len(tri.boundary) == 3
    square = omega(Ce)
    assert len(square.boundary) == 4
    assert len(square.faces) == 2
    # all four vertices exterior: no interior vertex yet at this size
    assert set(square.vertices()) == set(square.boundary)


def test_omega_boundary_and_interior_sizes():
    # boundary has t1 + 1 vertices, interior has n - t1
    for n in range(1, 6):
        for d in _tcf_connected(n):
            t = omega(d)
            t.validate()
            assert len(t.boundary) == t1(d) + 1
            assert len(t.vertices()) - len(t.boundary) == d.n - t1(d)


def test_omega_matches_the_recursive_construction():
    for n in range(1, 7):
        for d in _tcf_connected(n):
            ref = recursive_maps.omega(d)
            assert omega(d).canonical_code() == ref.canonical_code()


def test_omega_of_a_long_path_diagram():
    # chord i crosses only chords i-1 and i+1; its alpha parts nest deeper
    # than the default recursion limit, one chord fewer at each level
    n = 2000
    path = path_diagram(n)
    t = omega(path)
    t.validate()
    assert len(t.boundary) == t1(path) + 1
    assert len(t.vertices()) - len(t.boundary) == n - t1(path)


def test_canonical_code_identifies_rooted_maps():
    assert omega(Ca).canonical_code() == "1;0"
    code = Triangulation.canonical_code
    # relabeling leaves the code alone
    tri = omega(Cb)
    relabeled = Triangulation([(5, 7, 6)], [5, 6, 7])
    assert code(tri) == code(relabeled)
    assert code(tri) != code(omega(Ce))


def test_omega_injective_with_counts_matching_the_refined_formula():
    totals = []
    for n in range(1, 7):
        pool = _tcf_connected(n)
        codes = {omega(d).canonical_code() for d in pool}
        assert len(codes) == len(pool)
        per_t1: dict[int, int] = {}
        for d in pool:
            per_t1[t1(d)] = per_t1.get(t1(d), 0) + 1
        for k, cnt in per_t1.items():
            assert cnt == corollary_count(n, k)
        totals.append(len(pool))
    assert totals == [1, 1, 3, 13, 68, 399]


def test_gamma_examples():
    code = Triangulation.canonical_code
    assert [(code(t), i) for t, i in gamma(omega(Cb))] == [("1;0", 1)]
    assert [(code(t), i) for t, i in gamma(omega(Ce))] == [("1;0", 1), ("1;0", 1)]
    assert [(code(t), i) for t, i in gamma(omega(Cg))] == [
        ("1,2;0,2;0,1", 2),
        ("1;0", 1),
    ]


def test_gamma_coheres_with_alpha():
    for n in range(2, 6):
        for d in _tcf_connected(n):
            kids = gamma(omega(d))
            parts = alpha(d)
            assert len(kids) == len(parts)
            for (child, idx), (part, block) in zip(kids, parts):
                assert child.canonical_code() == omega(part).canonical_code()
                assert idx == len(block)


def test_validate_rejects_broken_triangulations():
    with pytest.raises(ValueError):
        Triangulation([(0, 1, 2)], [0, 1]).validate()


@pytest.mark.parametrize("faces, boundary, message", [
    ([(1, 1, 2)], [1, 2], "faces must be triangles"),
    ([(1, 2, 2), (1, 2, 3)], [1, 3], "faces must be triangles"),
    ([(1, 2, 3)], [1, 2, 1], "boundary must be a simple walk of >= 2 vertices"),
    ([], [1], "boundary must be a simple walk of >= 2 vertices"),
])
def test_validate_refuses_loops_by_the_face_and_boundary_checks(faces, boundary, message):
    # a loop (u, u) in the corner map needs a repeated vertex in a face or
    # in the boundary, which the first two checks refuse
    for check in (Triangulation.validate, recursive_maps.validate):
        with pytest.raises(ValueError) as e:
            check(Triangulation(faces, boundary))
        assert str(e.value) == message


def test_gamma_matches_the_clustering_oracle():
    with pytest.raises(ValueError):
        gamma(omega(Ca))
    with pytest.raises(ValueError):
        recursive_maps.gamma(omega(Ca))
    checked = 0
    for n in range(2, 8):
        for d in _tcf_connected(n):
            t = omega(d)
            assert gamma(t) == recursive_maps.gamma(t), d
            checked += 1
    assert checked == 3014


def test_gamma_of_a_wide_fan():
    # 400 parts of 4 chords, each with a block of one: the apex fans over
    # 400 pieces
    rng = random.Random(3)
    pool = _tcf_connected(4)
    fan = beta([(rng.choice(pool), (i,)) for i in range(1, 401)])
    assert fan.n == 1601
    t = omega(fan)
    kids = gamma(t)
    assert kids == recursive_maps.gamma(t)
    assert [(child.canonical_code(), i) for child, i in kids] == [
        (omega(p).canonical_code(), len(block)) for p, block in alpha(fan)
    ]


def test_gamma_of_the_beta_grown_input():
    t = omega(beta_grown(1000))
    assert gamma(t) == recursive_maps.gamma(t)


def _mutants(t, rng, count):
    # faces and boundaries broken, or (rotating the boundary) kept valid
    vs = t.vertices()
    for _ in range(count):
        faces = [list(f) for f in t.faces]
        b = list(t.boundary)
        fresh = max(vs) + 1
        kind = rng.randrange(9)
        if kind == 0:
            b = b[1:] + b[:1]
        elif kind == 1:
            b.reverse()
        elif kind == 2:
            del b[rng.randrange(len(b))]
        elif kind == 3:
            b.insert(rng.randrange(len(b) + 1), rng.choice([fresh, rng.choice(vs)]))
        elif kind == 4:
            # a sphere of two faces, on its own or pinched onto a vertex
            x = rng.choice([fresh, rng.choice(vs)])
            faces += [[x, fresh + 1, fresh + 2], [x, fresh + 2, fresh + 1]]
        elif not faces:
            faces.append([*vs, fresh])
        elif kind == 5:
            del faces[rng.randrange(len(faces))]
        elif kind == 6:
            faces[rng.randrange(len(faces))].reverse()
        elif kind == 7:
            rng.choice(faces)[rng.randrange(3)] = rng.choice([fresh, rng.choice(vs)])
        else:
            faces.append(rng.sample(vs, 3))
        yield Triangulation(faces, b)


def _verdict(check, t):
    # None for valid, else the error message up to any edge it names
    try:
        check(t)
    except ValueError as e:
        return str(e).split(":")[0]
    return None


def test_validate_agrees_with_the_edge_set_oracle():
    rng = random.Random(1)
    verdicts = {}
    for n in range(1, 7):
        for d in _tcf_connected(n):
            t = omega(d)
            assert _verdict(Triangulation.validate, t) is None
            for m in _mutants(t, rng, 3):
                v = _verdict(Triangulation.validate, m)
                assert v == _verdict(recursive_maps.validate, m), m
                verdicts[v] = verdicts.get(v, 0) + 1
    # valid, and each rejection but the Euler count (which needs a genus)
    kinds = {v and v.split(" at vertex")[0] for v in verdicts}
    assert sum(verdicts.values()) == 1455 and len(kinds) == 7, verdicts
