"""The terminal-flip bijection and its relatives: psi/chi, alpha/beta,
the Stirling-word and tree encodings, and root-share decomposition."""

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import recursive_maps
import chordlab.bijections
import chordlab.structure
from chordlab.bijections import (
    _alpha_parts,
    _stirling_check,
    alpha,
    beta,
    check_tree,
    chi,
    eta,
    eta_inverse,
    psi,
    root_share_compose,
    root_share_decompose,
    theta,
    theta_inverse,
    zeta,
    zeta_inverse,
)
from chordlab.diagram import ChordDiagram, _mask_labels
from chordlab.enumeration import members
from chordlab.structure import is_one_terminal, t1, vertex_connectivity
from conftest import (
    Ca, Cb, Cc, Cd, Ce, Cf, Cg, K3, N2, connected_matching, path_diagram, sweep,
    uniform_matching,
)


@st.composite
def diagrams(draw, min_size=1, max_size=5):
    n = draw(st.integers(min_size, max_size))
    pts = draw(st.permutations(list(range(1, 2 * n + 1))))
    return ChordDiagram((pts[2 * i], pts[2 * i + 1]) for i in range(n))


# ------------------------------------------------------------------- psi / chi


def test_psi_examples():
    assert psi(Cb) == Ca
    assert psi(Ce) == N2
    assert psi(Cf) == Cc
    assert psi(Ca) == ChordDiagram.empty()


def test_chi_examples():
    assert chi(Ca) == Cb
    assert chi(Cc) == Cf
    assert chi(ChordDiagram.empty()) == Ca


def test_psi_rejects_diagrams_outside_its_domain():
    with pytest.raises(ValueError):
        psi(Cd)
    with pytest.raises(ValueError):
        psi(Cc)


@given(diagrams(max_size=4))
def test_chi_lands_one_terminal_and_psi_inverts_it(d):
    lift = chi(d)
    assert lift.n == d.n + 1
    assert is_one_terminal(lift)
    assert psi(lift) == d


def test_psi_statistic_transfer_exhaustive():
    # crossings drop by n-1, nestings carry over
    for n in range(1, 6):
        for d in sweep(n):
            if not is_one_terminal(d):
                continue
            img = psi(d)
            assert img.crossings() == d.crossings() - (n - 1)
            assert img.nestings() == d.nestings()


def test_psi_connectivity_drop_witness():
    # a 2-connected one-terminal diagram whose image is disconnected
    d = ChordDiagram.from_text("(1,4)(2,7)(3,6)(5,8)")
    assert is_one_terminal(d)
    assert vertex_connectivity(d) == 2
    assert vertex_connectivity(psi(d)) == 0


# ----------------------------------------------------------------- alpha / beta


def test_alpha_examples():
    assert alpha(Ce) == [(Ca, (1,)), (Ca, (2,))]
    assert alpha(K3) == [(Ca, (2,)), (Ca, (1,))]
    assert alpha(Cg) == [(Cb, (1, 2)), (Ca, (3,))]


def test_beta_examples():
    assert beta([(Ca, (1,)), (Ca, (2,))]) == Ce
    assert beta([(Ca, (2,)), (Ca, (1,))]) == K3
    assert beta([(Cb, (1, 2)), (Ca, (3,))]) == Cg


def test_alpha_beta_round_trip_exhaustive():
    for n in range(2, 6):
        for d in sweep(n):
            if d.is_connected():
                assert beta(alpha(d)) == d


def test_alpha_blocks_partition_below_first_terminal():
    for n in range(2, 6):
        for d in sweep(n):
            if not d.is_connected():
                continue
            parts = alpha(d)
            flat = sorted(p for _, block in parts for p in block)
            assert flat == list(range(1, t1(d)))
            assert all(1 <= len(b) <= t1(part) for part, b in parts)


def test_non_interval_alpha_block_first_appears_at_size_four():
    # search result: no connected diagram of size <= 3 produces a
    # non-interval block, and this size-4 witness does
    def has_gap(d):
        for _, block in alpha(d):
            s = sorted(block)
            if s != list(range(s[0], s[0] + len(s))):
                return True
        return False

    for n in range(2, 4):
        assert not any(has_gap(d) for d in sweep(n) if d.is_connected())
    witness = ChordDiagram.from_text("(1,4)(2,6)(3,7)(5,8)")
    assert alpha(witness) == [(Cb, (1, 3)), (Ca, (2,))]
    assert has_gap(witness)


def _inherited_parts(d, order):
    # the alpha parts of d as (chord labels, order), each order checked
    # against a full mask search on a fresh copy of the part's pairs
    out = []
    for mask, _, inherited in _alpha_parts(d.adjacency(), d.pairs, order, (1 << d.n) - 1):
        labels = _mask_labels(mask)
        fresh = ChordDiagram(d.subdiagram(labels).pairs)
        expect = tuple(labels[i - 1] for i in recursive_maps.mask_order(fresh))
        assert tuple(inherited) == expect, (d, labels)
        out.append((labels, expect))
    return out


def test_alpha_parts_inherit_the_order_exhaustive():
    # every part is itself a connected diagram of a smaller size, so the
    # parts of parts are covered by the smaller sizes
    checked = 0
    for n in range(2, 8):
        for d in members(n, "connected", ordered=False):
            checked += len(_inherited_parts(d, recursive_maps.mask_order(d)))
    assert checked == 97_036


def test_alpha_parts_inherit_the_order_at_large_n():
    # the whole part tree of seeded connected diagrams and chi lifts
    rng = random.Random(20261021)
    for n in (40, 100, 300):
        for d in (connected_matching(n, rng), chi(uniform_matching(n - 1, rng))):
            todo = [(d, recursive_maps.mask_order(d))]
            while todo:
                c, order = todo.pop()
                for labels, sub_order in _inherited_parts(c, order):
                    if len(labels) > 1:
                        sub = c.subdiagram(labels)
                        rank = {x: i for i, x in enumerate(labels, 1)}
                        todo.append((sub, [rank[x] for x in sub_order]))


def test_theta_round_trip_computes_at_most_one_order(monkeypatch):
    lift = chi(uniform_matching(99, random.Random(20261022)))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(chordlab.structure, "mask_order",
                        counted("mask_order", chordlab.structure.mask_order))
    monkeypatch.setattr(ChordDiagram, "subdiagram",
                        counted("subdiagram", ChordDiagram.subdiagram))
    for module in (chordlab.structure, chordlab.bijections):
        monkeypatch.setattr(module, "source_sink_groups",
                            counted("source_sink_groups", chordlab.structure.source_sink_groups))
    assert theta_inverse(theta(lift)) == lift
    assert calls["mask_order"] <= 1
    assert calls["subdiagram"] == calls["source_sink_groups"] == 0


def test_built_diagrams_carry_no_inherited_order():
    # inherited orders stay inside the part walks: what alpha, beta and
    # theta_inverse return computes its own order when asked
    rng = random.Random(20261023)
    for d in (Cg, connected_matching(60, rng), chi(uniform_matching(59, rng))):
        parts = alpha(d)
        assert all(p._order is None for p, _ in parts)
        assert beta(parts)._order is None
        if is_one_terminal(d):
            assert theta_inverse(theta(d))._order is None


# ------------------------------------------------------------------ root share


def test_root_share_examples():
    assert root_share_decompose(K3) == (Ca, Cb, 2)
    assert root_share_decompose(Ce) == (Ca, Cb, 3)
    assert root_share_compose(Ca, Ca, 1) == Cb


def test_root_share_round_trip_exhaustive():
    for n in range(2, 6):
        for d in sweep(n):
            if d.is_connected():
                c1, c2, idx = root_share_decompose(d)
                assert root_share_compose(c1, c2, idx) == d


def test_root_share_decompose_matches_the_raw_pair_search():
    checked = 0
    for n in range(2, 8):
        for d in members(n, "connected"):
            assert root_share_decompose(d) == recursive_maps.root_share_decompose(d), d
            checked += 1
    assert checked == 41342


def test_root_share_domain_errors():
    with pytest.raises(ValueError):
        root_share_decompose(Ca)
    with pytest.raises(ValueError):
        root_share_decompose(Cc)
    with pytest.raises(ValueError):
        root_share_compose(Ca, Ca, 5)


# ---------------------------------------------------------------- word encoding


def test_zeta_examples():
    assert zeta(Cb) == (1, 2, 2, 1)
    assert zeta(Cc) == (2, 2, 1, 1)
    assert zeta(N2) == (1, 1, 2, 2)
    assert zeta(ChordDiagram.empty()) == ()


def test_zeta_inverse_examples():
    assert zeta_inverse((1, 2, 2, 1)) == Cb
    assert zeta_inverse(()) == ChordDiagram.empty()
    with pytest.raises(ValueError):
        zeta_inverse((1, 2, 1, 2))
    with pytest.raises(ValueError):
        zeta_inverse((1, 1, 1, 1))


@given(diagrams(max_size=5))
def test_zeta_round_trip_and_word_shape(d):
    w = zeta(d)
    assert len(w) == 2 * d.n
    assert sorted(w) == sorted(list(range(1, d.n + 1)) * 2)
    assert zeta_inverse(w) == d


def test_one_terminal_reads_off_the_word_ends():
    # a diagram is one-terminal exactly when its word starts 1 and ends 1
    for n in range(1, 6):
        for d in sweep(n):
            w = zeta(d)
            assert is_one_terminal(d) == (w[0] == 1 and w[-1] == 1)


def test_zeta_intertwines_psi_with_deleting_both_ones():
    for n in range(1, 6):
        for d in sweep(n):
            if not is_one_terminal(d):
                continue
            w = zeta(d)
            shifted = tuple(x - 1 for x in w if x != 1)
            assert zeta(psi(d)) == shifted


# ---------------------------------------------------------------- tree encoding


def test_theta_examples():
    assert theta(Ca) == (0, ())
    assert theta(Cb) == (0, ((1, ()),))
    assert theta(Ce) == (0, ((1, ()), (2, ())))


def test_theta_round_trip_on_one_terminal_diagrams():
    for n in range(1, 6):
        for d in sweep(n):
            if is_one_terminal(d):
                assert theta_inverse(theta(d)) == d


def test_eta_examples():
    path = (0, ((1, ((2, ()),)),))
    star = (0, ((1, ()), (2, ())))
    assert eta(path) == (1, 2, 2, 1)
    assert eta(star) == (1, 1, 2, 2)
    assert eta((0, ())) == ()
    assert eta_inverse((1, 2, 2, 1)) == path


def test_eta_round_trip_over_small_words():
    def words(n):
        if n == 0:
            yield ()
            return
        for w in words(n - 1):
            for gap in range(len(w) + 1):
                yield w[:gap] + (n, n) + w[gap:]

    for n in range(0, 5):
        for w in words(n):
            assert eta(eta_inverse(w)) == w


def test_word_to_diagram_composites_differ():
    # both composites send a size-n word to a size-n diagram, but they are
    # different maps: the smallest separating word
    w = (1, 2, 2, 1)
    direct = zeta_inverse(w)
    via_trees = psi(theta_inverse(eta_inverse(w)))
    assert direct == Cb
    assert via_trees == Cc
    assert direct != via_trees


# ------------------------------------------------------- Stirling-word check


def _outcome(check, w):
    try:
        return check(w)
    except ValueError as e:
        return str(e)


def test_stirling_check_matches_definition_on_every_word_of_size_four():
    words = set(permutations((1, 1, 2, 2, 3, 3, 4, 4)))
    assert len(words) == 2520
    accepted = 0
    for w in words:
        got = _outcome(_stirling_check, w)
        assert got == _outcome(recursive_maps.stirling_check, w), w
        if got == 4:
            accepted += 1
    assert accepted == 105  # 7!!, one word per diagram of size 4


def test_stirling_check_matches_definition_on_random_words():
    rng = random.Random(20261018)
    for _ in range(5000):
        n = rng.randint(0, 8)
        w = list(range(1, n + 1)) * 2
        rng.shuffle(w)
        if n and rng.random() < 0.2:
            w[rng.randrange(2 * n)] = rng.randint(0, n + 1)
        if rng.random() < 0.1:
            w.append(rng.randint(1, n + 1))
        w = tuple(w)
        assert _outcome(_stirling_check, w) == _outcome(recursive_maps.stirling_check, w), w


# --------------------------------------------- recursive oracles and large n


def _assert_layout_maps_match_oracles(d):
    # psi, chi, beta and root share against the point-by-point relabellings
    assert chi(d) == recursive_maps.chi(d)
    if d.n >= 1 and is_one_terminal(d):
        assert psi(d) == recursive_maps.psi(d)
    if d.n >= 2 and d.is_connected():
        parts = alpha(d)
        assert beta(parts) == recursive_maps.beta(parts) == d
        c1, c2, idx = root_share_decompose(d)
        assert root_share_compose(c1, c2, idx) == recursive_maps.root_share_compose(c1, c2, idx) == d


def test_maps_match_recursive_oracles_exhaustive():
    for n in range(0, 7):
        for d in sweep(n):
            w = zeta(d)
            assert w == recursive_maps.zeta(d)
            assert zeta_inverse(w) == recursive_maps.zeta_inverse(w) == d
            _assert_layout_maps_match_oracles(d)
            if n >= 2 and d.is_connected():
                assert alpha(d) == recursive_maps.alpha(d)
            if n >= 1 and is_one_terminal(d):
                tree = theta(d)
                assert tree == recursive_maps.theta(d)
                assert theta_inverse(tree) == recursive_maps.theta_inverse(tree) == d


def test_maps_match_recursive_oracles_at_large_n():
    rng = random.Random(20261019)
    for n in (40, 60, 80, 100):
        for d in (uniform_matching(n, rng), chi(uniform_matching(n - 1, rng))):
            w = zeta(d)
            assert w == recursive_maps.zeta(d)
            assert zeta_inverse(w) == recursive_maps.zeta_inverse(w) == d
            _assert_layout_maps_match_oracles(d)
        for d in (connected_matching(n, rng), chi(uniform_matching(n - 1, rng))):
            assert alpha(d) == recursive_maps.alpha(d)
            _assert_layout_maps_match_oracles(d)
        lift = chi(uniform_matching(n - 1, rng))
        tree = theta(lift)
        assert tree == recursive_maps.theta(lift)
        assert theta_inverse(tree) == recursive_maps.theta_inverse(tree) == lift


def test_round_trips_far_beyond_exhaustive_reach():
    rng = random.Random(20261020)
    d = uniform_matching(2000, rng)
    assert zeta_inverse(zeta(d)) == d
    lift = chi(d)
    assert lift.n == 2001 and psi(lift) == d
    d = connected_matching(1000, rng)
    assert beta(alpha(d)) == d
    assert root_share_compose(*root_share_decompose(d)) == d


def test_theta_round_trip_on_a_long_path_diagram():
    # the alpha parts nest 2000 deep, one chord fewer at each level
    path = path_diagram(2000)
    tree = theta(path)
    assert check_tree(tree) == 1999
    assert theta_inverse(tree) == path


def test_deep_tree_round_trip():
    # a path of 1500 nodes: deeper than the default recursion limit
    w = tuple(range(1, 1501)) + tuple(range(1500, 0, -1))
    tree = eta_inverse(w)
    assert check_tree(tree) == 1500
    assert eta(tree) == w
