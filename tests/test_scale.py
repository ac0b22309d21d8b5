"""Properties at scale: diagrams of 200-2000 chords drawn by Hypothesis
(derandomized, so every run draws the same ones). alpha and beta
round-trip, and each closed form of `structure` agrees with the point walk
it replaced (tests/recursive_maps).

The complete and nesting rules of `patterns.root_members` are compared
with the anchored embedding on uniform matchings of 40-120 chords as
parents, with every root.

The pairwise valency oracle is cubic, so it stays at n <= 7 and on 12-30
chords (test_structure). Beta-grown inputs stop at 600 chords: building
one takes n - 1 beta steps that each rebuild the intersection order, about
8 s at 2000 chords on a 2-core host (Python 3.11).
"""

import random
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import recursive_maps
from chordlab import patterns
from chordlab.bijections import alpha, beta
from chordlab.diagram import open_masks
from chordlab.structure import _apart_masks, source_sink_groups, t1, valencies
from conftest import beta_grown, connected_matching, uniform_matching

grown = lru_cache(maxsize=None)(beta_grown)


@st.composite
def large_diagrams(draw, connected=False):
    """A uniform matching (unless `connected`), a uniform connected
    diagram, or a beta-grown diagram."""
    kind = draw(st.sampled_from(("connected", "beta-grown") if connected else
                                ("uniform", "connected", "beta-grown")))
    if kind == "beta-grown":
        return grown(draw(st.sampled_from((200, 400, 600))), draw(st.integers(1, 3)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(200, 2000))
    return (uniform_matching if kind == "uniform" else connected_matching)(n, rng)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(large_diagrams(connected=True))
def test_alpha_beta_round_trip_at_scale(d):
    assert beta(alpha(d)) == d


@settings(derandomize=True, deadline=None, max_examples=12)
@given(large_diagrams(connected=True), st.data())
def test_source_sink_groups_match_the_set_version_at_scale(d, data):
    # t1 itself, the ground set beta asks for most, and a few drawn below it
    ms = {t1(d), *data.draw(st.lists(st.integers(1, t1(d)), max_size=3))}
    for m in sorted(ms):
        assert source_sink_groups(d, m) == recursive_maps.source_sink_groups(d, m), m


@settings(derandomize=True, deadline=None, max_examples=12)
@given(large_diagrams())
def test_valencies_and_apart_masks_match_the_point_walks_at_scale(d):
    assert valencies(d) == [k + l for k, l in recursive_maps.valency_parts(d)]
    assert _apart_masks(d) == recursive_maps.apart_masks(d)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.integers(0, 2**32), st.integers(40, 120))
def test_complete_and_nesting_rules_match_the_anchored_embedding_at_scale(seed, n):
    s = uniform_matching(n, random.Random(seed))
    roots = open_masks(s)
    real = patterns._clique_top
    depth = deepest = 0

    def tracked(adj, mask, size):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return real(adj, mask, size)
        finally:
            depth -= 1

    patterns._clique_top = tracked
    try:
        for pattern in (patterns.complete_diagram(3), patterns.complete_diagram(4),
                        patterns.nesting_diagram(3), patterns.nesting_diagram(4)):
            deepest = 0
            got = patterns.root_members(pattern, s, roots, None)
            assert got == patterns._pattern_free_roots(s, pattern, roots), pattern
            # below the root and the clique's lowest chord, each level of
            # the search places one chord
            assert deepest <= pattern.n - 2, (pattern, deepest)
    finally:
        patterns._clique_top = real
