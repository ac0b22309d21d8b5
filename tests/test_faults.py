"""Seeded faults: each test plants one plausible defect in the code that a
check guards, never in the check or its oracle, runs the check on fresh
caches, and asserts that the check reports a failure, with the witness or
kind the defect causes, and that the defect was hit."""

from functools import lru_cache

import pytest

from chordlab import checks, enumeration, patterns
from chordlab.checks import run_check


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty `_class_domain` and `count_members` caches, so that every walk
    runs under the fault and no faulty result outlives the test."""
    monkeypatch.setattr(checks, "_class_domain", lru_cache(maxsize=None)(checks._class_domain.__wrapped__))
    count = lru_cache(maxsize=None)(enumeration.count_members.__wrapped__)
    monkeypatch.setattr(enumeration, "count_members", count)
    monkeypatch.setattr(checks, "count_members", count)


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
