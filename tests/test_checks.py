"""The verification registry: id hygiene, report shape, and a fast pass
over every check at reduced budgets."""

import hashlib
import json

import pytest

from chordlab.checks import CHECKS, check_ids, run_check, run_many

EXPECTED_MODULES = {
    "diagram",
    "structure",
    "patterns",
    "bijections",
    "series",
    "enumeration",
    "harness",
}


def test_registry_covers_every_module():
    assert {c.module for c in CHECKS.values()} == EXPECTED_MODULES
    assert len(check_ids()) == len(set(check_ids()))
    for check in CHECKS.values():
        assert check.description
        assert check.budget >= 1


def test_pinned_check_id_exists():
    assert "thm-equation-sol" in CHECKS


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_check("no-such-id")


def test_single_check_report_shape():
    rep = run_check("series-y-degree", budget=3)
    assert rep["ok"]
    assert rep["id"] == "series-y-degree"
    assert rep["budget"] == 3
    assert set(rep) == {"id", "module", "description", "budget", "ok", "details"}
    # payload carries no timing and serializes deterministically
    assert json.dumps(rep, sort_keys=True) == json.dumps(run_check("series-y-degree", 3), sort_keys=True)


def test_run_many_subset():
    rep = run_many(["core-pair-statistics", "core-text-roundtrip"], budget=3)
    assert rep["ok"]
    assert [r["id"] for r in rep["checks"]] == [
        "core-pair-statistics",
        "core-text-roundtrip",
    ]


# sha256 of every check's report at budget 4; a change that moves it changes
# what `verify` prints and must say so
REPORT_SHA256 = "31c125ff0edb2d1e00d7ea2925076718b97074d38e6e1e6bc7ea29b301c87bdf"


def test_reports_at_budget_four_are_byte_identical_to_the_pin():
    text = json.dumps(run_many(None, 4), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_check_passes_at_smoke_budget(check_id):
    budget = min(CHECKS[check_id].budget, 4)
    rep = run_check(check_id, budget=budget)
    assert rep["ok"], rep["details"]


# diagrams visited at budget 5 by each check that runs through the sweep runner
SWEEP_COUNTS = {
    "core-pair-statistics": 1070,
    "core-text-roundtrip": 1070,
    "core-intersection-graph": 1069,
    "patterns-crossing-nesting-definitions": 1069,
    "structure-nonnesting-connectivity": 64,
    "patterns-topcycle-tree-characterization": 671,
    "structure-order-agreement": 281,
    "structure-component-neighbors": 280,
    "structure-one-terminal-characterization": 281,
    "structure-kterminal-connectivity": 280,
    "structure-order-linear-extension": 281,
    "series-monomial-factorization": 280,
    "structure-traced-partition": 125,
    "psi-right-neighbor-drop": 124,
    "psi-statistics": 125,
    "psi-kterminal-shift": 124,
}


@pytest.mark.parametrize("check_id", sorted(SWEEP_COUNTS))
def test_sweep_checks_count_the_diagrams_they_visit(check_id):
    assert run_check(check_id, 5)["details"] == {"checked": SWEEP_COUNTS[check_id]}


@pytest.mark.parametrize(
    "check_id, budget, details",
    [
        # connected diagrams of sizes 2..5, then the random parts tuples
        ("alpha-beta-roundtrip", 5, {"checked": 280, "random_tuples": 500}),
        # connected top-cycle-free diagrams of sizes 2..5
        ("alpha-interval-blocks", 5, {"checked": 85, "random_tuples": 300}),
        # the random tuples draw parts of up to 4 chords whatever the budget
        ("alpha-interval-blocks", 3, {"checked": 4, "random_tuples": 300}),
    ],
)
def test_alpha_checks_report_their_sweep_and_random_tuples(check_id, budget, details):
    assert run_check(check_id, budget)["details"] == details


def test_sweep_reports_the_first_failing_diagram():
    from chordlab.checks import _sweep
    from chordlab.diagram import ChordDiagram

    # every connected 3-chord diagram fails; the first generated is the witness
    rep = _sweep(lambda d: {"size": 3} if d.n == 3 else None, "connected", 1, 4)
    assert rep == {"ok": False, "witness": "(1,3)(2,5)(4,6)", "size": 3}
    # diagrams `where` rejects are neither visited nor counted: 1 + 2 + 5 + 14
    rep = _sweep(lambda d: None, "all", 1, 4, where=ChordDiagram.is_nonnesting)
    assert rep == {"ok": True, "checked": 22}
