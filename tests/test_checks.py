"""The verification registry: id hygiene, report shape, and a fast pass
over every check at reduced budgets."""

import hashlib
import json
from functools import lru_cache

import pytest

from chordlab import checks, patterns, series
from chordlab.checks import CHECKS, check_ids, run_check, run_many
from chordlab.diagram import ChordDiagram
from chordlab.enumeration import members
from chordlab.series import diagram_series

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


# sha256 of the budget-6 report of each check that walks the members of a
# class, read while it still filtered a larger domain leaf by leaf: the
# budget-4 pin never reaches the sizes 5 and 6 that such a walk replaces
CLASS_WALK_SHA256 = {
    "structure-nonnesting-connectivity": "dcef287530729fc33e6a96bbfb66df9ccef65c41106a5e85831089675b3d91e1",
    "patterns-topcycle-tree-characterization": "764a083c8e0f488b21f8dd3a2fd0d2171f57465a958cb7d24f69cb460103ee29",
    "patterns-cycle-realizations": "2e6df5d2df149b344fe37ac0f2b271a3022a76e8084ed30c1a7471cccb3bc2fe",
    "alpha-interval-blocks": "371c91e2441d5306a67972ca67251aca55a4109b285a3e7ce58391c1d9f04193",
    "omega-code-suite": "264eeb2fb495dfa71ec9f5fa79797ed8f8fecae2dc362676947e72c1e4ac281c",
    "enum-one-terminal-tcf-catalan": "5cabc3f478b6664136f8909fd18b98638f9c76634347b3559496fc2b1f6b6f8c",
}


@pytest.mark.parametrize("check_id", sorted(CLASS_WALK_SHA256))
def test_class_walk_reports_at_budget_six_are_byte_identical_to_the_pin(check_id):
    text = json.dumps(run_check(check_id, 6), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_WALK_SHA256[check_id]


# sha256 of the budget-6 report of each check that reads class sizes, and of
# the conjecture and series checks over them, read while each variant of a
# class still had a memo of its own
CLASS_SIZE_SHA256 = {
    "enum-stream-counts": "031c17c97b499d2d6e129dcd1332109c0c1cb96effa89b8186612651c3bee2b6",
    "enum-connected-stein": "cff018947fb2e194e765292d437b9d65409afeca4eabed01091820d3d8dbb15e",
    "enum-one-terminal-counts": "8bcc8f4982717c3b7e288b855059260fdeca9a1d6900f5ec3e30a302aec5c56b",
    "enum-k3-stanley": "20e382510e5fcd69c26b23e555e1c6a17b7ceec6fee3cdf49442c06e1a77063a",
    "patterns-k3-n3-symmetry": "06710869ef0b0230db8065c5445b0f856f36b11869ea11415f9afeb180ffa42e",
    "enum-jelinek-equalities": "5de60dc8b86f84a5b836900ff8fb0fa3f26e9fd5ac39a4a6245850b84c3bafc6",
    "report-determinism": "882d8fe5c9ffdc188d59327af185e9cf3325116e6c5d98d6d58dde605c06b51f",
    "conjectures-run": "177ba369f722a9ae059e19ef4ff661aa12dbaf75e99cffb8b5c83be7b3f658c6",
    "series-ogf-egf": "96b691f779dfc9bc5f3c88b34c75f8b27de515cf9dcecdeb9385ba1865c2b4a0",
}


@pytest.mark.parametrize("check_id", sorted(CLASS_SIZE_SHA256))
def test_class_size_reports_at_budget_six_are_byte_identical_to_the_pin(check_id):
    text = json.dumps(run_check(check_id, 6), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_SIZE_SHA256[check_id]


def test_class_walks_do_not_test_their_members_again(monkeypatch):
    # the walk of a class is where membership is decided: a check over the
    # class, and the divided-power diagram sum, test no leaf for it again
    calls = []

    def counted(fn):
        def wrap(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrap

    top_cycle = counted(patterns.contains_any_top_cycle)
    for module in (checks, patterns):
        monkeypatch.setattr(module, "contains_any_top_cycle", top_cycle)
    monkeypatch.setattr(ChordDiagram, "is_nonnesting", counted(ChordDiagram.is_nonnesting))
    # an empty cache, so that each domain is walked here
    monkeypatch.setattr(checks, "_class_domain", lru_cache(maxsize=None)(checks._class_domain.__wrapped__))
    monkeypatch.setattr(series, "_weight_tally", lru_cache(maxsize=None)(series._weight_tally.__wrapped__))
    for check_id in (
        "patterns-topcycle-tree-characterization",
        "structure-nonnesting-connectivity",
        "enum-one-terminal-tcf-catalan",
    ):
        assert run_check(check_id, 5)["ok"]
        assert calls == [], check_id
    diagram_series("divided-power", 5)
    assert calls == []


def test_check_domains_are_the_class_walks(monkeypatch):
    # a sweep over a class itself streams the class's walk, and every
    # domain a check caches is the walk of `members` for its class and
    # variant, in the same order
    walk = checks._class_domain.__wrapped__
    cached = {}

    def class_domain(n, name, variant):
        if (n, name, variant) not in cached:
            cached[n, name, variant] = walk(n, name, variant)
        return cached[n, name, variant]

    monkeypatch.setattr(checks, "_class_domain", class_domain)
    for check_id in (
        "patterns-topcycle-tree-characterization",
        "structure-nonnesting-connectivity",
        "alpha-interval-blocks",
        "enum-one-terminal-tcf-catalan",
    ):
        assert run_check(check_id, 6)["ok"], check_id
    assert cached
    streamed = [key for key in cached if key[1] in ("top-cycle-free", "nonnesting") and key[2] == "all"]
    assert streamed == []
    for (n, name, variant), domain in cached.items():
        want = [d.pairs for d in members(n, name, variant=variant)]
        assert [d.pairs for d in domain] == want, (n, name, variant)


@pytest.mark.parametrize("check_id", ["enum-tcf-refined", "omega-code-suite"])
def test_tcf_totals_are_compared_over_the_sizes_listed(monkeypatch, check_id):
    totals = (1, 1, 3, 13, 68, 399)
    assert checks.TCF_TOTALS[:6] == totals
    # past the sizes listed, the closed forms alone check the counts
    monkeypatch.setattr(checks, "TCF_TOTALS", totals[:3])
    rep = run_check(check_id, 6)
    assert rep["ok"] and rep["details"]["totals"] == list(totals)
    monkeypatch.setattr(checks, "TCF_TOTALS", (1, 1, 3, 13, 67, 399, 2530, 16965))
    rep = run_check(check_id, 6)
    assert not rep["ok"]
    assert rep["details"] == {"totals": list(totals), "expect": [1, 1, 3, 13, 67, 399]}


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

    # every connected 3-chord diagram fails; the first generated is the witness
    rep = _sweep(lambda d: {"size": 3} if d.n == 3 else None, "connected", 1, 4)
    assert rep == {"ok": False, "witness": "(1,3)(2,5)(4,6)", "size": 3}
    # a variant visits and counts only its own members: the connected
    # top-cycle-free diagrams, 1 + 1 + 3 + 13
    rep = _sweep(lambda d: None, "top-cycle-free", 1, 4, "connected")
    assert rep == {"ok": True, "checked": 18}
