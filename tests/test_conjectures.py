"""Report-only sequence comparisons: structure of the reports, the
calibration rows that are theorems, and determinism."""

import json
from functools import lru_cache

import pytest

from chordlab import enumeration
from chordlab.conjectures import (
    STANDARD_CONJECTURES,
    conjecture_report,
    dominance_report,
    sequence_lines,
    standard_reports,
    variant_counts,
)
from chordlab.enumeration import VARIANTS, census, count_class, count_members, pattern_free_count
from chordlab.patterns import complete_diagram


def test_variant_counts_small_values():
    counts = variant_counts("top-cycle-free", 4)
    assert counts["connected"] == [1, 1, 3, 13]
    assert counts["one-terminal"] == [1, 1, 2, 5]
    all_counts = variant_counts("all", 4)
    assert all_counts["all"] == [1, 3, 15, 105]


def test_calibration_row_tamari_matches_at_offset_zero():
    rep = conjecture_report("top-cycle-free", "corollary-sum", 5)
    sec = rep["variants"]["connected"]
    assert sec["best_offset"] == 0
    assert sec["by_offset"][0]["all_match"]


def test_calibration_row_catalan_matches_at_offset_minus_one():
    rep = conjecture_report("top-cycle-free", "catalan", 5)
    sec = rep["variants"]["one-terminal"]
    assert sec["best_offset"] == -1
    assert sec["enumerated"] == [1, 1, 2, 5, 14]


def test_report_rows_never_assert_conjecture_truth():
    rep = conjecture_report("chordal", "catalan-squared", 4)
    sec = rep["variants"]["connected"]
    # the table is descriptive: flags exist whether or not they match
    assert set(sec["by_offset"]) == {-1, 0, 1}
    for off in (-1, 0, 1):
        assert isinstance(sec["by_offset"][off]["all_match"], bool)


def test_standard_reports_shape_and_determinism():
    rep = standard_reports(4)
    names = [row["name"] for row in rep["rows"]]
    assert len(names) == len(set(names)) == len(STANDARD_CONJECTURES)
    statuses = {row["status"] for row in rep["rows"]}
    assert statuses <= {"conjecture", "theorem"}
    assert any(row["oracle"] is None for row in (r["report"] for r in rep["rows"]))
    # byte-deterministic once serialized with sorted keys
    a = json.dumps(standard_reports(4), sort_keys=True)
    b = json.dumps(standard_reports(4), sort_keys=True)
    assert a == b


def test_dominance_inequality_holds_at_small_sizes():
    rep = dominance_report(5)
    assert rep["bottom-cycle-free"] == [1, 1, 3, 13, 67]
    assert rep["top-cycle-free"] == [1, 1, 3, 13, 68]
    assert rep["all_hold"]


def test_sequence_lines_are_plain_integers():
    rep = conjecture_report("top-cycle-free", "catalan", 4)
    lines = sequence_lines(rep, "one-terminal")
    assert lines == ["1", "1", "2", "5"]


@pytest.mark.parametrize("n", range(7))
def test_conjecture_classes_by_terminal_count_add_up(n):
    # README records these rows for n <= 8, to look up by hand
    for c in STANDARD_CONJECTURES:
        rows = count_class(n, c.class_name, ("terminal-count",), c.variant)
        assert sum(rows.values()) == count_members(n, c.class_name, c.variant), c.name
        # one terminal chord makes a diagram connected
        connected = count_class(n, c.class_name, ("terminal-count",), "connected")
        assert connected.get((n, 1), 0) == count_members(n, c.class_name, "one-terminal"), c.name


def test_every_class_size_reads_the_one_memo(monkeypatch):
    # a fresh memo of class sizes that moves every size at n = 4 moves
    # every reader, the reports with their default count too: no reader
    # keeps a memo, or a binding, of its own
    walk = enumeration._class_sizes.__wrapped__

    def moved(n, key):
        sizes = walk(n, key)
        return tuple(s + 1000 for s in sizes) if n == 4 else sizes

    monkeypatch.setattr(enumeration, "_class_sizes", lru_cache(maxsize=None)(moved))
    assert count_members(4, "tree", "connected") == 1000 + walk(4, "tree")[1]
    assert dict(census(4)) == {"all": 1105, "connected": 1027, "one-terminal": 1015}
    k3 = complete_diagram(3)
    assert pattern_free_count(4, k3) == count_members(4, "K3-free") == 1000 + walk(4, k3)[0]
    for row in standard_reports(4)["rows"]:
        key = enumeration._root_key(row["report"]["class"])[0]
        for v, size in zip(VARIANTS, walk(4, key)):
            assert row["report"]["variants"][v]["enumerated"][3] == 1000 + size, (row["name"], v)
