"""Report-only comparisons between enumerated class counts and the closed-form
count library.

The counts are `count_members` rows, read off the root-insertion sites: one
walk per class and size gives all three rows (`enumeration._class_sizes`).
Every comparison scans index offsets and all three membership variants, and
nothing here raises on a mismatch: several of the printed formulas are known
to sit one index off, so the harness's job is to show the alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import VARIANTS, count_members
from .oracles import oracle_value

OFFSETS = (-1, 0, 1)


def variant_counts(class_name: str, n_max: int, count=count_members) -> dict[str, list[int]]:
    """Counts of size-1..n_max members of the class, per variant, from
    `count(n, class_name, variant)`."""
    return {v: [count(n, class_name, v) for n in range(1, n_max + 1)] for v in VARIANTS}


def conjecture_report(
    class_name: str, oracle_name: str | None, n_max: int, count=count_members
) -> dict:
    """Compare enumerated counts with oracle values at each index offset.

    Purely descriptive: per (variant, offset) the report records the oracle
    values (None where the formula is undefined), the per-n match flags, and
    whether every defined comparison matched. `best_offset` is the smallest
    offset in absolute value whose comparisons all matched, if any.
    """
    counts = variant_counts(class_name, n_max, count)
    out: dict = {
        "class": class_name,
        "oracle": oracle_name,
        "n_max": n_max,
        "offsets": list(OFFSETS),
        "variants": {},
    }
    for v in VARIANTS:
        enum = counts[v]
        section: dict = {"enumerated": enum}
        if oracle_name is not None:
            by_offset = {}
            for off in OFFSETS:
                vals = [oracle_value(oracle_name, n + off) for n in range(1, n_max + 1)]
                matches = [
                    None if ov is None else ov == enum[n - 1]
                    for n, ov in zip(range(1, n_max + 1), vals)
                ]
                defined = [m for m in matches if m is not None]
                by_offset[off] = {
                    "oracle": vals,
                    "matches": matches,
                    "all_match": bool(defined) and all(defined),
                }
            section["by_offset"] = by_offset
            section["best_offset"] = next(
                (o for o in sorted(OFFSETS, key=lambda x: (abs(x), x)) if by_offset[o]["all_match"]),
                None,
            )
        out["variants"][v] = section
    return out


@dataclass(frozen=True)
class Conjecture:
    """One row of the standard report: a class/oracle pairing and where the
    source text expects it to land."""

    name: str
    class_name: str
    variant: str
    oracle: str | None
    oeis: str
    status: str  # "conjecture" or "theorem" (theorems double as calibration)
    note: str = ""


STANDARD_CONJECTURES: tuple[Conjecture, ...] = (
    Conjecture(
        "tree-kreweras",
        "tree",
        "connected",
        "kreweras",
        "A001764",
        "conjecture",
    ),
    Conjecture(
        "chordal-catalan-squared",
        "chordal",
        "connected",
        "catalan-squared",
        "A001246",
        "conjecture",
    ),
    Conjecture(
        "bipartite-cubic-maps",
        "bipartite",
        "connected",
        None,
        "A000264",
        "conjecture",
        "no closed form available; sequence emitted for manual lookup",
    ),
    Conjecture(
        "bottom-cycle-free-gen-catalan",
        "bottom-cycle-free",
        "connected",
        "gen-catalan",
        "A064062",
        "conjecture",
        "the printed formula's index is ambiguous; see the offset scan",
    ),
    Conjecture(
        "one-terminal-triangle-free-semi-baxter",
        "triangle-free",
        "one-terminal",
        "semi-baxter",
        "A117106",
        "conjecture",
    ),
    Conjecture(
        "one-terminal-bipartite-baxter",
        "bipartite",
        "one-terminal",
        "baxter",
        "A001181",
        "conjecture",
    ),
    Conjecture(
        "one-terminal-bottom-cycle-free-schroeder",
        "bottom-cycle-free",
        "one-terminal",
        "schroeder-shifted",
        "A006318",
        "conjecture",
    ),
    Conjecture(
        "top-cycle-free-tamari-sum",
        "top-cycle-free",
        "connected",
        "corollary-sum",
        "A000260",
        "theorem",
        "calibration row: refined triangulation sums match at offset 0",
    ),
    Conjecture(
        "top-cycle-free-tamari-closed-form",
        "top-cycle-free",
        "connected",
        "tutte",
        "A000260",
        "theorem",
        "closed form sits one index off the sums; both alignments shown",
    ),
    Conjecture(
        "one-terminal-top-cycle-free-catalan",
        "top-cycle-free",
        "one-terminal",
        "catalan",
        "A000108",
        "theorem",
        "proved via the terminal-flip bijection; matches C_{n-1}",
    ),
)


def dominance_report(n_max: int, count=count_members) -> dict:
    """Connected bottom-cycle-free vs top-cycle-free counts; conjectured
    never to exceed them."""
    bcf = variant_counts("bottom-cycle-free", n_max, count)["connected"]
    tcf = variant_counts("top-cycle-free", n_max, count)["connected"]
    holds = [b <= t for b, t in zip(bcf, tcf)]
    return {
        "name": "bottom-cycle-free-dominated",
        "status": "conjecture",
        "bottom-cycle-free": bcf,
        "top-cycle-free": tcf,
        "holds": holds,
        "all_hold": all(holds),
    }


def standard_reports(n_max: int, count=count_members) -> dict:
    """Run every standard comparison plus the dominance inequality, with
    the class sizes from `count` (by default `count_members`, which reads
    the one memo of class sizes on each call)."""
    rows = []
    for c in STANDARD_CONJECTURES:
        rep = conjecture_report(c.class_name, c.oracle, n_max, count)
        rows.append(
            {
                "name": c.name,
                "oeis": c.oeis,
                "status": c.status,
                "variant": c.variant,
                "note": c.note,
                "report": rep,
            }
        )
    return {"n_max": n_max, "rows": rows, "dominance": dominance_report(n_max, count)}


def sequence_lines(report: dict, variant: str) -> list[str]:
    """Enumerated counts as one integer per line, for pasting into a
    sequence search."""
    return [str(v) for v in report["variants"][variant]["enumerated"]]
