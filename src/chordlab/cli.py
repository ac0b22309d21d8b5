"""Command-line front end.

Subcommands: enum (stream or count diagrams), map (apply a bijection),
series (coefficient tables), verify (run registered checks), conjectures
(report-only sequence comparisons).

Exit codes: 0 success, 1 a verified claim failed (or a map input was outside
its domain), 2 usage error.  Reports are byte-deterministic for fixed flags:
fixed orderings, sorted JSON keys, no timestamps.  The environment variable
CHORDLAB_MAX_SIZE caps every size (default 8); when set, it is also the
default --max-size of series and conjectures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import islice

from .bijections import (
    alpha,
    beta,
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
from .checks import CHECKS, run_check
from .conjectures import sequence_lines, standard_reports
from .diagram import ChordDiagram
from .enumeration import STAT_NAMES, all_texts, count_class_parallel, members
from .series import series_rows
from .triangulation import gamma, omega, triangulation_canonical_code

DEFAULT_BUDGET = 8


def _env_size(fallback: int) -> int:
    raw = os.environ.get("CHORDLAB_MAX_SIZE")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SystemExit("CHORDLAB_MAX_SIZE must be an integer, got %r" % raw)


def _outside_budget(flag: str, n: int) -> bool:
    """Report a size outside 0..CHORDLAB_MAX_SIZE (default DEFAULT_BUDGET)
    as a usage error."""
    budget = _env_size(DEFAULT_BUDGET)
    if 0 <= n <= budget:
        return False
    print(
        "error: %s %d outside budget 0..%d (raise CHORDLAB_MAX_SIZE)" % (flag, n, budget),
        file=sys.stderr,
    )
    return True


def _refuse_large_pattern(cls: str) -> None:
    """Refuse a K<k>-free or N<k>-free class whose k exceeds the size
    budget, before its k-chord pattern is built: no diagram within the
    budget can contain it."""
    budget = _env_size(DEFAULT_BUDGET)
    m = re.fullmatch(r"[KN]([0-9]+)-free", cls)
    if m and int(m[1]) > budget:
        raise ValueError(
            "class %s: a pattern of %s chords, outside budget 0..%d (raise CHORDLAB_MAX_SIZE)"
            % (cls, m[1], budget)
        )


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


# ------------------------------------------------------------------------ enum


def _cmd_enum(args) -> int:
    n = args.size
    if _outside_budget("--size", n):
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1, got %d" % args.jobs, file=sys.stderr)
        return 2
    stats = tuple(s for s in args.stats.split(",") if s)
    try:
        _refuse_large_pattern(args.cls)
        if stats:
            table = count_class_parallel(n, args.cls, stats, jobs=args.jobs)
            keys = sorted(table.rows)
            if args.format == "csv":
                _emit_csv(
                    ["n", *stats, "count"],
                    [[*k, table.rows[k]] for k in keys],
                )
            elif args.format == "json":
                _emit_json(
                    {
                        "class": args.cls,
                        "n": n,
                        "statistics": list(stats),
                        "rows": [
                            dict(zip(("n", *stats), k)) | {"count": table.rows[k]}
                            for k in keys
                        ],
                    }
                )
            else:
                for k in keys:
                    parts = " ".join(
                        "%s=%d" % (name, v)
                        for name, v in zip(("n", *stats), k)
                    )
                    print("%s count=%d" % (parts, table.rows[k]))
        elif args.count:
            total = sum(count_class_parallel(n, args.cls, (), jobs=args.jobs).rows.values())
            if args.format == "csv":
                _emit_csv(["n", "class", "count"], [[n, args.cls, total]])
            elif args.format == "json":
                _emit_json({"class": args.cls, "n": n, "count": total})
            else:
                print(total)
        else:
            # the listing of "all" is the generator's own text stream
            if args.cls == "all":
                texts = all_texts(n)
            else:
                texts = map(ChordDiagram.to_text, members(n, args.cls))
            if args.format == "lines":
                # a block of lines per write: a print per line is slow, and
                # one write of the whole listing would hold every line at once
                for block in iter(lambda: list(islice(texts, 1024)), []):
                    sys.stdout.write("\n".join(block) + "\n")
            elif args.format == "csv":
                _emit_csv(["diagram"], [[t] for t in texts])
            else:
                _emit_json({"class": args.cls, "n": n, "diagrams": list(texts)})
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return 0


# ------------------------------------------------------------------------- map


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "," in text or " " in text:
        return tuple(int(x) for x in text.replace(",", " ").split())
    return tuple(int(ch) for ch in text)


def _format_word(w: tuple[int, ...]) -> str:
    if w and max(w) > 9:
        return ",".join(str(x) for x in w)
    return "".join(str(x) for x in w)


def _parse_tree(obj):
    label, kids = obj
    return (int(label), tuple(_parse_tree(k) for k in kids))


def _format_tree(t) -> list:
    return [t[0], [_format_tree(k) for k in t[1]]]


def _parse_parts(text: str):
    return [
        (ChordDiagram.from_text(t), tuple(int(x) for x in block))
        for t, block in json.loads(text)
    ]


def _format_parts(parts) -> str:
    return json.dumps([[p.to_text(), list(b)] for p, b in parts])


# input kind, apply, serialize, roundtrip (None when no inverse exists)
_MAPS = {
    "psi": ("diagram", psi, lambda r: r.to_text(), lambda d, r: chi(r) == d),
    "chi": ("diagram", chi, lambda r: r.to_text(), lambda d, r: psi(r) == d),
    "alpha": ("diagram", alpha, _format_parts, lambda d, r: beta(r) == d),
    "beta": ("parts", beta, lambda r: r.to_text(), lambda p, r: alpha(r) == p),
    "omega": (
        "diagram",
        omega,
        triangulation_canonical_code,
        None,
    ),
    "gamma": (
        "diagram",
        lambda d: gamma(omega(d)),
        lambda r: json.dumps(
            [[triangulation_canonical_code(t), i] for t, i in r]
        ),
        None,
    ),
    "zeta": ("diagram", zeta, _format_word, lambda d, r: zeta_inverse(r) == d),
    "zeta-inv": ("word", zeta_inverse, lambda r: r.to_text(), lambda w, r: zeta(r) == w),
    "eta": ("tree", eta, _format_word, lambda t, r: eta_inverse(r) == t),
    "eta-inv": (
        "word",
        eta_inverse,
        lambda r: json.dumps(_format_tree(r)),
        lambda w, r: eta(r) == w,
    ),
    "theta": (
        "diagram",
        theta,
        lambda r: json.dumps(_format_tree(r)),
        lambda d, r: theta_inverse(r) == d,
    ),
    "theta-inv": (
        "tree",
        theta_inverse,
        lambda r: r.to_text(),
        lambda t, r: theta(r) == t,
    ),
    "root-share": (
        "diagram",
        root_share_decompose,
        lambda r: json.dumps([r[0].to_text(), r[1].to_text(), r[2]]),
        lambda d, r: root_share_compose(*r) == d,
    ),
}


def _cmd_map(args) -> int:
    kind, apply_fn, render, roundtrip = _MAPS[args.bijection]
    try:
        if kind == "diagram":
            value = ChordDiagram.from_text(args.input)
        elif kind == "word":
            value = _parse_word(args.input)
        elif kind == "tree":
            value = _parse_tree(json.loads(args.input))
        else:
            value = _parse_parts(args.input)
    except (ValueError, TypeError, json.JSONDecodeError) as e:
        print("error: cannot parse input: %s" % e, file=sys.stderr)
        return 2
    if args.roundtrip and roundtrip is None:
        print(
            "error: %s has no registered inverse for --roundtrip" % args.bijection,
            file=sys.stderr,
        )
        return 2
    try:
        image = apply_fn(value)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(render(image))
    if args.roundtrip and not roundtrip(value, image):
        print("error: roundtrip failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------- series


def _cmd_series(args) -> int:
    if _outside_budget("--max-size", args.max_size):
        return 2
    rows = series_rows(args.operator, args.max_size, args.source)
    if args.format == "csv":
        _emit_csv(
            ["n", "y_power", "poly"],
            [[r["n"], r["y_power"], r["poly"]] for r in rows],
        )
    elif args.format == "json":
        _emit_json({"operator": args.operator, "rows": rows})
    else:
        for r in rows:
            print("[x^%d] y^%d: %s" % (r["n"], r["y_power"], r["poly"]))
    return 0


# ---------------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    if args.ids == ["all"]:
        ids = list(CHECKS)
    else:
        unknown = [i for i in args.ids if i not in CHECKS]
        if unknown:
            print("error: unknown check ids: %s" % ", ".join(unknown), file=sys.stderr)
            print("registered: %s" % ", ".join(CHECKS), file=sys.stderr)
            return 2
        ids = args.ids
    if args.max_size is None:
        # each check at its registry budget, capped by CHORDLAB_MAX_SIZE
        cap = _env_size(DEFAULT_BUDGET)
        if cap < 0:
            print("error: CHORDLAB_MAX_SIZE %d is negative" % cap, file=sys.stderr)
            return 2
        results = [run_check(i, min(CHECKS[i].budget, cap)) for i in ids]
    elif _outside_budget("--max-size", args.max_size):
        return 2
    else:
        results = [run_check(i, args.max_size) for i in ids]
    ok = all(r["ok"] for r in results)
    if args.format == "json":
        _emit_json({"checks": results, "ok": ok})
    else:
        for r in results:
            line = "%s %s (budget %d)" % (
                "PASS" if r["ok"] else "FAIL",
                r["id"],
                r["budget"],
            )
            print(line)
            if not r["ok"]:
                print("  %s" % json.dumps(r["details"], sort_keys=True))
        print("%d/%d checks passed" % (sum(r["ok"] for r in results), len(results)))
    return 0 if ok else 1


# ----------------------------------------------------------------- conjectures


def _cmd_conjectures(args) -> int:
    if _outside_budget("--max-size", args.max_size):
        return 2
    rep = standard_reports(args.max_size)
    if args.format == "json":
        _emit_json(rep)
        return 0
    flat = []
    for row in rep["rows"]:
        sec = row["report"]["variants"][row["variant"]]
        offset = sec.get("best_offset")
        flat.append(
            [
                row["name"],
                row["oeis"] or "",
                row["status"],
                row["variant"],
                "" if offset is None else offset,
            ]
        )
    if args.format == "csv":
        _emit_csv(["name", "oeis", "status", "variant", "best_offset"], flat)
        return 0
    width = max(len(r[0]) for r in flat)
    for name, oeis, status, variant, offset in flat:
        print(
            "%-*s  %-8s %-11s %-13s offset=%s"
            % (width, name, oeis, status, variant, offset if offset != "" else "none")
        )
    dom = rep["dominance"]
    print(
        "dominance bottom<=top (connected): %s"
        % ("holds" if dom["all_hold"] else "violated")
    )
    for row in rep["rows"]:
        print()
        print("# %s (%s), OEIS %s" % (row["name"], row["variant"], row["oeis"] or "n/a"))
        for line in sequence_lines(row["report"], row["variant"]):
            print(line)
    return 0


# ---------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chordlab",
        description="Exact enumeration, bijections, and verified identities "
        "for rooted chord diagrams.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="stream diagrams or count a class")
    p.add_argument("--size", type=int, required=True, help="number of chords")
    p.add_argument("--class", dest="cls", default="all", help="class name")
    p.add_argument(
        "--stats",
        default="",
        help="comma-separated statistics (%s)" % ", ".join(STAT_NAMES),
    )
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes, at most the CPU count and 2*size-1",
    )
    p.add_argument("--format", choices=("csv", "json", "lines"), default="lines")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("map", help="apply a bijection to one input")
    p.add_argument("--bijection", required=True, choices=sorted(_MAPS))
    p.add_argument("--input", required=True, help="diagram text, word, or JSON")
    p.add_argument(
        "--roundtrip",
        action="store_true",
        help="apply the inverse and require the identity",
    )
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("series", help="coefficient tables for the solutions")
    p.add_argument("--operator", choices=("binomial", "divided-power"), required=True)
    p.add_argument("--max-size", type=int, default=_env_size(6))
    p.add_argument("--source", choices=("solve", "diagrams"), default="solve")
    p.add_argument("--format", choices=("csv", "json", "lines"), default="lines")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run registered checks")
    p.add_argument("ids", nargs="+", help="check ids, or 'all'")
    p.add_argument(
        "--max-size",
        type=int,
        default=None,
        help="budget override (default: each check's registry budget, "
        "capped by CHORDLAB_MAX_SIZE)",
    )
    p.add_argument("--format", choices=("json", "lines"), default="lines")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjectures", help="report-only sequence comparisons")
    p.add_argument("--max-size", type=int, default=_env_size(6))
    p.add_argument("--format", choices=("csv", "json", "lines"), default="lines")
    p.set_defaults(fn=_cmd_conjectures)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
