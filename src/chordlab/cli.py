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
from typing import Iterator

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
from .enumeration import STAT_NAMES, all_texts, count_classes_parallel, members
from .series import series_rows
from .triangulation import Triangulation, gamma, omega

DEFAULT_BUDGET = 8


def _env_size(fallback: int) -> int:
    """CHORDLAB_MAX_SIZE, or `fallback` if unset; ValueError if no size."""
    raw = os.environ.get("CHORDLAB_MAX_SIZE")
    if raw is None:
        return fallback
    if not raw.strip().isdecimal():
        raise ValueError("CHORDLAB_MAX_SIZE must be a non-negative integer, got %r" % raw)
    return int(raw)


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


def _emit(fmt: str, obj, header: list[str] | None, rows, lines) -> None:
    """Print one result in a --format: `obj` as JSON with sorted keys,
    `header` and then `rows` as CSV, or each of the iterable `lines`, which
    is read only for "lines"."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        for line in lines:
            print(line)


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
            rows = count_classes_parallel(n, (args.cls,), stats, jobs=args.jobs)[args.cls]
            header = ["n", *stats, "count"]
            table = [[*k, rows[k]] for k in sorted(rows)]
            obj = {
                "class": args.cls,
                "n": n,
                "statistics": list(stats),
                "rows": [dict(zip(header, row)) for row in table],
            }
            lines = (" ".join("%s=%d" % kv for kv in zip(header, row)) for row in table)
            _emit(args.format, obj, header, table, lines)
        elif args.count:
            rows = count_classes_parallel(n, (args.cls,), (), jobs=args.jobs)[args.cls]
            total = sum(rows.values())
            obj = {"class": args.cls, "n": n, "count": total}
            _emit(args.format, obj, ["n", "class", "count"], [[n, args.cls, total]], [total])
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
            else:
                texts = list(texts)
                obj = {"class": args.cls, "n": n, "diagrams": texts}
                _emit(args.format, obj, ["diagram"], ([t] for t in texts), ())
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


def _parse_tree(text: str):
    """Read the [label, [children]] text that `_format_tree` writes (JSON
    with integer labels) on an explicit stack, so that no depth is too deep."""
    tokens = iter(re.findall(r"-?[0-9]+|\S", text))

    def take(*want: str) -> str:
        tok = next(tokens, "end of input")
        if tok not in want:
            raise ValueError("expected %s, got %r" % (" or ".join(map(repr, want)), tok))
        return tok

    open_nodes: list[tuple[int, list]] = []  # (label, the children read so far)
    tok = take("[")
    while True:
        # tok opened a node: its label, then its children
        label = next(tokens, "end of input")
        if not re.fullmatch(r"-?[0-9]+", label):
            raise ValueError("expected a label, got %r" % label)
        take(",")
        take("[")
        open_nodes.append((int(label), []))
        tok = take("[", "]")
        while tok == "]":  # the last open node's children end, and so does it
            take("]")
            label, kids = open_nodes.pop()
            if not open_nodes:
                rest = next(tokens, None)
                if rest is not None:
                    raise ValueError("unexpected %r after the tree" % rest)
                return label, tuple(kids)
            open_nodes[-1][1].append((label, tuple(kids)))
            tok = take(",", "]")
            if tok == ",":  # a sibling follows
                tok = take("[")


def _format_tree(t) -> str:
    """json.dumps of the tree as nested [label, [children]] lists, with no
    depth limit: `eta` writes each child's label going down and coming up."""
    out, seen = ["[%d, [" % t[0]], set()
    for x in eta(t):
        out.append("]]" if x in seen else ("[%d, [" if out[-1][-1] == "[" else ", [%d, [") % x)
        seen.add(x)
    return "".join(out) + "]]"


def _parse_parts(text: str):
    return [
        (ChordDiagram.from_text(t), tuple(int(x) for x in block))
        for t, block in json.loads(text)
    ]


def _format_parts(parts) -> str:
    return json.dumps([[p.to_text(), list(b)] for p, b in parts])


# input parser, apply, serialize, roundtrip (None when no inverse exists)
_MAPS = {
    "psi": (ChordDiagram.from_text, psi, lambda r: r.to_text(), lambda d, r: chi(r) == d),
    "chi": (ChordDiagram.from_text, chi, lambda r: r.to_text(), lambda d, r: psi(r) == d),
    "alpha": (ChordDiagram.from_text, alpha, _format_parts, lambda d, r: beta(r) == d),
    "beta": (_parse_parts, beta, lambda r: r.to_text(), lambda p, r: alpha(r) == p),
    "omega": (ChordDiagram.from_text, omega, Triangulation.canonical_code, None),
    "gamma": (
        ChordDiagram.from_text,
        lambda d: gamma(omega(d)),
        lambda r: json.dumps([[t.canonical_code(), i] for t, i in r]),
        None,
    ),
    "zeta": (ChordDiagram.from_text, zeta, _format_word, lambda d, r: zeta_inverse(r) == d),
    "zeta-inv": (_parse_word, zeta_inverse, lambda r: r.to_text(), lambda w, r: zeta(r) == w),
    # a tree is compared by its eta word, since == on nested tuples recurses
    "eta": (_parse_tree, eta, _format_word, lambda t, r: eta(eta_inverse(r)) == r),
    "eta-inv": (_parse_word, eta_inverse, _format_tree, lambda w, r: eta(r) == w),
    "theta": (ChordDiagram.from_text, theta, _format_tree, lambda d, r: theta_inverse(r) == d),
    "theta-inv": (
        _parse_tree, theta_inverse, lambda r: r.to_text(), lambda t, r: eta(theta(r)) == eta(t)
    ),
    "root-share": (
        ChordDiagram.from_text,
        root_share_decompose,
        lambda r: json.dumps([r[0].to_text(), r[1].to_text(), r[2]]),
        lambda d, r: root_share_compose(*r) == d,
    ),
}


def _cmd_map(args) -> int:
    parse, apply_fn, render, roundtrip = _MAPS[args.bijection]
    try:
        value = parse(args.input)
    except (ValueError, TypeError, OverflowError, RecursionError) as e:
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
        print(render(image))
        if args.roundtrip and not roundtrip(value, image):
            print("error: roundtrip failed", file=sys.stderr)
            return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------- series


def _cmd_series(args) -> int:
    if _outside_budget("--max-size", args.max_size):
        return 2
    rows = series_rows(args.operator, args.max_size, args.source)
    _emit(
        args.format,
        {"operator": args.operator, "rows": rows},
        ["n", "y_power", "poly"],
        ([r["n"], r["y_power"], r["poly"]] for r in rows),
        ("[x^%d] y^%d: %s" % (r["n"], r["y_power"], r["poly"]) for r in rows),
    )
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
        results = [run_check(i, min(CHECKS[i].budget, cap)) for i in ids]
    elif _outside_budget("--max-size", args.max_size):
        return 2
    else:
        results = [run_check(i, args.max_size) for i in ids]
    ok = all(r["ok"] for r in results)
    _emit(args.format, {"checks": results, "ok": ok}, None, None, _verify_lines(results))
    return 0 if ok else 1


def _verify_lines(results: list[dict]) -> Iterator[str]:
    """A PASS or FAIL line per check, a failure's details under it, and the
    tally."""
    for r in results:
        yield "%s %s (budget %d)" % ("PASS" if r["ok"] else "FAIL", r["id"], r["budget"])
        if not r["ok"]:
            yield "  %s" % json.dumps(r["details"], sort_keys=True)
    yield "%d/%d checks passed" % (sum(r["ok"] for r in results), len(results))


# ----------------------------------------------------------------- conjectures


def _cmd_conjectures(args) -> int:
    if _outside_budget("--max-size", args.max_size):
        return 2
    rep = standard_reports(args.max_size)
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
    header = ["name", "oeis", "status", "variant", "best_offset"]
    _emit(args.format, rep, header, flat, _conjecture_lines(rep, flat))
    return 0


def _conjecture_lines(rep: dict, flat: list[list]) -> Iterator[str]:
    """The table of `flat` in aligned columns, the dominance verdict, then
    each row's enumerated sequence."""
    width = max(len(r[0]) for r in flat)
    for name, oeis, status, variant, offset in flat:
        yield "%-*s  %-8s %-11s %-13s offset=%s" % (
            width, name, oeis, status, variant, offset if offset != "" else "none"
        )
    verdict = "holds" if rep["dominance"]["all_hold"] else "violated"
    yield "dominance bottom<=top (connected): %s" % verdict
    for row in rep["rows"]:
        yield ""
        yield "# %s (%s), OEIS %s" % (row["name"], row["variant"], row["oeis"] or "n/a")
        yield from sequence_lines(row["report"], row["variant"])


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
    try:
        args = build_parser().parse_args(argv)  # its defaults read _env_size
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
