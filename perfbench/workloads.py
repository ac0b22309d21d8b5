"""The benchmark's workloads: their operations, inputs and expected outputs.

An operation is one CLI call (run in-process through `chordlab.cli.main`)
or one bijection round trip.  A pass is a workload's fixed list of
operations; the runner repeats passes, each in a fresh process, until the
run's time is up.  Inputs come only from the seed and the pass index, and
expected outputs come from `refs`, never from chordlab itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import refs

WORKLOADS = ("verify-b6", "sweep", "classify", "map-large")

# Check ids registered at the commit that introduced the benchmark.  Each
# must still be registered; their timings are the checks.<id>.s metrics.
CHECK_IDS = (
    "core-pair-statistics", "core-text-roundtrip", "core-intersection-graph",
    "structure-order-agreement", "structure-component-neighbors",
    "structure-one-terminal-characterization", "structure-traced-partition",
    "structure-kterminal-connectivity", "structure-nonnesting-connectivity",
    "structure-order-linear-extension", "patterns-cycle-realizations",
    "patterns-topcycle-tree-characterization",
    "patterns-crossing-nesting-definitions", "patterns-k3-n3-symmetry",
    "psi-bijection", "psi-right-neighbor-drop", "psi-statistics",
    "psi-kterminal-shift", "psi-noncrossing-image", "psi-connectivity",
    "alpha-beta-roundtrip", "alpha-interval-blocks", "omega-code-suite",
    "zeta-stirling-suite", "eta-theta-bijections", "thm-equation-sol",
    "series-monomial-factorization", "series-y-degree",
    "series-all-ones-regression", "series-cocycle", "series-rge",
    "series-root-share", "series-ogf-egf", "enum-stream-counts",
    "enum-connected-stein", "enum-one-terminal-counts", "enum-tcf-refined",
    "enum-catalan-classes", "enum-k3-stanley", "enum-jelinek-equalities",
    "enum-one-terminal-tcf-catalan", "enum-kterminal-minimal-catalan",
    "report-determinism", "conjectures-run",
)

# Sizes per scale.  "small" is the self-test scale.  classify stays at
# n = 6: at n = 7 its two calls take about 50 s, too long to repeat 22 times.
VERIFY_BUDGET = {"full": 6, "small": 4}
SWEEP_SIZE = {"full": 7, "small": 4}
CLASSIFY_SIZE = {"full": 6, "small": 4}
# 100 sizes x 6 pairs = 600 round trips per pass.  The sizes are the same
# for every seed, so only the diagrams vary; above n = 100 the few slowest
# round trips would dominate the pass and spread it too much from seed to
# seed.
MAP_SIZES = {
    "full": tuple(40 + round(60 * k / 99) for k in range(100)),
    "small": (18, 20, 22),
}

SWEEP_CALLS = (
    (),
    ("--count",),
    ("--class", "connected", "--stats", "t1,terminal-count"),
    ("--class", "one-terminal", "--stats", "terminality,kappa"),
    ("--stats", "crossings,nestings"),
)
CLASSIFY_CLASSES = ("bipartite", "K3-free")
PAIRS = ("chi-psi", "zeta", "alpha-beta", "root-share", "theta", "eta")


@dataclass
class Op:
    """One operation: `run` returns a value, `check` returns None when the
    value is right and a reason when it is wrong."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def op_count(workload: str, scale: str) -> int:
    """Operations in one pass, known without importing chordlab."""
    return {
        "verify-b6": len(CHECK_IDS),
        "sweep": len(SWEEP_CALLS),
        "classify": len(CLASSIFY_CLASSES),
        "map-large": len(PAIRS) * len(MAP_SIZES[scale]),
    }[workload]


def diagrams_per_pass(workload: str, scale: str) -> int:
    """Diagrams the enum calls of one pass walk; 0 where not counted."""
    if workload == "sweep":
        return len(SWEEP_CALLS) * refs.ALL[SWEEP_SIZE[scale]]
    if workload == "classify":
        return len(CLASSIFY_CLASSES) * refs.ALL[CLASSIFY_SIZE[scale]]
    return 0


# ------------------------------------------------------------------ CLI ops


def cli_op(name: str, argv: list[str], check) -> Op:
    def run():
        import chordlab.cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = chordlab.cli.main(argv)
        return rc, out.getvalue()

    def checked(value):
        rc, out = value
        if rc != 0:
            return "exit code %r" % rc
        return check(out)

    return Op(name, run, checked, lambda v: sha(v[1]))


def expect_count(expected: int):
    def check(out: str):
        got = out.strip()
        return None if got == str(expected) else "count %s, expected %d" % (got, expected)

    return check


def expect_table(key: tuple, total: int):
    """A stats table: its digest is the recorded one and its counts sum to
    the class size."""

    def check(out: str):
        counts = [int(line.rsplit("count=", 1)[1]) for line in out.splitlines()]
        if sum(counts) != total:
            return "table sums to %d, expected %d" % (sum(counts), total)
        if sha(out) != refs.DIGESTS[key]:
            return "stdout digest differs from the recorded one"
        return None

    return check


def expect_stream(key: tuple, total: int):
    def check(out: str):
        if out.count("\n") != total:
            return "%d lines, expected %d" % (out.count("\n"), total)
        if sha(out) != refs.DIGESTS[key]:
            return "stdout digest differs from the recorded one"
        return None

    return check


def expect_verified(check_id: str):
    def check(out: str):
        rep = json.loads(out)
        rows = rep["checks"]
        if not rep["ok"] or [r["id"] for r in rows] != [check_id] or not rows[0]["ok"]:
            return "check %s did not pass" % check_id
        return None

    return check


def verify_ops(scale: str) -> list[Op]:
    from chordlab.checks import check_ids

    budget = str(VERIFY_BUDGET[scale])
    registered = check_ids()
    ops = [
        cli_op("verify:" + cid, ["verify", cid, "--max-size", budget, "--format", "json"],
               expect_verified(cid))
        for cid in registered
    ]
    for cid in CHECK_IDS:
        if cid not in registered:
            ops.append(Op("verify:" + cid, lambda cid=cid: None,
                          lambda _, cid=cid: "check %s is not registered" % cid,
                          lambda _: ""))
    return ops


def sweep_ops(scale: str) -> list[Op]:
    n = SWEEP_SIZE[scale]
    ops = []
    for extra in SWEEP_CALLS:
        argv = ["enum", "--size", str(n), "--jobs", "1", *extra]
        key = (n, *extra)
        if not extra:
            check = expect_stream(key, refs.ALL[n])
        elif extra == ("--count",):
            check = expect_count(refs.ALL[n])
        elif "connected" in extra:
            check = expect_table(key, refs.CONNECTED[n])
        elif "one-terminal" in extra:
            check = expect_table(key, refs.ONE_TERMINAL[n])
        else:
            check = expect_table(key, refs.ALL[n])
        ops.append(cli_op("enum:" + " ".join(extra or ("stream",)), argv, check))
    return ops


def classify_ops(scale: str) -> list[Op]:
    n = CLASSIFY_SIZE[scale]
    expected = {"bipartite": refs.BIPARTITE[n], "K3-free": refs.K3_FREE[n]}
    return [
        cli_op("enum:--count --class " + cls,
               ["enum", "--size", str(n), "--jobs", "1", "--count", "--class", cls],
               expect_count(expected[cls]))
        for cls in CLASSIFY_CLASSES
    ]


# ---------------------------------------------------------- map-large inputs
#
# Generated here, without chordlab: uniform matchings; connected diagrams by
# rejection from uniform matchings; one-terminal diagrams as chi of a uniform
# matching (chi is re-implemented below from its definition); and uniform
# increasing ordered trees by inserting node k into one of the 2k - 1 gaps.


def uniform_matching(n: int, rng: random.Random) -> list[tuple[int, int]]:
    pts = list(range(1, 2 * n + 1))
    rng.shuffle(pts)
    return sorted((min(a, b), max(a, b)) for a, b in zip(pts[::2], pts[1::2]))


def is_connected(pairs: list[tuple[int, int]]) -> bool:
    n = len(pairs)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, n):
            c, d = pairs[j]
            if a < c < b < d:
                parent[find(i)] = find(j)
    return n > 0 and len({find(i) for i in range(n)}) == 1


def connected_diagram(n: int, rng: random.Random) -> list[tuple[int, int]]:
    while True:
        pairs = uniform_matching(n, rng)
        if is_connected(pairs):
            return pairs


def ref_chi(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Append a terminal chord, then move every source in front of the run
    of sinks just before it.  Gives a one-terminal diagram of size n + 1."""
    n = len(pairs)
    big = list(pairs) + [(2 * n + 1, 2 * n + 2)]
    is_source = {a for a, _ in big}
    order: list[int] = []
    run: list[int] = []
    for p in range(1, 2 * n + 3):
        if p in is_source:
            order.append(p)
            order.extend(run)
            run = []
        else:
            run.append(p)
    order.extend(run)
    pos = {pt: r + 1 for r, pt in enumerate(order)}
    return sorted(tuple(sorted((pos[a], pos[b]))) for a, b in big)


def uniform_tree(n: int, rng: random.Random):
    """Uniform increasing ordered tree on labels 0..n, as (label, children)."""
    kids: list[list[int]] = [[]]
    for k in range(1, n + 1):
        gap = rng.randrange(2 * k - 1)
        for v in range(k):
            if gap <= len(kids[v]):
                kids[v].insert(gap, k)
                break
            gap -= len(kids[v]) + 1
        kids.append([])

    def freeze(v):
        return (v, tuple(freeze(c) for c in kids[v]))

    return freeze(0)


def map_inputs(sizes, seed: int, pass_index: int) -> list[tuple[str, int, Any]]:
    """(pair, n, input) for each size in turn and each pair."""
    rng = random.Random("map-large:%d:%d" % (seed, pass_index))
    out = []
    for n in sizes:
        out.append(("chi-psi", n, uniform_matching(n, rng)))
        out.append(("zeta", n, uniform_matching(n, rng)))
        out.append(("alpha-beta", n, connected_diagram(n, rng)))
        out.append(("root-share", n, connected_diagram(n, rng)))
        out.append(("theta", n, ref_chi(uniform_matching(n - 1, rng))))
        out.append(("eta", n, uniform_tree(n, rng)))
    return out


def round_trip(pair: str, value):
    """Forward then inverse map, looked up on the module at call time."""
    import chordlab.bijections as b

    if pair == "chi-psi":
        image = b.chi(value)
        return image, b.psi(image)
    if pair == "zeta":
        image = b.zeta(value)
        return image, b.zeta_inverse(image)
    if pair == "alpha-beta":
        image = b.alpha(value)
        return image, b.beta(image)
    if pair == "root-share":
        image = b.root_share_decompose(value)
        return image, b.root_share_compose(*image)
    if pair == "theta":
        image = b.theta(value)
        return image, b.theta_inverse(image)
    image = b.eta(value)
    return image, b.eta_inverse(image)


def map_op(name: str, pair: str, raw) -> Op:
    from chordlab.diagram import ChordDiagram

    if pair == "eta":
        value, expected = raw, raw
    else:
        # the input diagram is built before timing starts
        value = ChordDiagram(raw)
        expected = tuple(raw)

    def check(result):
        back = result[1]
        got = back if pair == "eta" else tuple(back.pairs)
        return None if got == expected else "%s round trip changed its input" % pair

    return Op(name, lambda: round_trip(pair, value), check, lambda r: sha(repr(r)))


def map_ops(scale: str, seed: int, pass_index: int) -> list[Op]:
    # names repeat from pass to pass; sizes repeat within one
    return [map_op("%s:%d:%d" % (p, i // len(PAIRS), n), p, raw)
            for i, (p, n, raw) in enumerate(map_inputs(MAP_SIZES[scale], seed, pass_index))]


# ------------------------------------------------------------------- faults


def fault_ops() -> list[Op]:
    """Two operations that must fail: a wrong expected value and an input
    that makes the program raise.  Used only by the self-test."""
    wrong = cli_op("fault:wrong-expected", ["enum", "--size", "4", "--count", "--jobs", "1"],
                   expect_count(refs.ALL[4] + 1))
    # two crossing-free chords side by side are not connected, so alpha raises
    raising = map_op("fault:raising-input", "alpha-beta", [(1, 2), (3, 4)])
    return [wrong, raising]


def build_ops(workload: str, scale: str, seed: int, pass_index: int,
              faults: bool = False) -> list[Op]:
    if workload == "verify-b6":
        ops = verify_ops(scale)
    elif workload == "sweep":
        ops = sweep_ops(scale)
    elif workload == "classify":
        ops = classify_ops(scale)
    else:
        ops = map_ops(scale, seed, pass_index)
    return ops + (fault_ops() if faults else [])
