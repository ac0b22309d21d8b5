"""Registry of verifiable claims.

Each check exhaustively verifies one documented property at a default size
budget chosen so that running everything stays in the minutes range on one
core. Verifiers return a dict carrying an "ok" flag plus enough context to
debug a failure; they never raise on a mismatch. `run_many(None)` at the
default budgets is the full verification gate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .bijections import (
    Parts,
    alpha,
    beta,
    chi,
    eta,
    eta_inverse,
    psi,
    theta,
    theta_inverse,
    zeta,
    zeta_inverse,
)
from .diagram import ChordDiagram
from .enumeration import (
    _root_key,
    all_diagrams,
    census,
    class_census,
    count_class,
    count_classes_parallel,
    count_members,
    members,
    pattern_free_count,
    tcf_refined,
)
from .oracles import (
    catalan,
    corollary_sum,
    double_factorial,
    one_terminal,
    stanley,
    stein,
)
from .patterns import (
    bottom_cycle,
    complete_diagram,
    contains_any_bottom_cycle,
    contains_any_top_cycle,
    in_class,
    nesting_diagram,
    permutation_diagram,
    top_cycle,
)
from .series import WeightPoly, f_monomial
from .structure import (
    exists_nonnesting_induced_path,
    intersection_order,
    is_k_connected,
    is_k_terminal,
    is_k_terminal_minimal,
    is_one_terminal,
    t1,
    terminal_labels,
    terminality,
    traced_subdiagram,
    vertex_connectivity,
)


@dataclass(frozen=True)
class Check:
    id: str
    module: str
    description: str
    budget: int
    fn: Callable[[int], dict]


CHECKS: dict[str, Check] = {}

# the connected top-cycle-free diagrams of sizes 1..8 (OEIS A000260), which
# enum-tcf-refined and omega-code-suite compare over the sizes listed; past
# them, only the closed forms check the counts
TCF_TOTALS = (1, 1, 3, 13, 68, 399, 2530, 16965)


def _register(check_id: str, module: str, description: str, budget: int):
    def wrap(fn: Callable[[int], dict]) -> Callable[[int], dict]:
        CHECKS[check_id] = Check(check_id, module, description, budget, fn)
        return fn

    return wrap


def _fail(**details) -> dict:
    details["ok"] = False
    return details


def _domain(n: int, name: str, variant: str = "all") -> Iterable[ChordDiagram]:
    """The size-n members of a variant of a named class, in generation
    order: the walk of `members`, which reads the class and the variant by
    the one rule of `_root_key`. A class built by root insertion comes with
    its connectivity and intersection order filled in, and computes its
    crossing masks on first read. Cached up to size 7 (`_class_domain`); a
    larger size, which only the psi checks read at their budget 8, is
    walked anew on each call."""
    if n > 7:
        return members(n, name, variant=variant)
    return _class_domain(n, name, variant)


@lru_cache(maxsize=None)
def _class_domain(n: int, name: str, variant: str) -> tuple[ChordDiagram, ...]:
    """`_domain` up to size 7, one cache entry per argument triple."""
    return tuple(members(n, name, variant=variant))


def _sweep(
    visit: Callable[[ChordDiagram], dict | None],
    domain: str,
    start: int,
    budget: int,
    variant: str = "all",
) -> dict:
    """Visit the members of a variant of the class `domain` with start <= n
    <= budget in generation order. A walk whose `_root_key` variant is
    "all", a class itself such as "all", "nonnesting" or "top-cycle-free",
    is streamed from `members` and cached nowhere; a connected or
    one-terminal walk is read from `_domain`, which several checks share.
    The visitor returns None, or the details of a failure; the first
    failing diagram is the reported witness."""
    stream = _root_key(domain, variant)[1] == "all"
    checked = 0
    for n in range(start, budget + 1):
        for d in members(n, domain, variant=variant) if stream else _domain(n, domain, variant):
            failure = visit(d)
            if failure is not None:
                return _fail(witness=d.to_text(), **failure)
            checked += 1
    return {"ok": True, "checked": checked}


def _register_sweep(
    check_id: str,
    module: str,
    description: str,
    budget: int,
    domain: str,
    start: int,
):
    """Register a check that runs the decorated visitor through `_sweep`."""

    def wrap(visit: Callable[[ChordDiagram], dict | None]):
        _register(check_id, module, description, budget)(
            lambda b: _sweep(visit, domain, start, b)
        )
        return visit

    return wrap


# ---------------------------------------------------------------- diagram core


@_register_sweep(
    "core-pair-statistics",
    "diagram",
    "crossings + nestings + disjoint pairs = n(n-1)/2, and the tallies "
    "agree with the per-pair relation",
    7,
    domain="all",
    start=0,
)
def _core_pair_statistics(d: ChordDiagram) -> dict | None:
    n = d.n
    cr = ne = dj = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rel = d.relation(i, j)
            cr += rel == "cross"
            ne += rel == "nest"
            dj += rel == "disjoint"
    if cr + ne + dj != n * (n - 1) // 2:
        return {}
    if cr != d.crossings() or ne != d.nestings():
        return {"kind": "method mismatch"}
    return None


@_register_sweep(
    "core-text-roundtrip",
    "diagram",
    "from_text(to_text(C)) = C and from_json(to_json(C)) = C",
    7,
    domain="all",
    start=0,
)
def _core_text_roundtrip(d: ChordDiagram) -> dict | None:
    if ChordDiagram.from_text(d.to_text()) != d:
        return {"kind": "text"}
    if ChordDiagram.from_json(d.to_json()) != d:
        return {"kind": "json"}
    return None


@_register_sweep(
    "core-intersection-graph",
    "diagram",
    "directed crossing arcs match an independent pairwise interleaving test",
    6,
    domain="all",
    start=1,
)
def _core_intersection_graph(d: ChordDiagram) -> dict | None:
    n = d.n
    slow = set()
    for i in range(1, n + 1):
        xi, yi = d.chord(i)
        for j in range(i + 1, n + 1):
            xj, yj = d.chord(j)
            if xi < xj < yi < yj:
                slow.add((i, j))
    if set(d.arcs()) != slow:
        return {}
    return None


# ----------------------------------------------------------- diagram structure


@_register_sweep(
    "structure-order-agreement",
    "structure",
    "standard and intersection orders agree up to the first terminal "
    "chord, which holds the rightmost sink",
    7,
    domain="connected",
    start=1,
)
def _structure_order_agreement(d: ChordDiagram) -> dict | None:
    o = intersection_order(d)
    k = t1(d)
    prefix = o[:k]
    if list(prefix) != sorted(prefix):
        return {"kind": "prefix order"}
    if o[k - 1] != d.chord_at(2 * d.n):
        return {"kind": "rightmost sink"}
    return None


@_register_sweep(
    "structure-component-neighbors",
    "structure",
    "components left after the first t1 chords have no right neighbors "
    "outside themselves",
    7,
    domain="connected",
    start=2,
)
def _structure_component_neighbors(d: ChordDiagram) -> dict | None:
    o = intersection_order(d)
    k = t1(d)
    removed = set(o[:k])
    rest = sorted(o[k:])
    if not rest:
        return None
    sub = d.subdiagram(rest)
    comp_of = {}
    for comp in sub.indecomposable_components():
        for idx in comp:
            comp_of[rest[idx - 1]] = comp[0]
    for x in rest:
        for y in d.right_neighbors(x):
            if y in removed or comp_of[y] != comp_of[x]:
                return {"chord": x, "neighbor": y}
    return None


@_register_sweep(
    "structure-one-terminal-characterization",
    "structure",
    "1-terminal iff diagram minus root is 1-terminal iff every chord has "
    "a nonnesting induced path to the last chord",
    7,
    domain="connected",
    start=1,
)
def _structure_one_terminal_characterization(d: ChordDiagram) -> dict | None:
    n = d.n
    a = is_one_terminal(d)
    # clause b is the proof obligation for the root-insertion rule that
    # builds the one-terminal class, so it must test each leaf, not use it
    b = a if n == 1 else is_one_terminal(d.remove_chord(d.root_label()))
    last = intersection_order(d)[-1]
    c = all(exists_nonnesting_induced_path(d, x, last) for x in range(1, n + 1))
    if not (a == b == c):
        return {"clauses": (a, b, c)}
    return None


@_register_sweep(
    "structure-traced-partition",
    "structure",
    "traced subdiagrams are 1-terminal with the base chord terminal; those "
    "of the terminal chord's neighbors partition D minus the terminal chord",
    7,
    domain="one-terminal",
    start=1,
)
def _structure_traced_partition(d: ChordDiagram) -> dict | None:
    n = d.n
    term = terminal_labels(d)[0]
    for c in range(1, n + 1):
        tr = traced_subdiagram(d, c)
        sub = d.subdiagram(sorted(tr))
        if not is_one_terminal(sub):
            return {"base": c, "kind": "not 1-terminal"}
        if set(d.right_neighbors(c)) & tr:
            return {"base": c, "kind": "base not terminal"}
    if traced_subdiagram(d, term) != set(range(1, n + 1)):
        return {"kind": "terminal trace not full"}
    seen: set[int] = set()
    for x in range(1, n + 1):
        if x == term or not d.crosses(term, x):
            continue
        tr = traced_subdiagram(d, x)
        if tr & seen:
            return {"kind": "overlap", "base": x}
        seen |= tr
    if seen != set(range(1, n + 1)) - {term}:
        return {"kind": "not a partition"}
    return None


@_register_sweep(
    "structure-kterminal-connectivity",
    "structure",
    "a k-terminal diagram with at least k+1 chords is k-connected",
    7,
    domain="connected",
    start=2,
)
def _structure_kterminal_connectivity(d: ChordDiagram) -> dict | None:
    kt = terminality(d)
    kappa = vertex_connectivity(d)
    for k in range(1, kt + 1):
        if d.n >= k + 1 and kappa < k:
            return {"k": k, "kappa": kappa}
    return None


@_register_sweep(
    "structure-nonnesting-connectivity",
    "structure",
    "for nonnesting diagrams: k-connected iff k-terminal with size >= k",
    7,
    domain="nonnesting",
    start=1,
)
def _structure_nonnesting_connectivity(d: ChordDiagram) -> dict | None:
    n = d.n
    for k in range(1, n + 1):
        if is_k_connected(d, k) != (is_k_terminal(d, k) and n >= k):
            return {"k": k}
    return None


@_register_sweep(
    "structure-order-linear-extension",
    "structure",
    "the intersection order linearly extends crossing reachability",
    6,
    domain="connected",
    start=1,
)
def _structure_order_linear_extension(d: ChordDiagram) -> dict | None:
    pos = {lbl: r for r, lbl in enumerate(intersection_order(d))}
    for x in range(1, d.n + 1):
        for y in d.right_neighbors(x):
            if pos[x] >= pos[y]:
                return {"arc": (x, y)}
    return None


# ------------------------------------------------------------ diagram patterns


@_register(
    "patterns-cycle-realizations",
    "patterns",
    "each cycle length m has exactly two diagram realizations (one at m=3)",
    6,
)
def _patterns_cycle_realizations(budget: int) -> dict:
    for m in range(3, budget + 1):
        found = set()
        for d in _domain(m, "connected"):
            if all(a.bit_count() == 2 for a in d.adjacency()):
                found.add(d)
        expect = {top_cycle(m), bottom_cycle(m)}
        if found != expect or len(found) != (1 if m == 3 else 2):
            return _fail(m=m, found=sorted(x.to_text() for x in found))
    return {"ok": True, "m_max": budget}


@_register_sweep(
    "patterns-topcycle-tree-characterization",
    "patterns",
    "a top-cycle-free diagram is 1-terminal iff it is a tree diagram whose "
    "non-terminal chords each have exactly one right neighbor",
    7,
    domain="top-cycle-free",
    start=1,
)
def _patterns_topcycle_tree_characterization(d: ChordDiagram) -> dict | None:
    lhs = is_one_terminal(d)
    terms = set(terminal_labels(d))
    rhs = (
        d.is_connected()
        and in_class(d, "tree")
        and all(
            len(d.right_neighbors(x)) == 1
            for x in range(1, d.n + 1)
            if x not in terms
        )
    )
    if lhs != rhs:
        return {"lhs": lhs, "rhs": rhs}
    return None


@_register_sweep(
    "patterns-crossing-nesting-definitions",
    "patterns",
    "noncrossing iff zero crossings; nonnesting iff zero nestings",
    6,
    domain="all",
    start=1,
)
def _patterns_crossing_nesting_definitions(d: ChordDiagram) -> dict | None:
    if d.is_noncrossing() != (d.crossings() == 0):
        return {"kind": "noncrossing"}
    if d.is_nonnesting() != (d.nestings() == 0):
        return {"kind": "nonnesting"}
    if in_class(d, "noncrossing") != d.is_noncrossing():
        return {"kind": "class name"}
    return None


@_register(
    "patterns-k3-n3-symmetry",
    "patterns",
    "K3-free and N3-free diagrams are equinumerous",
    6,
)
def _patterns_k3_n3_symmetry(budget: int) -> dict:
    rows = {}
    for n in range(1, budget + 1):
        a = pattern_free_count(n, complete_diagram(3))
        b = pattern_free_count(n, nesting_diagram(3))
        rows[n] = (a, b)
        if a != b:
            return _fail(n=n, k3_free=a, n3_free=b)
    return {"ok": True, "rows": rows}


# ------------------------------------------------------------------ bijections


@_register(
    "psi-bijection",
    "bijections",
    "psi maps 1-terminal size-n diagrams bijectively onto size n-1, with "
    "chi as two-sided inverse",
    8,
)
def _psi_bijection(budget: int) -> dict:
    for n in range(1, budget + 1):
        images = set()
        count = 0
        for d in _domain(n, "one-terminal"):
            img = psi(d)
            if chi(img) != d:
                return _fail(witness=d.to_text(), kind="chi(psi) != id")
            images.add(img.to_text())
            count += 1
        if len(images) != count or count != one_terminal(n):
            return _fail(n=n, distinct=len(images), count=count)
    for n in range(0, min(budget, 7)):
        for d in all_diagrams(n):
            lift = chi(d)
            if not is_one_terminal(lift):
                return _fail(witness=d.to_text(), kind="chi image not 1-terminal")
            if psi(lift) != d:
                return _fail(witness=d.to_text(), kind="psi(chi) != id")
    return {"ok": True, "n_max": budget}


@_register_sweep(
    "psi-right-neighbor-drop",
    "bijections",
    "every non-terminal chord loses exactly one right neighbor under psi",
    7,
    domain="one-terminal",
    start=2,
)
def _psi_right_neighbor_drop(d: ChordDiagram) -> dict | None:
    img = psi(d)
    for i in range(1, d.n):
        if len(d.right_neighbors(i)) - 1 != len(img.right_neighbors(i)):
            return {"chord": i}
    return None


@_register_sweep(
    "psi-statistics",
    "bijections",
    "psi drops crossings by n-1 and preserves nestings",
    8,
    domain="one-terminal",
    start=1,
)
def _psi_statistics(d: ChordDiagram) -> dict | None:
    img = psi(d)
    if img.crossings() != d.crossings() - d.n + 1:
        return {"kind": "crossings"}
    if img.nestings() != d.nestings():
        return {"kind": "nestings"}
    return None


@_register_sweep(
    "psi-kterminal-shift",
    "bijections",
    "T is k-terminal iff psi(T) is (k-1)-terminal, k >= 2",
    7,
    domain="one-terminal",
    start=2,
)
def _psi_kterminal_shift(d: ChordDiagram) -> dict | None:
    img = psi(d)
    for k in range(2, d.n + 1):
        if is_k_terminal(d, k) != is_k_terminal(img, k - 1):
            return {"k": k}
    return None


@_register(
    "psi-noncrossing-image",
    "bijections",
    "psi(T) is noncrossing iff T is 1-terminal top-cycle-free; iterates "
    "carry k-terminal-minimal diagrams onto noncrossing ones",
    7,
)
def _psi_noncrossing_image(budget: int) -> dict:
    for n in range(1, budget + 1):
        for d in _domain(n, "one-terminal"):
            if psi(d).is_noncrossing() != (not contains_any_top_cycle(d)):
                return _fail(witness=d.to_text(), kind="noncrossing iff tcf")
    # iterated flips: k-terminal-minimal of size m <-> noncrossing of size m-k
    for m in range(2, budget + 1):
        for k in range(1, min(3, m - 1) + 1):
            if m - k > 5:
                continue
            target = set(members(m - k, "noncrossing"))
            images = set()
            for d in _domain(m, "one-terminal"):
                if not is_k_terminal_minimal(d, k):
                    continue
                img = d
                for _ in range(k):
                    img = psi(img)
                if not img.is_noncrossing():
                    return _fail(witness=d.to_text(), k=k, kind="image crosses")
                images.add(img)
            if images != target:
                return _fail(m=m, k=k, kind="not onto", images=len(images),
                             target=len(target))
    return {"ok": True, "n_max": budget}


@_register(
    "psi-connectivity",
    "bijections",
    "connectivity drops from n-k into [max(0, n-2k), n-k) under psi, and "
    "every feasible (n, k, j) is realized",
    7,
)
def _psi_connectivity(budget: int) -> dict:
    for n in range(2, budget + 1):
        seen = set()
        for d in _domain(n, "one-terminal"):
            c = vertex_connectivity(d)
            k = n - c
            if not 1 <= k < n:
                return _fail(witness=d.to_text(), kappa=c)
            j = vertex_connectivity(psi(d))
            if not max(0, n - 2 * k) <= j < n - k:
                return _fail(witness=d.to_text(), kappa=c, image_kappa=j)
            seen.add((c, j))
        want = {
            (n - k, j)
            for k in range(1, n)
            for j in range(max(0, n - 2 * k), n - k)
        }
        if seen != want:
            return _fail(n=n, missing=sorted(want - seen))
    return {"ok": True, "n_max": budget}


@_register(
    "alpha-beta-roundtrip",
    "bijections",
    "beta inverts alpha on connected diagrams; alpha inverts beta on valid "
    "parts tuples (alpha images and randomized ones)",
    7,
)
def _alpha_beta_roundtrip(budget: int) -> dict:
    def visit(d: ChordDiagram) -> dict | None:
        if beta(alpha(d)) != d:
            return {"kind": "beta(alpha) != id"}
        return None

    report = _sweep(visit, "connected", 2, budget)
    if not report["ok"]:
        return report
    pool = {s: _domain(s, "connected") for s in range(1, 5)}
    rng = random.Random(20240817)
    for _ in range(500):
        m = rng.randint(1, 3)
        chosen = [rng.choice(pool[rng.randint(1, 4)]) for _ in range(m)]
        sizes = [rng.randint(1, t1(p)) for p in chosen]
        positions = list(range(1, sum(sizes) + 1))
        rng.shuffle(positions)
        tup: Parts = []
        at = 0
        for p, b in zip(chosen, sizes):
            tup.append((p, tuple(sorted(positions[at:at + b]))))
            at += b
        if alpha(beta(tup)) != tup:
            return _fail(kind="alpha(beta) != id",
                         tuple=[(p.to_text(), b) for p, b in tup])
    return {**report, "random_tuples": 500}


@_register(
    "alpha-interval-blocks",
    "bijections",
    "top-cycle-free diagrams split into increasing interval blocks, and "
    "beta keeps interval-blocked top-cycle-free parts top-cycle-free",
    7,
)
def _alpha_interval_blocks(budget: int) -> dict:
    def visit(d: ChordDiagram) -> dict | None:
        flat = [pos for _, block in alpha(d) for pos in block]
        if flat != list(range(1, len(flat) + 1)):
            return {"blocks": flat}
        return None

    report = _sweep(visit, "top-cycle-free", 2, budget, "connected")
    if not report["ok"]:
        return report
    # the converse layout: parts tiled by increasing intervals in part order
    tcf_pool = {s: _domain(s, "top-cycle-free", "connected") for s in range(1, 5)}
    rng = random.Random(20240818)
    for _ in range(300):
        m = rng.randint(1, 3)
        chosen = [rng.choice(tcf_pool[rng.randint(1, 4)]) for _ in range(m)]
        tup: Parts = []
        at = 1
        for p in chosen:
            size = rng.randint(1, t1(p))
            tup.append((p, tuple(range(at, at + size))))
            at += size
        d = beta(tup)
        if contains_any_top_cycle(d):
            return _fail(kind="beta output has a top cycle",
                         tuple=[(p.to_text(), b) for p, b in tup])
    return {**report, "random_tuples": 300}


@_register(
    "omega-code-suite",
    "bijections",
    "triangulation images: valid, injective via canonical codes, boundary "
    "t1+1 / interior n-t1, per-t1 counts match the refined formula, and "
    "the child decomposition coheres with alpha",
    6,
)
def _omega_code_suite(budget: int) -> dict:
    from .oracles import corollary_count
    from .triangulation import gamma, omega

    codes: set[str] = set()
    totals = []
    for n in range(1, budget + 1):
        per_t1: dict[int, int] = {}
        total = 0
        for d in _domain(n, "top-cycle-free", "connected"):
            t = omega(d)
            try:
                t.validate()
            except ValueError as e:
                return _fail(witness=d.to_text(), kind="invalid triangulation", error=str(e))
            k = t1(d)
            if len(t.boundary) != k + 1:
                return _fail(witness=d.to_text(), kind="boundary size")
            if len(t.vertices()) - len(t.boundary) != n - k:
                return _fail(witness=d.to_text(), kind="interior size")
            code = t.canonical_code()
            if code in codes:
                return _fail(witness=d.to_text(), kind="code collision")
            codes.add(code)
            per_t1[k] = per_t1.get(k, 0) + 1
            total += 1
            if n >= 2:
                parts = alpha(d)
                back = gamma(t)
                if len(back) != len(parts):
                    return _fail(witness=d.to_text(), kind="gamma arity")
                for (pd, block), (pt, i) in zip(parts, back):
                    if i != len(block):
                        return _fail(witness=d.to_text(), kind="gamma index")
                    if pt.canonical_code() != omega(pd).canonical_code():
                        return _fail(witness=d.to_text(), kind="gamma child")
        expect = {i: corollary_count(n, i) for i in range(min(2, n), n + 1)}
        if per_t1 != expect:
            return _fail(n=n, per_t1=per_t1, expect=expect)
        totals.append(total)
    want = list(TCF_TOTALS[:budget])
    if totals[:len(want)] != want:
        return _fail(totals=totals, expect=want)
    return {"ok": True, "totals": totals}


@_register(
    "zeta-stirling-suite",
    "bijections",
    "zeta maps diagrams bijectively onto Stirling words; 1-terminality "
    "shows as the 1...1 frame; deleting the frame tracks psi",
    7,
)
def _zeta_stirling_suite(budget: int) -> dict:
    for n in range(0, budget + 1):
        words = set()
        count = 0
        for d in all_diagrams(n):
            w = zeta(d)
            if len(w) != 2 * n:
                return _fail(witness=d.to_text(), kind="invalid word")
            try:
                back = zeta_inverse(w)
            except ValueError:
                return _fail(witness=d.to_text(), kind="invalid word")
            if back != d:
                return _fail(witness=d.to_text(), kind="roundtrip")
            framed = n >= 1 and w[0] == 1 and w[-1] == 1
            if framed != is_one_terminal(d):
                return _fail(witness=d.to_text(), kind="frame iff 1-terminal")
            if framed:
                trimmed = tuple(x - 1 for x in w if x != 1)
                if trimmed != zeta(psi(d)):
                    return _fail(witness=d.to_text(), kind="frame deletion vs psi")
            words.add(w)
            count += 1
        if len(words) != count or count != double_factorial(n):
            return _fail(n=n, distinct=len(words), count=count)
    return {"ok": True, "n_max": budget}


@_register(
    "eta-theta-bijections",
    "bijections",
    "theta and eta are bijections at each size, and the two word-to-diagram "
    "composites differ on a small word",
    7,
)
def _eta_theta_bijections(budget: int) -> dict:
    for n in range(1, budget + 1):
        trees = set()
        words = set()
        count = 0
        for d in _domain(n, "one-terminal"):
            tr = theta(d)
            if theta_inverse(tr) != d:
                return _fail(witness=d.to_text(), kind="theta roundtrip")
            w = eta(tr)
            if eta_inverse(w) != tr:
                return _fail(witness=d.to_text(), kind="eta roundtrip")
            trees.add(tr)
            words.add(w)
            count += 1
        if len(trees) != count or len(words) != count:
            return _fail(n=n, kind="not injective")
        if count != one_terminal(n):
            return _fail(n=n, count=count)
    witness = None
    for n in range(1, 5):
        for d in all_diagrams(n):
            w = zeta(d)
            direct = zeta_inverse(w)
            composite = psi(theta_inverse(eta_inverse(w)))
            if direct != composite:
                witness = {"word": list(w), "direct": direct.to_text(),
                           "composite": composite.to_text()}
                break
        if witness:
            break
    if witness is None:
        return _fail(kind="composites agree everywhere at sizes <= 4")
    return {"ok": True, "divergence": witness}


# -------------------------------------------------------------- weighted series


@_register(
    "thm-equation-sol",
    "series",
    "the diagram expansion solves the tree-like equation for both operators",
    6,
)
def _series_main_identity(budget: int) -> dict:
    from .series import diagram_series, solve_tree_like

    for op in ("binomial", "divided-power"):
        lhs = diagram_series(op, budget)
        rhs = solve_tree_like(op, budget)
        for n in range(budget + 1):
            if lhs[n] != rhs[n]:
                return _fail(operator=op, n=n)
    return {"ok": True, "order": budget}


@_register_sweep(
    "series-monomial-factorization",
    "series",
    "the f-monomial factors over the connected components beyond the first "
    "terminal chord",
    6,
    domain="connected",
    start=2,
)
def _series_monomial_factorization(d: ChordDiagram) -> dict | None:
    o = intersection_order(d)
    k = t1(d)
    rest = sorted(o[k:])
    rhs = f_monomial(d.subdiagram(o[:k]))
    if rest:
        sub = d.subdiagram(rest)
        comp_of = {}
        for ci, comp in enumerate(sub.components()):
            for idx in comp:
                comp_of[rest[idx - 1]] = ci
        # components occupy consecutive runs of the intersection order
        runs = [comp_of[x] for x in o[k:]]
        heads = [v for i, v in enumerate(runs) if i == 0 or runs[i - 1] != v]
        if len(heads) != len(set(runs)):
            return {"kind": "interleaved", "runs": runs}
        for comp in sub.components():
            b = sub.subdiagram(comp)
            rhs = rhs * WeightPoly.f(t1(b)) * f_monomial(b)
    if f_monomial(d) != rhs:
        return {}
    return None


@_register(
    "series-y-degree",
    "series",
    "[x^n] of the solution has y-degree exactly n, with top coefficient a "
    "nonzero multiple of f0^n",
    6,
)
def _series_y_degree(budget: int) -> dict:
    from .series import solve_tree_like

    for op in ("binomial", "divided-power"):
        g = solve_tree_like(op, budget)
        for n in range(1, budget + 1):
            if g[n].degree != n:
                return _fail(operator=op, n=n, degree=g[n].degree)
            top = g[n][n]
            if not top.terms:
                return _fail(operator=op, n=n, kind="zero top coefficient")
            for mono in top.terms:
                fpart = tuple(m for m in mono if m[0] == "f")
                if fpart != (("f", 0, n),):
                    return _fail(operator=op, n=n, kind="top not f0^n")
    return {"ok": True, "order": budget}


@_register(
    "series-all-ones-regression",
    "series",
    "with unit weights the series evaluation matches the t1-refined "
    "connected counts",
    6,
)
def _series_all_ones_regression(budget: int) -> dict:
    from .series import diagram_series

    one = lambda _i: Fraction(1)
    gb = diagram_series("binomial", budget)
    gd = diagram_series("divided-power", budget)
    rows = {}
    for n in range(1, budget + 1):
        got_bin = gb[n].evaluate(one, one, Fraction(1))
        got_div = gd[n].evaluate(one, one, Fraction(1))
        conn = count_class(n, "connected", ("t1",))
        want_bin = Fraction(0)
        for (_, t), cnt in conn.items():
            want_bin += cnt * sum(
                Fraction(1, math.factorial(i)) for i in range(1, t + 1)
            )
        want_div = Fraction(
            sum(t * cnt for t, cnt in tcf_refined(n).items())
        )
        if got_bin != want_bin or got_div != want_div:
            return _fail(n=n, got=(str(got_bin), str(got_div)),
                         want=(str(want_bin), str(want_div)))
        rows[n] = (str(got_bin), str(got_div))
    return {"ok": True, "rows": rows}


@_register(
    "series-cocycle",
    "series",
    "both coalgebra/operator pairings satisfy the 1-cocycle identity; the "
    "crossed pairing fails",
    6,
)
def _series_cocycle(budget: int) -> dict:
    from .series import check_cocycle

    if check_cocycle("binomial", budget):
        return _fail(pairing="binomial")
    if check_cocycle("divided-power", budget):
        return _fail(pairing="divided-power")
    crossed = check_cocycle("binomial", 2, operator="divided-power")
    if crossed is None:
        return _fail(pairing="crossed", kind="unexpected pass")
    return {"ok": True, "degree": budget, "crossed_counterexample": crossed}


@_register(
    "series-rge",
    "series",
    "the binomial solution satisfies the recursion identity to order 8; "
    "the divided-power solution violates it",
    8,
)
def _series_rge(budget: int) -> dict:
    from .series import check_rge

    if check_rge(budget, "binomial"):
        return _fail(operator="binomial")
    violation = check_rge(3, "divided-power")
    if violation is None:
        return _fail(operator="divided-power", kind="unexpected pass")
    return {"ok": True, "order": budget, "violation": violation}


@_register(
    "series-root-share",
    "series",
    "the root-share recurrence holds symbolically for shifted weight sums",
    6,
)
def _series_root_share(budget: int) -> dict:
    from .series import check_root_share_identity

    failure = check_root_share_identity(budget)
    if failure:
        return _fail(first_failure=failure)
    return {"ok": True, "n_max": budget}


@_register(
    "series-ogf-egf",
    "series",
    "Stein recurrence, the forbidden-class functional equation where it "
    "applies, and the antiderivative count identity",
    7,
)
def _series_ogf_egf(budget: int) -> dict:
    from .series import ogf_checks

    rep = ogf_checks(budget)
    if not rep["ok"]:
        return _fail(stein=rep["stein"], egf=rep["egf"],
                     classes={c: v["ok"] for c, v in rep["classes"].items()})
    applies = {c: v["applies"] for c, v in rep["classes"].items()}
    if applies.get("nonnesting") is not False:
        return _fail(kind="nonnesting should be outside the equation's scope")
    return {"ok": True, "n_max": budget, "classes": sorted(applies)}


# ---------------------------------------------------------- enumeration oracle


def _parallel_census(n: int, jobs: int) -> dict[str, int]:
    """census(n) counted again by one parallel sweep over its classes."""
    tables = count_classes_parallel(n, tuple(census(n)), jobs=jobs)
    return {c: sum(rows.values()) for c, rows in tables.items()}


@_register(
    "enum-stream-counts",
    "enumeration",
    "the generator emits (2n-1)!! diagrams of size n, independent of job "
    "count",
    8,
)
def _enum_stream_counts(budget: int) -> dict:
    rows = {}
    for n in range(0, budget + 1):
        got = census(n)["all"]
        if got != double_factorial(n):
            return _fail(n=n, got=got)
        rows[n] = got
    if _parallel_census(min(budget, 5), jobs=2) != census(min(budget, 5)):
        return _fail(kind="job-count dependence")
    return {"ok": True, "rows": rows}


def _register_sequence(
    check_id: str,
    description: str,
    budget: int,
    count: Callable[[int], int],
    want: Callable[[int], int],
) -> None:
    """Register an enumeration check that compares count(n) with want(n)
    for 1 <= n <= budget."""

    def run(b: int) -> dict:
        rows = {}
        for n in range(1, b + 1):
            got = count(n)
            if got != want(n):
                return _fail(n=n, got=got, want=want(n))
            rows[n] = got
        return {"ok": True, "rows": rows}

    _register(check_id, "enumeration", description, budget)(run)


_register_sequence(
    "enum-connected-stein",
    "connected counts match the Stein recurrence",
    8,
    lambda n: census(n)["connected"],
    stein,
)
_register_sequence(
    "enum-one-terminal-counts",
    "1-terminal counts equal (2n-3)!!",
    8,
    lambda n: census(n)["one-terminal"],
    one_terminal,
)


@_register(
    "enum-tcf-refined",
    "enumeration",
    "connected top-cycle-free counts refined by t1 match the closed "
    "formula, and the totals match the triangulation sums",
    8,
)
def _enum_tcf_refined(budget: int) -> dict:
    from .oracles import brown_sum, corollary_count

    totals = []
    for n in range(1, budget + 1):
        got = tcf_refined(n)
        expect = {i: corollary_count(n, i) for i in range(min(2, n), n + 1)}
        if got != expect:
            return _fail(n=n, got=dict(got), want=expect)
        total = sum(got.values())
        if total != corollary_sum(n) or total != brown_sum(n):
            return _fail(n=n, total=total)
        totals.append(total)
    want = list(TCF_TOTALS[:budget])
    if totals[:len(want)] != want:
        return _fail(totals=totals, expect=want)
    return {"ok": True, "totals": totals}


@_register(
    "enum-catalan-classes",
    "enumeration",
    "noncrossing and nonnesting counts are Catalan; k-connected nonnesting "
    "counts are shifted Catalan",
    8,
)
def _enum_catalan_classes(budget: int) -> dict:
    for n in range(1, budget + 1):
        nc = count_members(n, "noncrossing")
        nn = count_members(n, "nonnesting")
        if nc != catalan(n) or nn != catalan(n):
            return _fail(n=n, noncrossing=nc, nonnesting=nn)
    for n in range(1, min(budget, 7) + 1):
        nonnesting = _domain(n, "nonnesting")
        for k in range(0, n + 1):
            got = sum(1 for d in nonnesting if is_k_connected(d, k))
            if got != catalan(n - k):
                return _fail(n=n, k=k, got=got, want=catalan(n - k))
    return {"ok": True, "n_max": budget}


_register_sequence(
    "enum-k3-stanley",
    "triangle-pattern-free counts match the Catalan determinant formula",
    6,
    lambda n: pattern_free_count(n, complete_diagram(3)),
    stanley,
)


@_register(
    "enum-jelinek-equalities",
    "enumeration",
    "top-cycle-free diagrams are equinumerous with the two permutation-"
    "pattern classes",
    6,
)
def _enum_jelinek_equalities(budget: int) -> dict:
    rows = {}
    for n in range(1, budget + 1):
        a = class_census(n)["top-cycle-free"]["all"]
        b = pattern_free_count(n, permutation_diagram("213"))
        c = pattern_free_count(n, permutation_diagram("132"))
        rows[n] = (a, b, c)
        if not a == b == c:
            return _fail(n=n, counts=(a, b, c))
    return {"ok": True, "rows": rows}


@_register(
    "enum-one-terminal-tcf-catalan",
    "enumeration",
    "1-terminal top-cycle-free diagrams are counted by C_{n-1} and are "
    "automatically bottom-cycle-free",
    7,
)
def _enum_one_terminal_tcf_catalan(budget: int) -> dict:
    rows = {}
    for n in range(1, budget + 1):
        count = 0
        for d in _domain(n, "top-cycle-free", "one-terminal"):
            if contains_any_bottom_cycle(d):
                return _fail(witness=d.to_text(), kind="bottom cycle present")
            count += 1
        if count != catalan(n - 1):
            return _fail(n=n, got=count, want=catalan(n - 1))
        rows[n] = count
    return {"ok": True, "rows": rows}


@_register(
    "enum-kterminal-minimal-catalan",
    "enumeration",
    "k-terminal-minimal diagrams are counted by C_{n-k}",
    6,
)
def _enum_kterminal_minimal_catalan(budget: int) -> dict:
    rows = {}
    for n in range(1, budget + 1):
        for k in (1, 2):
            if k >= n + 1:
                continue
            got = sum(
                1 for d in _domain(n, "one-terminal") if is_k_terminal_minimal(d, k)
            )
            if got != catalan(n - k):
                return _fail(n=n, k=k, got=got, want=catalan(n - k))
            rows[(n, k)] = got
    return {"ok": True, "rows": {str(k): v for k, v in rows.items()}}


# --------------------------------------------------------------------- harness


@_register(
    "report-determinism",
    "harness",
    "reports and parallel sweeps are byte-identical across runs and job "
    "counts",
    5,
)
def _report_determinism(budget: int) -> dict:
    from .conjectures import standard_reports

    # the first report reads the class sizes of the site walks, the second
    # those of the independent per-diagram sweep
    a = json.dumps(standard_reports(budget), sort_keys=True)
    b = json.dumps(standard_reports(budget, lambda n, c, v: class_census(n)[c][v]), sort_keys=True)
    if a != b:
        return _fail(kind="conjecture report differs between runs")
    if _parallel_census(budget, jobs=2) != census(budget):
        return _fail(kind="census differs by job count")
    # a table that the pool walks: t1 alone is counted in-process by
    # `_root_shares`, at any job count
    stats = ("t1", "terminality")
    one_job = count_class(budget, "connected", stats)
    if count_classes_parallel(budget, ("connected",), stats, jobs=2)["connected"] != one_job:
        return _fail(kind="count_class differs by job count")
    return {"ok": True, "n": budget}


@_register(
    "conjectures-run",
    "harness",
    "the standard conjecture report runs to completion and is well-formed "
    "(comparisons are reported, never asserted)",
    6,
)
def _conjectures_run(budget: int) -> dict:
    from .conjectures import STANDARD_CONJECTURES, standard_reports

    rep = standard_reports(budget)
    if len(rep["rows"]) != len(STANDARD_CONJECTURES):
        return _fail(kind="row count")
    for row in rep["rows"]:
        variants = row["report"]["variants"]
        if set(variants) != {"all", "connected", "one-terminal"}:
            return _fail(kind="variants", row=row["name"])
        for sec in variants.values():
            if len(sec["enumerated"]) != budget:
                return _fail(kind="sequence length", row=row["name"])
    if "dominance" not in rep:
        return _fail(kind="missing dominance row")
    return {"ok": True, "rows": [r["name"] for r in rep["rows"]]}


# ---------------------------------------------------------------------- runner


def check_ids() -> list[str]:
    return list(CHECKS)


def run_check(check_id: str, budget: int | None = None) -> dict:
    """Run one registered check; unknown ids raise KeyError."""
    check = CHECKS[check_id]
    b = check.budget if budget is None else budget
    details = check.fn(b)
    return {
        "id": check.id,
        "module": check.module,
        "description": check.description,
        "budget": b,
        "ok": details.pop("ok"),
        "details": details,
    }


def run_many(
    ids: list[str] | None = None, budget: int | None = None
) -> dict:
    """Run several checks (all when ids is None); overall ok is their
    conjunction."""
    rows = [run_check(i, budget) for i in (ids if ids is not None else CHECKS)]
    return {"checks": rows, "ok": all(r["ok"] for r in rows)}
