"""Test-only oracles: the diagram-by-diagram versions of the weighted sums
that chordlab tallies by (t1, weight monomial), and the pairwise valency.

They share with the fast paths only ChordDiagram, the diagram stream, the
terminal profile, the top-cycle test and the polynomial arithmetic, which
are tested on their own.
"""

from fractions import Fraction
from math import factorial

from chordlab.enumeration import all_diagrams
from chordlab.patterns import contains_any_top_cycle
from chordlab.series import WeightPoly, YPoly, apply_operator, operator_kind
from chordlab.structure import terminal_profile


def valency_parts(d):
    """(k, l) for every chord i, straight from the definition: k counts
    left neighbors crossing no chord after i; l counts the closed blocks
    packed after i's source once the left neighbors are deleted. The
    crossing table and the point list are built once per diagram."""
    n = d.n
    cross = [[False] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            cross[a][b] = cross[b][a] = d.crosses(a, b)
    chord, partner = [0] * (2 * n + 1), [0] * (2 * n + 1)  # by point
    for c, (a, b) in enumerate(d.pairs, 1):
        chord[a] = chord[b] = c
        partner[a], partner[b] = b, a

    out = []
    for i, (x, y) in enumerate(d.pairs, 1):
        left = {b for b in range(1, i) if cross[b][i]}
        k = sum(1 for b in left if not any(cross[b][i + 1:]))
        # the points after x, i's own and those of deleted chords skipped;
        # a block starts at a source and closes at the first point past
        # which none of its chords reaches
        l = 0
        p = x + 1
        while p < y:
            if chord[p] in left:
                p += 1
                continue
            h = partner[p]
            if h < p or h > y:
                break
            q = p + 1
            while q < h:
                if chord[q] not in left:
                    h = max(h, partner[q])
                q += 1
            if h > y:
                break
            l += 1
            p = h + 1
        out.append((k, l))
    return out


def f_monomial(c):
    t = terminal_profile(c)
    mono = {}
    if c.n - len(t):
        mono[("f", 0)] = c.n - len(t)
    for a, b in zip(t, t[1:]):
        mono[("f", b - a)] = mono.get(("f", b - a), 0) + 1
    return WeightPoly({tuple(sorted((k, i, e) for (k, i), e in mono.items())): 1})


def phi_monomial(c):
    out = WeightPoly.one()
    for k, l in valency_parts(c):
        out = out * WeightPoly.phi(k + l)
    return out


def diagram_series(operator, n_max):
    """Sum f_C phi_C x^|C| L(y^{t1-1}) (over (t1-1)! for binomial), one
    diagram at a time."""
    op = operator_kind(operator)
    out = [YPoly.zero() for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        acc = YPoly.zero()
        for d in all_diagrams(n):
            if not d.is_connected():
                continue
            if op == "divided-power" and contains_any_top_cycle(d):
                continue
            k = terminal_profile(d)[0]
            ypart = apply_operator(op, YPoly.basis(k - 1))
            if op == "binomial":
                ypart = ypart * Fraction(1, factorial(k - 1))
            acc = acc + ypart * (f_monomial(d) * phi_monomial(d))
        out[n] = acc
    return out


def root_share_sum(n, i):
    """Sum of f_{t1(C)-i} f_C over connected C of size n with t1 >= i."""
    total = WeightPoly.zero()
    if n < 1:
        return total
    for d in all_diagrams(n):
        if not d.is_connected():
            continue
        k = terminal_profile(d)[0]
        if k >= i:
            total = total + WeightPoly.f(k - i) * f_monomial(d)
    return total
