"""Exact symbolic series: the two integral-like operators (one body,
`apply_operator`), the tree-like equation solver, diagram-sum generating
functions, and the differential and functional identity checks; the flow
equation and the root-share identity are one convolution test. Each
identity check returns None when the identity holds, else its first
failure with both sides; `ogf_checks` returns verdicts only.

Coefficients live in Q[f0, f1, ..., phi1, phi2, ...] with phi0 identified
with 1. Everything is exact; floats never appear. Every product of
truncated series is the one convolution `_series_mul`: `YPoly * YPoly`,
the solver's powers of G and the forbidden-class equation. The cocycle
check keeps its tensor square as a plain dict keyed by pairs of y-powers.

The diagram sums (diagram_series, root_share_sum) read one cached tally per
(n, class): a walk over the connected diagrams of size n (connected
top-cycle-free for the divided-power sum) counting them by
(t1, f_C phi_C), building only monomial tuples per diagram (phi_C from
one `valencies` list). The operator is then applied once per distinct t1,
to one WeightPoly made from that t1's tally; the root share reads the f
letters of the same tally.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .diagram import ChordDiagram
from .structure import terminal_profile, valencies

# monomial: sorted tuple of (kind, index, exponent), kind "f" or "p"
Mono = tuple[tuple[str, int, int], ...]

_ONE: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d: dict[tuple[str, int], int] = {}
    for k, i, e in a:
        d[(k, i)] = e
    for k, i, e in b:
        d[(k, i)] = d.get((k, i), 0) + e
    return tuple(sorted((k, i, e) for (k, i), e in d.items()))


def _mono_str(m: Mono) -> str:
    parts = []
    for k, i, e in m:
        name = ("f%d" if k == "f" else "phi%d") % i
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


class WeightPoly:
    """Polynomial in the f and phi indeterminates over exact rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, Fraction] | None = None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                if c:
                    cleaned[m] = c if isinstance(c, Fraction) else Fraction(c)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("WeightPoly is immutable")

    @classmethod
    def zero(cls) -> "WeightPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "WeightPoly":
        return cls({_ONE: Fraction(c)})

    @classmethod
    def one(cls) -> "WeightPoly":
        return cls.const(1)

    @classmethod
    def f(cls, i: int) -> "WeightPoly":
        if i < 0:
            raise ValueError("f index must be >= 0")
        return cls({(("f", i, 1),): Fraction(1)})

    @classmethod
    def phi(cls, k: int) -> "WeightPoly":
        if k < 0:
            raise ValueError("phi index must be >= 0")
        if k == 0:
            return cls.one()  # phi0 is the constant 1
        return cls({(("p", k, 1),): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WeightPoly.const(other)
        if not isinstance(other, WeightPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "WeightPoly":
        if isinstance(other, (int, Fraction)):
            other = WeightPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return WeightPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "WeightPoly":
        return WeightPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightPoly":
        if isinstance(other, (int, Fraction)):
            other = WeightPoly.const(other)
        return self + (-other)

    def __mul__(self, other) -> "WeightPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return WeightPoly.zero()
            return WeightPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, WeightPoly):
            return NotImplemented
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return WeightPoly(out)

    __rmul__ = __mul__

    def evaluate(
        self,
        f: Callable[[int], Fraction],
        phi: Callable[[int], Fraction],
    ) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for kind, i, e in m:
                base = Fraction(f(i) if kind == "f" else phi(i))
                v *= base**e
            total += v
        return total

    def subs_phi(self, phi: Callable[[int], Fraction]) -> "WeightPoly":
        """Evaluate the phi indeterminates, keeping f symbolic."""
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            rest = []
            for kind, i, e in m:
                if kind == "p":
                    c = c * Fraction(phi(i)) ** e
                else:
                    rest.append((kind, i, e))
            key = tuple(rest)
            out[key] = out.get(key, Fraction(0)) + c
        return WeightPoly(out)

    def canonical(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            ms = _mono_str(m)
            if not ms:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append("-" + ms)
            else:
                parts.append("%s*%s" % (c, ms))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return "WeightPoly(%s)" % self.canonical()


class YPoly:
    """Polynomial in y with WeightPoly coefficients; trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[WeightPoly] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("YPoly is immutable")

    @classmethod
    def zero(cls) -> "YPoly":
        return cls()

    @classmethod
    def basis(cls, n: int) -> "YPoly":
        return cls([WeightPoly.zero()] * n + [WeightPoly.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> WeightPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return WeightPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, YPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "YPoly") -> "YPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "YPoly") -> "YPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly([self[i] - other[i] for i in range(n)])

    def __mul__(self, other) -> "YPoly":
        if isinstance(other, (int, Fraction, WeightPoly)):
            return YPoly([c * other for c in self.coeffs])
        if not isinstance(other, YPoly):
            return NotImplemented
        n_max = len(self.coeffs) + len(other.coeffs) - 2
        return YPoly(_series_mul(self.coeffs, other.coeffs, n_max, WeightPoly.zero()))

    __rmul__ = __mul__

    def subs_phi(self, phi: Callable[[int], Fraction]) -> "YPoly":
        return YPoly([c.subs_phi(phi) for c in self.coeffs])

    def evaluate(
        self,
        f: Callable[[int], Fraction],
        phi: Callable[[int], Fraction],
        y: Fraction,
    ) -> Fraction:
        total = Fraction(0)
        power = Fraction(1)
        for c in self.coeffs:
            total += c.evaluate(f, phi) * power
            power *= y
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "YPoly(0)"
        bits = [
            "(%s)*y^%d" % (c.canonical(), i)
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return "YPoly(%s)" % " + ".join(bits)


def operator_kind(name: str) -> str:
    if name in ("bin", "binomial"):
        return "binomial"
    if name in ("div", "divided-power", "pow", "power"):
        return "divided-power"
    raise ValueError("unknown operator: %s" % name)


def apply_operator(name: str, p: YPoly) -> YPoly:
    """y^n -> sum_{i=1}^{n+1} w f_{n+1-i} y^i, extended linearly, with
    w = n!/i! for the binomial operator and w = 1 for divided-power."""
    binomial = operator_kind(name) == "binomial"
    out = YPoly.zero()
    for n, c in enumerate(p.coeffs):
        if not c:
            continue
        img = [WeightPoly.zero()] * (n + 2)
        for i in range(1, n + 2):
            scale = Fraction(factorial(n), factorial(i)) if binomial else 1
            img[i] = c * WeightPoly.f(n + 1 - i) * scale
        out = out + YPoly(img)
    return out


def check_cocycle(
    coalgebra: str, n_max: int, operator: str | None = None
) -> dict | None:
    """Verify Delta(L(y^n)) = (id (x) L)(Delta(y^n)) + L(y^n) (x) 1 on the
    basis y^n for n <= n_max: None when it holds, else the first failing
    tensor term with both sides.

    The coproduct is split-by-exponent with binomial or all-ones section
    coefficients; the operator defaults to the coalgebra's own.
    """
    coalgebra = operator_kind(coalgebra)
    op = coalgebra if operator is None else operator_kind(operator)
    weight = comb if coalgebra == "binomial" else lambda n, k: 1
    for n in range(n_max + 1):
        img = apply_operator(op, YPoly.basis(n))
        # the tensor square of the y-polynomials: (y-power, y-power) -> WeightPoly
        lhs: dict[tuple[int, int], WeightPoly] = {}
        rhs: dict[tuple[int, int], WeightPoly] = {}
        for i, c in enumerate(img.coeffs):
            for k in range(i + 1):
                lhs[k, i - k] = lhs.get((k, i - k), 0) + c * weight(i, k)
            rhs[i, 0] = rhs.get((i, 0), 0) + c
        for k in range(n + 1):
            for j, cj in enumerate(apply_operator(op, YPoly.basis(n - k)).coeffs):
                rhs[k, j] = rhs.get((k, j), 0) + cj * weight(n, k)
        lhs, rhs = ({k: v for k, v in t.items() if v} for t in (lhs, rhs))
        if lhs != rhs:
            bad = next(k for k in sorted(set(lhs) | set(rhs)) if lhs.get(k) != rhs.get(k))
            zero = WeightPoly.zero()
            return {
                "n": n,
                "key": bad,
                "lhs": lhs.get(bad, zero).canonical(),
                "rhs": rhs.get(bad, zero).canonical(),
            }
    return None


def _series_mul(a: list, b: list, n_max: int, zero) -> list:
    """Product of two power series given as coefficient lists, truncated
    after x^n_max; `zero` is the zero of the coefficient ring."""
    out = [zero] * (n_max + 1)
    for i, ai in enumerate(a[:n_max + 1]):
        if ai:
            for j, bj in enumerate(b[:n_max + 1 - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out


def solve_tree_like(operator: str, n_max: int) -> list[YPoly]:
    """Order-N solution of G = x L(phi(G)) with symbolic f and phi.

    Index n holds [x^n]G; index 0 is zero. phi(z) = 1 + phi1 z + phi2 z^2 + ...
    """
    op = operator_kind(operator)
    h = [YPoly.zero() for _ in range(n_max + 1)]
    if n_max >= 1:
        h[1] = apply_operator(op, YPoly.basis(0))
    # powers[k] = G^k truncated, rebuilt as h grows
    for n in range(1, n_max):
        power = [YPoly.zero()] * (n + 1)
        power[0] = YPoly.basis(0)
        rhs = YPoly.zero()
        for k in range(1, n + 1):
            power = _series_mul(power, h[: n + 1], n, YPoly.zero())
            if power[n]:
                rhs = rhs + WeightPoly.phi(k) * power[n]
        h[n + 1] = apply_operator(op, rhs)
    return h


def _f_mono(c: ChordDiagram, profile: tuple[int, ...]) -> Mono:
    # f0 to the non-terminal count times f_{gap} per pair of consecutive
    # terminal positions; `profile` is the terminal profile of c
    mono: dict[int, int] = {}
    if c.n - len(profile):
        mono[0] = c.n - len(profile)
    for a, b in zip(profile, profile[1:]):
        mono[b - a] = mono.get(b - a, 0) + 1
    return tuple(("f", i, e) for i, e in sorted(mono.items()))


def _phi_mono(c: ChordDiagram) -> Mono:
    # phi_v per chord of valency v, with phi0 = 1 left out
    return tuple(("p", k, e) for k, e in sorted(Counter(filter(None, valencies(c))).items()))


def f_monomial(c: ChordDiagram) -> WeightPoly:
    """f_C: f0 to the non-terminal count times the terminal-gap factors."""
    if not c.is_connected():
        raise ValueError("weight requires a connected diagram")
    return WeightPoly({_f_mono(c, terminal_profile(c)): Fraction(1)})


# t1 -> weight monomial f_C phi_C -> number of diagrams
Tally = Mapping[int, Mapping[Mono, int]]


@lru_cache(maxsize=None)
def _weight_tally(n: int, cls: str) -> Tally:
    """One walk over the size-n connected members of `cls` ("all" or
    "top-cycle-free"), counting them by t1 and by f_C phi_C. Cached, and
    read-only."""
    from .enumeration import tally

    def key(d: ChordDiagram) -> tuple[int, Mono]:
        profile = terminal_profile(d)
        # "f" letters sort before "p" letters, so the joined tuple stays sorted
        return profile[0], _f_mono(d, profile) + _phi_mono(d)

    out: dict[int, dict[Mono, int]] = {}
    for (k, mono), count in tally(n, key, cls, "connected").items():
        out.setdefault(k, {})[mono] = count
    return MappingProxyType({k: MappingProxyType(row) for k, row in out.items()})


def diagram_series(operator: str, n_max: int) -> list[YPoly]:
    """The diagram-sum solution: over connected diagrams for the binomial
    operator, connected top-cycle-free for divided-power.

    Each diagram C contributes f_C phi_C x^{|C|} L(y^{t1-1}), divided by
    (t1-1)! in the binomial case. The diagrams of each size are tallied by
    (t1, f_C phi_C), so L is applied once per t1 to the summed weights.
    """
    op = operator_kind(operator)
    out = [YPoly.zero() for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        acc = YPoly.zero()
        tally = _weight_tally(n, "top-cycle-free" if op == "divided-power" else "all")
        for k in sorted(tally):
            ypart = apply_operator(op, YPoly.basis(k - 1))
            if op == "binomial":
                ypart = ypart * Fraction(1, factorial(k - 1))
            acc = acc + ypart * WeightPoly(tally[k])
        out[n] = acc
    return out


def g_table(series: list[YPoly], phi: Callable[[int], Fraction] | None = None):
    """g_{i,n} = i! [y^i][x^n] of the series, optionally with phi evaluated."""
    n_max = len(series) - 1
    g: dict[tuple[int, int], WeightPoly] = {}
    for n in range(1, n_max + 1):
        yp = series[n]
        if phi is not None:
            yp = yp.subs_phi(phi)
        for i in range(1, yp.degree + 1):
            g[(i, n)] = yp[i] * factorial(i)
    return g


def check_rge(n_max: int, operator: str = "binomial") -> dict | None:
    """With phi = all ones and f symbolic, test the coefficient form of the
    flow equation: g_{i,n} = sum_m (2(n-m)-1) g_{1,m} g_{i-1,n-m}, 2 <= i <= n.
    None when it holds, else the first failure (see _root_share_convolution).
    """
    series = solve_tree_like(operator, n_max)
    g = g_table(series, phi=lambda k: Fraction(1))
    zero = WeightPoly.zero()
    return _root_share_convolution(lambda n, i: g.get((i, n), zero), n_max, 2)


def root_share_sum(n: int, i: int) -> WeightPoly:
    """Sum of f_{t1(C)-i} f_C over connected C of size n with t1 >= i, read
    from the f letters of the size-n tally."""
    if n < 1:
        return WeightPoly.zero()
    terms: dict[Mono, int] = {}
    for k, row in _weight_tally(n, "all").items():
        if k >= i:
            shift: Mono = (("f", k - i, 1),)
            for m, c in row.items():
                key = _mono_mul(shift, tuple(x for x in m if x[0] == "f"))
                terms[key] = terms.get(key, 0) + c
    return WeightPoly(terms)


def check_root_share_identity(n_max: int) -> dict | None:
    """Root-share convolution: A(n,i) = sum_m (2(n-m)-1) A(m,1) A(n-m,i-1)
    for 2 <= n <= n_max, 1 <= i <= n, symbolically in f. None when it
    holds, else the first failure (see _root_share_convolution)."""
    return _root_share_convolution(lru_cache(maxsize=None)(root_share_sum), n_max, 1)


def _root_share_convolution(a: Callable, n_max: int, low: int) -> dict | None:
    """Test a(n, i) = sum_{m=1}^{n-1} (2(n-m)-1) a(m, 1) a(n-m, i-1) for
    2 <= n <= n_max and low <= i <= n, in that order. None when every
    case holds, else the first failure with both sides."""
    for n in range(2, n_max + 1):
        for i in range(low, n + 1):
            rhs = WeightPoly.zero()
            for m in range(1, n):
                term = a(m, 1) * a(n - m, i - 1)
                if term:
                    rhs = rhs + (2 * (n - m) - 1) * term
            lhs = a(n, i)
            if lhs != rhs:
                return {"n": n, "i": i, "lhs": lhs.canonical(), "rhs": rhs.canonical()}
    return None


def forbidden_class_recurrence(a: list[int], b: list[int]) -> list[int]:
    """Right side of a_n = [x^n](1 + F(x G(x)^2)) given the class series
    G = 1 + sum a_n x^n and its connected counterpart F = sum b_n x^n."""
    n_max = len(a) - 1
    g = list(a)
    g[0] = 1
    out = [0] * (n_max + 1)
    out[0] = 1
    g2 = _series_mul(g, g, n_max, 0)
    power = [1] + [0] * n_max  # (x G^2)^k accumulates a shift of k
    for k in range(1, n_max + 1):
        power = _series_mul(power, g2, n_max - k, 0)
        if k >= len(b):
            break
        for n in range(k, n_max + 1):
            if n - k < len(power) and power[n - k]:
                out[n] += b[k] * power[n - k]
    return out


def egf_antiderivative_counts(n_max: int) -> list[int]:
    """n! [x^n] of the C with C' = 1/(1 - C), C(0) = 0; these are the
    all-diagram counts shifted by one: (2(n-1) - 1)!!.

    C' = 1 + C C' gives (n+1) c_{n+1} = [n = 0] + sum_i c_i (n-i+1) c_{n-i+1},
    where c_0 = 0 keeps c_{n+1} off the right side."""
    c = [Fraction(0)] * (n_max + 1)
    for n in range(n_max):
        total = sum(c[i] * (n - i + 1) * c[n - i + 1] for i in range(1, n + 1))
        c[n + 1] = (total + Fraction(n == 0)) / (n + 1)
    out = []
    for n in range(n_max + 1):
        v = c[n] * factorial(n)
        assert v.denominator == 1
        out.append(int(v))
    return out


def ogf_checks(n_max: int) -> dict:
    """Verdicts of three ordinary/exponential generating-function checks
    against root insertion counts: the connected-count recurrence ("stein"),
    the forbidden-class functional equation for every profile class
    ("classes": whether it applies, and if so whether it holds), the
    antiderivative EGF ("egf"), and all of them together ("ok")."""
    from .enumeration import PROFILE_CLASSES, census, count_members
    from .oracles import double_factorial, stein

    sizes = range(1, n_max + 1)
    stein_ok = all(census(n)["connected"] == stein(n) for n in sizes)

    classes = {}
    for cls in PROFILE_CLASSES:
        # The root-component decomposition only respects forbidden patterns
        # whose intersection graphs are connected; nonnesting forbids a pure
        # nesting (two chords, no crossing), so the equation does not apply.
        applies = cls != "nonnesting"
        ok = None
        if applies:
            a = [1] + [count_members(n, cls) for n in sizes]
            b = [0] + [count_members(n, cls, "connected") for n in sizes]
            ok = forbidden_class_recurrence(a, b) == a
        classes[cls] = {"applies": applies, "ok": ok}

    egf_ok = egf_antiderivative_counts(n_max)[1:] == [double_factorial(n - 1) for n in sizes]

    return {
        "stein": stein_ok,
        "classes": classes,
        "egf": egf_ok,
        "ok": stein_ok and egf_ok and all(v["ok"] for v in classes.values() if v["applies"]),
    }


def series_rows(operator: str, n_max: int, source: str = "solve") -> list[dict]:
    """JSON-ready coefficient rows for the CLI."""
    series = (
        solve_tree_like(operator, n_max)
        if source == "solve"
        else diagram_series(operator, n_max)
    )
    rows = []
    for n in range(1, n_max + 1):
        for i, c in enumerate(series[n].coeffs):
            if c:
                rows.append({"n": n, "y_power": i, "poly": c.canonical()})
    return rows
