"""Exact symbolic series: the two integral-like operators (one body,
`apply_operator`), the tree-like equation solver, diagram-sum generating
functions, and the differential and functional identity checks; the flow
equation and the root-share identity are one convolution test.

Coefficients live in Q[f0, f1, ..., phi1, phi2, ...] with phi0 identified
with 1. Everything is exact; floats never appear.

The diagram sums (diagram_series, root_share_sum) read one cached tally per
(n, class): a walk over the connected diagrams of size n (connected
top-cycle-free for the divided-power sum) counting them by
(t1, f_C phi_C), building only monomial tuples per diagram. The operator
is then applied once per distinct t1, to one WeightPoly made from that
t1's tally; the root share reads the f letters of the same tally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .diagram import ChordDiagram
from .structure import terminal_profile, valency

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
        if not self.coeffs or not other.coeffs:
            return YPoly.zero()
        out = [WeightPoly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return YPoly(out)

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


# tensor square of the y-polynomial space: (y-power, y-power) -> WeightPoly
Tensor = dict[tuple[int, int], WeightPoly]


def _tensor_add(t: Tensor, key: tuple[int, int], val: WeightPoly) -> None:
    cur = t.get(key)
    t[key] = val if cur is None else cur + val


def _tensor_clean(t: Tensor) -> Tensor:
    return {k: v for k, v in t.items() if v}


def _coproduct_coeff(coalgebra: str, n: int, k: int) -> Fraction:
    if coalgebra == "binomial":
        return Fraction(comb(n, k))
    if coalgebra == "divided-power":
        return Fraction(1)
    raise ValueError("unknown coalgebra: %s" % coalgebra)


def check_cocycle(
    coalgebra: str,
    n_max: int,
    operator: str | None = None,
    report: list | None = None,
) -> bool:
    """Verify Delta(L(y^n)) = (id (x) L)(Delta(y^n)) + L(y^n) (x) 1 on the
    basis y^n for n <= n_max.

    The coproduct is split-by-exponent with binomial or all-ones section
    coefficients; the operator defaults to the coalgebra's own.
    """
    coalgebra = operator_kind(coalgebra)
    op = coalgebra if operator is None else operator_kind(operator)
    for n in range(n_max + 1):
        img = apply_operator(op, YPoly.basis(n))
        lhs: Tensor = {}
        for i, c in enumerate(img.coeffs):
            if not c:
                continue
            for k in range(i + 1):
                w = _coproduct_coeff(coalgebra, i, k)
                _tensor_add(lhs, (k, i - k), c * w)
        rhs: Tensor = {}
        for k in range(n + 1):
            w = _coproduct_coeff(coalgebra, n, k)
            part = apply_operator(op, YPoly.basis(n - k))
            for j, cj in enumerate(part.coeffs):
                if cj:
                    _tensor_add(rhs, (k, j), cj * w)
        for i, c in enumerate(img.coeffs):
            if c:
                _tensor_add(rhs, (i, 0), c)
        lhs, rhs = _tensor_clean(lhs), _tensor_clean(rhs)
        if lhs != rhs:
            if report is not None:
                keys = sorted(set(lhs) | set(rhs))
                bad = next(k for k in keys if lhs.get(k) != rhs.get(k))
                report.append(
                    {
                        "n": n,
                        "key": bad,
                        "lhs": lhs.get(bad, WeightPoly.zero()).canonical(),
                        "rhs": rhs.get(bad, WeightPoly.zero()).canonical(),
                    }
                )
            return False
    return True


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
    mono: dict[int, int] = {}
    for i in range(1, c.n + 1):
        v = valency(c, i)
        if v:
            mono[v] = mono.get(v, 0) + 1
    return tuple(("p", k, e) for k, e in sorted(mono.items()))


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


def check_rge(
    n_max: int, operator: str = "binomial", report: list | None = None
) -> bool:
    """With phi = all ones and f symbolic, test the coefficient form of the
    flow equation: g_{i,n} = sum_m (2(n-m)-1) g_{1,m} g_{i-1,n-m}, 2 <= i <= n.
    """
    series = solve_tree_like(operator, n_max)
    g = g_table(series, phi=lambda k: Fraction(1))
    zero = WeightPoly.zero()
    return _root_share_convolution(lambda n, i: g.get((i, n), zero), n_max, 2, report)


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


def check_root_share_identity(n_max: int, report: list | None = None) -> bool:
    """Root-share convolution: A(n,i) = sum_m (2(n-m)-1) A(m,1) A(n-m,i-1)
    for 2 <= n <= n_max, 1 <= i <= n, symbolically in f."""
    return _root_share_convolution(lru_cache(maxsize=None)(root_share_sum), n_max, 1, report)


def _root_share_convolution(a: Callable, n_max: int, low: int, report: list | None) -> bool:
    """Test a(n, i) = sum_{m=1}^{n-1} (2(n-m)-1) a(m, 1) a(n-m, i-1) for
    2 <= n <= n_max and low <= i <= n, in that order. The first failure
    is appended to `report`, with both sides, and stops the test."""
    for n in range(2, n_max + 1):
        for i in range(low, n + 1):
            rhs = WeightPoly.zero()
            for m in range(1, n):
                term = a(m, 1) * a(n - m, i - 1)
                if term:
                    rhs = rhs + (2 * (n - m) - 1) * term
            lhs = a(n, i)
            if lhs != rhs:
                if report is not None:
                    report.append(
                        {
                            "n": n,
                            "i": i,
                            "lhs": lhs.canonical(),
                            "rhs": rhs.canonical(),
                        }
                    )
                return False
    return True


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
    all-diagram counts shifted by one: (2(n-1) - 1)!!."""
    c = [Fraction(0)] * (n_max + 1)
    for n in range(n_max):
        # [x^n] 1/(1 - C) via powers of the truncation built so far
        total = Fraction(1) if n == 0 else Fraction(0)
        cur = [Fraction(1)]
        for _ in range(1, n + 1):
            cur = _series_mul(cur, c, n, Fraction(0))
            total += cur[n]
        c[n + 1] = total / (n + 1)
    out = []
    for n in range(n_max + 1):
        v = c[n] * factorial(n)
        assert v.denominator == 1
        out.append(int(v))
    return out


def ogf_checks(n_max: int) -> dict:
    """Three ordinary/exponential generating-function checks against root
    insertion counts: the connected-count recurrence, the forbidden-class
    functional equation for every profile class, and the antiderivative EGF."""
    from .enumeration import PROFILE_CLASSES, census, count_members
    from .oracles import double_factorial, stein

    conn = [0] + [census(n)["connected"] for n in range(1, n_max + 1)]
    stein_vals = [0] + [stein(n) for n in range(1, n_max + 1)]
    stein_ok = conn == stein_vals

    per_class = {}
    for cls in PROFILE_CLASSES:
        a = [1] + [count_members(n, cls) for n in range(1, n_max + 1)]
        b = [0] + [count_members(n, cls, "connected") for n in range(1, n_max + 1)]
        recurred = forbidden_class_recurrence(a, b)
        # The root-component decomposition only respects forbidden patterns
        # whose intersection graphs are connected; nonnesting forbids a pure
        # nesting (two chords, no crossing), so the equation does not apply.
        applies = cls != "nonnesting"
        per_class[cls] = {
            "all": a,
            "connected": b,
            "recurrence": recurred,
            "applies": applies,
            "ok": recurred == a if applies else None,
        }

    egf = egf_antiderivative_counts(n_max)
    expected = [0] + [double_factorial(n - 1) for n in range(1, n_max + 1)]
    egf_ok = egf[1:] == expected[1:]

    return {
        "stein": {"ok": stein_ok, "enumerated": conn, "recurrence": stein_vals},
        "classes": per_class,
        "egf": {"ok": egf_ok, "values": egf, "expected": expected},
        "ok": stein_ok
        and egf_ok
        and all(v["ok"] for v in per_class.values() if v["applies"]),
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
