"""Weighted series layer: exact polynomial arithmetic, the two cocycle
operators, the tree-like equation and its diagram-sum solution, the RGE
identity, root-share convolution, and the counting generating functions."""

import random
from fractions import Fraction

import pytest

import per_diagram_series
from chordlab.diagram import ChordDiagram
from chordlab.series import (
    WeightPoly,
    YPoly,
    _phi_mono,
    _weight_tally,
    apply_operator,
    check_cocycle,
    check_rge,
    check_root_share_identity,
    diagram_series,
    egf_antiderivative_counts,
    f_monomial,
    g_table,
    ogf_checks,
    operator_kind,
    root_share_sum,
    series_rows,
    solve_tree_like,
)
from chordlab.oracles import double_factorial
from conftest import Cb, Cf, K3, sweep


def phi_monomial(c):
    """phi_C as a WeightPoly: product of phi_{val(chord)} over all chords."""
    return WeightPoly({_phi_mono(c): Fraction(1)})


def test_weight_poly_arithmetic_is_exact():
    a = WeightPoly.f(0) + WeightPoly.f(1)
    b = a * a
    assert b.canonical() == "2*f0*f1 + f0^2 + f1^2"
    half = WeightPoly.one() * Fraction(1, 2)
    assert (half + half).canonical() == "1"
    assert (a - a).canonical() == "0"


def ypoly_mul_by_double_loop(p, q):
    """YPoly * YPoly as its own double loop over the coefficients."""
    if not p.coeffs or not q.coeffs:
        return YPoly.zero()
    out = [WeightPoly.zero()] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out[i + j] = out[i + j] + a * b
    return YPoly(out)


def random_ypoly(rng):
    """Up to five y-coefficients, each zero or a sum of up to three
    monomials in f0..f2 and phi1..phi2 with small rational coefficients."""
    letters = [WeightPoly.f(i) for i in range(3)] + [WeightPoly.phi(k) for k in (1, 2)]
    coeffs = []
    for _ in range(rng.randint(0, 5)):
        c = WeightPoly.zero()
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            term = WeightPoly.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(letters)
            c = c + term
        coeffs.append(c)
    return YPoly(coeffs)


def test_ypoly_product_matches_the_double_loop():
    rng = random.Random(30)
    polys = [random_ypoly(rng) for _ in range(60)]
    const = YPoly([WeightPoly.const(Fraction(-3, 2))])
    gap = YPoly([WeightPoly.zero(), WeightPoly.zero(), WeightPoly.f(1)])
    polys += [YPoly.zero(), YPoly.basis(0), const, gap, YPoly.basis(4)]
    assert any(not p for p in polys[:60]) and any(p.degree == 0 for p in polys[:60])
    for p in polys:
        for q in polys[::3]:
            assert p * q == ypoly_mul_by_double_loop(p, q), (p, q)
    assert const * YPoly.zero() == YPoly.zero() == YPoly.zero() * YPoly.zero()
    assert repr(gap * const) == "YPoly((-3/2*f1)*y^2)"


def test_egf_antiderivative_counts_are_shifted_double_factorials():
    assert egf_antiderivative_counts(0) == [0]
    assert egf_antiderivative_counts(20) == [0] + [double_factorial(n - 1) for n in range(1, 21)]


def test_operator_kind_normalizes_names():
    assert operator_kind("binomial") == "binomial"
    assert operator_kind("divided-power") == "divided-power"
    with pytest.raises(ValueError):
        operator_kind("mystery")


def test_binomial_operator_on_y_powers():
    assert str(apply_operator("binomial", YPoly.basis(0))) == "YPoly((f0)*y^1)"
    assert str(apply_operator("binomial", YPoly.basis(1))) == "YPoly((f1)*y^1 + (1/2*f0)*y^2)"
    assert apply_operator("binomial", YPoly.zero()) == YPoly.zero()


def test_divided_power_operator_on_y_powers():
    assert str(apply_operator("divided-power", YPoly.basis(0))) == "YPoly((f0)*y^1)"
    assert str(apply_operator("divided-power", YPoly.basis(1))) == "YPoly((f1)*y^1 + (f0)*y^2)"
    assert str(apply_operator("divided-power", YPoly.basis(2))) == (
        "YPoly((f2)*y^1 + (f1)*y^2 + (f0)*y^3)"
    )


def test_operators_are_linear():
    p = YPoly.basis(1) + YPoly.basis(3)
    for name in ("binomial", "divided-power"):
        assert apply_operator(name, p) == apply_operator(name, YPoly.basis(1)) + apply_operator(
            name, YPoly.basis(3)
        )


def test_cocycle_identity_and_crossed_failure():
    assert check_cocycle("binomial", 5) is None
    assert check_cocycle("divided-power", 5) is None
    assert check_cocycle("binomial", 2, operator="divided-power") == {
        "n": 1, "key": (1, 1), "lhs": "2*f0", "rhs": "f0"}
    assert check_cocycle("divided-power", 5, operator="binomial") == {
        "n": 1, "key": (1, 1), "lhs": "1/2*f0", "rhs": "f0"}


def test_tree_like_solution_low_orders():
    h = solve_tree_like("binomial", 2)
    assert str(h[1]) == "YPoly((f0)*y^1)"
    assert str(h[2]) == "YPoly((f0*f1*phi1)*y^1 + (1/2*f0^2*phi1)*y^2)"
    d = solve_tree_like("divided-power", 2)
    assert str(d[2]) == "YPoly((f0*f1*phi1)*y^1 + (f0^2*phi1)*y^2)"


def test_diagram_weights_on_fixtures():
    assert f_monomial(Cb).canonical() == "f0"
    assert phi_monomial(Cb).canonical() == "phi1"
    assert f_monomial(K3).canonical() == "f0^2"
    assert phi_monomial(K3).canonical() == "phi2"
    assert f_monomial(Cf).canonical() == "f0^2"
    assert phi_monomial(Cf).canonical() == "phi1^2"
    with pytest.raises(ValueError):
        f_monomial(ChordDiagram.from_text("(1,2)(3,4)"))


def test_diagram_sum_matches_solver_at_low_order():
    assert diagram_series("binomial", 2) == solve_tree_like("binomial", 2)[:3]
    assert str(diagram_series("binomial", 1)[1]) == "YPoly((f0)*y^1)"


def test_divided_power_diagram_sum_skips_the_triangle():
    x3 = diagram_series("divided-power", 3)[3]
    text = str(x3)
    # contributions tagged by their phi factors: Ce brings phi2, Cf phi1^2
    assert "f0^2*f2*phi2" in text
    assert "f0^2*f2*phi1^2" in text
    # K3 is excluded as a top cycle, so no f0^2*phi2 monomial without f2/f1
    coeffs = [x3[i].canonical() for i in range(1, x3.degree + 1)]
    assert coeffs == [
        "f0*f1^2*phi1^2 + f0^2*f2*phi1^2 + f0^2*f2*phi2",
        "2*f0^2*f1*phi1^2 + f0^2*f1*phi2",
        "f0^3*phi1^2 + f0^3*phi2",
    ]


def test_main_identity_order_four_both_operators():
    for name in ("binomial", "divided-power"):
        assert diagram_series(name, 4) == solve_tree_like(name, 4)[:5]


@pytest.mark.parametrize("name", ["binomial", "divided-power"])
def test_tallied_diagram_series_matches_the_per_diagram_sum(name):
    assert diagram_series(name, 5) == per_diagram_series.diagram_series(name, 5)


def test_weight_monomials_match_the_oracle():
    for n in range(1, 6):
        for d in sweep(n):
            if d.is_connected():
                assert f_monomial(d) == per_diagram_series.f_monomial(d)
                assert phi_monomial(d) == per_diagram_series.phi_monomial(d)


def test_root_share_sum_matches_the_per_diagram_sum():
    for n in range(7):
        for i in range(-1, n + 2):
            assert root_share_sum(n, i) == per_diagram_series.root_share_sum(n, i), (n, i)


def test_diagram_sums_and_root_share_walk_each_size_and_class_once():
    # one cached tally per (n, class): both operators' sums and the root
    # share of sizes 1..5 read five "all" and five "top-cycle-free" walks
    _weight_tally.cache_clear()
    diagram_series("binomial", 5)
    diagram_series("divided-power", 5)
    assert check_root_share_identity(5) is None
    root_share_sum(5, 2)
    assert _weight_tally.cache_info().misses == 10


def test_series_rows_wire_format():
    rows = series_rows("binomial", 2)
    assert rows == [
        {"n": 1, "y_power": 1, "poly": "f0"},
        {"n": 2, "y_power": 1, "poly": "f0*f1*phi1"},
        {"n": 2, "y_power": 2, "poly": "1/2*f0^2*phi1"},
    ]


def test_rge_identity_and_divided_power_violation():
    assert check_rge(5, operator="binomial") is None
    assert check_rge(1, operator="binomial") is None
    assert check_rge(3, operator="divided-power")


def test_g_table_all_ones_regression():
    # first binomial g values with phi = all ones and symbolic f
    g = g_table(solve_tree_like("binomial", 3), phi=lambda k: Fraction(1))
    assert g[(1, 1)].canonical() == "f0"
    assert g[(1, 2)].canonical() == "f0*f1"
    assert g[(1, 3)].canonical() == "f0*f1^2 + 3*f0^2*f2"
    assert g[(2, 2)].canonical() == "f0^2"
    assert g[(2, 3)].canonical() == "4*f0^2*f1"
    assert g[(3, 3)].canonical() == "3*f0^3"


def test_root_share_convolution():
    # base case: Cb is the only connected size-2 diagram, f_{t1-2} f_Cb = f0^2
    assert root_share_sum(2, 2).canonical() == "f0^2"
    assert root_share_sum(1, 1).canonical() == "f0"
    assert check_root_share_identity(3) is None


def test_ogf_and_egf_checks_pass_at_small_order():
    rep = ogf_checks(4)
    assert rep["ok"]
    assert rep["stein"] is True
    assert rep["egf"] is True
    assert rep["classes"]["nonnesting"]["applies"] is False
    applying = [c for c, v in rep["classes"].items() if v["applies"]]
    assert "top-cycle-free" in applying
    for c in applying:
        assert rep["classes"][c]["ok"]
