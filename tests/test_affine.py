"""The two-orbit quandle over the ring: concrete, symbolic, and reversed."""

import collections.abc
import dataclasses
import random
from itertools import product

import pytest
from conftest import assert_frozen_dataclass_semantics

from quandleworks import (ONE, T, T_INV, T_SQ, ZERO, AffineExpr, Point,
                          RingElem, SymPoint, check_axioms_symbolic, op,
                          op_inv, orbit_witness, parse_point, reversed_op,
                          reversed_op_inv, verify_theorem)
from quandleworks.ring import random_elem

ZERO1 = Point(1, ZERO)
ZERO2 = Point(2, ZERO)


def random_point(rng: random.Random) -> Point:
    return Point(rng.choice((1, 2)), random_elem(rng))


def test_points_are_frozen_dataclass_values():
    rng = random.Random(12)
    args = [(rng.choice((1, 2)), RingElem(rng.randint(-1, 1), rng.randint(-1, 1)))
            for _ in range(40)]
    assert_frozen_dataclass_semantics(Point, ("orbit", "value"), args)
    assert Point(1, ZERO) != (1, ZERO)
    assert Point(orbit=2, value=ONE) == Point(2, ONE)


def test_symbolic_values_say_they_are_unhashable():
    # frozen, but they hold an AffineExpr, which cannot be hashed; the class
    # itself says so, rather than a generated __hash__ failing inside
    axioms = check_axioms_symbolic("plain")
    values = (SymPoint(1, AffineExpr.var("x")), axioms.cases[0], axioms, verify_theorem(0))
    for value in values:
        cls = type(value)
        with pytest.raises(TypeError, match=f"^unhashable type: '{cls.__name__}'$"):
            hash(value)
        assert not isinstance(value, collections.abc.Hashable)
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert cls(**fields) == value
        assert repr(value) == f"{cls.__qualname__}(" + ", ".join(
            f"{name}={field!r}" for name, field in fields.items()) + ")"
    assert values[0] != SymPoint(2, AffineExpr.var("x"))
    assert values[2] != check_axioms_symbolic("reversed")
    assert values[3] != verify_theorem(1)


def test_operation_on_orbit_zeros():
    assert op(ZERO1, ZERO1) == ZERO1
    assert op(ZERO1, ZERO2) == Point(1, ONE)
    assert op(ZERO2, ZERO1) == Point(2, RingElem(-1, -1))
    assert op_inv(ZERO1, ZERO1) == ZERO1
    assert op_inv(ZERO1, ZERO2) == Point(1, RingElem(-2, -1))


def test_reversed_operation_dispatches_on_the_acting_orbit():
    assert reversed_op(ZERO1, ZERO1) == op(ZERO1, ZERO1)
    assert reversed_op(ZERO1, ZERO2) == op_inv(ZERO1, ZERO2) == Point(
        1, RingElem(-2, -1))
    assert reversed_op(ZERO2, ZERO1) == op(ZERO2, ZERO1)
    assert reversed_op_inv(ZERO1, ZERO2) == op(ZERO1, ZERO2)


def test_operations_preserve_the_orbit_tag():
    rng = random.Random(4)
    for _ in range(200):
        a, b = random_point(rng), random_point(rng)
        for f in (op, op_inv, reversed_op, reversed_op_inv):
            assert f(a, b).orbit == a.orbit


def test_inverse_laws_concrete():
    rng = random.Random(5)
    for _ in range(200):
        a, b = random_point(rng), random_point(rng)
        assert op(op_inv(a, b), b) == a
        assert op_inv(op(a, b), b) == a
        assert reversed_op(reversed_op_inv(a, b), b) == a
        assert reversed_op_inv(reversed_op(a, b), b) == a


def test_mediality_concrete_all_orbit_patterns():
    rng = random.Random(6)
    patterns = list(product((1, 2), repeat=4))
    for k in range(500):
        tags = patterns[k % len(patterns)]
        w, x, y, z = (Point(tag, random_elem(rng)) for tag in tags)
        assert op(op(w, x), op(y, z)) == op(op(w, y), op(x, z))


def test_double_reversal_restores_the_operation():
    def reverse_pair(f, g):
        def rf(a, b):
            return g(a, b) if b.orbit == 2 else f(a, b)

        def rg(a, b):
            return f(a, b) if b.orbit == 2 else g(a, b)

        return rf, rg

    once = reverse_pair(op, op_inv)
    twice = reverse_pair(*once)
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_point(rng), random_point(rng)
        assert once[0](a, b) == reversed_op(a, b)
        assert once[1](a, b) == reversed_op_inv(a, b)
        assert twice[0](a, b) == op(a, b)
        assert twice[1](a, b) == op_inv(a, b)


def test_orbit_witness_reaches_every_sampled_value():
    rng = random.Random(8)
    for _ in range(200):
        value = random_elem(rng)
        for orbit in (1, 2):
            wit = orbit_witness(value, orbit)
            assert wit.orbit == 3 - orbit
            assert op(Point(orbit, ZERO), wit) == Point(orbit, value)
    with pytest.raises(ValueError):
        orbit_witness(ZERO, 3)


def test_orbit_witness_frozen_values():
    assert orbit_witness(ONE, 1) == ZERO2
    assert orbit_witness(ZERO, 1) == Point(2, RingElem(-3, -2))
    assert orbit_witness(ZERO, 2) == Point(1, RingElem(3, 2))


def test_symbolic_single_operations():
    w = SymPoint(1, AffineExpr.var("w"))
    x = SymPoint(1, AffineExpr.var("x"))
    out = op(w, x)
    assert out.orbit == 1
    assert out.expr == AffineExpr(ZERO, {"w": T, "x": T_SQ})

    y = SymPoint(1, AffineExpr.var("y"))
    z = SymPoint(2, AffineExpr.var("z"))
    out = op_inv(y, z)
    assert out.orbit == 1
    assert out.expr == AffineExpr(RingElem(-2, -1), {"y": T_INV, "z": -T})


def test_symbolic_idempotence_collapses_coefficients():
    a = SymPoint(2, AffineExpr.var("a"))
    assert op(a, a) == a


def random_sym_expr(rng: random.Random, names) -> AffineExpr:
    expr = AffineExpr.const(random_elem(rng, bound=5))
    for name in names:
        if rng.random() < 0.8:
            expr = expr + AffineExpr.var(name, random_elem(rng, bound=5))
    return expr


def test_symbolic_concrete_coherence():
    rng = random.Random(9)
    names = ("u", "v")
    for _ in range(100):
        a = SymPoint(rng.choice((1, 2)), random_sym_expr(rng, names))
        b = SymPoint(rng.choice((1, 2)), random_sym_expr(rng, names))
        values = {name: random_elem(rng) for name in names}
        for f in (op, op_inv, reversed_op, reversed_op_inv):
            assert f(a, b).evaluate(values) == f(a.evaluate(values),
                                                 b.evaluate(values))


def test_mixed_symbolic_concrete_arguments():
    a = SymPoint(1, AffineExpr.var("a"))
    b = Point(2, ONE)
    out = op(a, b)
    assert isinstance(out, SymPoint)
    assert out.evaluate({"a": ZERO}) == op(Point(1, ZERO), b)


def test_affine_expr_algebra():
    x = AffineExpr.var("x")
    y = AffineExpr.var("y")
    expr = T * x + T_SQ * y + ONE
    assert expr.constant == ONE
    assert expr.coeffs == {"x": T, "y": T_SQ}
    assert expr.variables() == ("x", "y")
    assert (expr - expr) == AffineExpr.const(ZERO)
    assert (x - x).coeffs == {}  # zero coefficients are dropped
    assert 2 * x == x + x
    assert (ONE - x) == -(x - ONE)
    assert expr.substitute({"x": ZERO}).coeffs == {"y": T_SQ}
    assert expr.substitute({"x": y}).coeffs == {"y": T_SQ + T}
    assert expr.evaluate({"x": ONE, "y": ZERO}) == ONE + T


def test_affine_expr_render():
    expr = AffineExpr(RingElem(-1, 0), {"x": RingElem(1, -1)})
    assert expr.render() == "-1*t+0*t^2 + (+1*t-1*t^2)*x"


def test_point_text_round_trip():
    rng = random.Random(10)
    for _ in range(50):
        p = random_point(rng)
        assert parse_point(str(p)) == p
    assert parse_point("(0,0)@1") == ZERO1
    assert parse_point(" (2, -3)@2 ") == Point(2, RingElem(2, -3))
    assert parse_point("+1*t-1*t^2@1") == Point(1, RingElem(1, -1))
    assert parse_point("5@2") == Point(2, RingElem(5, 5))


@pytest.mark.parametrize("bad", ["(0,0)", "(0,0)@3", "(0,0)@x", "@1", "x@1"])
def test_point_text_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_point(bad)


def test_symbolic_axiom_suite_plain():
    report = check_axioms_symbolic("plain")
    assert report.mode == "plain"
    assert len(report.cases) == 34
    assert not report.failures()
    assert len(report.select("idempotence")) == 2
    assert len(report.select("op_after_undo")) == 4
    assert len(report.select("undo_after_op")) == 4
    assert len(report.select("distributivity")) == 8
    assert len(report.select("mediality")) == 16
    assert "pass" in report.render()


def test_symbolic_axiom_suite_reversed():
    report = check_axioms_symbolic("reversed")
    assert report.quandle_axioms_ok
    failures = report.failures()
    assert failures and all(c.axiom == "mediality" for c in failures)
    assert (1, 1, 1, 2) in [c.orbits for c in failures]
    for case in failures:
        values = case.counterexample
        assert values is not None
        assert case.lhs.expr.evaluate(values) != case.rhs.expr.evaluate(values)
    # the four uniform-tail patterns still satisfy the medial law
    passing = [c.orbits for c in report.select("mediality") if c.passed]
    assert passing == [(1, 1, 1, 1), (1, 2, 2, 2), (2, 1, 1, 1), (2, 2, 2, 2)]


def test_symbolic_axiom_suite_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_axioms_symbolic("sideways")
