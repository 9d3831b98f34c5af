"""The two-orbit quandle over the ring: concrete, symbolic, and reversed."""

import collections.abc
import copy
import dataclasses
import pickle
import random
from itertools import product

import pytest
from conftest import assert_frozen_dataclass_semantics, evaluate_point

from quandleworks import (ONE, T, T_INV, T_SQ, ZERO, AffineExpr, Point,
                          RingElem, SymPoint, op, op_inv, orbit_witness,
                          parse_point, reversed_op, verify_theorem)
from quandleworks.affine import (ORBIT_TAGS, combine, evaluate_form,
                                 op_inv_kernel, op_kernel, reversed_kernel,
                                 witness_kernel)
from quandleworks.ring import product_pair, reduce
from seed_ring import LaurentPoly, lift, random_elem, random_pair
from seed_symbolic import (SymbolicAxiomReport, SymbolicCase,
                           check_axioms_symbolic, reversed_op_inv)

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
    assert type(values[1]) is SymbolicCase and type(values[2]) is SymbolicAxiomReport
    for value in values:
        cls = type(value)
        with pytest.raises(TypeError, match=f"^unhashable type: '{cls.__name__}'$"):
            hash(value)
        assert not isinstance(value, collections.abc.Hashable)
        fields = {name: getattr(value, name) for name in cls.__slots__}
        assert cls(**fields) == value
        assert repr(value) == f"{cls.__qualname__}(" + ", ".join(
            f"{name}={field!r}" for name, field in fields.items()) + ")"
    # the library's own, and the AffineExpr they hold: copied and pickled
    # equal, and frozen in every field
    expr = values[3].lhs_expansion.expr
    with pytest.raises(TypeError, match="^unhashable type: 'AffineExpr'$"):
        hash(expr)
    for value in (values[0], values[3], expr):
        assert copy.copy(value) == value
        assert copy.deepcopy([value]) == [value]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
        for name in (*type(value).__slots__, "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
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
        conc_a, conc_b = evaluate_point(a, values), evaluate_point(b, values)
        for f in (op, op_inv, reversed_op, reversed_op_inv):
            # Points and SymPoints take the same ring formula, so this
            # checks AffineExpr arithmetic and evaluation against RingElem
            # arithmetic
            expected = f(conc_a, conc_b)
            assert evaluate_point(f(a, b), values) == expected
            assert evaluate_point(f(a, conc_b), values) == expected
            assert evaluate_point(f(conc_a, b), values) == expected


def test_mixed_symbolic_concrete_arguments():
    a = SymPoint(1, AffineExpr.var("a"))
    b = Point(2, ONE)
    out = op(a, b)
    assert isinstance(out, SymPoint)
    assert evaluate_point(out, {"a": ZERO}) == op(Point(1, ZERO), b)


def test_affine_expr_algebra():
    x = AffineExpr.var("x")
    y = AffineExpr.var("y")
    expr = T * x + T_SQ * y + ONE
    assert expr.constant == ONE
    assert expr.coeffs == {"x": T, "y": T_SQ}
    assert (expr - expr) == AffineExpr.const(ZERO)
    assert (x - x).coeffs == {}  # zero coefficients are dropped
    assert 2 * x == x + x
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


@pytest.mark.parametrize("bad", ["(0,0)", "(0,0)@3", "(0,0)@x", "@1", "x@1",
                                 # ASCII digits only, and the tag is 1 or 2
                                 "(\uff13,1)@1", "(0,0)@\u0661", "(0,0)@+1",
                                 "(0,0)@01", "(0,0)@ 1", "(0,0)@1_0"])
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


# --- closed-form kernels on concrete points -------------------------------

MARK = {1: 0, 2: 1}  # m_i of each copy, as an integer
# entries grow Fibonacci-fast under powers of t
FIB_VALUES = (ONE.scale_t(300), ONE.scale_t(-300), -ONE.scale_t(299),
              T_SQ.scale_t(-301) - ONE, ZERO)


def generic_op(a, b):
    shift = RingElem.from_int(MARK[b.orbit] - MARK[a.orbit])
    return Point(a.orbit, shift + T * a.value + T_SQ * b.value)


def generic_op_inv(a, b):
    shift = RingElem.from_int(MARK[a.orbit] - MARK[b.orbit])
    return Point(a.orbit, T_INV * (shift + a.value - T_SQ * b.value))


def oracle_op(a, b):
    poly = (LaurentPoly({0: MARK[b.orbit] - MARK[a.orbit]})
            + LaurentPoly.t_power(1) * lift(a.value)
            + LaurentPoly.t_power(2) * lift(b.value))
    return Point(a.orbit, reduce(poly.coeffs))


def oracle_op_inv(a, b):
    poly = LaurentPoly.t_power(-1) * (
        LaurentPoly({0: MARK[a.orbit] - MARK[b.orbit]}) + lift(a.value)
        - LaurentPoly.t_power(2) * lift(b.value))
    return Point(a.orbit, reduce(poly.coeffs))


def reversal_of(f, g):
    return lambda a, b: g(a, b) if b.orbit == 2 else f(a, b)


def box(tagged) -> Point:
    tag, n1, n2 = tagged
    assert type(tag) is int and type(n1) is int and type(n2) is int
    return Point(tag, RingElem(n1, n2))


def boxed_op_kernel(a, b):
    x, y = a.value, b.value
    return box((a.orbit, *op_kernel(b.orbit - a.orbit, x.n1, x.n2, y.n1, y.n2)))


def boxed_op_inv_kernel(a, b):
    x, y = a.value, b.value
    return box((a.orbit, *op_inv_kernel(a.orbit - b.orbit, x.n1, x.n2, y.n1, y.n2)))


def boxed_reversed_kernel(a, b):
    return box(reversed_kernel((a.orbit, a.value.n1, a.value.n2),
                               (b.orbit, b.value.n1, b.value.n2)))


# each integer kernel, and each operation on Points, against the ring
# formula and the Laurent-polynomial oracle
KERNELS = (
    (boxed_op_kernel, generic_op, oracle_op),
    (boxed_op_inv_kernel, generic_op_inv, oracle_op_inv),
    (boxed_reversed_kernel, reversal_of(generic_op, generic_op_inv),
     reversal_of(oracle_op, oracle_op_inv)),
    (op, generic_op, oracle_op),
    (op_inv, generic_op_inv, oracle_op_inv),
    (reversed_op, reversal_of(generic_op, generic_op_inv),
     reversal_of(oracle_op, oracle_op_inv)),
    (reversed_op_inv, reversal_of(generic_op_inv, generic_op),
     reversal_of(oracle_op_inv, oracle_op)),
)


def kernel_value_pairs():
    rng = random.Random(13)
    pairs = [(random_elem(rng), random_elem(rng)) for _ in range(60)]
    pairs += [(random_elem(rng, bound=10**30), random_elem(rng, bound=10**30))
              for _ in range(20)]
    pairs += list(product(FIB_VALUES, repeat=2))
    return pairs


@pytest.mark.parametrize("tags", list(product(ORBIT_TAGS, repeat=2)),
                         ids=lambda tags: f"{tags[0]}-{tags[1]}")
def test_point_kernels_match_the_generic_expression_and_the_oracle(tags):
    i, j = tags
    for x, y in kernel_value_pairs():
        a, b = Point(i, x), Point(j, y)
        for kernel, generic, oracle in KERNELS:
            out = kernel(a, b)
            assert out.__class__ is Point and out.value.__class__ is RingElem
            assert out == generic(a, b) == oracle(a, b)


def constant_sym_point(p: Point) -> SymPoint:
    return SymPoint(p.orbit, AffineExpr.const(p.value))


@pytest.mark.parametrize("bound", [50, 10**30])
@pytest.mark.parametrize("tags", list(product(ORBIT_TAGS, repeat=2)),
                         ids=lambda tags: f"{tags[0]}-{tags[1]}")
def test_reversed_kernel_matches_reversed_op_on_points_and_symbols(tags, bound):
    i, j = tags
    rng = random.Random(f"reversed {i} {j} {bound}")
    for _ in range(100):
        (x1, x2), (y1, y2) = random_pair(rng, bound), random_pair(rng, bound)
        a, b = Point(i, RingElem(x1, x2)), Point(j, RingElem(y1, y2))
        generic = reversed_op(constant_sym_point(a), constant_sym_point(b))
        assert box(reversed_kernel((i, x1, x2), (j, y1, y2))) == reversed_op(a, b) \
            == evaluate_point(generic, {})


@pytest.mark.parametrize("bound", [50, 10**30])
def test_witness_kernel_matches_orbit_witness_and_the_generic_path(bound):
    rng = random.Random(f"witness {bound}")
    for _ in range(100):
        v1, v2 = random_pair(rng, bound)
        value = RingElem(v1, v2)
        for orbit in ORBIT_TAGS:
            wit = orbit_witness(value, orbit)
            assert box(witness_kernel(orbit, v1, v2)) == wit
            # t^(-2) * (value - shift) in ring arithmetic, and the symbolic
            # operation sending the orbit's zero to the value
            shift = RingElem.from_int(MARK[3 - orbit] - MARK[orbit])
            assert wit == Point(3 - orbit, (value - shift).scale_t(-2))
            zero = SymPoint(orbit, AffineExpr.const(ZERO))
            assert evaluate_point(op(zero, constant_sym_point(wit)), {}) \
                == Point(orbit, value)
    with pytest.raises(ValueError, match="orbit tag must be 1 or 2, got 3"):
        witness_kernel(3, 0, 0)


def generic_evaluate(expr, values):
    total = expr.constant
    for v, c in expr.coeffs.items():
        total = total + c * values[v]
    return total


def oracle_evaluate(expr, values):
    poly = lift(expr.constant)
    for v, c in expr.coeffs.items():
        poly = poly + lift(c) * lift(values[v])
    return reduce(poly.coeffs)


def test_evaluate_matches_the_generic_sum_and_the_oracle():
    rng = random.Random(15)
    names = ("w", "x", "y", "z")
    exprs = [random_sym_expr(rng, names) for _ in range(40)]
    exprs += [AffineExpr(FIB_VALUES[0], {"w": FIB_VALUES[1], "z": FIB_VALUES[2]}),
              AffineExpr.const(FIB_VALUES[3]), AffineExpr(),
              verify_theorem(0).lhs_expansion.expr]
    assignments = [{v: random_elem(rng) for v in names} for _ in range(10)]
    assignments += [dict(zip(names, values))
                    for values in product(FIB_VALUES[:3], repeat=4)][::7]
    for expr in exprs:
        for values in assignments:
            out = expr.evaluate(values)
            assert out.__class__ is RingElem
            assert out == generic_evaluate(expr, values) == oracle_evaluate(expr, values)


def test_evaluate_form_of_the_linear_form_is_evaluate():
    # the sampled checks of verify-paper evaluate a linear form built once
    # per run; AffineExpr.evaluate goes the same way, so both are checked
    # against the generic sum here
    rng = random.Random(16)
    names = ("w", "x", "y", "z")
    exprs = [random_sym_expr(rng, names) for _ in range(40)]
    exprs += [AffineExpr(FIB_VALUES[0], {"w": FIB_VALUES[1], "z": FIB_VALUES[2]}),
              AffineExpr(), verify_theorem(0).lhs_expansion.expr]
    for expr in exprs:
        (k1, k2), rows = expr.linear_form(names)
        assert (k1, k2) == (expr.constant.n1, expr.constant.n2)
        for v, row in zip(names, rows):
            c = expr.coeffs.get(v, ZERO)
            # the images of (1, 0) and (0, 1) under multiplication by c
            assert row[:2] == product_pair(c.n1, c.n2, 1, 0) == ((c * T).n1, (c * T).n2)
            assert row[2:] == product_pair(c.n1, c.n2, 0, 1) == (
                (c * T_SQ).n1, (c * T_SQ).n2)
        for _ in range(5):
            values = {v: random_elem(rng, bound=10**12) for v in names}
            pairs = [(values[v].n1, values[v].n2) for v in names]
            expected = generic_evaluate(expr, values)
            assert evaluate_form(expr.linear_form(names), pairs) == (expected.n1, expected.n2)
            assert expr.evaluate(values) == expected
    # a name without a coefficient gets a zero row, and the row of t holds
    # t*t = t^2 and t*t^2 = t^3; a variable without a name has no place in
    # the form
    assert AffineExpr.var("x", T).linear_form(("w", "x")) == (
        (0, 0), ((0, 0, 0, 0), (0, 1, 1, -1)))
    with pytest.raises(ValueError, match=r"no place for the variables \['y'\]"):
        AffineExpr.var("y").linear_form(("w", "x"))


def generic_substitute(expr, assignment):
    out = AffineExpr(expr.constant)
    for v, c in expr.coeffs.items():
        value = assignment.get(v, AffineExpr.var(v))
        out = out + c * (value if isinstance(value, AffineExpr) else AffineExpr(value))
    return out


def test_substitute_matches_the_term_by_term_sum():
    rng = random.Random(17)
    names = ("a", "w", "x", "y")
    for _ in range(200):
        expr = random_sym_expr(rng, names)
        assignment = {}
        for v in rng.sample(names, rng.randint(0, 4)):
            # a constant, or an expression that may use any name, itself too
            assignment[v] = (random_elem(rng, bound=5) if rng.random() < 0.3
                             else random_sym_expr(rng, names))
        out = expr.substitute(assignment)
        assert out == generic_substitute(expr, assignment)
        assert all(not c.is_zero() for c in out.coeffs.values())
    # only expressions and ring elements are values; a bare int is neither
    with pytest.raises(TypeError, match="cannot substitute 3 for 'x'"):
        AffineExpr.var("x").substitute({"x": 3})


# --- the operand contract of symbolic arithmetic --------------------------

X = AffineExpr.var("x")
# an int scalar k is the ring element (k, k), a bool included
SCALED = [(lambda: X * True, (1, 1)), (lambda: True * X, (1, 1)),
          (lambda: 3 * X, (3, 3)), (lambda: X * -2, (-2, -2)),
          (lambda: T * X, (1, 0)), (lambda: X * T_SQ, (0, 1))]
# neither a number nor a string is an expression or a ring element, and
# only a ring element or an int is a scalar
REJECTED = [lambda: X * 1.5, lambda: 1.5 * X, lambda: X * X, lambda: X + 1,
            lambda: 1 + X, lambda: X - 1, lambda: ONE - X, lambda: X + "x",
            lambda: X * None]


@pytest.mark.parametrize("case", range(len(SCALED)))
def test_an_int_or_ring_scalar_scales_every_coefficient(case):
    run, (n1, n2) = SCALED[case]
    out = run()
    assert out == AffineExpr(ZERO, {"x": RingElem(n1, n2)})
    assert [type(n) for n in (out.constant.n1, out.constant.n2,
                              out.coeffs["x"].n1, out.coeffs["x"].n2)] == [int] * 4


@pytest.mark.parametrize("case", range(len(REJECTED)))
def test_symbolic_arithmetic_rejects_other_operands(case):
    with pytest.raises(TypeError):
        REJECTED[case]()


def test_substitute_names_a_value_it_cannot_substitute():
    with pytest.raises(TypeError, match=r"^cannot substitute 2 for 'x'$"):
        X.substitute({"x": 2})
    # only the variables the expression uses are looked at, and an
    # expression whose variables all become ring elements stays one
    assert X.substitute({"y": 2}) == X
    assert X.substitute({"x": T}) == AffineExpr.const(T)
    assert (X + ONE).substitute({}) == X + ONE


# the constant of f(a, b) for a = (3,-4) + t*u in orbit i and b = (-7,2) +
# t^2*v in orbit j; the coefficients of u and v depend on f alone
OPERATION_CONSTANTS = {
    (op, 1, 1): (-13, 18), (op, 1, 2): (-12, 19),
    (op, 2, 1): (-14, 17), (op, 2, 2): (-13, 18),
    (op_inv, 1, 1): (-3, 12), (op_inv, 1, 2): (-5, 11),
    (op_inv, 2, 1): (-1, 13), (op_inv, 2, 2): (-3, 12),
}
OPERATION_COEFFS = {op: ((0, 1), (-1, 2)), op_inv: ((1, 1), (-1, 1))}


@pytest.mark.parametrize("symbolic", list(product((False, True), repeat=2)),
                         ids=lambda s: "-".join("sym" if k else "point" for k in s))
def test_operations_give_the_pinned_results_on_every_point_mix(symbolic):
    # a Point argument contributes its constant only, and the result is a
    # Point exactly when both arguments are
    for (f, i, j), (k1, k2) in OPERATION_CONSTANTS.items():
        a = (SymPoint(i, AffineExpr(RingElem(3, -4), {"u": T})) if symbolic[0]
             else Point(i, RingElem(3, -4)))
        b = (SymPoint(j, AffineExpr(RingElem(-7, 2), {"v": T_SQ})) if symbolic[1]
             else Point(j, RingElem(-7, 2)))
        out = f(a, b)
        if not any(symbolic):
            assert out == Point(i, RingElem(k1, k2))
            continue
        coeffs = {name: RingElem(*pair) for name, pair, used
                  in zip("uv", OPERATION_COEFFS[f], symbolic) if used}
        assert out == SymPoint(i, AffineExpr(RingElem(k1, k2), coeffs))


# --- combine against the ring specification --------------------------------

def random_scalar(rng: random.Random):
    return rng.randint(-9, 9) if rng.random() < 0.4 else random_elem(rng, bound=9)


def negated(scalar):
    return -scalar if isinstance(scalar, int) else RingElem(-scalar.n1, -scalar.n2)


def random_terms(rng: random.Random):
    """Terms over 0 to 4 variables, with int and ring scalars, ring and
    expression values, and pairs of terms that cancel, in a whole value or
    in one variable's coefficient only."""
    names = rng.sample(("w", "x", "y", "z"), rng.randint(0, 4))
    terms = []
    for _ in range(rng.randint(0, 5)):
        if names and rng.random() < 0.6:
            value = AffineExpr(random_elem(rng, bound=9),
                               {v: random_elem(rng, bound=9)
                                for v in rng.sample(names, rng.randint(1, len(names)))})
        else:
            value = random_elem(rng, bound=9)
        terms.append((random_scalar(rng), value))
    if terms and rng.random() < 0.5:
        scalar, value = rng.choice(terms)
        terms.append((negated(scalar), value))
    if names and rng.random() < 0.5:
        p, q, name = random_elem(rng, bound=9), random_elem(rng, bound=9), rng.choice(names)
        # p*q - q*p: the two coefficients of `name` cancel in the ring
        terms += [(p, AffineExpr.var(name, q)), (negated(q), AffineExpr.var(name, p))]
    rng.shuffle(terms)
    return terms


def oracle_combine(terms):
    sums = {}  # variable -> polynomial; None keys the constant
    for scalar, value in terms:
        factor = LaurentPoly({0: scalar}) if isinstance(scalar, int) else lift(scalar)
        parts = ([(None, value)] if isinstance(value, RingElem)
                 else [(None, value.constant), *value.coeffs.items()])
        for v, c in parts:
            sums[v] = sums.get(v, LaurentPoly()) + factor * lift(c)
    constant = reduce(sums.pop(None, LaurentPoly()).coeffs)
    if all(isinstance(value, RingElem) for _, value in terms):
        return constant
    coeffs = {v: reduce(poly.coeffs) for v, poly in sums.items()}
    return constant, {v: c for v, c in coeffs.items() if not c.is_zero()}


def test_combine_matches_laurent_polynomial_arithmetic():
    rng = random.Random(23)
    cancelled = 0
    for _ in range(400):
        terms = random_terms(rng)
        out, expected = combine(terms), oracle_combine(terms)
        if isinstance(expected, RingElem):
            assert out.__class__ is RingElem and out == expected
            continue
        assert out.__class__ is AffineExpr
        # the coefficient dict is compared as stored: no zero coefficient
        assert (out.constant, out.coeffs) == expected
        named = {v for _, value in terms if isinstance(value, AffineExpr)
                 for v in value.coeffs}
        cancelled += len(named - set(out.coeffs))
    assert cancelled > 50
    assert combine([]) == ZERO and combine(iter([(2, T)])) == RingElem(2, 0)
