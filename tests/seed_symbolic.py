"""Test oracle: the symbolic axiom suite of the two-orbit affine quandle.

Both operations of quandleworks.affine are affine in both arguments, so they
close over AffineExpr, and a symbolic identity check per orbit-tag pattern is
exact: an affine map over the ring vanishes everywhere iff all its
coefficients vanish.  check_axioms_symbolic runs each quandle axiom and the
medial law on every tag pattern, for the plain structure and for the one with
orbit 2's translations inverted.  These are the paper's premises -- the plain
structure is a medial quandle, the reversed one a quandle that is not medial
-- and they are properties of fixed code, so the tests check them and no
command of the library runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from quandleworks.affine import (ORBIT_TAGS, AffineExpr, Point, SymPoint, op,
                                 op_inv, reversed_op)
from quandleworks.ring import ONE, ZERO, RingElem

PLAIN = "plain"
REVERSED = "reversed"


def reversed_op_inv(a, b):
    """Inverse translations of the reversed structure."""
    return op(a, b) if b.orbit == 2 else op_inv(a, b)


def _sides_idempotence(pts, f, g):
    a, = pts
    return f(a, a), a


def _sides_op_after_undo(pts, f, g):
    a, b = pts
    return f(g(a, b), b), a


def _sides_undo_after_op(pts, f, g):
    a, b = pts
    return g(f(a, b), b), a


def _sides_distributivity(pts, f, g):
    a, b, c = pts
    return f(f(a, b), c), f(f(a, c), f(b, c))


def _sides_mediality(pts, f, g):
    w, x, y, z = pts
    return f(f(w, x), f(y, z)), f(f(w, y), f(x, z))


_AXIOMS = (
    ("idempotence", ("x",), _sides_idempotence),
    ("op_after_undo", ("x", "y"), _sides_op_after_undo),
    ("undo_after_op", ("x", "y"), _sides_undo_after_op),
    ("distributivity", ("x", "y", "z"), _sides_distributivity),
    ("mediality", ("w", "x", "y", "z"), _sides_mediality),
)


@dataclass(frozen=True, slots=True)
class SymbolicCase:
    axiom: str
    orbits: tuple[int, ...]
    passed: bool
    lhs: SymPoint
    rhs: SymPoint
    counterexample: dict[str, RingElem] | None  # present iff not passed

    __hash__ = None  # it holds SymPoints


@dataclass(frozen=True, slots=True)
class SymbolicAxiomReport:
    mode: str
    cases: tuple[SymbolicCase, ...]

    __hash__ = None  # it holds SymPoints

    def select(self, axiom: str) -> tuple[SymbolicCase, ...]:
        return tuple(c for c in self.cases if c.axiom == axiom)

    def failures(self) -> tuple[SymbolicCase, ...]:
        return tuple(c for c in self.cases if not c.passed)

    @property
    def quandle_axioms_ok(self) -> bool:
        return all(c.passed for c in self.cases if c.axiom != "mediality")


def _counterexample(names, tags, lhs: SymPoint, rhs: SymPoint, sides, f, g):
    """A substitution separating two unequal affine sides, confirmed by
    rebuilding both sides concretely."""
    diff = lhs.expr - rhs.expr
    values = {name: ZERO for name in names}
    if diff.constant.is_zero():
        # the difference is homogeneous: any variable with a surviving
        # coefficient separated at 1 does the job
        pivot = next(name for name in names if name in diff.coeffs)
        values[pivot] = ONE
    conc = tuple(Point(tag, values[name]) for name, tag in zip(names, tags))
    c_lhs, c_rhs = sides(conc, f, g)
    if c_lhs == c_rhs:
        raise AssertionError("symbolic inequality not confirmed concretely")
    return values


def check_axioms_symbolic(mode: str) -> SymbolicAxiomReport:
    """Verify each axiom as an affine identity, one case per orbit-tag pattern.

    mode 'plain' uses the quandle operation, mode 'reversed' the structure
    with orbit 2's translations inverted.  Mediality cases are included in
    both modes; failing cases carry a concrete counterexample substitution.
    """
    if mode == PLAIN:
        f, g = op, op_inv
    elif mode == REVERSED:
        f, g = reversed_op, reversed_op_inv
    else:
        raise ValueError(f"mode must be {PLAIN!r} or {REVERSED!r}")

    cases = []
    for axiom, names, sides in _AXIOMS:
        for tags in product(ORBIT_TAGS, repeat=len(names)):
            pts = tuple(SymPoint(tag, AffineExpr.var(name))
                        for name, tag in zip(names, tags))
            lhs, rhs = sides(pts, f, g)
            passed = lhs == rhs
            cex = None
            if not passed:
                cex = _counterexample(names, tags, lhs, rhs, sides, f, g)
            cases.append(SymbolicCase(axiom, tags, passed, lhs, rhs, cex))
    return SymbolicAxiomReport(mode, tuple(cases))
