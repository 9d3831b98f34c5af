"""The two-orbit affine quandle over the quotient ring, with concrete and
symbolic evaluation and an operational single-orbit reversal.

The carrier is two tagged copies of the ring; the operation keeps the tag of
its left argument, so orbit tags stay concrete even in symbolic terms.
With m_1 = 0 and m_2 = 1 marking the copies:

    x in copy i acted on by y in copy j  ->  (m_j - m_i + t*x + t^2*y) in copy i
    undone by                                t^(-1) * (m_i - m_j + x - t^2*y)

(1 - t reduces to t^2, hence the t^2 in the first formula).  Both formulas
are affine in both arguments, so they close over AffineExpr; a symbolic
identity check per orbit-tag pattern is exact, because an affine map over
the ring vanishes everywhere iff all its coefficients vanish.  Orbit 2 is
the reversed orbit throughout this package: reversed_op swaps in the undo
formula exactly when the acting element carries tag 2.

Point, the concrete element, is a slotted immutable value with the
semantics of a frozen dataclass, as RingElem is; SymPoint and the reports
stay frozen dataclasses, unhashable because an AffineExpr is.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import product
from typing import Mapping

from .ring import ONE, T, T_INV, T_SQ, ZERO, RingElem, parse_elem, render_elem

ORBIT_TAGS = (1, 2)
ORBIT_MARK = {1: ZERO, 2: ONE}  # additive marker of each copy
# m_j - m_i for the tag pair (i, j), the shift in both formulas
_SHIFT = {(i, j): ORBIT_MARK[j] - ORBIT_MARK[i]
          for i in ORBIT_TAGS for j in ORBIT_TAGS}

PLAIN = "plain"
REVERSED = "reversed"


class AffineExpr:
    """constant + sum(coeff[v] * v) with ring coefficients; zero coefficients
    are never stored, so structural equality is semantic equality."""

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant: RingElem = ZERO,
                 coeffs: Mapping[str, RingElem] | None = None) -> None:
        self.constant = constant
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def var(cls, name: str, coeff: RingElem = ONE) -> "AffineExpr":
        return cls(ZERO, {name: coeff})

    @classmethod
    def const(cls, value: RingElem) -> "AffineExpr":
        return cls(value)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    @staticmethod
    def _promote(value):
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, RingElem):
            return AffineExpr(value)
        return None

    def __add__(self, other) -> "AffineExpr":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        merged = dict(self.coeffs)
        for v, c in other.coeffs.items():
            merged[v] = merged.get(v, ZERO) + c
        return AffineExpr(self.constant + other.constant, merged)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(-self.constant, {v: -c for v, c in self.coeffs.items()})

    def __sub__(self, other) -> "AffineExpr":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "AffineExpr":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, scalar) -> "AffineExpr":
        if not isinstance(scalar, (int, RingElem)):
            return NotImplemented
        return AffineExpr(scalar * self.constant,
                          {v: scalar * c for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def substitute(self, assignment: Mapping[str, "AffineExpr | RingElem"]) -> "AffineExpr":
        out = AffineExpr(self.constant)
        for v, c in self.coeffs.items():
            if v in assignment:
                out = out + c * self._promote(assignment[v])
            else:
                out = out + AffineExpr(ZERO, {v: c})
        return out

    def evaluate(self, values: Mapping[str, RingElem]) -> RingElem:
        total = self.constant
        for v, c in self.coeffs.items():
            total = total + c * values[v]
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.constant == other.constant and self.coeffs == other.coeffs

    __hash__ = None

    def render(self) -> str:
        parts = [render_elem(self.constant)]
        for v in sorted(self.coeffs):
            parts.append(f"({render_elem(self.coeffs[v])})*{v}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AffineExpr[{self.render()}]"


class Point:
    """Concrete element: an orbit tag and a ring value."""

    __slots__ = ("orbit", "value")

    def __init__(self, orbit: int, value: RingElem) -> None:
        _set_orbit(self, orbit)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.orbit == other.orbit and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.orbit, self.value))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}"
                f"(orbit={self.orbit!r}, value={self.value!r})")

    def __reduce__(self):
        return self.__class__, (self.orbit, self.value)

    def __str__(self) -> str:
        return f"({self.value.n1},{self.value.n2})@{self.orbit}"


_set_orbit = Point.orbit.__set__
_set_value = Point.value.__set__


@dataclass(frozen=True)
class SymPoint:
    """Symbolic element: an orbit tag and an affine expression over the ring."""

    orbit: int
    expr: AffineExpr

    __hash__ = None  # an AffineExpr is unhashable

    def evaluate(self, values: Mapping[str, RingElem]) -> Point:
        return Point(self.orbit, self.expr.evaluate(values))

    def __str__(self) -> str:
        return f"orbit {self.orbit}: {self.expr.render()}"


def parse_point(text: str) -> Point:
    """Parse '(n1,n2)@orbit' (the value part accepts any ring-element form)."""
    s = text.strip()
    if "@" not in s:
        raise ValueError(f"expected '<value>@<orbit>', got {text!r}")
    value_part, _, tag_part = s.rpartition("@")
    value = parse_elem(value_part)
    try:
        tag = int(tag_part)
    except ValueError:
        raise ValueError(f"bad orbit tag {tag_part!r}") from None
    if tag not in ORBIT_TAGS:
        raise ValueError(f"orbit tag must be 1 or 2, got {tag}")
    return Point(tag, value)


def _payload(p):
    return p.value if isinstance(p, Point) else p.expr


def _wrap(orbit: int, value):
    return Point(orbit, value) if isinstance(value, RingElem) else SymPoint(orbit, value)


def op(a, b):
    """a acted on by b; the result keeps a's orbit tag.

    Accepts Point or SymPoint in either slot (mixed calls yield a SymPoint).
    """
    shift = _SHIFT[a.orbit, b.orbit]
    return _wrap(a.orbit, shift + T * _payload(a) + T_SQ * _payload(b))


def op_inv(a, b):
    """The unique c with op(c, b) = a; inverts the translation by b."""
    shift = _SHIFT[b.orbit, a.orbit]
    return _wrap(a.orbit, T_INV * (shift + _payload(a) - T_SQ * _payload(b)))


def reversed_op(a, b):
    """The operation after inverting every translation by an orbit-2 element."""
    return op_inv(a, b) if b.orbit == 2 else op(a, b)


def reversed_op_inv(a, b):
    """Inverse translations of the reversed structure."""
    return op(a, b) if b.orbit == 2 else op_inv(a, b)


def orbit_witness(value: RingElem, orbit: int) -> Point:
    """A point in the opposite orbit whose action sends the zero of `orbit`
    to `value` in that orbit: op(zero-of-orbit, witness) = value-of-orbit."""
    if orbit == 1:
        return Point(2, (value - ONE).scale_t(-2))
    if orbit == 2:
        return Point(1, (value + ONE).scale_t(-2))
    raise ValueError(f"orbit tag must be 1 or 2, got {orbit}")


# --- symbolic axiom suite -------------------------------------------------

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


@dataclass(frozen=True)
class SymbolicCase:
    axiom: str
    orbits: tuple[int, ...]
    passed: bool
    lhs: SymPoint
    rhs: SymPoint
    counterexample: dict[str, RingElem] | None  # present iff not passed

    __hash__ = None  # it holds SymPoints


@dataclass(frozen=True)
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

    def render(self) -> str:
        lines = [f"symbolic axiom check, mode={self.mode}"]
        for c in self.cases:
            status = "pass" if c.passed else "FAIL"
            line = f"  {c.axiom} orbits={c.orbits}: {status}"
            if c.counterexample is not None:
                subst = " ".join(f"{v}={c.counterexample[v]}" for v in sorted(c.counterexample))
                line += f"  counterexample {subst}"
            lines.append(line)
        return "\n".join(lines) + "\n"


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
