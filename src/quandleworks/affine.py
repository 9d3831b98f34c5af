"""The two-orbit affine quandle over the quotient ring, with concrete and
symbolic evaluation and an operational single-orbit reversal.

The carrier is two tagged copies of the ring; the operation keeps the tag of
its left argument, so orbit tags stay concrete even in symbolic terms.
With m_1 = 0 and m_2 = 1 marking the copies:

    x in copy i acted on by y in copy j  ->  (m_j - m_i + t*x + t^2*y) in copy i
    undone by                                t^(-1) * (m_i - m_j + x - t^2*y)

(1 - t reduces to t^2, hence the t^2 in the first formula).  Both have
closed forms in the canonical pairs x = (x1, x2), y = (y1, y2) and shift
s = m_j - m_i = (s1, s2), using t*(n1, n2) = (n2, n1 - n2) and
t^2*(n1, n2) = (n1 - n2, 2*n2 - n1):

    op      (s1 + x2 + y1 - y2,  s2 + x1 - x2 + 2*y2 - y1)
    op_inv  (u1 + u2, u1)  for  u = -s + x - t^2*y
            = (-s1 + x1 - y1 + y2,  -s2 + x2 - 2*y2 + y1)

Each closed form is one integer kernel on canonical pairs: op_kernel and
op_inv_kernel take the shift pair and the two value pairs, witness_kernel
computes orbit_witness, and reversed_kernel runs reversed_op on tagged
pairs (orbit, n1, n2).  The sampled checks of collapse.py chain the kernels
on lane-packed integers (collapse.CHUNK) and box nothing.  op and op_inv
never call the kernels: they compute the formulas with ring and AffineExpr
arithmetic, for Points as for SymPoints, so those checks compare two
derivations that share no code.

Both formulas are affine in both arguments, so they close over AffineExpr;
collapse.py expands the reversed medial terms that way.  linear_form turns
an AffineExpr into integer coefficient rows, and evaluate_form evaluates
such rows at canonical pairs: AffineExpr.evaluate and the sampled checks of
collapse.py share that one evaluation.  Orbit 2 is the reversed orbit
throughout this package: reversed_op swaps in the undo formula exactly when
the acting element carries tag 2.

AffineExpr, Point, the concrete element, and SymPoint, the symbolic one,
derive from ring.FrozenValue, as RingElem does, so all three are immutable;
AffineExpr is unhashable because it holds a dict of coefficients, and
SymPoint because it holds an AffineExpr.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .ring import (ONE, T, T_INV, T_SQ, ZERO, FrozenValue, RingElem,
                   parse_elem, product_pair, render_elem, render_pair)

ORBIT_TAGS = (1, 2)
ORBIT_MARK = {1: ZERO, 2: ONE}  # additive marker of each copy
# m_j - m_i for the tag pair (i, j) as a canonical pair, the shift in both
# formulas
SHIFT = {(i, j): (ORBIT_MARK[j].n1 - ORBIT_MARK[i].n1,
                  ORBIT_MARK[j].n2 - ORBIT_MARK[i].n2)
         for i in ORBIT_TAGS for j in ORBIT_TAGS}


class AffineExpr(FrozenValue):
    """constant + sum(coeff[v] * v) with ring coefficients; zero coefficients
    are never stored, so structural equality is semantic equality."""

    __slots__ = ("constant", "coeffs")
    __hash__ = None  # coeffs is a dict

    def __init__(self, constant: RingElem = ZERO,
                 coeffs: Mapping[str, RingElem] | None = None) -> None:
        coeffs = {v: c for v, c in (coeffs or {}).items() if not c.is_zero()}
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "coeffs", coeffs)

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

    def __mul__(self, scalar) -> "AffineExpr":
        if not isinstance(scalar, (int, RingElem)):
            return NotImplemented
        return AffineExpr(scalar * self.constant,
                          {v: scalar * c for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def substitute(self, assignment: Mapping[str, "AffineExpr | RingElem"]) -> "AffineExpr":
        """The expression with each variable of `assignment` replaced by its
        value, summed term by term into one new expression."""
        constant = self.constant
        coeffs: dict[str, RingElem] = {}
        for v, c in self.coeffs.items():
            if v not in assignment:
                coeffs[v] = coeffs.get(v, ZERO) + c
                continue
            value = self._promote(assignment[v])
            if value is None:
                raise TypeError(f"cannot substitute {assignment[v]!r} for {v!r}")
            constant = constant + c * value.constant
            for u, d in value.coeffs.items():
                coeffs[u] = coeffs.get(u, ZERO) + c * d
        return AffineExpr(constant, coeffs)

    def linear_form(self, names: Sequence[str]) -> tuple[
            tuple[int, int], tuple[tuple[int, int, int, int], ...]]:
        """The expression as integers over the variables `names`, for
        evaluate_form: the constant pair, and for each name the images
        (a, b) and (p, q) of (1, 0) and (0, 1) under multiplication by its
        coefficient, as product_pair gives them."""
        unknown = set(self.coeffs).difference(names)
        if unknown:
            raise ValueError(f"no place for the variables {sorted(unknown)}")
        rows = []
        for v in names:
            c = self.coeffs.get(v, ZERO)
            rows.append(product_pair(c.n1, c.n2, 1, 0) + product_pair(c.n1, c.n2, 0, 1))
        return (self.constant.n1, self.constant.n2), tuple(rows)

    def evaluate(self, values: Mapping[str, RingElem]) -> RingElem:
        """The value at a RingElem for each variable (evaluate_form, boxed)."""
        names = tuple(self.coeffs)
        n1, n2 = evaluate_form(self.linear_form(names),
                               [(values[v].n1, values[v].n2) for v in names])
        return RingElem(n1, n2)

    def render(self) -> str:
        parts = [render_elem(self.constant)]
        for v in sorted(self.coeffs):
            parts.append(f"({render_elem(self.coeffs[v])})*{v}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AffineExpr[{self.render()}]"


class Point(FrozenValue):
    """Concrete element: an orbit tag and a ring value."""

    __slots__ = ("orbit", "value")

    def __init__(self, orbit: int, value: RingElem) -> None:
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return f"{render_pair(self.value)}@{self.orbit}"


class SymPoint(FrozenValue):
    """Symbolic element: an orbit tag and an affine expression over the ring."""

    __slots__ = ("orbit", "expr")
    __hash__ = None  # an AffineExpr is unhashable

    def __init__(self, orbit: int, expr: AffineExpr) -> None:
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "expr", expr)

    def __str__(self) -> str:
        return f"orbit {self.orbit}: {self.expr.render()}"


def parse_point(text: str) -> Point:
    """Parse '(n1,n2)@orbit' (the value part accepts any ring-element form;
    the orbit is the ASCII text 1 or 2)."""
    s = text.strip()
    if "@" not in s:
        raise ValueError(f"expected '<value>@<orbit>', got {text!r}")
    value_part, _, tag_part = s.rpartition("@")
    value = parse_elem(value_part)
    if tag_part not in ("1", "2"):
        if tag_part.isascii() and tag_part.isdigit():
            raise ValueError(f"orbit tag must be 1 or 2, got {tag_part}")
        raise ValueError(f"bad orbit tag {tag_part!r}")
    return Point(int(tag_part), value)


def _payload(p):
    return p.value if isinstance(p, Point) else p.expr


def _element(orbit: int, payload):
    return (Point if payload.__class__ is RingElem else SymPoint)(orbit, payload)


def evaluate_form(form, pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The value of an AffineExpr.linear_form at one canonical pair per
    name, in the form's order: the constant plus x1*(a, b) + x2*(p, q),
    which is c*x, for each coefficient row and value pair x."""
    (n1, n2), rows = form
    for (a, b, p, q), (x1, x2) in zip(rows, pairs):
        n1 += a * x1 + p * x2
        n2 += b * x1 + q * x2
    return n1, n2


def op_kernel(shift: tuple[int, int], x1: int, x2: int,
              y1: int, y2: int) -> tuple[int, int]:
    """Canonical pair of shift + t*x + t^2*y, for the shift pair of the tags
    and the value pairs x of the acted-on and y of the acting element."""
    s1, s2 = shift
    return s1 + x2 + y1 - y2, s2 + x1 - x2 + 2 * y2 - y1


def op_inv_kernel(shift: tuple[int, int], x1: int, x2: int,
                  y1: int, y2: int) -> tuple[int, int]:
    """Canonical pair of t^(-1) * (shift + x - t^2*y), the undo formula."""
    s1, s2 = shift
    u1 = s1 + x1 - y1 + y2
    u2 = s2 + x2 - 2 * y2 + y1
    return u1 + u2, u1


def reversed_kernel(a: tuple[int, int, int], b: tuple[int, int, int],
                    unit: int = 1) -> tuple[int, int, int]:
    """reversed_op on tagged pairs (orbit, n1, n2): a acted on by b, undone
    when b carries tag 2; the result keeps a's tag.  The shift pair is
    multiplied by `unit`, collapse.lane_ones on lane-packed values."""
    i, x1, x2 = a
    j, y1, y2 = b
    if j == 2:
        s1, s2 = SHIFT[j, i]
        n1, n2 = op_inv_kernel((s1 * unit, s2 * unit), x1, x2, y1, y2)
    else:
        s1, s2 = SHIFT[i, j]
        n1, n2 = op_kernel((s1 * unit, s2 * unit), x1, x2, y1, y2)
    return i, n1, n2


def witness_kernel(orbit: int, v1: int, v2: int,
                   unit: int = 1) -> tuple[int, int, int]:
    """Tagged pair (tag, n1, n2) of orbit_witness for the value pair (v1, v2).

    op(zero-of-i, w in j) = SHIFT[i, j] + t^2*w, so w = t^(-2) * (v - SHIFT[i, j])
    in the other orbit j, and t^(-2) * (a, b) = (2*a + b, a + b).  The shift
    pair is multiplied by `unit`, as in reversed_kernel.
    """
    if orbit != 1 and orbit != 2:
        raise ValueError(f"orbit tag must be 1 or 2, got {orbit}")
    other = 3 - orbit
    s1, s2 = SHIFT[orbit, other]
    a, b = v1 - s1 * unit, v2 - s2 * unit
    return other, 2 * a + b, a + b


def op(a, b):
    """a acted on by b, keeping a's orbit tag: shift + t*a + t^2*b in ring
    and AffineExpr arithmetic, a Point for two Points and a SymPoint for
    any SymPoint in either slot."""
    shift = RingElem(*SHIFT[a.orbit, b.orbit])
    return _element(a.orbit, shift + T * _payload(a) + T_SQ * _payload(b))


def op_inv(a, b):
    """The unique c with op(c, b) = a, inverting the translation by b:
    t^(-1) * (shift + a - t^2*b), for any mix of Point and SymPoint as in op."""
    shift = RingElem(*SHIFT[b.orbit, a.orbit])
    # -b is added, not b subtracted: when a is a Point the sum so far is a
    # RingElem, and a RingElem minus an AffineExpr has no operator
    return _element(a.orbit,
                    T_INV * (shift + _payload(a) + T_SQ * -_payload(b)))


def reversed_op(a, b):
    """The operation after inverting every translation by an orbit-2 element."""
    return op_inv(a, b) if b.orbit == 2 else op(a, b)


def orbit_witness(value: RingElem, orbit: int) -> Point:
    """A point in the opposite orbit whose action sends the zero of `orbit`
    to `value` in that orbit: op(zero-of-orbit, witness) = value-of-orbit."""
    tag, n1, n2 = witness_kernel(orbit, value.n1, value.n2)
    return Point(tag, RingElem(n1, n2))
