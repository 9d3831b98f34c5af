"""The two-orbit affine quandle over the quotient ring, with concrete and
symbolic evaluation and an operational single-orbit reversal.

The carrier is two tagged copies of the ring; the operation keeps the tag of
its left argument, so orbit tags stay concrete even in symbolic terms.
Copy i is marked m_i = i - 1, so for x in copy i and y in copy j the
shift m_j - m_i is the integer s = j - i:

    x in copy i acted on by y in copy j  ->  (s + t*x + t^2*y) in copy i
    undone by                                t^(-1) * (-s + x - t^2*y)

(1 - t reduces to t^2, hence the t^2 in the first formula).  Both have
closed forms in the canonical pairs x = (x1, x2), y = (y1, y2), where the
integer s is the pair (s, s), using t*(n1, n2) = (n2, n1 - n2) and
t^2*(n1, n2) = (n1 - n2, 2*n2 - n1):

    op      (s + x2 + y1 - y2,  s + x1 - x2 + 2*y2 - y1)
    op_inv  (u1 + u2, u1)  for  u = -s + x - t^2*y
            = (-s + x1 - y1 + y2,  -s + x2 - 2*y2 + y1)

Each closed form is one integer kernel on canonical pairs: op_kernel and
op_inv_kernel take the integer shift and the two value pairs, witness_kernel
computes orbit_witness, and reversed_kernel runs reversed_op on tagged
pairs (orbit, n1, n2).  The sampled checks of collapse.py chain the kernels
on lane-packed integers (collapse.CHUNK) and box nothing.  op and op_inv
never call the kernels, so those checks compare two derivations that share
no code: each is one combine, a linear combination over the ring, for
Points as for SymPoints.  op combines (s, t*x, t^2*y), and op_inv
combines (-s*t^(-1), t^(-1)*x, -t*y), since t^(-1)*t^2 = t; the integer s
is a scalar, so neither builds a ring element for it.

Both formulas are affine in both arguments, so they close over AffineExpr;
collapse.py expands the reversed medial terms that way.  combine is the one
routine of AffineExpr arithmetic: it sums canonical integer pairs and
builds one AffineExpr per call, and +, -, * and substitute each call it
once.  linear_form turns an AffineExpr into integer coefficient rows, and
evaluate_form evaluates such rows at canonical pairs: AffineExpr.evaluate
and the sampled checks of collapse.py share that one evaluation.  Orbit 2
is the reversed orbit throughout this package: reversed_op swaps in the
undo formula exactly when the acting element carries tag 2.

AffineExpr, Point, the concrete element, and SymPoint, the symbolic one,
derive from ring.FrozenValue, as RingElem does, so all three are immutable;
AffineExpr is unhashable because it holds a dict of coefficients, and
SymPoint because it holds an AffineExpr.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .ring import (ONE, T, T_INV, T_SQ, ZERO, FrozenValue, RingElem,
                   parse_elem, product_pair, render_elem, render_pair)

ORBIT_TAGS = (1, 2)  # copy i is marked m_i = i - 1, so the shift m_j - m_i is j - i
MINUS_T = -T  # t^(-1) * -t^2, the factor of b in op_inv


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

    def __add__(self, other) -> "AffineExpr":
        return combine(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return combine(((-1, self),))

    def __sub__(self, other) -> "AffineExpr":
        return combine(((1, self), (-1, other)))

    def __mul__(self, scalar) -> "AffineExpr":
        return combine(((scalar, self),))

    __rmul__ = __mul__

    def substitute(self, assignment: Mapping[str, "AffineExpr | RingElem"]) -> "AffineExpr":
        """The expression with each variable of `assignment` replaced by its
        value, summed term by term into one new expression."""
        terms = [(1, self.constant)]
        for v, c in self.coeffs.items():
            value = assignment[v] if v in assignment else AffineExpr.var(v)
            if not isinstance(value, (AffineExpr, RingElem)):
                raise TypeError(f"cannot substitute {value!r} for {v!r}")
            terms.append((c, value))
        out = combine(terms)
        return out if out.__class__ is AffineExpr else AffineExpr(out)

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


def combine(terms) -> "AffineExpr | RingElem":
    """The sum of scalar * value over the (scalar, value) pairs of `terms`,
    for a scalar that is an int or a RingElem and a value that is a
    RingElem or an AffineExpr: an AffineExpr when some value is one, else a
    RingElem.  One pass sums canonical pairs, with product_pair for each
    scalar times each part of its value (the integer k is the pair (k, k)),
    then builds the constant, one RingElem per nonzero coefficient and one
    AffineExpr."""
    k1 = k2 = 0  # the constant
    sums: dict[str, tuple[int, int]] = {}
    symbolic = False
    for scalar, value in terms:
        if isinstance(scalar, RingElem):
            a, b = scalar.n1, scalar.n2
        elif isinstance(scalar, int):
            a = b = scalar
        else:
            raise TypeError(f"a scalar is an int or a RingElem, not {scalar!r}")
        if isinstance(value, AffineExpr):
            symbolic = True
            for v, c in value.coeffs.items():
                n1, n2 = product_pair(a, b, c.n1, c.n2)
                s1, s2 = sums.get(v, (0, 0))
                sums[v] = s1 + n1, s2 + n2
            value = value.constant
        elif not isinstance(value, RingElem):
            raise TypeError(f"a value is a RingElem or an AffineExpr, not {value!r}")
        n1, n2 = product_pair(a, b, value.n1, value.n2)
        k1, k2 = k1 + n1, k2 + n2
    if not symbolic:
        return RingElem(k1, k2)
    return AffineExpr(RingElem(k1, k2), {v: RingElem(n1, n2)
                                         for v, (n1, n2) in sums.items() if n1 or n2})


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


def op_kernel(s: int, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    """Canonical pair of s + t*x + t^2*y, for the integer shift s of the tags
    and the value pairs x of the acted-on and y of the acting element."""
    return s + x2 + y1 - y2, s + x1 - x2 + 2 * y2 - y1


def op_inv_kernel(s: int, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    """Canonical pair of t^(-1) * (s + x - t^2*y), the undo formula, for the
    integer s = m_i - m_j of x in copy i and y in copy j."""
    u1 = s + x1 - y1 + y2
    u2 = s + x2 - 2 * y2 + y1
    return u1 + u2, u1


def reversed_kernel(a: tuple[int, int, int], b: tuple[int, int, int],
                    unit: int = 1) -> tuple[int, int, int]:
    """reversed_op on tagged pairs (orbit, n1, n2): a acted on by b, undone
    when b carries tag 2; the result keeps a's tag.  The integer shift is
    multiplied by `unit`, collapse.lane_ones on lane-packed values."""
    i, x1, x2 = a
    j, y1, y2 = b
    if j == 2:
        n1, n2 = op_inv_kernel((i - j) * unit, x1, x2, y1, y2)
    else:
        n1, n2 = op_kernel((j - i) * unit, x1, x2, y1, y2)
    return i, n1, n2


def witness_kernel(orbit: int, v1: int, v2: int,
                   unit: int = 1) -> tuple[int, int, int]:
    """Tagged pair (tag, n1, n2) of orbit_witness for the value pair (v1, v2).

    op(zero-of-i, w in j) = s + t^2*w with s = j - i, so w = t^(-2) * (v - s)
    in the other orbit j, and t^(-2) * (a, b) = (2*a + b, a + b).  The
    shift is multiplied by `unit`, as in reversed_kernel.
    """
    if orbit != 1 and orbit != 2:
        raise ValueError(f"orbit tag must be 1 or 2, got {orbit}")
    other = 3 - orbit
    s = (other - orbit) * unit
    a, b = v1 - s, v2 - s
    return other, 2 * a + b, a + b


def op(a, b):
    """a acted on by b, keeping a's orbit tag: s + t*a + t^2*b for the
    integer shift s = b.orbit - a.orbit, one combine, a Point for two
    Points and a SymPoint for any SymPoint in either slot."""
    return _element(a.orbit, combine(((b.orbit - a.orbit, ONE),
                                      (T, _payload(a)), (T_SQ, _payload(b)))))


def op_inv(a, b):
    """The unique c with op(c, b) = a, inverting the translation by b:
    t^(-1)*(a.orbit - b.orbit) + t^(-1)*a - t*b, one combine, for any mix
    of Point and SymPoint as in op."""
    return _element(a.orbit, combine(((a.orbit - b.orbit, T_INV),
                                      (T_INV, _payload(a)), (MINUS_T, _payload(b)))))


def reversed_op(a, b):
    """The operation after inverting every translation by an orbit-2 element."""
    return op_inv(a, b) if b.orbit == 2 else op(a, b)


def orbit_witness(value: RingElem, orbit: int) -> Point:
    """A point in the opposite orbit whose action sends the zero of `orbit`
    to `value` in that orbit: op(zero-of-orbit, witness) = value-of-orbit."""
    tag, n1, n2 = witness_kernel(orbit, value.n1, value.n2)
    return Point(tag, RingElem(n1, n2))
