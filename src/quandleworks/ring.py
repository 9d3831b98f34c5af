"""Exact arithmetic in the quotient of the integer Laurent polynomials by
the principal ideal generated by t^2 + t - 1.

Every residue class in the quotient has a unique representative of the form
n1*t + n2*t^2, so quotient elements are stored as plain integer pairs and
RingElem computes on them in closed form.  Products use t^3 = t - t^2 and
t^4 = -t + 2*t^2 (product_pair, the one copy of the formula), and
multiplying by a power of t is a linear map of the pair:

    t    * (n1, n2) = (n2, n1 - n2)
    t^2  * (n1, n2) = (n1 - n2, 2*n2 - n1)
    t^-1 * (n1, n2) = (n1 + n2, n1)

scale_t iterates the first and the last; the integer kernels of
affine.py apply them inline.  The specification is
Laurent-polynomial arithmetic followed by reduce: reduce rewrites
t^2 -> 1 - t and t^(-1) -> 1 + t until only the exponents 0 and 1 remain,
then converts a + b*t into the canonical pair (a + b, a) using
1 = t + t^2.  The polynomials themselves live with the tests
(tests/seed_ring.py), which check every RingElem operation against them;
the library never calls reduce.  All arithmetic is over
arbitrary-precision integers; coefficients grow Fibonacci-fast under powers
of t, so nothing here may round.

FrozenValue gives its subclasses the semantics of a frozen dataclass
(equality within the class, hash of the fields, keyword repr, copying and
pickling, FrozenInstanceError on assignment) without dataclass machinery,
so importing the package loads neither dataclasses nor inspect.  Its
subclasses are RingElem, affine.AffineExpr, affine.Point, affine.SymPoint,
collapse.CollapseLattice, collapse.CollapseReport, quandle.AxiomReport and
variety.IdentitySpec, the package's only value classes.  Code that computes
many values in a row, such as the sampled checks of
collapse.verify_theorem, works on the pairs themselves and builds a
RingElem only for a result it hands out.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Mapping


class FrozenValue:
    """Base of the slotted immutable values: the subclass's __slots__ (two
    or more) are its fields, which its __init__ takes in that order and sets
    with object.__setattr__(self, name, value), as the __init__ of a frozen
    dataclass does, and the instances behave as those of a frozen
    dataclass.  The subclasses are RingElem, affine.AffineExpr,
    affine.Point, affine.SymPoint, collapse.CollapseLattice,
    collapse.CollapseReport, quandle.AxiomReport and variety.IdentitySpec; a
    subclass that holds an unhashable field sets __hash__ = None.

    The exception raised on assignment is dataclasses.FrozenInstanceError,
    imported only to raise it, so that the dataclasses module stays off the
    import path of the package."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # the field values, a tuple

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class RingElem(FrozenValue):
    """Canonical pair (n1, n2) for n1*t + n2*t^2 in the quotient ring."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    @classmethod
    def from_int(cls, value: int) -> "RingElem":
        # 1 = t + t^2, so the integer c is the pair (c, c)
        return cls(value, value)

    def is_zero(self) -> bool:
        return not (self.n1 or self.n2)

    def __add__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return RingElem(self.n1 + other.n1, self.n2 + other.n2)

    def __sub__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return RingElem(self.n1 - other.n1, self.n2 - other.n2)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.n1, -self.n2)

    def __mul__(self, other):
        if other.__class__ is not RingElem:
            if isinstance(other, int):
                return RingElem(other * self.n1, other * self.n2)
            if not isinstance(other, RingElem):
                return NotImplemented
        n1, n2 = product_pair(self.n1, self.n2, other.n1, other.n2)
        return RingElem(n1, n2)

    __rmul__ = __mul__

    def scale_t(self, power: int) -> "RingElem":
        """t^power * self; valid for negative powers since t is a unit."""
        n1, n2 = self.n1, self.n2
        if power >= 0:
            for _ in range(power):
                n1, n2 = n2, n1 - n2  # t*(n1*t + n2*t^2), t^3 = t - t^2
        else:
            for _ in range(-power):
                n1, n2 = n1 + n2, n1  # (n1*t + n2*t^2)/t = n1 + n2*t
        return RingElem(n1, n2)

    def __str__(self) -> str:
        return render_pair(self)


def product_pair(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Canonical pair of (a*t + b*t^2)(c*t + d*t^2).

    The product is ac*t^2 + (ad + bc)*t^3 + bd*t^4, and t^3 = t - t^2,
    t^4 = -t + 2*t^2 give (ad + bc - bd, ac - (ad + bc) + 2*bd).  Code that
    evaluates many products by one fixed element, such as
    AffineExpr.linear_form, takes its images of (1, 0) and (0, 1) from here
    once and builds no RingElem on the way.
    """
    ad_bc = a * d + b * c
    bd = b * d
    return ad_bc - bd, a * c - ad_bc + 2 * bd


def reduce(poly: Mapping[int, int]) -> RingElem:
    """Canonical pair of the Laurent polynomial with the exponent ->
    coefficient mapping `poly`, modulo t^2 + t - 1.

    Top exponents rewrite through t^e = t^(e-2) - t^(e-1) and bottom ones
    through t^e = t^(e+1) + t^(e+2); both strictly shrink the support range,
    so the loop terminates with support inside {0, 1}.
    """
    coeffs = dict(poly)

    def bump(exp: int, delta: int) -> None:
        value = coeffs.get(exp, 0) + delta
        if value:
            coeffs[exp] = value
        else:
            coeffs.pop(exp, None)

    while coeffs:
        top = max(coeffs)
        if top >= 2:
            value = coeffs.pop(top)
            bump(top - 2, value)
            bump(top - 1, -value)
            continue
        bottom = min(coeffs)
        if bottom <= -1:
            value = coeffs.pop(bottom)
            bump(bottom + 1, value)
            bump(bottom + 2, value)
            continue
        break
    a = coeffs.get(0, 0)
    b = coeffs.get(1, 0)
    return RingElem(a + b, a)


ZERO = RingElem(0, 0)
ONE = RingElem(1, 1)
T = RingElem(1, 0)
T_SQ = RingElem(0, 1)
T_INV = RingElem(2, 1)

# re.ASCII makes \d the digits 0-9 only; otherwise it also matches the
# digits of other scripts, which int() reads too
_PAIR_RE = re.compile(r"^\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)$", re.ASCII)
_POLY_RE = re.compile(r"^([+-]?\d+)\*t([+-]\d+)\*t\^2$", re.ASCII)
_INT_RE = re.compile(r"^[+-]?\d+$", re.ASCII)


def render_elem(elem: RingElem) -> str:
    """Explicit-sign polynomial text, e.g. (2, 1) -> '+2*t+1*t^2'."""
    return f"{elem.n1:+d}*t{elem.n2:+d}*t^2"


def render_pair(elem: RingElem) -> str:
    return f"({elem.n1},{elem.n2})"


def parse_elem(text: str) -> RingElem:
    """Parse 'n1*t+n2*t^2', the pair form '(n1,n2)', or a bare integer."""
    s = text.strip()
    m = _PAIR_RE.match(s)
    if m:
        return RingElem(int(m.group(1)), int(m.group(2)))
    m = _POLY_RE.match(s)
    if m:
        return RingElem(int(m.group(1)), int(m.group(2)))
    if _INT_RE.match(s):
        return RingElem.from_int(int(s))
    raise ValueError(f"cannot parse ring element {text!r}")
