"""Test oracle: integer Laurent polynomials, the specification of RingElem.

quandleworks.ring.reduce takes a polynomial's exponent -> coefficient
mapping to its canonical pair; the tests check every RingElem operation
against LaurentPoly arithmetic followed by reduce, and lift(e) is the
polynomial n1*t + n2*t^2 of a canonical pair.  random_pair and random_elem
draw the tests' random ring elements with randint, which is also the
specification of the library's one draw function, collapse.random_draws.
"""

import random
from typing import Mapping

from quandleworks import RingElem


class LaurentPoly:
    """Integer Laurent polynomial as an exponent -> coefficient mapping.

    Zero coefficients are never stored; the zero polynomial is the empty
    mapping.  Exponents may be negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        table: dict[int, int] = {}
        if coeffs:
            for exp, coeff in coeffs.items():
                if coeff:
                    table[int(exp)] = int(coeff)
        self.coeffs = table

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # carries a mutable mapping

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = dict(self.coeffs)
        for exp, coeff in other.coeffs.items():
            merged[exp] = merged.get(exp, 0) + coeff
        return LaurentPoly(merged)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({exp: -coeff for exp, coeff in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({{{inner}}})"


def lift(elem: RingElem) -> LaurentPoly:
    """The polynomial n1*t + n2*t^2 of a canonical pair."""
    return LaurentPoly({1: elem.n1, 2: elem.n2})


def random_pair(rng: random.Random, bound: int = 50) -> tuple[int, int]:
    """Two independent uniform integers in [-bound, bound], n1 before n2."""
    return rng.randint(-bound, bound), rng.randint(-bound, bound)


def random_elem(rng: random.Random, bound: int = 50) -> RingElem:
    """The ring element of random_pair(rng, bound)."""
    return RingElem(*random_pair(rng, bound))
