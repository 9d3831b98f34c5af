"""Exact arithmetic in Z[t, 1/t] modulo t^2 + t - 1."""

import random

import pytest
from conftest import assert_frozen_dataclass_semantics
from hypothesis import given
from hypothesis import strategies as st

from quandleworks.ring import (ONE, T, T_INV, T_SQ, ZERO, LaurentPoly,
                               RingElem, parse_elem, random_elem, reduce,
                               render_elem, render_pair)

elems = st.builds(RingElem,
                  st.integers(min_value=-60, max_value=60),
                  st.integers(min_value=-60, max_value=60))
polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(min_value=-6, max_value=6),
                    st.integers(min_value=-9, max_value=9), max_size=6))


def test_powers_of_t_have_frozen_canonical_pairs():
    assert ONE.scale_t(1) == T == RingElem(1, 0)
    assert ONE.scale_t(2) == T_SQ == RingElem(0, 1)
    assert ONE.scale_t(3) == RingElem(1, -1)
    assert ONE.scale_t(4) == RingElem(-1, 2)
    assert ONE.scale_t(-1) == T_INV == RingElem(2, 1)
    assert ONE.scale_t(-2) == RingElem(3, 2)
    assert ONE.scale_t(-3) == RingElem(5, 3)


def test_defining_relation_collapses():
    # t^2 + t - 1 reduces to zero, equivalently 1 - t = t^2
    assert T_SQ + T - ONE == ZERO
    assert ONE - T == T_SQ
    assert reduce(LaurentPoly({2: 1, 1: 1, 0: -1})) == ZERO


def test_integers_embed_on_the_diagonal():
    for c in (-7, -1, 0, 1, 2, 13):
        assert RingElem.from_int(c) == RingElem(c, c)
    assert RingElem.from_int(1) == ONE


def test_t_is_a_unit():
    assert T * T_INV == ONE
    assert T_INV == reduce(LaurentPoly({0: 1, 1: 1}))  # 1/t = 1 + t


def test_reduce_of_single_powers():
    assert reduce(LaurentPoly.t_power(0)) == ONE
    assert reduce(LaurentPoly.t_power(1)) == T
    assert reduce(LaurentPoly.t_power(2)) == T_SQ
    assert reduce(LaurentPoly.t_power(-1)) == T_INV
    assert reduce(LaurentPoly()) == ZERO


@given(elems)
def test_lift_reduce_round_trip(e):
    assert reduce(e.lift()) == e


@given(polys, polys)
def test_reduce_is_additive(p, q):
    assert reduce(p + q) == reduce(p) + reduce(q)


@given(polys, polys)
def test_reduce_is_multiplicative(p, q):
    assert reduce(p * q) == reduce(p) * reduce(q)


# RingElem computes in closed form on canonical pairs; LaurentPoly + reduce
# is the specification it must agree with.

@given(elems, elems)
def test_product_matches_the_specification(a, b):
    assert a * b == reduce(a.lift() * b.lift())


@given(elems, st.integers(min_value=-10**6, max_value=10**6))
def test_int_product_matches_the_specification(a, k):
    assert k * a == reduce(LaurentPoly({0: k}) * a.lift())
    assert a * k == k * a


@given(elems, st.integers(min_value=-200, max_value=200))
def test_scale_t_matches_the_specification(e, k):
    assert e.scale_t(k) == reduce(LaurentPoly.t_power(k) * e.lift())


@given(elems)
def test_unit_laws(e):
    assert e + ZERO == e
    assert e * ONE == e
    assert ONE * e == e
    assert e - e == ZERO
    assert -(-e) == e


@given(elems, elems, elems)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elems, st.integers(min_value=-5, max_value=5))
def test_scale_t_inverts(e, k):
    assert e.scale_t(k).scale_t(-k) == e
    assert e.scale_t(0) == e


@given(elems, st.integers(min_value=-9, max_value=9))
def test_int_multiplication_matches_embedding(e, k):
    assert k * e == RingElem.from_int(k) * e
    assert e * k == k * e


@given(elems)
def test_text_round_trips(e):
    assert parse_elem(render_elem(e)) == e
    assert parse_elem(render_pair(e)) == e


def test_render_forms():
    assert render_elem(RingElem(-1, 0)) == "-1*t+0*t^2"
    assert render_elem(RingElem(2, -3)) == "+2*t-3*t^2"
    assert render_pair(RingElem(2, -3)) == "(2,-3)"
    assert str(RingElem(2, -3)) == "(2,-3)"


def test_parse_accepts_bare_integers():
    assert parse_elem("7") == RingElem.from_int(7)
    assert parse_elem("-2") == RingElem(-2, -2)
    assert parse_elem(" (1, -4) ") == RingElem(1, -4)


@pytest.mark.parametrize("bad", ["", "t", "(1)", "(1,2,3)", "1*t", "1*t+2*t^3",
                                 "one", "(a,b)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_elem(bad)


def test_ring_elements_are_frozen_dataclass_values():
    rng = random.Random(11)
    pairs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(40)]
    pairs += [(10**30, -(10**30)), (0, 0), (True, 1)]
    assert_frozen_dataclass_semantics(RingElem, ("n1", "n2"), pairs)
    assert RingElem(1, 2) != (1, 2)
    assert RingElem(n1=1, n2=2) == RingElem(1, 2)


def test_random_elem_makes_the_draws_of_randint():
    # verify-paper never prints its samples, so only this test sees a drift
    # in the sample stream
    for seed in range(200):
        r, s = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_elem(r) == RingElem(s.randint(-50, 50), s.randint(-50, 50))
        for bound in (0, 1, 7, 10**20):
            assert random_elem(r, bound) == RingElem(s.randint(-bound, bound),
                                                     s.randint(-bound, bound))
        assert r.getstate() == s.getstate()
