"""The two-element collapse: expansion, forced shifts, lattice, transport."""

import random
from itertools import product

import pytest

from quandleworks import (ONE, T, T_SQ, ZERO, AffineExpr, CollapseError,
                          NonUniformRelation, Point, RingElem, WitnessFailure,
                          combine_shifts, derive_relation, expand_lhs,
                          expand_rhs, hnf_close, op, orbit2_collapse,
                          orbit_witness, relation_assignments, reversed_op,
                          shift_gap, verify_theorem)
from quandleworks.ring import random_elem
import seed_hnf

MINUS_ONE = RingElem(-1, -1)
T_CUBED = RingElem(1, -1)


def test_expansion_coefficients_are_frozen():
    out = expand_lhs()
    assert out.orbit == 1
    assert out.expr.constant == RingElem(-1, 0)            # -t
    assert out.expr.coeffs == {"w": T_SQ,                  # t^2
                               "x": T_CUBED,               # t^3
                               "y": T,                     # t
                               "z": -T_CUBED}              # -t^3
    other = expand_rhs()
    assert other.expr.constant == out.expr.constant
    assert other.expr.coeffs == {"w": T_SQ, "x": T, "y": T_CUBED,
                                 "z": -T_CUBED}


def test_gap_is_translation_invariant():
    gap = shift_gap()
    assert gap.constant == ZERO
    assert gap.coeffs == {"x": T_CUBED - T, "y": T - T_CUBED}
    assert T_CUBED - T == -T_SQ
    # a unit, so the forced shifts (t^3 - t)(x - y) fill the ring: index 1
    assert (T_CUBED - T) * -ONE.scale_t(-2) == ONE


def test_gap_law_on_random_values():
    lhs, rhs = expand_lhs(), expand_rhs()
    rng = random.Random(11)
    for _ in range(300):
        values = {name: random_elem(rng) for name in ("w", "x", "y", "z")}
        diff = lhs.expr.evaluate(values) - rhs.expr.evaluate(values)
        assert diff == (T_CUBED - T) * (values["x"] - values["y"])


def test_concrete_nesting_agrees_with_the_expansion():
    lhs = expand_lhs()
    rng = random.Random(12)
    for _ in range(100):
        values = {name: random_elem(rng) for name in ("w", "x", "y", "z")}
        pts = {name: Point(2 if name == "z" else 1, values[name])
               for name in values}
        nested = reversed_op(reversed_op(pts["w"], pts["x"]),
                             reversed_op(pts["y"], pts["z"]))
        assert nested == lhs.evaluate(values)


def test_canonical_relation_shifts():
    first, second = relation_assignments()
    assert derive_relation(first) == T_SQ
    assert derive_relation(second) == MINUS_ONE


def test_x_equals_y_assignment_forces_nothing():
    shift = derive_relation({
        "w": ZERO, "x": ZERO, "y": ZERO,
        "z": AffineExpr.var("a", -ONE.scale_t(-3)),
    })
    assert shift == ZERO


def test_relation_requires_parameter_cancellation():
    with pytest.raises(NonUniformRelation):
        derive_relation({"w": ZERO, "x": AffineExpr.var("a"),
                         "y": ZERO, "z": ZERO})


def test_relation_assignment_validation():
    first = relation_assignments()[0]
    with pytest.raises(ValueError):
        derive_relation({k: v for k, v in first.items() if k != "z"})
    with pytest.raises(ValueError):
        derive_relation(dict(first, extra=ZERO))
    with pytest.raises(ValueError):
        derive_relation(dict(first, z=AffineExpr.var("b")))


def test_hnf_of_the_canonical_shifts_is_unimodular():
    lattice = hnf_close([T_SQ, MINUS_ONE])
    assert lattice.hnf == ((1, 0), (0, 1))
    assert lattice.rank == 2 and lattice.index == 1
    # (1,0) = -t^2 - (-1) and (0,1) = t^2
    assert lattice.basis_combinations == ((-1, -1), (1, 0))
    assert seed_hnf.contains(lattice, RingElem(17, -23))


def test_hnf_worked_examples():
    assert hnf_close([T_SQ, ONE]).index == 1       # {(0,1), (1,1)}
    empty = seed_hnf.hnf_close([])
    assert empty.rank == 0 and empty.index is None
    assert seed_hnf.contains(empty, ZERO) and not seed_hnf.contains(empty, T)

    rank1 = seed_hnf.hnf_close([RingElem(2, 0)])
    assert rank1.rank == 1 and rank1.index is None
    assert seed_hnf.contains(rank1, RingElem(4, 0))
    assert not seed_hnf.contains(rank1, RingElem(3, 0))
    assert not seed_hnf.contains(rank1, RingElem(2, 2))

    line = seed_hnf.hnf_close([RingElem(4, 6), RingElem(6, 9)])
    assert line.hnf == ((0, 2), (0, 3)) and line.rank == 1

    box = seed_hnf.hnf_close([RingElem(2, 0), RingElem(0, 3)])
    assert box.index == 6
    assert seed_hnf.contains(box, RingElem(2, 3))
    assert not seed_hnf.contains(box, RingElem(1, 0))


def test_hnf_index_counts_residues():
    for gens in ([RingElem(2, 0), RingElem(0, 3)],
                 [RingElem(2, 1), RingElem(0, 5)],
                 [RingElem(3, 1), RingElem(1, 3)]):
        lattice = seed_hnf.hnf_close(gens)
        assert lattice.index is not None
        span = lattice.index * 2
        members = sum(seed_hnf.contains(lattice, (p, q))
                      for p, q in product(range(span), repeat=2))
        assert members * lattice.index == span * span


def test_hnf_membership_both_ways_random():
    rng = random.Random(13)
    for _ in range(50):
        gens = [RingElem(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(0, 4))]
        lattice = seed_hnf.hnf_close(gens)
        for g in gens:
            assert seed_hnf.contains(lattice, g)
        # random integer combinations stay inside
        for _ in range(10):
            coeffs = [rng.randint(-4, 4) for _ in gens]
            p = sum(c * g.n1 for c, g in zip(coeffs, gens))
            q = sum(c * g.n2 for c, g in zip(coeffs, gens))
            assert seed_hnf.contains(lattice, (p, q))
        # each Hermite basis column is certified as a generator combination
        for col, comb in zip(lattice.basis_columns(), lattice.basis_combinations):
            assert col == (sum(k * g.n1 for k, g in zip(comb, gens)),
                           sum(k * g.n2 for k, g in zip(comb, gens)))


def test_determinant_certificate_matches_the_general_hnf():
    rng = random.Random(14)
    unimodular = 0
    for _ in range(4000):
        pair = [RingElem(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
        oracle = seed_hnf.hnf_close(pair)
        if oracle.index == 1:
            unimodular += 1
            assert hnf_close(pair) == oracle
        else:
            with pytest.raises(CollapseError) as info:
                hnf_close(pair)
            assert info.value.stage == "lattice"
            assert str(info.value) == (f"shift lattice has index {oracle.index},"
                                       " orbit 1 does not collapse")
    assert unimodular >= 20


def test_shift_chain_reproduces_the_intermediate_shift():
    chain = combine_shifts(T_SQ, MINUS_ONE)
    assert chain[:2] == [T_SQ, MINUS_ONE]
    assert T in chain
    assert seed_hnf.hnf_close(chain).hnf == seed_hnf.hnf_close([T_SQ, ONE]).hnf
    assert combine_shifts(ZERO, ZERO) == [ZERO] * 4


def test_orbit2_collapse_counts_one_class():
    assert orbit2_collapse(100) == 1
    assert orbit2_collapse(0) == 1  # symbolic witness identity alone
    wit = orbit_witness(ZERO, 2)
    assert wit == Point(1, RingElem(3, 2))
    assert op(Point(2, ZERO), wit) == Point(2, ZERO)


def test_verify_theorem_report():
    report = verify_theorem()
    assert report.total == 2
    assert report.orbit1_classes == 1 and report.orbit2_classes == 1
    assert report.lattice_index == 1
    assert report.relation_shifts == (T_SQ, MINUS_ONE)
    assert T in report.shift_chain
    assert report.lhs_expansion == expand_lhs()
    text = report.render()
    assert text.endswith("total classes: 2\n")
    assert "index=1" in text


def test_verify_theorem_is_deterministic():
    a = verify_theorem(samples=50, seed=3)
    b = verify_theorem(samples=50, seed=3)
    assert a == b and a.render() == b.render()
    c = verify_theorem(samples=10, seed=99)
    assert c.total == 2


def test_failure_types_carry_stages():
    assert NonUniformRelation.stage == "relations"
    assert WitnessFailure.stage == "orbit-2 transport"
    err = CollapseError("lattice", "boom")
    assert err.stage == "lattice" and "boom" in str(err)
