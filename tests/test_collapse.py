"""The two-element collapse: expansion, forced shifts, lattice, transport."""

import inspect
import random
import textwrap
import tracemalloc
from itertools import product

import pytest

from conftest import assert_frozen_dataclass_semantics, evaluate_point
from quandleworks import (ONE, T, T_SQ, ZERO, AffineExpr, CollapseError,
                          CollapseLattice, ExpansionMismatch,
                          NonUniformRelation, Point, RingElem, WitnessFailure,
                          affine, collapse, combine_shifts, derive_relation,
                          expand_lhs, expand_rhs, hnf_close, op,
                          orbit2_collapse, orbit_witness, relation_assignments,
                          reversed_op, ring, verify_theorem)
from quandleworks.affine import (ORBIT_TAGS, evaluate_form, op_inv_kernel,
                                 op_kernel, reversed_kernel, witness_kernel)
from quandleworks.collapse import (CHUNK, LANE_BYTES, PARAM, SAMPLE_BOUND, VARS,
                                   lane_ones, pack_columns, random_draws)
import seed_hnf
import seed_sampled
from seed_ring import random_elem, random_pair

MINUS_ONE = RingElem(-1, -1)
T_CUBED = RingElem(1, -1)
# the two medial sides, as verify_theorem expands them once per run
SIDES = (expand_lhs(), expand_rhs())


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
    gap = expand_lhs().expr - expand_rhs().expr
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
        assert nested == evaluate_point(lhs, values)


def test_canonical_relation_shifts():
    first, second = relation_assignments()
    assert derive_relation(first, SIDES) == T_SQ
    assert derive_relation(second, SIDES) == MINUS_ONE


def test_x_equals_y_assignment_forces_nothing():
    shift = derive_relation({
        "w": ZERO, "x": ZERO, "y": ZERO,
        "z": AffineExpr.var("a", -ONE.scale_t(-3)),
    }, SIDES)
    assert shift == ZERO


def test_relation_requires_parameter_cancellation():
    with pytest.raises(NonUniformRelation):
        derive_relation({"w": ZERO, "x": AffineExpr.var("a"),
                         "y": ZERO, "z": ZERO}, SIDES)


def doubled_parameter_assignments():
    """relation_assignments with the a-term of z doubled: the parameter
    still cancels, but its lhs coefficient becomes 2, not a unit."""
    out = []
    for assignment in relation_assignments():
        z = assignment["z"]
        out.append(dict(assignment, z=AffineExpr(z.constant, {
            name: 2 * c for name, c in z.coeffs.items()})))
    return out


def test_a_parameter_coefficient_that_is_no_unit_is_not_a_uniform_shift():
    # with 2*a the lhs takes only the values of one coset of an index-4
    # sublattice of orbit 1, so the shifts (0,1) and (-1,-1) would be forced
    # there only, and the lattice certificate would prove less than it says
    for assignment in doubled_parameter_assignments():
        lhs = expand_lhs().expr.substitute(assignment)
        gap = expand_rhs().expr.substitute(assignment) - lhs
        assert PARAM not in gap.coeffs and lhs.coeffs[PARAM] == RingElem(2, 2)
        with pytest.raises(NonUniformRelation) as info:
            derive_relation(assignment, SIDES)
        assert str(info.value) == ("lhs coefficient (2,2) of 'a' is not a unit"
                                   " (determinant 4); the shift is forced on"
                                   " part of orbit 1")
        assert info.value.stage == "relations"
    # a zero coefficient sweeps nothing
    with pytest.raises(NonUniformRelation, match=r"coefficient \(0,0\) .*\(determinant 0\)"):
        derive_relation({"w": ZERO, "x": ZERO, "y": ZERO, "z": ZERO}, SIDES)


def test_the_doubled_parameter_mutant_fails_verification_at_the_relations(
        monkeypatch):
    monkeypatch.setattr(collapse, "relation_assignments", doubled_parameter_assignments)
    with pytest.raises(NonUniformRelation, match="determinant 4") as info:
        verify_theorem(200)
    assert info.value.stage == "relations"


def test_a_unit_parameter_coefficient_of_either_sign_is_accepted():
    # -a sweeps orbit 1 as a does; the canonical assignments have +1
    first = relation_assignments()[0]
    negated = dict(first, z=-first["z"])
    assert expand_lhs().expr.substitute(negated).coeffs[PARAM] == -ONE
    assert derive_relation(negated, SIDES) == derive_relation(first, SIDES) == T_SQ


def test_relation_assignment_validation():
    first = relation_assignments()[0]
    with pytest.raises(ValueError):
        derive_relation({k: v for k, v in first.items() if k != "z"}, SIDES)
    with pytest.raises(ValueError):
        derive_relation(dict(first, extra=ZERO), SIDES)
    with pytest.raises(ValueError):
        derive_relation(dict(first, z=AffineExpr.var("b")), SIDES)
    # a value that is neither an AffineExpr nor a RingElem is named
    for value in (0, "a"):
        with pytest.raises(ValueError, match=f"^assignment for 'w' is {value!r}, not"):
            derive_relation(dict(first, w=value), SIDES)


def test_hnf_of_the_canonical_shifts_is_unimodular():
    lattice = hnf_close([T_SQ, MINUS_ONE])
    oracle = seed_hnf.hnf_close([T_SQ, MINUS_ONE])
    assert oracle.hnf == ((1, 0), (0, 1))
    assert oracle.rank == 2 and oracle.index == 1
    assert lattice.generators == oracle.generators == (T_SQ, MINUS_ONE)
    # (1,0) = -t^2 - (-1) and (0,1) = t^2
    assert lattice.basis_combinations == oracle.basis_combinations == ((-1, -1), (1, 0))
    assert lattice.basis_columns() == oracle.basis_columns() == ((1, 0), (0, 1))
    assert seed_hnf.combination_sums(lattice) == ((1, 0), (0, 1))
    assert seed_hnf.contains(oracle, RingElem(17, -23))


def test_collapse_lattices_are_frozen_dataclass_values():
    lattices = [hnf_close(pair) for pair in ((T_SQ, MINUS_ONE), (T_SQ, ONE), (T, T_SQ))]
    assert_frozen_dataclass_semantics(
        CollapseLattice, ("generators", "basis_combinations"),
        [(lattice.generators, lattice.basis_combinations) for lattice in lattices])


def test_hnf_worked_examples():
    unit = hnf_close([T_SQ, ONE])                  # {(0,1), (1,1)}
    assert seed_hnf.hnf_close([T_SQ, ONE]).index == 1
    # (1,0) = -t^2 + (1,1) and (0,1) = t^2
    assert unit.basis_combinations == ((-1, 1), (1, 0))
    assert seed_hnf.combination_sums(unit) == unit.basis_columns() == ((1, 0), (0, 1))
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
        assert seed_hnf.combination_sums(lattice) == lattice.basis_columns()


def test_determinant_certificate_matches_the_general_hnf():
    rng = random.Random(14)
    unimodular = 0
    for _ in range(4000):
        pair = [RingElem(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
        oracle = seed_hnf.hnf_close(pair)
        if oracle.index == 1:
            unimodular += 1
            assert oracle.hnf == ((1, 0), (0, 1))
            lattice = hnf_close(pair)
            assert lattice.generators == oracle.generators
            assert lattice.basis_combinations == oracle.basis_combinations
            assert lattice.basis_columns() == oracle.basis_columns()
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
    assert orbit2_collapse(100, random.Random(0)) == 1
    assert orbit2_collapse(0, random.Random(0)) == 1  # symbolic witness identity alone
    with pytest.raises(ValueError, match="sample_count must be at least 0, got -1"):
        orbit2_collapse(-1, random.Random(0))
    wit = orbit_witness(ZERO, 2)
    assert wit == Point(1, RingElem(3, 2))
    assert op(Point(2, ZERO), wit) == Point(2, ZERO)


def test_verify_theorem_report():
    report = verify_theorem()
    assert report.total == 2
    assert report.orbit1_classes == 1 and report.orbit2_classes == 1
    assert seed_hnf.combination_sums(report.lattice) == ((1, 0), (0, 1))
    assert report.relation_shifts == (T_SQ, MINUS_ONE)
    assert T in report.shift_chain
    assert report.lhs_expansion == expand_lhs()
    text = report.render()
    assert text.endswith("total classes: 2\n")
    assert "index=1" in text
    # a report of samples=-3 would claim a run whose sampled checks never ran
    with pytest.raises(ValueError, match="samples must be at least 0, got -3"):
        verify_theorem(samples=-3)



@pytest.mark.parametrize("count", [True, False, 1.0, "3", None])
def test_a_sample_count_must_be_an_int(count):
    # a bool is an int subclass: verify_theorem(True) would run one sample
    # and report samples=True
    with pytest.raises(TypeError, match="samples must be an int"):
        verify_theorem(count)
    with pytest.raises(TypeError, match="sample_count must be an int"):
        orbit2_collapse(count, random.Random(0))


@pytest.mark.parametrize("seed", [None, True, 1.0, "3"])
def test_a_seed_must_be_an_int(seed):
    # random.Random(None) seeds from the operating system's entropy and
    # Random(True) as Random(1), while the report would print the seed given
    with pytest.raises(TypeError, match=f"^seed must be an int, got {seed!r}$"):
        verify_theorem(0, seed=seed)


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
    # one failure family, which verify-paper catches as CollapseError
    for cls in (ExpansionMismatch, NonUniformRelation, WitnessFailure):
        assert issubclass(cls, CollapseError) and str(cls("boom")) == "boom"
        assert cls("boom").stage == cls.stage
    assert issubclass(NonUniformRelation, ValueError)


# one wrong coefficient in op_kernel or op_inv_kernel, the closed forms of op
# and op_inv
KERNEL_MUTANTS = [
    ("op_kernel", "y1 - y2,", "y1 + y2,"),
    ("op_kernel", "x1 - x2 +", "x1 + x2 +"),
    ("op_kernel", "2 * y2 - y1", "3 * y2 - y1"),
    ("op_inv_kernel", "- y1 + y2", "- y1 - y2"),
    ("op_inv_kernel", "- 2 * y2", "- 3 * y2"),
    ("op_inv_kernel", "u1 + u2, u1", "u1 + 2 * u2, u1"),
]

# a wrong coefficient of the witness kernel, and a witness left in the
# orbit it should leave, with the transport check each one trips
WITNESS_MUTANTS = [
    ("witness_kernel", "2 * a + b", "2 * a - b", "does not reach it"),
    ("witness_kernel", "other = 3 - orbit", "other = orbit", "left orbit 1"),
]


def install_mutant(monkeypatch, name, old, new):
    """Replace affine.<name> by its source with `old` made `new`, in every
    module of the package that binds it."""
    original = getattr(affine, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    namespace = dict(vars(affine))
    exec(compile(source.replace(old, new), affine.__file__, "exec"), namespace)
    for module in (affine, collapse):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, namespace[name])


def mutant_ids(mutants):
    return [f"{old} -> {new} in {name}" for name, old, new, *_ in mutants]


@pytest.mark.parametrize("name, old, new", KERNEL_MUTANTS,
                         ids=mutant_ids(KERNEL_MUTANTS))
def test_a_wrong_kernel_coefficient_fails_verification_at_the_expansion(
        monkeypatch, name, old, new):
    # the sampled check compares the closed form against the symbolic
    # expansion, which the mutant leaves alone: the frozen coefficients still
    # match, and the concrete samples disagree with them
    install_mutant(monkeypatch, name, old, new)
    expand_lhs()
    expand_rhs()
    with pytest.raises(CollapseError, match="disagrees with the expansion") as info:
        verify_theorem(200)
    assert info.value.stage == "expansion"


@pytest.mark.parametrize("name, old, new, failure", WITNESS_MUTANTS,
                         ids=mutant_ids(WITNESS_MUTANTS))
def test_a_wrong_witness_kernel_fails_verification_at_the_transport(
        monkeypatch, name, old, new, failure):
    install_mutant(monkeypatch, name, old, new)
    with pytest.raises(WitnessFailure, match=failure) as info:
        verify_theorem(200)
    assert info.value.stage == "orbit-2 transport"


def test_a_kernel_mutant_fails_with_the_first_sample_of_seed_0(monkeypatch):
    # the sampled values in the message pin the order of the draws: w, x,
    # y, z, each n1 before n2, as random_elem draws them
    install_mutant(monkeypatch, *KERNEL_MUTANTS[0])
    with pytest.raises(CollapseError) as info:
        verify_theorem(200, seed=0)
    assert str(info.value) == (
        "concrete lhs disagrees with the expansion at {"
        "'w': RingElem(n1=-1, n2=47), 'x': RingElem(n1=3, n2=-45), "
        "'y': RingElem(n1=-17, n2=15), 'z': RingElem(n1=12, n2=1)}")


@pytest.mark.parametrize("name, old, new, failure", WITNESS_MUTANTS,
                         ids=mutant_ids(WITNESS_MUTANTS))
def test_a_witness_mutant_fails_with_the_first_orbit2_sample_of_seed_0(
        monkeypatch, name, old, new, failure):
    # the orbit-2 samples are drawn after the 200 expansion samples, so the
    # value in the message pins the draws of both loops: 1,600 integers,
    # then the first orbit-2 pair
    install_mutant(monkeypatch, name, old, new)
    with pytest.raises(WitnessFailure) as info:
        verify_theorem(200, seed=0)
    assert str(info.value) == f"witness for (24,-36) {failure}"


# undoing every translation by orbit 1 as well: the expansion samples fail
# with it, and on the orbit-2 samples only the translation check sees it
TRANSPORT_MUTANT = ("reversed_kernel", "if j == 2:", "if j != 0:")
# the reversed operation returning the acting element's tag
TAG_MUTANT = ("reversed_kernel", "return i, n1, n2", "return j, n1, n2")


# with no samples, no sampled loop runs before the separation stage
def test_a_kernel_that_crosses_tags_fails_verification_at_the_separation(
        monkeypatch):
    install_mutant(monkeypatch, *TAG_MUTANT)
    with pytest.raises(CollapseError) as info:
        verify_theorem(0)
    assert info.value.stage == "separation"
    assert str(info.value) == ("tag 1 acted on by tag 2 gives tag 2 on pairs"
                               " and 1 symbolically")


def test_a_symbolic_inverse_that_crosses_tags_fails_the_separation(monkeypatch):
    # expand_lhs already checks the tag of its one crossing term, so
    # verify_theorem stops there; the separation stage sees the mutant too
    install_mutant(monkeypatch, "op_inv", "_element(a.orbit", "_element(b.orbit")
    with pytest.raises(CollapseError) as info:
        collapse.orbits_stay_apart()
    assert info.value.stage == "separation"
    assert str(info.value) == ("tag 1 acted on by tag 2 gives tag 1 on pairs"
                               " and 2 symbolically")
    with pytest.raises(ExpansionMismatch, match="expected orbit 1, got 2"):
        verify_theorem(0)


def test_combine_dropping_a_values_constant_fails_at_the_expansion(monkeypatch):
    # the symbolic arithmetic, not a kernel: the frozen coefficients catch
    # it before any sample is drawn
    install_mutant(monkeypatch, "combine", "value = value.constant", "value = ZERO")
    with pytest.raises(ExpansionMismatch, match="^lhs: constant ") as info:
        verify_theorem(0)
    assert info.value.stage == "expansion"


def test_a_reversed_kernel_that_undoes_every_translation_fails_the_transport(
        monkeypatch):
    install_mutant(monkeypatch, *TRANSPORT_MUTANT)
    with pytest.raises(WitnessFailure) as info:
        orbit2_collapse(200, random.Random(0))
    assert str(info.value) == ("translation by (48,48)@1 differs between the"
                               " two structures")
    assert info.value.stage == "orbit-2 transport"


# the reversed operation inverting translations that act on orbit-2 points
# too: the kernels and the tags are untouched, and the sides of the medial
# law act on orbit-1 points only, so only the symbolic transport sees it
REVERSED_OP_MUTANT = ("reversed_op", "if b.orbit == 2 else",
                      "if b.orbit == 2 or a.orbit == 2 else")


def test_a_reversed_op_that_moves_orbit2_points_fails_the_transport(monkeypatch):
    install_mutant(monkeypatch, *REVERSED_OP_MUTANT)
    with pytest.raises(WitnessFailure) as info:
        verify_theorem(0)
    assert info.value.stage == "orbit-2 transport"
    assert str(info.value) == "symbolic witness identity failed after reversal"
    assert outcome(seed_sampled.verify_theorem, 0, 0) == outcome(verify_theorem, 0, 0)
    collapse.orbits_stay_apart()


def test_a_fault_that_no_single_sample_shows_still_fails_the_chunk(monkeypatch):
    # a reversed kernel that goes wrong only on packed values: every sample
    # passes alone, so the chunk's own error is raised, not lost
    install_mutant(monkeypatch, "reversed_kernel", "return i, n1, n2",
                   "return i, n1 + (abs(x1) > 2**40), n2")
    assert verify_theorem(1).total == 2
    with pytest.raises(ExpansionMismatch) as info:
        verify_theorem(200)
    assert info.value.stage == "expansion"

def swap_gap_law(monkeypatch):
    # product_pair with its second factor's coordinates swapped: a wrong
    # gap law that the lhs and rhs checks do not see
    monkeypatch.setattr(collapse, "product_pair",
                        lambda a, b, c, d: ring.product_pair(a, b, d, c))


def installer(name, old, new, *_):
    return lambda monkeypatch: install_mutant(monkeypatch, name, old, new)


SAMPLED_MUTANTS = KERNEL_MUTANTS + WITNESS_MUTANTS + [TRANSPORT_MUTANT, TAG_MUTANT]
FAULTS = ([lambda monkeypatch: None]
          + [installer(*mutant) for mutant in SAMPLED_MUTANTS] + [swap_gap_law])
FAULT_IDS = ["no fault"] + mutant_ids(SAMPLED_MUTANTS) + ["swapped gap law"]


def outcome(run, *args):
    """What run(*args) returns, or the type, stage and message it raises."""
    try:
        return run(*args)
    except CollapseError as error:
        return type(error), error.stage, str(error)


@pytest.mark.parametrize("fault", FAULTS, ids=FAULT_IDS)
def test_the_chunked_checks_report_what_the_scalar_loops_report(monkeypatch, fault):
    # tests/seed_sampled.py runs the sampled checks one sample at a time;
    # the sample counts end inside, at and just past chunk boundaries
    fault(monkeypatch)
    failures = set()
    for seed in range(20):
        for samples in (0, 1, 7, 255, 256, 257, 600):
            expected = outcome(seed_sampled.verify_theorem, samples, seed)
            assert outcome(verify_theorem, samples, seed) == expected
            r, s = random.Random(seed), random.Random(seed)
            transported = outcome(orbit2_collapse, samples, r)
            assert transported == outcome(seed_sampled.orbit2_collapse, samples, s)
            if transported == 1:
                assert r.getstate() == s.getstate()
            failures.add(expected if expected.__class__ is tuple else None)
    # each fault is caught, and nothing else is
    assert failures == {None} if fault is FAULTS[0] else len(failures) > 1


def pack(values):
    """sum(v_k * 2^(64k)): one lane per value, lane 0 first."""
    return sum(v << (8 * LANE_BYTES * k) for k, v in enumerate(values))


def packed(results):
    """The lane-wise results of a kernel, each a tuple, packed per position."""
    return tuple(pack(column) for column in zip(*results))


# values at the draw bound, around zero, and far past it, so that the lanes
# have mixed signs and borrow from one another
EDGES = (50, -50, 49, -49, 1, -1, 0, 2**40, -2**40, 2**40 - 1, 1 - 2**40)


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_packed_evaluation_is_the_packing_of_the_lanewise_results(n):
    rng = random.Random(n)

    def column():
        return [rng.choice(EDGES) if rng.random() < 0.5
                else rng.randint(-2**40, 2**40) for _ in range(n)]

    ones = lane_ones(n)
    assert ones == pack([1] * n)
    for i, j in product(ORBIT_TAGS, ORBIT_TAGS):
        cols = [column() for _ in range(4)]
        lanes = list(zip(*cols))
        x1, x2, y1, y2 = map(pack, cols)
        for kernel in (op_kernel, op_inv_kernel):
            assert kernel((j - i) * ones, x1, x2, y1, y2) == packed(
                [kernel(j - i, *lane) for lane in lanes])
        tag, *values = reversed_kernel((i, x1, x2), (j, y1, y2), ones)
        assert (tag, *values) == (i, *packed(
            [reversed_kernel((i, a, b), (j, c, d))[1:] for a, b, c, d in lanes]))
    for orbit in ORBIT_TAGS:
        v1, v2 = column(), column()
        tag, *values = witness_kernel(orbit, pack(v1), pack(v2), ones)
        assert (tag, *values) == (3 - orbit, *packed(
            [witness_kernel(orbit, a, b)[1:] for a, b in zip(v1, v2)]))
    forms = [side.expr.linear_form(VARS) for side in SIDES] + [
        ((rng.randint(-9, 9), rng.randint(-9, 9)),
         tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in VARS))
        for _ in range(4)]
    for (c1, c2), rows in forms:
        cols = [column() for _ in range(8)]
        pairs = [(pack(cols[k]), pack(cols[k + 1])) for k in range(0, 8, 2)]
        expected = packed([evaluate_form(((c1, c2), rows), zip(lane[::2], lane[1::2]))
                           for lane in zip(*cols)])
        assert evaluate_form(((c1 * ones, c2 * ones), rows), pairs) == expected
    for a, b in [(1, -2), (0, 1), (-7, 3), (2**30, -2**30)]:
        c, d = column(), column()
        assert ring.product_pair(a, b, pack(c), pack(d)) == packed(
            [ring.product_pair(a, b, *lane) for lane in zip(c, d)])


def test_packing_reads_the_draws_lane_by_lane():
    draws = random.Random(3).randbytes(8 * 37)
    columns, ones = pack_columns(draws, 8)
    assert ones == lane_ones(37)
    for c, packed_column in enumerate(columns):
        assert packed_column == pack([v - 50 for v in draws[c::8]])
    assert pack_columns(b"", 2) == ([0, 0], 0)



def test_random_draws_are_the_draws_of_successive_random_pair_calls():
    # the sampled checks of verify-paper draw each chunk's values in one
    # random_draws call, and verify-paper never prints its samples, so only
    # this test sees a drift in the sample stream: the values and the
    # generator state afterwards must be those of one random_pair call per
    # pair, that is, of two randint calls (tests/seed_ring.py)
    bound = SAMPLE_BOUND
    for count in range(10):
        for seed in range(20):
            r, s = random.Random(seed), random.Random(seed)
            draws = random_draws(r, 2 * count)
            pairs = [(n1 - bound, n2 - bound)
                     for n1, n2 in zip(draws[::2], draws[1::2])]
            assert pairs == [random_pair(s, bound) for _ in range(count)]
            assert r.getstate() == s.getstate()
            # and the next draw carries on the same stream
            assert random_draws(r, 1)[0] - bound == s.randint(-bound, bound)
    # a long request, which takes one round more for each shortfall
    r, s = random.Random(5), random.Random(5)
    assert list(random_draws(r, 3000)) == [
        s.randint(-bound, bound) + bound for _ in range(3000)]
    assert r.getstate() == s.getstate()

def test_every_lane_value_stays_far_inside_its_lane():
    # every value the sampled checks compute is affine in the draws, so its
    # largest magnitude on the draw box is at a vertex: check them all
    bound = collapse.SAMPLE_BOUND
    gap = T.scale_t(2) - T
    largest = 0
    for v in product((-bound, bound), repeat=8):
        w, x, y, z = (1, *v[0:2]), (1, *v[2:4]), (1, *v[4:6]), (2, *v[6:8])
        inner = [reversed_kernel(a, b) for a, b in ((w, x), (y, z), (w, y), (x, z))]
        lhs = reversed_kernel(inner[0], inner[1])
        rhs = reversed_kernel(inner[2], inner[3])
        values = [n for value in inner + [lhs, rhs] for n in value[1:]]
        values += [lhs[1] - rhs[1], lhs[2] - rhs[2], v[2] - v[4], v[3] - v[5],
                   *ring.product_pair(gap.n1, gap.n2, v[2] - v[4], v[3] - v[5])]
        for (n1, n2), rows in (side.expr.linear_form(VARS) for side in SIDES):
            for (a, b, p, q), (x1, x2) in zip(rows, zip(v[::2], v[1::2])):
                n1 += a * x1 + p * x2
                n2 += b * x1 + q * x2
                values += [n1, n2]
        largest = max(largest, *map(abs, values))
    for v1, v2 in product((-bound, bound), repeat=2):
        tag, w1, w2 = witness_kernel(2, v1, v2)
        plain = op_kernel(tag - 2, 0, 0, w1, w2)
        moved = reversed_kernel((2, 0, 0), (tag, w1, w2))
        largest = max(largest, abs(w1), abs(w2), *map(abs, plain + moved[1:]))
    assert bound <= largest < 2**11


def test_verify_theorem_runs_each_kernel_once_per_chunk(monkeypatch):
    calls = {"random_draws": 0, "reversed_kernel": 0, "witness_kernel": 0,
             "evaluate_form": 0}
    for name in calls:
        original = getattr(collapse, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(collapse, name, counted)
    verify_theorem(2 * CHUNK + 1)
    # three chunks of expansion samples, then three of orbit-2 samples, then
    # one call per tag pair at the separation stage
    assert calls == {"random_draws": 6, "reversed_kernel": 3 * 6 + 3 + 4,
                     "witness_kernel": 3, "evaluate_form": 3 * 2}


def test_verify_theorem_memory_stays_flat_as_the_samples_grow():
    # the draws of one chunk at a time, never those of the whole run
    tracemalloc.start()
    try:
        peaks = []
        for samples in (200, 20_000):
            tracemalloc.reset_peak()
            verify_theorem(samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
