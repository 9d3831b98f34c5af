"""Test oracle: the sampled checks of verify_theorem, one sample at a time.

collapse.verify_theorem and collapse.orbit2_collapse run their sampled
checks on chunks of lane-packed integers, drawn by collapse.random_draws.
These are the same checks as plain loops over one sample at a time, each
value drawn with randint (seed_ring.random_pair), failing with the same
message at the first failing sample.  Every function they share with collapse.py is looked up
on the collapse module when it is called, so a mutant installed there
reaches both.
"""

import random

from quandleworks import collapse
from quandleworks.affine import AffineExpr, Point, SymPoint
from quandleworks.collapse import (VARS, CollapseReport, ExpansionMismatch,
                                   WitnessFailure)
from quandleworks.ring import ONE, T, ZERO, RingElem
from seed_ring import random_pair


def orbit2_collapse(sample_count: int, rng: random.Random) -> int:
    """collapse.orbit2_collapse with one sample per loop step."""
    if sample_count < 0:
        raise ValueError(f"sample_count must be at least 0, got {sample_count}")
    x = AffineExpr.var("x")
    witness = SymPoint(1, ONE.scale_t(-2) * (x + ONE))
    base = SymPoint(2, AffineExpr.const(ZERO))
    if collapse.op(base, witness) != SymPoint(2, x):
        raise WitnessFailure("symbolic witness identity failed")
    if collapse.reversed_op(base, witness) != SymPoint(2, x):
        raise WitnessFailure("symbolic witness identity failed after reversal")

    zero2 = (2, 0, 0)
    for _ in range(sample_count):
        v1, v2 = random_pair(rng)
        wit = collapse.witness_kernel(2, v1, v2)
        tag, w1, w2 = wit
        if tag != 1:
            raise WitnessFailure(f"witness for {RingElem(v1, v2)} left orbit 1")
        plain = collapse.op_kernel(tag - 2, 0, 0, w1, w2)
        if plain != (v1, v2):
            raise WitnessFailure(f"witness for {RingElem(v1, v2)} does not reach it")
        if collapse.reversed_kernel(zero2, wit) != (2, *plain):
            raise WitnessFailure(f"translation by {Point(tag, RingElem(w1, w2))}"
                                 " differs between the two structures")
    return 1


def _ring_values(sample):
    return {v: RingElem(n1, n2) for v, (n1, n2) in zip(VARS, sample)}


def verify_theorem(samples: int = 200, seed: int = 0) -> CollapseReport:
    """collapse.verify_theorem with one sample per loop step."""
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    rng = random.Random(seed)
    lhs = collapse.expand_lhs()
    rhs = collapse.expand_rhs()
    lhs_form = lhs.expr.linear_form(VARS)
    rhs_form = rhs.expr.linear_form(VARS)
    gap = T.scale_t(2) - T  # t^3 - t
    reversed_kernel = collapse.reversed_kernel

    for _ in range(samples):
        sample = [random_pair(rng) for _ in VARS]
        (w1, w2), (x1, x2), (y1, y2), (z1, z2) = sample
        w, x, y, z = (1, w1, w2), (1, x1, x2), (1, y1, y2), (2, z1, z2)
        lt, l1, l2 = reversed_kernel(reversed_kernel(w, x), reversed_kernel(y, z))
        rt, r1, r2 = reversed_kernel(reversed_kernel(w, y), reversed_kernel(x, z))
        if lt != 1 or rt != 1:
            raise ExpansionMismatch("orbit tag leaked across copies")
        if (l1, l2) != collapse.evaluate_form(lhs_form, sample):
            raise ExpansionMismatch("concrete lhs disagrees with the"
                                    f" expansion at {_ring_values(sample)}")
        if (r1, r2) != collapse.evaluate_form(rhs_form, sample):
            raise ExpansionMismatch("concrete rhs disagrees with the"
                                    f" expansion at {_ring_values(sample)}")
        if (l1 - r1, l2 - r2) != collapse.product_pair(gap.n1, gap.n2,
                                                       x1 - y1, x2 - y2):
            raise ExpansionMismatch("gap law (t^3-t)(x-y) violated at"
                                    f" {_ring_values(sample)}")

    sides = (lhs, rhs)
    shifts = tuple(collapse.derive_relation(asg, sides)
                   for asg in collapse.relation_assignments())
    chain = tuple(collapse.combine_shifts(shifts[0], shifts[1]))
    lattice = collapse.hnf_close(shifts)
    orbit2 = orbit2_collapse(samples, rng)
    collapse.orbits_stay_apart()
    return CollapseReport(lhs_expansion=lhs, relation_shifts=shifts,
                          shift_chain=chain, lattice=lattice,
                          orbit1_classes=1, orbit2_classes=orbit2,
                          samples=samples, seed=seed)
