"""End-to-end machine check that reversing orbit 2 of the two-orbit affine
quandle and then forcing the medial law collapses the carrier to exactly two
elements.

Documented lemma (the engine behind everything here): for tags (1,1,1,2) the
mediality gap of the reversed operation,

    reversed ((w,x),(y,z))  minus  reversed ((w,y),(x,z)),

equals (t^3 - t)*(x - y) -- independent of w and z.  Every violated medial
instance therefore forces an identification of the form  v ~ v + s  on orbit
1, a pure shift.  derive_relation realises one by a substitution in a
parameter a: a cancels from the gap, and its coefficient in the lhs is a
unit, so the lhs runs through all of orbit 1 and the shift holds at every
v.  Shifts compose, so the full set of forced shifts is the
subgroup of the ring's additive group (= Z^2 in the canonical pair basis)
generated by the shifts realised by concrete substitutions.  Two of them
generate all of Z^2: their 2x2 determinant is 1, and its adjugate writes each
unit vector as an explicit integer combination of the two, a certificate
that is checked by recomputing the sums.  It holds just the two generators
and those combinations: any other determinant than +-1 is rejected, so the
lattice it certifies is always Z^2.  Orbit 1 thus collapses to one class.
Orbit 2 follows by transport: every orbit-2 value is the image of the
orbit-2 zero under a translation by an orbit-1 element, and translations by
orbit-1 elements are untouched by the reversal.  No operation crosses orbit
tags, so no identification between the two final classes is ever forced
(orbits_stay_apart): the total is exactly two.

verify_theorem backs the expansion and the transport with sampled checks
that share no code with the symbolic derivation: the integer kernels of
affine.py run on random values, a chunk of samples at a time (CHUNK,
_check_samples), and the one-sample-at-a-time loops of
tests/seed_sampled.py are their test oracle.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .affine import (ORBIT_TAGS, AffineExpr, SymPoint, evaluate_form, op,
                     op_kernel, orbit_witness, reversed_kernel, reversed_op,
                     witness_kernel)
from .ring import (ONE, T, ZERO, FrozenValue, RingElem, product_pair,
                   render_pair)

PARAM = "a"
VARS = ("w", "x", "y", "z")

# The sampled checks draw integers in [-SAMPLE_BOUND, SAMPLE_BOUND] and run
# CHUNK samples at a time, each coordinate of a chunk packed into one
# integer sum(v_k * 2^(64k)) with one 64-bit lane per sample (SIMD within a
# register).  The kernels are integer-affine, so one call on packed values
# computes every lane at once, provided each constant is multiplied by the
# integer with 1 in every lane (lane_ones) and no lane leaves
# [-2^63, 2^63).  Every value a check computes is affine in the draws, so
# its largest magnitude on draws in [-50, 50] is taken at a vertex of that
# box; at every vertex each value, and each partial sum of a linear form,
# stays below 2^11 (tests/test_collapse.py), so every lane stays below 2^20
# in magnitude, far inside its 64 bits.  Two packed integers are then equal
# exactly when every lane is, so one comparison checks a whole chunk.
SAMPLE_BOUND = 50
CHUNK = 256
LANE_BYTES = 8
_ONE_LANE = (1).to_bytes(LANE_BYTES, "little")


class CollapseError(RuntimeError):
    """A verification stage produced something other than the expected collapse."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


class _StageFailure(CollapseError):
    """A CollapseError whose stage is fixed by its class."""

    def __init__(self, message: str) -> None:
        super().__init__(self.stage, message)


class ExpansionMismatch(_StageFailure):
    """The expansion disagrees with its frozen coefficients or a sample."""

    stage = "expansion"


class NonUniformRelation(_StageFailure, ValueError):
    """A substitution whose forced relation is not a pure shift."""

    stage = "relations"


class WitnessFailure(_StageFailure):
    """The orbit-2 transport argument failed on a witness."""

    stage = "orbit-2 transport"


# frozen expansion of reversed ((w,x),(y,z)) at tags (1,1,1,2):
# constant -t, then coefficients t^2, t^3, t, -t^3 on w, x, y, z
LHS_CONSTANT = RingElem(-1, 0)
LHS_COEFFS = {
    "w": RingElem(0, 1),
    "x": RingElem(1, -1),
    "y": RingElem(1, 0),
    "z": RingElem(-1, 1),
}


def _theorem_points():
    w = SymPoint(1, AffineExpr.var("w"))
    x = SymPoint(1, AffineExpr.var("x"))
    y = SymPoint(1, AffineExpr.var("y"))
    z = SymPoint(2, AffineExpr.var("z"))
    return w, x, y, z


def _require_expansion(out: SymPoint, constant: RingElem,
                       coeffs: Mapping[str, RingElem], label: str) -> None:
    if out.orbit != 1:
        raise ExpansionMismatch(f"{label}: expected orbit 1, got {out.orbit}")
    if out.expr.constant != constant:
        raise ExpansionMismatch(
            f"{label}: constant {out.expr.constant} != expected {constant}")
    if out.expr.coeffs != coeffs:
        raise ExpansionMismatch(
            f"{label}: coefficients {out.expr.coeffs} != expected {coeffs}")


def expand_lhs() -> SymPoint:
    """Symbolic reversed ((w,x),(y,z)) with tags (1,1,1,2), coefficient-checked."""
    w, x, y, z = _theorem_points()
    out = reversed_op(reversed_op(w, x), reversed_op(y, z))
    _require_expansion(out, LHS_CONSTANT, LHS_COEFFS, "lhs")
    return out


def expand_rhs() -> SymPoint:
    """The medial partner term reversed ((w,y),(x,z)): x and y swap coefficients."""
    w, x, y, z = _theorem_points()
    out = reversed_op(reversed_op(w, y), reversed_op(x, z))
    swapped = dict(LHS_COEFFS, x=LHS_COEFFS["y"], y=LHS_COEFFS["x"])
    _require_expansion(out, LHS_CONSTANT, swapped, "rhs")
    return out


def derive_relation(assignment: Mapping[str, AffineExpr | RingElem],
                    sides: tuple[SymPoint, SymPoint]) -> RingElem:
    """Shift s forced by equating the two medial sides under a substitution.

    The assignment must cover w, x, y, z with expressions affine in the
    single parameter 'a'.  The parameter has to cancel between the two
    sides, and its coefficient c in the substituted lhs has to be a unit:
    multiplication by c, the 2x2 integer matrix with columns c*(1, 0) and
    c*(0, 1), has determinant +-1, so the lhs takes every value of orbit 1
    as 'a' varies.  Otherwise NonUniformRelation is raised, since the
    relation is not one uniform shift of all of orbit 1.  Returns s with
    v ~ v + s  forced on orbit 1.  `sides` is (expand_lhs(), expand_rhs()),
    which verify_theorem expands once per run.
    """
    extra_keys = set(assignment) - set(VARS)
    if extra_keys:
        raise ValueError(f"unknown assignment keys {sorted(extra_keys)}")
    for name in VARS:
        if name not in assignment:
            raise ValueError(f"assignment missing {name!r}")
        expr = assignment[name]
        if isinstance(expr, AffineExpr):
            stray = set(expr.coeffs) - {PARAM}
            if stray:
                raise ValueError(
                    f"assignment for {name!r} uses {sorted(stray)}; only {PARAM!r} is allowed")
        elif not isinstance(expr, RingElem):
            raise ValueError(f"assignment for {name!r} is {expr!r}, not an"
                             " AffineExpr or RingElem")
    lhs, rhs = sides
    swept = lhs.expr.substitute(assignment)
    gap = rhs.expr.substitute(assignment) - swept
    residual = gap.coeffs.get(PARAM)
    if residual is not None:
        raise NonUniformRelation(
            f"parameter does not cancel; residual coefficient {residual}")
    _, ((a, b, p, q),) = swept.linear_form((PARAM,))
    det = a * q - p * b
    if det not in (1, -1):
        raise NonUniformRelation(
            f"lhs coefficient {swept.coeffs.get(PARAM, ZERO)} of {PARAM!r} is not"
            f" a unit (determinant {det}); the shift is forced on part of orbit 1")
    return gap.constant


def relation_assignments() -> list[dict[str, AffineExpr | RingElem]]:
    """The two canonical substitutions; their shifts are t^2 and -1."""
    t_inv3 = ONE.scale_t(-3)
    first = {
        "w": ONE,
        "x": ONE,
        "y": ZERO,
        "z": AffineExpr.var(PARAM, -t_inv3),
    }
    second = {
        "w": ZERO,
        "x": ZERO,
        "y": ONE.scale_t(-2),
        "z": AffineExpr(t_inv3, {PARAM: -t_inv3}),  # -t^(-3) * (a - 1)
    }
    return [first, second]


def combine_shifts(s1: RingElem, s2: RingElem) -> list[RingElem]:
    """Composition chain of two shift relations: s1, s2, their sum, and the
    sum's inverse.  For the canonical shifts t^2 and -1 the inverted sum is
    the shift t, the intermediate step of the collapse; the lattice
    certificate subsumes the chain, which is kept for the report."""
    total = s1 + s2
    return [s1, s2, total, -total]


class CollapseLattice(FrozenValue):
    """Two shift vectors, certified to generate all of Z^2.

    basis_combinations expresses each unit column (1, 0) and (0, 1) as an
    integer combination of the generators: the checkable certificate that
    they fill Z^2.  hnf_close builds one only for unimodular generators, so
    the lattice is always Z^2, with the identity as its Hermite form.
    """

    __slots__ = ("generators", "basis_combinations")

    def __init__(self, generators: tuple[RingElem, ...],
                 basis_combinations: tuple[tuple[int, ...], tuple[int, ...]]) -> None:
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "basis_combinations", basis_combinations)

    def basis_columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (1, 0), (0, 1)


def _verify_lattice(lattice: CollapseLattice) -> None:
    # each basis column must be the stated integer combination of the generators
    for col, comb in zip(lattice.basis_columns(), lattice.basis_combinations):
        sx = sum(k * g.n1 for k, g in zip(comb, lattice.generators))
        sy = sum(k * g.n2 for k, g in zip(comb, lattice.generators))
        if (sx, sy) != col:
            raise CollapseError("lattice",
                                f"combination certificate broken for column {col}")


def hnf_close(shifts: Sequence[RingElem]) -> CollapseLattice:
    """Certify by determinant that two shifts generate all of Z^2.

    For generators (p1, q1) and (p2, q2) the index of their span is |d| with
    d = p1*q2 - p2*q1 (infinite when d = 0).  Unless d = +-1, CollapseError
    is raised: orbit 1 does not collapse.  Otherwise the unique combinations
    giving the unit columns are the columns of adj/d, with 1/d = d; the
    general Hermite form of any set of shifts is the test oracle
    tests/seed_hnf.py.
    """
    s1, s2 = shifts
    d = s1.n1 * s2.n2 - s2.n1 * s1.n2
    if d not in (1, -1):
        raise CollapseError(
            "lattice",
            f"shift lattice has index {abs(d) or None}, orbit 1 does not collapse")
    lattice = CollapseLattice((s1, s2),
                              ((s2.n2 * d, -s1.n2 * d), (-s2.n1 * d, s1.n1 * d)))
    _verify_lattice(lattice)
    return lattice


def lane_ones(n: int) -> int:
    """The integer with 1 in each of n lanes."""
    return int.from_bytes(_ONE_LANE * n, "little")


# randint(-SAMPLE_BOUND, SAMPLE_BOUND) draws from _SPAN values with _BITS
# random bits an attempt; _TOP_BITS maps a word's top byte to the attempt it
# decides, and _REJECT holds the top bytes of the attempts it rejects
_SPAN = 2 * SAMPLE_BOUND + 1
_BITS = _SPAN.bit_length()
_TOP_BITS = bytes(b >> (8 - _BITS) for b in range(256))
_REJECT = bytes(range(_SPAN << (8 - _BITS), 256))


def random_draws(rng: random.Random, count: int) -> bytes:
    """`count` independent uniform integers in [-SAMPLE_BOUND, SAMPLE_BOUND],
    each as the byte value + SAMPLE_BOUND, drawn as successive
    rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) calls draw them.

    randint draws randrange(_SPAN), which takes getrandbits(_BITS), the top
    _BITS bits of the generator's next 32-bit word, until the value is below
    _SPAN.  getrandbits(32 * m) returns the next m words, least significant
    first, on every platform, so the top byte of each word gives each
    attempt, and translate keeps the accepted ones in order: it deletes the
    rejected top bytes, then maps each remaining one to its attempt.  Each
    attempt consumes one word, and a round asks only for the draws still
    missing, so the values and the generator's state afterwards are those
    of `count` randint calls.
    """
    draws = b""
    while len(draws) < count:
        need = count - len(draws)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        draws += words[3::4].translate(_TOP_BITS, _REJECT)
    return draws


def pack_columns(draws: bytes, width: int) -> tuple[list[int], int]:
    """The `width` columns of `draws`, laid out as random_draws returns
    them (`width` bytes per sample), as packed integers, one lane per
    sample in draw order, and lane_ones of the sample count."""
    n = len(draws) // width
    ones = lane_ones(n)
    lanes = bytearray(LANE_BYTES * n)
    columns = []
    for c in range(width):
        lanes[::LANE_BYTES] = draws[c::width]
        columns.append(int.from_bytes(lanes, "little") - SAMPLE_BOUND * ones)
    return columns, ones


def _sample(draws: bytes, width: int) -> list[RingElem]:
    """The ring values of the first sample of `draws`, n1 before n2."""
    values = [d - SAMPLE_BOUND for d in draws[:width]]
    return [RingElem(n1, n2) for n1, n2 in zip(values[::2], values[1::2])]


def _lanewise(form, ones: int):
    """A linear form whose constant pair reaches every lane of `ones`."""
    (c1, c2), rows = form
    return (c1 * ones, c2 * ones), rows


def _check_samples(rng: random.Random, count: int, width: int, check) -> None:
    """Run check(draws) on `count` samples of `width` draws each, CHUNK
    samples to a call, with each chunk's draws from one random_draws call.

    check packs its draws (pack_columns) and raises a CollapseError at the
    first check that fails, naming the first sample of its draws.  When a
    chunk fails, check runs again on each of its samples alone, in draw
    order, so the first failing sample raises, with the first check that
    fails at it, as the one-sample-at-a-time loops of tests/seed_sampled.py
    do.  If no sample fails alone, which only a kernel that does not act
    lane by lane can cause, the chunk's own error is raised.
    """
    for start in range(0, count, CHUNK):
        draws = random_draws(rng, width * min(CHUNK, count - start))
        try:
            check(draws)
        except CollapseError:
            for k in range(0, len(draws), width):
                check(draws[k:k + width])
            raise


def _require_count(name: str, count: int) -> None:
    if type(count) is not int:
        raise TypeError(f"{name} must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"{name} must be at least 0, got {count}")


def orbit2_collapse(sample_count: int, rng: random.Random) -> int:
    """Class count for orbit 2 once orbit 1 has collapsed (always 1).

    The witness identity op(zero-of-2, t^(-2)*(x+1) in orbit 1) = x-of-2 is
    checked symbolically, with op and with reversed_op, then on
    `sample_count` random values with the integer kernels of affine.py
    (_check_samples), confirming each time that the acting element lies in
    orbit 1 and that the reversed structure applies the very same
    translation.
    """
    _require_count("sample_count", sample_count)
    x = AffineExpr.var("x")
    witness = SymPoint(1, ONE.scale_t(-2) * (x + ONE))
    base = SymPoint(2, AffineExpr.const(ZERO))
    if op(base, witness) != SymPoint(2, x):
        raise WitnessFailure("symbolic witness identity failed")
    if reversed_op(base, witness) != SymPoint(2, x):
        raise WitnessFailure("symbolic witness identity failed after reversal")

    def check(draws: bytes) -> None:
        (v1, v2), ones = pack_columns(draws, 2)
        wit = witness_kernel(2, v1, v2, ones)
        tag, w1, w2 = wit
        if tag != 1:
            raise WitnessFailure(f"witness for {_sample(draws, 2)[0]} left orbit 1")
        plain = op_kernel((tag - 2) * ones, 0, 0, w1, w2)
        if plain != (v1, v2):
            raise WitnessFailure(f"witness for {_sample(draws, 2)[0]} does not reach it")
        if reversed_kernel((2, 0, 0), wit, ones) != (2, *plain):
            acting = orbit_witness(_sample(draws, 2)[0], 2)
            raise WitnessFailure(f"translation by {acting} differs between the two"
                                 " structures")

    _check_samples(rng, sample_count, 2, check)
    return 1


def orbits_stay_apart() -> None:
    """Check that forcing the medial law never joins the two orbits, the
    lower bound of the collapse, or raise CollapseError at stage
    'separation'.

    For each pair of tags (i, j), the reversed operation keeps the acted-on
    tag i, on concrete pairs (reversed_kernel) and on symbolic points with
    zero payloads (reversed_op), as only tags are read.  So the tags form a
    congruence whose quotient is the 2-element projection x*y = x, which is
    medial: both sides of its medial law equal the first tag.  The least
    medial congruence thus lies inside the tag partition.
    """
    zero = AffineExpr()
    for i in ORBIT_TAGS:
        for j in ORBIT_TAGS:
            concrete = reversed_kernel((i, 0, 0), (j, 0, 0))[0]
            symbolic = reversed_op(SymPoint(i, zero), SymPoint(j, zero)).orbit
            if concrete != i or symbolic != i:
                raise CollapseError(
                    "separation", f"tag {i} acted on by tag {j} gives tag"
                    f" {concrete} on pairs and {symbolic} symbolically")


class CollapseReport(FrozenValue):
    """What each stage of verify_theorem found; render gives the report
    that verify-paper prints."""

    __slots__ = ("lhs_expansion", "relation_shifts", "shift_chain", "lattice",
                 "orbit1_classes", "orbit2_classes", "samples", "seed")
    __hash__ = None  # it holds a SymPoint

    def __init__(self, lhs_expansion: SymPoint,
                 relation_shifts: tuple[RingElem, ...],
                 shift_chain: tuple[RingElem, ...], lattice: CollapseLattice,
                 orbit1_classes: int, orbit2_classes: int, samples: int,
                 seed: int) -> None:
        object.__setattr__(self, "lhs_expansion", lhs_expansion)
        object.__setattr__(self, "relation_shifts", relation_shifts)
        object.__setattr__(self, "shift_chain", shift_chain)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "orbit1_classes", orbit1_classes)
        object.__setattr__(self, "orbit2_classes", orbit2_classes)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)

    @property
    def total(self) -> int:
        return self.orbit1_classes + self.orbit2_classes

    def render(self) -> str:
        lines = [
            "two-element collapse verification",
            f"samples={self.samples} seed={self.seed}",
            "",
            "[expansion] reversed operation on ((w,x),(y,z)) with tags (1,1,1,2)",
            f"  {self.lhs_expansion}",
            "[relations] forced identifications on orbit 1 are pure shifts",
        ]
        for s in self.relation_shifts:
            lines.append(f"  shift {render_pair(s)}")
        lines.append(f"  chain {' '.join(render_pair(s) for s in self.shift_chain)}")
        lines.append("[lattice] subgroup of Z^2 generated by the shifts")
        lines.append("  hnf ((1, 0), (0, 1)) index=1")
        lines.append(f"[orbit 1] classes: {self.orbit1_classes}")
        lines.append(f"[orbit 2] transported through orbit-1 witnesses; classes: "
                     f"{self.orbit2_classes}")
        lines.append("no operation crosses orbit tags, so the two classes stay distinct")
        lines.append(f"total classes: {self.total}")
        return "\n".join(lines) + "\n"


def verify_theorem(samples: int = 200, seed: int = 0) -> CollapseReport:
    """Run the whole pipeline and return the report (total is 2 on success).

    Randomized coherence checks (symbolic expansion vs concrete evaluation,
    the (t^3 - t)*(x - y) gap law, and the orbit-2 witness transport) are
    driven by a generator seeded with `seed`, an int (TypeError otherwise,
    a bool included), so output is reproducible.

    The expansion check compares two independent derivations of the same
    term: the symbolic one builds it with op and op_inv in ring and
    AffineExpr arithmetic, checked against the frozen coefficients, while
    the concrete one runs the integer kernels of affine.py on tagged pairs.
    Each side is expanded once per run, and its AffineExpr.linear_form,
    integer rows built from the expansion's own coefficients, is what the
    samples evaluate with evaluate_form; the gap law is checked with
    product_pair.  Each sample draws w, x, y, z, n1 before n2, and the
    orbit-2 samples are drawn after all of them (_check_samples); the
    checks at a sample run in the order tag, lhs, rhs, gap law.  A wrong
    coefficient in either derivation is caught at stage 'expansion'.
    """
    _require_count("samples", samples)
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    rng = random.Random(seed)
    lhs = expand_lhs()
    rhs = expand_rhs()
    lhs_form = lhs.expr.linear_form(VARS)
    rhs_form = rhs.expr.linear_form(VARS)
    gap = T.scale_t(2) - T  # t^3 - t

    def check(draws: bytes) -> None:
        (w1, w2, x1, x2, y1, y2, z1, z2), ones = pack_columns(draws, 8)
        w, x, y, z = (1, w1, w2), (1, x1, x2), (1, y1, y2), (2, z1, z2)
        lt, l1, l2 = reversed_kernel(reversed_kernel(w, x, ones),
                                     reversed_kernel(y, z, ones), ones)
        rt, r1, r2 = reversed_kernel(reversed_kernel(w, y, ones),
                                     reversed_kernel(x, z, ones), ones)
        if lt != 1 or rt != 1:
            raise ExpansionMismatch("orbit tag leaked across copies")
        pairs = ((w1, w2), (x1, x2), (y1, y2), (z1, z2))
        if (l1, l2) != evaluate_form(_lanewise(lhs_form, ones), pairs):
            failed = "concrete lhs disagrees with the expansion"
        elif (r1, r2) != evaluate_form(_lanewise(rhs_form, ones), pairs):
            failed = "concrete rhs disagrees with the expansion"
        elif (l1 - r1, l2 - r2) != product_pair(gap.n1, gap.n2, x1 - y1, x2 - y2):
            failed = "gap law (t^3-t)(x-y) violated"
        else:
            return
        raise ExpansionMismatch(f"{failed} at {dict(zip(VARS, _sample(draws, 8)))}")

    _check_samples(rng, samples, 8, check)
    sides = (lhs, rhs)
    shifts = tuple(derive_relation(asg, sides) for asg in relation_assignments())
    chain = tuple(combine_shifts(shifts[0], shifts[1]))
    lattice = hnf_close(shifts)
    orbit2 = orbit2_collapse(samples, rng)
    orbits_stay_apart()
    return CollapseReport(lhs_expansion=lhs, relation_shifts=shifts,
                          shift_chain=chain, lattice=lattice,
                          orbit1_classes=1, orbit2_classes=orbit2,
                          samples=samples, seed=seed)
