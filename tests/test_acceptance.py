"""Acceptance gate: one pass/fail line per criterion, exact arithmetic only.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random

from quandleworks import (MEDIAL, ONE, T, T_SQ, ZERO, Point, RingElem,
                          derive_relation, expand_lhs, expand_rhs, n_quandle,
                          op, orbit_witness, quotient_by_identity,
                          relation_assignments, reduce, verify_theorem)

from conftest import partition_from_projection, random_poly
from seed_hnf import combination_sums
from seed_partitions import brute_force_smallest_congruence
from seed_ring import lift, random_elem
from seed_symbolic import check_axioms_symbolic

SEED = 20260815


def _report(num: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {verdict}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


def test_criterion_1_two_element_collapse():
    failures = []
    report = verify_theorem()
    if report.total != 2:
        failures.append(f"total {report.total}")
    if report.orbit1_classes != 1 or report.orbit2_classes != 1:
        failures.append(f"classes {report.orbit1_classes}/{report.orbit2_classes}")
    # the certificate: the basis combinations sum to the unit columns
    sums = combination_sums(report.lattice)
    if sums != ((1, 0), (0, 1)):
        failures.append(f"lattice combinations give {sums}")
    _report(1, "two-element collapse", failures)


def test_criterion_2_expansion_coefficients():
    failures = []
    out = expand_lhs()
    expected = {"w": RingElem(0, 1), "x": RingElem(1, -1),
                "y": RingElem(1, 0), "z": RingElem(-1, 1)}
    if out.expr.constant != RingElem(-1, 0):
        failures.append(f"constant {out.expr.constant}")
    if out.expr.coeffs != expected:
        failures.append(f"coefficients {out.expr.coeffs}")
    _report(2, "expansion coefficients", failures)


def test_criterion_3_relation_shifts():
    failures = []
    shifts = [derive_relation(a, (expand_lhs(), expand_rhs()))
              for a in relation_assignments()]
    if shifts != [RingElem(0, 1), RingElem(-1, -1)]:
        failures.append(f"shifts {shifts}")
    _report(3, "relation shifts", failures)


def test_criterion_4_general_shift_law():
    failures = []
    lhs, rhs = expand_lhs(), expand_rhs()
    gap_coeff = T.scale_t(2) - T
    rng = random.Random(SEED)
    for k in range(200):
        values = {name: random_elem(rng) for name in ("w", "x", "y", "z")}
        diff = lhs.expr.evaluate(values) - rhs.expr.evaluate(values)
        if diff != gap_coeff * (values["x"] - values["y"]):
            failures.append(f"sample {k}: {values}")
    _report(4, "general shift law", failures)


def test_criterion_5_canonical_form_homomorphism():
    failures = []
    rng = random.Random(SEED)
    polys = [random_poly(rng) for _ in range(500)]
    for k, p in enumerate(polys):
        q = polys[(k + 1) % len(polys)]
        rp, rq = reduce(p.coeffs), reduce(q.coeffs)
        if reduce(lift(rp).coeffs) != rp:
            failures.append(f"poly {k}: canonical pair does not round-trip")
        if reduce((p + q).coeffs) != rp + rq:
            failures.append(f"polys {k},{k + 1}: sum law")
        if reduce((p * q).coeffs) != rp * rq:
            failures.append(f"polys {k},{k + 1}: product law")
    _report(5, "canonical form homomorphism", failures)


def test_criterion_6_orbit_witnesses():
    failures = []
    rng = random.Random(SEED)
    for orbit in (1, 2):
        for k in range(200):
            value = random_elem(rng)
            wit = orbit_witness(value, orbit)
            if op(Point(orbit, ZERO), wit) != Point(orbit, value):
                failures.append(f"orbit {orbit} sample {k}: {value}")
    _report(6, "orbit witnesses", failures)


def test_criterion_7_symbolic_axiom_suite():
    failures = []
    plain = check_axioms_symbolic("plain")
    dist = plain.select("distributivity")
    medial = plain.select("mediality")
    if len(dist) != 8 or not all(c.passed for c in dist):
        failures.append("plain distributivity cases")
    if len(medial) != 16 or not all(c.passed for c in medial):
        failures.append("plain mediality cases")
    if plain.failures():
        failures.append("plain suite has failures")

    rev = check_axioms_symbolic("reversed")
    if not rev.quandle_axioms_ok:
        failures.append("reversed quandle axioms")
    broken = rev.failures()
    if not broken:
        failures.append("reversed mediality unexpectedly holds")
    for case in broken:
        if case.axiom != "mediality":
            failures.append(f"non-mediality failure {case.axiom}")
        values = case.counterexample
        if values is None or (case.lhs.expr.evaluate(values)
                              == case.rhs.expr.evaluate(values)):
            failures.append(f"no concrete counterexample for {case.orbits}")
    _report(7, "symbolic axiom suite", failures)


def test_criterion_8_oracle_equivalence(corpus):
    failures = []
    if len(corpus) < 30 or len({q.table for _, q in corpus}) < 30:
        failures.append(f"corpus too small: {len(corpus)} entries")
    if any(q.n > 5 for _, q in corpus):
        failures.append("corpus order exceeds 5")
    for name, q in corpus:
        for spec in (MEDIAL, n_quandle(2)):
            _, proj = quotient_by_identity(q, spec)
            if (partition_from_projection(proj)
                    != brute_force_smallest_congruence(q, spec)):
                failures.append(f"{name} with {spec.tag}")
    _report(8, "quotient oracle equivalence", failures)


def test_criterion_9_reversal_involution(corpus):
    failures = []
    for name, q in corpus:
        for block in q.orbits():
            rep = block[0]
            reversed_q = q.reverse_orbit(rep)
            if reversed_q.reverse_orbit(rep).table != q.table:
                failures.append(f"{name} rep {rep}: double reversal")
            for n in (2, 3):
                if q.is_n_quandle(n) and not reversed_q.is_n_quandle(n):
                    failures.append(f"{name} rep {rep}: lost {n}-quandle")
    _report(9, "reversal involution", failures)
