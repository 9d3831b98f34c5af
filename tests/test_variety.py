"""Smallest-congruence quotients against the partition-enumeration oracle."""

import random
from functools import partial

import pytest

import seed_partitions
from conftest import (assert_frozen_dataclass_semantics,
                      enumerate_small_quandles, partition_from_projection,
                      two_orbit_quandle_mod)
from quandleworks import (MEDIAL, Congruence, FiniteQuandle, IdentitySpec,
                          InternalAxiomFailure, affine_quandle, dihedral_quandle,
                          n_quandle, quandle, quotient_by_identity, relabel,
                          trivial_quandle, variety)
from seed_closure import (UnionFindCongruence, _close_compatibility, round_projection,
                          seed_projection)
from seed_partitions import TooLarge, brute_force_smallest_congruence

DIFFERENTIAL_SPECS = (MEDIAL,) + tuple(n_quandle(k) for k in (1, 2, 3, -2, 6))


def test_identity_spec_validation():
    with pytest.raises(ValueError):
        IdentitySpec("associative")
    # the medial law has no parameter, so a nonzero one would only make a
    # spec that compares unequal to MEDIAL yet quotients the same way
    with pytest.raises(ValueError, match="medial law takes no parameter"):
        IdentitySpec("medial", 5)
    assert IdentitySpec("medial", 0) == MEDIAL
    # bool and float parameters are not translation powers, even when they
    # compare equal to one
    for bad in (2.5, 2.0, "2", True, None):
        with pytest.raises(TypeError, match="parameter must be an int"):
            n_quandle(bad)
        with pytest.raises(TypeError, match="parameter must be an int"):
            IdentitySpec("n_quandle", bad)
    for bad in (0.0, False):
        with pytest.raises(TypeError, match="parameter must be an int"):
            IdentitySpec("medial", bad)
    assert n_quandle(2).parameter == 2
    assert MEDIAL.tag == "medial"


def test_identity_specs_are_frozen_dataclass_values():
    args = [("medial", 0), ("n_quandle", 0), ("n_quandle", 2), ("n_quandle", -3),
            ("n_quandle", 10**30 + 1)]
    assert_frozen_dataclass_semantics(IdentitySpec, ("tag", "parameter"), args)
    # the parameter defaults to 0, for either tag
    assert IdentitySpec("medial") == IdentitySpec("medial", 0) == MEDIAL
    assert IdentitySpec("n_quandle") == IdentitySpec(tag="n_quandle", parameter=0)
    assert repr(MEDIAL) == "IdentitySpec(tag='medial', parameter=0)"


def test_already_satisfied_identities_give_identity_projection():
    d3 = dihedral_quandle(3)
    quotient, proj = quotient_by_identity(d3, MEDIAL)
    assert quotient == d3 and proj == [0, 1, 2]
    quotient, proj = quotient_by_identity(d3, n_quandle(2))
    assert quotient == d3 and proj == [0, 1, 2]


def test_forcing_translation_order_one_collapses_connected_tables():
    # x = x acted on by y, closed transitively, merges whole orbits; on a
    # connected table everything lands in one class
    quotient, proj = quotient_by_identity(dihedral_quandle(3), n_quandle(1))
    assert quotient.n == 1 and proj == [0, 0, 0]
    quotient, proj = quotient_by_identity(dihedral_quandle(5), n_quandle(1))
    assert quotient.n == 1


def test_forcing_translation_order_one_keeps_disconnected_parts():
    # a trivial table already has identity translations: nothing merges
    t3 = trivial_quandle(3)
    quotient, proj = quotient_by_identity(t3, n_quandle(1))
    assert quotient == t3 and proj == [0, 1, 2]
    assert partition_from_projection(proj) == brute_force_smallest_congruence(
        t3, n_quandle(1))
    # dihedral of even order has two orbits, so two classes survive
    quotient, _ = quotient_by_identity(dihedral_quandle(4), n_quandle(1))
    assert quotient.n == 2


def test_trivial_quandle_is_its_own_medialization():
    t2 = trivial_quandle(2)
    assert brute_force_smallest_congruence(t2, MEDIAL) == ((0,), (1,))
    quotient, proj = quotient_by_identity(t2, MEDIAL)
    assert quotient == t2 and proj == [0, 1]


def test_oracle_equivalence_over_corpus(corpus):
    specs = (MEDIAL, n_quandle(1), n_quandle(2))
    for name, q in corpus:
        if q.n > 6:
            continue
        for spec in specs:
            _, proj = quotient_by_identity(q, spec)
            assert (partition_from_projection(proj)
                    == brute_force_smallest_congruence(q, spec)), (name, spec)


def test_quotient_satisfies_the_identity(corpus):
    for name, q in corpus:
        quotient, _ = quotient_by_identity(q, MEDIAL)
        assert quotient.is_medial()[0], name
        quotient, _ = quotient_by_identity(q, n_quandle(2))
        assert quotient.is_n_quandle(2), name


def test_projection_is_a_homomorphism(corpus):
    for name, q in corpus:
        quotient, proj = quotient_by_identity(q, MEDIAL)
        for a in range(q.n):
            for b in range(q.n):
                assert proj[q.table[a][b]] == quotient.table[proj[a]][proj[b]], name


def test_quotient_is_idempotent(corpus):
    for name, q in corpus:
        quotient, _ = quotient_by_identity(q, MEDIAL)
        again, proj = quotient_by_identity(quotient, MEDIAL)
        assert again == quotient and proj == list(range(quotient.n)), name


def test_negative_translation_order_is_equivalent(corpus):
    for name, q in corpus:
        _, plus = quotient_by_identity(q, n_quandle(2))
        _, minus = quotient_by_identity(q, n_quandle(-2))
        assert plus == minus, name


def test_non_medial_conjugation_table_collapses(conj_s3):
    quotient, proj = quotient_by_identity(conj_s3, MEDIAL)
    assert quotient.is_medial()[0]
    assert quotient.n < conj_s3.n
    assert (partition_from_projection(proj)
            == brute_force_smallest_congruence(conj_s3, MEDIAL))


def test_non_medial_order_four_table_collapses():
    q = FiniteQuandle([[0, 0, 0, 0], [1, 1, 3, 2], [2, 3, 2, 1], [3, 2, 1, 3]])
    assert not q.is_medial()[0]
    quotient, proj = quotient_by_identity(q, MEDIAL)
    assert quotient.is_medial()[0]
    assert (partition_from_projection(proj)
            == brute_force_smallest_congruence(q, MEDIAL))


def test_oracle_size_cap():
    with pytest.raises(TooLarge):
        brute_force_smallest_congruence(trivial_quandle(7), MEDIAL)
    # order 6 is still within reach
    part = brute_force_smallest_congruence(trivial_quandle(6), MEDIAL)
    assert part == tuple((x,) for x in range(6))


def test_reversed_two_orbit_table_medializes_to_two_classes(shadow_mod5):
    # finite confirmation of the infinite-carrier collapse: same formulas
    # over the integers mod 5 with t = 2 (a root of t^2 + t - 1 there)
    assert shadow_mod5.is_medial()[0]
    assert shadow_mod5.orbits() == (tuple(range(5)), tuple(range(5, 10)))
    reversed_q = shadow_mod5.reverse_orbit(5)
    quotient, proj = quotient_by_identity(reversed_q, MEDIAL)
    assert quotient.n == 2
    assert partition_from_projection(proj) == (tuple(range(5)),
                                               tuple(range(5, 10)))
    # without the reversal nothing collapses
    quotient, _ = quotient_by_identity(shadow_mod5, MEDIAL)
    assert quotient.n == shadow_mod5.n


def _shuffled(rng, q):
    perm = list(range(q.n))
    rng.shuffle(perm)
    return relabel(q, perm)


def _differential_cases(moduli=(5, 11)):
    """Relabeled finite shadows with orbit 2 reversed (every root of
    t^2 + t - 1 mod m, for each modulus), and every reversed orbit of
    relabeled affine tables."""
    rng = random.Random(20261018)
    shuffled = partial(_shuffled, rng)
    for m in moduli:
        for t in range(m):
            if (t * t + t - 1) % m == 0:
                yield f"shadow{m}t{t}", shuffled(two_orbit_quandle_mod(m, t).reverse_orbit(m))
    for n, t in ((21, 4), (27, 4), (25, 6)):
        q = shuffled(affine_quandle(n, t))
        for block in q.orbits():
            yield f"affine{n}t{t}-rev{block[0]}", q.reverse_orbit(block[0])


def test_worklist_closure_matches_the_two_phase_oracle():
    cases = list(_differential_cases())
    assert [name for name, _ in cases][:3] == ["shadow5t2", "shadow11t3", "shadow11t7"]
    assert len(cases) == 3 + 3 + 3 + 5
    for name, q in cases:
        for spec in DIFFERENTIAL_SPECS:
            _, proj = quotient_by_identity(q, spec)
            assert proj == seed_projection(q, spec), (name, spec)


def _round_corpus():
    """Every quandle of order at most 4; relabeled shadows with each orbit
    reversed, for every root of t^2 + t - 1 mod m, m < 60; every reversed
    orbit of seven relabeled affine tables; dihedral tables of order 3-33."""
    shuffled = partial(_shuffled, random.Random(20261021))
    yield from (("small", q) for q in _small_tables())
    for m in range(1, 60):
        for t in range(m):
            if (t * t + t - 1) % m == 0:
                q = shuffled(two_orbit_quandle_mod(m, t))
                for block in q.orbits():
                    yield f"shadow{m}t{t}-rev{block[0]}", q.reverse_orbit(block[0])
    for n, t in ((21, 4), (27, 4), (25, 6), (15, 2), (9, 4), (33, 2), (125, 6)):
        q = shuffled(affine_quandle(n, t))
        for block in q.orbits():
            yield f"affine{n}t{t}-rev{block[0]}", q.reverse_orbit(block[0])
    yield from ((f"dihedral{n}", dihedral_quandle(n)) for n in range(3, 34))


def test_seeded_closure_matches_the_round_loop():
    # one pass over the forced pairs against one join of a violated instance
    # per round, on the union-find partition
    cases = list(_round_corpus())
    assert len(cases) == 43 + 30 + 23 + 31
    specs = DIFFERENTIAL_SPECS + (n_quandle(10**8 + 1),)
    for name, q in cases:
        for spec in specs:
            _, proj = quotient_by_identity(q, spec)
            assert proj == round_projection(q, spec), (name, spec)


def _small_tables():
    return [FiniteQuandle(table) for n in range(1, 5)
            for table in enumerate_small_quandles(n)]


def test_join_gives_the_least_congruence_containing_the_pair():
    pairs = 0
    for q in _small_tables():
        inv = q.inverse_translations()
        congruences = {p: seed_partitions._class_map(p)
                       for p in seed_partitions._set_partitions(q.n)
                       if seed_partitions._is_congruence(q, inv, p)}
        for a in range(q.n):
            for b in range(a + 1, q.n):
                containing = [p for p, cls in congruences.items() if cls[a] == cls[b]]
                cong = Congruence(q)
                cong.join_lines((a,), (b,))
                assert cong.blocks() == seed_partitions._meet_partitions(containing, q.n), (
                    q.table, a, b)
                pairs += 1
    assert pairs == 232


def test_join_matches_union_then_the_full_compatibility_passes():
    cases = [q for name, q in _differential_cases()
             if name.startswith("shadow") or name == "affine21t4-rev0"]
    assert len(cases) == 4
    for q in cases:
        inv = q.inverse_translations()
        for a in range(q.n):
            for b in range(a + 1, q.n):
                joined, oracle = Congruence(q), UnionFindCongruence(q)
                joined.join_lines((a,), (b,))
                oracle.union(a, b)
                _close_compatibility(oracle, q, inv)
                assert joined.blocks() == oracle.blocks(), (q.table, a, b)


def test_join_matches_the_union_find_oracle_on_every_pair():
    # the label-array join against the union-find oracle's join: the same
    # classes, the same least members and the same numbering, pair by pair
    cases = [(name, q) for name, q in _differential_cases((5, 11, 19))
             if name.startswith("shadow") or name.endswith("-rev0")]
    assert [name for name, _ in cases] == [
        "shadow5t2", "shadow11t3", "shadow11t7", "shadow19t4", "shadow19t14",
        "affine21t4-rev0", "affine27t4-rev0", "affine25t6-rev0"]
    for name, q in cases:
        elems = range(q.n)
        for a in elems:
            for b in range(a + 1, q.n):
                joined, oracle = Congruence(q), UnionFindCongruence(q)
                joined.join_lines((a,), (b,))
                oracle.join(a, b)
                assert joined.blocks() == oracle.blocks(), (name, a, b)
                assert [joined.find(x) for x in elems] == [oracle.find(x) for x in elems]
                assert joined.projection() == oracle.projection(), (name, a, b)


def test_quotients_match_the_union_find_oracle(monkeypatch):
    cases = list(_differential_cases())
    expected = {}
    with monkeypatch.context() as patch:
        patch.setattr(variety, "Congruence", UnionFindCongruence)
        for name, q in cases:
            for spec in DIFFERENTIAL_SPECS:
                expected[name, spec] = quotient_by_identity(q, spec)
    assert variety.Congruence is Congruence
    for name, q in cases:
        for spec in DIFFERENTIAL_SPECS:
            assert quotient_by_identity(q, spec) == expected[name, spec], (name, spec)


def test_closure_work_is_linear(monkeypatch):
    # each merged pair calls union only where its rows or its columns, mapped
    # to classes, differ; unioning at every position, as the union-find
    # oracle does, makes 2n calls per merge, 881 at n = 22 and 2,737 at n = 38
    calls = 0
    union = Congruence.union

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return union(self, a, b)

    monkeypatch.setattr(Congruence, "union", counted)
    cases = [(name, q) for name, q in _differential_cases((11, 19))
             if name.startswith("shadow")]
    assert len(cases) == 4
    for name, q in cases:
        calls = 0
        quotient, _ = quotient_by_identity(q, MEDIAL)
        assert quotient.n == 2
        assert calls <= 2 * q.n, (name, calls)


def test_classes_are_ordered_by_least_member_under_any_union_order():
    # blocks and projection number classes by least member without sorting,
    # and find returns that member, whatever order the classes were merged in
    rng = random.Random(20261018)
    cases = _small_tables()
    for m in (5, 11):
        for t in range(m):
            if (t * t + t - 1) % m == 0:
                perm = list(range(2 * m))
                rng.shuffle(perm)
                cases.append(relabel(two_orbit_quandle_mod(m, t), perm))
    assert len(cases) == 43 + 3
    for q in cases:
        for _ in range(8):
            cong = Congruence(q)

            def join(a, b):
                cong.join_lines((a,), (b,))

            merge = rng.choice((cong.union, join, None))
            for _ in range(rng.randint(1, q.n)):
                a, b = rng.randrange(q.n), rng.randrange(q.n)
                (merge or rng.choice((cong.union, join)))(a, b)
                roots = [cong.find(x) for x in range(q.n)]
                reference = partition_from_projection(roots)
                block_of = {x: block for block in reference for x in block}
                assert roots == [block_of[x][0] for x in range(q.n)], (q.table, reference)
                assert cong.blocks() == reference
                assert cong.projection() == [reference.index(block_of[x])
                                             for x in range(q.n)]


def _check_is_compatible(q, cong, inv):
    partition = cong.blocks()
    assert cong.is_compatible() == seed_partitions._is_congruence(q, inv, partition), (
        q.table, partition)


def _partition_congruence(q, partition):
    cong = Congruence(q)
    for block in partition:
        for x in block[1:]:
            cong.union(block[0], x)
    return cong


def test_is_compatible_agrees_with_the_oracle_check():
    for q in _small_tables():
        inv = q.inverse_translations()
        for partition in seed_partitions._set_partitions(q.n):
            _check_is_compatible(q, _partition_congruence(q, partition), inv)
    # on reversed shadows and one reversed orbit of each affine table: every
    # join's congruence, the same with one stray union, and seeded random
    # partitions.  Every join on a shadow over Z/p gives its two orbits or a
    # single class, so a stray union there keeps a congruence; the affine
    # tables give stray unions that break one.
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for name, q in _differential_cases():
        if not (name.startswith("shadow") or name.endswith("-rev0")):
            continue
        inv = q.inverse_translations()
        for a in range(q.n):
            for b in range(a + 1, q.n):
                cong = Congruence(q)
                cong.join_lines((a,), (b,))
                _check_is_compatible(q, cong, inv)
                cong.union(rng.randrange(q.n), rng.randrange(q.n))
                _check_is_compatible(q, cong, inv)
                verdicts[cong.is_compatible()] += 1
        for _ in range(50):
            labels = [rng.randrange(rng.randint(1, q.n)) for _ in range(q.n)]
            partition = partition_from_projection(labels)
            _check_is_compatible(q, _partition_congruence(q, partition), inv)
    assert verdicts[True] and verdicts[False], verdicts


def test_huge_translation_power_costs_no_more_than_its_residue():
    # every translation of the dihedral quandle of order 3 is an involution,
    # so an odd power acts like power 1
    d3 = dihedral_quandle(3)
    power = 10**8 + 1
    assert d3.is_n_quandle(power) == d3.is_n_quandle(1)
    assert (quotient_by_identity(d3, n_quandle(power))
            == quotient_by_identity(d3, n_quandle(1)))


def test_failed_postconditions_raise(monkeypatch):
    # raised, not asserted, so the checks also run under python -O
    monkeypatch.setattr(Congruence, "is_compatible", lambda self: False)
    with pytest.raises(InternalAxiomFailure):
        quotient_by_identity(dihedral_quandle(3), MEDIAL)
    monkeypatch.setattr(seed_partitions, "_meet_partitions", lambda partitions, n: ((0, 1, 2, 3),))
    with pytest.raises(InternalAxiomFailure):
        brute_force_smallest_congruence(dihedral_quandle(3), MEDIAL)


def test_a_displacement_verdict_the_scan_contradicts_raises(monkeypatch):
    # "not medial" with no violated instance to name is an internal failure,
    # not a medial answer and not a quotient that stops early
    monkeypatch.setattr(quandle, "displacements_commute", lambda columns: False)
    d5 = dihedral_quandle(5)
    with pytest.raises(InternalAxiomFailure):
        d5.is_medial()
    with pytest.raises(InternalAxiomFailure):
        quotient_by_identity(d5, MEDIAL)


def test_is_compatible_checks_left_images():
    # column 2 swaps 0 and 1; every other translation is the identity
    q = FiniteQuandle([[0, 0, 1, 0], [1, 1, 0, 1], [2, 2, 2, 2], [3, 3, 3, 3]])
    t, inv = q.table, q.inverse_translations()
    cong = Congruence(q)
    cong.union(2, 3)
    find = cong.find
    assert all(find(t[2][c]) == find(t[3][c]) and find(inv[2][c]) == find(inv[3][c])
               for c in range(q.n))
    assert find(t[0][2]) != find(t[0][3])
    assert not cong.is_compatible()


def test_forward_images_imply_inverse_images():
    # why the closure and the orbit search follow no inverse translations: on
    # a finite carrier, a partition closed under both arguments of the
    # operation is a congruence, and a set closed under every translation is
    # a union of orbits
    for table in (tab for n in range(1, 5) for tab in enumerate_small_quandles(n)):
        q = FiniteQuandle(table)
        t, inv = q.table, q.inverse_translations()
        for block in q.orbits():
            assert {inv[x][y] for x in block for y in range(q.n)} <= set(block)
        for partition in seed_partitions._set_partitions(q.n):
            cls = seed_partitions._class_map(partition)
            pairs = [(a, b) for block in partition for a in block for b in block]
            closed = all(cls[t[a][c]] == cls[t[b][c]] and cls[t[c][a]] == cls[t[c][b]]
                         for a, b in pairs for c in range(q.n))
            if closed:
                assert all(cls[inv[a][c]] == cls[inv[b][c]]
                           for a, b in pairs for c in range(q.n)), (table, partition)
