"""Finite operation tables: axioms, orbits, reversal, and the file format."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (build_corpus, conjugation_quandle_s3,
                      enumerate_small_quandles, two_orbit_quandle_mod)
from quandleworks import (AxiomError, FiniteQuandle, MalformedTable,
                          affine_quandle, check_axioms, dihedral_quandle,
                          parse_table_text, relabel, render_table_text,
                          trivial_quandle)
from quandleworks.quandle import (displacements_commute, n_quandle_violation,
                                 scan_medial)
from seed_axioms import seed_check_axioms

BROKEN_IDEMPOTENCE = [[1, 1], [0, 0]]
BROKEN_BIJECTIVITY = [[0, 0], [0, 1]]
# columns 0 and 1 are the transpositions fixing their own index; breaks
# right self-distributivity while keeping the first two axioms
BROKEN_DISTRIBUTIVITY = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]


def test_axiom_reports_name_the_first_failure():
    report = check_axioms(BROKEN_IDEMPOTENCE)
    assert not report.ok
    assert not report.idempotent
    assert report.first_witness == (0, 0, None)

    report = check_axioms(BROKEN_BIJECTIVITY)
    assert report.idempotent and not report.bijective_columns
    assert report.first_witness == (0, 1, 0)

    report = check_axioms(BROKEN_DISTRIBUTIVITY)
    assert report.idempotent and report.bijective_columns
    assert not report.distributive
    i, j, k = report.first_witness
    t = BROKEN_DISTRIBUTIVITY
    assert t[t[i][j]][k] != t[t[i][k]][t[j][k]]
    assert "witness" in report.summary()


def test_constructor_rejects_non_quandles():
    for rows in (BROKEN_IDEMPOTENCE, BROKEN_BIJECTIVITY, BROKEN_DISTRIBUTIVITY):
        with pytest.raises(AxiomError):
            FiniteQuandle(rows)
    with pytest.raises(MalformedTable):
        check_axioms([[0, 1]])  # ragged shape
    with pytest.raises(MalformedTable):
        check_axioms([[0, 5], [1, 0]])  # out of range
    with pytest.raises(MalformedTable):
        check_axioms([])


def test_constructor_stores_the_rows_it_validated():
    # a one-pass iterable is read once, and the rows checked are the rows kept
    for table in (iter([[0, 0], [1, 1]]),
                  ([v, v] for v in range(2)),
                  [iter([0, 0]), iter([1, 1])]):
        q = FiniteQuandle(table)
        assert q.table == ((0, 0), (1, 1)) and q.n == 2
    with pytest.raises(AxiomError):
        FiniteQuandle(iter(BROKEN_IDEMPOTENCE))


def test_check_axioms_matches_the_scalar_oracle_on_every_order_3_table():
    count = 0
    for entries in product(range(3), repeat=9):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        assert check_axioms(rows) == seed_check_axioms(rows), rows
        count += 1
    assert count == 3 ** 9


def _mutation_bases() -> list[FiniteQuandle]:
    """Quandles of order at most 12: the corpus, conjugation on S3, and
    dihedral, affine and finite-shadow tables, reversed ones included."""
    shadow = two_orbit_quandle_mod(5, 2)
    bases = [q for _, q in build_corpus()]
    bases += [conjugation_quandle_s3(), shadow, shadow.reverse_orbit(5)]
    bases += [dihedral_quandle(n) for n in range(6, 13)]
    bases += [affine_quandle(n, t) for n, t in ((7, 3), (8, 3), (9, 4), (11, 2), (12, 5))]
    bases.append(affine_quandle(9, 4).reverse_orbit(0))
    assert max(q.n for q in bases) == 12
    return bases


MUTATION_BASES = _mutation_bases()


@st.composite
def mutated_tables(draw):
    """A relabeled base quandle with one entry changed, or with two
    off-diagonal entries of one column swapped, which keeps idempotence and
    bijective columns so that only distributivity can fail."""
    q = draw(st.sampled_from(MUTATION_BASES))
    rows = [list(row) for row in relabel(q, draw(st.permutations(range(q.n)))).table]
    j = draw(st.integers(0, q.n - 1))
    others = [i for i in range(q.n) if i != j]
    if len(others) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        rows[a][j], rows[b][j] = rows[b][j], rows[a][j]
    else:
        rows[draw(st.integers(0, q.n - 1))][j] = draw(st.integers(0, q.n - 1))
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_tables())
def test_check_axioms_matches_the_scalar_oracle_on_mutated_quandles(rows):
    assert check_axioms(rows) == seed_check_axioms(rows)


def _medial_by_scan(q: FiniteQuandle) -> bool:
    return scan_medial(q.table) is None


def test_displacement_kernel_agrees_with_the_medial_scan():
    small = [FiniteQuandle(table) for n in range(1, 5)
             for table in enumerate_small_quandles(n)]
    assert len(small) == 43
    rng = random.Random(20261018)

    def shuffled(q):
        perm = list(range(q.n))
        rng.shuffle(perm)
        return relabel(q, perm)

    cases = small + [shuffled(q) for q in MUTATION_BASES]
    for m in (5, 11):
        for t in range(m):
            if (t * t + t - 1) % m == 0:
                q = shuffled(two_orbit_quandle_mod(m, t))
                cases += [q] + [q.reverse_orbit(block[0]) for block in q.orbits()]
    for n, t in ((21, 4), (27, 4), (25, 6), (15, 2)):
        q = shuffled(affine_quandle(n, t))
        cases += [q.reverse_orbit(block[0]) for block in q.orbits()]
    verdicts = [displacements_commute(q.columns()) for q in cases]
    assert verdicts == [_medial_by_scan(q) for q in cases]
    assert True in verdicts and False in verdicts


def test_corpus_members_satisfy_axioms(corpus):
    for name, q in corpus:
        assert check_axioms(q.table).ok, name


def test_inverse_translations_invert(corpus):
    for name, q in corpus:
        inv = q.inverse_translations()
        for i in range(q.n):
            for j in range(q.n):
                assert inv[q.table[i][j]][j] == i, name
                assert q.table[inv[i][j]][j] == i, name


def test_orbits_partition_the_carrier(corpus):
    for name, q in corpus:
        blocks = q.orbits()
        seen = sorted(x for block in blocks for x in block)
        assert seen == list(range(q.n)), name
        firsts = [block[0] for block in blocks]
        assert firsts == sorted(firsts), name


def test_known_orbit_structures():
    assert dihedral_quandle(3).orbits() == ((0, 1, 2),)
    assert dihedral_quandle(5).orbits() == ((0, 1, 2, 3, 4),)
    assert trivial_quandle(3).orbits() == ((0,), (1,), (2,))
    # dihedral of even order splits into the two parity classes
    assert dihedral_quandle(4).orbits() == ((0, 2), (1, 3))


def test_orbit_of_range_check():
    q = dihedral_quandle(3)
    assert q.orbit_of(1) == (0, 1, 2)
    with pytest.raises(ValueError):
        q.orbit_of(3)
    with pytest.raises(ValueError):
        q.orbit_of(-1)


def test_reversal_is_an_involution(corpus):
    for name, q in corpus:
        for block in q.orbits():
            rep = block[0]
            assert q.reverse_orbit(rep).reverse_orbit(rep) == q, name


def test_reversal_uses_inverse_columns_on_the_orbit(corpus):
    for name, q in corpus:
        inv = q.inverse_translations()
        for block in q.orbits():
            members = set(block)
            r = q.reverse_orbit(block[0])
            for i in range(q.n):
                for j in range(q.n):
                    want = inv[i][j] if j in members else q.table[i][j]
                    assert r.table[i][j] == want, name


def test_reversal_fixes_involutive_tables():
    for n in (3, 5, 7):
        q = dihedral_quandle(n)
        assert q.reverse_orbit(0) == q


def test_reversal_preserves_orbits(corpus):
    for name, q in corpus:
        for block in q.orbits():
            assert q.reverse_orbit(block[0]).orbits() == q.orbits(), name


def test_reversal_respects_same_orbit_choice():
    q = dihedral_quandle(5)
    assert q.reverse_orbit(0) == q.reverse_orbit(3)


def test_reversal_of_connected_affine_inverts_the_multiplier():
    # a connected affine quandle has one orbit, so reversing it swaps every
    # translation for its inverse: x * y = t*x + (1-t)*y becomes the affine
    # operation with multiplier t^-1
    assert affine_quandle(5, 2).reverse_orbit(0) == affine_quandle(5, 3)
    assert affine_quandle(5, 3).reverse_orbit(0) == affine_quandle(5, 2)
    assert affine_quandle(7, 3).reverse_orbit(4) == affine_quandle(7, 5)


def test_is_medial_matches_direct_scan(corpus):
    # trivial, dihedral, and affine tables are medial; enumerated picks may
    # not be (the order-4 quandle fixing one point that permutes the rest by
    # 3-cycle conjugation is the smallest non-medial example)
    for name, q in corpus:
        holds, witness = q.is_medial()
        t = q.table
        violations = [(w, x, y, z)
                      for w, x, y, z in product(range(q.n), repeat=4)
                      if t[t[w][x]][t[y][z]] != t[t[w][y]][t[x][z]]]
        assert holds == (not violations), name
        assert witness == (violations[0] if violations else None), name
        if not name.startswith("enum"):
            assert holds, name


def test_conjugation_quandle_is_not_medial(conj_s3):
    holds, witness = conj_s3.is_medial()
    assert not holds
    w, x, y, z = witness
    t = conj_s3.table
    assert t[t[w][x]][t[y][z]] != t[t[w][y]][t[x][z]]


def test_is_n_quandle_known_values():
    d3 = dihedral_quandle(3)
    assert d3.is_n_quandle(2)
    assert not d3.is_n_quandle(3)
    assert d3.is_n_quandle(4)
    assert d3.is_n_quandle(0)
    assert trivial_quandle(4).is_n_quandle(1)
    a = affine_quandle(5, 2)  # translation multiplier 2 has order 4 mod 5
    assert not a.is_n_quandle(2)
    assert a.is_n_quandle(4)


def _n_quandle_violation_by_iteration(q: FiniteQuandle, power: int):
    lines = q.table if power >= 0 else q.inverse_translations()
    for y in range(q.n):
        for x in range(q.n):
            image = x
            for _ in range(abs(power)):
                image = lines[image][y]
            if image != x:
                return image, x, x, y
    return None


def test_n_quandle_witness_matches_iterated_translations():
    # the witness, not only the verdict: a walk that steps the wrong way
    # round a cycle still finds the same violated (x, y) but the wrong image
    rng = random.Random(20261018)
    cases = [FiniteQuandle(table) for n in range(1, 5)
             for table in enumerate_small_quandles(n)]
    for m in (5, 11):
        for t in range(m):
            if (t * t + t - 1) % m == 0:
                perm = list(range(2 * m))
                rng.shuffle(perm)
                q = relabel(two_orbit_quandle_mod(m, t), perm)
                cases += [q] + [q.reverse_orbit(block[0]) for block in q.orbits()]
    assert len(cases) == 43 + 3 * 3
    witnesses = {}
    for i, q in enumerate(cases):
        for power in range(-7, 13):
            expected = _n_quandle_violation_by_iteration(q, power)
            assert n_quandle_violation(q.table, power) == expected, (q.table, power)
            assert q.is_n_quandle(power) == (expected is None)
            witnesses[i, power] = expected
    assert None in witnesses.values()
    assert any(witnesses[i, power] != witnesses[i, -power]
               for i, power in witnesses if 0 < power <= 7), "no case where the sign matters"


def test_is_n_quandle_sign_symmetry(corpus):
    for name, q in corpus:
        for n in (1, 2, 3):
            assert q.is_n_quandle(n) == q.is_n_quandle(-n), name


def test_relabel_round_trip():
    q = affine_quandle(5, 3)
    perm = [2, 0, 4, 1, 3]
    inverse = [0] * 5
    for old, new in enumerate(perm):
        inverse[new] = old
    r = relabel(q, perm)
    assert r != q
    assert relabel(r, inverse) == q
    assert relabel(q, list(range(5))) == q
    with pytest.raises(ValueError):
        relabel(q, [0, 0, 1, 2, 3])


def test_relabel_renames_every_entry(corpus):
    rng = random.Random(20261018)
    for name, q in corpus:
        for _ in range(3):
            perm = list(range(q.n))
            rng.shuffle(perm)
            r = relabel(q, perm)
            for i, j in product(range(q.n), repeat=2):
                assert r.table[perm[i]][perm[j]] == perm[q.table[i][j]], (name, perm)


def test_trivial_and_dihedral_tables_match_their_formulas():
    for n in range(1, 41):
        assert trivial_quandle(n).table == tuple((i,) * n for i in range(n))
        assert dihedral_quandle(n).table == tuple(
            tuple((2 * j - i) % n for j in range(n)) for i in range(n))


def test_relabel_preserves_properties(conj_s3):
    r = relabel(conj_s3, [3, 1, 4, 0, 5, 2])
    assert not r.is_medial()[0]
    assert sorted(len(b) for b in r.orbits()) == sorted(
        len(b) for b in conj_s3.orbits())


def test_constructors_validate_parameters():
    for n in (0, -1, -7):
        for make in (trivial_quandle, dihedral_quandle):
            with pytest.raises(ValueError, match="^order must be positive$"):
                make(n)
    with pytest.raises(ValueError):
        affine_quandle(4, 2)  # 2 is not a unit mod 4


def test_text_round_trip(corpus):
    for name, q in corpus:
        text = render_table_text(q)
        assert parse_table_text(text) == [list(row) for row in q.table], name


def test_render_accepts_raw_rows():
    q = dihedral_quandle(3)
    assert render_table_text(q) == render_table_text(q.table)
    assert render_table_text(q) == "quandle v1\nn=3\n1 3 2\n3 2 1\n2 1 3\n"


def test_parse_skips_comments_and_blank_lines():
    text = """
# a comment
quandle v1

n=2
# rows follow
1 1

2 2
"""
    assert parse_table_text(text) == [[0, 0], [1, 1]]
    assert parse_table_text(text + "\n# trailing comment\n  \n#\n") == [[0, 0], [1, 1]]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty file"),
    ("not a header\n", "line 1"),
    ("quandle v1\n", "missing order line"),
    ("quandle v1\nn=two\n", "line 2"),
    ("quandle v1\nn=0\n", "order must be positive"),
    ("quandle v1\nn=" + "9" * 5000 + "\n", "line 2: order is too large"),
    ("quandle v1\nn=2\n1 1\n", "expected 2 table rows"),
    ("quandle v1\nn=2\n1 1 1\n2 2\n", "line 3"),
    ("quandle v1\nn=2\n1 x\n2 2\n", "bad entry"),
    ("quandle v1\nn=2\n1 3\n2 2\n", "out of range"),
    ("quandle v1\nn=2\n1 1\n2 2\nextra\n", "line 5"),
    # whole messages; rows are parsed in file order, so a bad row is named
    # before a missing one
    ("", "empty file, expected header 'quandle v1'"),
    ("not a header\n", "line 1: expected header 'quandle v1'"),
    ("quandle v1\n# only a comment\n", "missing order line 'n=<order>'"),
    ("quandle v1\nn=two\n", "line 2: expected order line 'n=<order>'"),
    ("quandle v1\nn=0\n", "line 2: order must be positive"),
    ("quandle v1\nn=3\n1 x 1\n2 2 2\n", "line 3: bad entry 'x'"),
    ("quandle v1\nn=3\n1 1 1\nx\n", "line 4: row 2 has 1 entries, expected 3"),
    ("quandle v1\nn=2\n1 1\n2 9\nextra\n", "line 4: entry 9 out of range 1..2"),
    ("quandle v1\nn=3\n1 1 1\n2 2 2\n# trailing\n\n", "expected 3 table rows, found 2"),
    ("quandle v1\nn=2\n1 1\n2 2\n\nextra\n", "line 6: unexpected content after table"),
    ("quandle v1\nn=1\n1\n# c\n1 1\n", "line 5: unexpected content after table"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(MalformedTable) as excinfo:
        parse_table_text(text)
    assert fragment in str(excinfo.value)


def test_parse_does_not_check_axioms():
    rows = parse_table_text("quandle v1\nn=2\n2 2\n1 1\n")
    assert rows == BROKEN_IDEMPOTENCE
    assert not check_axioms(rows).ok


def test_conjugation_table_is_reproducible(conj_s3):
    assert conjugation_quandle_s3() == conj_s3
    assert conj_s3.n == 6
    assert sorted(len(b) for b in conj_s3.orbits()) == [1, 2, 3]
