"""Shared fixtures: a corpus of small quandles and a few special tables."""

import copy
import dataclasses
import pickle
import random
from itertools import permutations, product

import pytest

from quandleworks import (FiniteQuandle, Point, affine_quandle, check_axioms,
                          dihedral_quandle, relabel, trivial_quandle)
from seed_ring import LaurentPoly

CORPUS_SEED = 20260815


def random_poly(rng: random.Random, max_terms: int = 6, exp_bound: int = 6,
                coeff_bound: int = 9) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-exp_bound, exp_bound)] = rng.randint(-coeff_bound, coeff_bound)
    return LaurentPoly(terms)


def enumerate_small_quandles(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every order-n operation table satisfying the axioms (n <= 4).

    Idempotence and column bijectivity mean column j is a permutation fixing
    j; distributivity is then checked directly.
    """
    if n > 4:
        raise ValueError("exhaustive enumeration is kept to order <= 4")
    column_choices = [[p for p in permutations(range(n)) if p[j] == j]
                      for j in range(n)]
    tables = []
    for cols in product(*column_choices):
        table = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        if check_axioms(table).ok:
            tables.append(table)
    return tables


def conjugation_quandle_s3() -> FiniteQuandle:
    """Conjugation on the six permutations of three points (non-medial)."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):  # apply q, then p
        return tuple(p[q[i]] for i in range(3))

    def inverse(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    rows = [[index[compose(inverse(y), compose(x, y))] for y in elems]
            for x in elems]
    return FiniteQuandle(rows)


def two_orbit_quandle_mod(n: int, t: int) -> FiniteQuandle:
    """Finite two-orbit analogue over the integers mod n: elements are two
    copies of range(n) with markers 0 and 1, and x in copy i acted on by y in
    copy j gives (m_j - m_i + t*x + (1-t)*y) mod n in copy i.  This is a
    medial quandle for every unit t mod n; a root of t*t + t - 1 mod n only
    makes 1 - t equal t*t, the coefficient of y over the paper's ring."""
    marks = {1: 0, 2: 1}

    def idx(copy: int, v: int) -> int:
        return v + (0 if copy == 1 else n)

    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for ci, x in product((1, 2), range(n)):
        for cj, y in product((1, 2), range(n)):
            v = (marks[cj] - marks[ci] + t * x + (1 - t) * y) % n
            rows[idx(ci, x)][idx(cj, y)] = idx(ci, v)
    return FiniteQuandle(rows)


def build_corpus() -> list[tuple[str, FiniteQuandle]]:
    rng = random.Random(CORPUS_SEED)
    entries = [(f"trivial{n}", trivial_quandle(n)) for n in (1, 2, 3, 4, 5)]
    entries += [(f"dihedral{n}", dihedral_quandle(n)) for n in (3, 4, 5)]
    entries += [(f"affine{n}t{t}", affine_quandle(n, t))
                for n, t in ((4, 3), (5, 2), (5, 3), (5, 4))]

    for name, q in list(entries):
        if name.startswith("trivial"):
            continue  # every relabel of a trivial table is the same table
        for k in (1, 2):
            perm = list(range(q.n))
            rng.shuffle(perm)
            entries.append((f"{name}-relabel{k}", relabel(q, perm)))

    for n, count in ((3, 3), (4, 12)):
        tables = enumerate_small_quandles(n)
        for k, table in enumerate(rng.sample(tables, count), start=1):
            entries.append((f"enum{n}-{k}", FiniteQuandle(table)))

    assert len({q.table for _, q in entries}) >= 30
    return entries


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, FiniteQuandle]]:
    return build_corpus()


@pytest.fixture(scope="session")
def conj_s3() -> FiniteQuandle:
    return conjugation_quandle_s3()


@pytest.fixture(scope="session")
def shadow_mod5() -> FiniteQuandle:
    return two_orbit_quandle_mod(5, 2)


def evaluate_point(point, values) -> Point:
    """The Point of a SymPoint at a RingElem for each of its variables."""
    return Point(point.orbit, point.expr.evaluate(values))


def partition_from_projection(proj) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for x, c in enumerate(proj):
        groups.setdefault(c, []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def assert_frozen_dataclass_semantics(cls, fields, args_list):
    """Instances of cls built from args_list behave as instances of a frozen
    dataclass of the same name and fields built from the same arguments:
    equality, hashing, repr, immutability, copying and pickling."""
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    pairs = [(cls(*args), reference(*args)) for args in args_list]
    for value, ref in pairs:
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        for other, other_ref in pairs:
            assert (value == other) == (ref == other_ref)
            assert (value != other) == (ref != other_ref)
        assert value != ref and value != tuple(args_list[0])
        assert not hasattr(value, "__dict__")
        for name in (*fields, "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert [getattr(value, name) for name in fields] == [
            getattr(ref, name) for name in fields]
        assert copy.copy(value) == value
        assert copy.deepcopy([value]) == [value]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
