"""Smallest-congruence quotients of finite quandles.

quotient_by_identity computes the quotient by the least congruence whose
quotient satisfies a chosen identity: the medial law, or "every translation
has order dividing n", checked by the same code as FiniteQuandle.is_medial
and is_n_quandle, whose cost does not grow with n.  It repeatedly joins the
two sides of the first violated instance over the class representatives;
Congruence.join is the one routine that closes a partition under the
operation, a worklist congruence closure.  For the medial law, each round
first asks the displacement group of the current quotient, O(k^2)
compositions of k-element translations, so the round that confirms the
quotient is medial scans no instances.  Each join is forced in every
congruence with that property, so the fixpoint is the least such congruence;
brute_force_smallest_congruence certifies this on small tables by
enumerating all set partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quandle import (FiniteQuandle, InternalAxiomFailure, displacements_commute,
                      gather)

MEDIAL_TAG = "medial"
N_QUANDLE_TAG = "n_quandle"


class TooLarge(ValueError):
    """The table is too big for the partition-enumeration oracle."""


@dataclass(frozen=True)
class IdentitySpec:
    """Identity to force on the quotient.

    tag 'medial' forces (w*x)*(y*z) = (w*y)*(x*z); tag 'n_quandle' forces
    every translation iterated `parameter` times to be the identity (the
    parameter may be negative, iterating inverse translations).
    """

    tag: str
    parameter: int = 0

    def __post_init__(self) -> None:
        if self.tag not in (MEDIAL_TAG, N_QUANDLE_TAG):
            raise ValueError(f"unknown identity tag {self.tag!r}")

    def forced_pairs(self, q: FiniteQuandle, elems):
        """Violated instances over `elems`, each starting with its two sides."""
        if self.tag == MEDIAL_TAG:
            return q.medial_violations(elems)
        return q.n_quandle_violations(self.parameter, elems)

    def forced_pair(self, cong: "Congruence"):
        """The first violated instance over the class representatives of the
        congruence `cong` whose two sides lie in different classes, or None
        when the quotient satisfies the identity.  For the medial law the
        quotient's displacement group decides, and only a quotient that is
        not medial is scanned."""
        q = cong.quandle
        blocks = cong.blocks()
        if self.tag == MEDIAL_TAG and displacements_commute(
                tuple(zip(*_quotient_rows(q, blocks)))):
            return None
        forced = next((item for item in self.forced_pairs(q, [b[0] for b in blocks])
                       if not cong.same(item[0], item[1])), None)
        if forced is None and self.tag == MEDIAL_TAG:
            raise InternalAxiomFailure("the displacement group of the quotient is"
                                       " not abelian, yet no medial instance is"
                                       " violated")
        return forced


MEDIAL = IdentitySpec(MEDIAL_TAG)


def n_quandle(power: int) -> IdentitySpec:
    return IdentitySpec(N_QUANDLE_TAG, power)


class Congruence:
    """Union-find partition of a quandle's elements (path halving, union by rank)."""

    def __init__(self, quandle: FiniteQuandle) -> None:
        self.quandle = quandle
        self._parent = list(range(quandle.n))
        self._rank = [0] * quandle.n

    def find(self, a: int) -> int:
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for x in range(self.quandle.n):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))

    def projection(self) -> list[int]:
        """Element -> class index, classes numbered by smallest member."""
        cls = _class_map(self.blocks())
        return [cls[x] for x in range(self.quandle.n)]

    def join(self, a: int, b: int) -> None:
        """Merge the classes of a and b, then close the partition under the
        operation: each pair that merged has its images under both arguments
        unioned, and each of those that merged is handled the same way."""
        t = self.quandle.table
        elems = range(self.quandle.n)
        pending = [(a, b)] if self.union(a, b) else []
        while pending:
            a, b = pending.pop()
            ta, tb = t[a], t[b]
            # No inverse images: a translation permutes the finite carrier, so
            # the map it induces on the classes is onto, hence one-to-one, and
            # then its inverse respects the classes too.
            for c in elems:
                tc = t[c]
                for u, v in ((ta[c], tb[c]), (tc[a], tc[b])):
                    if self.union(u, v):
                        pending.append((u, v))

    def is_compatible(self) -> bool:
        """Both operation arguments and the inverse translations respect the
        classes: the row, the column and the inverse row of each element,
        mapped to classes, equal those of its class root, which by
        transitivity covers every pair inside a class."""
        q = self.quandle
        root = [self.find(x) for x in range(q.n)]
        pairs = [(a, r) for a, r in enumerate(root) if a != r]
        if not pairs:
            return True
        for lines in (q.table, q.columns(), q.inverse_translations()):
            if any(gather(lines[a])(root) != gather(lines[r])(root) for a, r in pairs):
                return False
        return True


def _quotient_rows(q: FiniteQuandle, blocks) -> list[tuple[int, ...]]:
    """The operation on the classes `blocks`, numbered in the given order; a
    quandle table when the partition is a congruence."""
    cls = _class_map(blocks)
    proj = [cls[x] for x in range(q.n)]
    reps = [block[0] for block in blocks]
    pick = gather(reps)
    return [gather(pick(q.table[r]))(proj) for r in reps]


def quotient_by_identity(q: FiniteQuandle,
                         spec: IdentitySpec) -> tuple[FiniteQuandle, list[int]]:
    """Quotient by the least congruence whose quotient satisfies `spec`.

    Returns the quotient quandle and the projection list (element -> class,
    classes numbered by smallest member).  Each round takes the class
    representatives, finds the first violated identity instance over them
    whose two sides lie in different classes (IdentitySpec.forced_pair), and
    joins those sides, which closes the partition into a congruence again.
    A round that finds no such instance shows the quotient satisfies the
    identity, and since every join was forced the congruence is the least
    one.
    """
    cong = Congruence(q)
    while (forced := spec.forced_pair(cong)) is not None:
        cong.join(forced[0], forced[1])
    if not cong.is_compatible():
        raise InternalAxiomFailure("closure ended on a partition that is not"
                                   " a congruence")
    proj = cong.projection()
    return FiniteQuandle(_quotient_rows(q, cong.blocks())), proj


def _set_partitions(n: int):
    """All partitions of range(n), blocks ordered by smallest member."""
    blocks: list[list[int]] = []

    def rec(k: int):
        if k == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1)
        blocks.pop()

    yield from rec(0)


def _class_map(partition) -> dict[int, int]:
    out = {}
    for ci, block in enumerate(partition):
        for x in block:
            out[x] = ci
    return out


def _is_congruence(q: FiniteQuandle, inv, partition) -> bool:
    cls = _class_map(partition)
    t = q.table
    for block in partition:
        for a in block:
            for b in block:
                if a >= b:
                    continue
                for c in range(q.n):
                    if (cls[t[a][c]] != cls[t[b][c]]
                            or cls[t[c][a]] != cls[t[c][b]]
                            or cls[inv[a][c]] != cls[inv[b][c]]):
                        return False
    return True


def _quotient_satisfies(q: FiniteQuandle, partition, spec: IdentitySpec) -> bool:
    cls = _class_map(partition)
    reps = [block[0] for block in partition]
    rows = [[cls[q.table[ra][rb]] for rb in reps] for ra in reps]
    quot = FiniteQuandle(rows)
    return next(spec.forced_pairs(quot, range(quot.n)), None) is None


def _meet_partitions(partitions, n: int):
    maps = [_class_map(p) for p in partitions]
    groups: dict[tuple[int, ...], list[int]] = {}
    for x in range(n):
        groups.setdefault(tuple(m[x] for m in maps), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def brute_force_smallest_congruence(q: FiniteQuandle, spec: IdentitySpec):
    """Oracle: enumerate every set partition, keep the congruences whose
    quotient satisfies the identity, and return the finest one.

    Congruences with the property are closed under intersection, so the
    finest exists; the meet of all valid partitions must itself appear in
    the valid list, which is checked.
    """
    if q.n > 6:
        raise TooLarge(f"partition enumeration capped at order 6, got {q.n}")
    inv = q.inverse_translations()
    valid = [p for p in _set_partitions(q.n)
             if _is_congruence(q, inv, p) and _quotient_satisfies(q, p, spec)]
    finest = _meet_partitions(valid, q.n)
    if finest not in valid:
        raise InternalAxiomFailure("the meet of the valid congruences is not"
                                   " one of them")
    return finest
