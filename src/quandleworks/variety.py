"""Smallest-congruence quotients of finite quandles.

quotient_by_identity computes the quotient by the least congruence whose
quotient satisfies a chosen identity: the medial law, or "every translation
has order dividing n".  Each round builds the current quotient's table and
asks the identity's function of a table (quandle.medial_violation or
n_quandle_violation, which FiniteQuandle.is_medial and is_n_quandle ask
too) for its first violated instance, then joins the two classes it names;
Congruence.join is the one routine that closes a partition under the
operation, a worklist congruence closure.  Each join is forced in every
congruence with that property, so the fixpoint is the least such congruence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quandle import (FiniteQuandle, InternalAxiomFailure, gather,
                      medial_violation, n_quandle_violation)

MEDIAL_TAG = "medial"
N_QUANDLE_TAG = "n_quandle"


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

    def violation(self, rows):
        """The first violated instance in the quandle table `rows`, starting
        with its two sides, or None when the table satisfies the identity."""
        if self.tag == MEDIAL_TAG:
            return medial_violation(rows)
        return n_quandle_violation(rows, self.parameter)


MEDIAL = IdentitySpec(MEDIAL_TAG)


def n_quandle(power: int) -> IdentitySpec:
    return IdentitySpec(N_QUANDLE_TAG, power)


class Congruence:
    """Union-find partition of a quandle's elements with path halving.  A
    union links the larger root under the smaller, so each class's root is
    its least member; path halving alone keeps finds logarithmic amortized
    (Tarjan and van Leeuwen, J. ACM 31, 1984)."""

    def __init__(self, quandle: FiniteQuandle) -> None:
        self.quandle = quandle
        self._parent = list(range(quandle.n))

    def find(self, a: int) -> int:
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[max(ra, rb)] = min(ra, rb)
        return True

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The classes, each ascending, ordered by least member: x runs
        upward, so each class is met first at its least member."""
        groups: dict[int, list[int]] = {}
        for x in range(self.quandle.n):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(map(tuple, groups.values()))

    def projection(self) -> list[int]:
        """Element -> class index, classes numbered by least member."""
        index: dict[int, int] = {}
        return [index.setdefault(self.find(x), len(index)) for x in range(self.quandle.n)]

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
    classes numbered by smallest member).  Each round builds the table of
    the current quotient, asks IdentitySpec.violation for its first violated
    instance, and joins representatives of the two classes it names, which
    closes the partition into a congruence again.  A round that finds no
    violation shows the quotient satisfies the identity, and since every
    join was forced the congruence is the least one.
    """
    cong = Congruence(q)
    while True:
        blocks = cong.blocks()
        rows = _quotient_rows(q, blocks)
        forced = spec.violation(rows)
        if forced is None:
            break
        cong.join(blocks[forced[0]][0], blocks[forced[1]][0])
    if not cong.is_compatible():
        raise InternalAxiomFailure("closure ended on a partition that is not"
                                   " a congruence")
    return FiniteQuandle(rows), cong.projection()


def _class_map(partition) -> dict[int, int]:
    out = {}
    for ci, block in enumerate(partition):
        for x in block:
            out[x] = ci
    return out
