"""Smallest-congruence quotients of finite quandles.

quotient_by_identity computes the quotient by the least congruence whose
quotient satisfies a chosen identity: the medial law, or "every translation
has order dividing n".  Each round builds the current quotient's table
with quandle.induced_rows, the builder relabel uses too, and asks the
identity's function of a table (quandle.medial_violation or
n_quandle_violation, which FiniteQuandle.is_medial and is_n_quandle ask
too) for its first violated instance, then joins the two classes it names;
Congruence.join is the one routine that closes a partition under the
operation, a worklist congruence closure over class lists (Downey, Sethi and
Tarjan, J. ACM 27, 1980).  Each join is forced in every congruence with that
property, so the fixpoint is the least such congruence.

A Congruence labels each element with its class's least member.  For each
pair that merged, join maps the two rows, and then the two columns, to
labels with quandle.gather and compares them whole; union runs only where
they differ.  A union that merges adds one pair to the worklist.  A merge
can still cost up to 2n union calls, one per differing position, but on the
reversed finite shadows a whole medial quotient makes fewer than 2n of them
(34 at n = 22, 304 at n = 202), where unioning the images at every position
made 2n per merge (881 at n = 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne

from .quandle import (FiniteQuandle, InternalAxiomFailure, gather,
                      induced_rows, medial_violation, n_quandle_violation)

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
        if type(self.parameter) is not int:
            raise TypeError(f"the identity's parameter must be an int,"
                            f" got {self.parameter!r}")
        if self.tag == MEDIAL_TAG and self.parameter:
            raise ValueError(f"the medial law takes no parameter,"
                             f" got {self.parameter}")

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
    """Partition of a quandle's elements as a class label per element, the
    class's least member, plus the member list of each class.  find is a
    list lookup; a union relabels the members of the class whose least
    member is larger, so labels stay least members and the classes come out
    ordered without sorting.  A quotient makes at most n - 1 merges, so
    relabeling costs O(n^2) element writes over a whole closure."""

    def __init__(self, quandle: FiniteQuandle) -> None:
        self.quandle = quandle
        self._label = list(range(quandle.n))
        self._members = [[x] for x in range(quandle.n)]

    def find(self, a: int) -> int:
        return self._label[a]

    def union(self, a: int, b: int) -> bool:
        label = self._label
        keep, gone = sorted((label[a], label[b]))
        if keep == gone:
            return False
        moved = self._members[gone]
        for x in moved:
            label[x] = keep
        self._members[keep] += moved
        self._members[gone] = []
        return True

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The classes, each ascending, ordered by least member: x runs
        upward, so each class is met first at its least member."""
        groups: dict[int, list[int]] = {}
        for x, r in enumerate(self._label):
            groups.setdefault(r, []).append(x)
        return tuple(map(tuple, groups.values()))

    def projection(self) -> list[int]:
        """Element -> class index, classes numbered by least member."""
        index: dict[int, int] = {}
        return [index.setdefault(r, len(index)) for r in self._label]

    def join(self, a: int, b: int) -> None:
        """Merge the classes of a and b, then close the partition under the
        operation.  For each pair that merged, the rows of its two elements
        are mapped to class labels and compared whole, and so are their
        columns; union runs only where the mapped lines differ, and each
        pair that merges there is handled the same way.  Positions equal in
        the snapshot stay equal, since labels only merge."""
        q = self.quandle
        label, union = self._label, self.union
        pending = [(a, b)] if union(a, b) else []
        while pending:
            a, b = pending.pop()
            # No inverse images: a translation permutes the finite carrier, so
            # the map it induces on the classes is onto, hence one-to-one, and
            # then its inverse respects the classes too.
            for lines in (q.table, q.columns()):
                la, lb = lines[a], lines[b]
                mapped_a, mapped_b = gather(la)(label), gather(lb)(label)
                if mapped_a == mapped_b:
                    continue
                for u, v in compress(zip(la, lb), map(ne, mapped_a, mapped_b)):
                    if union(u, v):
                        pending.append((u, v))

    def is_compatible(self) -> bool:
        """Both operation arguments and the inverse translations respect the
        classes: the row, the column and the inverse row of each element of
        a class with two or more members, mapped to class labels, equal
        those of the class's least member, which by transitivity covers
        every pair inside a class."""
        q = self.quandle
        label = self._label
        merged = [x for block in self._members if len(block) > 1 for x in block]
        if not merged:
            return True
        for lines in (q.table, q.columns(), q.inverse_translations()):
            mapped = {x: gather(lines[x])(label) for x in merged}
            if any(mapped[x] != mapped[label[x]] for x in merged):
                return False
        return True


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
        reps = [block[0] for block in cong.blocks()]
        proj = cong.projection()
        rows = induced_rows(q.table, reps, proj)
        forced = spec.violation(rows)
        if forced is None:
            break
        cong.join(reps[forced[0]], reps[forced[1]])
    if not cong.is_compatible():
        raise InternalAxiomFailure("closure ended on a partition that is not"
                                   " a congruence")
    return FiniteQuandle(rows), proj
