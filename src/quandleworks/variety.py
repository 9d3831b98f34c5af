"""Smallest-congruence quotients of finite quandles.

quotient_by_identity computes the quotient by the least congruence whose
quotient satisfies a chosen identity: the medial law, or "every translation
has order dividing n".  In one pass it joins each pair of lines that
IdentitySpec.forced_lines yields (quandle.displacement_commutators and
quandle.n_quandle_violations give the pairs, read off the translators
only, and say why merged elements are skipped) with Congruence.join_lines,
the one routine that closes a partition under the operation, a worklist
congruence closure over class lists (Downey, Sethi and Tarjan, J. ACM 27,
1980); then it builds the quotient table once, or, when no class merged,
returns the input as its own quotient.  Every pair is forced, so the
congruence lies in the least one, and the postconditions raise unless it
is a congruence (its rows and columns respect the classes, and the
inverse translations follow) whose quotient satisfies the identity, which
makes it the least one; the quotient's axioms are checked first, as both
identity checks read its translators.  The medial pairs come x by x, and
a g_x is built only for an x not yet merged into a smaller element, so a
reversed shadow, which the first pairs collapse to its two orbits, builds
3 of its 22 g_x at n = 22.

A Congruence labels each element with its class's least member.
join_lines maps two lines to labels with quandle.gather, compares them
whole and unions only where they differ; each merge pushes its two
columns, and its two rows at the translators (quandle._Rows.translators)
only, which is enough for the right translations to respect the classes.
A medial quotient of a reversed shadow makes n union calls (22 at
n = 22).
"""

from __future__ import annotations

from itertools import compress
from operator import ne

from .quandle import (FiniteQuandle, InternalAxiomFailure, gather,
                      displacement_commutators, induced_rows, medial_violation,
                      n_quandle_violation, n_quandle_violations)
from .ring import FrozenValue

MEDIAL_TAG = "medial"
N_QUANDLE_TAG = "n_quandle"


class IdentitySpec(FrozenValue):
    """Identity to force on the quotient.

    tag 'medial' forces (w*x)*(y*z) = (w*y)*(x*z); tag 'n_quandle' forces
    every translation iterated `parameter` times to be the identity (the
    parameter may be negative, iterating inverse translations).
    """

    __slots__ = ("tag", "parameter")

    def __init__(self, tag: str, parameter: int = 0) -> None:
        if tag not in (MEDIAL_TAG, N_QUANDLE_TAG):
            raise ValueError(f"unknown identity tag {tag!r}")
        if type(parameter) is not int:
            raise TypeError(f"the identity's parameter must be an int,"
                            f" got {parameter!r}")
        if tag == MEDIAL_TAG and parameter:
            raise ValueError(f"the medial law takes no parameter,"
                             f" got {parameter}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "parameter", parameter)

    def violation(self, rows):
        """The first violated instance in the quandle table `rows`, starting
        with its two sides, or None when the table satisfies the identity."""
        if self.tag == MEDIAL_TAG:
            return medial_violation(rows)
        return n_quandle_violation(rows, self.parameter)

    def forced_lines(self, q: FiniteQuandle, find):
        """Pairs of lines whose joins force the identity on q's quotient."""
        if self.tag == MEDIAL_TAG:
            return displacement_commutators(q.table, find)
        return (((lhs,), (rhs,)) for lhs, rhs, _, _
                in n_quandle_violations(q.table, self.parameter, find))


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

    def join_lines(self, la, lb) -> None:
        """Merge the classes of la[i] and lb[i] for each position i, then
        close the partition under the operation.  Each pair of lines is
        mapped to class labels and compared whole; union runs only where
        the mapped lines differ, and each pair u, v that merges there pushes
        its two columns and the entries u*s, v*s of its two rows at the
        translators s, handled the same way.  Positions equal in the
        snapshot stay equal, since labels only merge.  Every R_s then maps
        each merged pair into one class, so it respects the classes, and so
        does every R_x = h R_s h^-1 (see is_compatible)."""
        q = self.quandle
        rows, columns = q.table, q.columns()
        pick = gather(rows.translators)  # pick(row) is row[s] for each s
        label, union = self._label, self.union
        pending = [(la, lb)]
        while pending:
            la, lb = pending.pop()
            mapped_a, mapped_b = gather(la)(label), gather(lb)(label)
            if mapped_a == mapped_b:
                continue
            # No inverse images: is_compatible says why they follow.
            for u, v in compress(zip(la, lb), map(ne, mapped_a, mapped_b)):
                if union(u, v):
                    pending += ((pick(rows[u]), pick(rows[v])),
                                (columns[u], columns[v]))

    def is_compatible(self) -> bool:
        """Both operation arguments respect the classes.  The translation by
        each member of a class with two or more members, mapped to class
        labels, equals that of the class's least member, which by
        transitivity covers every pair inside a class.  Each R_s by a
        translator s, mapped to class labels, takes the same value at every
        element as at its class's least member.  Inverse translations
        follow: a translation that respects the classes maps the finite set
        of classes onto itself, hence one-to-one, so its inverse respects
        them (test_variety.py::test_forward_images_imply_inverse_images).
        So every h in <R_s> and every R_{h(s)} = h R_s h^-1 respects them,
        and every element is such an h(s) (see quandle.check_axioms)."""
        label = self._label
        columns = self.quandle.columns()
        classes = [block for block in self._members if len(block) > 1]
        for least, *others in classes:
            line = gather(columns[least])(label)
            if any(gather(columns[x])(label) != line for x in others):
                return False
        at_least = gather(label)  # at_least(f)[x] is f at x's least member
        for s in self.quandle.table.translators:
            line = gather(columns[s])(label)
            if at_least(line) != line:
                return False
        return True


def quotient_by_identity(q: FiniteQuandle,
                         spec: IdentitySpec) -> tuple[FiniteQuandle, list[int]]:
    """Quotient by the least congruence whose quotient satisfies `spec`.

    Returns the quotient quandle and the projection list (element -> class,
    classes numbered by smallest member).  When no class merges, the
    quotient is q itself, with the identity projection; its table is not
    rebuilt or checked again, but the identity is.  See the module
    docstring.
    """
    cong = Congruence(q)
    for la, lb in spec.forced_lines(q, cong.find):
        if la != lb:
            cong.join_lines(la, lb)
    if not cong.is_compatible():
        raise InternalAxiomFailure("closure ended on a partition that is not"
                                   " a congruence")
    proj = cong.projection()
    reps = [block[0] for block in cong.blocks()]
    quotient = FiniteQuandle(induced_rows(q.table, reps, proj)) if len(reps) < q.n else q
    if spec.violation(quotient.table) is not None:
        raise InternalAxiomFailure("the closure's quotient fails the identity")
    return quotient, proj
