"""Test oracle: the least congruence with a property, found by enumerating
every set partition of a small table.

It shares only the quotient-table builder (quandle.induced_rows) and the
medial instance scan with the library: mediality is decided by scanning
every instance, never by the displacement group, and the translation-order
law by walking the cycles of every column, never the translators only.
"""

from quandleworks import FiniteQuandle, InternalAxiomFailure
from quandleworks.quandle import induced_rows, scan_medial
from quandleworks.variety import MEDIAL_TAG


class TooLarge(ValueError):
    """The table is too big for the partition-enumeration oracle."""


def _class_map(partition) -> dict[int, int]:
    """Element -> index of its block."""
    return {x: ci for ci, block in enumerate(partition) for x in block}


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


def _every_translation_has_order_dividing(rows, power: int) -> bool:
    """Each column, a permutation, iterated `power` times (its inverse if
    negative) is the identity: the cycle through every element of every
    column has a length dividing power."""
    for column in zip(*rows):
        for x in range(len(column)):
            length, y = 1, column[x]
            while y != x:
                length, y = length + 1, column[y]
            if power % length:
                return False
    return True


def _quotient_satisfies(q: FiniteQuandle, partition, spec) -> bool:
    cls = _class_map(partition)
    proj = [cls[x] for x in range(q.n)]
    reps = [block[0] for block in partition]
    rows = FiniteQuandle(induced_rows(q.table, reps, proj)).table
    if spec.tag == MEDIAL_TAG:
        return scan_medial(rows) is None
    return _every_translation_has_order_dividing(rows, spec.parameter)


def _meet_partitions(partitions, n: int):
    maps = [_class_map(p) for p in partitions]
    groups: dict[tuple[int, ...], list[int]] = {}
    for x in range(n):
        groups.setdefault(tuple(m[x] for m in maps), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def brute_force_smallest_congruence(q: FiniteQuandle, spec):
    """Enumerate every set partition, keep the congruences whose quotient
    satisfies the identity, and return the finest one.

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
