"""Test oracles: the scalar axiom check, one instance at a time, written
independently of the column-by-column check in quandleworks.quandle, and
the displacement-group mediality check over every pair of displacements.

The table must already have the right shape and entry range.
"""

from itertools import product

from quandleworks import AxiomReport
from quandleworks.quandle import _inverse, gather


def seed_check_axioms(rows) -> AxiomReport:
    """The report check_axioms must give: for each axiom, the
    lexicographically first violating instance, and the first of those as
    the witness (unused slots are None)."""
    n = len(rows)

    idem_wit = None
    for i in range(n):
        if rows[i][i] != i:
            idem_wit = (i, i, None)
            break

    bij_wit = None
    for j in range(n):
        seen: dict[int, int] = {}
        for i in range(n):
            v = rows[i][j]
            if v in seen:
                bij_wit = (seen[v], i, j)
                break
            seen[v] = i
        if bij_wit:
            break

    dist_wit = None
    for i, j, k in product(range(n), repeat=3):
        if rows[rows[i][j]][k] != rows[rows[i][k]][rows[j][k]]:
            dist_wit = (i, j, k)
            break

    first = next((w for w in (idem_wit, bij_wit, dist_wit) if w is not None), None)
    return AxiomReport(idem_wit is None, bij_wit is None, dist_wit is None, first)


def seed_displacements_commute(columns) -> bool:
    """Whether the maps g_x = R_x R_0^-1 commute pairwise, where columns[x]
    is the translation R_x of a quandle as a tuple: they generate the
    displacement group, so this decides mediality with O(n^2)
    compositions."""
    disp = list(map(gather(_inverse(columns[0])), columns))
    after = [gather(g) for g in disp]  # after[b](f) is f g_b
    for a in range(1, len(disp)):
        ga, after_a = disp[a], after[a]
        for b in range(a + 1, len(disp)):
            if after[b](ga) != after_a(disp[b]):
                return False
    return True
