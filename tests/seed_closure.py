"""Test oracle: a two-phase congruence closure, written independently of the
worklist closure in quandleworks.variety.

Compatibility is closed by full passes over all pairs, repeated until a pass
changes nothing, alternating with a sweep that unions the two sides of every
identity instance over the class representatives (violated or not).  The
n-quandle sweep iterates translations |power| times, so keep powers small.
"""

from itertools import product

from quandleworks import Congruence, FiniteQuandle


def _close_compatibility(cong: Congruence, q: FiniteQuandle, inv) -> bool:
    t = q.table
    n = q.n
    changed_any = False
    dirty = True
    while dirty:
        dirty = False
        for a in range(n):
            for b in range(a + 1, n):
                if cong.find(a) != cong.find(b):
                    continue
                for c in range(n):
                    for u, v in ((t[a][c], t[b][c]),
                                 (t[c][a], t[c][b]),
                                 (inv[a][c], inv[b][c])):
                        if cong.union(u, v):
                            dirty = True
                            changed_any = True
    return changed_any


def _merge_identity_violations(cong: Congruence, q: FiniteQuandle, inv,
                               spec) -> bool:
    t = q.table
    reps = [block[0] for block in cong.blocks()]
    changed = False
    if spec.tag == "medial":
        for w, x, y, z in product(reps, repeat=4):
            u = t[t[w][x]][t[y][z]]
            v = t[t[w][y]][t[x][z]]
            if cong.union(u, v):
                changed = True
    else:
        table = t if spec.parameter >= 0 else inv
        steps = abs(spec.parameter)
        for y in reps:
            for x in reps:
                cur = x
                for _ in range(steps):
                    cur = table[cur][y]
                if cong.union(cur, x):
                    changed = True
    return changed


def seed_projection(q: FiniteQuandle, spec) -> list[int]:
    """Projection (element -> class, numbered by smallest member) of the
    least congruence whose quotient satisfies `spec`."""
    cong = Congruence(q)
    inv = q.inverse_translations()
    while True:
        changed = _close_compatibility(cong, q, inv)
        changed = _merge_identity_violations(cong, q, inv, spec) or changed
        if not changed:
            break
    return cong.projection()
