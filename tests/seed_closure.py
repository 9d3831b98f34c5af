"""Test oracles: a union-find partition, and a two-phase congruence closure
written independently of the worklist closure in quandleworks.variety.

UnionFindCongruence is the union-find design quandleworks.variety.Congruence
had before it kept a class label per element: a forest with path halving in
which the smaller root wins, closed by a join that unions the images of each
merged pair under both arguments at every position.  It offers the same methods, so it can stand in for the
label-array class wherever that one is used.

Compatibility is closed by full passes over all pairs, repeated until a pass
changes nothing, alternating with a sweep that unions the two sides of every
identity instance over the class representatives (violated or not).  The
n-quandle sweep iterates translations |power| times, so keep powers small.
"""

from itertools import product

from quandleworks import FiniteQuandle
from quandleworks.quandle import gather


class UnionFindCongruence:
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
        groups: dict[int, list[int]] = {}
        for x in range(self.quandle.n):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(map(tuple, groups.values()))

    def projection(self) -> list[int]:
        index: dict[int, int] = {}
        return [index.setdefault(self.find(x), len(index)) for x in range(self.quandle.n)]

    def join(self, a: int, b: int) -> None:
        """Merge the classes of a and b, then union the images of each pair
        that merged under both arguments, at every position."""
        t = self.quandle.table
        elems = range(self.quandle.n)
        pending = [(a, b)] if self.union(a, b) else []
        while pending:
            a, b = pending.pop()
            ta, tb = t[a], t[b]
            for c in elems:
                tc = t[c]
                for u, v in ((ta[c], tb[c]), (tc[a], tc[b])):
                    if self.union(u, v):
                        pending.append((u, v))

    def is_compatible(self) -> bool:
        q = self.quandle
        root = [self.find(x) for x in range(q.n)]
        pairs = [(a, r) for a, r in enumerate(root) if a != r]
        if not pairs:
            return True
        for lines in (q.table, q.columns(), q.inverse_translations()):
            if any(gather(lines[a])(root) != gather(lines[r])(root) for a, r in pairs):
                return False
        return True


def _close_compatibility(cong, q: FiniteQuandle, inv) -> bool:
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


def _merge_identity_violations(cong, q: FiniteQuandle, inv,
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
    cong = UnionFindCongruence(q)
    inv = q.inverse_translations()
    while True:
        changed = _close_compatibility(cong, q, inv)
        changed = _merge_identity_violations(cong, q, inv, spec) or changed
        if not changed:
            break
    return cong.projection()
