"""Reference answers for the benchmark's output checks.

Everything here is written independently of the quandleworks package and
never imports it: tables are plain lists of rows over {0, ..., n-1}, where
rows[i][j] is i acted on by j, exactly as in the "quandle v1" file format
minus the 1-indexing.
"""

from __future__ import annotations

from math import lcm


def trivial(n: int) -> list[list[int]]:
    return [[i] * n for i in range(n)]


def affine(n: int, t: int) -> list[list[int]]:
    """x acted on by y gives t*x + (1-t)*y mod n (dihedral when t = -1)."""
    return [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)]


def dihedral(n: int) -> list[list[int]]:
    return affine(n, -1)


def render(rows) -> str:
    lines = ["quandle v1", f"n={len(rows)}"]
    lines += [" ".join(str(v + 1) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def relabel(rows, perm) -> list[list[int]]:
    """The same quandle with element i renamed perm[i]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[rows[i][j]]
    return out


def inverse(rows) -> list[list[int]]:
    """inv[i][j] is the x with rows[x][j] == i."""
    n = len(rows)
    inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for j in range(n):
            inv[rows[x][j]][j] = x
    return inv


def orbits(rows) -> list[list[int]]:
    """Orbit blocks, each sorted, ordered by smallest member."""
    n = len(rows)
    label = list(range(n))

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    for x in range(n):
        for y in range(n):
            a, b = find(x), find(rows[x][y])
            if a != b:
                label[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def reverse(rows, element: int) -> list[list[int]]:
    """Invert the translation by every member of element's orbit."""
    block = next(b for b in orbits(rows) if element in b)
    inv = inverse(rows)
    return [[inv[i][j] if j in block else rows[i][j] for j in range(len(rows))]
            for i in range(len(rows))]


def medial_witness(rows):
    """First (w, x, y, z) breaking (w*x)*(y*z) == (w*y)*(x*z), or None."""
    n = len(rows)
    for w in range(n):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if rows[rows[w][x]][rows[y][z]] != rows[rows[w][y]][rows[x][z]]:
                        return w, x, y, z
    return None


def breaks_medial(rows, w: int, x: int, y: int, z: int) -> bool:
    """Evaluate both sides of the medial law at one instance."""
    return rows[rows[w][x]][rows[y][z]] != rows[rows[w][y]][rows[x][z]]


def translation_power(rows, power: int):
    """power_map[y][x] is x acted on by y, |power| times (inverse if negative),
    read off the cycles of each translation instead of iterating."""
    n = len(rows)
    table = rows if power >= 0 else inverse(rows)
    out = [[0] * n for _ in range(n)]
    for y in range(n):
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            while (nxt := table[cycle[-1]][y]) != start:
                seen[nxt] = True
                cycle.append(nxt)
            for k, x in enumerate(cycle):
                out[y][x] = cycle[(k + abs(power)) % len(cycle)]
    return out


def translation_order(rows) -> int:
    """lcm of the orders of all translations."""
    n = len(rows)
    powers = [1]
    for y in range(n):
        seen = [False] * n
        for start in range(n):
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = rows[x][y]
                length += 1
            if length:
                powers.append(length)
    return lcm(*powers)


def least_congruence(rows, power: int | None = None) -> list[list[int]]:
    """Blocks of the least congruence whose quotient is medial (power None)
    or has every translation order dividing power.

    A worklist closes each merged pair under both operation arguments and
    the inverse translations; then the identity is tested on one element per
    class, its two sides are merged, and the round repeats until no merge
    happens.  Every merge is forced, so the fixpoint is the least one.
    """
    n = len(rows)
    inv = inverse(rows)
    pw = None if power is None else translation_power(rows, power)
    parent = list(range(n))
    pending: list[tuple[int, int]] = []

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            pending.append((a, b))

    while True:
        while pending:
            a, b = pending.pop()
            for c in range(n):
                merge(rows[a][c], rows[b][c])
                merge(rows[c][a], rows[c][b])
                merge(inv[a][c], inv[b][c])
        reps = [x for x in range(n) if find(x) == x]
        if pw is None:
            for w in reps:
                for x in reps:
                    for y in reps:
                        for z in reps:
                            merge(rows[rows[w][x]][rows[y][z]],
                                  rows[rows[w][y]][rows[x][z]])
        else:
            for y in reps:
                for x in reps:
                    merge(pw[y][x], x)
        if not pending:
            break
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def quotient_text(rows, blocks) -> str:
    """What `quotient` prints: projection lines, a blank line, the table.
    Classes are numbered by smallest member."""
    blocks = sorted(sorted(block) for block in blocks)
    cls = {x: k for k, block in enumerate(blocks) for x in block}
    reps = [block[0] for block in blocks]
    table = [[cls[rows[a][b]] for b in reps] for a in reps]
    lines = [f"{x + 1} -> {cls[x] + 1}" for x in range(len(rows))]
    return "\n".join(lines) + "\n\n" + render(table)
