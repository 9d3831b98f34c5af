"""Finite quandles as square operation tables over {0, ..., n-1}.

table[i][j] holds the row element acted on by the column element, so column
j is the translation by j.  Everything in memory is 0-indexed; the plain
text "quandle v1" file format is 1-indexed, with the conversion confined to
parse/render.

The table checks compose whole translations, held as tuples, with gather
(operator.itemgetter, so each composition runs at C speed): distributivity
is R_k R_j = R_{j*k} R_k for every pair (j, k), and mediality is decided by
the displacement group (displacements_commute).  Derived tables are built
from whole translations too: the inverse table and an orbit reversal invert
columns with _inverse, and relabel picks and renames rows with gather.  Each
identity is one function of a table, a sequence of row tuples:
medial_violation and n_quandle_violation return the lexicographically first
violating instance, and FiniteQuandle.is_medial / is_n_quandle and the
quotient closure in variety.py all ask them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

FORMAT_HEADER = "quandle v1"


class MalformedTable(ValueError):
    """Structurally bad table text or array (shape, range, or format)."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AxiomError(ValueError):
    """A well-shaped table that fails a quandle axiom."""

    def __init__(self, report: "AxiomReport") -> None:
        super().__init__(f"table violates quandle axioms: {report.summary()}")
        self.report = report


class InternalAxiomFailure(RuntimeError):
    """A derived table failed validation that should hold by construction."""


@dataclass(frozen=True)
class AxiomReport:
    idempotent: bool
    bijective_columns: bool
    distributive: bool
    first_witness: tuple | None  # indices of the first failing instance

    @property
    def ok(self) -> bool:
        return self.idempotent and self.bijective_columns and self.distributive

    def summary(self) -> str:
        text = (f"idempotent={self.idempotent}"
                f" bijective_columns={self.bijective_columns}"
                f" distributive={self.distributive}")
        if self.first_witness is not None:
            text += f" witness={self.first_witness}"
        return text


def gather(indices):
    """The function taking f to the tuple of f[i] for i in indices, so that
    gather(g)(f) is the map f after g.  itemgetter does the lookups at C
    speed, but with one index it returns a bare item, not a tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda f: (f[i],)
    return itemgetter(*indices)


def _inverse(perm) -> tuple[int, ...]:
    """The inverse of perm, a permutation of range(len(perm))."""
    inverse = [0] * len(perm)
    for i, v in enumerate(perm):
        inverse[v] = i
    return tuple(inverse)


def _as_rows(table) -> tuple[tuple[int, ...], ...]:
    rows = list(table)
    n = len(rows)
    if n == 0:
        raise MalformedTable("table is empty")
    out = []
    for i, row in enumerate(rows):
        entries = tuple(row)
        if len(entries) != n:
            raise MalformedTable(f"row {i} has {len(entries)} entries, expected {n}")
        if not (set(map(type, entries)) == {int}
                and 0 <= min(entries) and max(entries) < n):
            for v in entries:  # name the first bad entry
                if not isinstance(v, int):
                    raise MalformedTable(f"row {i} has non-integer entry {v!r}")
                if not 0 <= v < n:
                    raise MalformedTable(f"row {i} entry {v} out of range 0..{n - 1}")
        out.append(entries)
    return tuple(out)


def check_axioms(table) -> AxiomReport:
    """Test idempotence, column bijectivity, and right self-distributivity.

    Witnesses are deterministic: the lexicographically first violating
    instance of the first failing axiom (unused slots are None).
    """
    rows = _as_rows(table)
    n = len(rows)
    columns = tuple(zip(*rows))

    idem_wit = None
    for i in range(n):
        if rows[i][i] != i:
            idem_wit = (i, i, None)
            break

    bij_wit = None
    for j, column in enumerate(columns):
        if len(set(column)) < n:
            seen: dict[int, int] = {}
            for i, v in enumerate(column):
                if v in seen:
                    bij_wit = (seen[v], i, j)
                    break
                seen[v] = i
            break

    # (i*j)*k = (i*k)*(j*k) for all i is R_k R_j = R_{j*k} R_k.  A failing
    # pair's first violating i is its first differing entry, so the least
    # (i, j, k) over the failing pairs is the first violating triple.
    after = [gather(column) for column in columns]  # after[j](f) is f R_j
    dist_wit = None
    for j, row in enumerate(rows):
        after_j = after[j]
        for k, jk in enumerate(row):
            lhs = after_j(columns[k])
            rhs = after[k](columns[jk])
            if lhs != rhs:
                i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                witness = (i, j, k)
                if dist_wit is None or witness < dist_wit:
                    dist_wit = witness

    first = next((w for w in (idem_wit, bij_wit, dist_wit) if w is not None), None)
    return AxiomReport(idem_wit is None, bij_wit is None, dist_wit is None, first)


def displacements_commute(columns) -> bool:
    """Whether the maps g_x = R_x R_0^-1 commute pairwise, where columns[x]
    is the translation R_x as a tuple.

    The g_x generate the displacement group Dis(Q) = <R_x R_y^-1>, and a
    quandle is medial exactly when Dis(Q) is abelian (Joyce, JPAA 23, 1982;
    Jedlicka, Pilitowska, Stanovsky and Zamojska-Dzienio, J. Algebra 2015).
    So on a quandle table this decides mediality with O(n^2) compositions.
    """
    disp = list(map(gather(_inverse(columns[0])), columns))
    after = [gather(g) for g in disp]  # after[b](f) is f g_b
    for a in range(1, len(disp)):
        ga, after_a = disp[a], after[a]
        for b in range(a + 1, len(disp)):
            if after[b](ga) != after_a(disp[b]):
                return False
    return True


def scan_medial(rows):
    """The first (lhs, rhs, w, x, y, z) with (w*x)*(y*z) = lhs differing
    from (w*y)*(x*z) = rhs in the table `rows`, lexicographic over x < y, or
    None.  Swapping x and y gives the other violations, sides exchanged;
    x = y never violates."""
    n = len(rows)
    for w in range(n):
        tw = rows[w]
        for x in range(n):
            twx = rows[tw[x]]
            tx = rows[x]
            for y in range(x + 1, n):
                twy = rows[tw[y]]
                ty = rows[y]
                for z in range(n):
                    lhs = twx[ty[z]]
                    rhs = twy[tx[z]]
                    if lhs != rhs:
                        return lhs, rhs, w, x, y, z
    return None


def medial_violation(rows):
    """scan_medial's witness for a quandle table `rows`, or None when it is
    medial.  The displacement group decides; only a table it finds not
    medial is scanned, to name the witness."""
    if displacements_commute(tuple(zip(*rows))):
        return None
    first = scan_medial(rows)
    if first is None:
        raise InternalAxiomFailure("the displacement group is not abelian,"
                                   " yet no medial instance is violated")
    return first


def n_quandle_violation(rows, power: int):
    """The first (lhs, rhs, x, y), y outermost, where x acted on `power`
    times by y is lhs, not rhs = x, in the quandle table `rows`, or None; a
    negative power iterates inverse translations.  Each translation is
    walked cycle by cycle, so the cost does not grow with |power|."""
    n = len(rows)
    for y in range(n):
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            # every smaller element lies on an earlier cycle, so start is the
            # least element of this one
            seen[start] = True
            cycle = [start]
            x = rows[start][y]
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = rows[x][y]
            shift = power % len(cycle)
            if shift:
                return cycle[shift], start, start, y
    return None


class FiniteQuandle:
    """Validated, immutable operation table.  Construction checks all axioms."""

    def __init__(self, table) -> None:
        rows = _as_rows(table)
        report = check_axioms(rows)
        if not report.ok:
            raise AxiomError(report)
        self.table = rows
        self.n = len(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteQuandle):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteQuandle(n={self.n})"

    @cached_property
    def _inverse_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*map(_inverse, self._columns)))

    def inverse_translations(self) -> tuple[tuple[int, ...], ...]:
        """result[i][j] is the unique x with x acted on by j giving i."""
        return self._inverse_table

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.table))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: result[j] is the translation by j, and
        result[j][i] is i acted on by j."""
        return self._columns

    @cached_property
    def _orbit_blocks(self) -> tuple[tuple[int, ...], ...]:
        # Forward edges suffice: a translation that maps a finite set into
        # itself permutes it, so a set closed under all translations is
        # closed under their inverses too.
        seen = [False] * self.n
        blocks = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            members = []
            while stack:
                x = stack.pop()
                members.append(x)
                for nxt in self.table[x]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
            blocks.append(tuple(sorted(members)))
        return tuple(blocks)  # already ordered by smallest member

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return self._orbit_blocks

    def orbit_of(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.n:
            raise ValueError(f"element {x} out of range 0..{self.n - 1}")
        for block in self._orbit_blocks:
            if x in block:
                return block
        raise AssertionError("unreachable: orbits cover the carrier")

    def reverse_orbit(self, x: int) -> "FiniteQuandle":
        """Replace the translation by every member of x's orbit with its inverse."""
        block = set(self.orbit_of(x))
        columns = [_inverse(column) if j in block else column
                   for j, column in enumerate(self._columns)]
        try:
            return FiniteQuandle(zip(*columns))
        except AxiomError as exc:
            raise InternalAxiomFailure(
                f"reversing the orbit of {x} broke the axioms: {exc}") from exc

    def is_medial(self) -> tuple[bool, tuple[int, int, int, int] | None]:
        """(holds, lexicographically first violating (w, x, y, z) or None)."""
        first = medial_violation(self.table)
        return (True, None) if first is None else (False, first[2:])

    def is_n_quandle(self, power: int) -> bool:
        """True when every translation iterated `power` times is the identity
        (negative powers iterate the inverse translations)."""
        return n_quandle_violation(self.table, power) is None


def trivial_quandle(n: int) -> FiniteQuandle:
    """x acted on by y gives x: the affine table with t = 1."""
    return affine_quandle(n, 1)


def dihedral_quandle(n: int) -> FiniteQuandle:
    """x acted on by y gives 2*y - x mod n: the affine table with t = -1."""
    return affine_quandle(n, -1)


def affine_quandle(n: int, t: int) -> FiniteQuandle:
    """x acted on by y gives t*x + (1-t)*y mod n; t must be a unit mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    if math.gcd(t % n, n) != 1:
        raise ValueError(f"{t} is not a unit modulo {n}")
    return FiniteQuandle([[(t * i + (1 - t) * j) % n for j in range(n)]
                          for i in range(n)])


def relabel(q: FiniteQuandle, perm) -> FiniteQuandle:
    """Isomorphic copy of q along the permutation perm (old index -> new)."""
    perm = list(perm)
    if sorted(perm) != list(range(q.n)):
        raise ValueError("perm is not a permutation of the carrier")
    old = _inverse(perm)  # old[i] is the element relabeled i
    pick = gather(old)
    return FiniteQuandle(gather(pick(q.table[r]))(perm) for r in old)


_ORDER_RE = re.compile(r"^n=(\d+)$")


def parse_table_text(text: str) -> list[list[int]]:
    """Parse the 1-indexed 'quandle v1' format into a 0-indexed row list.

    Blank lines and lines starting with '#' are skipped.  The result is a
    raw table: shape and entry ranges are enforced here, the axioms are not.
    """
    content = ((lineno, s) for lineno, s in
               enumerate(map(str.strip, text.splitlines()), start=1)
               if s and not s.startswith("#"))
    lineno, s = next(content, (None, None))
    if s is None:
        raise MalformedTable(f"empty file, expected header {FORMAT_HEADER!r}")
    if s != FORMAT_HEADER:
        raise MalformedTable(f"expected header {FORMAT_HEADER!r}", line=lineno)
    lineno, s = next(content, (None, None))
    if s is None:
        raise MalformedTable("missing order line 'n=<order>'")
    m = _ORDER_RE.match(s)
    if not m:
        raise MalformedTable("expected order line 'n=<order>'", line=lineno)
    try:
        n = int(m.group(1))
    except ValueError:  # more digits than Python converts
        raise MalformedTable("order is too large", line=lineno) from None
    if n < 1:
        raise MalformedTable("order must be positive", line=lineno)

    rows = []
    for lineno, s in content:
        if len(rows) == n:
            raise MalformedTable("unexpected content after table", line=lineno)
        parts = s.split()
        if len(parts) != n:
            raise MalformedTable(f"row {len(rows) + 1} has {len(parts)} entries,"
                                 f" expected {n}", line=lineno)
        row = []
        for part in parts:
            try:
                v = int(part)
            except ValueError:
                raise MalformedTable(f"bad entry {part!r}", line=lineno) from None
            if not 1 <= v <= n:
                raise MalformedTable(f"entry {v} out of range 1..{n}", line=lineno)
            row.append(v - 1)
        rows.append(row)
    if len(rows) < n:
        raise MalformedTable(f"expected {n} table rows, found {len(rows)}")
    return rows


def render_table_text(table) -> str:
    """Canonical 1-indexed text form; accepts a FiniteQuandle or raw rows."""
    rows = getattr(table, "table", table)
    n = len(rows)
    out = [FORMAT_HEADER, f"n={n}"]
    for row in rows:
        out.append(" ".join(str(v + 1) for v in row))
    return "\n".join(out) + "\n"
