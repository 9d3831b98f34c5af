"""Finite quandles as square operation tables over {0, ..., n-1}.

table[i][j] holds the row element acted on by the column element, so column
j is the translation by j.  Everything in memory, witnesses too, is
0-indexed; the "quandle v1" file format is 1-indexed, and parse/render and
the command line (orbits, projections, representatives, --element) convert.

The table checks compose whole translations, held as tuples, with gather
(operator.itemgetter, so each composition runs at C speed), and only those
of the translators T (_Rows.translators), the least generator for each
distinct R_t: distributivity is R_t R_j = R_{j*t} R_t for t in T and
every j, with R_t bijective, and mediality is decided by the displacement
group (displacements_commute), each |T| n compositions where a
pair-by-pair check takes n^2.  Only a table that fails is scanned
instance by instance, to name its witness.  The orbits are the closures
of single elements under the R_t, found by reach, the one worklist
closure, which finds T too; the translation-order law walks the cycles
of the R_t.  The quotient closure in variety.py joins the very pairs
these checks compare, skipping an element x merged into a smaller one
(displacement_commutators, n_quandle_violations).
Only an orbit reversal and relabel invert (_inverse) to build a table;
relabel and the closure build tables with induced_rows.  medial_violation
and n_quandle_violation return the lexicographically first violating
instance in a _Rows table for FiniteQuandle.is_medial / is_n_quandle and
the closure's postcondition.  Every reader of translations takes the _Rows,
which derives its columns and its T at most once; a reversal hands over
the columns it builds, never T.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from operator import itemgetter

from .ring import FrozenValue

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


class AxiomReport(FrozenValue):
    """The verdict of each quandle axiom on a table, and first_witness, the
    indices of the first failing instance (None when every axiom holds)."""

    __slots__ = ("idempotent", "bijective_columns", "distributive",
                 "first_witness")

    def __init__(self, idempotent: bool, bijective_columns: bool,
                 distributive: bool, first_witness: tuple | None) -> None:
        object.__setattr__(self, "idempotent", idempotent)
        object.__setattr__(self, "bijective_columns", bijective_columns)
        object.__setattr__(self, "distributive", distributive)
        object.__setattr__(self, "first_witness", first_witness)

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


def induced_rows(table, reps, rename) -> _Rows:
    """The operation `table` induces on the elements `reps`, renamed: entry
    (i, j) is rename[table[reps[i]][reps[j]]].  With the class
    representatives and the class numbering this is a quotient table; with
    a permutation's inverse and the permutation, a relabeled table.  rename
    must take the entries to 0..len(reps)-1, as both do, so the result is
    a _Rows, validated by construction."""
    pick = gather(reps)
    return _Rows([gather(pick(table[r]))(rename) for r in reps])


class _Rows(tuple):
    """n row tuples of n ints in 0..n-1.  parse_table_text, induced_rows,
    reverse_orbit and affine_quandle build their tables as _Rows, and
    _as_rows validates any other table into one.  FiniteQuandle and
    check_axioms take a _Rows as it is, so each table's shape is validated
    at most once, and a derived table's never.  Its columns and its
    translators are each built on first use and kept, or the columns set
    by reverse_orbit."""

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self))

    @cached_property
    def translators(self) -> tuple[int, ...]:
        """T, ascending from 0: the least s in S for each distinct map R_s.
        Walking the elements upward, each one not yet reached joins S, and
        the reached set is closed under the R_s (reach): every element is
        h(s), s in S, h in <R_s : s in S> = <R_t : t in T>.  The reached set
        is closed under the kept maps, so it meets only a new one, and each
        newly reached element meets them all: O(n |T|).  The columns must be
        bijective.  A trivial table has S = every element, one translator."""
        n = len(self)
        reached = [False] * n
        kept: dict[tuple[int, ...], int] = {}  # R_t -> t; its keys are the maps
        for start in range(n):
            if not reached[start]:
                column = self.columns[start]
                new_map = kept.setdefault(column, start) == start
                old = [x for x in range(n) if reached[x]] if new_map else []
                reached[start] = True
                reach(kept, [start] + reach((column,), old, reached), reached)
        return tuple(kept.values())


def _as_rows(table) -> _Rows:
    """A table that is not a _Rows, validated entry by entry into one;
    MalformedTable names the first bad row or entry."""
    rows = list(table)
    n = len(rows)
    if n == 0:
        raise MalformedTable("table is empty")
    out = []
    for i, row in enumerate(rows):
        entries = tuple(row)
        if len(entries) != n:
            raise MalformedTable(f"row {i} has {len(entries)} entries, expected {n}")
        for v in entries:
            if type(v) is not int:
                raise MalformedTable(f"row {i} has non-integer entry {v!r}")
            if not 0 <= v < n:
                raise MalformedTable(f"row {i} entry {v} out of range 0..{n - 1}")
        out.append(entries)
    return _Rows(out)


def check_axioms(table) -> AxiomReport:
    """Test idempotence, column bijectivity, and right self-distributivity.

    Witnesses are deterministic: the lexicographically first violating
    instance of the first failing axiom (unused slots are None).  Input of
    the wrong shape raises MalformedTable; a _Rows, as FiniteQuandle passes
    it, is not validated again.

    Right self-distributivity says that every translation R_k is an
    automorphism.  It is enough that each R_t, t in T = rows.translators,
    is a bijective one: then so is every h in H = <R_t>, and so is
    R_{h(s)} = h R_s h^-1 for s in S, as R_s is some R_t (Joyce, JPAA 23,
    1982); every element is such an h(s).  By this argument every reader of
    translations reads T alone, for a property that conjugation keeps.
    Only a table that fails is scanned column by column (scan_bijective)
    and pair by pair (scan_distributive), to name its witnesses.
    """
    rows = table if table.__class__ is _Rows else _as_rows(table)
    n = len(rows)
    columns = rows.columns

    idem_wit = None
    for i in range(n):
        if rows[i][i] != i:
            idem_wit = (i, i, None)
            break

    # (i*j)*k = (i*k)*(j*k) for all i is R_k R_j = R_{j*k} R_k: R_k is an
    # automorphism
    after = [gather(column) for column in columns]  # after[j](f) is f R_j
    translators = rows.translators
    holds = all(len(set(columns[s])) == n for s in translators) and all(
        after[j](columns[s]) == after[s](columns[rows[j][s]])
        for s in translators for j in range(n))
    bij_wit = None if holds else scan_bijective(columns)
    dist_wit = None if holds else scan_distributive(rows)

    first = next((w for w in (idem_wit, bij_wit, dist_wit) if w is not None), None)
    return AxiomReport(idem_wit is None, bij_wit is None, dist_wit is None, first)


def reach(maps, work, reached) -> list[int]:
    """Mark in `reached` every image of the elements of `work` under words
    in `maps`, each a map on range(n) held as a tuple, and return the
    elements newly marked.  The elements of work must be marked already;
    work is used up.  Each newly marked element meets each map once."""
    new = []
    while work:
        x = work.pop()
        for f in maps:
            y = f[x]
            if not reached[y]:
                reached[y] = True
                work.append(y)
                new.append(y)
    return new


def scan_bijective(columns):
    """(i, i2, j) for the first column j of a table that is not one-to-one:
    row i2 is the first whose entry repeats an earlier one, row i's; or
    None when every column is a bijection."""
    n = len(columns)
    for j, column in enumerate(columns):
        if len(set(column)) < n:
            seen: dict[int, int] = {}
            for i, v in enumerate(column):
                if v in seen:
                    return seen[v], i, j
                seen[v] = i
    return None


def scan_distributive(rows: _Rows):
    """The lexicographically first (i, j, k) with (i*j)*k differing from
    (i*k)*(j*k) in the table `rows`, a _Rows, or None."""
    columns = rows.columns
    after = [gather(column) for column in columns]  # after[j](f) is f R_j
    first = None
    # A failing pair's first violating i is its first differing entry, so
    # the least (i, j, k) over the failing pairs is the first violating
    # triple.
    for k, column in enumerate(columns):
        after_k = after[k]
        for j, jk in enumerate(column):
            lhs = after[j](column)
            rhs = after_k(columns[jk])
            if lhs != rhs:
                i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                if first is None or (i, j, k) < first:
                    first = (i, j, k)
    return first


def displacement_commutators(rows: _Rows, find):
    """Yield the maps (g_x g_t, g_t g_x), as tuples, for every x, outermost,
    and t in rows.translators after e, the first (0); rows.columns[x] is
    R_x and g_x = R_x R_e^-1.  They are all equal exactly when
    Dis(Q) = <R_x R_y^-1> is abelian, that is when Q is medial (Joyce, JPAA
    23, 1982; Jedlicka, Pilitowska, Stanovsky and Zamojska-Dzienio, J.
    Algebra 2015).

    The g_x generate Dis(Q), and Inn(Q) = <R_t>, as each R_x is some
    h R_t h^-1 with h in <R_t> (see check_axioms).  Let N be the normal
    closure of the g_t in Inn(Q): modulo N every R_t is R_e, so Inn(Q)/N is
    cyclic, each R_x = h R_t h^-1 is R_e modulo N, and Dis(Q) = N.  When
    every g_t commutes with every g_x, the g_t lie in the centralizer of
    Dis(Q), which is normal in Inn(Q) and so contains N = Dis(Q): Dis(Q) is
    abelian.  The converse is immediate.  So Q/~ is medial exactly when the
    congruence ~ joins each pair position by position (Bonatto and
    Stanovsky, J. Math. Soc. Japan 73, 2021), and each pair is forced
    whether or not t is merged.  find is the class lookup of the ~ being
    closed (int for none); x with find(x) != x when reached is skipped, and
    its g_x never built: x ~ x' < x makes g_x and g_x' induce the same map
    on Q/~, and x', least in its class, was kept.
    """
    columns = rows.columns
    e, *others = rows.translators
    displace = gather(_inverse(columns[e]))  # displace(R_x) is g_x
    shifts = [(gs, gather(gs))  # (g_s, f -> f g_s)
              for gs in map(displace, map(columns.__getitem__, others))]
    for x, column in enumerate(columns):
        if find(x) == x:
            g = displace(column)
            after_g = gather(g)  # after_g(f) is f g_x
            for gs, after_s in shifts:
                yield after_s(g), after_g(gs)


def displacements_commute(rows: _Rows) -> bool:
    """Whether the quandle table `rows`, a _Rows, is medial."""
    return all(a == b for a, b in displacement_commutators(rows, int))


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


def medial_violation(rows: _Rows):
    """scan_medial's witness for a quandle table `rows`, a _Rows, or None
    when it is medial.  The displacement group decides; only a table it
    finds not medial is scanned, to name the witness."""
    if displacements_commute(rows):
        return None
    first = scan_medial(rows)
    if first is None:
        raise InternalAxiomFailure("the displacement group is not abelian,"
                                   " yet no medial instance is violated")
    return first


def n_quandle_violations(rows: _Rows, power: int, find):
    """Yield (lhs, rhs, x, y), y outermost, for each cycle of each R_y, y in
    rows.translators, on which y acting `power` times (inverses if
    negative) moves the least element x to lhs, not rhs = x.  Each pair is
    forced, and a congruence that joins it carries it around the cycle.
    Cycles are walked, so the cost does not grow with |power|.

    T is enough.  Each z is reached at the step of an s <= z in S (see
    _Rows.translators), so R_z = h R_s' h^-1 for an s' <= z in S and h a
    word in such R_s', and R_s' is R_t for a translator t <= s'.  So the
    least z whose R_z^power is not the identity is a translator, and
    n_quandle_violation names the witness a walk of every column would.  y
    is skipped as x is in displacement_commutators: y ~ x < y makes R_[y]
    = R_[x] on Q/~, conjugate to R_[t] for a translator t <= x, whose power
    is the identity by induction over T, as is every R_[z]'s: the closure
    ends on the same least congruence."""
    n = len(rows)
    for y in rows.translators:
        if find(y) != y:
            continue
        column = rows.columns[y]
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            # every smaller element lies on an earlier cycle, so start is the
            # least element of this one
            seen[start] = True
            cycle = [start]
            x = column[start]
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = column[x]
            shift = power % len(cycle)
            if shift:
                yield cycle[shift], start, start, y


def n_quandle_violation(rows, power: int):
    return next(n_quandle_violations(rows, power, int), None)


class FiniteQuandle:
    """Validated, immutable operation table.  Construction checks all axioms."""

    def __init__(self, table) -> None:
        rows = table if table.__class__ is _Rows else _as_rows(table)
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

    def inverse_translations(self) -> tuple[tuple[int, ...], ...]:
        """result[i][j] is the unique x with x acted on by j giving i.  No
        production path calls it; the test oracles do, and bench/tracer.py
        wraps it by name, so it moves to the tests when that target goes."""
        return tuple(zip(*map(_inverse, self.columns())))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The translations: result[j][i] is i acted on by j."""
        return self.table.columns

    @cached_property
    def _orbit_blocks(self) -> tuple[tuple[int, ...], ...]:
        # The orbits are those of Inn(Q) = <R_t : t in T> (see check_axioms).
        # Forward images suffice: a translation that maps a finite set into
        # itself permutes it, so a set closed under the R_t is closed under
        # their inverses too.
        columns = self.columns()
        maps = [columns[t] for t in self.table.translators]
        seen = [False] * self.n
        blocks = []
        for start in range(self.n):
            if not seen[start]:
                seen[start] = True
                blocks.append(tuple(sorted(reach(maps, [start], seen) + [start])))
        return tuple(blocks)  # already ordered by smallest member

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return self._orbit_blocks

    def orbit_of(self, x: int) -> tuple[int, ...]:
        if type(x) is not int:
            raise TypeError(f"the element must be an int, got {x!r}")
        if not 0 <= x < self.n:
            raise ValueError(f"element {x} out of range 0..{self.n - 1}")
        return next(block for block in self._orbit_blocks if x in block)

    def reverse_orbit(self, x: int) -> "FiniteQuandle":
        """Replace the translation by every member of x's orbit with its
        inverse.  The new table keeps its columns but derives T again: the
        axioms are proved only for a T derived from the columns checked."""
        block = set(self.orbit_of(x))
        columns = tuple(_inverse(column) if j in block else column
                        for j, column in enumerate(self.columns()))
        rows = _Rows(zip(*columns))
        rows.columns = columns
        try:
            return FiniteQuandle(rows)
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
        if type(power) is not int:
            raise TypeError(f"the power must be an int, got {power!r}")
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
    return FiniteQuandle(_Rows(tuple((t * i + (1 - t) * j) % n for j in range(n))
                               for i in range(n)))


def relabel(q: FiniteQuandle, perm) -> FiniteQuandle:
    """Isomorphic copy of q along the permutation perm (old index -> new)."""
    perm = list(perm)
    if any(type(v) is not int for v in perm) or sorted(perm) != list(range(q.n)):
        raise ValueError("perm is not a permutation of the carrier")
    old = _inverse(perm)  # old[i] is the element relabeled i
    return FiniteQuandle(induced_rows(q.table, old, perm))


_ORDER_RE = re.compile(r"^n=([0-9]+)$")
# the ASCII line breaks of str.splitlines, which on ASCII text breaks at
# exactly these, and the ASCII whitespace of str.strip; a non-ASCII one stays
# in its line, where the checks below reject it
_LINE_BREAK_RE = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")
_ASCII_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"


def parse_table_text(text: str) -> _Rows:
    """Parse the 1-indexed 'quandle v1' format into 0-indexed rows.

    Lines end at ASCII line breaks and shed ASCII whitespace only; ASCII
    text is split by str.splitlines, which breaks there alone, and other
    text by _LINE_BREAK_RE, so a non-ASCII break is left in its line.  Blank
    lines and lines starting with '#' are skipped.  The order and the
    entries are runs of ASCII digits 0-9, separated by ASCII whitespace.
    Shape and entry ranges are enforced here, so the result is the
    validated _Rows that FiniteQuandle stores; the axioms are not checked.
    An ASCII row of canonical entries 1..n is read in one lookup per entry
    in a token table; any other row is checked entry by entry.
    """
    split = text.splitlines() if text.isascii() else _LINE_BREAK_RE.split(text)
    lines = (line.strip(_ASCII_SPACE) for line in split)
    content = ((lineno, s) for lineno, s in enumerate(lines, start=1)
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
    entry = None  # canonical token -> 0-indexed entry
    for lineno, s in content:
        if len(rows) == n:
            raise MalformedTable("unexpected content after table", line=lineno)
        parts = s.split()
        if len(parts) != n:
            raise MalformedTable(f"row {len(rows) + 1} has {len(parts)} entries,"
                                 f" expected {n}", line=lineno)
        if entry is None:  # built after a row of n entries: no larger than the text
            entry = dict(zip(map(str, range(1, n + 1)), range(n)))
        if s.isascii():
            try:
                rows.append(tuple(map(entry.__getitem__, parts)))
                continue
            except KeyError:  # a non-canonical or bad entry: check each below
                pass
        # an entry is a run of ASCII digits, but int() also reads a sign,
        # '_' separators and the digits of other scripts; on ASCII text it
        # reads nothing else, so only such lines are checked entry by entry.
        # str.split() also splits at Unicode whitespace, which a line of
        # ASCII entries holds only if it is not ASCII itself
        if not s.isascii() or "+" in s or "-" in s or "_" in s:
            for part in parts:
                if not (part.isascii() and part.isdigit()):
                    raise MalformedTable(f"bad entry {part!r}", line=lineno)
            if not s.isascii():
                char = next(c for c in s if not c.isascii())
                raise MalformedTable(f"non-ASCII character {char!r} in row; only"
                                     " ASCII whitespace may separate or"
                                     " surround entries", line=lineno)
        row = []
        for part in parts:
            try:
                v = int(part)
            except ValueError:
                raise MalformedTable(f"bad entry {part!r}", line=lineno) from None
            if not 1 <= v <= n:
                raise MalformedTable(f"entry {v} out of range 1..{n}", line=lineno)
            row.append(v - 1)
        rows.append(tuple(row))
    if len(rows) < n:
        raise MalformedTable(f"expected {n} table rows, found {len(rows)}")
    return _Rows(rows)


def render_table_text(table) -> str:
    """Canonical 1-indexed text form; accepts a FiniteQuandle or raw rows."""
    rows = getattr(table, "table", table)
    n = len(rows)
    out = [FORMAT_HEADER, f"n={n}"]
    for row in rows:
        out.append(" ".join(str(v + 1) for v in row))
    return "\n".join(out) + "\n"
