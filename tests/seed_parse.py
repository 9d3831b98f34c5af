"""Test oracle: parse_table_text as it was before it read canonical rows
through one token table, checking and converting every entry with int()
and a range check, and returning a list of row lists.

quandleworks.quandle.parse_table_text must accept exactly the texts this
accepts, with equal rows, and reject every other text with the same
MalformedTable message and line.
"""

import re

from quandleworks.quandle import FORMAT_HEADER, MalformedTable

_ORDER_RE = re.compile(r"^n=([0-9]+)$")
# the ASCII line breaks of str.splitlines and whitespace of str.strip; a
# non-ASCII one stays in its line, where the checks below reject it
_LINE_BREAK_RE = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")
_ASCII_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"


def parse_table_text(text: str) -> list[list[int]]:
    """Parse the 1-indexed 'quandle v1' format into a 0-indexed row list.

    Lines end at ASCII line breaks and shed ASCII whitespace only.  Blank
    lines and lines starting with '#' are skipped.  The order and the
    entries are runs of ASCII digits 0-9, separated by ASCII whitespace.
    The result is a raw table: shape and entry ranges are enforced here,
    the axioms are not.
    """
    lines = (line.strip(_ASCII_SPACE) for line in _LINE_BREAK_RE.split(text))
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
    for lineno, s in content:
        if len(rows) == n:
            raise MalformedTable("unexpected content after table", line=lineno)
        parts = s.split()
        if len(parts) != n:
            raise MalformedTable(f"row {len(rows) + 1} has {len(parts)} entries,"
                                 f" expected {n}", line=lineno)
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
        rows.append(row)
    if len(rows) < n:
        raise MalformedTable(f"expected {n} table rows, found {len(rows)}")
    return rows
