"""Plain-text serialization of Cayley tables and Hasse-diagram DOT output.

The .bck format::

    bck 1
    3
    0 0 0
    1 0 0
    2 2 0
    # optional trailing comments

Line 1 is the fixed header, line 2 the order n, then n rows of n decimal
entries (row x lists x*0 .. x*(n-1)); only comment or blank lines may
follow.  Numbers are ASCII ``[0-9]+`` and lines end in LF, never CRLF.
Emission is deterministic and parse(emit(t)) == t.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import _EXCERPT, BckAlgebra, CayleyTable, _excerpt

HEADER = "bck 1"


class ParseError(ValueError):
    """Input does not parse as a .bck file; message carries the line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class _TooLarge(ValueError):
    """Decimal text that ``int()`` refuses for its length."""


def parse_decimal(text: str) -> int:
    """The value of ASCII ``[0-9]+`` text; unlike ``int()``, refuses signs,
    underscores, blanks and non-ASCII digits with ValueError.  Leading zeros
    are ignored; past 4,300 significant digits it raises ``_TooLarge``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {_excerpt(text)}")
    try:
        return int(text.lstrip("0") or "0")
    except ValueError as exc:  # int()'s digit limit
        raise _TooLarge(*exc.args) from None


def parse_bck(text: str) -> CayleyTable:
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ParseError(line, "CRLF line endings are not supported (found CR)")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # a final newline does not start a new line
    if not lines or lines[0] != HEADER:
        raise ParseError(1, f"expected header {HEADER!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing order line")
    order = lines[1]
    try:
        n = parse_decimal(order)
    except _TooLarge:
        raise ParseError(2, f"order too large: {_excerpt(order)}") from None
    except ValueError:
        raise ParseError(2, f"order is not a decimal integer: {_excerpt(order)}") from None
    if n < 1:
        raise ParseError(2, f"order must be positive, got {n}")
    size = n if n < 10**_EXCERPT else _excerpt(str(n))  # as messages repeat it
    rows = []
    cells = None  # entry text -> value, built once a row of n entries is seen
    for x in range(n):
        line_no = 3 + x
        if line_no - 1 >= len(lines):
            raise ParseError(line_no, f"missing row {x + 1} of {size}")
        parts = lines[line_no - 1].split()
        if len(parts) != n:
            raise ParseError(
                line_no, f"row {x + 1} has {len(parts)} entries, expected {size}"
            )
        if cells is None:
            cells = {str(v): v for v in range(n)}
        try:
            rows.append(tuple(map(cells.__getitem__, parts)))
            continue
        except KeyError:
            pass
        # other rows are read cell by cell, to accept leading zeros and name a bad entry
        row = []
        for y, part in enumerate(parts):
            if not (part.isascii() and part.isdigit()):
                raise ParseError(
                    line_no, f"non-numeric entry {_excerpt(part)} at row {x + 1}"
                )
            digits = part.lstrip("0") or "0"
            v = cells.get(digits)
            if v is None:
                shown = digits if len(digits) <= _EXCERPT else _excerpt(part)
                raise ParseError(
                    line_no,
                    f"entry {shown} out of range 0..{n - 1} at row {x + 1}, "
                    f"column {y + 1}",
                )
            row.append(v)
        rows.append(tuple(row))
    for extra, line in enumerate(lines[2 + n :], start=3 + n):
        if line and not line.startswith("#"):
            raise ParseError(extra, f"unexpected content after table: {_excerpt(line)}")
    return CayleyTable(tuple(rows))


def emit_bck(table: CayleyTable, comments: Iterable[str] = ()) -> str:
    names = list(map(str, range(table.order))).__getitem__
    out = [HEADER, str(table.order)]
    for row in table.rows:
        out.append(" ".join(map(names, row)))
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"comment is not one line: {_excerpt(comment)}")
        out.append(f"# {comment}")
    return "\n".join(out) + "\n"


def emit_hasse_dot(algebra: BckAlgebra) -> str:
    """The covering relation as a DOT digraph, drawn bottom-to-top.

    One node per element labeled by index, one edge per covering pair;
    node and edge order are deterministic.
    """
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in algebra.elements():
        lines.append(f"  {x};")
    for x, y in sorted(algebra.hasse_covers()):
        lines.append(f"  {x} -> {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
