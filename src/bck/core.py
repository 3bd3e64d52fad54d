"""Core value types for finite BCK-algebras.

A BCK-algebra is a finite set {0, .., n-1} with a binary operation ``x * y``
satisfying

    BCK1:  ((x*y)*(x*z))*(z*y) = 0
    BCK2:  (x*(x*y))*y = 0
    BCK3:  x*x = 0
    BCK4:  0*x = 0
    BCK5:  x*y = 0 and y*x = 0 imply x = y

for all elements x, y, z.  Element 0 of the index space is always the
algebra constant 0; the derived law x*0 = x is enforced as an extra
validation check because it is cheap and catches table typos early.

The induced partial order is x <= y iff x*y = 0 (0 is the least element).
The meet term is x ^ y := y*(y*x); x and y *commute* when x^y = y^x, and
the commuting degree of an algebra is the fraction of ordered pairs that
commute.

All values here are immutable after construction and every operation is a
pure function of its inputs, so everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import eq, getitem, itemgetter


_from = int.from_bytes
# _EQ[d] maps the byte d to 1 and every other byte to 0
_EQ = tuple(bytes(d) + b"\x01" + bytes(255 - d) for d in range(256))
_NONZERO = b"\x00" + b"\x01" * 255
_EXCERPT = 20  # characters of an offending text that a message repeats


def _excerpt(text: str, show=repr) -> str:
    """The text as a message repeats it: shown (quoted by default), and cut
    to a short prefix with its length when it is longer."""
    if len(text) <= _EXCERPT:
        return show(text)
    return f"{show(text[:_EXCERPT])}... ({len(text)} characters)"


def _shown(value: object) -> str:
    """A value as a message repeats it: its repr, cut by :func:`_excerpt`.
    An int past Python's digit limit for printing, whose repr raises
    ``ValueError``, is shown by its size in bits instead, and any other
    value whose repr raises it, such as a Fraction of such ints, by its
    type, so that the message is made and not replaced by that error."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} whose repr fails>"
    return _excerpt(text, str)


def _check_int(name: str, value: object) -> None:
    """Refuse an argument that is not an int by ``CayleyTable``'s rule, so
    that ``True``, ``5.0`` or ``'2'`` is named rather than used."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {_shown(value)}")


class FormatError(ValueError):
    """Table is malformed: not square, empty, or has out-of-range entries."""


class AxiomViolation(ValueError):
    """A BCK axiom fails on the table.

    Carries the axiom id (``BCK1`` .. ``BCK5`` or ``x*0=x``) and the
    lexicographically least witness tuple of elements.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...]):
        self.axiom = axiom
        self.witness = witness
        where = ", ".join(f"{name}={value}" for name, value in zip("xyz", witness))
        super().__init__(f"axiom {axiom} violated at {where}")


@dataclass(frozen=True)
class CayleyTable:
    """Raw n-by-n operation table over elements 0..n-1; rows[x][y] = x*y.

    Construction enforces only the format invariants (square shape, entries
    of type ``int`` and in range; no coercion); the BCK axioms are checked
    by :func:`validate`.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        n = len(rows)
        if n == 0:
            raise FormatError("table must have at least one row")
        for x, row in enumerate(rows):
            if len(row) != n:
                raise FormatError(f"row {x} has {len(row)} entries, expected {n}")
            for y, v in enumerate(row):
                if type(v) is not int:
                    raise FormatError(f"entry {_shown(v)} at ({x},{y}) is not an int")
                if not 0 <= v < n:
                    raise FormatError(
                        f"entry {_shown(v)} at ({x},{y}) out of range 0..{n - 1}"
                    )
        object.__setattr__(self, "rows", rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def flat(self) -> tuple[int, ...]:
        """Row-major flattening; the key used for table comparisons."""
        return tuple(chain.from_iterable(self.rows))


def find_violation(table: CayleyTable) -> AxiomViolation | None:
    """Return the first axiom violation in fixed check order, or None.

    Check order is BCK3, BCK4, x*0=x, BCK5, BCK2, BCK1, each scanned in
    ascending element order, so the reported witness is deterministic and
    lexicographically least for the first failing axiom.
    """
    found = _first_violation(table.rows)
    return None if found is None else AxiomViolation(*found)


def _first_violation(t) -> tuple[str, tuple[int, ...]] | None:
    """The axiom check of :func:`find_violation` on raw rows (any n-by-n
    sequence of sequences), returning ``(axiom, witness)`` or None.

    When n*n <= 256 a table is first checked by :func:`_holds`, which
    accepts a valid table at once; a table it refuses, and every larger
    one, is scanned for the first failing axiom and its least witness.
    BCK1 is read as (x*y)*(x*z) <= z*y.  Instances with u = x*y = 0 hold,
    since 0*w = 0 by BCK4, which is checked first.  BCK1 is checked one of
    two ways, with the same answer: :func:`_bck1_by_columns` when n <= 8 or
    the rows hold more than four distinct values each on average, and
    :func:`_bck1_by_lanes` otherwise.
    """
    n = len(t)
    if n * n <= 256 and _holds(t):
        return None
    for x in range(n):
        if t[x][x] != 0:
            return "BCK3", (x,)
    for x in range(n):
        if t[0][x] != 0:
            return "BCK4", (x,)
    for x in range(n):
        if t[x][0] != x:
            return "x*0=x", (x,)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] == 0 and t[y][x] == 0:
                return "BCK5", (x, y)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            if t[tx[tx[y]]][y] != 0:
                return "BCK2", (x, y)
    # Below order 9 the lanes' set-up (the layout slices and n nonzero
    # tables of 256 bytes) costs more than the scans; with more than four
    # distinct values per row, as in chains, the lanes translate about
    # once per cell.
    if n <= 8 or sum(map(len, map(set, t))) > 4 * n:
        return _bck1_by_columns(t)
    return _bck1_by_lanes(t)


def _products(cells) -> bytes:
    """The cells of an n-by-n table in row-major order, n*n <= 256, as the
    256-byte table of ``bytes.translate``: x*y sits at n*x + y, so a
    string of such codes translates to the string of their products."""
    return bytes(cells).ljust(256, b"\0")


@cache
def _bck1_codes(n: int, xs: range, ys: range) -> tuple[bytes, bytes, bytes]:
    """The codes of x*y, x*z and z*y over the triples (x, y, z) of
    ``xs`` x ``ys`` x 0..n-1, in lexicographic order.  Two callers ask
    for them, each with one (xs, ys) per order up to 16."""
    triples = [(x, y, z) for x in xs for y in ys for z in range(n)]
    return (
        bytes(n * x + y for x, y, z in triples),
        bytes(n * x + z for x, y, z in triples),
        bytes(n * z + y for x, y, z in triples),
    )


def _bck1_holds(product: bytes, n: int, xy: bytes, xz: bytes, zy: bytes) -> bool:
    """Whether ((x*y)*(x*z))*(z*y) = 0 at every triple of the codes
    ``xy``, ``xz`` and ``zy`` (see :func:`_bck1_codes`).  Products are
    below n, so each byte of n*u + v, as ints over strings of products, is
    at most n*n - 1: it adds byte by byte without a carry, and each byte
    is the code of its u*v."""
    size = len(xy)
    a = _from(xy.translate(product), "little") * n + _from(xz.translate(product), "little")
    a = _from(a.to_bytes(size, "little").translate(product), "little") * n
    a += _from(zy.translate(product), "little")
    return a.to_bytes(size, "little").translate(product) == bytes(size)


@cache
def _transposed(n: int) -> bytes:
    """The codes of y*x over the cells (x, y) in row-major order."""
    return bytes(n * y + x for x in range(n) for y in range(n))


def _holds(t) -> bool:
    """Whether every axiom holds on an n-by-n table with n*n <= 256, each
    checked on whole strings of products at once (see :func:`_products`):
    BCK3, BCK4 and x*0 = x on slices of the table, BCK5 on the union of
    the nonzero cells of the table and of its transpose, and BCK1 by
    :func:`_bck1_holds`.  BCK2 at (x, z) is BCK1 at (x, 0, z) once x*0 = x
    holds.  It finds no witness: a table it refuses goes on to the scans."""
    n = len(t)
    product = _products(chain.from_iterable(t))
    table = product[: n * n]
    if table[:: n + 1] != bytes(n) or table[:n] != bytes(n) or table[::n] != bytes(range(n)):
        return False  # BCK3, BCK4 or x*0 = x
    nonzero = _from(table.translate(_NONZERO), "little")
    nonzero |= _from(_transposed(n).translate(product).translate(_NONZERO), "little")
    if nonzero.bit_count() != n * n - n:
        return False  # BCK5: x*y = y*x = 0 for some x != y
    return _bck1_holds(product, n, *_bck1_codes(n, range(n), range(n)))


def _bck1_row(t, cols, x, ys) -> int | None:
    """The first y in ``ys`` with ((x*y)*(x*z))*(z*y) != 0 for some z, or
    None: the row of u*(x*z) over z is built once per distinct u = x*y != 0
    and compared with column y in C."""
    tx = t[x]
    rows = t.__getitem__
    lefts = {}
    for y in ys:
        u = tx[y]
        if u:
            left = lefts.get(u)
            if left is None:
                left = lefts[u] = tuple(map(rows, map(t[u].__getitem__, tx)))
            if any(map(getitem, left, cols[y])):
                return y
    return None


def _bck1_witness(t, cols, x: int) -> tuple[str, tuple[int, ...]]:
    """The least BCK1 witness (x, y, z) of a row x that fails BCK1."""
    tx = t[x]
    y = _bck1_row(t, cols, x, range(len(t)))
    z = next(z for z, w in enumerate(tx) if t[t[tx[y]][w]][cols[y][z]])
    return "BCK1", (x, y, z)


def _bck1_by_columns(t) -> tuple[str, tuple[int, ...]] | None:
    """BCK1 over z in C, one :func:`_bck1_row` per x."""
    cols = list(zip(*t))
    for x in range(len(t)):
        if _bck1_row(t, cols, x, range(len(t))) is not None:
            return _bck1_witness(t, cols, x)
    return None


def _bck1_by_lanes(t) -> tuple[str, tuple[int, ...]] | None:
    """BCK1 over lanes: lane y of an int is its byte y, holding 0 or 1.

    For x, u = x*y and a = u*(x*z), row z of the table, translated through
    the 0/1 table of "a*v != 0", has its lane y set exactly when (x, y, z)
    fails, for every y with x*y = u.  So for each x and each value u of
    row x, the union of these rows over the z with a != 0, masked to the
    lanes y with x*y = u, is the set of failing y.  A value v is split
    into the block of 255 values holding it and its digit there, so that
    bytes.translate can map it; a cell outside a block reads 255, which
    every table maps to 0.  Instances with z = x hold, since a = u and
    u*u = 0 by BCK3.  The first failing row goes to :func:`_bck1_witness`.
    """
    n = len(t)
    cuts, digits, pieces = _layout(n)
    if len(digits) == 1:  # one block, whose digit map is the identity
        flats = [bytes(chain.from_iterable(t))]
    else:
        flats = [bytes(map(d.__getitem__, chain.from_iterable(t))) for d in digits]
    # rows[i][z]: row z as digits of block i; nonzero[i][a]: the table
    # mapping the digit d of block i to 1 if a*(255i + d) != 0, else to 0
    # (a digit of block 0 is 0 exactly for the value 0)
    rows = [list(map(flat.__getitem__, cuts)) for flat in flats]
    flat = flats[0].translate(_NONZERO)
    nonzero = [
        list(map(bytes.ljust, map(flat.__getitem__, piece), repeat(256), repeat(b"\0")))
        for piece in pieces
    ]
    per_block = list(zip(rows, nonzero))
    elements = range(n)
    for x in elements:
        tx = t[x]
        for u in set(tx):
            if not u:
                continue
            tu = t[u]
            fail = 0  # lanes y with (u*(x*z))*(z*y) != 0 for some z
            for z in compress(elements, map(tu.__getitem__, tx)):
                if z != x:  # (u*(x*x))*(x*y) = u*u = 0 by BCK3
                    a = tu[tx[z]]
                    for digit_rows, tables in per_block:
                        fail |= _from(digit_rows[z].translate(tables[a]), "little")
            if fail and fail & _from(rows[u // 255][x].translate(_EQ[u % 255]), "little"):
                return _bck1_witness(t, list(zip(*t)), x)
    return None


def _layout(n: int) -> tuple[list[slice], list[bytes], list[list[slice]]]:
    """For a flat n-by-n table: the slices of its rows; per block of 255
    values starting at b, the map from a value v to its digit (v - b
    inside the block, 255 outside), and the slices of each row's cells in
    columns b..b+254."""
    cuts = list(map(slice, range(0, n * n, n), range(n, n * n + 1, n)))
    blocks = range(0, n, 255)
    digits = [
        b"\xff" * b + bytes(range(255)) + b"\xff" * max(0, n - b - 255) for b in blocks
    ]
    pieces = [
        list(map(slice, range(b, n * n, n), range(min(n, b + 255), n * n + 1, n)))
        for b in blocks
    ]
    return cuts, digits, pieces


@dataclass(frozen=True)
class CommutingReport:
    """Exact commuting-pair count and degree of one algebra.

    ``pair_count`` is the raw number of *ordered commuting* pairs (the
    unreduced numerator over order**2); ``degree`` is the reduced fraction.
    It is not ``SynthesisResult.pair_count``, which is k, the number of
    *unordered non-commuting* pairs; here ``pair_count == order**2 - 2 * k``.
    """

    order: int
    pair_count: int
    degree: Fraction

    @property
    def raw(self) -> str:
        """The degree as an unreduced string ``k/n^2``, e.g. ``10/16``."""
        return f"{self.pair_count}/{self.order * self.order}"


@dataclass(frozen=True)
class BckAlgebra:
    """An axiom-validated Cayley table; the central value type.

    Constructing one runs the full axiom check, so every instance in the
    system is valid by construction.  A ``+T``/``+2`` construction checks
    only the algebra it returns: the smaller ones along the way are its
    subalgebras on labels 0..m-1, valid whenever it is (see ``construct``).
    """

    table: CayleyTable

    def __post_init__(self) -> None:
        violation = find_violation(self.table)
        if violation is not None:
            raise violation

    @property
    def order(self) -> int:
        return self.table.order

    def elements(self) -> range:
        return range(self.order)

    def op(self, x: int, y: int) -> int:
        """The algebra operation x*y."""
        return self.table.rows[x][y]

    def leq(self, x: int, y: int) -> bool:
        """The induced order: x <= y iff x*y = 0."""
        return self.table.rows[x][y] == 0

    def meet(self, x: int, y: int) -> int:
        """The meet term x ^ y := y*(y*x), a common lower bound of x and y."""
        t = self.table.rows
        return t[y][t[y][x]]

    def commutes(self, x: int, y: int) -> bool:
        return self.meet(x, y) == self.meet(y, x)

    @cached_property
    def _commuting(self) -> CommutingReport:
        n = self.order
        if n == 1:  # itemgetter of one index returns the value, not a 1-tuple
            return CommutingReport(1, 1, Fraction(1))
        # meets[x][y] = x*(x*y) = y ^ x; x and y commute iff it equals meets[y][x]
        meets = [itemgetter(*row)(row) for row in self.table.rows]
        count = sum(
            map(eq, chain.from_iterable(meets), chain.from_iterable(zip(*meets)))
        )
        return CommutingReport(n, count, Fraction(count, n * n))

    def commuting_report(self) -> CommutingReport:
        """Ordered commuting pairs, counted exactly once per algebra, and the
        reduced degree."""
        return self._commuting

    def commuting_degree(self) -> Fraction:
        return self.commuting_report().degree

    def is_commutative(self) -> bool:
        return self._commuting.pair_count == self.order * self.order

    def is_positive_implicative(self) -> bool:
        """Whether x*y = (x*y)*y holds for all pairs: (x*y)*y reads column y
        at x*y, so each column must map its own values to themselves."""
        if self.order == 1:  # itemgetter of one index returns the value
            return True
        return all(itemgetter(*col)(col) == col for col in zip(*self.table.rows))

    def top(self) -> int | None:
        """The greatest element, i.e. t with x*t = 0 for all x, if it exists."""
        n = self.order
        cols = enumerate(zip(*self.table.rows))
        return next((y for y, col in cols if col.count(0) == n), None)

    def is_bounded(self) -> bool:
        return self.top() is not None

    def hasse_covers(self) -> set[tuple[int, int]]:
        """The covering relation of <=: (x, y) iff x < y with nothing between."""
        n = self.order
        lt = [
            [x != y and self.leq(x, y) for y in range(n)] for x in range(n)
        ]
        covers = set()
        for x in range(n):
            for y in range(n):
                if lt[x][y] and not any(lt[x][z] and lt[z][y] for z in range(n)):
                    covers.add((x, y))
        return covers


def validate(table: CayleyTable) -> BckAlgebra:
    """Check the BCK axioms, returning the algebra or raising AxiomViolation."""
    return BckAlgebra(table)


TWO = validate(CayleyTable(((0, 0), (1, 0))))
PI = validate(CayleyTable(((0, 0, 0), (1, 0, 0), (2, 2, 0))))
TC = validate(CayleyTable(((0, 0, 0), (1, 0, 0), (2, 1, 0))))


def standard_algebras() -> dict[str, BckAlgebra]:
    """The three fixed small algebras used as construction seeds.

    ``2`` is the unique algebra of order 2 (commutative); ``PI`` is
    non-commutative but positive implicative; ``TC`` is commutative but
    not positive implicative.
    """
    return {"2": TWO, "PI": PI, "TC": TC}
