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
from functools import cached_property
from fractions import Fraction


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
                    raise FormatError(f"entry {v!r} at ({x},{y}) is not an int")
                if not 0 <= v < n:
                    raise FormatError(
                        f"entry {v} at ({x},{y}) out of range 0..{n - 1}"
                    )
        object.__setattr__(self, "rows", rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def flat(self) -> tuple[int, ...]:
        """Row-major flattening; the key used for table comparisons."""
        return tuple(v for row in self.rows for v in row)


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
    sequence of sequences), returning ``(axiom, witness)`` or None."""
    n = len(t)
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
    for x in range(n):
        tx = t[x]
        for y in range(n):
            ta = t[tx[y]]
            for z in range(n):
                if t[ta[tx[z]]][t[z][y]] != 0:
                    return "BCK1", (x, y, z)
    return None


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
        t = self.table.rows
        n = self.order
        count = 0
        for x in range(n):
            for y in range(n):
                if t[y][t[y][x]] == t[x][t[x][y]]:
                    count += 1
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
        """Whether x*y = (x*y)*y holds for all pairs."""
        t = self.table.rows
        n = self.order
        return all(t[t[x][y]][y] == t[x][y] for x in range(n) for y in range(n))

    def top(self) -> int | None:
        """The greatest element, i.e. t with x*t = 0 for all x, if it exists."""
        t = self.table.rows
        n = self.order
        for cand in range(n):
            if all(t[x][cand] == 0 for x in range(n)):
                return cand
        return None

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
