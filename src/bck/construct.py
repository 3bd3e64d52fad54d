"""Constructions that generate new BCK-algebras from old ones.

Two constructions drive everything here:

* the union ``A | B`` glues algebras at their shared 0 and makes elements
  of different components incomparable (x*y = x across components);
* the top extension ``A + T`` adjoins a new greatest element T with
  x*T = 0 and T*x = T.

Both shift the commuting-pair count by a fixed amount (add 2n+1 for a
union with the order-2 algebra, add 3 for a top extension), which is what
lets the family generator cover every achievable commuting degree at each
order, and the synthesizer hit any target rational exactly.

A ``+T``/``+2`` expression is built in one pass: each operator adjoins one
element, so the algebra of order m along the way is the subalgebra on
labels 0..m-1 of the final table.  The BCK axioms are universal (quasi-)identities,
which every subalgebra inherits, so checking the final table in full checks
every intermediate algebra too.

``family`` and ``synthesize`` build and validate a table only when ``algebra`` is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse

from .core import (
    BckAlgebra,
    CayleyTable,
    CommutingReport,
    _check_int,
    _shown,
    standard_algebras,
    validate,
)

LEAF_NAMES = ("2", "PI", "TC")
OP_EXTEND = "+T"
OP_UNION2 = "+2"


class ExprParseError(ValueError):
    """A construction-expression string does not match the grammar."""


def _adjoin(rows: list[list[int]], op: str) -> None:
    """Adjoin element m = len(rows) in place: row (m, .., m, 0), and x*m is
    0 under ``+T`` (m is the new top) or x under ``+2`` (m is a new atom)."""
    m = len(rows)
    for x, row in enumerate(rows):
        row.append(0 if op == OP_EXTEND else x)
    rows.append([m] * m + [0])


@dataclass(frozen=True, repr=False)
class ConstructionExpr:
    """How an algebra was built, stored as its spine.

    The spine is a seed, one of the standard algebras ``2``, ``PI``,
    ``TC``, and the operators applied to it, innermost first: ``+T`` (top
    extension) and ``+2`` (union with the order-2 algebra), each adjoining
    one element.  Text form follows the grammar

        expr := "2" | "PI" | "TC" | "(" expr "+T" ")" | "(" expr "+2" ")"

    with whitespace insignificant.  The spine is flat rather than a nested
    tree, so equality and hashing (the dataclass defaults, comparing two
    flat tuples) and every walk over an expression are loops: none of them
    recurses, however many operators there are.
    """

    seed: str
    ops: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.seed not in LEAF_NAMES:
            raise ValueError(f"unknown seed {self.seed!r}")
        if type(self.ops) is not tuple:
            raise ValueError(f"operators must be a tuple, got {self.ops!r}")
        for op in filterfalse((OP_EXTEND, OP_UNION2).__contains__, self.ops):
            raise ValueError(f"unknown operator {op!r}")

    def extend_top(self) -> ConstructionExpr:
        return ConstructionExpr(self.seed, self.ops + (OP_EXTEND,))

    def union2(self) -> ConstructionExpr:
        return ConstructionExpr(self.seed, self.ops + (OP_UNION2,))

    @property
    def order(self) -> int:
        """Order of the algebra the expression evaluates to."""
        return (2 if self.seed == "2" else 3) + len(self.ops)

    def _rows(self) -> list[list[int]]:
        """The final table, built in one pass from the seed's rows."""
        rows = [list(row) for row in standard_algebras()[self.seed].table.rows]
        for op in self.ops:
            _adjoin(rows, op)
        return rows

    def evaluate(self) -> BckAlgebra:
        return validate(CayleyTable(self._rows()))

    def steps(self) -> list[BckAlgebra]:
        """Algebras along the construction, seed first.

        Each is the leading block of the final table (see the module
        docstring), checked on its own.
        """
        seed = standard_algebras()[self.seed]
        rows = self._rows()
        return [seed] + [
            validate(CayleyTable([row[:m] for row in rows[:m]]))
            for m in range(seed.order + 1, len(rows) + 1)
        ]

    def __str__(self) -> str:
        ops = self.ops  # e.g. "((" + "PI" + "+T)+2)+T"
        return "(" * (len(ops) - 1) + self.seed + ")".join(ops)

    def pretty(self) -> str:
        """Unicode rendering, e.g. ``(PI⊕⊤)⊔2``."""
        return str(self).replace(OP_EXTEND, "⊕⊤").replace(OP_UNION2, "⊔2")

    def __repr__(self) -> str:
        return f"parse_expr({str(self)!r})"


# no token is a prefix of another, so alternation order does not matter
_TOKEN = re.compile(
    "(" + "|".join(map(re.escape, (OP_EXTEND, OP_UNION2, *LEAF_NAMES, "(", ")")))
    + r")|(\S)"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN.finditer(text):  # whitespace matches neither group
        token, stray = match.groups()
        if stray is not None:
            raise ExprParseError(
                f"unexpected character {stray!r} at position {match.start()}"
            )
        tokens.append(token)
    return tokens


def parse_expr(text: str) -> ConstructionExpr:
    """Parse a construction expression.

    Accepts the parenthesized grammar as well as an unparenthesized
    trailing operator (the style used for printing, e.g. ``(PI+T)+2``);
    the Unicode forms ⊕⊤ / ⊔2 are also recognized.
    """
    tokens = _tokenize(text.replace("⊕⊤", OP_EXTEND).replace("⊔2", OP_UNION2))
    # expr is "(" * depth, a seed, then per level: operators and a ")",
    # except that the outermost level has operators only
    depth = 0
    while depth < len(tokens) and tokens[depth] == "(":
        depth += 1
    if depth == len(tokens):
        raise ExprParseError("unexpected end of input")
    if tokens[depth] not in LEAF_NAMES:
        raise ExprParseError(f"unexpected token {tokens[depth]!r}")
    ops = []
    pos = depth + 1
    for level in range(depth, -1, -1):
        while pos < len(tokens) and tokens[pos] in (OP_EXTEND, OP_UNION2):
            ops.append(tokens[pos])
            pos += 1
        if level:
            if pos >= len(tokens) or tokens[pos] != ")":
                found = tokens[pos] if pos < len(tokens) else "end of input"
                raise ExprParseError(f"expected ')', found {found!r}")
            pos += 1
    if pos != len(tokens):
        raise ExprParseError(f"trailing tokens after expression: {tokens[pos:]}")
    return ConstructionExpr(tokens[depth], tuple(ops))


def union(*parts: BckAlgebra) -> BckAlgebra:
    """Glue algebras at their shared 0; x*y = x across distinct components.

    Labeling is deterministic: the first part keeps its labels and each
    later part's nonzero elements are appended in order, so the result
    has order 1 + sum(order_i - 1).
    """
    if not parts:
        raise ValueError("union requires at least one algebra")
    rows = [list(row) for row in parts[0].table.rows]
    for part in parts[1:]:
        shift = len(rows) - 1  # local element v > 0 gets label v + shift
        for x, row in enumerate(rows):
            row.extend([x] * (part.order - 1))
        for a, row in enumerate(part.table.rows[1:], start=shift + 1):
            rows.append([a] * (shift + 1) + [v and v + shift for v in row[1:]])
    return validate(CayleyTable(rows))


def extend_top(algebra: BckAlgebra) -> BckAlgebra:
    """Adjoin a new greatest element with x*T = 0, T*T = 0, T*x = T.

    The new top gets the next fresh index; old labels are preserved, so
    the original algebra sits inside as the subalgebra on labels 0..n-1.
    The result is always bounded and, for base order >= 2, non-commutative.
    """
    rows = [list(row) for row in algebra.table.rows]
    _adjoin(rows, OP_EXTEND)
    return validate(CayleyTable(rows))


def predict_union2_degree(report: CommutingReport) -> Fraction:
    """Degree of A|2 from A's report alone: (k+2n+1)/(n+1)^2."""
    n = report.order
    return Fraction(report.pair_count + 2 * n + 1, (n + 1) ** 2)


def predict_extend_degree(report: CommutingReport) -> Fraction:
    """Degree of A+T from A's report alone: (k+3)/(n+1)^2."""
    n = report.order
    return Fraction(report.pair_count + 3, (n + 1) ** 2)


def m_chain(n: int) -> BckAlgebra:
    """The order-n chain with x*y = x if y < x else 0.

    Equals the iterated top extension of the order-2 algebra and realizes
    the minimum commuting degree (3n-2)/n^2 among order-n algebras.
    """
    _check_int("n", n)
    if n < 2:
        raise ValueError("m_chain requires order >= 2")
    return ConstructionExpr("2", (OP_EXTEND,) * (n - 2)).evaluate()


def b_star(n: int) -> BckAlgebra:
    """The iterated union of PI with order-2 algebras.

    Realizes the maximum non-commutative degree (n^2-2)/n^2; the poset is
    a star of n-2 atoms with one extra element above the first atom.
    """
    _check_int("n", n)
    if n < 3:
        raise ValueError("b_star requires order >= 3")
    return ConstructionExpr("PI", (OP_UNION2,) * (n - 3)).evaluate()


def triangular(m: int) -> int:
    return m * (m + 1) // 2


def cd_numerators(n: int) -> list[int]:
    """Unreduced numerators of all achievable non-commutative degrees at order n."""
    return list(_cd_range(n))


def _cd_range(n: int) -> range:
    """:func:`cd_numerators` as a lazy range, for orders too large to list."""
    _check_int("n", n)
    if n < 3:
        raise ValueError("commuting-degree sets start at order 3")
    return range(3 * n - 2, n * n - 1, 2)


def cd_set(n: int) -> list[Fraction]:
    """All achievable non-commutative degrees at order n, increasing, reduced."""
    return [Fraction(k, n * n) for k in cd_numerators(n)]


@dataclass(frozen=True)
class FamilyEntry:
    """A family construction; ``algebra`` is built and validated on first access."""

    expression: ConstructionExpr
    report: CommutingReport

    @cached_property
    def algebra(self) -> BckAlgebra:
        return self.expression.evaluate()


@dataclass(frozen=True)
class FamilyLevel:
    """All achievable degrees at one order, each realized by a construction.

    Entries are in increasing degree order; entry j (1-based) has
    unreduced numerator 3n-2+2(j-1).
    """

    order: int
    entries: tuple[FamilyEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


# The family's base levels, in increasing degree order.  Each level m+1 > 4
# is the +T of every entry at order m, then the +2 of the last m-1 of them;
# trace_family_index() walks that schedule backward.
_BASE_SCHEDULE = {
    3: (ConstructionExpr("PI"),),
    4: (
        ConstructionExpr("PI", (OP_EXTEND,)),
        ConstructionExpr("TC", (OP_EXTEND,)),
        ConstructionExpr("PI", (OP_UNION2,)),
    ),
}


def family(n: int) -> FamilyLevel:
    """Constructions realizing every achievable degree at order n, in order.

    Entry j is ``trace_family_index(n, j)`` for j = 1..T(n-2), with the
    j-th numerator of ``cd_numerators(n)``; no table is built.  The level
    holds T(n-2) spines of up to n-3 operators, O(n^3) in all.
    """
    _check_int("n", n)
    if n < 3:
        raise ValueError("family levels start at order 3")
    entries = (
        FamilyEntry(trace_family_index(n, j), CommutingReport(n, k, Fraction(k, n * n)))
        for j, k in enumerate(_cd_range(n), start=1)
    )
    return FamilyLevel(n, tuple(entries))


def trace_family_index(n: int, j: int) -> ConstructionExpr:
    """The expression at 1-based index j of family(n), without building the level.

    Walks by c = T(n-2) - j + 1, the entry's count of unordered
    non-commuting pairs, down the schedule of ``_BASE_SCHEDULE``.  A +T to
    order m+1 adds m-1 to c, since the new top commutes only with 0 and
    itself, so it gives c >= m; a +2 adds no pair, and takes the last m-1
    entries of order m, whose c runs from m-1 down to 1.  So c >= m came by
    +T from c-(m-1), and c < m by +2 from c.  The walk ends at the base
    entry with the c that is left.
    """
    _check_int("n", n)
    _check_int("j", j)
    if n < 3:
        raise ValueError("family levels start at order 3")
    size = triangular(n - 2)
    if not 1 <= j <= size:
        raise ValueError(f"index {_shown(j)} out of range for order {_shown(n)}")
    c = size - j + 1
    ops: list[str] = []
    for m in range(n - 1, 3, -1):
        if c >= m:
            ops.append(OP_EXTEND)
            c -= m - 1
        else:
            ops.append(OP_UNION2)
    base = _BASE_SCHEDULE[min(n, 4)][-c]  # a base level's last entry has c = 1
    return ConstructionExpr(base.seed, base.ops + tuple(reversed(ops)))


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of synthesizing an algebra with a prescribed commuting degree.

    ``pair_count`` is k, the number of *unordered non-commuting* pairs,
    the quantity solved for when choosing the order.  It is not
    ``CommutingReport.pair_count``, which counts *ordered commuting* pairs;
    the two are related by
    ``algebra.commuting_report().pair_count == order**2 - 2 * pair_count``.
    ``algebra`` is built and validated on first access.
    """

    target: Fraction
    expression: ConstructionExpr
    order: int
    pair_count: int
    index: int | None
    escalated: bool

    @cached_property
    def algebra(self) -> BckAlgebra:
        return self.expression.evaluate()


def synthesize(p: int, q: int) -> SynthesisResult:
    """Build an algebra whose commuting degree is exactly p/q.

    The fraction is reduced first.  Degree 1 is realized by TC.  Otherwise
    the order n is 2q for p >= 2 and 4q for p = 1: the least multiple of 2q
    at which the pair count k = n^2(q-p)/(2q) lies in [1, T(n-2)].  At
    n = 2q, k <= T(2q-2) = (q-1)(2q-1) iff 2pq >= 3q-1, which fails only for
    p = 1; at n = 4q, 8q(q-1) <= (2q-1)(4q-1) holds for every q.
    """
    _check_int("p", p)
    _check_int("q", q)
    if p <= 0 or q <= 0:
        raise ValueError("degree must be a positive rational")
    target = Fraction(p, q)
    if target > 1:
        raise ValueError("commuting degrees cannot exceed 1")
    if target == 1:
        return SynthesisResult(target, ConstructionExpr("TC"), 3, 0, None, False)
    p, q = target.numerator, target.denominator
    n = 2 * q if p > 1 else 4 * q
    k = n * n * (q - p) // (2 * q)
    j = triangular(n - 2) - k + 1
    return SynthesisResult(target, trace_family_index(n, j), n, k, j, p == 1)
