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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    TC,
    BckAlgebra,
    CayleyTable,
    CommutingReport,
    standard_algebras,
    validate,
)

LEAF_NAMES = ("2", "PI", "TC")
OP_EXTEND = "+T"
OP_UNION2 = "+2"

_PLAIN = {OP_EXTEND: OP_EXTEND, OP_UNION2: OP_UNION2}
_PRETTY = {OP_EXTEND: "⊕⊤", OP_UNION2: "⊔2"}


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
        for op in self.ops:
            if op not in (OP_EXTEND, OP_UNION2):
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

    def _render(self, spelling: dict[str, str]) -> str:
        ops = self.ops  # e.g. "((" + "PI" + "+T)+2)+T"
        return "(" * (len(ops) - 1) + self.seed + ")".join(spelling[op] for op in ops)

    def __str__(self) -> str:
        return self._render(_PLAIN)

    def pretty(self) -> str:
        """Unicode rendering, e.g. ``(PI⊕⊤)⊔2``."""
        return self._render(_PRETTY)

    def __repr__(self) -> str:
        return f"parse_expr({self._render(_PLAIN)!r})"


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
    # global label -> (component index, local element); the shared 0 is
    # counted in the first part, whose labels are kept
    owner = [(0, 0)] + [
        (idx, local) for idx, part in enumerate(parts) for local in range(1, part.order)
    ]
    rows = []
    for a, (pa, la) in enumerate(owner):
        row = []
        for pb, lb in owner:
            if pa == pb:
                local = parts[pa].op(la, lb)
                row.append(0 if local == 0 else a - la + local)
            else:
                row.append(a)
        rows.append(row)
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
    if n < 2:
        raise ValueError("m_chain requires order >= 2")
    return ConstructionExpr("2", (OP_EXTEND,) * (n - 2)).evaluate()


def b_star(n: int) -> BckAlgebra:
    """The iterated union of PI with order-2 algebras.

    Realizes the maximum non-commutative degree (n^2-2)/n^2; the poset is
    a star of n-2 atoms with one extra element above the first atom.
    """
    if n < 3:
        raise ValueError("b_star requires order >= 3")
    return ConstructionExpr("PI", (OP_UNION2,) * (n - 3)).evaluate()


def triangular(m: int) -> int:
    return m * (m + 1) // 2


def cd_numerators(n: int) -> list[int]:
    """Unreduced numerators of all achievable non-commutative degrees at order n."""
    if n < 3:
        raise ValueError("commuting-degree sets start at order 3")
    return list(range(3 * n - 2, n * n - 1, 2))


def cd_set(n: int) -> list[Fraction]:
    """All achievable non-commutative degrees at order n, increasing, reduced."""
    nn = n * n
    return [Fraction(k, nn) for k in cd_numerators(n)]


@dataclass(frozen=True)
class FamilyEntry:
    expression: ConstructionExpr
    algebra: BckAlgebra
    report: CommutingReport


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


# The family's base levels, in increasing degree order; every later level
# is derived from the order-4 one by the induction step in family().
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

    The induction runs on expressions: with t entries at order m, entries
    1..t of the next level are the predecessors under +T and entries
    t+1..t+(m-1) are predecessors t-(m-2)..t under +2; the degrees come out
    in increasing order again.  Only the order-n algebras are built.
    """
    if n < 3:
        raise ValueError("family levels start at order 3")
    expressions = _BASE_SCHEDULE[min(n, 4)]
    for m in range(4, n):
        expressions = tuple(e.extend_top() for e in expressions) + tuple(
            e.union2() for e in expressions[len(expressions) - (m - 1) :]
        )
    entries = []
    for expression in expressions:
        algebra = expression.evaluate()
        entries.append(FamilyEntry(expression, algebra, algebra.commuting_report()))
    return FamilyLevel(n, tuple(entries))


def trace_family_index(n: int, j: int) -> ConstructionExpr:
    """The expression at 1-based index j of family(n), without building the level.

    Walks the level schedule backward: at a level built from t = T(m-2)
    predecessors, index i came from predecessor i via +T when i <= t, else
    from predecessor t-(m-1)+(i-t) via +2.  Terminates at a base level of
    ``_BASE_SCHEDULE``.
    """
    if n < 3:
        raise ValueError("family levels start at order 3")
    if not 1 <= j <= triangular(n - 2):
        raise ValueError(f"index {j} out of range for order {n}")
    ops: list[str] = []
    level = n
    while level > 4:
        m = level - 1
        t = triangular(m - 2)
        if j <= t:
            ops.append(OP_EXTEND)
        else:
            ops.append(OP_UNION2)
            j -= m - 1  # predecessor t-(m-1)+(j-t)
        level -= 1
    base = _BASE_SCHEDULE[level][j - 1]
    return ConstructionExpr(base.seed, base.ops + tuple(reversed(ops)))


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of synthesizing an algebra with a prescribed commuting degree.

    ``pair_count`` is k, the number of *unordered non-commuting* pairs,
    the quantity solved for when choosing the order.  It is not
    ``CommutingReport.pair_count``, which counts *ordered commuting* pairs;
    the two are related by
    ``algebra.commuting_report().pair_count == order**2 - 2 * pair_count``.
    """

    target: Fraction
    expression: ConstructionExpr
    algebra: BckAlgebra
    order: int
    pair_count: int
    index: int | None
    escalated: bool


def synthesize(p: int, q: int) -> SynthesisResult:
    """Build an algebra whose commuting degree is exactly p/q.

    The fraction is reduced first.  Degree 1 is realized by TC.  Otherwise
    the order n is 2q for p >= 2 and 4q for p = 1: the least multiple of 2q
    at which the pair count k = n^2(q-p)/(2q) lies in [1, T(n-2)].  At
    n = 2q, k <= T(2q-2) = (q-1)(2q-1) iff 2pq >= 3q-1, which fails only for
    p = 1; at n = 4q, 8q(q-1) <= (2q-1)(4q-1) holds for every q.
    """
    if p <= 0 or q <= 0:
        raise ValueError("degree must be a positive rational")
    target = Fraction(p, q)
    if target > 1:
        raise ValueError("commuting degrees cannot exceed 1")
    if target == 1:
        return SynthesisResult(target, ConstructionExpr("TC"), TC, 3, 0, None, False)
    p, q = target.numerator, target.denominator
    n = 2 * q if p > 1 else 4 * q
    k = n * n * (q - p) // (2 * q)
    j = triangular(n - 2) - k + 1
    expression = trace_family_index(n, j)
    algebra = expression.evaluate()
    return SynthesisResult(target, expression, algebra, n, k, j, p == 1)
