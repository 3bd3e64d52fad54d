"""Isomorphism testing, canonical forms, and exhaustive enumeration.

Isomorphisms are relabelings fixing 0 (the constant must map to itself).
The canonical form of an algebra is the lexicographically least flattened
table over all such relabelings, so two algebras are isomorphic exactly
when their canonical forms coincide.  The minimum is found over a table of
the (n-1)! relabelings, which is affordable at enumeration scale: only
those that relabel a row with the most zeros as 1 can win on a BCK table,
so only they are tried.  Each candidate costs a few C calls, a
``bytes.translate`` of the values, a precomputed ``operator.itemgetter``
over the cells and ``bytes``, not n*n Python steps.

Enumeration builds the catalog level by level: every algebra of order n
contains a subalgebra of order n-1, so each isomorphism class of order n
shows up as a one-element extension of some canonical representative of
order n-1.  The new element e's column, then its row, is filled cell by
cell, each cell (x, y) taking only values v with v*x = 0 or v = e, with
incremental axiom checks; completed tables get a final full validation,
and classes are deduplicated via canonical forms.
Each class representative is validated once, when its level is built, and
levels are cached, so census and uniqueness checks reuse the same run.
"""

from __future__ import annotations

import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, permutations
from operator import itemgetter

from .construct import m_chain
from .core import BckAlgebra, CayleyTable, _first_violation, validate

DEFAULT_ENUM_BUDGET = 6
_CANONICAL_ORDER_LIMIT = 10

Flat = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]


def relabel(table: CayleyTable, perm: tuple[int, ...]) -> CayleyTable:
    """Apply a 0-fixing permutation to arguments and values of a table."""
    n = table.order
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    if perm[0] != 0:
        raise ValueError("relabelings must fix element 0")
    rows = [[0] * n for _ in range(n)]
    old = table.rows
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[old[x][y]]
    return CayleyTable(tuple(tuple(row) for row in rows))


@cache
def _perms_fixing_zero(n: int) -> tuple[tuple[tuple[itemgetter, bytes], ...], ...]:
    """(gather, value table) pairs per non-identity sigma with sigma(0) = 0,
    grouped by sigma^-1(1): group a holds the sigmas that relabel a as 1.

    The relabeled table holds sigma(t[x][y]) at cell (sigma(x), sigma(y)),
    so its cell (i, j) reads cell (inv[i], inv[j]) of the original: the
    gather picks those n*n positions in row-major order, and the value
    table maps each byte v < n to sigma(v) for ``bytes.translate``.  The
    identity is left out: the search starts from the table itself, and at
    order 1 its one-cell gather would return a bare int.  Group 0 is empty.
    """
    groups: list[list[tuple[itemgetter, bytes]]] = [[] for _ in range(n)]
    for tail in islice(permutations(range(1, n)), 1, None):
        sigma = (0,) + tail
        inverse = [0] * n
        for i, image in enumerate(sigma):
            inverse[image] = i
        gather = itemgetter(
            *[inverse[i] * n + inverse[j] for i in range(n) for j in range(n)]
        )
        groups[inverse[1]].append((gather, bytes(sigma) + bytes(range(n, 256))))
    return tuple(map(tuple, groups))


def _canonical_flat(flat: Flat, n: int) -> Flat:
    """Lexicographic minimum of the flattened table over 0-fixing relabelings.

    Each candidate is built by a few C calls on the table as bytes: a
    translate of its values through sigma, a gather of its cells into
    relabeled order, and ``bytes`` over the gathered ints.  Bytes compare
    as the tuples of their values do.

    Only the relabelings that send a row with the most zeros to row 1 are
    tried, when row 0 is all zero, x*0 = x and x*x = 0 (every BCK table).
    Then every candidate has the same row 0, and the candidate of sigma
    with sigma(a) = 1 has row 1 = ``1, 0`` followed by one zero per y other
    than 0 and a with a*y = 0.  If some row a' has more zeros than row a,
    a relabeling that sends a' to 1 and those y to 2, 3, ... puts a zero
    where every candidate of a has its first nonzero cell after position 1,
    so it is strictly smaller.  Any other table tries every relabeling.
    """
    table = best = bytes(flat)
    groups = _perms_fixing_zero(n)
    if table[:n] == bytes(n) == table[:: n + 1] and table[::n] == bytes(range(n)):
        zeros = [table.count(0, x * n, x * n + n) for x in range(1, n)]
        most = max(zeros, default=0)
        groups = [groups[a] for a, z in enumerate(zeros, 1) if z == most]
    for group in groups:
        for gather, values in group:
            cand = bytes(gather(table.translate(values)))
            if cand < best:
                best = cand
    return tuple(best)


def canonical_form(algebra: BckAlgebra) -> CayleyTable:
    """The canonical table of the algebra's isomorphism class.

    This is the lexicographically least row-major table over all 0-fixing
    relabelings; only those that relabel a row with the most zeros as row 1
    can reach it, so only they are tried (see ``_canonical_flat``).  Cost
    still grows factorially with the order; use :func:`find_isomorphism`
    for pairwise tests on larger algebras.
    """
    n = algebra.order
    if n > _CANONICAL_ORDER_LIMIT:
        raise ValueError(
            f"canonical_form is factorial in the order (limit "
            f"{_CANONICAL_ORDER_LIMIT}); use find_isomorphism for pairwise tests"
        )
    flat = _canonical_flat(algebra.table.flat(), n)
    rows = tuple(tuple(flat[x * n : (x + 1) * n]) for x in range(n))
    return CayleyTable(rows)


def _signatures(table: CayleyTable) -> list[tuple[int, int, int]]:
    """Per-element relabel-invariant keys: up-set size, down-set size, fixers."""
    rows = table.rows
    return [
        (row.count(0), col.count(0), row.count(x))
        for x, (row, col) in enumerate(zip(rows, zip(*rows)))
    ]


def find_isomorphism(a: BckAlgebra, b: BckAlgebra) -> tuple[int, ...] | None:
    """A 0-fixing permutation relabeling a onto b exactly, or None.

    Quick invariant comparisons (order, commuting report, per-element
    signature multisets) reject most non-isomorphic pairs before the
    backtracking search starts.
    """
    n = a.order
    if n != b.order:
        return None
    if a.commuting_report() != b.commuting_report():
        return None
    sig_a = _signatures(a.table)
    sig_b = _signatures(b.table)
    if sorted(sig_a) != sorted(sig_b):
        return None

    ta = a.table.rows
    tb = b.table.rows
    candidates = {
        x: [u for u in range(n) if sig_b[u] == sig_a[x]] for x in range(1, n)
    }
    # assign rare elements first to fail fast
    order = sorted(range(1, n), key=lambda x: (len(candidates[x]), x))
    sigma = [-1] * n
    sigma[0] = 0
    inverse = [-1] * n
    inverse[0] = 0
    assigned = [0]
    # the pairs (s, t) with s*t = x, per x; checked once both are assigned
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, row in enumerate(ta):
        for t, v in enumerate(row):
            preimages[v].append((s, t))

    def consistent(x: int, u: int) -> bool:
        for y in assigned:
            for s, t in ((x, y), (y, x)):
                v = ta[s][t]
                w = tb[sigma[s]][sigma[t]]
                if sigma[v] >= 0:
                    if sigma[v] != w:
                        return False
                elif inverse[w] >= 0:
                    return False
        for s, t in preimages[x]:
            if sigma[s] >= 0 and sigma[t] >= 0 and tb[sigma[s]][sigma[t]] != u:
                return False
        return True

    def search(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        for u in candidates[x]:
            if inverse[u] >= 0:
                continue
            sigma[x] = u
            inverse[u] = x
            assigned.append(x)
            if consistent(x, u) and search(k + 1):
                return True
            assigned.pop()
            sigma[x] = -1
            inverse[u] = -1
        return False

    if search(0):
        return tuple(sigma)
    return None


def is_isomorphic(a: BckAlgebra, b: BckAlgebra) -> bool:
    return find_isomorphism(a, b) is not None


# --- enumeration -----------------------------------------------------------


def _partial_ok(t: list[list[int]], x: int, y: int) -> bool:
    """Check axiom instances touching cell (x, y) that are fully determined.

    (x, y) lies in the last row or column, e = n-1, and the other cells
    outside them hold a valid base.  Unknown cells hold -1; instances that
    still involve one are skipped (the completed table gets a full
    validation later).  Sound pruning: only definite violations reject a
    branch.
    """
    n = len(t)
    v = t[x][y]
    if v == 0 and x != y and t[y][x] == 0:
        return False  # BCK5
    # BCK2 at (p, q) reads (p, q), (p, p*q) and ((p*(p*q)), q); with p and q
    # both below e it reads only the valid base and holds
    if y == n - 1:
        for q in range(n):
            r = t[q][y]
            if r >= 0:
                s = t[q][r]
                if s >= 0 and t[s][y] > 0:
                    return False  # BCK2 at (q, y)
    else:
        for q in range(n):
            r = t[x][q]
            if r >= 0:
                s = t[x][r]
                if s >= 0 and t[s][q] > 0:
                    return False  # BCK2 at (x, q)
    for z in range(n):
        a = t[x][y]
        b = t[x][z]
        d = t[z][y]
        if b >= 0 and d >= 0:
            c = t[a][b]
            if c >= 0 and t[c][d] > 0:
                return False  # BCK1 at (x, y, z)
        a = t[x][z]
        d = t[y][z]
        if a >= 0 and d >= 0:
            c = t[a][t[x][y]]
            if c >= 0 and t[c][d] > 0:
                return False  # BCK1 at (x, z, y)
        a = t[z][y]
        b = t[z][x]
        if a >= 0 and b >= 0:
            c = t[a][b]
            if c >= 0 and t[c][t[x][y]] > 0:
                return False  # BCK1 at (z, y, x)
    return True


def _extensions(base: Rows) -> list[Flat]:
    """All valid labeled order-(m+1) tables whose leading block is ``base``.

    The new element e = m gets its column, cells (x, e), filled first and
    then its row, cells (e, y).  A cell (x, y) takes only values v with
    v*x = 0 (so that x*y <= x) or v = e, which keeps the branching narrow.
    """
    m = e = len(base)
    t = [[*row, -1] for row in base] + [[-1] * (m + 1)]
    t[0][e] = t[e][e] = 0
    t[e][0] = e
    cells = [(x, e) for x in range(1, m)] + [(e, y) for y in range(1, m)]
    found: list[Flat] = []

    def fill(k: int) -> None:
        if k == len(cells):
            if _first_violation(t) is None:
                found.append(tuple(v for row in t for v in row))
            return
        x, y = cells[k]
        for v in [u for u in range(m) if t[u][x] == 0] + [e]:
            t[x][y] = v
            if _partial_ok(t, x, y):
                fill(k + 1)
        t[x][y] = -1

    fill(0)
    return found


def _extend_and_canonicalize(bases: tuple[Rows, ...]) -> set[Flat]:
    return {_canonical_flat(f, len(b) + 1) for b in bases for f in _extensions(b)}


def _extend_level(bases: tuple[BckAlgebra, ...], jobs: int) -> tuple[Flat, ...]:
    """Canonical flats of all one-element extensions of ``bases``, sorted.

    The bases' rows are sharded over ``jobs`` worker processes when there
    are at least two per worker; the sorted result does not depend on ``jobs``.
    """
    rows = tuple(base.table.rows for base in bases)
    if jobs > 1 and len(rows) >= 2 * jobs:
        chunks = [rows[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            merged = set().union(*pool.map(_extend_and_canonicalize, chunks))
    else:
        merged = _extend_and_canonicalize(rows)
    return tuple(sorted(merged))


# Keyed by order alone: a level is the same whatever ``jobs`` built it.
_LEVEL_CACHE: dict[int, tuple[BckAlgebra, ...]] = {1: (validate(CayleyTable([[0]])),)}


def _level(n: int, jobs: int = 1) -> tuple[BckAlgebra, ...]:
    """Validated canonical representatives of all isomorphism classes of
    order n, sorted; each is checked once, when its level is built."""
    cached = _LEVEL_CACHE.get(n)
    if cached is None:
        cached = _LEVEL_CACHE[n] = tuple(
            validate(CayleyTable([flat[x * n : (x + 1) * n] for x in range(n)]))
            for flat in _extend_level(_level(n - 1, jobs), jobs)
        )
    return cached


def enumerate_algebras(
    n: int, budget: int | None = None, jobs: int = 1
) -> list[BckAlgebra]:
    """One validated representative per isomorphism class of order n.

    Representatives are canonical forms in lexicographic order, computed
    deterministically regardless of ``jobs``.  Orders above the budget
    (default 6) raise; raise the budget explicitly to go higher, with the
    caveat that runtimes beyond 6 are unvalidated.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if n > limit:
        raise ValueError(
            f"order {n} exceeds the enumeration budget {limit}; pass "
            f"budget={n} to allow it (runtime above "
            f"{DEFAULT_ENUM_BUDGET} is unvalidated)"
        )
    if n > DEFAULT_ENUM_BUDGET:
        warnings.warn(
            f"enumerating order {n}: runtime above order "
            f"{DEFAULT_ENUM_BUDGET} is unvalidated",
            stacklevel=2,
        )
    return list(_level(n, jobs))


def degree_census(n: int, budget: int | None = None, jobs: int = 1) -> dict[Fraction, int]:
    """Map each commuting degree to its isomorphism-class count at order n."""
    counts: Counter[Fraction] = Counter()
    for algebra in enumerate_algebras(n, budget=budget, jobs=jobs):
        counts[algebra.commuting_degree()] += 1
    return dict(counts)


@dataclass(frozen=True)
class UniqueMinimumReport:
    """Evidence that exactly one order-n class attains the minimum degree."""

    order: int
    degree: Fraction
    representative: BckAlgebra
    witness: tuple[int, ...]


def verify_unique_minimum(n: int, budget: int | None = None) -> UniqueMinimumReport:
    """Check the minimum commuting degree (3n-2)/n^2 is attained exactly once.

    Finds the classes at the minimum among all order-n algebras and
    produces the permutation witnessing that the single representative is
    the chain algebra.  Raises if the count differs from one or no witness
    exists, since either outcome would falsify the uniqueness claim.
    """
    if n < 2:
        raise ValueError(f"verify_unique_minimum requires order >= 2, got {n}")
    degree = Fraction(3 * n - 2, n * n)
    hits = [
        a
        for a in enumerate_algebras(n, budget=budget)
        if a.commuting_degree() == degree
    ]
    if len(hits) != 1:
        raise RuntimeError(
            f"expected a unique order-{n} class at degree {degree}, found "
            f"{len(hits)}"
        )
    representative = hits[0]
    witness = find_isomorphism(representative, m_chain(n))
    if witness is None:
        raise RuntimeError(
            f"order-{n} minimum-degree representative is not isomorphic to "
            f"the chain algebra"
        )
    return UniqueMinimumReport(n, degree, representative, witness)


def subalgebra(algebra: BckAlgebra, elements: tuple[int, ...]) -> BckAlgebra:
    """Restrict to a closed subset containing 0, relabeling order-preservingly."""
    subset = sorted(set(elements))
    if not subset or subset[0] != 0:
        raise ValueError("a subalgebra must contain element 0")
    index = {v: i for i, v in enumerate(subset)}
    t = algebra.table.rows
    rows = []
    for x in subset:
        row = []
        for y in subset:
            v = t[x][y]
            if v not in index:
                raise ValueError(f"subset not closed: {x}*{y} = {v}")
            row.append(index[v])
        rows.append(tuple(row))
    return validate(CayleyTable(tuple(rows)))


def find_maximal_subalgebra(algebra: BckAlgebra) -> tuple[int, ...]:
    """A closed subset of size n-1 containing 0, dropping the highest label possible.

    Every BCK-algebra of order n >= 2 has one; failure to find one would
    falsify that fact, so it raises loudly instead of returning quietly.
    """
    n = algebra.order
    if n < 2:
        raise ValueError("order must be at least 2")
    t = algebra.table.rows
    for removed in range(n - 1, 0, -1):
        keep = [x for x in range(n) if x != removed]
        if all(t[x][y] != removed for x in keep for y in keep):
            return tuple(keep)
    raise RuntimeError(
        f"no subalgebra of order {n - 1} found; this contradicts the "
        f"maximal-subalgebra fact for BCK-algebras"
    )
