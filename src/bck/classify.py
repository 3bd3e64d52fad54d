"""Isomorphism testing, canonical forms, and exhaustive enumeration.

Isomorphisms are relabelings fixing 0 (the constant must map to itself).
The canonical form of an algebra is the lexicographically least flattened
table over all such relabelings, so two algebras are isomorphic exactly
when their canonical forms coincide.  The minimum is found over a table of
the (n-1)! relabelings, which is affordable at enumeration scale: only
those that relabel a row with the most zeros as 1 can win on a BCK table,
so only they are tried.  With the table as the 256 bytes of
``core._products``, a candidate is two ``bytes.translate`` calls, not n*n
Python steps: precomputed codes in relabeled order to their products, and
the products to their new labels; on a BCK table most are dropped after
rows 1 and 2 alone.

Enumeration builds the catalog level by level: each class of order n is
a one-element extension of a canonical representative of order n-1, its
new last label e a maximal element with the smallest down-set among the
maximal ones (x*y <= x, so removing a maximal element leaves the others
closed).  Its column, then its row, is filled cell by cell, a cell (x, y)
taking only values v with v*x = 0 or v = e, but no column cell e (x*e = e
would give e <= x); a column is dropped if a base element that stays
maximal has a smaller down-set than e.  Axiom checks decide every instance
through e cell by cell but the BCK1 row of e, checked on the completed
table; classes are deduplicated via canonical forms.  A completed table
and its canonical form are flats: the row-major cells as ``bytes``, which
compare as the tuples of their values do.
Each class representative is validated once, when its level is built, and
levels are cached, so census and uniqueness checks reuse the same run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, permutations
from operator import itemgetter

from .construct import m_chain
from .core import BckAlgebra, CayleyTable, _bck1_codes, _bck1_holds, _check_int
from .core import _products, _shown, validate

DEFAULT_ENUM_BUDGET = 7
_CANONICAL_ORDER_LIMIT = 10

Rows = tuple[tuple[int, ...], ...]


def _check_labels(labels: tuple[int, ...], n: int) -> None:
    """Refuse a label that ``CayleyTable`` would refuse as an entry."""
    for v in labels:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"label {_shown(v)} is not an element of 0..{n - 1}")


def relabel(table: CayleyTable, perm: tuple[int, ...]) -> CayleyTable:
    """Apply a 0-fixing permutation to arguments and values of a table."""
    n = table.order
    _check_labels(perm, n)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {_shown(perm)}")
    if perm[0] != 0:
        raise ValueError("relabelings must fix element 0")
    old = table.rows
    inverse = sorted(range(n), key=perm.__getitem__)
    return CayleyTable([[perm[old[x][y]] for y in inverse] for x in inverse])


def _build_perms(n: int, a: int) -> tuple[tuple[bytes, bytes, bytes], ...]:
    """(prefix codes, codes, value table) triples, one per sigma with
    sigma(0) = 0 and sigma(a) = 1.

    The relabeled table holds sigma(t[x][y]) at cell (sigma(x), sigma(y)),
    so its cell (i, j) reads cell (inv[i], inv[j]) of the original: the
    codes are n*inv[i] + inv[j] (see ``core._products``) in row-major
    order, the prefix codes those of rows 1 and 2, and the value table
    maps each byte v < n to sigma(v) for ``bytes.translate``.  They grow
    factorially (2.4 MiB over every a at order 8, 20 MiB at order 9), so
    they live only as long as the caller that canonicalises one order: a
    level build, or one ``canonical_form`` call.
    """
    perms = []
    for tail in permutations(x for x in range(1, n) if x != a):
        inverse = (0, a, *tail)
        sigma = [0] * n
        for i, x in enumerate(inverse):
            sigma[x] = i
        codes = bytes(x * n + y for x in inverse for y in inverse)
        values = bytes(sigma) + bytes(range(n, 256))
        perms.append((codes[n : 3 * n], codes, values))
    return tuple(perms)


def _rows_with_most_zeros(table: bytes, n: int) -> list[int]:
    """The rows a with the most zeros of a flat table: the relabelings tried
    by ``_canonical_flat`` are those with sigma(a) = 1."""
    zeros = [table.count(0, x * n, x * n + n) for x in range(1, n)]
    most = max(zeros, default=0)
    return [x for x, z in enumerate(zeros, 1) if z == most]


def _canonical_flat(
    flat: bytes | tuple[int, ...], n: int, perms=_build_perms
) -> tuple[bytes, int]:
    """Lexicographic minimum of a flat BCK table over 0-fixing relabelings,
    and the number of tried relabelings that reach it.

    Each candidate is two C calls on the table as ``core._products``: a
    translate of sigma's codes into the products they name, in relabeled
    order, and a translate of those values through sigma.  Bytes compare
    as the tuples of their values do.

    Only the relabelings that send a row with the most zeros to row 1 are
    tried.  Row 0 is all zero, x*0 = x and x*x = 0, so every candidate has
    the same row 0, and the candidate of sigma with sigma(a) = 1 has row 1
    = ``1, 0`` followed by one zero per y other than 0 and a with a*y = 0.
    If some row a' has more zeros than row a, a relabeling that sends a' to
    1 and those y to 2, 3, ... puts a zero where every candidate of a has
    its first nonzero cell after position 1, so it is strictly smaller.

    Each candidate is first built on rows 1 and 2 only.  With row 0
    shared, a candidate whose two rows exceed the best one's is larger
    whatever its other rows hold, so only the others are built in full;
    a tie on the two rows still compares the whole table.

    The relabelings that take A to its minimum C are one coset of Aut A,
    and each sends a row with the most zeros to row 1, as C's row 1 has
    the most, so all are tried: their number is |Aut A|, for any input.

    ``perms(n, a)`` gives ``_build_perms``' triples; a caller that
    canonicalises many tables of one order passes it cached.
    """
    product = _products(flat)
    best = product[: n * n]
    head = best[n : 3 * n]
    ties = int(n == 1)  # the loop tries none at order 1, whose one relabeling is the identity
    for a in _rows_with_most_zeros(best, n):
        for prefix, codes, values in perms(n, a):
            if prefix.translate(product).translate(values) > head:
                continue
            cand = codes.translate(product).translate(values)
            if cand == best:
                ties += 1
            elif cand < best:
                best = cand
                head = cand[n : 3 * n]
                ties = 1
    return best, ties


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
    flat = _canonical_flat(algebra.table.flat(), n)[0]
    return CayleyTable([flat[x * n : (x + 1) * n] for x in range(n)])


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
    backtracking search starts.  Its pairwise checks on assigned products
    only prune; a complete map is accepted by one check, that each row s
    of a, mapped through sigma, is row sigma(s) of b read at sigma.
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

    def consistent(x: int) -> bool:
        for y in assigned:
            for s, t in ((x, y), (y, x)):
                v = ta[s][t]
                w = tb[sigma[s]][sigma[t]]
                if sigma[v] >= 0:
                    if sigma[v] != w:
                        return False
                elif inverse[w] >= 0:
                    return False
        if len(assigned) < n:
            return True
        at = itemgetter(*sigma)
        return all(tuple(map(sigma.__getitem__, ta[s])) == at(tb[sigma[s]]) for s in range(n))

    # depth-first, as a loop so that no order is too deep for the stack;
    # tries[k] holds the candidates of order[k] not yet tried
    tries = []
    while (k := len(assigned) - 1) < len(order):
        x = order[k]
        if k == len(tries):
            tries.append(iter(candidates[x]))
        for u in tries[k]:
            if inverse[u] >= 0:
                continue
            sigma[x] = u
            inverse[u] = x
            assigned.append(x)
            if consistent(x):
                break
            assigned.pop()
            sigma[x] = -1
            inverse[u] = -1
        else:  # x has no candidate left: free the one of the element before
            tries.pop()
            if not tries:
                return None
            y = assigned.pop()
            inverse[sigma[y]] = -1
            sigma[y] = -1
    return tuple(sigma)


def is_isomorphic(a: BckAlgebra, b: BckAlgebra) -> bool:
    return find_isomorphism(a, b) is not None


# --- enumeration -----------------------------------------------------------


def _partial_ok(t: list[list[int]], x: int, y: int) -> bool:
    """Check axiom instances touching cell (x, y) that are fully determined.

    (x, y) lies in the last row or column, e = n-1, and the other cells
    outside them hold a valid base.  Unknown cells hold -1; instances that
    still involve one are skipped (the completed table's BCK1 instances
    with x = e get a final check in ``_flat_valid``).  Sound pruning: only
    definite violations reject a branch.
    """
    n = len(t)
    tx = t[x]
    ty = t[y]
    v = tx[y]
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
            r = tx[q]
            if r >= 0:
                s = tx[r]
                if s >= 0 and t[s][q] > 0:
                    return False  # BCK2 at (x, q)
    tv = t[v]
    for z in range(n):
        tz = t[z]
        b = tx[z]
        d = tz[y]
        if b >= 0 and d >= 0:
            c = tv[b]
            if c >= 0 and t[c][d] > 0:
                return False  # BCK1 at (x, y, z)
        d = ty[z]
        if b >= 0 and d >= 0:
            c = t[b][v]
            if c >= 0 and t[c][d] > 0:
                return False  # BCK1 at (x, z, y)
        a = tz[y]
        b = tz[x]
        if a >= 0 and b >= 0:
            c = t[a][b]
            if c >= 0 and t[c][v] > 0:
                return False  # BCK1 at (z, y, x)
    return True


def _flat_valid(t: list[list[int]]) -> bool:
    """Whether a table completed by ``_extensions`` satisfies BCK1 at every
    instance with x = e = n-1: ((e*y)*(e*z))*(z*y) = 0 for all y and z.

    Every other axiom instance through e is decided before the leaf:

    - instances over x, y, z < e read only the valid, closed base;
    - BCK3, BCK4, x*0 = x and BCK5 hold by construction: e*e = 0, 0*e = 0,
      e*0 = e, and no row cell (e, y) with y > 0 is 0, as e is maximal;
    - ``_partial_ok`` scans every BCK2 instance at (q, e) when the last
      column cell is set, and every one at (e, q) when the last row cell is;
    - no column cell is e, so a BCK1 instance (x, e, z) reads only column
      cells and the base, and ``_partial_ok`` checks it when the later of
      (x, e) and (z, e) is set;
    - (x, y, e) with x < e and 0 < y < e reads x*y, x*e, their product c
      below e, e*y and c*(e*y), a column or base cell, and ``_partial_ok``
      checks it when cell (e, y) is set; (x, 0, e) is BCK2 at (x, e).

    Only pass or fail is needed (a level is a sorted set), so no least
    witness is sought.  The instances with 0 < y < e are read together as
    strings of products (``core._bck1_holds``), which needs n*n <= 256 so
    that a product's code fits one byte.  Every table that enumeration
    completes meets it: level n extends the canonical classes of level
    n-1, whose relabelings ``_build_perms`` encodes in the same bytes.
    Past order 16 building the codes raises ``ValueError``.
    """
    n = len(t)
    codes = _bck1_codes(n, range(n - 1, n), range(1, n - 1))
    return _bck1_holds(_products(chain.from_iterable(t)), n, *codes)


def _extensions(base: Rows) -> list[bytes]:
    """All valid labeled order-(m+1) tables whose leading block is ``base``
    and whose new element e = m is maximal, with a down-set no larger than
    any other maximal element's.

    Every class of order m+1 still has such a table over one of the
    order-m representatives.  In a BCK-algebra x*y <= x, so x*y = u for a
    maximal u forces u <= x, hence x = u: for each maximal u the other
    elements are closed under *, and a maximal u != 0 exists once the
    order is at least 2.  The down-set sizes of the maximal elements are
    the same in every relabeling, so some maximal u has the smallest one
    in every table of the class.  Relabeling the others of such a u onto
    their representative, as the base, and u as e gives the table.

    The new element gets its column, cells (x, e), filled first and then
    its row, cells (e, y).  A cell (x, y) takes only values v with v*x = 0
    (so that x*y <= x) or v = e, a row cell (e, y) takes no 0, as e is
    maximal, and a column cell takes no e, as x*e = e would give e <= x.
    The column cells' values are read off the base once, and the row
    cells', which share x = e, once per completed column.  A completed
    column is dropped if a base-maximal u with u*e != 0 (so still maximal)
    has a smaller down-set than e's, which holds 0, e and the x with
    x*e = 0: the column alone fixes both sizes, as e*u != 0 for a maximal
    e, and a base element that is not maximal in the base is not maximal
    in the table.  Each set cell is checked by ``_partial_ok``, and each
    completed table by ``_flat_valid``, which together cover every axiom
    instance that reads row or column e.
    """
    m = e = len(base)
    t = [[*row, -1] for row in base] + [[-1] * (m + 1)]
    t[0][e] = t[e][e] = 0
    t[e][0] = e
    column = [(x, [u for u in range(m) if base[u][x] == 0]) for x in range(1, m)]
    # (u, |down-set of u|) per base-maximal u: e*u != 0 leaves the size as it is
    downs = [col.count(0) for col in zip(*base)]
    maximal = [(u, downs[u]) for u in range(1, m) if base[u].count(0) == 1]
    row = t[e]
    found: list[bytes] = []

    def fill_column(k: int) -> None:
        if k == len(column):
            below = [u for u in range(1, m) if t[u][e] == 0]
            if all(t[u][e] == 0 or down >= len(below) + 2 for u, down in maximal):
                fill_row(1, below + [e])
            return
        x, values = column[k]
        tx = t[x]
        for v in values:
            tx[e] = v
            if _partial_ok(t, x, e):
                fill_column(k + 1)
        tx[e] = -1

    def fill_row(y: int, values: list[int]) -> None:
        if y == e:
            if _flat_valid(t):
                found.append(bytes(chain.from_iterable(t)))
            return
        for v in values:
            row[y] = v
            if _partial_ok(t, e, y):
                fill_row(y + 1, values)
        row[y] = -1

    fill_column(0)
    return found


def _extend_and_canonicalize(bases: tuple[Rows, ...]) -> set[bytes]:
    perms = cache(_build_perms)  # one order's table, dropped with the level
    return {_canonical_flat(f, len(b) + 1, perms)[0] for b in bases for f in _extensions(b)}


def _extend_level(bases: tuple[BckAlgebra, ...], jobs: int) -> tuple[bytes, ...]:
    """Canonical flats of all one-element extensions of ``bases``, as
    ``bytes``, sorted.

    The bases' rows are sharded over ``jobs`` worker processes when there
    are at least two per worker; the sorted result does not depend on ``jobs``.
    Only the level built here is sharded: ``_level`` builds the bases'
    level serially and caches it.  The pool is imported on this branch
    alone, so that importing ``bck`` or a serial run loads no
    ``multiprocessing``.
    """
    rows = tuple(base.table.rows for base in bases)
    if jobs > 1 and len(rows) >= 2 * jobs:
        from concurrent.futures import ProcessPoolExecutor

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
    order n, sorted, each checked once; equal rows share one tuple.

    ``jobs`` shards level n only.  The lower levels are built serially and
    cached: each holds 6-16 times fewer classes than the next, so a pool
    for one of them costs more to start than it saves.
    """
    cached = _LEVEL_CACHE.get(n)
    if cached is None:
        shared: dict[bytes, tuple[int, ...]] = {}
        tables = []
        for flat in _extend_level(_level(n - 1), jobs):
            rows = [flat[x * n : (x + 1) * n] for x in range(n)]
            tables.append(validate(CayleyTable([shared.setdefault(r, tuple(r)) for r in rows])))
        cached = _LEVEL_CACHE[n] = tuple(tables)
    return cached


def enumerate_algebras(
    n: int, budget: int | None = None, jobs: int = 1
) -> list[BckAlgebra]:
    """One validated representative per isomorphism class of order n.

    Representatives are canonical forms in lexicographic order, computed
    deterministically regardless of ``jobs``.  ``jobs`` worker processes
    shard level n only; the lower levels are built serially and cached.
    Orders above the budget (default 7) raise; raise the budget explicitly
    to go higher.
    ``n``, ``jobs`` and a given ``budget`` must be ints (not bools), and
    ``jobs`` at least 1.
    """
    _check_int("n", n)
    if n < 1:
        raise ValueError("order must be at least 1")
    if budget is not None:
        _check_int("budget", budget)
    _check_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {_shown(jobs)}")
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if n > limit:
        order = _shown(n)
        raise ValueError(
            f"order {order} exceeds the enumeration budget {limit}; pass budget={order} "
            f"(or set BCK_ENUM_BUDGET={order} for the bck command) to allow it"
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
    _check_int("n", n)
    if n < 2:
        raise ValueError(f"verify_unique_minimum requires order >= 2, got {_shown(n)}")
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
    _check_labels(elements, algebra.order)
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
