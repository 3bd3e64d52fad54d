"""Independent brute-force oracles used to cross-check the library.

Everything here works on raw row tuples and stays deliberately naive:
degree counting is a direct double loop, validity is a straight
transcription of the axioms, and class grouping tries every 0-fixing
permutation pairwise.  None of it shares code with the package.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

Rows = tuple[tuple[int, ...], ...]


def pair_count(rows: Rows) -> int:
    """Ordered commuting pairs, counted directly from the raw table."""
    n = len(rows)
    count = 0
    for x in range(n):
        for y in range(n):
            if rows[y][rows[y][x]] == rows[x][rows[x][y]]:
                count += 1
    return count


def top(rows: Rows) -> int | None:
    """The least t with x*t = 0 for every x, or None, scanned directly."""
    n = len(rows)
    for t in range(n):
        if all(rows[x][t] == 0 for x in range(n)):
            return t
    return None


def positive_implicative(rows: Rows) -> bool:
    """Whether (x*y)*y = x*y for every pair, checked directly."""
    n = len(rows)
    return all(rows[rows[x][y]][y] == rows[x][y] for x in range(n) for y in range(n))


def first_violation(rows: Rows) -> tuple[str, tuple[int, ...]] | None:
    """The first failing axiom and its least witness, in the documented
    order BCK3, BCK4, x*0=x, BCK5, BCK2, BCK1; each axiom's instances are
    tried with their witness tuples in ascending lexicographic order."""
    n = len(rows)
    r = range(n)
    for x in r:
        if rows[x][x] != 0:
            return "BCK3", (x,)
    for x in r:
        if rows[0][x] != 0:
            return "BCK4", (x,)
    for x in r:
        if rows[x][0] != x:
            return "x*0=x", (x,)
    for x in r:
        for y in r:
            if x < y and rows[x][y] == 0 and rows[y][x] == 0:
                return "BCK5", (x, y)
    for x in r:
        for y in r:
            if rows[rows[x][rows[x][y]]][y] != 0:
                return "BCK2", (x, y)
    for x in r:
        for y in r:
            for z in r:
                if rows[rows[rows[x][y]][rows[x][z]]][rows[z][y]] != 0:
                    return "BCK1", (x, y, z)
    return None


def axioms_hold(rows: Rows) -> bool:
    return first_violation(rows) is None


def all_valid_tables(n: int) -> list[Rows]:
    """Filter every one of the n**(n*n) tables through the axioms (n <= 3)."""
    out = []
    for combo in product(range(n), repeat=n * n):
        rows = tuple(tuple(combo[x * n : (x + 1) * n]) for x in range(n))
        if axioms_hold(rows):
            out.append(rows)
    return out


def forced_valid_tables(n: int) -> list[Rows]:
    """Valid tables with only the axiom-forced cells pre-assigned.

    Row 0, column 0, and the diagonal are immediate consequences of BCK4,
    x*0 = x, and BCK3, so only the remaining (n-1)(n-2) cells range over
    all values.  Used at n = 4, where the literal 4**16 space is out of
    reach; the filter below is still the full axiom check.
    """
    free = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
    out = []
    for combo in product(range(n), repeat=len(free)):
        grid = [[0] * n for _ in range(n)]
        for x in range(n):
            grid[x][0] = x
        for (x, y), v in zip(free, combo):
            grid[x][y] = v
        rows = tuple(tuple(row) for row in grid)
        if axioms_hold(rows):
            out.append(rows)
    return out


def _partial_consistent(grid: list[list[int | None]]) -> bool:
    """No axiom instance whose cells are all assigned is violated.

    Unassigned cells are None; an instance that reads one is skipped, so a
    table rejected here fails the full check whatever the open cells hold.
    """
    n = len(grid)
    for x in range(n):
        for y in range(n):
            a = grid[x][y]
            if a is None:
                continue  # every instance below reads x*y first
            if x != y and a == 0 and grid[y][x] == 0:
                return False
            b = grid[x][a]
            if b is not None and grid[b][y] not in (None, 0):
                return False
            for z in range(n):
                d, f = grid[x][z], grid[z][y]
                if d is None or f is None:
                    continue
                e = grid[a][d]
                if e is not None and grid[e][f] not in (None, 0):
                    return False
    return True


@cache
def pruned_valid_tables(n: int) -> tuple[Rows, ...]:
    """Valid tables found by depth-first search over the free cells.

    The cells are the same as in ``forced_valid_tables``; a branch is cut
    as soon as a fully assigned axiom instance fails, and every completed
    table still goes through the full ``axioms_hold`` filter.  Used at
    n = 5, where the 5**12 product is out of reach.  The result is computed
    once per n and shared, so it is a tuple that no caller can change.
    """
    free = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
    grid: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        grid[0][x] = 0
        grid[x][x] = 0
        grid[x][0] = x
    out = []

    def fill(i: int) -> None:
        if i == len(free):
            rows = tuple(tuple(row) for row in grid)
            if axioms_hold(rows):
                out.append(rows)
            return
        x, y = free[i]
        for v in range(n):
            grid[x][y] = v
            if _partial_consistent(grid):
                fill(i + 1)
        grid[x][y] = None

    fill(0)
    return tuple(out)


def union(*parts: Rows) -> Rows:
    """The parts glued at their shared 0, cell by cell: the first part keeps
    its labels, each later part's nonzero elements take the next labels in
    order, and x*y = x across parts."""
    # label -> (part, local element); the shared 0 belongs to part 0
    owner = [(0, 0)] + [
        (i, v) for i, part in enumerate(parts) for v in range(1, len(part))
    ]
    label = {element: a for a, element in enumerate(owner)}
    return tuple(
        tuple(label.get((i, parts[i][u][v]), 0) if i == j else a for j, v in owner)
        for a, (i, u) in enumerate(owner)
    )


def extend_top(rows: Rows) -> Rows:
    """The table with a new top T = n adjoined: x*T = 0 and T*x = T."""
    n = len(rows)
    return tuple(tuple(row) + (0,) for row in rows) + ((n,) * n + (0,),)


def relabeled(rows: Rows, sigma: tuple[int, ...]) -> Rows:
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[rows[x][y]]
    return tuple(tuple(row) for row in out)


def related(rows_a: Rows, rows_b: Rows) -> bool:
    """Exhaustive isomorphism test over all 0-fixing permutations."""
    n = len(rows_a)
    return any(
        relabeled(rows_a, (0,) + tail) == rows_b
        for tail in permutations(range(1, n))
    )


def automorphism_count(rows: Rows) -> int:
    """0-fixing permutations that map the table onto itself, over all of them."""
    n = len(rows)
    return sum(
        relabeled(rows, (0,) + tail) == rows for tail in permutations(range(1, n))
    )


def canonical_flat(rows: Rows) -> Rows:
    """The least relabeled table over every 0-fixing permutation; any table."""
    n = len(rows)
    return min(relabeled(rows, (0,) + tail) for tail in permutations(range(1, n)))


def group_into_classes(tables: list[Rows]) -> list[Rows]:
    reps: list[Rows] = []
    for rows in tables:
        if not any(related(rows, rep) for rep in reps):
            reps.append(rows)
    return reps


def class_count(n: int) -> int:
    """Isomorphism classes of order n by filter-then-group (n <= 4)."""
    tables = all_valid_tables(n) if n <= 3 else forced_valid_tables(n)
    return len(group_into_classes(tables))
