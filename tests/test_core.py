"""Axiom validation, the induced order, meets, and commuting degrees."""

import random
from fractions import Fraction

import pytest

from bck import classify, core
from bck.construct import b_star, extend_top, family, m_chain, trace_family_index, union
from bck.core import (
    PI,
    TC,
    TWO,
    AxiomViolation,
    BckAlgebra,
    CayleyTable,
    FormatError,
    find_violation,
    standard_algebras,
    validate,
)

import oracle


def corpus(max_order):
    return [a for n in range(1, max_order + 1) for a in classify.enumerate_algebras(n)]


# --- table format ----------------------------------------------------------


def test_rejects_non_square_table():
    with pytest.raises(FormatError):
        CayleyTable(((0, 0), (1,)))


def test_rejects_out_of_range_entry():
    with pytest.raises(FormatError):
        CayleyTable(((0, 2), (1, 0)))
    with pytest.raises(FormatError, match=r"^entry -1 at \(1,1\) out of range 0\.\.1$"):
        CayleyTable(((0, 0), (1, -1)))


@pytest.mark.parametrize("value", [1.9, True])
def test_rejects_entries_that_are_not_ints(value):
    with pytest.raises(FormatError, match=r"\(1,0\)"):
        CayleyTable(((0, 0), (value, 0)))


HUGE = 10**5000  # past the 4,300 digits that int-to-str converts
HUGE_SHOWN = "<int of 16610 bits>"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: CayleyTable([[HUGE]]), FormatError,
         f"entry {HUGE_SHOWN} at (0,0) out of range 0..0"),
        (lambda: CayleyTable([["x" * 10**6]]), FormatError,
         "entry 'xxxxxxxxxxxxxxxxxxx... (1000002 characters) at (0,0) is not an int"),
        (lambda: classify.relabel(TWO.table, (0, HUGE)), ValueError,
         f"label {HUGE_SHOWN} is not an element of 0..1"),
        (lambda: classify.subalgebra(TWO, (0, HUGE)), ValueError,
         f"label {HUGE_SHOWN} is not an element of 0..1"),
        (lambda: classify.enumerate_algebras(HUGE), ValueError,
         f"order {HUGE_SHOWN} exceeds the enumeration budget 7; pass budget={HUGE_SHOWN} "
         f"(or set BCK_ENUM_BUDGET={HUGE_SHOWN} for the bck command) to allow it"),
        (lambda: classify.enumerate_algebras(1, jobs=-HUGE), ValueError,
         f"jobs must be at least 1, got {HUGE_SHOWN}"),
        (lambda: classify.verify_unique_minimum(-HUGE), ValueError,
         f"verify_unique_minimum requires order >= 2, got {HUGE_SHOWN}"),
        (lambda: trace_family_index(5, HUGE), ValueError,
         f"index {HUGE_SHOWN} out of range for order 5"),
        (lambda: core._check_int("n", Fraction(HUGE, 3)), ValueError,
         "n must be an int, got <Fraction whose repr fails>"),
    ],
    ids=["entry", "non-int-entry", "relabel", "subalgebra", "budget", "jobs",
         "unique-minimum", "family-index", "check-int"],
)
def test_messages_show_values_that_have_no_repr(call, error, message):
    # each value is shown through ``core._shown``: the message is made, not
    # replaced by int-to-str's "Exceeds the limit" error, and it is not a
    # million characters long
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_rejects_empty_table():
    with pytest.raises(FormatError):
        CayleyTable(())


def test_table_normalizes_rows_to_tuples():
    table = CayleyTable([[0, 0], [1, 0]])
    assert table.rows == ((0, 0), (1, 0))
    assert table.entry(1, 0) == 1
    assert table.flat() == (0, 0, 1, 0)


# --- validation ------------------------------------------------------------


def test_standard_algebras_are_the_fixed_tables():
    algebras = standard_algebras()
    assert algebras["2"].table.rows == ((0, 0), (1, 0))
    assert algebras["PI"].table.rows == ((0, 0, 0), (1, 0, 0), (2, 2, 0))
    assert algebras["TC"].table.rows == ((0, 0, 0), (1, 0, 0), (2, 1, 0))


def test_trivial_algebra_is_valid():
    assert validate(CayleyTable(((0,),))).order == 1


def test_bck4_violation_reports_least_witness():
    with pytest.raises(AxiomViolation) as info:
        validate(CayleyTable(((0, 1), (1, 0))))
    assert info.value.axiom == "BCK4"
    assert info.value.witness == (1,)


@pytest.mark.parametrize(
    "rows, axiom, witness",
    [
        (((1, 0), (1, 0)), "BCK3", (0,)),
        (((0, 1), (1, 0)), "BCK4", (1,)),
        (((0, 0), (0, 0)), "x*0=x", (1,)),
        (((0, 0, 0), (1, 0, 0), (2, 0, 0)), "BCK5", (1, 2)),
        (((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 2, 2, 0)), "BCK2", (3, 1)),
        (((0, 0, 0), (1, 0, 2), (2, 2, 0)), "BCK1", (1, 2, 0)),
    ],
)
def test_first_violation_follows_fixed_check_order(rows, axiom, witness):
    violation = find_violation(CayleyTable(rows))
    assert violation is not None
    assert violation.axiom == axiom
    assert violation.witness == witness


def test_violation_message_names_axiom_and_witness():
    violation = find_violation(CayleyTable(((0, 1), (1, 0))))
    assert "BCK4" in str(violation)
    assert "x=1" in str(violation)


def test_valid_tables_have_no_violation():
    for algebra in (TWO, PI, TC):
        assert find_violation(algebra.table) is None


# --- the checker against the naive oracle ------------------------------------


def _assert_checker_agrees(rows):
    # the same first axiom and least witness from find_violation, and from
    # the raw-rows check on tuple rows and on list rows
    want = oracle.first_violation(rows)
    found = find_violation(CayleyTable(rows))
    assert (None if found is None else (found.axiom, found.witness)) == want, rows
    assert core._first_violation(rows) == want, rows
    assert core._first_violation([list(row) for row in rows]) == want, rows
    if len(rows) <= 16:  # a code n*x + y fits one byte
        assert core._holds(rows) == (want is None), rows
    # both BCK1 paths, whichever the kernel rule would pick, once the
    # axioms checked before BCK1 hold
    if want is None or want[0] == "BCK1":
        for raw in (rows, [list(row) for row in rows]):
            assert core._bck1_by_lanes(raw) == want, rows
            assert core._bck1_by_columns(raw) == want, rows


def _one_cell_changes(rows):
    n = len(rows)
    for x in range(n):
        for y in range(n):
            for v in range(n):
                if v != rows[x][y]:
                    grid = [list(row) for row in rows]
                    grid[x][y] = v
                    yield tuple(tuple(row) for row in grid)


def _corrupted(rng, rows, kind):
    # one changed cell aimed at ``kind``; "late" changes a cell off row 0,
    # column 0 and the diagonal, which only BCK2 or BCK1 can catch
    n = len(rows)
    grid = [list(row) for row in rows]
    if kind == "BCK3":
        x = rng.randrange(1, n)
        grid[x][x] = rng.randrange(1, n)
    elif kind == "BCK4":
        grid[0][rng.randrange(1, n)] = rng.randrange(1, n)
    elif kind == "x*0=x":
        x = rng.randrange(1, n)
        grid[x][0] = rng.choice([v for v in range(n) if v != x])
    elif kind == "BCK5":
        x, y = rng.choice([(x, y) for x in range(1, n) for y in range(1, n)
                           if x != y and rows[y][x] == 0])
        grid[x][y] = 0
    else:
        x, y = rng.sample(range(1, n), 2)
        grid[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
    return tuple(tuple(row) for row in grid)


def test_checker_agrees_with_the_oracle_on_every_small_valid_table():
    for n in range(1, 5):
        tables = oracle.all_valid_tables(n) if n <= 3 else oracle.forced_valid_tables(n)
        assert tables
        for rows in tables:
            _assert_checker_agrees(rows)


def test_checker_agrees_with_the_oracle_on_every_one_cell_change_of_order_four():
    fired = set()
    for rows in oracle.group_into_classes(oracle.forced_valid_tables(4)):
        for changed in _one_cell_changes(rows):
            _assert_checker_agrees(changed)
            found = oracle.first_violation(changed)
            fired.add(None if found is None else found[0])
    assert fired == {None, "BCK3", "BCK4", "x*0=x", "BCK5", "BCK2", "BCK1"}


def test_checker_agrees_with_the_oracle_on_corrupted_constructions():
    rng = random.Random(8)
    parts = [rows for n in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(n))]
    kinds = ("BCK3", "BCK4", "x*0=x", "BCK5") + ("late",) * 20
    fired = set()
    for n in range(20, 41, 4):
        rows = rng.choice(parts)
        while len(rows) < n:
            if rng.random() < 0.25:
                rows = oracle.extend_top(rows)
            else:
                rows = oracle.union(rows, rng.choice(parts))
        _assert_checker_agrees(rows)
        assert oracle.first_violation(rows) is None
        for kind in kinds:
            corrupted = _corrupted(rng, rows, kind)
            _assert_checker_agrees(corrupted)
            found = oracle.first_violation(corrupted)
            fired.add(None if found is None else found[0])
    assert {"BCK3", "BCK4", "x*0=x", "BCK5", "BCK2", "BCK1"} <= fired


def _grown_rows(rng, parts, n):
    # a union/top-extension table of order exactly n, grown in place from
    # one part by +T and by unions with parts that still fit
    grid = [list(row) for row in rng.choice(parts)]
    while len(grid) < n:
        m = len(grid)
        fits = [b for b in parts if m + len(b) - 1 <= n]
        if rng.random() < 0.25 or not fits:
            for row in grid:
                row.append(0)
            grid.append([m] * m + [0])
        else:
            b = rng.choice(fits)
            for x, row in enumerate(grid):
                row.extend([x] * (len(b) - 1))
            for bx in range(1, len(b)):
                grid.append([m + bx - 1] * m + [v and v + m - 1 for v in b[bx][1:]])
    return tuple(tuple(row) for row in grid)


def _breaks_row_one_or_two(rows):
    # BCK2 or BCK1 fails at some x <= 2, so the oracle's scans stop early
    n = len(rows)
    r = range(n)
    return any(
        rows[rows[x][rows[x][y]]][y]
        or any(rows[rows[rows[x][y]][rows[x][z]]][rows[z][y]] for z in r)
        for x in (1, 2)
        for y in r
    )


def test_checker_agrees_with_the_oracle_across_the_byte_boundary():
    # values from 255 on no longer fit one byte of the checker's lanes; a
    # random relabelling puts such values in every row and column
    rng = random.Random(9)
    parts = [rows for n in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(n))]
    fired = set()
    for n in (255, 256, 257, 300):
        tail = rng.sample(range(1, n), n - 1)
        rows = oracle.relabeled(_grown_rows(rng, parts, n), (0, *tail))
        assert find_violation(CayleyTable(rows)) is None
        assert core._first_violation([list(row) for row in rows]) is None
        corrupted = 0
        while corrupted < 3:
            x, y = rng.randrange(1, 3), rng.randrange(1, n)
            grid = [list(row) for row in rows]
            grid[x][y] = rng.choice([v for v in range(1, n) if rows[v][x] == 0])
            if x == y or grid[x][y] == rows[x][y] or not _breaks_row_one_or_two(grid):
                continue
            changed = tuple(tuple(row) for row in grid)
            _assert_checker_agrees(changed)
            fired.add(oracle.first_violation(changed)[0])
            corrupted += 1
    assert fired == {"BCK2", "BCK1"}


def _valid_rows(rng, parts, n):
    # a valid table of order n with random labels other than 0
    if n <= 3:
        rows = rng.choice(oracle.all_valid_tables(n))
    else:
        rows = _grown_rows(rng, parts, n)
    return oracle.relabeled(rows, (0, *rng.sample(range(1, n), n - 1)))


def _random_rows(rng, n, shaped):
    # random entries; when shaped, with BCK3, BCK4 and x*0 = x holding, so
    # that the later axioms decide
    grid = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if shaped:
        for x in range(n):
            grid[0][x] = grid[x][x] = 0
            grid[x][0] = x
    return tuple(tuple(row) for row in grid)


def test_byte_check_agrees_with_the_oracle_up_to_and_past_its_bound():
    # orders 1-16 are checked on strings of products first, as a code
    # n*x + y fits one byte; order 17 takes the scans alone
    rng = random.Random(28)
    parts = [rows for n in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(n))]
    fired = {}
    for n in range(1, 18):
        tables = []
        for _ in range(3):
            rows = _valid_rows(rng, parts, n)
            assert oracle.axioms_hold(rows)
            tables.append(rows)
            # one changed cell each: in row 0, on the diagonal, in column 0,
            # and elsewhere, there to 0 (for BCK5) or to any other value
            k = rng.randrange(1, n) if n > 1 else 0
            cells = [(0, k), (k, k), (k, 0)] if n > 1 else []
            cells += [(rng.randrange(1, n), rng.randrange(1, n)) for _ in range(8 * (n > 2))]
            for i, (x, y) in enumerate(cells):
                grid = [list(row) for row in rows]
                others = [v for v in range(n) if v != rows[x][y]]
                grid[x][y] = 0 if i == 3 and rows[x][y] else rng.choice(others)
                tables.append(tuple(tuple(row) for row in grid))
            tables += [_random_rows(rng, n, shaped) for shaped in (False, True, True)]
        for rows in tables:
            _assert_checker_agrees(rows)
            found = oracle.first_violation(rows)
            assert oracle.axioms_hold(rows) == (found is None), rows
            fired.setdefault(None if found is None else found[0], set()).add(n)
    assert set(fired) == {None, "BCK3", "BCK4", "x*0=x", "BCK5", "BCK2", "BCK1"}
    assert all({16, 17} <= orders for orders in fired.values()), fired


def test_leaf_check_at_the_byte_bound():
    # ``classify._flat_valid`` decides BCK1 at (e, y, z) for 0 < y < e and
    # every z, e = n-1, on strings of products, whose codes fit one byte up
    # to order 16.  At order 16 it is compared with a naive scan of those
    # instances on valid tables with changed cells: up to two in
    # row e, or one cell z*y set to 0 where (e*y)*(e*z) != 0 and z != e*y,
    # which fails the instance (e, y, z) and no other, as 0*v = 0
    n = 16
    rng = random.Random(n)
    parts = [rows for k in (2, 3, 4) for rows in
             oracle.group_into_classes(oracle.forced_valid_tables(k))]
    e = n - 1

    def failing(t):
        return {y for y in range(1, e) for z in range(n) if t[t[t[e][y]][t[e][z]]][t[z][y]]}

    verdicts, alone = set(), set()
    for _ in range(12):
        rows = oracle.relabeled(_grown_rows(rng, parts, n), (0, *rng.sample(range(1, n), e)))
        t = [list(row) for row in rows]
        for _ in range(rng.randrange(3)):
            t[e][rng.randrange(1, e)] = rng.randrange(n)
        verdict = classify._flat_valid(t)
        assert verdict == (not failing(t)), t
        verdicts.add(verdict)
        for y in range(1, e):
            u = rows[e][y]
            zs = [z for z in range(1, e) if z != y and rows[u][rows[e][z]] and z != u]
            if zs:
                t = [list(row) for row in rows]
                t[rng.choice(zs)][y] = 0
                assert failing(t) == {y} and not classify._flat_valid(t), t
                alone.add(y)
    assert verdicts == {True, False} and alone == set(range(1, e))


@pytest.mark.parametrize("n", [256, 300])
def test_bck1_witness_past_the_byte_boundary(n):
    # this part breaks only BCK1, first at (1, 2, 3), where 3*2 = 2 != 0; in
    # a union it is the only part that fails, and swapping labels sends its
    # 1 to 1 and its 2 to n-1, so the failing lane reads z*y = n-1 >= 255
    bad = ((0, 0, 0, 0), (1, 0, 1, 0), (2, 2, 0, 0), (3, 3, 2, 0))
    parts = [rows for k in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(k))]
    rows = oracle.union(_grown_rows(random.Random(n), parts, n - 3), bad)
    sigma = list(range(n))
    sigma[1], sigma[n - 3] = n - 3, 1
    sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    rows = oracle.relabeled(rows, tuple(sigma))
    assert oracle.first_violation(rows) == ("BCK1", (1, n - 1, n - 2))
    _assert_checker_agrees(rows)


# --- order, meet, commuting ------------------------------------------------


def _bounded_chain_rows(n):
    # x*y = max(x - y, 0): row x holds x + 1 distinct values
    return tuple(tuple(max(x - y, 0) for y in range(n)) for x in range(n))


def _product_rows(a, b):
    m = len(b)
    n = len(a) * m
    return tuple(
        tuple(a[x // m][y // m] * m + b[x % m][y % m] for y in range(n)) for x in range(n)
    )


def test_checker_agrees_with_the_oracle_on_tables_with_many_values_per_row():
    rng = random.Random(10)
    tail = rng.sample(range(1, 41), 40)
    tables = (
        _bounded_chain_rows(40),
        oracle.relabeled(_bounded_chain_rows(41), (0, *tail)),
        _product_rows(_bounded_chain_rows(6), _bounded_chain_rows(7)),
    )
    fired = set()
    for rows in tables:
        _assert_checker_agrees(rows)
        assert oracle.first_violation(rows) is None
        for _ in range(10):
            corrupted = _corrupted(rng, rows, "late")
            _assert_checker_agrees(corrupted)
            found = oracle.first_violation(corrupted)
            fired.add(None if found is None else found[0])
    assert {"BCK2", "BCK1"} <= fired


def test_bck1_path_follows_the_order_and_distinct_row_values(monkeypatch):
    # up to order 16, where a code n*x + y fits one byte, a valid table is
    # accepted by the byte-parallel check and takes no scan.  A table it
    # refuses, and every larger one, takes the column scans below order 9,
    # where the lanes' set-up costs more than the scans, and on rows with
    # more than four distinct values on average, as in chains, where the
    # lanes translate about once per cell; the lanes otherwise, as in
    # unions of small parts and their top extensions
    taken = []
    for name in ("_holds", "_bck1_by_columns", "_bck1_by_lanes"):
        check = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda t, check=check, name=name: taken.append(name) or check(t)
        )

    def path(rows):
        del taken[:]
        found = core._first_violation(rows)
        assert found is None or found[0] == "BCK1", found
        return tuple(taken)

    def distinct(rows):
        return sum(len(set(row)) for row in rows)

    def broken(rows):
        # BCK1 fails at (1, 2, 3) of this part, and at no other axiom
        return oracle.union(rows, ((0, 0, 0, 0), (1, 0, 1, 0), (2, 2, 0, 0), (3, 3, 2, 0)))

    labelled = [
        [flat[x * 8 : x * 8 + 8] for x in range(8)]
        for flat in classify._extensions(m_chain(7).table.rows)
    ]
    assert labelled and all(distinct(rows) <= 4 * 8 for rows in labelled)
    assert {path(rows) for rows in labelled} == {("_holds",)}
    assert path(broken(m_chain(5).table.rows)) == ("_holds", "_bck1_by_columns")
    small = classify._level(6)[-1]
    rows = broken(oracle.union(small.table.rows, small.table.rows))
    assert len(rows) == 14 and distinct(rows) <= 4 * 14
    assert path(rows) == ("_holds", "_bck1_by_lanes")
    assert path(_bounded_chain_rows(16)) == ("_holds",)
    assert distinct(_bounded_chain_rows(17)) > 4 * 17
    assert path(_bounded_chain_rows(17)) == ("_bck1_by_columns",)
    assert path(_bounded_chain_rows(60)) == ("_bck1_by_columns",)
    level = family(24)
    assert len(level) == 253
    assert {path(entry.algebra.table.rows) for entry in level.entries} == {("_bck1_by_lanes",)}
    top = extend_top(union(small, small, small))
    assert top.order == 17
    assert path(top.table.rows) == ("_bck1_by_lanes",)
    parts = [rows for n in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(n))]
    assert path(_grown_rows(random.Random(60), parts, 60)) == ("_bck1_by_lanes",)


def test_leq_from_the_fixed_tables():
    assert PI.leq(1, 2)
    assert not PI.leq(2, 1)
    assert TC.leq(1, 2)


def test_zero_is_the_least_element():
    for algebra in corpus(4):
        for x in algebra.elements():
            assert algebra.leq(0, x)
            if algebra.leq(x, 0):
                assert x == 0


def test_meet_values_from_the_fixed_tables():
    assert PI.meet(1, 2) == 0
    assert PI.meet(2, 1) == 1
    assert TC.meet(1, 2) == 1
    assert TC.meet(2, 1) == 1


def test_meet_is_idempotent():
    for algebra in corpus(4):
        for x in algebra.elements():
            assert algebra.meet(x, x) == x


def test_meet_is_a_lower_bound():
    for algebra in corpus(5):
        for x in algebra.elements():
            for y in algebra.elements():
                m = algebra.meet(x, y)
                assert algebra.leq(m, x)
                assert algebra.leq(m, y)


def test_meet_is_the_greatest_lower_bound_in_commutative_algebras():
    for algebra in corpus(5):
        if not algebra.is_commutative():
            continue
        for x in algebra.elements():
            for y in algebra.elements():
                m = algebra.meet(x, y)
                for z in algebra.elements():
                    if algebra.leq(z, x) and algebra.leq(z, y):
                        assert algebra.leq(z, m)


def test_one_commuting_pair_does_not_force_a_greatest_lower_bound():
    # 2 and 3 commute with meet 0, yet 1 lies below both of them, so a
    # single commuting pair's meet need not be the greatest lower bound;
    # that only holds once the whole algebra is commutative
    algebra = validate(
        CayleyTable(((0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 0, 2), (3, 3, 3, 0)))
    )
    assert algebra.commutes(2, 3)
    assert algebra.meet(2, 3) == 0
    assert algebra.leq(1, 2) and algebra.leq(1, 3)


def test_incomparable_elements_have_a_nonzero_difference():
    for algebra in corpus(5):
        for x in algebra.elements():
            for y in algebra.elements():
                if x != y and not algebra.leq(x, y) and not algebra.leq(y, x):
                    assert algebra.op(x, y) != 0 or algebra.op(y, x) != 0


def test_commutes_examples():
    assert not PI.commutes(1, 2)
    assert TC.commutes(1, 2)
    for algebra in corpus(4):
        for x in algebra.elements():
            assert algebra.commutes(x, 0)
            assert algebra.commutes(x, x)


def test_commuting_reports_of_the_fixed_tables():
    report = PI.commuting_report()
    assert (report.order, report.pair_count) == (3, 7)
    assert report.degree == Fraction(7, 9)
    assert report.raw == "7/9"
    assert TWO.commuting_report().pair_count == 4
    assert TWO.commuting_degree() == 1
    assert TC.commuting_degree() == 1


def test_commuting_report_of_the_bounded_chain_extension():
    report = extend_top(PI).commuting_report()
    assert report.pair_count == 10
    assert report.degree == Fraction(10, 16)
    assert report.raw == "10/16"


def test_pair_counts_match_brute_force_over_corpus():
    for algebra in corpus(5):
        assert algebra.commuting_report().pair_count == oracle.pair_count(
            algebra.table.rows
        )


def test_report_bounds_and_parity_over_corpus():
    for algebra in corpus(5):
        report = algebra.commuting_report()
        n = report.order
        assert report.pair_count >= 3 * n - 2
        assert report.pair_count % 2 == n % 2
        if algebra.is_commutative():
            assert report.degree == 1
        else:
            assert report.degree < 1
            assert report.pair_count <= n * n - 2


def _assert_kernels_agree(algebra):
    rows = algebra.table.rows
    assert algebra.commuting_report().pair_count == oracle.pair_count(rows)
    assert algebra.top() == oracle.top(rows)
    assert algebra.is_positive_implicative() == oracle.positive_implicative(rows)


def test_pair_count_top_and_positive_implicativity_match_brute_force_scans():
    # orders 1 and 2 and the corpus, then both sides of the lanes' one-byte
    # block at 255; order 1 has a single element in every row and column
    for algebra in corpus(5):
        _assert_kernels_agree(algebra)
    assert [(a.commuting_report().raw, a.top(), a.is_positive_implicative())
            for a in classify.enumerate_algebras(1)] == [("1/1", 0, True)]
    rng = random.Random(12)
    parts = [rows for n in (2, 3) for rows in
             oracle.group_into_classes(oracle.all_valid_tables(n))]
    seen = set()
    for n in (255, 256, 257):
        tail = (0, *rng.sample(range(1, n), n - 1))
        for rows in (
            _grown_rows(rng, parts, n),
            oracle.extend_top(_grown_rows(rng, parts, n - 1)),
            m_chain(n).table.rows,
            b_star(n).table.rows,
        ):
            algebra = validate(CayleyTable(oracle.relabeled(rows, tail)))
            _assert_kernels_agree(algebra)
            seen.add((algebra.top() is None, algebra.is_positive_implicative()))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# --- predicates -------------------------------------------------------------


def test_commutativity_and_positive_implicativity_flags():
    assert TC.is_commutative() and not TC.is_positive_implicative()
    assert PI.is_positive_implicative() and not PI.is_commutative()
    assert TWO.is_commutative() and TWO.is_positive_implicative()


def test_boundedness_and_top_element():
    extended = extend_top(PI)
    assert extended.is_bounded() and extended.top() == 3
    assert PI.top() == 2  # chains are bounded
    assert union(PI, TWO).top() is None
    assert not union(TWO, TWO).is_bounded()


# --- Hasse covers ------------------------------------------------------------


def test_hasse_covers_of_a_chain():
    assert m_chain(4).hasse_covers() == {(0, 1), (1, 2), (2, 3)}


def test_hasse_covers_of_the_trivial_algebra():
    assert validate(CayleyTable(((0,),))).hasse_covers() == set()


def test_hasse_covers_of_the_order_four_star():
    assert b_star(4).hasse_covers() == {(0, 1), (1, 2), (0, 3)}


def test_hasse_covers_are_transitively_irredundant():
    for algebra in corpus(5):
        for x, y in algebra.hasse_covers():
            assert algebra.leq(x, y) and x != y
            for z in algebra.elements():
                if z not in (x, y):
                    assert not (algebra.leq(x, z) and algebra.leq(z, y))


# --- immutability / soundness ------------------------------------------------


def test_every_corpus_algebra_revalidates():
    for algebra in corpus(5):
        assert find_violation(algebra.table) is None
        assert BckAlgebra(algebra.table).table == algebra.table
