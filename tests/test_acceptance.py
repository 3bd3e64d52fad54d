"""Acceptance suite.

One test per acceptance criterion, each asserting the reference target
values exactly (all quantities here are exact integers or rationals, so
there are no tolerances to tune).  Every test prints a single PASS line;
failures surface as ordinary pytest assertion errors.  Run with

    pytest tests/test_acceptance.py -v -s

Criterion 10 recounts its multiplicities with the oracle's own search
rather than trusting the package's enumeration.
"""

from fractions import Fraction
from math import gcd

from bck import classify
from bck.classify import (
    degree_census,
    enumerate_algebras,
    find_maximal_subalgebra,
    relabel,
    subalgebra,
    verify_unique_minimum,
)
from bck.construct import (
    cd_numerators,
    cd_set,
    extend_top,
    family,
    m_chain,
    synthesize,
    triangular,
    union,
)
from bck.core import TWO, find_violation, standard_algebras

import oracle


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def test_criterion_01_golden_tables():
    algebras = standard_algebras()
    assert algebras["2"].table.rows == ((0, 0), (1, 0))
    assert algebras["PI"].table.rows == ((0, 0, 0), (1, 0, 0), (2, 2, 0))
    assert algebras["TC"].table.rows == ((0, 0, 0), (1, 0, 0), (2, 1, 0))
    assert algebras["PI"].commuting_degree() == Fraction(7, 9)
    assert algebras["2"].commuting_degree() == 1
    assert algebras["TC"].commuting_degree() == 1
    _passed(1, "golden tables")


def test_criterion_02_order_four_family_row():
    entries = family(4).entries
    assert [str(e.expression) for e in entries] == ["PI+T", "TC+T", "PI+2"]
    assert [e.report.raw for e in entries] == ["10/16", "12/16", "14/16"]
    _passed(2, "order-4 family row")


def test_criterion_03_order_five_family_row():
    entries = family(5).entries
    assert [str(e.expression) for e in entries] == [
        "(PI+T)+T",
        "(TC+T)+T",
        "(PI+2)+T",
        "(PI+T)+2",
        "(TC+T)+2",
        "(PI+2)+2",
    ]
    assert [e.report.raw for e in entries] == [
        "13/25",
        "15/25",
        "17/25",
        "19/25",
        "21/25",
        "23/25",
    ]
    _passed(3, "order-5 family row")


def test_criterion_04_transfer_lemmas_over_the_corpus():
    checked = 0
    for n in range(2, 6):
        for algebra in enumerate_algebras(n):
            k = oracle.pair_count(algebra.table.rows)
            extended = extend_top(algebra)
            glued = union(algebra, TWO)
            assert oracle.pair_count(extended.table.rows) == k + 3
            assert oracle.pair_count(glued.table.rows) == k + 2 * n + 1
            assert extended.commuting_report().pair_count == k + 3
            assert glued.commuting_report().pair_count == k + 2 * n + 1
            checked += 1
    assert checked == 1 + 3 + 14 + 88
    _passed(4, "transfer lemmas on all algebras of orders 2..5")


def test_criterion_05_degree_coverage_up_to_order_twelve():
    for n in range(3, 13):
        level = family(n)
        assert len(level.entries) == triangular(n - 2)
        assert [e.report.degree for e in level.entries] == cd_set(n)
        assert [e.report.pair_count for e in level.entries] == cd_numerators(n)
        for entry in level.entries:
            assert find_violation(entry.algebra.table) is None
    _passed(5, "family covers CD(n) for n = 3..12")


def test_criterion_06_synthesizer_exactness():
    for q in range(2, 13):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            result = synthesize(p, q)
            brute = Fraction(
                oracle.pair_count(result.algebra.table.rows), result.order**2
            )
            assert brute == Fraction(p, q)
            if p >= 2:
                assert result.order == 2 * q
                assert not result.escalated
            else:
                assert result.escalated
    half = synthesize(1, 2)
    assert (half.order, half.pair_count) == (8, 16)
    _passed(6, "synthesizer exact for all reduced p/q with q <= 12")


def test_criterion_07_worked_example():
    result = synthesize(2, 5)
    assert result.order == 10
    assert result.pair_count == 30
    assert str(result.expression) == "((((((PI+2)+T)+2)+T)+T)+T)+T"
    trace = [
        oracle.pair_count(step.table.rows) for step in result.expression.steps()
    ]
    assert trace == [7, 14, 17, 28, 31, 34, 37, 40]
    _passed(7, "worked example 2/5")


def test_criterion_08_enumeration_headline():
    algebras = enumerate_algebras(6)
    noncommutative = [a for a in algebras if not a.is_commutative()]
    assert len(noncommutative) == 747
    # deterministic result regardless of worker count: the last level built
    # again on two worker processes equals the serial one listed above
    parallel = classify._extend_level(classify._level(5), jobs=2)
    assert [tuple(f) for f in parallel] == [a.table.flat() for a in algebras]
    _passed(8, "747 non-commutative classes at order 6, worker-independent")


def test_criterion_09_unique_minimum():
    for n in range(3, 7):
        census = degree_census(n)
        minimum = Fraction(3 * n - 2, n * n)
        assert census[minimum] == 1
        report = verify_unique_minimum(n)
        assert relabel(report.representative.table, report.witness) == m_chain(
            n
        ).table
    _passed(9, "unique minimum with explicit witnesses, n = 3..6")


def test_criterion_10_maximum_degree_multiplicities():
    # The maximum degree (n^2-2)/n^2 is hit by 3 classes at order 4 and 9
    # at order 5.  An earlier reference tally gave 8 for order 5 with no
    # stated source; the oracle's independent search below finds 192
    # labelled order-5 tables of degree 23/25 in nine classes, and
    # test_classify.test_nine_maximum_degree_classes_at_order_five shows
    # nine pairwise non-isomorphic witnesses that pass the oracle's axioms.
    for n, expected in ((4, 3), (5, 9)):
        top = n * n - 2
        tables = oracle.pruned_valid_tables(n)
        hits = [rows for rows in tables if oracle.pair_count(rows) == top]
        independent = len(oracle.group_into_classes(hits))
        assert degree_census(n)[Fraction(top, n * n)] == independent == expected
    _passed(10, "maximum-degree multiplicities at orders 4 and 5")


def test_criterion_11_subalgebra_fact():
    for n in range(2, 7):
        for algebra in enumerate_algebras(n):
            subset = find_maximal_subalgebra(algebra)
            assert len(subset) == n - 1 and subset[0] == 0
            assert find_violation(subalgebra(algebra, subset).table) is None
    _passed(11, "order n-1 subalgebra inside every algebra of orders 2..6")


def test_criterion_12_oracle_cross_check():
    for n in range(1, 5):
        assert len(enumerate_algebras(n)) == oracle.class_count(n)
    _passed(12, "backtracking counts equal the naive oracle for n <= 4")
