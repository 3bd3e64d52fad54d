"""Unions, top extensions, extremal families, degree schedules, synthesis."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bck import classify, core
from bck.construct import (
    ConstructionExpr,
    ExprParseError,
    b_star,
    cd_numerators,
    cd_set,
    extend_top,
    family,
    m_chain,
    parse_expr,
    predict_extend_degree,
    predict_union2_degree,
    synthesize,
    trace_family_index,
    triangular,
    union,
)
from bck.core import (
    PI,
    TC,
    TWO,
    CayleyTable,
    find_violation,
    standard_algebras,
    validate,
)

import oracle

TRIVIAL = validate(CayleyTable(((0,),)))


def corpus(max_order):
    return [a for n in range(2, max_order + 1) for a in classify.enumerate_algebras(n)]


# --- union -------------------------------------------------------------------


def test_union_of_pi_and_two_is_the_order_four_maximum():
    glued = union(PI, TWO)
    assert glued.table.rows == (
        (0, 0, 0, 0),
        (1, 0, 0, 1),
        (2, 2, 0, 2),
        (3, 3, 3, 0),
    )
    assert glued.commuting_report().pair_count == 14


def test_union_of_one_part_is_identical():
    assert union(PI).table == PI.table


def test_union_of_three_copies_of_two():
    glued = union(TWO, TWO, TWO)
    assert glued.order == 4
    assert glued.is_commutative()
    assert glued.commuting_degree() == 1
    assert oracle.pair_count(glued.table.rows) == 16
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            if x != y:
                assert not glued.leq(x, y)


def test_union_requires_at_least_one_part():
    with pytest.raises(ValueError):
        union()


def test_union_keeps_first_part_labels():
    glued = union(TC, PI)
    assert tuple(row[:3] for row in glued.table.rows[:3]) == TC.table.rows


def test_cross_component_pairs_commute_with_meet_zero():
    glued = union(PI, TC)
    # parts occupy labels {1, 2} and {3, 4}
    for a in (1, 2):
        for b in (3, 4):
            assert glued.commutes(a, b)
            assert glued.meet(a, b) == 0
            assert glued.meet(b, a) == 0


def test_union_results_revalidate():
    for algebra in corpus(4):
        assert find_violation(union(algebra, TWO).table) is None


def test_union_matches_a_per_cell_reference_on_random_unions():
    classes = [a for n in range(1, 5) for a in classify.enumerate_algebras(n)]
    rng = random.Random(2000)
    for _ in range(2000):
        parts = rng.choices(classes, k=rng.randint(1, 5))
        assert union(*parts).table.rows == oracle.union(*(p.table.rows for p in parts))


# --- top extension -----------------------------------------------------------


def test_extension_of_two_is_the_order_three_chain():
    assert extend_top(TWO).table == PI.table


def test_extension_of_trivial_is_two():
    assert extend_top(TRIVIAL).table == TWO.table


def test_extension_of_pi_is_the_order_four_chain():
    extended = extend_top(PI)
    assert extended.table == m_chain(4).table
    assert extended.commuting_report().degree == Fraction(10, 16)


def test_extension_properties_over_corpus():
    for algebra in corpus(5):
        extended = extend_top(algebra)
        n = algebra.order
        assert extended.order == n + 1
        assert extended.top() == n
        assert extended.is_bounded()
        if n >= 2:
            assert not extended.is_commutative()
        # restricting to the old labels gives the original back exactly
        assert classify.subalgebra(extended, tuple(range(n))).table == algebra.table


# --- degree transfer ---------------------------------------------------------


def test_predicted_degrees_from_the_order_three_chain():
    report = PI.commuting_report()
    assert predict_union2_degree(report) == Fraction(14, 16)
    assert predict_extend_degree(report) == Fraction(10, 16)


def test_union_with_two_keeps_commutative_algebras_commutative():
    for algebra in (TWO, TC, union(TWO, TWO)):
        assert predict_union2_degree(algebra.commuting_report()) == 1
        assert union(algebra, TWO).commuting_degree() == 1


def test_predicted_degree_of_the_order_five_maximum():
    report = b_star(4).commuting_report()
    assert report.pair_count == 14
    assert predict_union2_degree(report) == Fraction(23, 25)


def test_transfer_formulas_match_construction_over_corpus():
    for algebra in corpus(6):
        report = algebra.commuting_report()
        extended = extend_top(algebra).commuting_report()
        glued = union(algebra, TWO).commuting_report()
        assert extended.pair_count == report.pair_count + 3
        assert glued.pair_count == report.pair_count + 2 * report.order + 1
        assert extended.degree == predict_extend_degree(report)
        assert glued.degree == predict_union2_degree(report)


# --- closed-form families ----------------------------------------------------


def test_chain_family_fixed_points():
    assert m_chain(2).table == TWO.table
    assert m_chain(3).table == PI.table
    assert m_chain(5).commuting_report().degree == Fraction(13, 25)


def test_chain_equals_iterated_extension():
    algebra = TWO
    for n in range(3, 9):
        algebra = extend_top(algebra)
        assert algebra.table == m_chain(n).table


def test_chain_rejects_orders_below_two():
    with pytest.raises(ValueError):
        m_chain(1)


def test_star_family_fixed_points():
    assert b_star(3).table == PI.table
    assert b_star(4).commuting_report().raw == "14/16"
    assert b_star(5).commuting_report().raw == "23/25"


def test_star_rejects_orders_below_three():
    with pytest.raises(ValueError):
        b_star(2)


def test_extremal_degrees_up_to_order_fifty():
    for n in range(3, 51):
        nn = n * n
        assert m_chain(n).commuting_report().pair_count == 3 * n - 2
        assert m_chain(n).commuting_degree() == Fraction(3 * n - 2, nn)
        assert b_star(n).commuting_report().pair_count == nn - 2
        assert b_star(n).commuting_degree() == Fraction(nn - 2, nn)


def test_star_poset_is_a_star_of_atoms_with_one_two_chain():
    for n in range(4, 9):
        covers = b_star(n).hasse_covers()
        expected = {(0, 1), (1, 2)} | {(0, x) for x in range(3, n)}
        assert covers == expected


# --- achievable degree sets --------------------------------------------------


def test_cd_set_of_order_three_is_the_singleton():
    assert cd_set(3) == [Fraction(7, 9)]


def test_cd_set_of_order_four():
    assert cd_numerators(4) == [10, 12, 14]
    assert cd_set(4) == [Fraction(10, 16), Fraction(12, 16), Fraction(14, 16)]


def test_cd_set_sizes_are_triangular():
    for n in range(3, 21):
        assert len(cd_set(n)) == triangular(n - 2) == (n - 2) * (n - 1) // 2


def test_cd_set_rejects_orders_below_three():
    with pytest.raises(ValueError):
        cd_set(2)


# --- the family schedule -----------------------------------------------------


def test_family_level_three_is_the_singleton():
    level = family(3)
    assert len(level) == 1
    assert str(level.entries[0].expression) == "PI"
    assert level.entries[0].report.degree == Fraction(7, 9)


def test_family_level_four_matches_the_known_row():
    level = family(4)
    assert [str(e.expression) for e in level.entries] == ["PI+T", "TC+T", "PI+2"]
    assert [e.report.pair_count for e in level.entries] == [10, 12, 14]


def test_family_level_five_matches_the_known_row():
    level = family(5)
    assert [str(e.expression) for e in level.entries] == [
        "(PI+T)+T",
        "(TC+T)+T",
        "(PI+2)+T",
        "(PI+T)+2",
        "(TC+T)+2",
        "(PI+2)+2",
    ]
    assert [e.report.pair_count for e in level.entries] == [13, 15, 17, 19, 21, 23]


def test_family_level_six_unions_come_from_entries_three_to_six():
    fives = family(5).entries
    sixes = family(6).entries
    assert len(sixes) == 10
    for offset, parent in enumerate(fives[2:6]):
        child = sixes[6 + offset]
        assert child.expression == parent.expression.union2()
    assert [e.expression for e in sixes[:6]] == [e.expression.extend_top() for e in fives]


def test_family_level_seven_numerators():
    assert [e.report.pair_count for e in family(7).entries] == list(range(19, 48, 2))


def test_family_degrees_cover_the_achievable_set():
    for n in range(3, 13):
        level = family(n)
        assert len(level) == triangular(n - 2)
        assert [e.report.degree for e in level.entries] == cd_set(n)
        assert [e.report.pair_count for e in level.entries] == cd_numerators(n)
        for j, entry in enumerate(level.entries, start=1):
            assert entry.report.pair_count == 3 * n - 2 + 2 * (j - 1)
            assert entry.algebra.order == n
            assert find_violation(entry.algebra.table) is None
            assert entry.expression.order == n
            # the report is the formula; check it against the built table
            assert entry.algebra.commuting_report() == entry.report
            assert oracle.pair_count(entry.algebra.table.rows) == entry.report.pair_count


def test_family_rejects_orders_below_three():
    with pytest.raises(ValueError):
        family(2)


# --- expressions -------------------------------------------------------------


def test_expression_text_round_trips():
    for n in range(3, 9):
        for entry in family(n).entries:
            text = str(entry.expression)
            assert parse_expr(text) == entry.expression
            assert parse_expr(entry.expression.pretty()) == entry.expression


def test_expression_accepts_fully_parenthesized_form():
    assert parse_expr("((PI+T)+2)") == parse_expr("(PI+T)+2")
    assert parse_expr(" ( PI +T ) ") == parse_expr("PI+T")


def chained_from_leaf(expression):
    """The algebras along an expression, seed first, each built by the
    public, validated ``extend_top`` or ``union(., TWO)`` from the last."""
    algebras = [standard_algebras()[expression.seed]]
    for op in expression.ops:
        last = algebras[-1]
        algebras.append(extend_top(last) if op == "+T" else union(last, TWO))
    return algebras


# every reduced p/q with q <= 10 (p = 1 escalates to order 4q), and one
# mid-range p at q = 20 and q = 40: the validated chain costs O(q^4), about
# a second at q = 40, so not every q up to 40 is taken
EQUIVALENCE_SYNTH_TARGETS = [
    (p, q) for q in range(2, 11) for p in range(1, q) if gcd(p, q) == 1
] + [(9, 20), (21, 40)]


def test_expression_evaluation_matches_direct_construction():
    assert parse_expr("PI+2").evaluate().table == union(PI, TWO).table
    assert parse_expr("2+T").evaluate().table == extend_top(TWO).table
    assert parse_expr("TC").evaluate().table == TC.table
    expressions = [e.expression for n in range(3, 13) for e in family(n).entries]
    assert len(expressions) == sum(triangular(n - 2) for n in range(3, 13))
    expressions += [synthesize(p, q).expression for p, q in EQUIVALENCE_SYNTH_TARGETS]
    for expression in expressions:
        chained = [a.table for a in chained_from_leaf(expression)]
        assert [a.table for a in expression.steps()] == chained, str(expression)
        assert expression.evaluate().table == chained[-1], str(expression)


def test_constructions_check_only_the_algebras_they_return(monkeypatch):
    calls = []
    check = core.find_violation
    monkeypatch.setattr(
        core, "find_violation", lambda table: calls.append(table.order) or check(table)
    )

    def count(build, *args):
        calls.clear()
        build(*args)
        return len(calls)

    for text in ("2", "TC", "PI+2", "((((PI+2)+T)+2)+T)+T"):
        expression = parse_expr(text)
        assert count(expression.evaluate) == 1
        # the leaf is the standard algebra itself; each later step is checked
        assert count(expression.steps) == expression.order - expression.steps()[0].order
    # a family entry or synthesis result builds its table when first read
    for n in range(3, 11):
        assert count(family, n) == 0
        level = family(n)
        assert count(lambda: [e.algebra for e in level.entries]) == triangular(n - 2)
    for n in range(4, 20):
        assert count(b_star, n) == 1
    for p, q in ((2, 5), (1, 12), (1, 1)):
        assert count(synthesize, p, q) == 0
        result = synthesize(p, q)
        assert count(lambda: result.algebra) == 1
        assert count(lambda: result.algebra) == 0


def test_deep_expressions_do_not_recurse():
    deep = trace_family_index(1200, 1)
    assert deep.order == 1200
    text = str(deep)
    assert text == "(" * 1196 + "PI+T)" + "+T)" * 1195 + "+T"
    assert parse_expr(text) == deep == trace_family_index(1200, 1)
    assert deep != trace_family_index(1200, 2)
    assert hash(deep) == hash(parse_expr(text))
    assert repr(deep) == f"parse_expr({text!r})"


SPINES = st.builds(
    ConstructionExpr,
    st.sampled_from(["2", "PI", "TC"]),
    st.lists(st.sampled_from(["+T", "+2"]), max_size=12).map(tuple),
)


@given(SPINES)
def test_random_spines_round_trip_and_obey_the_transfer_lemmas(expression):
    assert parse_expr(str(expression)) == expression == parse_expr(expression.pretty())
    assert hash(parse_expr(str(expression))) == hash(expression)
    assert expression.order == expression.evaluate().order
    steps = expression.steps()
    assert [a.order for a in steps] == list(range(steps[0].order, expression.order + 1))
    counts = [oracle.pair_count(a.table.rows) for a in steps]
    # +3 commuting pairs per top extension, +2m+1 per union with 2 at order m
    for op, a, before, after in zip(expression.ops, steps, counts, counts[1:]):
        assert after - before == (3 if op == "+T" else 2 * a.order + 1), str(expression)


def test_expression_order_matches_evaluation():
    expr = parse_expr("((PI+2)+T)+2")
    assert expr.order == 6 == expr.evaluate().order


def test_expression_steps_start_at_the_leaf():
    steps = parse_expr("(PI+T)+2").steps()
    assert [a.order for a in steps] == [3, 4, 5]
    assert steps[0].table == PI.table


@pytest.mark.parametrize(
    "bad", ["", "PI TC", "(PI", "PI)", "(PI+X)", "2T", "()", "(+T)", "PI++T"]
)
def test_expression_parse_errors(bad):
    with pytest.raises(ExprParseError):
        parse_expr(bad)


def test_expression_constructor_rejects_malformed_nodes():
    # each message names the offending seed, operator tuple or operator
    for seed, ops, offender in [
        ("PI", ("PI",), "'PI'"),
        ("PI", ("+T", "+X"), "'+X'"),
        ("+T", (), "'+T'"),
        ("XYZ", (), "'XYZ'"),
        ("PI", ["+T"], "['+T']"),
        ("PI", "+T", "'+T'"),
        ("PI", ("+T", ["+2"]), "['+2']"),
    ]:
        with pytest.raises(ValueError, match=re.escape(offender)):
            ConstructionExpr(seed, ops)


# --- backward index tracing --------------------------------------------------


def test_trace_of_the_level_four_entries():
    assert trace_family_index(4, 3) == parse_expr("PI+2")
    assert trace_family_index(3, 1) == parse_expr("PI")


def test_trace_matches_family_levels():
    # the schedule run forward from order 4: level m+1 is the +T of every
    # entry at order m, then the +2 of the last m-1 of them
    assert [trace_family_index(3, 1)] == [parse_expr("PI")]
    level = [parse_expr(text) for text in ("PI+T", "TC+T", "PI+2")]
    for m in range(4, 61):
        assert len(level) == triangular(m - 2)
        assert [trace_family_index(m, j) for j in range(1, len(level) + 1)] == level
        if m < 10:
            for expr, k in zip(level, cd_numerators(m), strict=True):
                assert oracle.pair_count(expr.evaluate().table.rows) == k
        level = [e.extend_top() for e in level] + [e.union2() for e in level[-(m - 1):]]


def test_trace_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        trace_family_index(5, 0)
    with pytest.raises(ValueError):
        trace_family_index(5, 7)
    with pytest.raises(ValueError):
        trace_family_index(2, 1)


# --- synthesis ---------------------------------------------------------------


def test_synthesis_of_the_worked_example():
    result = synthesize(2, 5)
    assert result.order == 10
    assert result.pair_count == 30
    assert result.index == 7
    assert not result.escalated
    assert str(result.expression) == "((((((PI+2)+T)+2)+T)+T)+T)+T"
    counts = [a.commuting_report().pair_count for a in result.expression.steps()]
    assert counts == [7, 14, 17, 28, 31, 34, 37, 40]


def test_synthesis_of_degree_one_returns_the_commutative_seed():
    result = synthesize(3, 3)
    assert result.algebra.table == TC.table
    assert result.target == 1
    assert result.index is None


def test_synthesis_of_one_half_escalates():
    result = synthesize(1, 2)
    assert result.escalated
    assert result.order == 8
    assert result.pair_count == 16
    assert result.algebra.commuting_degree() == Fraction(1, 2)


def test_synthesis_reduces_the_fraction_first():
    assert synthesize(4, 10).order == synthesize(2, 5).order == 10


def test_synthesis_exactness_for_small_denominators():
    for q in range(2, 9):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            result = synthesize(p, q)
            degree = Fraction(
                oracle.pair_count(result.algebra.table.rows),
                result.order**2,
            )
            assert degree == Fraction(p, q)
            if p >= 2:
                assert result.order == 2 * q
                assert not result.escalated


@settings(max_examples=50)  # orders up to 240; 200 draws take about 2 s
@given(st.integers(2, 60).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))))
def test_synthesis_is_exact_at_the_prescribed_order(pq):
    # the paper's order for a reduced p/q below 1: 2q, or 4q when p = 1
    p, q = pq
    assume(gcd(p, q) == 1)
    result = synthesize(p, q)
    n = 2 * q if p > 1 else 4 * q
    assert result.order == n
    assert oracle.pair_count(result.algebra.table.rows) * q == n * n * p
    # the identity `bck synth` prints its degree line from
    assert n * n - 2 * result.pair_count == oracle.pair_count(result.algebra.table.rows)


def test_synthesis_rejects_bad_inputs():
    with pytest.raises(ValueError):
        synthesize(0, 5)
    with pytest.raises(ValueError):
        synthesize(3, 0)
    with pytest.raises(ValueError):
        synthesize(7, 5)
    with pytest.raises(ValueError):
        synthesize(-2, 5)


# --- integer arguments ---------------------------------------------------------

_ARG = object()  # where the tested argument goes


@pytest.mark.parametrize("value", [True, 3.0, "3", Fraction(3)])
@pytest.mark.parametrize(
    "function, args, name",
    [
        (m_chain, (_ARG,), "n"),
        (b_star, (_ARG,), "n"),
        (cd_numerators, (_ARG,), "n"),
        (cd_set, (_ARG,), "n"),
        (family, (_ARG,), "n"),
        (trace_family_index, (_ARG, 1), "n"),
        (trace_family_index, (5, _ARG), "j"),
        (synthesize, (_ARG, 4), "p"),
        (synthesize, (1, _ARG), "q"),
    ],
)
def test_integer_arguments_must_be_ints(function, args, name, value):
    # as in the enumeration and CayleyTable: a bool, float, str or Fraction
    # is named, not used as the number it stands for
    args = [value if arg is _ARG else arg for arg in args]
    message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
