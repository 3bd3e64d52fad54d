"""The .bck table format and DOT emission."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bck import classify, core
from bck.bckfile import (
    ParseError,
    _TooLarge,
    emit_bck,
    emit_hasse_dot,
    parse_bck,
    parse_decimal,
)
from bck.construct import b_star, family, m_chain
from bck.core import PI, CayleyTable, validate


def test_emit_golden_order_three_chain():
    assert emit_bck(PI.table) == "bck 1\n3\n0 0 0\n1 0 0\n2 2 0\n"


def test_round_trip_over_small_corpus():
    algebras = [a for n in range(1, 6) for a in classify.enumerate_algebras(n)]
    algebras += [e.algebra for e in family(7).entries]
    for algebra in algebras:
        assert parse_bck(emit_bck(algebra.table)) == algebra.table


# characters of each kind the parser tells apart: ASCII digits, the
# header's letters, signs, "#", the whitespace str.split() breaks rows on,
# LF and CR, digits that are not ASCII, a lone surrogate and an emoji;
# hypothesis's full unicode tables take about 2 s to build on a fresh
# checkout and reach no other branch
_LINE_CHARS = (
    "0123456789bck#+-_ \t\x0b\x0c\x1c\x85\xa0\u2028\u3000"
    "\u0663\u00b2\u2460\U0001d7d8\ud800\U0001f44d"
)
_CHARS = st.sampled_from(_LINE_CHARS + "\n\r")


@given(
    st.integers(1, 12),
    st.binary(min_size=144, max_size=144),
    st.lists(st.text(st.sampled_from(_LINE_CHARS), max_size=8), max_size=2),
)
def test_parse_inverts_emit_on_any_table(n, cells, comments):
    # any square table in range, axioms or not, with any one-line comments
    table = CayleyTable(
        tuple(tuple(v % n for v in cells[x * n : (x + 1) * n]) for x in range(n))
    )
    assert parse_bck(emit_bck(table, comments)) == table


# a header, an order line and rows near the format, so that drawn texts
# also reach the order and row parsers
_NEAR_BCK_TEXTS = st.tuples(
    st.sampled_from(["2", "1", "3", "02", "0", "+2", "\u0662", "2\r"]),
    st.lists(
        st.one_of(
            st.sampled_from(
                ["0 0", "1 0", "0 1", "0 2", "0 0 0", "1 0 0", "0 1 x", "-1 0", "1_0 0",
                 "\u0663 0", "00 01", " 0  0 ", "# c", "", "0", "9" * 5000]
            ),
            st.text(_CHARS, max_size=6),
        ),
        min_size=1,
        max_size=4,
    ),
).map(lambda parts: "\n".join(["bck 1", parts[0], *parts[1]]))


@given(st.one_of(st.text(_CHARS, max_size=40), _NEAR_BCK_TEXTS))
def test_parse_raises_only_parse_errors(text):
    try:
        table = parse_bck(text)
    except ParseError:
        return
    assert parse_bck(emit_bck(table)) == table


@given(st.lists(st.text(_CHARS, max_size=30), max_size=3))
def test_emit_refuses_the_comments_parse_would_not_read_back(comments):
    # LF would end the comment's line and CR is refused as a CRLF ending
    try:
        text = emit_bck(PI.table, comments)
    except ValueError as exc:
        bad = next(c for c in comments if "\n" in c or "\r" in c)
        assert str(exc) == f"comment is not one line: {core._excerpt(bad)}"
        return
    assert parse_bck(text) == PI.table


def test_round_trip_ignores_comments():
    text = emit_bck(PI.table, comments=("built by hand", "second note"))
    assert text.endswith("# built by hand\n# second note\n")
    assert parse_bck(text) == PI.table


def test_parse_accepts_trailing_blank_and_comment_lines():
    assert parse_bck("bck 1\n2\n0 0\n1 0\n\n# tail\n") == CayleyTable(
        ((0, 0), (1, 0))
    )


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("bck 2\n2\n0 0\n1 0\n", 1, "header"),
        ("", 1, "header"),
        ("bck 1\n", 2, "missing order line"),
        ("bck 1\nthree\n0 0 0\n", 2, "decimal"),
        ("bck 1\n0\n", 2, "positive"),
        ("bck 1\n2\n0 0\n", 4, "missing row"),
        ("bck 1\n2\n0 0 0\n1 0\n", 3, "expected 2"),
        ("bck 1\n2\n0 0\n1 x\n", 4, "non-numeric"),
        ("bck 1\n2\n0 0\n1 5\n", 4, "out of range"),
        ("bck 1\n2\n0 0\n1 0\njunk\n", 5, "unexpected content"),
        ("bck 1\n+1\n0\n", 2, "decimal"),
        ("bck 1\n1_0\n", 2, "decimal"),
        ("bck 1\n2\n0 0\n\u0661 0\n", 4, "non-numeric"),
        ("bck 1\r\n2\r\n0 0\r\n1 0\r\n", 1, "CRLF"),
        # entries the lookup of entry texts lacks, between rows it reads
        ("bck 1\n3\n0 0 0\n1 3 0\n2 2 0\n", 4,
         "entry 3 out of range 0..2 at row 2, column 2"),
        ("bck 1\n3\n0 0 0\n+1 0 0\n2 2 0\n", 4, "non-numeric entry '+1' at row 2"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as info:
        parse_bck(text)
    assert info.value.line == line
    assert fragment in str(info.value)


def test_out_of_range_error_names_the_table_row():
    with pytest.raises(ParseError, match="row 2"):
        parse_bck("bck 1\n2\n0 0\n1 5\n")


def test_leading_zeros_are_read_as_decimal():
    rows = ["0 0 0 0 0 0 0 0"] + [f"{x} 0 0 0 0 0 0 0" for x in range(1, 7)]
    table = parse_bck("bck 1\n8\n" + "\n".join(rows) + "\n007 000 0 0 0 0 0 00\n")
    assert table.rows[7] == (7, 0, 0, 0, 0, 0, 0, 0)
    # a padded row between rows that the lookup of entry texts reads
    assert parse_bck("bck 1\n3\n0 0 0\n01 0 00\n2 2 0\n") == PI.table


@pytest.mark.parametrize("entry", ["1" * 5000, "\u0661", "\u00b2"])
def test_entries_int_refuses_are_parse_errors_on_their_line(entry):
    # int() refuses more than 4,300 digits, a decimal above any order;
    # U+0661 and U+00B2 are digits to str.isdigit but not ASCII
    with pytest.raises(ParseError) as info:
        parse_bck(f"bck 1\n3\n0 0 0\n1 0 {entry}\n2 2 0\n")
    assert info.value.line == 4
    reason = "out of range" if entry.isascii() else "non-numeric entry"
    assert reason in str(info.value)


def test_long_entries_are_named_by_a_short_prefix():
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n3\n0 0 0\n1 0 " + "12" * 2500 + "\n2 2 0\n")
    assert str(info.value) == (
        "line 4: entry '12121212121212121212'... (5000 characters) out of range "
        "0..2 at row 2, column 3"
    )
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n2\n0 0\n1 " + "x" * 5000 + "\n")
    assert str(info.value) == (
        "line 4: non-numeric entry 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters) at row 2"
    )


def test_orders_int_refuses_are_too_large():
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n" + "9" * 5000 + "\n0\n")
    assert str(info.value) == (
        "line 2: order too large: '99999999999999999999'... (5000 characters)"
    )


def test_parse_decimal_tells_too_large_from_malformed_by_type():
    with pytest.raises(_TooLarge):
        parse_decimal("9" * 5000)
    for text in ("9" * 4999 + "x", "+5", ""):
        with pytest.raises(ValueError) as info:
            parse_decimal(text)
        assert type(info.value) is ValueError
    assert parse_decimal("0" * 5000 + "7") == 7


def test_row_messages_name_a_long_order_by_a_prefix():
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n" + "9" * 4300 + "\n")
    assert str(info.value) == (
        "line 3: missing row 1 of '99999999999999999999'... (4300 characters)"
    )
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n" + "12" * 15 + "\n0\n")
    assert str(info.value) == (
        "line 3: row 1 has 1 entries, expected '12121212121212121212'... "
        "(30 characters)"
    )
    # up to 20 digits the order is repeated in full
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n" + "9" * 20 + "\n0\n")
    assert str(info.value).endswith("expected 99999999999999999999")


def test_leading_zeros_do_not_count_against_the_digit_limit():
    # 5,001 characters, but the value 1
    one = "0" * 5000 + "1"
    assert parse_bck(f"bck 1\n{one}\n0\n") == CayleyTable(((0,),))
    assert parse_bck(f"bck 1\n2\n0 0\n{one} 0\n") == CayleyTable(((0, 0), (1, 0)))


def test_out_of_range_in_the_last_column_names_row_and_column():
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n3\n0 0 0\n1 0 0\n2 2 3\n")
    assert str(info.value) == "line 5: entry 3 out of range 0..2 at row 3, column 3"


def test_a_short_first_row_is_refused_before_any_order_sized_lookup():
    # a lookup of 10**6 entry texts would hold about 100 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="row 1 has 3 entries"):
            parse_bck("bck 1\n1000000\n0 0 0\n")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ParseError) as info:
        parse_bck("bck 1\n1000000000000\n0 0 0\n")
    assert str(info.value) == "line 3: row 1 has 3 entries, expected 1000000000000"


def test_dot_of_the_order_four_chain():
    assert emit_hasse_dot(m_chain(4)) == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "  0 -> 1;\n"
        "  1 -> 2;\n"
        "  2 -> 3;\n"
        "}\n"
    )


def test_dot_of_the_trivial_algebra():
    assert emit_hasse_dot(validate(CayleyTable(((0,),)))) == (
        "digraph hasse {\n  rankdir=BT;\n  0;\n}\n"
    )


def test_dot_of_the_order_five_star():
    text = emit_hasse_dot(b_star(5))
    edges = [line.strip() for line in text.splitlines() if "->" in line]
    assert edges == ["0 -> 1;", "0 -> 3;", "0 -> 4;", "1 -> 2;"]
