"""End-to-end checks of the command-line surface."""

import io
import math
import sys
from fractions import Fraction

import pytest

from bck.bckfile import emit_bck, parse_bck
from bck.cli import main
from bck.construct import b_star, m_chain, synthesize, union
from bck.core import PI, TC, TWO, find_violation, validate


def write(path, algebra):
    path.write_text(emit_bck(algebra.table))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_file(tmp_path, capsys):
    code, out, err = run(capsys, "verify", write(tmp_path / "pi.bck", PI))
    assert (code, out, err) == (0, "valid\n", "")


def test_verify_invalid_table_prints_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.bck"
    path.write_text("bck 1\n2\n0 1\n1 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "BCK4" in out
    assert err == ""


def test_verify_unparseable_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "junk.bck"
    path.write_text("not a table\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert "line 1" in err


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "cd", str(tmp_path / "absent.bck"))
    assert code == 1
    assert err != ""


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv", [["family"], ["enum"], ["census"], ["cdset"], ["build", "mn"]]
)
def test_order_arguments_name_long_text_by_a_prefix(capsys, argv):
    # int() refuses more than 4,300 digits; the usage error repeats only a
    # prefix of such an order, and a short text exactly as argparse does
    for text, shown in (
        ("1" * 5000, "'11111111111111111111'... (5000 characters)"),
        ("x", "'x'"),
    ):
        with pytest.raises(SystemExit) as info:
            main([*argv, text])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument n: invalid int value: {shown}\n")
        assert len(err.splitlines()) == 2 and len(err) < 200


def test_cd_prints_raw_and_reduced(tmp_path, capsys):
    code, out, _ = run(capsys, "cd", write(tmp_path / "pi.bck", PI))
    assert (code, out) == (0, "7/9 = 7/9\n")
    code, out, _ = run(capsys, "cd", write(tmp_path / "m4.bck", m_chain(4)))
    assert (code, out) == (0, "10/16 = 5/8\n")


def test_props_output(tmp_path, capsys):
    code, out, _ = run(capsys, "props", write(tmp_path / "m4.bck", m_chain(4)))
    assert code == 0
    assert out == (
        "commutative: false\nbounded: true (top=3)\npositive-implicative: true\n"
    )
    code, out, _ = run(capsys, "props", write(tmp_path / "tc.bck", TC))
    assert out.splitlines()[0] == "commutative: true"
    assert out.splitlines()[2] == "positive-implicative: false"


def test_build_writes_files_that_reverify(tmp_path, capsys):
    out_path = tmp_path / "m5.bck"
    code, out, _ = run(capsys, "build", "mn", "5", "-o", str(out_path))
    assert code == 0 and out == ""
    assert parse_bck(out_path.read_text()) == m_chain(5).table
    code, out, _ = run(capsys, "build", "bn", "5")
    assert code == 0
    assert parse_bck(out) == b_star(5).table


def test_cd_of_built_chains_matches_the_minimum_formula(tmp_path, capsys):
    for n in (3, 10, 50):
        path = tmp_path / f"m{n}.bck"
        assert run(capsys, "build", "mn", str(n), "-o", str(path))[0] == 0
        _, out, _ = run(capsys, "cd", str(path))
        assert out.startswith(f"{3 * n - 2}/{n * n} = ")


def test_eval_expression(tmp_path, capsys):
    code, out, _ = run(capsys, "eval", "(PI+T)+2")
    assert code == 0
    assert parse_bck(out) == union(m_chain(4), TWO).table
    code, _, err = run(capsys, "eval", "(PI+X)")
    assert code == 1 and "unexpected" in err


def test_op_extend_and_union(tmp_path, capsys):
    pi = write(tmp_path / "pi.bck", PI)
    two = write(tmp_path / "two.bck", TWO)
    out_path = tmp_path / "ext.bck"
    code, _, _ = run(capsys, "op", "extend", pi, "-o", str(out_path))
    assert code == 0
    assert parse_bck(out_path.read_text()) == m_chain(4).table
    code, out, _ = run(capsys, "op", "union", pi, two)
    assert code == 0
    assert parse_bck(out) == union(PI, TWO).table


def test_family_listing(capsys):
    code, out, _ = run(capsys, "family", "4", "--exprs")
    assert code == 0
    assert out.splitlines() == [
        "PI+T  10/16 = 5/8",
        "TC+T  12/16 = 3/4",
        "PI+2  14/16 = 7/8",
    ]
    code, out, _ = run(capsys, "family", "5")
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "13/25",
        "15/25",
        "17/25",
        "19/25",
        "21/25",
        "23/25",
    ]


def test_cdset_listing(capsys):
    code, out, _ = run(capsys, "cdset", "3")
    assert (code, out) == (0, "7/9 = 7/9\n")
    code, out, _ = run(capsys, "cdset", "4")
    assert out.splitlines() == ["10/16 = 5/8", "12/16 = 3/4", "14/16 = 7/8"]


class _Stop(Exception):
    pass


class _FirstLine(io.StringIO):
    """A stdout whose reader stops after the first line."""

    def write(self, text):
        super().write(text)
        if "\n" in text:
            raise _Stop


def test_cdset_streams_the_degrees_of_a_huge_order(monkeypatch, capsys):
    # about n*n/2 numerators: the first line is printed before any other is
    # made (n*n has 4,000 digits, which str() still converts)
    n = int("9" * 2000)
    stdout = _FirstLine()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(_Stop):
        main(["cdset", str(n)])
    k = 3 * n - 2
    assert stdout.getvalue() == f"{k}/{n * n} = {Fraction(k, n * n)}\n"
    monkeypatch.undo()
    # at 4,000 digits n*n is past str()'s limit: refused before any line,
    # with the order named by a prefix
    code, out, err = run(capsys, "cdset", "9" * 4000)
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: order {'9' * 20}... (4000 characters) too large: n*n has more "
        f"than {limit} digits\n"
    )


def test_cdset_refuses_exactly_the_orders_whose_square_cannot_print(
    monkeypatch, capsys
):
    # n is the largest order whose n*n has no more digits than str() prints
    n = math.isqrt(10 ** sys.get_int_max_str_digits() - 1)
    stdout = _FirstLine()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(_Stop):
        main(["cdset", str(n)])
    assert stdout.getvalue().startswith(f"{3 * n - 2}/{n * n} = ")
    monkeypatch.undo()
    code, out, err = run(capsys, "cdset", str(n + 1))
    assert (code, out) == (1, "")
    shown = f"{str(n + 1)[:20]}... ({len(str(n + 1))} characters)"
    assert err.startswith(f"error: order {shown} too large: ") and err.count("\n") == 1


def test_synth_worked_example(tmp_path, capsys):
    out_path = tmp_path / "synth.bck"
    code, out, _ = run(capsys, "synth", "2/5", "-o", str(out_path))
    assert code == 0
    assert out.splitlines() == [
        "order: 10",
        "k: 30",
        "index: 7",
        "expression: ((((((PI+2)+T)+2)+T)+T)+T)+T",
        "40/100 = 2/5",
    ]
    # the written algebra is the synthesised one, with k = 30 unordered
    # non-commuting pairs (commuting_report counts ordered commuting pairs)
    algebra = validate(parse_bck(out_path.read_text()))
    assert algebra.table == synthesize(2, 5).algebra.table
    assert (algebra.order**2 - algebra.commuting_report().pair_count) // 2 == 30


def test_synth_notes_escalation(capsys):
    code, out, _ = run(capsys, "synth", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("note:") and "order 8" in lines[0]
    assert "order: 8" in lines
    assert "k: 16" in lines


def test_synth_degree_one(capsys):
    code, out, _ = run(capsys, "synth", "1/1")
    assert code == 0
    assert "expression: TC" in out.splitlines()
    assert "9/9 = 1/1" in out.splitlines()


def test_synth_rejects_malformed_fractions(capsys):
    for bad in ("2", "2/5/7", "a/b", "3/2", "+2/5"):
        code, _, err = run(capsys, "synth", bad)
        assert code == 1 and err.startswith("error:")
    # a signed numeral is named as malformed, not read as 2/5
    assert "'+2/5'" in err


def test_synth_names_long_fractions_by_a_prefix(capsys):
    # int() refuses more than 4,300 digits: the numbers are too large, not
    # malformed, and only a prefix of them is repeated
    code, _, err = run(capsys, "synth", "1" * 5000 + "/3")
    assert code == 1
    assert err == "error: P/Q too large: '11111111111111111111'... (5002 characters)\n"
    code, _, err = run(capsys, "synth", "x" * 5000 + "/3")
    assert code == 1
    assert err == (
        "error: expected integers in P/Q, got 'xxxxxxxxxxxxxxxxxxxx'... "
        "(5002 characters)\n"
    )
    # leading zeros do not count against the digit limit
    code, out, _ = run(capsys, "synth", "0" * 5000 + "1/2")
    assert code == 0 and "order: 8" in out.splitlines()


def test_enum_counts(capsys):
    code, out, _ = run(capsys, "enum", "4", "--count-only")
    assert (code, out) == (0, "14\n")
    code, out, _ = run(capsys, "enum", "4", "--count-only", "--noncommutative")
    assert (code, out) == (0, "9\n")


def test_enum_listing_shows_degrees_and_flags(capsys):
    code, out, _ = run(capsys, "enum", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("000") for line in lines)
    assert any("commutative" in line for line in lines)


def test_enum_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BCK_ENUM_BUDGET", "4")
    code, _, err = run(capsys, "enum", "5", "--count-only")
    assert code == 1
    assert "budget" in err
    for bad in ("abc", "0", "-1"):
        monkeypatch.setenv("BCK_ENUM_BUDGET", bad)
        code, out, err = run(capsys, "enum", "3", "--count-only")
        assert (code, out) == (1, "")
        assert f"BCK_ENUM_BUDGET must be a positive integer, got {bad!r}" in err


# the manifest of `bck enum 4 -o DIR`, recorded before its degree text
# was shared with the other subcommands
ENUM_4_MANIFEST = (
    "index\traw\tdegree\tflags\n"
    "0001\t14/16\t7/8\tbounded\n"
    "0002\t16/16\t1/1\tcommutative,bounded\n"
    "0003\t12/16\t3/4\tbounded\n"
    "0004\t16/16\t1/1\tcommutative\n"
    "0005\t12/16\t3/4\t-\n"
    "0006\t14/16\t7/8\tbounded\n"
    "0007\t12/16\t3/4\tbounded\n"
    "0008\t10/16\t5/8\tbounded,positive-implicative\n"
    "0009\t12/16\t3/4\tpositive-implicative\n"
    "0010\t16/16\t1/1\tcommutative\n"
    "0011\t12/16\t3/4\tbounded,positive-implicative\n"
    "0012\t14/16\t7/8\tpositive-implicative\n"
    "0013\t16/16\t1/1\tcommutative,bounded,positive-implicative\n"
    "0014\t16/16\t1/1\tcommutative,positive-implicative\n"
)


def test_enum_catalog_directory(tmp_path, capsys):
    directory = tmp_path / "catalog"
    code, out, _ = run(capsys, "enum", "4", "-o", str(directory))
    assert code == 0
    assert "wrote 14 classes" in out
    files = sorted(directory.glob("*.bck"))
    assert len(files) == 14
    assert files[0].name == "0001.bck"
    for path in files:
        assert find_violation(parse_bck(path.read_text())) is None
    manifest = (directory / "manifest.tsv").read_text().splitlines()
    assert manifest[0] == "index\traw\tdegree\tflags"
    assert len(manifest) == 15
    assert manifest[1].startswith("0001\t")
    assert (directory / "manifest.tsv").read_text() == ENUM_4_MANIFEST


def test_census_table(capsys):
    code, out, _ = run(capsys, "census", "4")
    assert code == 0
    assert "14/16 = 7/8: 3" in out.splitlines()
    assert "10/16 = 5/8: 1" in out.splitlines()


def test_iso_witness_and_rejection(tmp_path, capsys):
    a = write(tmp_path / "a.bck", union(TWO, PI))
    b = write(tmp_path / "b.bck", union(PI, TWO))
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0
    images = [int(v) for v in out.split()]
    assert sorted(images) == [0, 1, 2, 3]
    pi = write(tmp_path / "pi.bck", PI)
    tc = write(tmp_path / "tc.bck", TC)
    code, out, _ = run(capsys, "iso", pi, tc)
    assert (code, out) == (0, "not isomorphic\n")


def test_subalg_output(tmp_path, capsys):
    code, out, _ = run(capsys, "subalg", write(tmp_path / "pi.bck", PI))
    assert (code, out) == (0, "0 1\n")


def test_hasse_output(tmp_path, capsys):
    code, out, _ = run(capsys, "hasse", write(tmp_path / "m4.bck", m_chain(4)))
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert "  2 -> 3;" in out.splitlines()
