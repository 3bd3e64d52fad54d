"""End-to-end checks of the command-line surface."""

import argparse
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import bck
from bck import cli, core
from bck.bckfile import emit_bck, parse_bck
from bck.cli import main
from bck.construct import b_star, family, m_chain, synthesize, union
from bck.core import PI, TC, TWO, find_violation, validate


def write(path, algebra):
    path.write_text(emit_bck(algebra.table))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment with this suite's ``bck`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(bck.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def test_the_parser_is_built_on_the_first_call_only():
    # in a new interpreter, counting the parsers made with prog="bck"
    code = """
import argparse, contextlib, io
progs = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import bck.cli
print(len(progs))
with contextlib.redirect_stdout(io.StringIO()):
    bck.cli.main(["cdset", "3"])
    bck.cli.main(["cdset", "4"])
print(progs.count("bck"))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert done.stdout == "0\n1\n"


def test_a_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    # a usage error, then a flag that sets exprs, then the command that
    # defaults it: nothing of one call may leak into the next
    monkeypatch.setenv("COLUMNS", "80")

    def results():
        out = []
        for argv in (["synth"], ["family", "7", "--exprs"], ["cdset", "6"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    reused = results()
    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)
    monkeypatch.setattr(cli, "_build_parser", build)  # a new parser for each call
    assert reused == results()
    (usage, _, err), (listed, exprs, _), (cdset, degrees, _) = reused
    assert (usage, listed, cdset) == (2, 0, 0)
    assert err.endswith("error: the following arguments are required: P/Q\n")
    assert all("+" in line for line in exprs.splitlines())
    assert degrees.startswith("16/36 = 4/9\n") and "+" not in degrees


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


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of a command, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _order_file(tmp_path, text):
    path = tmp_path / "order.bck"
    path.write_text(f"bck 1\n{text}\n0\n")
    return str(path)


def _with_budget(monkeypatch, text):
    monkeypatch.setenv("BCK_ENUM_BUDGET", text)
    return ["enum", "3", "--count-only"]


ORDER_COMMANDS = [
    ["build", "mn"], ["build", "bn"], ["family"], ["cdset"], ["enum"], ["census"]
]

# each integer text the program reads: the argv that passes it a text, the
# exit code and the message that ends stderr when the text is refused
INTEGER_TEXTS = {
    **{
        " ".join(command): (
            lambda t, *_, command=command: [*command, t],
            2,
            "argument n: invalid int value: {!r}",
        )
        for command in ORDER_COMMANDS
    },
    ".bck order line": (
        lambda t, tmp_path, _: ["verify", _order_file(tmp_path, t)],
        1,
        "line 2: order is not a decimal integer: {!r}",
    ),
    "P/Q": (
        lambda t, *_: ["synth", f"1/{t}"],
        1,
        "expected integers in P/Q, got '1/{}'",
    ),
    "BCK_ENUM_BUDGET": (
        lambda t, _, monkeypatch: _with_budget(monkeypatch, t),
        1,
        "BCK_ENUM_BUDGET must be a positive integer, got {!r}",
    ),
}


@pytest.mark.parametrize("text", ["+5", " 5", "5 ", "1_0", "\u0665", "-3"])
@pytest.mark.parametrize("entry", INTEGER_TEXTS)
def test_every_integer_text_is_read_by_one_rule(
    capsys, monkeypatch, tmp_path, entry, text
):
    # int() reads these as 5, 10 or -3; each entry refuses them with its message
    argv, want_code, message = INTEGER_TEXTS[entry]
    code, out, err = _outcome(capsys, argv(text, tmp_path, monkeypatch))
    assert (code, out) == (want_code, "")
    assert err.endswith(f"error: {message.format(text)}\n")


@pytest.mark.parametrize("argv", ORDER_COMMANDS)
def test_order_arguments_ignore_leading_zeros(capsys, argv):
    code, out, err = _outcome(capsys, [*argv, "05"])
    assert (code, out, err) == (0, *_outcome(capsys, [*argv, "5"])[1:])
    assert out


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


def test_family_prints_the_cdset_lines_led_by_the_family_expressions(capsys):
    for n in range(3, 31):
        code, cdset, _ = run(capsys, "cdset", str(n))
        assert code == 0
        assert run(capsys, "family", str(n)) == (0, cdset, "")
        code, out, _ = run(capsys, "family", str(n), "--exprs")
        assert code == 0
        assert out.splitlines() == [
            f"{e.expression}  {e.report.pair_count}/{n * n} = {e.report.degree}"
            for e in family(n).entries
        ]


def test_family_below_order_three_is_a_domain_error(capsys):
    code, out, err = run(capsys, "family", "2")
    assert (code, out) == (1, "")
    assert err == "error: commuting-degree sets start at order 3\n"


class _Null(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("exprs", [[], ["--exprs"]])
def test_family_streams_its_lines(monkeypatch, exprs):
    # the level of order 200 holds 19,701 expressions (38 MiB); each line is
    # printed as it is made
    monkeypatch.setattr(sys, "stdout", _Null())
    tracemalloc.start()
    try:
        assert main(["family", "200", *exprs]) == 0
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_a_closed_pipe_stops_the_listing_without_a_message():
    # the reader takes one line and closes the pipe, as ``| head -1`` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "bck.cli", "cdset", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    assert proc.stdout.readline() == b"8998/9000000 = 4499/4500000\n"
    proc.stdout.close()
    assert (proc.stderr.read(), proc.wait()) == (b"", 1)
    proc.stderr.close()


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


def refuse_tables(monkeypatch):
    def refuse(table):
        raise AssertionError(f"an order-{table.order} table was built")

    monkeypatch.setattr(core, "find_violation", refuse)


def test_family_builds_no_table(capsys, monkeypatch):
    refuse_tables(monkeypatch)
    code, out, _ = run(capsys, "family", "100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4851
    assert (lines[0], lines[-1]) == ("298/10000 = 149/5000", "9998/10000 = 4999/5000")


def test_synth_builds_no_table_without_output(capsys, monkeypatch):
    refuse_tables(monkeypatch)
    code, out, _ = run(capsys, "synth", "99999/100000")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "order: 200000"
    assert lines[-1].endswith(" = 99999/100000")


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


def test_synth_takes_a_negative_fraction_as_its_argument(capsys):
    # the synth parser widens argparse's private _negative_number_matcher;
    # were it renamed, the assignment would do nothing and -3/12 would be
    # read as an option again, so its presence is checked here
    assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)
    code, _, err = run(capsys, "synth", "-3/12")
    assert code == 1 and err.startswith("error:") and "'-3/12'" in err
    assert run(capsys, "synth", "--", "-3/12") == (code, "", err)


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
    # a malformed part is named before a part past the digit limit
    code, _, err = run(capsys, "synth", "1" * 5000 + "/x")
    assert code == 1
    assert err == (
        "error: expected integers in P/Q, got '11111111111111111111'... "
        "(5002 characters)\n"
    )
    code, _, err = run(capsys, "synth", "1" * 5000 + "/" + "2" * 5000)
    assert err == "error: P/Q too large: '11111111111111111111'... (10001 characters)\n"
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
    assert "BCK_ENUM_BUDGET=5" in err
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
