"""Byte-exact replay of a fixed transcript of every CLI subcommand.

``data/cli_golden.txt`` holds the exit code, stdout and stderr of each
invocation in ``INVOCATIONS``, argparse's own help and usage errors
included: their ``SystemExit`` code is recorded as the exit code, and
``COLUMNS=80`` fixes where argparse wraps.  Refactors must leave it
unchanged; to re-record after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from bck.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

INPUTS = {
    "pi.bck": "bck 1\n3\n0 0 0\n1 0 0\n2 2 0\n",
    "tc.bck": "bck 1\n3\n0 0 0\n1 0 0\n2 1 0\n",
    "two.bck": "bck 1\n2\n0 0\n1 0\n",
    "m4.bck": "bck 1\n4\n0 0 0 0\n1 0 0 0\n2 2 0 0\n3 3 3 0\n",
    "two_pi.bck": "bck 1\n4\n0 0 0 0\n1 0 1 1\n2 2 0 0\n3 3 3 0\n",
    "pi_two.bck": "bck 1\n4\n0 0 0 0\n1 0 0 1\n2 2 0 2\n3 3 3 0\n",
    # one table per axiom, each failing that axiom first in check order
    "bad_bck3.bck": "bck 1\n2\n1 0\n1 0\n",
    "bad_bck4.bck": "bck 1\n2\n0 1\n1 0\n",
    "bad_x0.bck": "bck 1\n2\n0 0\n0 0\n",
    "bad_bck5.bck": "bck 1\n3\n0 0 0\n1 0 0\n2 0 0\n",
    "bad_bck2.bck": "bck 1\n4\n0 0 0 0\n1 0 0 0\n2 1 0 0\n3 2 2 0\n",
    "bad_bck1.bck": "bck 1\n3\n0 0 0\n1 0 2\n2 2 0\n",
    "junk.bck": "not a table\n",
}

INVOCATIONS = [
    ["verify", "pi.bck"],
    ["verify", "bad_bck3.bck"],
    ["verify", "bad_bck4.bck"],
    ["verify", "bad_x0.bck"],
    ["verify", "bad_bck5.bck"],
    ["verify", "bad_bck2.bck"],
    ["verify", "bad_bck1.bck"],
    ["verify", "junk.bck"],
    ["cd", "pi.bck"],
    ["cd", "m4.bck"],
    ["cd", "bad_bck4.bck"],
    ["props", "m4.bck"],
    ["props", "tc.bck"],
    ["build", "mn", "5"],
    ["build", "bn", "6"],
    ["build", "mn", "2"],
    ["build", "mn", "1"],
    ["build", "bn", "3"],
    ["eval", "(PI+T)+2"],
    ["eval", "(PI+X)"],
    ["eval", "2"],
    ["eval", "TC+2"],
    ["eval", "((2+T)⊔2)⊕⊤"],
    ["eval", "(PI+T"],
    ["eval", "PI+T)"],
    ["eval", "PI TC"],
    ["op", "extend", "pi.bck"],
    ["op", "union", "pi.bck", "two.bck"],
    ["family", "7", "--exprs"],
    ["family", "4", "--exprs"],
    ["cdset", "6"],
    ["synth", "2/5"],
    ["synth", "1/12"],
    ["synth", "39/40"],
    ["synth", "3/2"],
    ["synth", "-3/12"],
    ["synth", "--", "-3/12"],
    ["enum", "4"],
    ["enum", "5", "--noncommutative"],
    ["census", "5"],
    ["enum", "1"],
    ["census", "1"],
    ["iso", "two_pi.bck", "pi_two.bck"],
    ["iso", "pi.bck", "tc.bck"],
    ["subalg", "pi.bck"],
    ["hasse", "m4.bck"],
    ["--help"],
    ["synth", "--help"],
    ["no-such-command"],
    ["census", "x"],
]


def transcript(directory: Path) -> str:
    """Run every invocation inside ``directory`` and render the results."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    saved_cwd = os.getcwd()
    saved_budget = os.environ.pop("BCK_ENUM_BUDGET", None)
    saved_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    chunks = []
    try:
        os.chdir(directory)
        for argv in INVOCATIONS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse's --help and usage errors
                    code = exc.code
            chunks.append(
                f"$ bck {' '.join(argv)}\n[exit {code}]\n"
                f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    finally:
        os.chdir(saved_cwd)
        if saved_budget is not None:
            os.environ["BCK_ENUM_BUDGET"] = saved_budget
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns
    return "".join(chunks)


def test_cli_transcript_is_byte_identical(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout.write(transcript(Path(scratch)))
