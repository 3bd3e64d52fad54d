"""One measured pass of a workload, in a fresh interpreter.

Protocol with ``run.py``: the child imports ``bck`` and writes ``ready``
(that moment ends its set-up), reads one JSON job from stdin, runs the
job's operations one after another, and writes one JSON result to stdout.
A job of ``null`` ends the child right after set-up.  Every operation goes
through a module attribute looked up at call time, so a traced pass sees
every call the tracer wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import bck.cli
from bck import bckfile, classify, core

from tracer import Tracer


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bck.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def _flats(algebras: list) -> list[list[int]]:
    return [list(a.table.flat()) for a in algebras]


def enum_ops(job: dict) -> list[tuple[str, object]]:
    n, jobs = job["order"], job["jobs"]
    return [
        ("enumerate", lambda: _flats(classify.enumerate_algebras(n, jobs=jobs))),
        ("census", lambda: _cli(["census", str(n)])),
        ("enum", lambda: _cli(["enum", str(n)])),
    ]


def enum_extra(job: dict) -> dict:
    """Smaller levels, read back after the timed region for cross-checks."""
    n = job["order"]
    return {
        "class_counts": [
            len(classify.enumerate_algebras(k)) for k in range(1, min(n, 5))
        ],
        "order5": _flats(classify.enumerate_algebras(5)) if n > 5 else [],
    }


def construct_ops(job: dict) -> list[tuple[str, object]]:
    ops = []
    for i, target in enumerate(job["targets"]):
        path = os.path.join(job["workdir"], f"synth{i}.bck")
        ops.append((f"synth {target}", lambda t=target, p=path: _cli(["synth", t, "-o", p])))
    n = str(job["family"])
    ops.append((f"family {n}", lambda: _cli(["family", n])))
    return ops


def construct_extra(job: dict) -> dict:
    tables = []
    for i in range(len(job["targets"])):
        path = os.path.join(job["workdir"], f"synth{i}.bck")
        with open(path) as f:
            tables.append(f.read())
    return {"tables": tables}


def check_file(text: str, source: str | None) -> dict:
    """Everything a user asks of an untrusted .bck file."""
    table = bckfile.parse_bck(text)
    try:
        algebra = core.validate(table)
    except core.AxiomViolation as violation:
        return {"violation": [violation.axiom, list(violation.witness)]}
    report = algebra.commuting_report()
    out = {
        "pairs": report.pair_count,
        "degree": [report.degree.numerator, report.degree.denominator],
        "commutative": algebra.is_commutative(),
        "top": algebra.top(),
        "pi": algebra.is_positive_implicative(),
    }
    if source is not None:
        reference = core.validate(bckfile.parse_bck(source))
        witness = classify.find_isomorphism(reference, algebra)
        out["iso"] = None if witness is None else list(witness)
    return out


def verify_ops(job: dict) -> list[tuple[str, object]]:
    return [
        (f"file {i}", lambda f=f: check_file(f["text"], f["source"]))
        for i, f in enumerate(job["files"])
    ]


OPS = {"enum": enum_ops, "construct": construct_ops, "verify": verify_ops}
EXTRA = {"enum": enum_extra, "construct": construct_extra}


def main() -> int:
    origin = time.perf_counter()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.read())
    if job is None:
        return 0
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    ops = OPS[job["kind"]](job)
    timings, results = [], []
    for name, op in ops:
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # reported as a failed operation, not a crash
            result = {"error": f"{type(exc).__name__}: {exc}"}
        timings.append([name, time.perf_counter() - start])
        results.append(result)
    if tracer is not None:
        tracer.uninstall()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "ops": timings,
        "results": results,
        "extra": EXTRA[job["kind"]](job) if job["kind"] in EXTRA else {},
        "rss_kib": usage,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["absent"] = tracer.absent
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"], origin)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
