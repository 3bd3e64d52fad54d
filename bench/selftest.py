"""Fast self-test of the benchmark, on every workload at toy size.

    python3 bench/selftest.py

Checks that each workload runs and passes its own checks, that a
deliberately wrong expected answer is counted as a failed operation, that
two traced runs report identical counts, and that a traced name missing
from the library is reported as absent.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run

SEED = 7


class WrongAnswer:
    """A workload whose expected answers have one deliberate error."""

    def __init__(self, inner, spoil):
        self.inner = inner
        self.spoil = spoil

    def prepare(self, seed):
        job, expected = self.inner.prepare(seed)
        self.spoil(expected)
        return job, expected

    def check(self, *args):
        return self.inner.check(*args)


def _spoil_verify(expected):
    expected["answers"][0] = {"violation": ["BCK3", [1]]}


def _spoil_construct(expected):
    p, q = expected["targets"][0]
    expected["targets"][0] = (p, q + 1)


def _quiet_run(workload, trace, name):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, SEED, 0, trace, name)


def _counts(result):
    return {
        m: v["value"]
        for m, v in result["metrics"].items()
        if not m.endswith("self_s") and m != "trace.overhead_ratio"
    }


def _absent_layers() -> list[str]:
    """Install the tracer with one layer whose name no longer exists."""
    import tracer

    saved = tracer.LAYERS
    tracer.LAYERS = saved + (tracer.Layer("gone.layer", (("bck.core", "no_such_name"),)),)
    try:
        probe = tracer.Tracer()
        probe.install()
        probe.uninstall()
    finally:
        tracer.LAYERS = saved
    return probe.absent


def main() -> int:
    workloads = run.load()
    run.SETUP_SAMPLES = 2
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, workload in workloads.TOY.items():
        plain = _quiet_run(workload, False, name)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: toy run is correct")
        first = _quiet_run(workload, True, name)
        second = _quiet_run(workload, True, name)
        expect(first["correct"] and second["correct"], f"{name}: traced runs are correct")
        expect(_counts(first) == _counts(second), f"{name}: traced counts repeat")

    spoilt = {
        "verify": WrongAnswer(workloads.TOY["verify"], _spoil_verify),
        "construct": WrongAnswer(workloads.TOY["construct"], _spoil_construct),
    }
    for name, workload in spoilt.items():
        result = _quiet_run(workload, False, name)
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: a wrong expected answer raises failed_ratio")
    reference = workloads.REFERENCE["4"]
    saved = reference["census"]
    reference["census"] = "0" * 64
    try:
        result = _quiet_run(workloads.TOY["enum6"], False, "enum6")
    finally:
        reference["census"] = saved
    expect(result["failed"] > 0, "enum6: a wrong reference digest raises failed_ratio")

    expect(_absent_layers() == ["gone.layer"], "a missing layer is reported as absent")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
