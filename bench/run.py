"""The repository benchmark: one workload, measured in fresh child processes.

    python3 bench/run.py --workload enum6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/bck`` and ``tests/oracle.py``.
Every pass of the workload runs in a new interpreter (``child.py``), so the
library's module caches start cold, as they do for a user of the ``bck``
command.  Passes run one after another until ``--seconds`` is used up; each
pass's outputs are checked against answers computed from the seed.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result line
carries the per-layer metrics of the traced passes and the tracing overhead.
The last line of stdout is the JSON result; the lines before it repeat each
metric for a reader.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15  # set-up-only children per run, besides one per pass
MIN_PASSES = 3  # per kind of pass (untraced, traced)
RUN_LIMIT_S = 160  # every child is stopped by then, to end within 180 s

# ratio metrics: the counter each one divides by the layer's calls
RATIOS = {"reject_ratio": "rejected", "pass_ratio": "passed"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _unit(metric: str) -> str:
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


def _spawn(job: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Run one child; returns its set-up seconds and its result.

    The child gets its own process group, so that a child killed at the
    ``deadline`` (a ``perf_counter`` value) takes its pool workers with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(
            json.dumps(job).encode(), timeout=max(1.0, deadline - time.perf_counter())
        )
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("a pass did not finish in time") from None
        raise
    if ready != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return setup, (json.loads(out) if job is not None else None)


def measure(job: dict, seconds: float, trace: bool, spans: Path) -> tuple[list, list, list]:
    """Set-up samples, untraced passes and traced passes of one job; the
    first traced pass writes its spans to ``spans``."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = [_spawn(None, deadline)[0] for _ in range(0 if trace else SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    cycles: list[float] = []
    begin = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        for kind, passes in ((False, plain), (True, traced))[: 1 + trace]:
            path = str(spans) if kind and not traced else None
            setup, result = _spawn({**job, "trace": kind, "spans_path": path}, deadline)
            setups.append(setup)
            passes.append(result)
        cycles.append(time.perf_counter() - cycle)
        elapsed = time.perf_counter() - begin
        if len(plain) >= MIN_PASSES and elapsed + statistics.median(cycles) > seconds:
            return setups, plain, traced


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pass_time(passes: list) -> float:
    """The time of one pass: the sum over its operations of each one's
    median over the passes.  Every pass runs the same operations, and a
    burst of load from outside slows one operation of one pass instead of
    a whole pass's total."""
    per_op = zip(*[[secs for _, secs in p["ops"]] for p in passes])
    return sum(statistics.median(times) for times in per_op)


def end_to_end(setups: list, plain: list) -> dict[str, float]:
    ops = [secs for p in plain for _, secs in p["ops"]]
    return {
        "wall_s": _pass_time(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["rss_kib"] / 1024 for p in plain),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": _quantile(ops, 90),
    }


def per_layer(plain: list, traced: list) -> tuple[dict[str, float], list[str]]:
    """Counts of the first traced pass (the others must repeat them) and
    median self times; returns the metrics and a list of problems."""
    problems = []
    first = traced[0]["layers"]
    counts = [{name: {k: v for k, v in row.items() if k != "self_s"}
               for name, row in t["layers"].items()} for t in traced]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes disagree on call counts")
    metrics = {}
    for layer in LAYERS:
        row = first[layer.name]
        for what in layer.metrics:
            if what == "self_s":
                value = statistics.median(t["layers"][layer.name]["self_s"] for t in traced)
            elif what in RATIOS:
                value = row.get(RATIOS[what], 0) / row["calls"] if row["calls"] else 0.0
            else:
                value = row.get(what, 0)
            metrics[f"{layer.name}.{what}"] = value
    metrics["trace.overhead_ratio"] = _pass_time(traced) / _pass_time(plain)
    return metrics, problems


def run(workload, seed: int, seconds: float, trace: bool, name: str) -> dict:
    """Measure one workload and check its outputs; returns the result line."""
    job, expected = workload.prepare(seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    job["workdir"] = str(workdir)
    try:
        setups, plain, traced = measure(job, seconds, trace, OUT / f"spans-{name}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    cache: dict = {}
    for p in plain + traced:
        try:
            failures = workload.check(job, expected, p, cache)
        except Exception as exc:  # a malformed output fails every op of the pass
            failures = [f"{type(exc).__name__}: {exc}"] * len(p["ops"])
        attempted += len(p["ops"])
        bad = [(op[0], why) for op, why in zip(p["ops"], failures) if why]
        failed += len(bad)
        for op, why in bad[:3]:
            print(f"FAILED {op}: {why}", file=sys.stderr)

    problems = []
    if trace:
        metrics, problems = per_layer(plain, traced)
        absent = traced[0]["absent"]
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")
    else:
        metrics = end_to_end(setups, plain)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    print(f"workload {name}, seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes, {len(setups)} set-ups")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {_unit(metric)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()},
    }


def load():
    """Check the checkout, byte-compile the package (so that no child pays
    for compiling it) and import the workloads."""
    for needed in (SRC / "bck" / "__init__.py", TESTS / "oracle.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    if not compileall.compile_dir(str(SRC / "bck"), quiet=1):
        raise BenchError("src/bck does not compile")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import workloads

    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        known = load().WORKLOADS
        if args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(known)}")
        result = run(known[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.workload)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
