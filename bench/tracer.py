"""Spans around the library's layer entry points, recorded from outside it.

Every wrapped name is declared once, in ``LAYERS``.  Installing the tracer
rebinds each name at the module attribute where callers look it up (for a
method, on its class), so ``BckAlgebra.__post_init__`` reaches the wrapped
``core.find_violation`` and ``classify._extensions`` reaches the wrapped
``classify._partial_ok``.  A name that no longer exists is reported back as
absent instead of raising.

Spans (layer, start, end, parent) are kept in flat arrays while the workload
runs and turned into per-layer figures, or written out, afterwards.  Only the
process that installed the tracer records: worker processes of a pool keep
their own copies, which are discarded.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


def _n3(args: tuple, result: Any) -> dict[str, float]:
    n = args[0].order
    return {"work_n3": n * n * n, "rejected": result is not None}


def _tables(args: tuple, result: Any) -> dict[str, float]:
    return {"tables": len(result)}


def _rejected(args: tuple, result: Any) -> dict[str, float]:
    return {"rejected": not result}


def _passed(args: tuple, result: Any) -> dict[str, float]:
    return {"passed": bool(result)}


def _text_in(args: tuple, result: Any) -> dict[str, float]:
    return {"bytes": len(args[0])}  # .bck text is ASCII: characters are bytes


def _text_out(args: tuple, result: Any) -> dict[str, float]:
    return {"bytes": len(result)}


CALLS_SELF = ("calls", "self_s")


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``sites`` are (module, dotted attribute) pairs naming every place the
    entry point is looked up at call time; ``observe`` turns one call's
    arguments and result into counter increments; ``metrics`` are the
    figures the benchmark reports for the layer, named ``<name>.<metric>``.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    metrics: tuple[str, ...] = CALLS_SELF
    observe: Callable[[tuple, Any], dict[str, float]] | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("cli.main", (("bck.cli", "main"),), ("self_s",)),
    Layer(
        "core.find_violation",
        (("bck.core", "find_violation"), ("bck.cli", "find_violation")),
        CALLS_SELF + ("work_n3", "reject_ratio"),
        _n3,
    ),
    Layer("core.CayleyTable", (("bck.core", "CayleyTable.__post_init__"),)),
    Layer("core.commuting_report", (("bck.core", "BckAlgebra.commuting_report"),)),
    Layer("construct.union", (("bck.construct", "union"),)),
    Layer("construct.extend_top", (("bck.construct", "extend_top"),)),
    Layer("classify.level", (("bck.classify", "_level"),), ("self_s",)),
    Layer("classify.extensions", (("bck.classify", "_extensions"),),
          CALLS_SELF + ("tables",), _tables),
    Layer("classify.partial_ok", (("bck.classify", "_partial_ok"),),
          ("calls", "reject_ratio"), _rejected),
    Layer("classify.flat_valid", (("bck.classify", "_flat_valid"),),
          ("calls", "pass_ratio"), _passed),
    Layer("classify.canonical", (("bck.classify", "_canonical_flat"),)),
    Layer("classify.find_isomorphism", (("bck.classify", "find_isomorphism"),)),
    Layer(
        "bckfile.parse_bck",
        (("bck.bckfile", "parse_bck"), ("bck.cli", "parse_bck")),
        CALLS_SELF + ("bytes",),
        _text_in,
    ),
    Layer(
        "bckfile.emit_bck",
        (("bck.bckfile", "emit_bck"), ("bck.cli", "emit_bck")),
        CALLS_SELF + ("bytes",),
        _text_out,
    ),
)


def _owner(module: str, dotted: str) -> tuple[Any, str]:
    """The object holding the last attribute of ``dotted``, and that name."""
    obj: Any = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        obj = getattr(obj, part)
    if not hasattr(obj, attr):
        raise AttributeError(f"{module}.{dotted}")
    return obj, attr


class Tracer:
    """Records one span per call of every wrapped layer, in memory."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: list[dict[str, float]] = [{} for _ in LAYERS]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, index: int, fn: Callable, observe: Callable | None) -> Callable:
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        counters = self.counters[index]

        def traced(*args, **kwargs):
            span = len(start)
            layer.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        for index, spec in enumerate(LAYERS):
            found = False
            for module, dotted in spec.sites:
                try:
                    owner, attr = _owner(module, dotted)
                except (ImportError, AttributeError):
                    continue
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original, spec.observe))
                found = True
            if not found:
                self.absent.append(spec.name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds (span minus child spans), counters."""
        child = [0.0] * len(self.start)
        for span, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[span] - self.start[span]
        out = {
            spec.name: {"calls": 0, "self_s": 0.0, **self.counters[i]}
            for i, spec in enumerate(LAYERS)
        }
        for span, index in enumerate(self.layer):
            row = out[LAYERS[index].name]
            row["calls"] += 1
            row["self_s"] += self.end[span] - self.start[span] - child[span]
        return out

    def write_spans(self, path: str, origin: float) -> None:
        """One tab-separated line per span: id, layer, start, end, parent id.

        Times are seconds since ``origin``; a parent id of -1 is a root span.
        """
        with open(path, "w") as out:
            out.write("id\tlayer\tstart_s\tend_s\tparent\n")
            for span, index in enumerate(self.layer):
                out.write(
                    f"{span}\t{LAYERS[index].name}\t"
                    f"{self.start[span] - origin:.9f}\t"
                    f"{self.end[span] - origin:.9f}\t{self.parent[span]}\n"
                )
