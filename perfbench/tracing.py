"""In-memory span tracing of witness-lab's public functions, from outside the library.

``Tracer.installed()`` wraps every traced function in every loaded
``witness_lab`` module namespace that holds it, because modules call each
other through names they imported (``cli`` calls its own ``diagonalize``);
``AffinePath.at`` is wrapped on the class. Leaving the block restores the
originals, so untraced operations run the library untouched.

A span is (name, op, parent, start, end, error, size). Spans of one operation
share ``op``; ``parent`` indexes the innermost traced call that was running.
Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# layer (module) -> public functions whose calls are spans
TRACED = {
    "cli": ("main", "load_config"),
    "model": ("build_hamiltonian",),
    "spectrum": ("diagonalize", "ground_state"),
    "observables": ("cross_susceptibility_matrix", "sigma_z_profile", "ground_sz_on_path"),
    "witness": ("witness_report", "count_crossing_couplings", "witness_lambda"),
    "sweep": ("run_sweep", "certify_entanglement_on_path", "detect_anticrossings"),
    "separability": ("is_fully_separable", "is_separable"),
}
TRACED_METHODS = {"model": (("AffinePath", "at"),)}

# Per-call sizes read from arguments or results after the call returns.
_SIZES = {
    "model.build_hamiltonian": lambda args, result: 8 * result.shape[0] ** 2,
    "spectrum.diagonalize": lambda args, result: result.dim,
    "sweep.run_sweep": lambda args, result: len(result.points),
}

# name -> unit; every value is per traced operation
PER_LAYER_METRICS = {
    "cli.main.self_s": "s",
    "cli.load_config.total_s": "s",
    "model.build_hamiltonian.calls": "count",
    "model.build_hamiltonian.self_s": "s",
    "model.build_hamiltonian.bytes": "B",
    "model.AffinePath.at.calls": "count",
    "model.AffinePath.at.self_s": "s",
    "spectrum.diagonalize.calls": "count",
    "spectrum.diagonalize.self_s": "s",
    "spectrum.diagonalize.max_dim": "dim",
    "spectrum.diagonalize.per_system": "ratio",
    "spectrum.ground_state.calls": "count",
    "spectrum.ground_state.degenerate": "count",
    "observables.cross_susceptibility_matrix.calls": "count",
    "observables.cross_susceptibility_matrix.self_s": "s",
    "observables.sigma_z_profile.calls": "count",
    "observables.sigma_z_profile.self_s": "s",
    "observables.ground_sz_on_path.calls": "count",
    "witness.witness_report.self_s": "s",
    "witness.count_crossing_couplings.calls": "count",
    "witness.count_crossing_couplings.self_s": "s",
    "witness.witness_lambda.total_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.run_sweep.points": "count",
    "sweep.certify_entanglement_on_path.self_s": "s",
    "sweep.detect_anticrossings.total_s": "s",
    "separability.is_fully_separable.calls": "count",
    "separability.is_fully_separable.total_s": "s",
    "separability.is_separable.calls": "count",
}


class Span(NamedTuple):
    name: str
    op: int
    parent: int
    start: float
    end: float
    error: str | None
    size: int | None


class Tracer:
    """Collects spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, size_of = self.spans, self._stack, _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = size = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if error is None and size_of is not None:
                    size = size_of(args, result)
                spans[index] = Span(name, self.op, parent, start, end, error, size)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced functions at every lookup site; restore on exit."""
        restore = []
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"witness_lab.{layer}")
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for namespace in _library_modules():
                        for attr, value in list(vars(namespace).items()):
                            if value is original:
                                restore.append((namespace, attr, original))
                                setattr(namespace, attr, wrapper)
            for layer, methods in TRACED_METHODS.items():
                module = importlib.import_module(f"witness_lab.{layer}")
                for cls_name, meth in methods:
                    cls = getattr(module, cls_name)
                    original = vars(cls)[meth]
                    restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def _library_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "witness_lab" or name.startswith("witness_lab."))
    ]


def is_wrapped(fn) -> bool:
    return getattr(fn, "__wrapped_by_tracer__", False)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def per_op_metrics(spans: list[Span]) -> dict[str, float]:
    """Every ``PER_LAYER_METRICS`` entry, averaged over traced operations."""
    ops = sorted({span.op for span in spans})
    if not ops:
        raise ValueError("no traced operations")
    totals: dict[str, float] = defaultdict(float)
    max_dim = 0
    diagonalizations: dict[int, int] = defaultdict(int)
    points: dict[int, int] = defaultdict(int)
    for span, self_s in zip(spans, self_times(spans)):
        name = span.name
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"{name}.total_s"] += span.end - span.start
        if span.error == "DegenerateGroundError":
            totals[f"{name}.degenerate"] += 1
        if name == "spectrum.diagonalize":
            diagonalizations[span.op] += 1
        if span.size is None:
            continue
        if name == "model.build_hamiltonian":
            totals[f"{name}.bytes"] += span.size
        elif name == "spectrum.diagonalize":
            max_dim = max(max_dim, span.size)
        elif name == "sweep.run_sweep":
            totals[f"{name}.points"] += span.size
            points[span.op] += span.size
    metrics = {name: totals.get(name, 0.0) / len(ops) for name in PER_LAYER_METRICS}
    metrics["spectrum.diagonalize.max_dim"] = float(max_dim)
    # A sweep op holds one system per grid point, any other op exactly one.
    metrics["spectrum.diagonalize.per_system"] = sum(
        diagonalizations[op] / max(1, points[op]) for op in ops
    ) / len(ops)
    return metrics
