"""Span tracer that wraps library functions, named by dotted path, from outside.

A target such as ``mcckf.linalg.cholesky_lower`` is resolved once, wrapped,
and the wrapper is bound in place of every module-level name in the package
that refers to the original function. That covers both ``linalg.x(...)``
attribute calls and names imported with ``from .linalg import x``. A target
that no longer resolves is reported as missing instead of failing the run,
so the benchmark survives renames in the library.

Each wrapped call records a span: layer name, start, end, parent span and
whether it raised. Self time is a span's duration minus the durations of its
direct child spans, which never overlap because calls nest. The wrapper's own
work before a call (the operation count, the span record) is timed too and
taken out of the parent's self time, so tracing does not inflate it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass

PACKAGE = "mcckf"


def _batch(shape, core_dims: int) -> int:
    return math.prod(shape[:-core_dims]) if len(shape) > core_dims else 1


def _cholesky_flops(a, *args, **kwargs) -> float:
    n = a.shape[-1]
    return n**3 / 3.0 * _batch(a.shape, 2)


def _triangular_solve_flops(l, b, *args, **kwargs) -> float:
    n = l.shape[-1]
    rhs = b.shape[-1] if b.ndim == l.ndim else 1
    return float(n * n * rhs * _batch(l.shape, 2))


def _triangular_inverse_flops(l, *args, **kwargs) -> float:
    n = l.shape[-1]
    return n**3 / 3.0 * _batch(l.shape, 2)


def _lower_triangularize_flops(a, *args, **kwargs) -> float:
    # Householder reduction of the (cols x rows) transpose, R factor only.
    rows, cols = a.shape[-2], a.shape[-1]
    return 2.0 * rows * rows * (cols - rows / 3.0) * _batch(a.shape, 2)


# Textbook floating-point operation counts, from the argument shapes, of the
# linear-algebra kernels. Leading axes beyond the matrix count as a batch.
FLOP_MODELS = {
    "linalg.cholesky_lower": _cholesky_flops,
    "linalg.triangular_solve": _triangular_solve_flops,
    "linalg.triangular_inverse": _triangular_inverse_flops,
    "linalg.lower_triangularize": _lower_triangularize_flops,
}


@dataclass
class LayerTotals:
    """What one layer did during one traced interval."""

    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flops: float = 0.0


class Tracer:
    """Install span-recording wrappers around the functions in ``targets``.

    ``targets`` maps a layer name to the dotted path of a function. Spans
    accumulate in memory until ``collect`` folds them into per-layer totals.
    """

    def __init__(self, targets: dict[str, str]):
        self.targets = dict(targets)
        self.missing: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _resolve(self) -> dict[str, object]:
        found, self.missing = {}, []
        for layer, dotted in self.targets.items():
            module_name, _, attr = dotted.rpartition(".")
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                fn = None
            if callable(fn):
                found[layer] = fn
            else:
                self.missing.append(layer)
        return found

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, original in self._resolve().items():
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        flop_model = FLOP_MODELS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            flops = 0.0
            if flop_model is not None:
                try:
                    flops = flop_model(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    flops = math.nan
            # [layer, entered, start, end, parent, raised, flops]
            span = [layer, entered, 0.0, 0.0, stack[-1] if stack else None, False, flops]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def collect(self) -> dict[str, LayerTotals]:
        """Fold the recorded spans into per-layer totals and clear them."""
        # A parent's self time excludes its children and the wrapper work
        # before each child started.
        child_s = [0.0] * len(self.spans)
        for _, entered, _, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - entered
        totals = {layer: LayerTotals() for layer in self.targets}
        for (layer, _, start, end, _, failed, flops), covered in zip(self.spans, child_s):
            t = totals[layer]
            t.calls += 1
            t.failed += failed
            t.total_s += end - start
            t.self_s += end - start - covered
            t.flops += flops
        self.spans.clear()
        return totals
