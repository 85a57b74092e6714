"""In-memory span recording around the seams between library modules.

A seam is a module attribute, or an attribute of a class defined in a
module, that one module looks up when it calls into another.  The
tracer replaces it with a wrapper that records one span per call and
puts the original back on ``uninstall``.  A seam that no longer
resolves (a later rename) is listed in ``missing`` instead of failing
the run.

Spans are kept in flat arrays and written out only when the run ends.
Each span has a name, start, end, parent span, the id of the op it
belongs to, a failure flag and an optional value (a point count, say).
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from dataclasses import dataclass
from time import perf_counter

NO_PARENT = -1


@dataclass(frozen=True)
class Seam:
    """``attr`` of ``module``; a dotted ``attr`` names a class attribute.

    ``arg_value``/``result_value`` turn the call's positional arguments
    or its result into the span's value.
    """

    span: str
    module: str
    attr: str
    arg_value: object = None
    result_value: object = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.value = array("d")
        self.failed = array("b")
        self.missing: set[str] = set()
        self.current_op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    # -- recording -------------------------------------------------------

    def _open(self, name: str, value: float) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.current_op)
        self.value.append(value)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int, failed: bool):
        self.end[span] = perf_counter()
        self.failed[span] = int(failed)
        self._stack.pop()

    def wrap(self, name, fn, arg_value=None, result_value=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, arg_value(args) if arg_value else 0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, True)
                raise
            tracer._close(span, False)
            if result_value is not None:
                tracer.value[span] = result_value(result)
            return result

        return traced

    def op_span(self, name: str, op: int):
        """Context manager for the root span of one op."""
        return _OpSpan(self, name, op)

    # -- patching --------------------------------------------------------

    def install(self, seams):
        for seam in seams:
            try:
                owner = importlib.import_module(seam.module)
                *path, attr = seam.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if attr in vars(owner) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.add(seam.span)
                continue
            if isinstance(original, (staticmethod, classmethod)):
                replacement = type(original)(self.wrap(
                    seam.span, original.__func__, seam.arg_value,
                    seam.result_value))
            else:
                replacement = self.wrap(seam.span, original, seam.arg_value,
                                        seam.result_value)
            self.patch(owner, attr, replacement)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until ``uninstall``."""
        original = vars(owner)[attr] if attr in vars(owner) \
            else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write every span as gzipped JSON, columns side by side."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "value": self.value.tolist(),
            "failed": self.failed.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _OpSpan:
    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        self.tracer.current_op = self.op
        self.span = self.tracer._open(self.name, 0.0)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.span, exc_type is not None)
        self.tracer.current_op = None
        return False


def child_index(tracer: Tracer) -> dict[int, list[int]]:
    """parent span -> its direct child spans, in start order."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(tracer.parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    return children


def self_time(tracer: Tracer, span: int, children) -> float:
    """The span's duration minus the part of it that its direct children
    cover; children are clipped to the parent and merged, so overlapping
    children are not subtracted twice."""
    lo, hi = tracer.start[span], tracer.end[span]
    covered, cursor = 0.0, lo
    for c in sorted(children.get(span, ()), key=lambda c: tracer.start[c]):
        a = max(tracer.start[c], cursor)
        b = min(tracer.end[c], hi)
        if b > a:
            covered += b - a
            cursor = b
    return hi - lo - covered
