"""Out-of-program tracing: timing wrappers installed on koopbound's modules.

Nothing in the package is edited.  `Tracer.install` replaces the public
functions of each traced module with wrappers that record a span (name,
start, end, parent, unit id), also where another module imported the
same function object by name (e.g. `bounds.singular_values`).  numpy's
SVD is wrapped the same way, so every SVD is attributed to the wrapped
span that encloses it.  Spans stay in memory until the run ends.

`Marks` is the light-weight counterpart used with tracing off: it only
appends a timestamp when a chosen function returns, which is how the
benchmark sees epoch and draw boundaries inside `train` and
`empirical_rademacher_lower` without timing anything else.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "koopbound"
TRACED_MODULES = (
    "trainer", "bounds", "diagnostics", "matcore", "rademacher",
    "kernels", "weightio", "network", "cli",
)
# public methods traced in addition to module-level functions
TRACED_METHODS = {"network": {"NetworkSpec": ("validate",)}}
SVD_SPAN = "numpy.linalg.svd"
# first matching ancestor decides which caller an SVD is charged to
SVD_CALLERS = (
    ("trainer.regularizer_perlayer", "regularizer"),
    ("trainer.regularizer_synthetic", "regularizer"),
    ("bounds.full_report", "report"),
    ("diagnostics.snapshot", "snapshot"),
)


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records one span per call of every wrapped function.

    A span is the list [name, start, end, parent_index, unit]; `unit` is
    whatever the workload loop last assigned to `self.unit`.  `notes`
    holds per-span annotations such as the flop count of a forward and
    backward pass or the bytes of a weight file.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, float] = defaultdict(float)
        self.unit = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if note is not None:
                    for key, value in note(args, kwargs).items():
                        notes[key] += value

        return wrapper

    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, notes: dict | None = None) -> None:
        """Wrap every traced function; `notes` maps span name -> annotator."""
        import numpy.linalg

        notes = notes or {}
        modules = _package_modules()
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                self._replace_everywhere(
                    fn, self._wrap(name, fn, notes.get(name)), modules
                )
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    name = f"{short}.{meth}"
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn, notes.get(name)))
        # numpy.linalg.norm(ord=2) reaches svd through the private module
        svd = numpy.linalg.svd
        linalg_modules = [numpy.linalg, getattr(numpy.linalg, "_linalg", numpy.linalg)]
        self._replace_everywhere(svd, self._wrap(SVD_SPAN, svd), linalg_modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms, and SVD attribution.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.  Self
        time is a span's duration minus the durations of its children.
        """
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        svd_by_caller: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = (end - start) * 1e3
            rec = out[name]
            rec["calls"] += 1
            rec["self_ms"] += dur - child_ms[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                rec["ms"] += dur
            if name == SVD_SPAN:
                caller = next(
                    (tag for span, tag in SVD_CALLERS if span in ancestors), "other"
                )
                svd_by_caller[caller] += 1
        result = dict(out)
        result["_svd_by_caller"] = dict(svd_by_caller)
        result["_root_self_ms"] = sum(
            (end - start) * 1e3 for _, start, end, parent, _ in spans if parent < 0
        )
        return result

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, unit."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps([name, start, end, parent, unit]) + "\n")


class Marks:
    """Timestamps taken when selected functions return; nothing else is timed."""

    def __init__(self):
        self.events: list[tuple[float, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    def after(self, owner, attr: str, label: str) -> None:
        fn = getattr(owner, attr)
        events = self.events
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((clock(), label))

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def take(self, label: str) -> list[float]:
        """Seconds between each `label` mark and the mark before it; clears."""
        out = [
            t - prev
            for (prev, _), (t, lab) in zip(self.events, self.events[1:])
            if lab == label
        ]
        self.events.clear()
        return out

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
