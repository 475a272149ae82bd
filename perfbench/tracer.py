"""Tracing from outside the program: wrap the public functions of the
timed ffrg modules and rebind every module attribute that refers to one.

The modules import functions by name (``bootstrap.string_distance``,
``progressive.reading_order``, ``grouping.reading_order``), so patching
only the defining module would miss most calls: every ``ffrg.*`` module
attribute that *is* a wrapped function is rebound, and restored on exit.

Every wrapped call counts and times itself and charges its duration to
its caller, so self time is a call's duration minus that of its wrapped
callees.  Calls outside ``HOT`` also leave a span record (name, start,
end, parent span, attributes) that shares the tracer's run id; hot leaves
such as Jaro (hundreds of calls per document) only aggregate.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# synth runs only in set-up, parallel is a pass-through at one thread and
# cli is not on the timed path, so their own functions are not wrapped.
TIMED_MODULES = (
    "docmodel", "grouping", "similarity", "datatypes", "bootstrap",
    "features", "model", "progressive", "evaluation",
)

# word_distance runs n^2 times per document and costs less than the wrapper
# around it, so it stays unwrapped and its time is group_words' self time.
UNWRAPPED = frozenset({"grouping.word_distance"})

HOT = frozenset({
    "similarity.jaro_similarity", "similarity.jaro_winkler",
    "similarity.string_distance", "datatypes.type_of",
    "bootstrap.key_score", "bootstrap.localize_key",
    "bootstrap.geometric_score", "bootstrap.value_score",
    "bootstrap.in_neighbor_zone", "bootstrap.extract_field",
    "docmodel.make_phrase", "evaluation.normalize_value",
    "model.tensor_keys", "model.tensor_shapes",
})


def _features_rows(args, kwargs) -> dict:
    features = args[1] if len(args) > 1 else kwargs["features"]
    return {"rows": int(features.shape[0])}


def _branch(args, kwargs) -> dict:
    return {"branch": int(args[3] if len(args) > 3 else kwargs["branch"])}


# Span attributes read from a call's arguments; "rows" also sums into the
# tracer's counters under "<function>.rows".
ATTRIBUTES = {
    "model.forward": _features_rows,
    "model.branch_loss_and_grad": _branch,
}


class Tracer:
    """Counts, inclusive and self time per function, and span records."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # (name, start, end, parent span index or -1, attributes)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [child seconds, nearest span index]

    def wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counters = self.counters
        record = name not in HOT
        attributes = ATTRIBUTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            attrs = attributes(args, kwargs) if attributes is not None else None
            if record:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if attrs and "rows" in attrs:
                    counters[f"{name}.rows"] += attrs["rows"]
                if record:
                    spans[frame[1]] = (name, start, end, parent_span, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                if span is None:  # a call still open when the file is written
                    continue
                name, start, end, parent, attrs = span
                rec = {"run_id": self.run_id, "span": i, "parent": parent,
                       "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the wrapped ffrg functions for the duration of the block."""
    wrappers = {}
    for short in TIMED_MODULES:
        module = importlib.import_module(f"ffrg.{short}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or f"{short}.{attr}" in UNWRAPPED):
                continue
            wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "ffrg" and not modname.startswith("ffrg."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        yield tracer
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)


def train_stage_seconds(spans) -> dict[int, float]:
    """Wall time of each training stage, from its first branch step to its
    last Adam update; a stage is named by the branch its steps train."""
    bounds: dict[int, list[float]] = {}
    current = None
    for span in spans:
        if span is None:
            continue
        name, start, end, _, attrs = span
        if name == "model.branch_loss_and_grad":
            current = attrs["branch"]
        if name in ("model.branch_loss_and_grad", "model.adam_step") and current:
            lo_hi = bounds.setdefault(current, [start, end])
            lo_hi[0] = min(lo_hi[0], start)
            lo_hi[1] = max(lo_hi[1], end)
    return {k: hi - lo for k, (lo, hi) in bounds.items()}
