"""Layer spans recorded from outside the program.

:func:`install` wraps each layer's public entry points (see
:mod:`layers`) so that every call records a span: layer id, start, end and
parent span.  Spans live in flat arrays in memory and are written out once,
when the traced pass ends.  A layer's self time is its span durations minus
the time covered by its direct child spans.

A wrapper must replace every reference the program holds: the class
attribute for methods, and for functions the module attribute *and* every
``from x import y`` binding in other ``repro`` modules, which were bound at
import time.  A call into a layer from inside the same layer (recursion,
``normalize_sql`` calling ``normalize_statement``) records no new span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Optional


class SpanRecorder:
    """Flat in-memory span store."""

    def __init__(self, layers: list[str]):
        self.layers = list(layers)
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra_counts: dict[str, float] = {}
        self.stack: list[int] = [-1]
        self.stack_layer: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.layer)

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, self seconds, and child-of-plan explain count."""
        n = len(self.layer)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        layer = self.layer
        for i in range(n):
            calls[layer[i]] += 1
            self_s[layer[i]] += dur[i] - covered[i]
        out = {
            name: {"calls": calls[k], "self_s": self_s[k]}
            for k, name in enumerate(self.layers)
        }
        # What-if requests that reached the optimizer: explain spans whose
        # parent is a CostEvaluator.plan span.
        if "optimizer.whatif.plan" in self.layers and "optimizer.explain" in self.layers:
            plan_id = self.layers.index("optimizer.whatif.plan")
            explain_id = self.layers.index("optimizer.explain")
            out["optimizer.whatif.plan"]["misses"] = sum(
                1 for i in range(n)
                if layer[i] == explain_id and parent[i] >= 0
                and layer[parent[i]] == plan_id
            )
        for name, value in self.extra_counts.items():
            out[name]["count"] = value
        return out

    def write(self, path_prefix: str) -> None:
        """Spans as four binary arrays plus a JSON header naming the layers."""
        with open(path_prefix + ".json", "w") as fh:
            json.dump({
                "layers": self.layers,
                "spans": len(self),
                "arrays": ["layer:i", "start:d", "end:d", "parent:i"],
            }, fh)
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.layer, self.start, self.end, self.parent):
                arr.tofile(fh)


def _make_wrapper(
    fn: Callable,
    recorder: SpanRecorder,
    layer_id: int,
    name_of: Optional[Callable] = None,
    count_of: Optional[Callable] = None,
    count_key: str = "",
):
    """Wrap *fn* so each outermost call into its layer records a span.

    *name_of(args)* may pick the layer per call (returning a layer id, or
    None to leave the call untraced); *count_of(args)* adds a work count to
    ``extra_counts[count_key]``.
    """
    perf = time.perf_counter
    stack = recorder.stack
    stack_layer = recorder.stack_layer
    layer_arr, start_arr, end_arr, parent_arr = (
        recorder.layer, recorder.start, recorder.end, recorder.parent
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        lid = layer_id if name_of is None else name_of(args)
        if lid is None or stack_layer[-1] == lid:
            return fn(*args, **kwargs)
        if count_of is not None:
            recorder.extra_counts[count_key] = (
                recorder.extra_counts.get(count_key, 0) + count_of(args)
            )
        idx = len(layer_arr)
        layer_arr.append(lid)
        parent_arr.append(stack[-1])
        end_arr.append(0.0)
        stack.append(idx)
        stack_layer.append(lid)
        start_arr.append(perf())
        try:
            return fn(*args, **kwargs)
        finally:
            end_arr[idx] = perf()
            stack.pop()
            stack_layer.pop()

    return wrapper


def _resolve(target: str):
    """``module:attr`` or ``module:Class.attr`` -> (owner, attr, object)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def install(recorder: SpanRecorder, specs) -> tuple[Callable[[], None], list[str]]:
    """Install wrappers for every layer spec.

    Returns an uninstall function and the targets that no longer resolve
    (renamed or removed entry points); the caller counts each of those as
    a failed check, since the layer's time would be silently short.
    """
    restores: list[tuple[object, str, object]] = []
    unresolved: list[str] = []
    layer_ids = {name: k for k, name in enumerate(recorder.layers)}
    for spec in specs:
        for target in spec.targets:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                unresolved.append(target)
                continue
            name_of = None
            if spec.split is not None:
                split = spec.split
                ids = {key: layer_ids[f"{spec.name}.{key}"] for key in spec.split_keys}
                name_of = lambda args, split=split, ids=ids: ids.get(split(args))
            wrapper = _make_wrapper(
                original, recorder,
                layer_ids.get(spec.name),
                name_of=name_of,
                count_of=spec.count,
                count_key=spec.name,
            )
            if isinstance(owner, type):
                restores.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        restores.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(restores):
            setattr(owner, attr, original)

    return uninstall, unresolved
