"""Span tracer for the traced benchmark run.

The tracer wraps entry points of the simulator's layers from outside the
program: it replaces a function or method with a wrapper that records one
span (name, start, end, parent) per call and counts the calls.  Nothing
under ``src/`` changes; the wrappers are installed in the benchmark's own
process before the workload builds its objects and removed afterwards.

Rules the wrappers follow:

* A function is wrapped under every name its callers look up: a class
  attribute is patched on the class, and a module-level function is
  rebound in every ``repro`` module that imported it by name.
* A call made while the innermost open span already belongs to the same
  layer opens no new span (it is still counted).  Spans therefore mark
  layer crossings, so a handler that calls ten helpers of its own layer
  costs one span, not eleven.
* A layer's self time is the duration of its spans minus the time their
  child spans cover.  Spans of one thread nest, so the covered time is the
  sum of the children's durations (see :func:`self_times`).

Spans are kept in memory as flat arrays and written out by
:meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ItemsFn = Callable[[tuple, dict], int]


def self_times(
    parents: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children of one span never overlap (a single thread runs them one
    after another), so the part of the parent they cover is the sum of
    their durations.
    """
    durations = ends - starts
    covered = np.zeros(len(durations))
    nested = parents >= 0
    if nested.any():
        covered += np.bincount(
            parents[nested], weights=durations[nested], minlength=len(durations)
        )
    return durations - covered


def span_roots(parents: np.ndarray) -> np.ndarray:
    """The root span of every span: the identifier its whole tree shares."""
    roots = np.where(parents < 0, np.arange(len(parents)), parents)
    while True:
        hop = roots[roots]
        if np.array_equal(hop, roots):
            return roots
        roots = hop


class Tracer:
    """Records spans and call counts through installed wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._layer_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        self._layer_stack: List[int] = [-1]
        #: counter name -> one-element list bumped by the wrappers
        self._counters: Dict[str, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(self._layer_id(layer))
        return self._name_ids[name]

    def counter(self, name: str) -> List[int]:
        """The mutable cell behind counter ``name`` (created at 0)."""
        return self._counters.setdefault(name, [0])

    def counts(self) -> Dict[str, int]:
        """Every counter's current value."""
        return {name: cell[0] for name, cell in sorted(self._counters.items())}

    def traced(
        self,
        fn: Callable,
        layer: str,
        span: str,
        *,
        calls: Optional[str] = None,
        items: Optional[Tuple[str, ItemsFn]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped to record spans named ``layer/span``.

        ``calls`` names a counter bumped once per call; ``items`` is a
        ``(counter, fn(args, kwargs) -> int)`` pair for counts that are
        not one per call (items in a batch, addressed receptions).
        """
        name_id = self._name_id(f"{layer}/{span}", layer)
        layer_id = self.name_layer[name_id]
        call_cell = self.counter(calls) if calls else [0]
        item_cell, item_fn = (
            (self.counter(items[0]), items[1]) if items else ([0], None)
        )
        stack = self._stack
        layer_stack = self._layer_stack
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            call_cell[0] += 1
            if item_fn is not None:
                item_cell[0] += item_fn(args, kwargs)
            if layer_stack[-1] == layer_id:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            layer_stack.append(layer_id)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                layer_stack.pop()

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap_method(
        self, cls: type, attr: str, layer: str, **counting
    ) -> None:
        """Replace ``cls.attr`` (a plain function) by a traced wrapper."""
        original = cls.__dict__[attr]
        wrapped = self.traced(
            original, layer, f"{cls.__name__}.{attr}", **counting
        )
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def wrap_class(
        self,
        cls: type,
        layer: str,
        *,
        counted: Optional[Dict[str, dict]] = None,
    ) -> None:
        """Wrap every non-dunder function ``cls`` defines itself.

        ``counted`` maps a method name to the counting keywords of
        :meth:`traced` for that method.
        """
        counted = counted or {}
        for attr, value in list(cls.__dict__.items()):
            if not isinstance(value, FunctionType):
                continue
            if attr.startswith("__") and attr not in counted:
                continue
            self.wrap_method(cls, attr, layer, **counted.get(attr, {}))

    def wrap_function(
        self, module, attr: str, layer: str, **counting
    ) -> None:
        """Wrap a module-level function under every name it is bound to.

        Modules that did ``from module import attr`` hold their own
        reference, which is what their code looks up; each such binding
        in a loaded ``repro`` module is replaced too.
        """
        original = getattr(module, attr)
        wrapped = self.traced(original, layer, attr, **counting)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (copies)."""
        return {
            "name": np.array(self.span_name),
            "parent": np.array(self.span_parent),
            "start": np.array(self.span_start),
            "end": np.array(self.span_end),
        }

    def summary(self, since: float = float("-inf")) -> Dict[str, Dict]:
        """Per-layer self seconds and per-name inclusive seconds.

        Self and inclusive times count only span trees whose root began
        at or after ``since`` (the start of the timed section);
        ``name_total_all_s`` and ``name_spans`` count every span.
        """
        spans = self.arrays()
        names = spans["name"]
        own = self_times(spans["parent"], spans["start"], spans["end"])
        durations = spans["end"] - spans["start"]
        inside = spans["start"][span_roots(spans["parent"])] >= since
        layer_of_span = np.asarray(self.name_layer, dtype=np.int64)[names]
        layer_self = np.bincount(
            layer_of_span[inside],
            weights=own[inside],
            minlength=len(self.layers),
        )

        def per_name(weights: np.ndarray, keep: np.ndarray) -> Dict:
            totals = np.bincount(
                names[keep], weights=weights[keep], minlength=len(self.names)
            )
            return {
                name: float(totals[index])
                for index, name in enumerate(self.names)
            }

        everything = np.ones(len(names), dtype=bool)
        return {
            "layer_self_s": {
                layer: float(layer_self[index])
                for index, layer in enumerate(self.layers)
            },
            "name_total_s": per_name(durations, inside),
            "name_total_all_s": per_name(durations, everything),
            "name_spans": {
                name: int(count)
                for name, count in per_name(
                    np.ones(len(names)), everything
                ).items()
            },
        }

    def write(self, path: str) -> None:
        """Write every span (and its root identifier) to ``path`` (.npz)."""
        spans = self.arrays()
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name_layer=np.asarray(
                [self.layers[index] for index in self.name_layer], dtype=str
            ),
            root=span_roots(spans["parent"]),
            **spans,
        )
