"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces a function at the attribute its callers look
it up by (a class attribute, or a module attribute in every module that
imported the function by name) with a wrapper that records one span per
call: span name, start and end (``perf_counter_ns``), parent span and a
root id. Spans are kept in flat arrays while the run lasts and written
out at its end; :func:`self_times` derives each span's self time (its
duration minus the time its child spans cover).

Only synchronous calls are wrapped, so spans nest strictly: a child
starts after and ends before its parent, and children of one parent do
not overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


class Tracer:
    """Records spans and counters; installs and removes its wrappers."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self._stack: List[int] = []
        self._next_root = 0
        self.counters: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        for column in (self.name, self.start, self.end, self.parent,
                       self.root):
            del column[:]
        self._stack.clear()
        self.counters.clear()

    def traced(self, func: Callable, name: str, root: bool = False,
               on_result: Optional[Callable[[object], None]] = None,
               wraps: bool = True):
        """A wrapper of *func* that records one span per call.

        A *root* span starts a new root id (one per handled datagram or
        simulator event); other spans inherit their parent's. A span with
        no open parent is a root too. *on_result* sees each return value
        (to count hits, for example). *wraps* copies *func*'s name and
        docstring onto the wrapper; per-event wrappers skip it.
        """
        nid = self.name_id(name)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, roots = self.parent, self.root
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            if root or parent < 0:
                rid = tracer._next_root
                tracer._next_root = rid + 1
            else:
                rid = roots[parent]
            names.append(nid)
            parents.append(parent)
            roots.append(rid)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        if wraps:
            functools.update_wrapper(wrapper, func)
        return wrapper

    # -- installing ---------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to *new*, remembering the old value."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, name: str, root: bool = False,
                    on_result=None) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.traced(raw.__func__, name, root, on_result))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.traced(raw.__func__, name, root, on_result))
        else:
            new = self.traced(raw, name, root, on_result)
        self.replace(cls, attr, new)

    def wrap_function(self, module, attr: str, name: str, root: bool = False,
                      on_result=None) -> int:
        """Wrap ``module.attr`` and every loaded ``repro`` module's alias
        of the same function object; returns how many sites were patched."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name, root, on_result)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)
                    sites += 1
        return sites

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span and counter to *path* (``.npz``)."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)), **self.arrays()
        )


def load(path: str) -> Tuple[List[str], Dict[str, np.ndarray], Dict[str, int]]:
    """Read spans written by :meth:`Tracer.write`."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        counters = json.loads(str(data["counters"]))
        arrays = {key: data[key] for key in
                  ("name", "start", "end", "parent", "root")}
    return names, arrays, counters


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans nest strictly and siblings do not overlap, so the part of a
    span's interval its children cover is the sum of their durations.
    """
    duration = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration - covered.astype(np.int64)


def aggregate(names: List[str], arrays: Dict[str, np.ndarray]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive and self nanoseconds."""
    ids = arrays["name"]
    duration = arrays["end"] - arrays["start"]
    own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    width = len(names)
    counts = np.bincount(ids, minlength=width)
    inclusive = np.bincount(ids, weights=duration, minlength=width)
    selfs = np.bincount(ids, weights=own, minlength=width)
    return {
        name: {"count": int(counts[i]), "incl_ns": float(inclusive[i]),
               "self_ns": float(selfs[i])}
        for i, name in enumerate(names)
    }


def merge_aggregates(parts: Iterable[Dict[str, Dict[str, float]]]
                     ) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, stats in part.items():
            into = merged.setdefault(
                name, {"count": 0, "incl_ns": 0.0, "self_ns": 0.0}
            )
            for key, value in stats.items():
                into[key] += value
    return merged
