"""Span recording for the traced run: wrappers placed around layer entry points.

The benchmark measures each layer of the program from outside.  A
:class:`SpanRecorder` replaces a layer's public entry points with wrappers
that record one span per call -- layer name, start, end, parent span --
on a per-thread stack, so nesting follows the call chain.  Spans stay in
memory while the run goes on and are written out once it ends.

A layer's *self time* is the duration of its spans minus the time their
direct child spans cover; the root span's self time is the wall time no
wrapped layer claimed (``unattributed_frac``).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = "root"


class SpanRecorder:
    """In-memory span store with per-thread call stacks."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread ident, thread name, span list) per thread that recorded.
        self._buffers: List[Tuple[int, str, list]] = []
        #: Counts measured at layer boundaries (verbs, bytes).
        self.counters: Counter = Counter()
        self.main_thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _buffer(self):
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack = []
            local.spans = []
            thread = threading.current_thread()
            with self._lock:
                self._buffers.append((thread.ident, thread.name, local.spans))
            return local.stack, local.spans

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``count(args, result)`` (optional) runs after the call to record
        boundary counts such as verbs or bytes.
        """
        name_id = self.name_id(layer)
        ids = self._ids
        buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = buffer()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent))
            if count is not None:
                count(args, result)
            return result

        return traced

    def root(self) -> "_RootSpan":
        """Context manager recording the run's root span on this thread."""
        return _RootSpan(self)

    # -- results -----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """Every span as columns: id, name, start, end, parent, thread."""
        rows = []
        threads = []
        for index, (_ident, _name, spans) in enumerate(self._buffers):
            rows.extend(spans)
            threads.extend([index] * len(spans))
        if not rows:
            empty = np.zeros(0)
            return {
                "id": empty.astype(np.int64),
                "name": empty.astype(np.int32),
                "start": empty,
                "end": empty,
                "parent": empty.astype(np.int64),
                "thread": empty.astype(np.int32),
            }
        table = np.array(rows, dtype=np.float64)
        return {
            "id": table[:, 0].astype(np.int64),
            "name": table[:, 1].astype(np.int32),
            "start": table[:, 2],
            "end": table[:, 3],
            "parent": table[:, 4].astype(np.int64),
            "thread": np.asarray(threads, dtype=np.int32),
        }

    def thread_names(self) -> List[str]:
        return [name for _ident, name, _spans in self._buffers]

    def main_thread_index(self) -> int:
        for index, (ident, _name, _spans) in enumerate(self._buffers):
            if ident == self.main_thread:
                return index
        return -1

    def write(self, path: Path) -> None:
        """Write every span, with the run id and layer names, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            threads=np.array(self.thread_names()),
            **self.arrays(),
        )


class _RootSpan:
    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._name_id = recorder.name_id(ROOT)

    def __enter__(self) -> "_RootSpan":
        stack, _spans = self._recorder._buffer()
        if stack:
            raise RuntimeError("the root span must open on an empty stack")
        self.span_id = next(self._recorder._ids)
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        stack, spans = self._recorder._buffer()
        stack.pop()
        spans.append((self.span_id, self._name_id, self.start, self.end, -1))


def layer_times(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, inclusive and self seconds, split by thread.

    ``self_main_s`` covers spans on the thread that opened the root span;
    on that thread the self times of all layers plus the root's add up
    to the root's wall time.
    """
    cols = recorder.arrays()
    n = len(cols["id"])
    out: Dict[str, Dict[str, float]] = {}
    if n == 0:
        return out
    duration = cols["end"] - cols["start"]
    # Map span ids (dense, from one counter) to row positions.
    position = np.full(int(cols["id"].max()) + 1, -1, dtype=np.int64)
    position[cols["id"]] = np.arange(n)
    parent_row = np.where(
        cols["parent"] >= 0, position[np.maximum(cols["parent"], 0)], -1
    )
    # A parent still open when the run ended (a thread blocked inside a
    # wrapped call) has no row; its children then count for no one.
    has_parent = parent_row >= 0
    child_time = np.zeros(n)
    np.add.at(child_time, parent_row[has_parent], duration[has_parent])
    self_time = duration - child_time
    main = cols["thread"] == recorder.main_thread_index()
    for name_id, name in enumerate(recorder.names):
        mask = cols["name"] == name_id
        if not mask.any():
            continue
        out[name] = {
            "calls": float(mask.sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "self_main_s": float(self_time[mask & main].sum()),
        }
    return out


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, type):
            had = attr in vars(owner)
            original = vars(owner).get(attr)
        else:
            had, original = True, getattr(owner, attr)
        self._saved.append((owner, attr, original, had))
        setattr(owner, attr, value)

    def wrap_method(
        self, recorder: SpanRecorder, cls: type, attr: str, layer: str, count=None
    ) -> None:
        """Wrap ``cls.attr`` (as resolved through the MRO) in a span."""
        original = getattr(cls, attr)
        self.set(cls, attr, recorder.wrap(layer, original, count))

    def wrap_function(
        self, recorder: SpanRecorder, original: Callable, layer: str, count=None
    ) -> None:
        """Wrap a module-level function wherever a loaded module binds it.

        Modules that did ``from x import f`` hold their own reference, so
        every ``repro`` module whose attribute is ``original`` is patched.
        """
        traced = recorder.wrap(layer, original, count)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, had = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
