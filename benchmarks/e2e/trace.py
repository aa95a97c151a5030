"""Span recorder for the traced run.

The benchmark may not edit ``src/``, so spans are recorded from outside:
:meth:`Tracer.wrap_method` and :meth:`Tracer.wrap_function` replace a layer's
public entry points with timing wrappers for the duration of one repeat and
put the originals back afterwards.  Every process of a run is single-threaded,
so the span that caused another one is simply the top of a per-process stack.

Spans are kept in parallel arrays (about 30 bytes each) because a traced
simulator repeat records more than a million of them; the dict form
``{name, layer, start, end, parent, req}`` only exists in the JSONL file.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ReqOf = Callable[[tuple], Optional[Tuple[str, int]]]


class SpanSet:
    """The spans of one process for one repeat (picklable: proc workers ship it)."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.names: List[Tuple[str, str]] = []  # name id -> (span name, layer)
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")  # index of the causing span, -1 at top level
        self.reqs: Dict[int, Tuple[str, int]] = {}  # span index -> (client_id, timestamp)

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> array:
        """Each span's duration minus the part its children cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = array("d", (ends[i] - starts[i] for i in range(len(starts))))
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost call count and summed self time.

        A span nested directly inside one of the same name (``verify`` falling
        back to ``verify_digest``) adds its time but is not a second call.
        """
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "layer": layer} for name, layer in self.names
        }
        name_ids, parents, names = self.name_ids, self.parents, self.names
        for index, name_id in enumerate(name_ids):
            entry = out[names[name_id][0]]
            entry["self_s"] += own[index]
            parent = parents[index]
            if parent < 0 or name_ids[parent] != name_id:
                entry["calls"] += 1
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans that nothing traced was the cause of."""
        starts, ends = self.starts, self.ends
        return sum(ends[i] - starts[i] for i, parent in enumerate(self.parents) if parent < 0)

    def rows(self) -> Iterator[Dict[str, Any]]:
        for index in range(len(self)):
            name, layer = self.names[self.name_ids[index]]
            yield {
                "process": self.process,
                "id": index,
                "name": name,
                "layer": layer,
                "start": self.starts[index],
                "end": self.ends[index],
                "parent": self.parents[index],
                "req": self.reqs.get(index),
            }


def write_jsonl(span_sets: List[SpanSet], path) -> int:
    """Write every span as one JSON line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span_set in span_sets:
            for row in span_set.rows():
                handle.write(json.dumps(row))
                handle.write("\n")
                count += 1
    return count


class Tracer:
    """Installs timing wrappers, records spans, and restores the originals."""

    def __init__(self, process: str = "main") -> None:
        self.spans = SpanSet(process)
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrapper(self, original: Callable, name: str, layer: str, req_of: Optional[ReqOf]):
        spans = self.spans
        spans.names.append((name, layer))
        name_id = len(spans.names) - 1
        name_ids, starts, ends, parents, reqs = (
            spans.name_ids, spans.starts, spans.ends, spans.parents, spans.reqs
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            if req_of is not None:
                req = req_of(args)
                if req is not None:
                    reqs[index] = req
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def wrap_method(
        self, owner: type, attr: str, name: str, layer: str, req_of: Optional[ReqOf] = None
    ) -> None:
        """Trace ``owner.attr`` where ``owner`` itself defines it."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, layer, req_of))

    def wrap_function(self, function: Callable, name: str, layer: str, package: str) -> None:
        """Trace a module-level function under every name bound to it.

        ``from repro.wire.codec import decode as wire_decode`` copies the
        function into the importing module, so patching the defining module
        alone would miss that caller; every loaded module of ``package``
        holding the same object gets the wrapper.
        """
        traced = self._wrapper(function, name, layer, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patched.append((module, attr, function))
                    setattr(module, attr, traced)

    def hook_method(self, owner: type, attr: str, before: Callable[..., None]) -> None:
        """Call ``before(*args)`` ahead of ``owner.attr`` without recording a span."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))

        def hooked(*args, **kwargs):
            before(*args)
            return original(*args, **kwargs)

        setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
