"""Span recording around the program's public entry points.

The traced run installs :class:`SpanLog` wrappers on module attributes and
class methods of the program (``encode_into``, ``Session.flush``, ...).
Each call records one span — name, start, end, parent — where the parent
is the wrapped call that was running when this one started, tracked with a
:class:`contextvars.ContextVar` so it follows asyncio tasks. Spans stay in
memory; :meth:`SpanLog.self_times` gives each layer's self time (duration
minus the union of its children's intervals) and :meth:`chrome_events`
renders them for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_ns = time.perf_counter_ns


class SpanLog:
    """In-memory span and count recorder for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        #: ``(span id, parent id, name, start ns, end ns)``; parent 0 = root.
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench-span-{process}", default=0
        )
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, on_call: Optional[Callable]) -> Callable:
        spans, ids, current, counts = self.spans, self._ids, self._current, self.counts
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                t0 = _ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    spans.append((sid, parent, name, t0, _ns()))
                    current.reset(token)
                if on_call is not None:
                    on_call(counts, args, result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                t0 = _ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans.append((sid, parent, name, t0, _ns()))
                    current.reset(token)
                if on_call is not None:
                    on_call(counts, args, result)
                return result

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module (wrap a function it holds) or a class (wrap a
        method, class method or static method). ``on_call(counts, args,
        result)`` may add counts at the same boundary.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, on_call))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name, on_call))
        else:
            new = self._wrap(raw, name, on_call)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def clear(self) -> None:
        """Forget spans and counts (called when the measured window opens)."""
        self.spans.clear()
        self.counts.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self time in ns.

        Self time is a span's duration minus the part of its interval that
        its children cover; concurrent children (tasks of one phase) are
        merged before they are subtracted, so overlap is not counted twice.
        """
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for sid, _, name, t0, t1 in self.spans:
            covered = 0
            kids = children.get(sid)
            if kids:
                kids.sort()
                lo = hi = None
                for a, b in kids:
                    a, b = max(a, t0), min(b, t1)
                    if b <= a:
                        continue
                    if hi is None or a > hi:
                        if hi is not None:
                            covered += hi - lo
                        lo, hi = a, b
                    elif b > hi:
                        hi = b
                if hi is not None:
                    covered += hi - lo
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += t1 - t0
            row["self_ns"] += (t1 - t0) - covered
        return dict(out)

    def chrome_events(self, pid: int, last_s: float = 2.0) -> List[dict]:
        """Perfetto-loadable async begin/end events for the last ``last_s`` seconds.

        Async events (``b``/``e``) keep overlapping spans of concurrent
        tasks readable on one track; ``args.parent`` keeps the causal link.
        Only spans starting within ``last_s`` of the newest span's end are
        exported, which keeps the file small and the cycles whole.
        """
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": self.process}}
        ]
        if not self.spans:
            return events
        since_ns = max(s[4] for s in self.spans) - int(last_s * 1e9)
        for sid, parent, name, t0, t1 in self.spans:
            if t0 < since_ns:
                continue
            layer = name.split(".", 1)[0]
            common = {"cat": layer, "name": name, "pid": pid, "tid": 0,
                      "id": f"{pid}:{sid}"}
            events.append(dict(common, ph="b", ts=t0 / 1e3,
                               args={"parent": f"{pid}:{parent}" if parent else None}))
            events.append(dict(common, ph="e", ts=t1 / 1e3))
        return events

    def add_records(self, records) -> None:
        """Adopt :class:`repro.obs.spans.SpanRecord` s (same clock, no parent link)."""
        for r in records:
            t0 = int(r.start_s * 1e9)
            self.spans.append((next(self._ids), 0, f"{r.track}.{r.name}", t0,
                               t0 + int(r.dur_s * 1e9)))
