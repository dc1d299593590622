"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces module attributes with thin wrappers that
record one span per call: name, start, end, parent span, workload, case
id and phase, plus free-form attributes. Nothing in the program itself
changes; the wrappers sit at the module attribute the caller looks the
function up through, and :meth:`Tracer.restore` puts the originals back.
Spans stay in memory until :meth:`Tracer.write_jsonl` at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "case", "phase", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, case, phase, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.case = case
        self.phase = phase
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _open(self, name: str, case, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        if case is None and parent is not None:
            case = parent.case
        s = Span(len(self.spans), name, None if parent is None else parent.id,
                 case, self.phase, attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, case=None, **attrs):
        s = self._open(name, case, attrs)
        try:
            yield s
        finally:
            self._close(s)

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``pre(args, kwargs)`` returns the span's starting attributes (a
        ``case`` key sets its case id); ``post(span, args, kwargs,
        result)`` adds attributes once the call has returned. Both run
        outside the timed interval.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = pre(args, kwargs) if pre is not None else {}
            s = self._open(name, attrs.pop("case", None), attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(s)
            if post is not None:
                post(s, args, kwargs, result)
            return result

        self._install(owner, attr, original, wrapper)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` into the innermost open span's
        ``key`` attribute, without a span of their own."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._stack:
                attrs = self._stack[-1].attrs
                attrs[key] = attrs.get(key, 0) + 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def call_before(self, owner, attr: str, hook) -> None:
        """Call ``hook()`` before every call of ``owner.attr``, outside
        the spans that earlier wrappers open around the call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            hook()
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @property
    def patch_count(self) -> int:
        return len(self._patches)

    def restore(self, down_to: int = 0) -> None:
        """Put back the originals patched after the first ``down_to``."""
        while len(self._patches) > down_to:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one line per span; times in seconds
        from the tracer's creation."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "parent": s.parent,
                       "workload": self.workload, "case": s.case,
                       "phase": s.phase, "start": s.start - self._t0,
                       "end": s.end - self._t0}
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row, sort_keys=True, default=str) + "\n")


def self_times(spans: list[Span], children: dict[int, list[Span]]) -> dict[int, float]:
    """Span duration minus the time its direct children cover. Calls are
    sequential on one thread, so children never overlap."""
    return {s.id: s.duration - sum(c.duration for c in children.get(s.id, ()))
            for s in spans}
