"""In-memory span recorder that times calls into the program from outside.

A :class:`Tracer` replaces selected functions and methods of the program
with timing wrappers (:meth:`Tracer.wrap`) and restores them on
:meth:`Tracer.uninstall`.  The program itself is not instrumented: every
span is recorded here, around a call into one of its public entry points.

Spans are held in memory.  Worker processes forked while the wrappers are
installed start with an empty buffer (an ``os.register_at_fork`` hook) and
append their spans to ``<out_dir>/spans-<pid>.jsonl`` whenever a wrapper
marked ``flush=True`` returns at the top of a worker's stack, i.e. at the
end of each pool task.  :meth:`Tracer.collect` merges those files with the
parent's own spans.  ``time.perf_counter_ns`` is the monotonic clock on
Linux, so spans of different processes share one timeline.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    """One timed call: ``[start_ns, end_ns]`` on the monotonic clock."""

    pid: int
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: Optional[int]
    tid: int
    attrs: dict = field(default_factory=dict, compare=False)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_row(self) -> list:
        return [self.pid, self.span_id, self.name, self.start_ns, self.end_ns,
                self.parent_id, self.tid, self.attrs]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row[:7], attrs=row[7] or {})


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[tuple[int, int], int]:
    """Self time of every span, keyed by ``(pid, span_id)``: its duration
    minus the part of its interval that its child spans cover."""
    spans = list(spans)
    children: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[(s.pid, s.parent_id)].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        kids = [
            (max(a, s.start_ns), min(b, s.end_ns))
            for a, b in children.get((s.pid, s.span_id), ())
            if b > s.start_ns and a < s.end_ns
        ]
        out[(s.pid, s.span_id)] = s.duration_ns - union_ns(kids)
    return out


#: the tracer whose buffer a forked child must reset.  Fork hooks are
#: process-global and cannot be unregistered, so they consult this slot.
_active: Optional["Tracer"] = None
_fork_hook_registered = False


def _reset_in_child() -> None:
    if _active is not None:
        _active._after_fork()


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(
        self,
        out_dir: str | os.PathLike,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.root_pid = self.pid = os.getpid()
        #: this process's spans as ``Span.to_row`` lists (cheap to append).
        self.rows: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Optional[dict]]] = None,
        flush: bool = False,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(ctx, args, kwargs, result, start_ns, end_ns)``,
        whose dict (if any) becomes the span's attributes.
        """
        tracer = self
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            ctx = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = tracer.clock()
            result = None
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                if after is not None and "error" not in attrs:
                    attrs = after(ctx, args, kwargs, result, start, end) or {}
                tracer.rows.append([tracer.pid, span_id, name, start, end, parent,
                                    get_ident(), attrs])
                if flush and not stack and tracer.pid != tracer.root_pid:
                    tracer.flush_child()

        return wrapper

    # -- patching -------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, **wrap_kwargs) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a timing wrapper; :meth:`uninstall` puts it back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **wrap_kwargs))
        self._activate()

    def _activate(self) -> None:
        global _active, _fork_hook_registered
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_reset_in_child)
            _fork_hook_registered = True

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if _active is self:
            _active = None

    # -- processes ------------------------------------------------------------
    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.rows = []
        self._local = threading.local()

    def flush_child(self) -> None:
        """Append this (forked) process's buffered spans to its file."""
        if not self.rows:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        self.rows = []

    @property
    def spans(self) -> list[Span]:
        """This process's spans so far."""
        return [Span.from_row(row) for row in self.rows]

    def collect(self) -> list[Span]:
        """The parent's spans plus every span flushed by forked workers.
        Call it after those workers have exited: a worker may still be
        appending to its file."""
        spans = self.spans
        if self.out_dir.is_dir():
            for path in sorted(self.out_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    spans.extend(Span.from_row(json.loads(line)) for line in fh)
        return spans
