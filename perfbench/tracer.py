"""In-memory span tracer that instruments a package from the outside.

The tracer never edits the package's source.  It rebinds the names that
callers look up (a module global such as ``focklab.cli.decompose`` or a
class attribute such as ``focklab.dbar.DbarSolver.apply``) to wrappers
that open a span around the call.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends.

A name that no longer exists is logged and counted in ``missing``; it
never aborts the run.  Work the tracer does for its own counters runs
with the span clock paused, so it inflates no span.  The tracer assumes
one Python thread drives the package, as the benchmark arranges.
"""

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Union

NAME, START, END, PARENT, OP = range(5)


@dataclass(frozen=True)
class Hook:
    """Wrap the callable at dotted ``path``.

    ``span`` is the span name, a function ``(args, kwargs) -> name`` or
    None for a hook that only counts.  ``count(tracer, args, kwargs,
    result, outermost)`` updates counters after the call; ``outermost``
    is False when a span of the same name is already open.
    """
    path: str
    span: Union[str, Callable, None]
    count: Optional[Callable] = None


def resolve(path: str):
    """Return (owner, attribute) for a dotted path, or raise LookupError."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
        except AttributeError:
            break
        if hasattr(owner, parts[-1]):
            return owner, parts[-1]
        break
    raise LookupError(path)


class Tracer:
    def __init__(self, log=sys.stderr):
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self.missing = []
        self.op = None
        self._log = log
        self._stack = []
        self._open_names = Counter()
        self._paused = 0.0
        self._undo = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open_names[name] += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()
        self._open_names[self.spans[idx][NAME]] -= 1

    def note_missing(self, what: str, why: str = "not found") -> None:
        if what not in self.missing:
            self.missing.append(what)
            print(f"trace: {what}: {why}", file=self._log)

    def install(self, hooks) -> None:
        for hook in hooks:
            try:
                owner, attr = resolve(hook.path)
            except LookupError:
                self.note_missing(hook.path)
                continue
            had = attr in vars(owner)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, hook))
            self._undo.append((owner, attr, orig, had))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig, had = self._undo.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def _count(self, hook, args, kwargs, result, outermost) -> None:
        if hook.count is None:
            return
        t0 = time.perf_counter()
        try:
            hook.count(self, args, kwargs, result, outermost)
        except (AttributeError, TypeError, IndexError, KeyError) as exc:
            self.note_missing(hook.path + ":count", repr(exc))
        finally:
            self._paused += time.perf_counter() - t0

    def _wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = hook.span(args, kwargs) if callable(hook.span) \
                else hook.span
            if name is None:
                result = fn(*args, **kwargs)
                tracer._count(hook, args, kwargs, result, True)
                return result
            outermost = tracer._open_names[name] == 0
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._count(hook, args, kwargs, result, outermost)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for c in sorted(children[idx], key=lambda i: spans[i][START]):
            start = max(spans[c][START], reach)
            end = min(spans[c][END], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


def summarize(spans) -> dict:
    """Self time and call count per span name, and self time per op and
    layer (the part of the name before the first dot)."""
    by_name, calls, by_op = Counter(), Counter(), {}
    for span, own in zip(spans, self_times(spans)):
        by_name[span[NAME]] += own
        calls[span[NAME]] += 1
        layer = span[NAME].split(".")[0]
        op = by_op.setdefault(str(span[OP]), Counter())
        op[layer] += own
    return {"self_s": dict(by_name), "calls": dict(calls),
            "by_op": {op: dict(v) for op, v in by_op.items()}}
