"""Benchmark-side tracing: wrap each layer's public functions in spans.

A traced pass installs :class:`LayerTracer` around the names the
program's callers resolve (a module attribute for a function imported by
name, a class attribute for a method), runs the workload, and removes
every wrapper again, so an untraced pass in the same process runs the
original functions.  Spans live in memory as ``(id, parent, name, start,
end)`` tuples and are written out when the pass ends.

Self time is a span's duration minus the time its child spans cover; for
example ``core.place_self_s`` is ``S3Selector.assign_batch`` minus the
``build_graph``, ``clique_cover`` and ``select`` spans inside it.

Leaf helpers called 10^5-10^6 times per pass (``SocialModel.social_index``
runs ~3.5 M times per fig12 pass) are never spanned; they are left to
in-program tracing.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names whose per-call durations are kept for percentiles.
_PERCENTILE_SPANS = ("core.assign_batch", "service.decide", "online.learn")

Hook = Callable[["LayerTracer", Tuple[Any, ...], Dict[str, Any], Any], None]


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Patches:
    """Replaces attributes; :meth:`remove` puts every original back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner)[attr] if own else None))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


class LayerTracer(Patches):
    """Wraps functions in spans; removing it restores every original."""

    def __init__(self) -> None:
        super().__init__()
        #: ``(id, parent id or -1, name, start, end)`` per finished span.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Per-call durations of the spans in ``_PERCENTILE_SPANS``.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Free-form counters and maxima the hooks fill in.
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        #: Open spans: ``[id, name, start, child time]``.
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._gc_start: Optional[float] = None
        self.gc_seconds = 0.0
        self.gc_gen2 = 0

    # -------------------------------------------------------------- wrapping

    def span(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[..., str]",
        after: Optional[Hook] = None,
    ) -> None:
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` may be a callable of the call's arguments (for example a
        replay span named after its strategy); ``after`` runs once the
        call returns, with the arguments and result, to fill counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            frame = [tracer._next_id, label, time.perf_counter(), 0.0]
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.total[label] += duration
                tracer.self_time[label] += duration - frame[3]
                tracer.calls[label] += 1
                if label in _PERCENTILE_SPANS:
                    tracer.durations[label].append(duration)
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((frame[0], parent, label, frame[2], end))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self.replace(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, hook: Hook) -> None:
        """Wrap ``owner.attr`` with a counting hook and no span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self.replace(owner, attr, wrapper)

    def open_names(self) -> List[str]:
        """Names of every open span, outermost first."""
        return [frame[1] for frame in self._stack]

    # ------------------------------------------------------------ lifecycle

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def __enter__(self) -> "LayerTracer":
        gc.callbacks.append(self._on_gc)
        return self

    def remove(self) -> None:
        """Undo every wrapper, newest first, and stop the GC callback."""
        super().remove()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -------------------------------------------------------------- reports

    def children_total(self, child: str, parent: str) -> float:
        """Total duration of ``child`` spans directly under a ``parent`` span."""
        names = {span_id: name for span_id, _, name, _, _ in self.spans}
        return sum(
            end - start
            for _, parent_id, name, start, end in self.spans
            if name == child and names.get(parent_id) == parent
        )

    def p_us(self, name: str, q: float) -> float:
        """The ``q``-th percentile of ``name``'s per-call time, microseconds."""
        return percentile(self.durations[name], q) * 1e6

    def table(self) -> List[Dict[str, Any]]:
        """Rows ``{name, calls, total_s, self_s}``, largest self time first."""
        rows = [
            {
                "name": name,
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in self.total
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def format_table(rows: List[Dict[str, Any]], wall: float) -> str:
    """The self-time table of the spans that ran, with shares of ``wall``."""
    lines = [f"{'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for row in rows:
        if not row["calls"]:
            continue
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{row['name']:<28} {row['calls']:>9} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {share:>6.1f}%"
        )
    return "\n".join(lines)

