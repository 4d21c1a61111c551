"""In-memory span tracing around the benchmark's own calls into each layer.

Spans are recorded only from this directory: a wrapping ``ChatModel`` passed
as ``GRED(llm=...)``, a stage-plan middleware added with
``StagePlan.with_middleware``, instance-level wrappers on objects the
benchmark built itself (the retriever, the evaluator's runner and backend),
and explicit spans around the chart path.  No module of the program is
patched.

A span belongs to the thread that opened it; its parent is the innermost span
open on that thread.  Spans are kept in a list and written out once, when the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.llm.interface import ChatMessage, ChatModel, CompletionParams
from repro.runtime.cache import behaviour_of


@dataclass(frozen=True)
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread.

    Recording is switched per thread: :meth:`op` turns it on for one
    operation (so a run can alternate traced and untraced operations and
    measure the tracing overhead), and :meth:`active` turns it on for a block
    of the benchmark's own code.  Outside both, :meth:`span` costs one attribute lookup.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()  # next() on a count is one C call: atomic
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def recording(self) -> bool:
        return getattr(self._local, "recording", False)

    @contextmanager
    def active(self, recording: bool = True) -> Iterator[None]:
        """Record (or not) every span this thread opens inside the block."""
        previous = self.recording
        self._local.recording = recording
        try:
            yield
        finally:
            self._local.recording = previous

    @contextmanager
    def op(self, op_id: int, traced: bool) -> Iterator[None]:
        """One operation: an ``op`` root span and, if ``traced``, its children."""
        with self.active(traced), self.span("op", op=op_id):
            yield

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        if not self.recording:
            yield
            return
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        op = parent_op if op is None else op
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write ``header`` and then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def covered_seconds(parent: Span, children: Iterable[Span]) -> float:
    """Length of the part of ``parent`` that the union of ``children`` covers.

    Children may overlap (threads) or stick out of the parent (clock
    granularity); both are handled by clipping and merging the intervals.
    """
    intervals = sorted(
        (max(child.start, parent.start), min(child.end, parent.end)) for child in children
    )
    covered, reach = 0.0, parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children = children_of(spans)
    return {
        span.span_id: span.duration - covered_seconds(span, children.get(span.span_id, ()))
        for span in spans
    }


@dataclass
class LayerTotals:
    """Aggregate of every span with one name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    own = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.seconds += span.duration
        entry.self_seconds += own[span.span_id]
    return totals


def op_coverage(spans: Sequence[Span]) -> float:
    """Share of the ``op`` spans' wall time that their child spans cover."""
    children = children_of(spans)
    ops = [span for span in spans if span.name == "op"]
    total = sum(span.duration for span in ops)
    covered = sum(covered_seconds(span, children.get(span.span_id, ())) for span in ops)
    return covered / total if total else 0.0


class TracedChatModel(ChatModel):
    """Records each completion as an ``llm.<behaviour>`` span.

    Unknown attributes (``log``, ``lexicon``) are delegated to the wrapped
    model, as :class:`~repro.runtime.cache.LLMCache` does.
    """

    def __init__(self, inner: ChatModel, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.prompt_chars = 0
        self._lock = threading.Lock()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def complete(
        self, messages: Sequence[ChatMessage], params: Optional[CompletionParams] = None
    ) -> str:
        if not self.tracer.recording:
            return self.inner.complete(messages, params=params)
        prompt = "\n".join(message.content for message in messages)
        with self._lock:
            self.prompt_chars += len(prompt)
        with self.tracer.span(f"llm.{behaviour_of(prompt)}"):
            return self.inner.complete(messages, params=params)


class SpanMiddleware:
    """Stage-plan middleware recording each stage as a ``pipeline.<stage>`` span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def wrap(self, stage, run):
        name = f"pipeline.{stage.name}"

        def spanned(context) -> None:
            with self.tracer.span(name):
                run(context)

        return spanned
