"""The benchmark's workloads: set-up, the timed closed loop and the checks.

Every workload runs in one process and one client thread (``rob-eval`` adds
the evaluator's thread pool).  The inputs are a fixed set built from the
corpus seed; ``--seed`` fixes the order in which the client sends them.  A run
makes whole passes over that order until at least ``seconds`` have elapsed,
so every run scores the whole input set once per pass and accuracy repeats
exactly from seed to seed.  Outputs are checked against the row-at-a-time
interpreter outside the timed window.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import GRED, GREDConfig, RobustnessSuiteBuilder, build_corpus
from repro.dvq.errors import DVQError
from repro.dvq.normalize import try_parse
from repro.dvq.parser import parse_dvq
from repro.evaluation.evaluator import ModelEvaluator
from repro.evaluation.metrics import compare_queries
from repro.executor import ColumnarEngine, ExecutionError, ExecutionResult
from repro.executor.backend import InterpreterBackend, normalize_result, resolve_backend
from repro.llm.simulated import SimulatedChatModel
from repro.nvbench.dataset import NVBenchDataset
from repro.plan import CostModel, optimize, output_labels, plan_query
from repro.robustness.variants import VariantKind
from repro.runtime import BatchRunner
from repro.vegalite.compiler import compile_to_vegalite
from repro.vegalite.renderer import ChartRenderer
from repro.vegalite.validation import validate_spec
from repro.workload.minimize import rows_agree

from spans import SpanMiddleware, Tracer, TracedChatModel, layer_totals, op_coverage

ROB_TRACE, ROB_EVAL, CHART_SMALL = "rob-trace", "rob-eval", "chart-small"
WORKLOADS = (ROB_TRACE, ROB_EVAL, CHART_SMALL)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``rob-eval`` scores the first this-many examples of each of the four sets.
EVAL_EXAMPLES_PER_SET = 250
BEHAVIOURS = ("generation", "retune", "debug", "repair", "annotation")
STAGES = ("generate", "retune", "debug", "repair", "verify")


@dataclass
class Failure:
    """An operation that raised; counted in ``failed``."""

    error: str


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    setup_seconds: List[float]
    latencies: List[float]
    timed_seconds: float
    attempted: int
    failed: int
    accuracy: float
    chart_rate: float
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def ops(self) -> int:
        return len(self.latencies)


@dataclass
class Checked:
    """Tally of the correctness checks over a run's outputs."""

    attempted: int = 0
    failed: int = 0
    correct: int = 0
    charts: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def ordered(items: Sequence, seed: int) -> list:
    """``items`` in the order the client sends them for ``seed``."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def timed_setups(build: Callable[[], object], repeats: int) -> Tuple[object, List[float]]:
    """Run ``build`` ``repeats`` times from scratch; keep the last state."""
    seconds: List[float] = []
    state = None
    for _ in range(repeats):
        state = None  # drop the previous set-up before timing the next
        gc.collect()
        started = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - started)
    return state, seconds


def closed_loop(
    items: Sequence,
    seconds: float,
    op: Callable[[int, object], object],
    check: Callable[[object], None],
) -> Tuple[List[float], float]:
    """Whole passes of ``op`` over ``items`` until ``seconds`` have been timed.

    Each pass's outputs go to ``check`` after the pass, outside the timed
    window, and are then dropped, so memory does not grow with the pass
    count.  An op that raises yields a :class:`Failure` instead of ending the
    run.  Returns the per-op latencies and the timed seconds.
    """
    latencies: List[float] = []
    timed = 0.0
    while timed < seconds:
        outputs: List[object] = []
        started = time.perf_counter()
        for item in items:
            op_started = time.perf_counter()
            try:
                output = op(len(latencies), item)
            except Exception:  # noqa: BLE001 - one bad op must not end the run
                output = Failure(traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - op_started)
            outputs.append(output)
        timed += time.perf_counter() - started
        for output in outputs:
            check(output)
    return latencies, timed


def op_scope(tracer: Optional[Tracer], op_id: int):
    """The tracer's op scope (every other op traced), or nothing when untraced."""
    return nullcontext() if tracer is None else tracer.op(op_id, is_traced(op_id))


def digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()[:16]


class ChartPath:
    """Parse, plan, execute and compile one DVQ on the columnar engine.

    Untraced, this is :meth:`ChartRenderer.try_render_text`.  While the
    tracer records, it runs the same public steps that
    ``ChartRenderer.render`` and ``ColumnarBackend.execute`` compose, one span
    each.
    """

    def __init__(self, backend, tracer: Optional[Tracer] = None):
        self.backend = backend
        self.renderer = ChartRenderer(backend=backend)
        self.engine = ColumnarEngine()
        self.tracer = tracer

    def render(self, text: str, database) -> Optional[ExecutionResult]:
        if self.tracer is None or not self.tracer.recording:
            chart = self.renderer.try_render_text(text, database)
            return chart.result if chart is not None else None
        span = self.tracer.span
        try:
            with span("dvq.parse"):
                query = parse_dvq(text)
        except DVQError:
            return None
        with span("vegalite.compile"):
            spec = compile_to_vegalite(query, database)
            if validate_spec(spec):
                return None
        try:
            with span("plan.plan"):
                plan = plan_query(query, database.schema)
            if self.backend.optimize:
                with span("plan.optimize"):
                    statistics = CostModel(database) if self.backend.cost_based else None
                    plan = optimize(plan, self.backend.optimizer_config, statistics=statistics)
            with span("executor.run"):
                result = ExecutionResult(
                    columns=list(output_labels(plan)),
                    rows=self.engine.run(plan, database),
                    chart_type=query.chart_type.value,
                )
                result = normalize_result(result, query)
        except ExecutionError:
            return None
        with span("vegalite.compile"):
            spec.data_values = result.as_dicts()
        return result


class Oracle:
    """The row-at-a-time interpreter's answer for each (DVQ, database), memoized.

    Only for read-only databases: a write would make a memoized answer stale.
    """

    def __init__(self) -> None:
        self.backend = InterpreterBackend()
        self._answers: Dict[Tuple[str, str], Optional[ExecutionResult]] = {}

    def answer(self, text: str, database) -> Optional[ExecutionResult]:
        """The interpreter's result, or ``None`` when the DVQ yields no chart."""
        key = (text, database.name)
        if key not in self._answers:
            self._answers[key] = None
            query = try_parse(text)
            if query is not None and not validate_spec(compile_to_vegalite(query, database)):
                try:
                    self._answers[key] = self.backend.execute(query, database)
                except ExecutionError:
                    pass
        return self._answers[key]

    def check(self, checked: Checked, text: str, result, database) -> bool:
        """Fail the op unless ``result`` (``None`` = no chart) equals the oracle's.

        Returns whether a chart was produced and matched.
        """
        expected = self.answer(text, database)
        if result is None and expected is None:
            return False
        if result is None or expected is None:
            checked.fail(f"chart on one engine only for {text!r}")
            return False
        if expected.columns != result.columns or not rows_agree(expected.rows, result.rows):
            checked.fail(f"rows differ from the interpreter for {text!r}")
            return False
        return True


# -- shared set-up -------------------------------------------------------------


def build_suite(scale: float, corpus_seed: int):
    dataset = build_corpus(scale=scale, seed=corpus_seed)
    return dataset, RobustnessSuiteBuilder().build(dataset)


def instrument(model: GRED, tracer: Optional[Tracer]) -> GRED:
    """Add stage spans and retrieval spans to a fitted model (no-op untraced)."""
    if tracer is not None:
        model.plan = model.plan.with_middleware(SpanMiddleware(tracer))
        retriever = model.retriever
        retriever.retrieve_by_nlq = tracer.wrap("retrieval.by_nlq", retriever.retrieve_by_nlq)
        retriever.retrieve_by_dvq = tracer.wrap("retrieval.by_dvq", retriever.retrieve_by_dvq)
    return model


def layer_metrics(
    tracer: Tracer,
    traced_ops: int,
    extra: Dict[str, float],
    chat: Optional[TracedChatModel],
) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced run, per traced op."""
    totals = layer_totals(tracer.spans)
    per_op = max(traced_ops, 1)

    def calls(prefix: str) -> int:
        return sum(entry.calls for name, entry in totals.items() if name.startswith(prefix))

    def seconds(prefix: str) -> float:
        return sum(entry.seconds for name, entry in totals.items() if name.startswith(prefix))

    def ms_per_call(prefix: str) -> float:
        count = calls(prefix)
        return 1000.0 * seconds(prefix) / count if count else 0.0

    metrics: Dict[str, float] = {
        "embeddings.texts_per_op": 0.0,
        "llm.log_records": 0.0,
        "pipeline.repair_rounds_per_op": 0.0,
        "runtime.cache.hit_rate": 0.0,
        "runtime.busy_share": 0.0,
        "evaluation.compare_ms_per_op": 0.0,
        "evaluation.exec_check_ms_per_op": 0.0,
        **{f"runtime.cache.{behaviour}.hit_rate": 0.0 for behaviour in BEHAVIOURS},
    }
    metrics.update({
        "retrieval.calls_per_op": calls("retrieval.") / per_op,
        "retrieval.ms_per_call": ms_per_call("retrieval."),
        "llm.prompt_kchars_per_op": (chat.prompt_chars if chat else 0) / 1000.0 / per_op,
        "core.self_ms_per_op": 1000.0
        * sum(entry.self_seconds for name, entry in totals.items() if name.startswith("pipeline."))
        / per_op,
        "trace.span_coverage": op_coverage(tracer.spans),
    })
    for behaviour in BEHAVIOURS:
        metrics[f"llm.{behaviour}.calls_per_op"] = calls(f"llm.{behaviour}") / per_op
        metrics[f"llm.{behaviour}.ms_per_call"] = ms_per_call(f"llm.{behaviour}")
    for stage in STAGES:
        metrics[f"pipeline.{stage}_ms"] = 1000.0 * seconds(f"pipeline.{stage}") / per_op
    for name, layer in (
        ("dvq.parse_ms_per_op", "dvq.parse"),
        ("plan.plan_ms_per_op", "plan.plan"),
        ("plan.optimize_ms_per_op", "plan.optimize"),
        ("executor.run_ms_per_op", "executor.run"),
        ("vegalite.compile_ms_per_op", "vegalite.compile"),
    ):
        metrics[name] = 1000.0 * seconds(layer) / per_op
    metrics.update(extra)
    return metrics


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Mean traced op latency over mean untraced op latency, minus one."""
    if not traced or not untraced:
        return 0.0
    return (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0


def split_latencies(latencies: Sequence[float], traced: Callable[[int], bool]):
    on = [latency for index, latency in enumerate(latencies) if traced(index)]
    off = [latency for index, latency in enumerate(latencies) if not traced(index)]
    return on, off


def is_traced(op_id: int) -> bool:
    """Traced runs record every other op, so both halves see the same mix."""
    return op_id % 2 == 0


# -- rob-trace -------------------------------------------------------------------


def run_rob_trace(seed: int, seconds: float, trace: bool, scale: float, corpus_seed: int) -> RunResult:
    """Serial closed loop: ``GRED.trace`` and a rendered chart per dual-variant question."""
    tracer = Tracer() if trace else None
    chat = TracedChatModel(SimulatedChatModel(), tracer) if tracer else None

    def build():
        dataset, suite = build_suite(scale, corpus_seed)
        config = GREDConfig(max_repair_rounds=2, verify_execution=True)
        model = instrument(GRED(config, llm=chat).fit(dataset.train, dataset.catalog), tracer)
        path = ChartPath(model.execution_backend, tracer)
        warm = dataset.train[0]  # an original database: warms no dual-variant annotation
        warm_db = dataset.catalog.get(warm.db_id)
        path.render(model.trace(warm.nlq, warm_db).final, warm_db)
        return suite, model, path

    (suite, model, path), setup_seconds = timed_setups(build, 1 if trace else SETUP_REPEATS)
    catalog = suite.catalog
    examples = ordered(suite.dual_variant.examples, seed)
    embedded_before = model.retriever.embedder.texts_embedded

    def op(op_id: int, example):
        database = catalog.get(example.db_id)
        with op_scope(tracer, op_id):
            result = model.trace(example.nlq, database)
            return example, result, path.render(result.final, database)

    checked, oracle, finals = Checked(), Oracle(), []
    rounds = 0

    def check(output) -> None:
        nonlocal rounds
        checked.attempted += 1
        if isinstance(output, Failure):
            checked.fail(output.error)
            return
        example, result, chart = output
        finals.append(f"{example.example_id}\t{result.final}")
        rounds += result.repair_rounds
        checked.correct += compare_queries(result.final, example.dvq).overall
        checked.charts += chart is not None
        oracle.check(checked, result.final, chart, catalog.get(example.db_id))

    latencies, timed = closed_loop(examples, seconds, op, check)
    embedded = model.retriever.embedder.texts_embedded - embedded_before

    layers: Dict[str, float] = {}
    if tracer is not None:
        on, off = split_latencies(latencies, is_traced)
        layers = layer_metrics(
            tracer,
            len(on),
            {
                "embeddings.texts_per_op": embedded / len(latencies),
                "llm.log_records": float(len(model.llm.log)),
                "pipeline.repair_rounds_per_op": rounds / len(latencies),
                "trace.overhead_frac": overhead(on, off),
            },
            chat,
        )
    return finish(setup_seconds, latencies, timed, checked, digest(finals), layers, tracer)


# -- rob-eval --------------------------------------------------------------------


def run_rob_eval(seed: int, seconds: float, trace: bool, scale: float, corpus_seed: int) -> RunResult:
    """``ModelEvaluator`` over the first examples of all four sets, cache on."""
    tracer = Tracer() if trace else None
    chat = TracedChatModel(SimulatedChatModel(), tracer) if tracer else None
    workers = os.cpu_count() or 1

    def build():
        dataset, suite = build_suite(scale, corpus_seed)
        # the Workbench's GRED configuration: completion cache on, no repair
        model = GRED(GREDConfig(use_llm_cache=True), llm=chat)
        model = instrument(model.fit(dataset.train, dataset.catalog), tracer)
        warm = dataset.train[0]
        model.predict(warm.nlq, dataset.catalog.get(warm.db_id))
        return suite, model

    (suite, model), setup_seconds = timed_setups(build, 1 if trace else SETUP_REPEATS)
    per_set = min(EVAL_EXAMPLES_PER_SET, len(suite.original))
    order = ordered(range(per_set), seed)  # one order for all four aligned sets
    datasets = [
        NVBenchDataset(
            [suite.variant(kind).examples[index] for index in order],
            catalog=suite.catalog,
            name=kind.value,
        )
        for kind in VariantKind
    ]
    runner = BatchRunner(max_workers=workers)
    evaluator = ModelEvaluator(runner=runner, execution_backend="columnar")
    cache = model.llm_cache
    hits_before = cache.stats.hits
    requests_before = cache.stats.requests
    by_behaviour_before = {name: dict(bucket) for name, bucket in cache.stats.by_behaviour.items()}
    embedded_before = model.retriever.embedder.texts_embedded

    op_latencies: List[Tuple[bool, float]] = []
    if tracer is not None:
        op_ids = itertools.count()
        predict = model.predict

        def traced_predict(nlq, database):
            op_id = next(op_ids)
            started = time.perf_counter()
            try:
                with tracer.op(op_id, is_traced(op_id)):
                    return predict(nlq, database)
            finally:
                op_latencies.append((is_traced(op_id), time.perf_counter() - started))

        model.predict = traced_predict
        runner.run = tracer.wrap("runtime.run", runner.run)
        backend = evaluator.execution_backend
        backend.can_execute = tracer.wrap("evaluation.exec_check", backend.can_execute)

    latencies: List[float] = []
    runs, reports = [], []
    timed = 0.0
    while timed < seconds:
        for dataset in datasets:
            started = time.perf_counter()
            if tracer is None:
                run = evaluator.evaluate(model, dataset)
            else:
                with tracer.active(), tracer.span("evaluation.evaluate"):
                    run = evaluator.evaluate(model, dataset)
            timed += time.perf_counter() - started
            runs.append(run)
            reports.append(evaluator.last_report)
            latencies.extend(item.seconds for item in evaluator.last_report.items)

    checked, oracle, finals = Checked(), Oracle(), []
    path = ChartPath(evaluator.execution_backend)
    for run in runs:
        checked.attempted += len(run.records)
        for _ in range(run.failure_count):  # predictions that raised
            checked.fail(f"{run.dataset_name}: a prediction raised")
        for record in run.records:
            finals.append(f"{run.dataset_name}\t{record.example_id}\t{record.predicted}")
            checked.correct += record.overall_correct
            checked.charts += record.executes
            database = suite.catalog.get(record.db_id)
            oracle.check(checked, record.predicted, path.render(record.predicted, database), database)

    layers: Dict[str, float] = {}
    if tracer is not None:
        totals = layer_totals(tracer.spans)
        records = max(checked.attempted, 1)
        on = [latency for traced, latency in op_latencies if traced]
        off = [latency for traced, latency in op_latencies if not traced]
        evaluate = totals.get("evaluation.evaluate")
        exec_check = totals.get("evaluation.exec_check")
        extra = {
            "embeddings.texts_per_op": (model.retriever.embedder.texts_embedded - embedded_before)
            / records,
            "llm.log_records": float(len(model.llm.log)),
            "runtime.cache.hit_rate": ratio(
                cache.stats.hits - hits_before, cache.stats.requests - requests_before
            ),
            "runtime.busy_share": sum(report.busy_seconds for report in reports)
            / sum(report.wall_seconds * report.max_workers for report in reports),
            "evaluation.compare_ms_per_op": 1000.0 * evaluate.self_seconds / records,
            "evaluation.exec_check_ms_per_op": 1000.0 * exec_check.seconds / records,
            "trace.overhead_frac": overhead(on, off),
        }
        for behaviour in BEHAVIOURS:
            now = cache.stats.by_behaviour.get(behaviour, {})
            before = by_behaviour_before.get(behaviour, {})
            hits = now.get("hits", 0) - before.get("hits", 0)
            misses = now.get("misses", 0) - before.get("misses", 0)
            extra[f"runtime.cache.{behaviour}.hit_rate"] = ratio(hits, hits + misses)
        layers = layer_metrics(tracer, len(on), extra, chat)
    return finish(setup_seconds, latencies, timed, checked, digest(finals), layers, tracer)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- chart-small ---------------------------------------------------------------


def run_chart_small(seed: int, seconds: float, trace: bool, scale: float, corpus_seed: int) -> RunResult:
    """Render every gold DVQ of the original and schema-variant sets, read-only."""
    tracer = Tracer() if trace else None

    def build():
        _, suite = build_suite(scale, corpus_seed)
        items = [
            (example.dvq, suite.catalog.get(example.db_id))
            for example in suite.original.examples + suite.schema_variant.examples
        ]
        path = ChartPath(resolve_backend("columnar"), tracer)
        for text, database in items:  # first touch: typed stores, statistics
            path.render(text, database)
        return items, path

    state: Dict[str, object] = {}

    def op(op_id: int, index: int):
        text, database = state["items"][index]
        with op_scope(tracer, op_id):
            return index, state["path"].render(text, database)

    checked, oracle = Checked(), Oracle()

    def check(output) -> None:
        checked.attempted += 1
        if isinstance(output, Failure):
            checked.fail(output.error)
            return
        index, result = output
        text, database = state["items"][index]
        checked.charts += result is not None
        checked.correct += oracle.check(checked, text, result, database)

    # Each set-up is followed by its share of the timed window: the host's
    # speed drifts in phases of a few seconds, and spreading the window over
    # the whole run samples more of them at no extra cost.
    repeats = 1 if trace else SETUP_REPEATS
    latencies: List[float] = []
    setup_seconds: List[float] = []
    timed = 0.0
    for _ in range(repeats):
        state.clear()  # drop the previous set-up before timing the next
        (state["items"], state["path"]), setup = timed_setups(build, 1)
        setup_seconds += setup
        sequence = ordered(range(len(state["items"])), seed)
        segment, segment_seconds = closed_loop(sequence, seconds / repeats, op, check)
        latencies += segment
        timed += segment_seconds

    layers: Dict[str, float] = {}
    if tracer is not None:
        on, off = split_latencies(latencies, is_traced)
        layers = layer_metrics(tracer, len(on), {"trace.overhead_frac": overhead(on, off)}, None)
    return finish(setup_seconds, latencies, timed, checked, "", layers, tracer)


def finish(setup_seconds, latencies, timed, checked: Checked, final_digest, layers, tracer) -> RunResult:
    attempted = max(checked.attempted, 1)
    return RunResult(
        setup_seconds=setup_seconds,
        latencies=latencies,
        timed_seconds=timed,
        attempted=checked.attempted,
        failed=checked.failed,
        accuracy=checked.correct / attempted,
        chart_rate=checked.charts / attempted,
        digest=final_digest,
        problems=checked.problems,
        layers=layers,
        tracer=tracer,
    )


RUNNERS = {ROB_TRACE: run_rob_trace, ROB_EVAL: run_rob_eval, CHART_SMALL: run_chart_small}
