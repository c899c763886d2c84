"""The three workloads: set-up, timed loops, checks and metrics.

Each workload runs in its own process (see ``perfbench/run.py``).  The
closed loops use one client thread; the open loop drives a
``ServingFrontend(workers=2)`` from one generator thread.  Inputs and
expected values are made by a child process before the clock starts
(:mod:`harness.prepare`).  Each response is checked against them as soon
as it is in hand, between service calls, and then dropped; only the
service calls are timed, so checking costs the measurement nothing.
Between calls, and between the steps of each set-up, the reference
kernel of :mod:`harness.hostspeed` is timed too; every reported time is
divided by the host's slowdown it shows, and the raw times are kept in
the run's record.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import threading
import time
from collections import deque
from fractions import Fraction
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from . import hostspeed
from .hostspeed import Timeline
from .oracle import OracleMismatch, check_attribute, check_ranking
from .prepare import FRONTEND_RATE_RPS, Inputs, PrepareError, prepare
from .stats import percentile
from .tracing import SpanRecorder
from .workloads import with_ids

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
FRONTEND_WORKERS = 2
#: The open-loop generator stops checking responses this long before the
#: next send is due, and times the reference kernel only when the service
#: is idle and the next send is further off than the margin plus this
#: many times the kernel's median time so far; on a slow host a check or
#: a kernel run that overran would make the next send late.
SETTLE_MARGIN_S = 0.005
KERNEL_GAP_KERNELS = 3
#: Reference-kernel samples before and after each set-up.
SETUP_KERNEL_SAMPLES = 8
#: The timed window is cut into this many equal windows; throughput,
#: median latency and CPU per request are medians over them.  (Host speed
#: is taken out by :mod:`harness.hostspeed`, not by the windows.)
WINDOWS = 10

LAYERS = ("serve", "parse", "evaluate", "canonicalize", "cache", "store",
          "compile", "exact_pass", "ranking", "assemble")


class RunError(RuntimeError):
    """The run cannot produce a valid measurement."""


# --------------------------------------------------------------------- #
# Program handles
# --------------------------------------------------------------------- #


def build_database(facts):
    from repro.db.database import Database

    database = Database()
    for relation, values, endogenous in facts:
        database.add_fact(relation, values, endogenous=endogenous)
    return database


def service_config(store_path: str):
    """Default settings over a ``LogStore`` at ``store_path``."""
    from repro.engine.engine import EngineConfig

    return EngineConfig(store=store_path, store_backend="log")


def open_service(database, store_path: str, warm_start: bool):
    """An ``AttributionService`` with :func:`service_config`."""
    from repro.engine.serve import AttributionService

    return AttributionService(database, service_config(store_path),
                              warm_start=warm_start)


def close_service(service) -> None:
    service.flush()
    service.store.close()


def store_footprint(service) -> Tuple[int, int]:
    """(bytes on disk, result entries) of the service's store."""
    report = service.store.stats()
    return int(report["disk_bytes"]), int(report["entries"])


def stats_delta(before: Dict[str, object], after: Dict[str, object]
                ) -> Dict[str, float]:
    """Counter differences between two ``AttributionService.stats()``."""
    def flat(report, prefix=""):
        out = {}
        for key, value in report.items():
            if isinstance(value, dict):
                out.update(flat(value, f"{prefix}{key}."))
            elif isinstance(value, (int, float)) and not isinstance(
                    value, bool):
                out[prefix + key] = value
        return out

    first, second = flat(before), flat(after)
    return {key: second[key] - first.get(key, 0) for key in second}


# --------------------------------------------------------------------- #
# Tracing the layers
# --------------------------------------------------------------------- #


def install_layer_tracing(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer (process-wide)."""
    import repro.engine.engine as engine_module
    import repro.engine.ranking as ranking_module
    import repro.engine.serve as serve_module
    from repro.engine.engine import Engine
    from repro.engine.serve import AttributionService

    def evaluate(original):
        spanned = recorder.wrap("evaluate", original)

        def traced(*args, **kwargs):
            recorder.count("evaluate.calls")
            answers = spanned(*args, **kwargs)
            recorder.count("evaluate.answers", len(answers))
            return answers
        return traced

    def serve_entry(original, request_of):
        spanned = recorder.wrap("serve", original)

        def traced(*args, **kwargs):
            recorder.set_request(request_of(args))
            return spanned(*args, **kwargs)
        return traced

    for module in (serve_module, engine_module):
        recorder.patch_with(module, "lineage_of_answers", evaluate)
        recorder.patch(module, "canonicalize", "canonicalize")
    recorder.patch(serve_module, "parse_query", "parse")
    for module in (engine_module, ranking_module):
        recorder.patch(module, "complete_compilation", "compile")
        recorder.patch(module, "exaban_all", "exact_pass")
    recorder.patch(engine_module, "compile_dnf", "compile")
    recorder.patch(engine_module, "prewarm_arenas", "exact_pass")
    recorder.patch(engine_module, "compute_ranking", "ranking")
    recorder.patch(Engine, "attribute_many", "assemble", generator=True)
    recorder.patch(Engine, "rank_many", "assemble", generator=True)
    recorder.patch_with(AttributionService, "submit", lambda f: serve_entry(
        f, lambda args: _request_id(args[1])))
    recorder.patch_with(AttributionService, "submit_batch",
                        lambda f: serve_entry(
                            f, lambda args: [_request_id(r) for r in args[1]]))
    recorder.patch_with(AttributionService, "coalesce_key",
                        lambda f: serve_entry(
                            f, lambda args: args[1].request_id))


def trace_service(recorder: SpanRecorder, service, database) -> None:
    """Wrap the tiers one service owns: caches, store, database rows."""
    for tier in (service.cache.results, service.cache.artifacts):
        recorder.patch(tier, "get", "cache")
        recorder.patch(tier, "put", "cache")
    for method, name in (("get", "store.get"), ("get_artifact", "store.get"),
                         ("put", "store.put"), ("put_artifact", "store.put"),
                         ("flush", "store.flush")):
        recorder.patch(service.store, method, name)

    def rows(original):
        def counted(relation):
            found = original(relation)
            recorder.count("evaluate.rows", len(found))
            return found
        return counted

    recorder.patch_with(database, "rows", rows)


def _request_id(request) -> object:
    return request.get("id") if isinstance(request, dict) else None


def timed_warm_loads(recorder: SpanRecorder) -> List[float]:
    """Time every ``Engine.load_cache`` (the store's warm start)."""
    from repro.engine.engine import Engine

    loads: List[float] = []

    def make(original):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                loads.append(time.perf_counter() - started)
        return timed

    recorder.patch_with(Engine, "load_cache", make)
    return loads


def layer_metrics(recorder: SpanRecorder, requests: int,
                  delta: Dict[str, float], store_bytes_written: int,
                  warm_loads: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics from spans and counters of the timed window."""
    self_ms = {name: seconds * 1000.0
               for name, seconds in recorder.self_times().items()}
    self_ms["store"] = sum(self_ms.get(f"store.{op}", 0.0)
                           for op in ("get", "put", "flush"))
    per_req = max(1, requests)
    counters = recorder.counters
    misses = delta.get("cache_misses", 0)
    lookups = (delta.get("cache_hits", 0) + delta.get("store_hits", 0)
               + misses)
    artifact_lookups = (delta.get("artifacts.memory_hits", 0)
                        + delta.get("artifacts.store_hits", 0)
                        + delta.get("artifacts.tree_compilations", 0))

    def per_miss(value: float) -> float:
        return value / misses if misses else 0.0

    metrics = {
        f"{layer}.ms_per_req": self_ms.get(layer, 0.0) / per_req
        for layer in ("evaluate", "parse", "canonicalize", "cache")
    }
    metrics.update({
        "serve.self_ms_per_req": self_ms.get("serve", 0.0) / per_req,
        "assemble.self_ms_per_req": self_ms.get("assemble", 0.0) / per_req,
        "evaluate.calls_per_req": counters.get("evaluate.calls", 0)
        / per_req,
        "evaluate.rows_scanned_per_answer": counters.get("evaluate.rows", 0)
        / max(1, counters.get("evaluate.answers", 0)),
        "cache.result_hit_rate": (delta.get("cache_hits", 0) / lookups
                                  if lookups else 0.0),
        "cache.artifact_hit_rate": (
            1.0 - delta.get("artifacts.tree_compilations", 0)
            / artifact_lookups if artifact_lookups else 1.0),
        "store.get_ms_per_req": self_ms.get("store.get", 0.0) / per_req,
        "store.put_ms_per_req": self_ms.get("store.put", 0.0) / per_req,
        "store.flush_ms_per_req": self_ms.get("store.flush", 0.0)
        / per_req,
        "store.bytes_written_per_req": store_bytes_written / per_req,
        "store.warm_load_ms": (statistics.median(warm_loads) * 1000.0
                               if warm_loads else 0.0),
        "compile.ms_per_miss": per_miss(self_ms.get("compile", 0.0)),
        "compile.trees_per_miss": per_miss(
            delta.get("artifacts.tree_compilations", 0)),
        "exact_pass.ms_per_miss": per_miss(self_ms.get("exact_pass", 0.0)),
        "ranking.ms_per_miss": per_miss(self_ms.get("ranking", 0.0)),
        "ranking.rounds_per_miss": per_miss(
            delta.get("refinement_rounds", 0)),
        "kernel.sweeps": delta.get("kernel.sweeps", 0),
        "kernel.batched_trees": delta.get("kernel.batched_trees", 0),
        "kernel.fallbacks": delta.get("kernel.fallbacks", 0),
        "reliability.store_retries": delta.get("reliability.store_retries",
                                               0),
        "reliability.pool_fallbacks": delta.get(
            "reliability.pool_fallbacks", 0),
    })
    metrics["layers.self_ms_per_req"] = {
        layer: self_ms.get(layer, 0.0) / per_req for layer in LAYERS}
    return metrics


# --------------------------------------------------------------------- #
# The timed loops
# --------------------------------------------------------------------- #


class Measurement:
    """What one timed window produced; responses are checked as they
    come, so none is kept and memory does not grow with throughput."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.requests: List[Dict[str, object]] = []
        self.ok: List[bool] = []
        #: Offset from the start at which each request was sent (closed
        #: loop) or due (open loop), and the window (see
        #: :data:`WINDOWS`) that offset falls in.
        self.at: List[float] = []
        self.window: List[int] = []
        #: Per window: process CPU seconds spent serving.
        self.cpu = [0.0] * WINDOWS
        #: Reference-kernel samples taken between service calls.
        self.host = Timeline()
        self.extra: Dict[str, object] = {}

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def record(self, request, response, latency: float, at: float,
               window: int, check: Callable) -> None:
        self.requests.append(request)
        self.latencies.append(latency)
        self.at.append(at)
        self.window.append(window)
        self.ok.append(bool(response.get("ok")))
        if response.get("ok"):
            check(request, response)

    def slowdowns(self) -> List[float]:
        """The host's slowdown at each request (see :mod:`hostspeed`)."""
        return [self.host.slowdown_at(at) for at in self.at]

    def per_window(self, slowdowns: Sequence[float]
                   ) -> List[Tuple[float, float, float]]:
        """(completed per second of service time, p50 latency, CPU per
        completed) of every window that completed a request.

        Each latency is divided by the slowdown at its request, and a
        window's CPU by the median slowdown of its requests; all-ones
        slowdowns give the raw figures.  The first figure is a closed
        loop's throughput: its service time is the sum of its latencies.
        """
        out = []
        for window in range(WINDOWS):
            members = [index for index, at in enumerate(self.window)
                       if at == window]
            latencies = [self.latencies[index] / slowdowns[index]
                         for index in members if self.ok[index]]
            if not latencies:
                continue
            busy = sum(self.latencies[index] / slowdowns[index]
                       for index in members)
            slowdown = statistics.median(slowdowns[index]
                                         for index in members)
            out.append((len(latencies) / busy, statistics.median(latencies),
                        self.cpu[window] / slowdown / len(latencies)))
        return out


def closed_loop(service, stream, seconds: float,
                recorder: Optional[SpanRecorder],
                check: Callable) -> Measurement:
    """One client: send the next request when the previous one returned.

    Only the service calls are timed, in wall and process CPU time, so
    checking each response against its expected values between calls,
    and the reference kernel run after each call, cost the measurement
    nothing.  Stops when ``seconds`` have passed or the stream is
    exhausted (only a program several times faster than the streams are
    sized for gets there).
    """
    result = Measurement()
    if recorder is not None:
        recorder.enabled = True
    start = time.perf_counter()
    deadline = start + seconds
    for request in stream:
        now = time.perf_counter()
        if now >= deadline:
            break
        window = min(WINDOWS - 1, int((now - start) * WINDOWS / seconds))
        cpu = time.process_time()
        sent = time.perf_counter()
        response = service.submit(request)
        latency = time.perf_counter() - sent
        result.cpu[window] += time.process_time() - cpu
        result.record(request, response, latency, now - start, window,
                      check)
        result.host.add(time.perf_counter() - start, hostspeed.sample())
    if recorder is not None:
        recorder.enabled = False
    return result


def open_loop(frontend, service, events, seconds: float,
              recorder: Optional[SpanRecorder],
              check: Callable) -> Measurement:
    """Send each event at its due time from this (the generator) thread.

    A request's latency runs from its due time to the return of the
    service call that produced its response; requests the front-end
    answers at admission (shed, refused) complete when ``submit_nowait``
    returns.  The queue wait of a request runs from ``submit_nowait`` to
    the start of its first service call.  Between sends, this thread
    waits for the responses in flight, checks them and lets them go, and
    when the service is idle and the next send far enough off, times the
    reference kernel; the thread's CPU for both is taken out of the
    service's.
    """
    result = Measurement()
    done_at: Dict[object, float] = {}
    first_call: Dict[object, float] = {}
    lock = threading.Lock()

    def mark_start(ids) -> None:
        now = time.perf_counter()
        with lock:
            for request_id in ids:
                first_call.setdefault(request_id, now)

    def probe(original, ids_of):
        def probed(*args, **kwargs):
            ids = ids_of(args)
            mark_start(ids)
            try:
                return original(*args, **kwargs)
            finally:
                now = time.perf_counter()
                with lock:
                    for request_id in ids:
                        done_at[request_id] = now
        return probed

    service.submit = probe(service.submit,
                           lambda args: [_request_id(args[0])])
    service.submit_batch = probe(
        service.submit_batch, lambda args: [_request_id(r) for r in args[0]])
    original_key = service.coalesce_key

    def keyed(parsed):
        mark_start([parsed.request_id])
        return original_key(parsed)

    service.coalesce_key = keyed
    pending: Deque[Tuple[float, Dict[str, object], object]] = deque()
    waits: List[float] = []
    submitted: Dict[object, float] = {}
    late: List[float] = []
    harness_cpu = [0.0] * WINDOWS

    def window_of(offset: float) -> int:
        return max(0, min(WINDOWS - 1, int(offset * WINDOWS / seconds)))

    def settle(until: Optional[float]) -> None:
        """Wait for answers until ``until``, checking and dropping them
        oldest first, so the heap (and with it the collector's pauses)
        does not grow with the run."""
        spent = time.thread_time()
        while pending:
            due_at, request, outcome = pending[0]
            if isinstance(outcome, dict):
                response = outcome
            else:
                timeout = (120.0 if until is None
                           else max(0.0, until - time.perf_counter()))
                try:
                    response = outcome.result(timeout=timeout)
                except TimeoutError:
                    break
                request_id = request["id"]
                if request_id in first_call:
                    waits.append(first_call[request_id]
                                 - submitted[request_id])
            pending.popleft()
            due = due_at - start
            done = done_at[request["id"]]
            result.extra["span"] = max(result.extra.get("span", 0.0),
                                       done - start)
            result.record(request, response, done - due_at, due,
                          window_of(due), check)
        harness_cpu[window_of(time.perf_counter() - start)] += (
            time.thread_time() - spent)

    if recorder is not None:
        recorder.enabled = True
    cpu_marks = [time.process_time()]
    start = time.perf_counter()
    try:
        for due, request in events:
            while len(cpu_marks) < WINDOWS and due >= (
                    len(cpu_marks) * seconds / WINDOWS):
                cpu_marks.append(time.process_time())
            due_at = start + due
            settle(due_at - SETTLE_MARGIN_S)
            now = time.perf_counter()
            gap = SETTLE_MARGIN_S + KERNEL_GAP_KERNELS * (
                statistics.median(result.host.seconds[-16:])
                if len(result.host) else hostspeed.REFERENCE_S)
            if not pending and due_at - now > gap:
                spent = time.thread_time()
                result.host.add(now - start, hostspeed.sample())
                harness_cpu[window_of(now - start)] += (
                    time.thread_time() - spent)
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            late.append(now - due_at)
            submitted[request["id"]] = now
            outcome = frontend.submit_nowait(request)
            if isinstance(outcome, dict):
                done_at[request["id"]] = time.perf_counter()
            pending.append((due_at, request, outcome))
        settle(None)
        if not len(result.host):
            # The service never fell idle with time to spare.
            result.host.add(time.perf_counter() - start, hostspeed.sample())
        cpu_marks += [time.process_time()] * (WINDOWS + 1 - len(cpu_marks))
        result.cpu = [later - earlier - spent for earlier, later, spent
                      in zip(cpu_marks, cpu_marks[1:], harness_cpu)]
    finally:
        if recorder is not None:
            recorder.enabled = False
        del service.submit, service.submit_batch, service.coalesce_key
    result.extra["queue_wait"] = waits
    result.extra["late"] = late
    return result


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1000.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: str) -> Dict[str, object]:
    """Run one workload once; returns the raw record (metrics and more)."""
    try:
        inputs = prepare(workload, seed, seconds,
                         os.path.join(work_dir, "inputs"))
    except PrepareError as error:
        raise RunError(str(error)) from error
    try:
        return _run(workload, seed, seconds, trace, work_dir, inputs)
    finally:
        inputs.close()


def _run(workload: str, seed: int, seconds: float, trace: bool,
         work_dir: str, inputs: Inputs) -> Dict[str, object]:
    recorder = SpanRecorder() if trace else None
    warm_loads: List[float] = []
    if recorder is not None:
        recorder.enabled = False
        install_layer_tracing(recorder)
        warm_loads = timed_warm_loads(recorder)
    # Import the program before any set-up is timed.
    import repro.engine.frontend  # noqa: F401
    import repro.engine.serve  # noqa: F401

    store_root = os.path.join(work_dir, "store")
    facts = inputs.facts()
    prefill_s = 0.0
    if workload in ("warm_mixed", "frontend_open"):
        started = time.perf_counter()
        filler = open_service(build_database(facts), store_root,
                              warm_start=False)
        for request in with_ids(inputs.warmup):
            _must_be_ok(filler.submit(request))
        close_service(filler)
        del filler
        prefill_s = time.perf_counter() - started

    #: Per set-up: (seconds, seconds at reference host speed).
    setups: List[Tuple[float, float]] = []
    handles: Dict[str, object] = {}
    for attempt in range(SETUP_REPEATS):
        if handles:
            _teardown(handles.get("frontend"), handles["service"])
        # Each set-up starts from the same heap: nothing of the last one
        # left for the collector to walk or for the peak to count.
        handles.clear()
        gc.collect()
        path = store_root
        if workload == "cold_store":
            path = os.path.join(work_dir, f"store-{attempt}")
            shutil.rmtree(path, ignore_errors=True)
        setups.append(timed_steps(_set_up(workload, facts, path,
                                          inputs.warmup, handles)))
    database, service = handles["database"], handles["service"]
    frontend = handles.get("frontend")
    del facts, handles
    gc.collect()

    epsilon = Fraction(service_config(store_root).epsilon)

    def check(request: Dict[str, object],
              response: Dict[str, object]) -> None:
        expected = inputs.expected(request["query"])
        if request["op"] == "attribute":
            check_attribute(response, expected)
        else:
            check_ranking(response, expected, epsilon, k=request.get("k"))

    if recorder is not None:
        trace_service(recorder, service, database)
        recorder.counters.clear()
    before = service.stats()
    bytes_before, _ = store_footprint(service)
    try:
        if workload == "frontend_open":
            measured = open_loop(frontend, service, inputs.stream(), seconds,
                                 recorder, check)
        else:
            measured = closed_loop(service, inputs.stream(), seconds,
                                   recorder, check)
    except OracleMismatch as error:
        raise RunError(f"wrong response: {error}") from error
    delta = stats_delta(before, service.stats())
    front = frontend.stats() if frontend is not None else None
    if frontend is not None:
        frontend.close()
    service.flush()
    store_bytes, store_entries = store_footprint(service)
    service.store.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, attempted = measured.failed, len(measured.requests)
    completed = attempted - failed
    latencies = measured.latencies
    slowdowns = measured.slowdowns()

    def timing(slowdowns, scaled_setups):
        """The timing metrics, each time divided by the host's slowdown
        when it was taken (see :mod:`hostspeed`)."""
        windows = measured.per_window(slowdowns)
        if not windows:
            raise RunError("no request completed")
        scaled = [latency / slowdown
                  for latency, slowdown in zip(latencies, slowdowns)]
        return windows, {
            # An open loop's rate is the schedule's; what it shows is
            # whether the service kept up, so it is taken over the whole
            # run, unscaled.
            "throughput_rps": (completed / measured.extra["span"]
                               if "span" in measured.extra
                               else statistics.median(w[0] for w in windows)),
            "latency_p50_ms": statistics.median(w[1] for w in windows)
            * 1000.0,
            "latency_p95_ms": _ms(percentile(scaled, 95)),
            # Not a gated metric: see the README on the p99's spread.
            "latency_p99_ms": _ms(percentile(scaled, 99)),
            "cpu_ms_per_req": statistics.median(w[2] for w in windows)
            * 1000.0,
            "setup_s": statistics.median(scaled_setups),
        }

    windows, metrics = timing(slowdowns, [setup[1] for setup in setups])
    raw_windows, raw_metrics = timing([1.0] * attempted,
                                      [setup[0] for setup in setups])
    tail_p99_ms = {"scaled": metrics.pop("latency_p99_ms"),
                   "raw": raw_metrics.pop("latency_p99_ms")}
    metrics.update({
        "success_rate": completed / attempted if attempted else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "store_bytes_per_entry": store_bytes / max(1, store_entries),
    })
    missing = [name for name, value in metrics.items() if value is None]
    if missing and not trace:
        raise RunError(f"too few samples ({len(latencies)}) for {missing}")

    served = {_identity(request) for request in inputs.warmup}
    repeats, answers, clauses = 0, 0, 0
    by_op: Dict[str, List[float]] = {}
    for request, latency in zip(measured.requests, latencies):
        by_op.setdefault(request["op"], []).append(latency)
        identity = _identity(request)
        repeats += identity in served
        served.add(identity)
        shape = inputs.shape(request["query"])
        answers += shape[0]
        clauses += shape[1]
    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "stream_sha256": inputs.stream_sha256,
        "attempted": attempted, "failed": failed,
        "latency_samples": len(latencies),
        "failure_rate": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "raw_metrics": raw_metrics, "latency_p99_ms": tail_p99_ms,
        "windows": windows, "raw_windows": raw_windows,
        "host_samples": len(measured.host),
        "host_slowdown": statistics.median(slowdowns),
        "setup_runs_s": [setup[0] for setup in setups],
        "setup_runs_scaled_s": [setup[1] for setup in setups],
        "prefill_s": prefill_s,
        "oracle_s": inputs.oracle_s,
        "latency_p50_ms_by_op": {op: statistics.median(values) * 1000.0
                                 for op, values in by_op.items()},
        "latency_mean_ms_by_op": {op: statistics.mean(values) * 1000.0
                                  for op, values in by_op.items()},
        "store_bytes": store_bytes, "store_entries": store_entries,
        "service_delta": delta, "frontend": front,
        "descriptors": {
            "workload.repeat_share": repeats / max(1, attempted),
            "workload.answers_per_req": answers / max(1, attempted),
            "workload.clauses_per_req": clauses / max(1, attempted),
        },
    }
    if workload == "frontend_open":
        late = measured.extra["late"]
        record["generator_late_ms"] = {
            "p50": _ms(percentile(late, 50)), "p95": _ms(percentile(late, 95)),
            "p99": _ms(percentile(late, 99)),
            "max": max(late) * 1000.0}
        record["rate_rps"] = FRONTEND_RATE_RPS
    if recorder is not None:
        record["layers"] = _traced_layers(recorder, measured, delta, front,
                                          store_bytes - bytes_before,
                                          warm_loads)
        record["spans"] = recorder
    return record


def _traced_layers(recorder, measured: Measurement, delta, front,
                   store_bytes_written: int, warm_loads
                   ) -> Dict[str, object]:
    layers = layer_metrics(recorder, len(measured.latencies), delta,
                           store_bytes_written, warm_loads)
    layers["trace.overhead_pct"] = recorder.overhead_pct()
    waits = measured.extra.get("queue_wait", [])
    front = front or {}
    completed = max(1, front.get("completed", 0))
    shed = sum((front.get("shed") or {}).values())
    layers.update({
        "frontend.queue_wait_ms_p50": _ms(percentile(waits, 50)) or 0.0,
        "frontend.queue_wait_ms_p95": _ms(percentile(waits, 95)) or 0.0,
        "frontend.coalesce_rate": front.get("coalesced", 0) / completed,
        "frontend.batch_size_mean": (front.get("batched_requests", 0)
                                     / front["batches"]
                                     if front.get("batches") else 0.0),
        "frontend.shed_rate": shed / max(1, front.get("submitted", 0) + shed),
        "frontend.generator_late_ms_p95": _ms(percentile(
            measured.extra.get("late", []), 95)) or 0.0,
    })
    return layers


def _identity(request: Dict[str, object]) -> Tuple[object, ...]:
    return (request["op"], request.get("k"), request["query"])


def _must_be_ok(response: Dict[str, object]) -> None:
    if not response.get("ok"):
        raise RunError(f"set-up request failed: {response.get('error')}")


def _set_up(workload: str, facts, path: str, warmup, handles):
    """One set-up, a step per ``yield``: the database build, the service
    (and front-end) open with warm start, then each warm-up request.
    Leaves the database, service and front-end in ``handles``."""
    database = handles["database"] = build_database(facts)
    yield
    service = handles["service"] = open_service(
        database, path, warm_start=workload != "cold_store")
    submit = service.submit
    if workload == "frontend_open":
        from repro.engine.frontend import FrontendConfig, ServingFrontend

        frontend = handles["frontend"] = ServingFrontend(
            service, FrontendConfig(workers=FRONTEND_WORKERS))
        submit = frontend.submit
    yield
    for request in with_ids(warmup, start=-len(warmup)):
        _must_be_ok(submit(request))
        yield


def timed_steps(steps) -> Tuple[float, float]:
    """Run the steps of a generator (the code between its yields) and
    return (their seconds, their seconds at reference host speed).

    The reference kernel is timed after every step, and
    :data:`SETUP_KERNEL_SAMPLES` times before the first and after the
    last; each step's time is divided by the slowdown of the samples
    nearest it.  The kernel's own time is in neither figure.
    """
    host = Timeline()
    start = time.perf_counter()

    def sample() -> None:
        host.add(time.perf_counter() - start, hostspeed.sample())

    for _ in range(SETUP_KERNEL_SAMPLES):
        sample()
    spans: List[Tuple[float, float]] = []
    while True:
        began = time.perf_counter()
        try:
            next(steps)
        except StopIteration:
            break
        spans.append((began - start, time.perf_counter() - began))
        sample()
    for _ in range(SETUP_KERNEL_SAMPLES - 1):
        sample()
    return (sum(span for _, span in spans),
            sum(span / host.slowdown_at(began + span / 2)
                for began, span in spans))


def _teardown(frontend, service) -> None:
    if frontend is not None:
        frontend.close()
    close_service(service)
