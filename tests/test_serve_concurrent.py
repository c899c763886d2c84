"""Concurrency tests for the serving front-end (repro.engine.frontend).

The load-bearing claims, each pinned here:

* **Correctness under concurrency**: N client threads hammering one
  front-end get bit-identical ``Fraction`` values to serial execution --
  coalescing and micro-batching are pure compute-sharing, never
  approximations.
* **Exactly-once computation**: overlapping isomorphic workloads compile
  each distinct canonical lineage once; the sharing shows up in the
  ``coalesced_requests`` counter.
* **No lost or duplicated responses**: every submitted request produces
  exactly one response, routed back via its ``id``.

The workloads mix *textually different but WL-isomorphic* queries
(same lineage shape over differently-named relations) to prove that the
coalescing key is canonical, not textual.
"""

import io
import itertools
import json
import threading
import time
from fractions import Fraction

import pytest

import repro.engine.engine as engine_module
from repro import Database
from repro.engine.engine import Engine
from repro.engine.frontend import (
    FrontendConfig,
    ServingFrontend,
    serve_jsonl_concurrent,
)
from repro.engine.serve import AttributionService

pytestmark = pytest.mark.concurrency


@pytest.fixture
def database():
    """Two isomorphism classes: R-S joins (shape A) and three-way joins
    (shape B), each duplicated over twin relations so textually different
    queries share canonical lineages."""
    db = Database()
    for value in ("a", "b", "c"):
        db.add_fact("R", (value,))
        db.add_fact("R2", (value,))
    for row in (("a", 1), ("b", 1), ("c", 2)):
        db.add_fact("S", row)
        db.add_fact("S2", row)
        db.add_fact("T", row)
    return db


#: Shape A: textually different, WL-isomorphic (same lineage over twins).
QUERY_A = "Q(X) :- R(X), S(X, Y)"
QUERY_A_ISO = "Q(X) :- R2(X), S2(X, Y)"
#: Shape B: a different isomorphism class (three atoms per clause).
QUERY_B = "Q(X) :- R(X), S(X, Y), T(X, Z)"


def _run_concurrent(service, requests, workers=4, **config_kwargs):
    """Fan the requests out from one client thread each; returns the
    responses indexed by request id."""
    frontend = ServingFrontend(
        service, FrontendConfig(workers=workers, max_queue=len(requests),
                                **config_kwargs))
    responses = {}
    lock = threading.Lock()

    def client(request):
        response = frontend.submit(request)
        with lock:
            assert response["id"] not in responses, "duplicated response id"
            responses[response["id"]] = response

    threads = [threading.Thread(target=client, args=(request,))
               for request in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frontend.close()
    return frontend, responses


def _fractions(response):
    """The exact per-answer Fractions of an attribute response, keyed so
    responses of the same query compare positionally."""
    return [
        [(entry["fact"], Fraction(entry["value"]))
         for entry in answer["attributions"]]
        for answer in response["answers"]
    ]


class TestBitIdenticalResults:
    def test_concurrent_equals_serial(self, database):
        queries = [QUERY_A, QUERY_A_ISO, QUERY_B]
        serial = AttributionService(database)
        expected = {query: serial.submit({"op": "attribute", "query": query})
                    for query in queries}

        requests = [{"op": "attribute", "query": queries[i % 3], "id": i}
                    for i in range(24)]
        _, responses = _run_concurrent(AttributionService(database),
                                       requests, workers=6)
        assert len(responses) == 24
        for request in requests:
            response = responses[request["id"]]
            assert response["ok"] is True
            assert _fractions(response) == _fractions(
                expected[request["query"]])

    def test_rank_and_topk_concurrent_equal_serial(self, database):
        serial = AttributionService(database)
        expected_rank = serial.submit({"op": "rank", "query": QUERY_B})
        expected_topk = serial.submit({"op": "topk", "query": QUERY_B,
                                       "k": 2})
        requests = []
        for i in range(16):
            if i % 2:
                requests.append({"op": "rank", "query": QUERY_B, "id": i})
            else:
                requests.append({"op": "topk", "query": QUERY_B, "k": 2,
                                 "id": i})
        _, responses = _run_concurrent(AttributionService(database),
                                       requests)
        for request in requests:
            response = responses[request["id"]]
            assert response["ok"] is True
            expected = expected_rank if request["op"] == "rank" \
                else expected_topk
            assert response["answers"] == expected["answers"]


class TestExactlyOnceComputation:
    def test_isomorphic_traffic_compiles_once_per_class(self, database):
        # Serial ground truth: how many fresh computations the workload
        # needs at all (one per canonical lineage per method config).
        serial = AttributionService(database)
        for query in (QUERY_A, QUERY_A_ISO, QUERY_B):
            serial.submit({"op": "attribute", "query": query})
        required = serial.stats_counters.compilations

        service = AttributionService(database)
        requests = [
            {"op": "attribute",
             "query": (QUERY_A, QUERY_A_ISO, QUERY_B)[i % 3], "id": i}
            for i in range(30)
        ]
        frontend, responses = _run_concurrent(service, requests, workers=6)
        assert all(r["ok"] for r in responses.values())
        # 10x the traffic, identical compute: every duplicate was served
        # by the cache, a single-flight leader, or an in-batch dedup.
        assert service.stats_counters.compilations == required
        report = frontend.stats()
        assert report["completed"] == 30
        assert report["shed"] == {"queue_full": 0, "client_budget": 0,
                                  "deadline": 0}

    def test_coalesce_counter_reports_sharing(self, database):
        service = AttributionService(database)
        # Identical requests racing through many workers: whoever is not
        # the leader (or a pure cache hit after the first completion)
        # must be accounted as coalesced or batched.
        requests = [{"op": "attribute", "query": QUERY_B, "id": i}
                    for i in range(12)]
        frontend, responses = _run_concurrent(service, requests, workers=6,
                                              batch_max=1)
        assert all(r["ok"] for r in responses.values())
        assert service.stats_counters.compilations == 1
        # The counter only covers requests that *waited* on the leader
        # (late arrivals hit the warm cache without coalescing), so it
        # is workload-dependent -- but the shared counter and the
        # front-end's own view must agree.
        assert (service.stats_counters.coalesced_requests
                == frontend.stats()["coalesced"])

    def test_no_coalesce_recomputes(self, database):
        service = AttributionService(database)
        barrier = threading.Barrier(4)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=4, coalesce=False, batch_max=1))
        responses = []
        lock = threading.Lock()

        def client():
            barrier.wait()
            response = frontend.submit({"op": "attribute",
                                        "query": QUERY_B})
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        frontend.close()
        assert all(r["ok"] for r in responses)
        assert service.stats_counters.coalesced_requests == 0
        # Without coalescing, racing identical requests may (and with 4
        # workers virtually always do) compute redundantly -- the
        # baseline the coalescing path exists to beat.  Results stay
        # identical either way.
        assert service.stats_counters.compilations >= 1
        first = _fractions(responses[0])
        assert all(_fractions(r) == first for r in responses[1:])


class TestResponseDelivery:
    def test_every_request_gets_exactly_one_response(self, database):
        service = AttributionService(database)
        requests = []
        for i in range(40):
            kind = i % 4
            if kind == 0:
                requests.append({"op": "attribute", "query": QUERY_A,
                                 "id": i})
            elif kind == 1:
                requests.append({"op": "rank", "query": QUERY_A, "id": i})
            elif kind == 2:
                requests.append({"op": "topk", "query": QUERY_B, "k": 1,
                                 "id": i})
            else:
                requests.append({"op": "attribute", "query": QUERY_A_ISO,
                                 "id": i})
        _, responses = _run_concurrent(service, requests, workers=8)
        assert sorted(responses) == list(range(40))
        assert all(r["ok"] for r in responses.values())
        assert all(responses[i]["id"] == i for i in responses)

    def test_jsonl_concurrent_preserves_input_order(self, database):
        service = AttributionService(database)
        lines = [json.dumps({"op": "attribute",
                             "query": (QUERY_A, QUERY_A_ISO)[i % 2],
                             "id": i})
                 for i in range(12)]
        import io
        output = io.StringIO()
        assert serve_jsonl_concurrent(service, lines, output,
                                      FrontendConfig(workers=4)) is True
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [row["id"] for row in rows] == list(range(12))

    def test_batching_disabled_still_serves_everything(self, database):
        service = AttributionService(database)
        requests = [{"op": "attribute", "query": QUERY_A, "id": i}
                    for i in range(10)]
        frontend, responses = _run_concurrent(service, requests,
                                              workers=2, batch_max=1)
        assert len(responses) == 10
        assert frontend.stats()["batches"] == 0

    def test_jsonl_streams_responses_before_eof(self, database):
        """Responses must be emitted as they finish, not buffered until
        the input is exhausted -- an interactive client sends its next
        line only after seeing the previous answer."""
        service = AttributionService(database)
        output = io.StringIO()

        def interactive_lines():
            yield json.dumps({"op": "attribute", "query": QUERY_A,
                              "id": 0}) + "\n"
            deadline = time.monotonic() + 20
            while "\n" not in output.getvalue():
                assert time.monotonic() < deadline, (
                    "no response streamed before the next input line")
                time.sleep(0.01)
            yield json.dumps({"op": "attribute", "query": QUERY_B,
                              "id": 1}) + "\n"

        assert serve_jsonl_concurrent(service, interactive_lines(), output,
                                      FrontendConfig(workers=2)) is True
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [row["id"] for row in rows] == [0, 1]
        assert all(row["ok"] for row in rows)

    def test_close_is_idempotent_and_flushes(self, database):
        service = AttributionService(database)
        frontend = ServingFrontend(service, FrontendConfig(workers=2))
        assert frontend.submit({"op": "attribute", "query": QUERY_A})["ok"]
        frontend.close()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.submit({"op": "attribute", "query": QUERY_A})


class TestLeftoverServing:
    def test_crossed_leftovers_do_not_deadlock(self, database, monkeypatch):
        """Two leaders whose batch-drained leftovers follow *each other's*
        coalesce keys must both complete.

        Regression: leftovers used to be served before the leader's
        single-flight key was released, so two workers whose leftovers
        waited on each other's still-held keys hung forever.  The
        orchestration pins exactly that interleaving: both leaders are
        held at a barrier inside their computations, guaranteeing both
        keys are registered before either leftover is served.
        """
        service = AttributionService(database)
        original_rank = Engine.rank
        original_attribute = Engine.attribute
        rank_count = itertools.count()
        rank_started = [threading.Event(), threading.Event()]
        rank_release = [threading.Event(), threading.Event()]
        attribute_started = threading.Semaphore(0)
        compute_barrier = threading.Barrier(2, timeout=30)

        def gated_rank(engine, query, db, **kwargs):
            index = next(rank_count)
            rank_started[index].set()
            assert rank_release[index].wait(timeout=30)
            return original_rank(engine, query, db, **kwargs)

        def synced_attribute(engine, query, db, **kwargs):
            attribute_started.release()
            compute_barrier.wait()
            return original_attribute(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "rank", gated_rank)
        monkeypatch.setattr(Engine, "attribute", synced_attribute)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=2, max_queue=8, coalesce=True,
                                    batch_max=8))
        try:
            # Occupy both workers with gated rank computations so the
            # four attribute tickets below are queued, not picked up.
            warmup_a = frontend.submit_nowait({"op": "rank",
                                               "query": QUERY_A})
            assert rank_started[0].wait(timeout=30)
            warmup_b = frontend.submit_nowait({"op": "rank",
                                               "query": QUERY_B})
            assert rank_started[1].wait(timeout=30)

            # Queue order: leader 1 (exact A) drains leftover (approx B);
            # leader 2 (approx B) drains leftover (exact A).  Each
            # leftover coalesces with the *other* worker's leader key.
            tickets = [frontend.submit_nowait(request) for request in (
                {"op": "attribute", "query": QUERY_A, "method": "exact",
                 "id": "leader-1"},
                {"op": "attribute", "query": QUERY_B,
                 "method": "approximate", "id": "leftover-1"},
                {"op": "attribute", "query": QUERY_B,
                 "method": "approximate", "id": "leader-2"},
                {"op": "attribute", "query": QUERY_A, "method": "exact",
                 "id": "leftover-2"},
            )]

            # Release worker 1 alone: it takes leader-1 and drains
            # leftover-1 before worker 2 can steal it, then blocks at the
            # barrier inside its computation (key registered, held).
            rank_release[0].set()
            assert warmup_a.result(timeout=30)["ok"] is True
            assert attribute_started.acquire(timeout=30)
            # Release worker 2: it takes leader-2, drains leftover-2, and
            # joins the barrier -- both keys held, both leftovers pending.
            rank_release[1].set()
            assert warmup_b.result(timeout=30)["ok"] is True

            responses = [ticket.result(timeout=30) for ticket in tickets]
            assert all(response["ok"] is True for response in responses)
            assert sorted(response["id"] for response in responses) == [
                "leader-1", "leader-2", "leftover-1", "leftover-2"]
        finally:
            rank_release[0].set()
            rank_release[1].set()
            frontend.close()


class TestBatchEvaluationSharing:
    def test_batch_accounting_does_not_reevaluate_queries(
            self, database, monkeypatch):
        """Micro-batch coalesce accounting must not run query evaluation
        per member: the front-end's duplicate counting rides on request
        identity instead of a ``lineage_of_answers`` pass per batchmate,
        and batchmates repeating a query are served from the answer
        memo."""
        service = AttributionService(database)
        evaluations = []
        original_evaluate = engine_module.lineage_of_answers

        def counting_evaluate(query, db, **kwargs):
            evaluations.append(query)
            return original_evaluate(query, db, **kwargs)

        monkeypatch.setattr(engine_module, "lineage_of_answers",
                            counting_evaluate)

        release = threading.Event()
        started = threading.Event()
        original_attribute = Engine.attribute

        def gated_attribute(engine, query, db, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return original_attribute(engine, query, db, **kwargs)

        monkeypatch.setattr(Engine, "attribute", gated_attribute)
        frontend = ServingFrontend(
            service, FrontendConfig(workers=1, max_queue=8, coalesce=True,
                                    batch_max=8))
        try:
            blocker = frontend.submit_nowait({"op": "attribute",
                                              "query": QUERY_B})
            assert started.wait(timeout=30)
            batched = [frontend.submit_nowait(
                {"op": "attribute", "query": QUERY_A, "id": i})
                for i in range(3)]
            release.set()
            assert blocker.result(timeout=30)["ok"] is True
            responses = [ticket.result(timeout=30) for ticket in batched]
            assert all(response["ok"] is True for response in responses)
            report = frontend.stats()
            assert report["batches"] == 1
            assert report["batched_requests"] == 3
            # Textually identical batchmates are counted as coalesced.
            assert report["coalesced"] == 2
            # Two evaluations per distinct query: its coalesce key, and
            # the first engine pass, whose memo hit finds no cached results
            # yet and re-evaluates to compute them.  The two batchmates
            # after the leader hit the memo; accounting evaluates nothing.
            assert len(evaluations) == 4
        finally:
            release.set()
            frontend.close()
