"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import random
import time
from fractions import Fraction

import pytest

from harness import hostspeed
from harness import workloads as W
from harness.oracle import (
    Oracle,
    OracleMismatch,
    banzhaf_values,
    check_attribute,
    check_ranking,
)
from harness.stats import percentile, quartile_spread
from harness.tracing import SpanRecorder


def _epsilon():
    from repro.engine.engine import EngineConfig

    return Fraction(EngineConfig().epsilon)


TEMPLATES = (
    "Q(X) :- R(X), S(X, Y), T(Y)",
    "Q() :- R(X), S(X, Y), T(Y)",
    "Q(Y) :- S(X, Y), T(Y)",
    "Q(X, Y) :- R(X), S(X, Y)",
    "Q(X) :- S(X, Y), S(Y, Z)",
    "Q(X) :- R(X), S(X, Y), Y >= 2",
    "Q(Y) :- S(1, Y), T(Y)",
    "Q(X) :- R(X), S(X, Y) ; Q(X) :- S(Y, X), T(X)",
    "Q() :- U(X, 'a'), R(X)",
)


def _random_facts(rng):
    facts = []
    for x in range(rng.randint(1, 4)):
        facts.append(("R", (x,), rng.random() < 0.8))
    for y in range(rng.randint(1, 4)):
        facts.append(("T", (y,), rng.random() < 0.8))
    for x in range(4):
        for y in range(4):
            if rng.random() < 0.4:
                facts.append(("S", (x, y), rng.random() < 0.9))
    for x in range(3):
        facts.append(("U", (x, rng.choice("ab")), rng.random() < 0.7))
    return facts


def _service(facts):
    from repro.db.database import Database
    from repro.engine.serve import AttributionService

    database = Database()
    for relation, values, endogenous in facts:
        database.add_fact(relation, values, endogenous=endogenous)
    return AttributionService(database)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_agrees_with_repro_on_random_databases(seed):
    rng = random.Random(seed)
    facts = _random_facts(rng)
    oracle, service = Oracle(facts), _service(facts)
    for text in TEMPLATES:
        expected = oracle.expected(text)
        check_attribute(service.submit({"op": "attribute", "query": text}),
                        expected)
        check_ranking(service.submit({"op": "rank", "query": text}),
                      expected, _epsilon())
        check_ranking(service.submit({"op": "topk", "query": text, "k": 2}),
                      expected, _epsilon(), k=2)


def test_oracle_agrees_with_repro_on_cold_classes():
    classes = W.cold_classes(5, 12)
    facts = W.cold_facts(classes)
    oracle, service = Oracle(facts), _service(facts)
    for request in W.cold_stream(5, 12):
        response = service.submit(request)
        expected = oracle.expected(request["query"])
        if request["op"] == "attribute":
            check_attribute(response, expected)
        else:
            check_ranking(response, expected, _epsilon(),
                          k=request.get("k"))


def test_brute_force_and_shannon_counts_agree():
    rng = random.Random(3)
    for _ in range(40):
        clauses = [rng.sample(range(11), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 7))]
        assert (banzhaf_values(clauses, brute_force_max_vars=20)
                == banzhaf_values(clauses, brute_force_max_vars=0))


def test_banzhaf_of_the_path_lineage():
    # r1 s12 t2 | r1 s13 with t3 absent: r1 flips 5 of the 8 subsets.
    values = banzhaf_values([(0, 1, 2), (0, 3)], brute_force_max_vars=0)
    assert values == {0: 5, 1: 1, 2: 1, 3: 3}


def test_oracle_catches_a_corrupted_value():
    facts = W.cold_facts(W.cold_classes(2, 1))
    oracle, service = Oracle(facts), _service(facts)
    text = W.COLD_QUERY.format(i=0)
    expected = oracle.expected(text)
    response = service.submit({"op": "attribute", "query": text})
    check_attribute(response, expected)
    entry = response["answers"][0]["attributions"][0]
    entry["value"] = str(Fraction(entry["value"]) + Fraction(1, 2))
    with pytest.raises(OracleMismatch):
        check_attribute(response, expected)

    ranked = service.submit({"op": "rank", "query": text})
    check_ranking(ranked, expected, _epsilon())
    top = ranked["answers"][0]["ranking"][0]
    top["lower"] = top["upper"] = top["upper"] + 1
    with pytest.raises(OracleMismatch):
        check_ranking(ranked, expected, _epsilon())


def test_oracle_catches_a_wrong_top_k_set():
    facts = [("R", (x,), True) for x in range(3)]
    facts += [("S", (0, y), True) for y in range(3)]
    facts += [("S", (1, 0), True), ("T", (0,), True)]
    oracle = Oracle(facts)
    text = "Q() :- R(X), S(X, Y), T(Y)"
    expected = oracle.expected(text)[()]
    lowest = min(expected, key=expected.get)
    value = expected[lowest]
    response = {"ok": True, "answers": [{"answer": [], "ranking": [
        {"fact": lowest, "lower": value, "upper": value}]}]}
    with pytest.raises(OracleMismatch):
        check_ranking(response, {(): expected}, _epsilon(), k=1)


def test_same_seed_gives_a_byte_identical_stream():
    def streams(seed):
        return (W.stream_digest(W.warm_stream(seed, 500)),
                W.stream_digest(W.cold_stream(seed, 200)),
                W.stream_digest(W.cold_facts(W.cold_classes(seed, 50))))

    assert streams(4) == streams(4)
    assert all(a != b for a, b in zip(streams(4), streams(5)))


def test_every_workload_reports_the_hash_of_its_inputs():
    from harness.prepare import generate

    def digest(workload, seed):
        facts, stream, _ = generate(workload, seed, 5.0)
        return W.stream_digest([stream, facts])

    for workload in ("warm_mixed", "cold_store", "frontend_open"):
        assert digest(workload, 1) == digest(workload, 1)
        assert digest(workload, 1) != digest(workload, 2)


def test_cold_classes_are_pairwise_non_isomorphic():
    classes = W.cold_classes(1, 300)
    invariants = {W.lineage_invariant(W.class_lineage(c)) for c in classes}
    assert len(invariants) == len(classes)


def test_cold_stream_serves_the_same_requests_in_every_block():
    def blocks(seed):
        stream = W.cold_stream(seed, 3 * W.COLD_BLOCK + 5)
        return [sorted((r["op"], r["query"]) for r in
                       stream[first:first + W.COLD_BLOCK])
                for first in range(0, len(stream), W.COLD_BLOCK)]

    assert blocks(1) == blocks(2)
    assert W.cold_stream(1, 200) != W.cold_stream(2, 200)


def test_open_stream_orders_the_same_cold_classes_by_seed():
    pool = W.warm_pool()
    first, cold = W.open_stream(1, 35.0, 20.0, pool)
    second, same_cold = W.open_stream(2, 35.0, 20.0, pool)
    assert cold == same_cold
    assert [due for due, _ in first] == [due for due, _ in second]
    queries = [sorted(r["query"] for _, r in events if r["query"].startswith(
        "Q() :-")) for events in (first, second)]
    assert queries[0] == queries[1] and first != second


def test_host_slowdown_comes_from_the_nearest_samples():
    timeline = hostspeed.Timeline()
    for index in range(100):
        fast = index < 50
        timeline.add(index * 0.01, hostspeed.REFERENCE_S * (1 if fast else 2))
    assert timeline.slowdown_at(0.1) == 1.0
    assert timeline.slowdown_at(0.9) == 2.0
    assert len(timeline) == 100


def test_set_up_steps_are_timed_without_the_kernel():
    from harness.runner import timed_steps

    def steps():
        for _ in range(3):
            time.sleep(0.01)
            yield

    seconds, scaled = timed_steps(steps())
    assert 0.03 <= seconds < 0.06
    assert scaled > 0


def test_warm_queries_are_the_generators_non_boolean_queries():
    from repro.db.datalog import parse_query
    from repro.workloads import academic, imdb, tpch

    theirs = [repr(query) for module in (academic, imdb, tpch)
              for _, query in module.queries() if not query.is_boolean()]
    assert [repr(parse_query(text)) for text in W.WARM_QUERIES] == theirs


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) > 0


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()

    def child():
        time.sleep(0.02)

    traced_child = recorder.wrap("child", child)

    def parent():
        traced_child()
        traced_child()
        time.sleep(0.01)

    recorder.wrap("parent", parent)()
    totals = recorder.self_times()
    assert 0.035 <= totals["child"] <= 0.08
    assert 0.008 <= totals["parent"] < 0.03
    spans = recorder.spans()[0]
    assert [span[3] for span in spans] == [-1, 0, 0]


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder()
    recorder.enabled = False
    assert recorder.wrap("x", lambda: 7)() == 7
    assert recorder.spans() == []


def test_prepared_inputs_round_trip(tmp_path):
    from harness.prepare import Inputs, generate, write

    write("cold_store", 3, 0.2, str(tmp_path))
    facts, stream, warmup = generate("cold_store", 3, 0.2)
    inputs = Inputs(str(tmp_path))
    try:
        assert inputs.facts() == facts
        assert list(inputs.stream()) == stream
        assert inputs.warmup == warmup
        assert inputs.stream_sha256 == W.stream_digest([stream, facts])
        oracle = Oracle(facts)
        for request in stream + warmup:
            assert inputs.expected(request["query"]) == oracle.expected(
                request["query"])
            assert inputs.shape(request["query"]) == (
                1, len(oracle.lineages(request["query"])[()]))
    finally:
        inputs.close()


def test_overhead_counts_the_recorders_own_cost():
    recorder = SpanRecorder()

    def leaf():
        return None

    traced_leaf = recorder.wrap("leaf", leaf)

    def request():
        for _ in range(200):
            traced_leaf()
        time.sleep(0.002)

    for _ in range(5):
        recorder.wrap("request", request)()
    overhead = recorder.overhead_pct()
    # 201 spans of a few microseconds each against ~2 ms of work.
    assert 0.5 < overhead < 200
    assert SpanRecorder().overhead_pct() == 0.0
