"""The answer memo: the answers tier of :class:`~repro.engine.cache.LineageCache`.

A repeated query against an unchanged database is served from the memo
(its answers' canonical keys and variable mappings) plus the result tier,
without evaluating anything.  These tests pin down when that may happen:
never across database versions or database objects, never for results
that were not cached (unconverged rankings, degraded deadline answers),
never across numeric tiers, k values or domain policies -- and that every
fallback returns exactly what the fast path would have.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

import repro.engine.engine as engine_module
from repro import Database, parse_query
from repro.engine import Engine, EngineConfig
from repro.engine.serve import AttributionService
from repro.engine.store import MemoryStore

QUERY = parse_query("Q(X) :- R(X), S(X, Y)")
#: Non-hierarchical: compilation must Shannon-expand.
HARD = "Q() :- R(X), S(X, Y), T(Y)"


def _database(order=None):
    facts = [("R", ("a",)), ("R", ("b",)), ("S", ("a", 1)), ("S", ("a", 2)),
             ("S", ("b", 1)), ("S", ("b", 3)), ("S", ("b", 4))]
    if order is not None:
        facts = [facts[index] for index in order]
    database = Database()
    for relation, values in facts:
        database.add_fact(relation, values)
    return database


def _hard_database():
    database = Database()
    for i in range(4):
        database.add_fact("R", (i,))
        database.add_fact("T", (i,))
        for j in range(4):
            database.add_fact("S", (i, j))
    return database


def _attributions(results):
    return [(result.answer,
             [(str(a.fact), a.variable, a.value, a.lower, a.upper)
              for a in result.attributions])
            for result in results]


def _rankings(rankings):
    return [(answer, [(str(fact), entry.variable, entry.lower, entry.upper,
                       entry.estimate) for fact, entry in entries])
            for answer, entries in rankings]


def _fresh_attribution(query, database, **config):
    return _attributions(Engine(EngineConfig(**config)).attribute(query,
                                                                  database))


@pytest.fixture
def evaluations(monkeypatch):
    """Every query evaluation the engine module runs."""
    seen = []
    original = engine_module.lineage_of_answers

    def counting(query, database, **kwargs):
        seen.append(query)
        return original(query, database, **kwargs)

    monkeypatch.setattr(engine_module, "lineage_of_answers", counting)
    return seen


class TestMemoHit:
    def test_repeat_skips_evaluation_and_counts_answers(self, evaluations):
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        first = _attributions(engine.attribute(QUERY, database))
        assert engine.stats.answer_memo_hits == 0
        assert len(evaluations) == 1
        answers, hits = engine.stats.answers, engine.stats.cache_hits
        second = _attributions(engine.attribute(QUERY, database))
        assert second == first
        assert len(evaluations) == 1
        assert engine.stats.answer_memo_hits == 1
        assert engine.stats.answers == answers + 2
        assert engine.stats.cache_hits == hits + 2
        assert engine.stats.as_dict()["answer_memo_hits"] == 1

    def test_one_entry_serves_every_op_and_k(self):
        service = AttributionService(_database())
        text = "Q(X) :- R(X), S(X, Y)"
        requests = [{"op": "attribute", "query": text},
                    {"op": "rank", "query": text},
                    {"op": "topk", "query": text, "k": 1},
                    {"op": "topk", "query": text, "k": 3}]
        first = [service.submit(request) for request in requests]
        assert len(service.cache.answers) == 1
        hits = service.stats()["answer_memo_hits"]
        assert [service.submit(request) for request in requests] == first
        assert service.stats()["answer_memo_hits"] == hits + len(requests)
        assert len(service.cache.answers) == 1

    def test_coalesce_key_fills_the_memo_for_submit(self, evaluations):
        service = AttributionService(_database())
        request = {"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)"}
        service.submit(request)
        evaluated = len(evaluations)
        parsed = service.validate_request(request)
        service.coalesce_key(parsed)
        service.submit(request)
        assert len(evaluations) == evaluated


class TestInvalidation:
    def test_endogenous_insert_invalidates(self, evaluations):
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute(QUERY, database)
        engine.attribute(QUERY, database)
        version = database.version
        database.add_fact("S", ("a", 9))
        assert database.version == version + 1
        hits = engine.stats.answer_memo_hits
        after = _attributions(engine.attribute(QUERY, database))
        assert engine.stats.answer_memo_hits == hits
        assert after == _fresh_attribution(QUERY, database, method="exact")
        assert any("S('a', 9)" == fact
                   for _, rows in after for fact, *_ in rows)

    def test_exogenous_insert_invalidates(self):
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        before = _attributions(engine.attribute(QUERY, database))
        engine.attribute(QUERY, database)
        # An exogenous S fact makes answer "b" hold on R(b) alone: its
        # lineage absorbs to the single variable of R(b).
        database.add_fact("S", ("b", 7), endogenous=False)
        hits = engine.stats.answer_memo_hits
        after = _attributions(engine.attribute(QUERY, database))
        assert engine.stats.answer_memo_hits == hits
        assert after != before
        assert after == _fresh_attribution(QUERY, database, method="exact")

    def test_readding_an_existing_fact_keeps_the_entry(self, evaluations):
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        first = _attributions(engine.attribute(QUERY, database))
        version = database.version
        database.add_fact("S", ("a", 1))
        database.add_fact("R", ("b",))
        assert database.version == version
        evaluated = len(evaluations)
        assert _attributions(engine.attribute(QUERY, database)) == first
        assert len(evaluations) == evaluated
        assert engine.stats.answer_memo_hits == 1

    def test_entry_stored_only_if_version_is_stable(self, monkeypatch):
        # An insert landing while the query evaluates must not leave an
        # entry behind: it would describe neither version.
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        original = engine_module.lineage_of_answers

        def racing(query, db, **kwargs):
            answers = original(query, db, **kwargs)
            db.add_fact("S", ("a", 5))
            return answers

        monkeypatch.setattr(engine_module, "lineage_of_answers", racing)
        engine.attribute(QUERY, database)
        assert len(engine.cache.answers) == 0


class TestIsolation:
    def test_equal_databases_never_share_entries(self):
        # Same content and version, different insertion order: the fact
        # variables differ, so a shared entry would map values onto the
        # wrong facts.
        first = _database()
        second = _database(order=[6, 5, 4, 3, 2, 1, 0])
        assert first.version == second.version
        assert first.token != second.token
        engine = Engine(EngineConfig(method="exact"))
        for _ in range(2):
            for database in (first, second):
                assert _attributions(engine.attribute(QUERY, database)) \
                    == _fresh_attribution(QUERY, database, method="exact")
        assert len(engine.cache.answers) == 2
        assert engine.stats.answer_memo_hits == 2

    def test_identical_databases_have_distinct_tokens(self):
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute(QUERY, _database())
        engine.attribute(QUERY, _database())
        assert engine.stats.answer_memo_hits == 0
        assert len(engine.cache.answers) == 2

    def test_copies_get_their_own_token(self):
        import copy
        import pickle

        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute(QUERY, database)
        assert copy.copy(database).token != database.token
        for clone in (copy.deepcopy(database),
                      pickle.loads(pickle.dumps(database))):
            assert clone.token != database.token
            assert clone.version == database.version
            # A clone that diverges must never be served the original's
            # answers: it starts with its own memo entry.
            clone.add_fact("S", ("a", 8))
            clone.version = database.version
            assert _attributions(engine.attribute(QUERY, clone)) \
                == _fresh_attribution(QUERY, clone, method="exact")
        assert engine.stats.answer_memo_hits == 0

    def test_tiers_and_k_never_alias(self):
        database = _hard_database()
        query = parse_query(HARD)
        shared = Engine(EngineConfig(method="topk"))
        settings = [(k, numeric) for k in (1, 3, 5)
                    for numeric in ("exact", "float")]
        expected = {
            setting: _rankings(Engine(EngineConfig(method="topk")).rank(
                query, database, k=setting[0], numeric=setting[1]))
            for setting in settings}
        for _ in range(2):
            for k, numeric in settings:
                assert _rankings(shared.rank(query, database, k=k,
                                             numeric=numeric)) \
                    == expected[(k, numeric)]
        assert len(shared.cache.answers) == 1
        assert shared.stats.answer_memo_hits >= len(settings)

    def test_domain_policies_never_alias(self):
        database = _database()
        database.add_fact("U", ("unused",))
        lineage = Engine(EngineConfig(method="exact"))
        widened = Engine(EngineConfig(method="exact", domain="database"))
        widened.cache = lineage.cache
        expected_lineage = _fresh_attribution(QUERY, database,
                                              method="exact")
        expected_database = _fresh_attribution(QUERY, database,
                                               method="exact",
                                               domain="database")
        assert expected_lineage != expected_database
        for _ in range(2):
            assert _attributions(lineage.attribute(QUERY, database)) \
                == expected_lineage
            assert _attributions(widened.attribute(QUERY, database)) \
                == expected_database
        assert len(lineage.cache.answers) == 2


class TestNeverServedFromTheMemo:
    def test_unconverged_ranking_is_recomputed(self):
        database = _hard_database()
        query = parse_query(HARD)
        engine = Engine(EngineConfig(method="rank", epsilon=0.001,
                                     max_shannon_steps=5))
        first = engine.rank(query, database)
        assert engine.stats.partial_results == 1
        second = engine.rank(query, database)
        assert engine.stats.partial_results == 2
        assert engine.stats.answer_memo_hits == 0
        assert _rankings(second) == _rankings(first)

    def test_degraded_deadline_response_is_recomputed(self):
        service = AttributionService(
            _hard_database(), EngineConfig(method="exact",
                                           max_shannon_steps=0))
        request = {"op": "attribute", "query": HARD, "deadline_ms": 60000}
        first = service.submit(request)
        assert first["degraded"] is True and first["partial"] is True
        # The repeat degrades again (its best-effort pass may read a tree
        # the first attempt left behind, so its bounds can differ).
        second = service.submit(request)
        assert second["degraded"] is True and second["partial"] is True
        report = service.stats()
        assert report["requests_degraded"] == 2
        assert report["answer_memo_hits"] == 0

    def test_partial_rank_deadline_response_is_recomputed(self):
        service = AttributionService(
            _hard_database(), EngineConfig(method="exact",
                                           max_shannon_steps=0))
        request = {"op": "rank", "query": HARD, "deadline_ms": 60000}
        assert service.submit(request)["degraded"] is True
        assert service.submit(request)["degraded"] is True
        assert service.stats()["answer_memo_hits"] == 0


class TestFallback:
    def test_evicted_results_fall_back_identically(self):
        database = _database()
        engine = Engine(EngineConfig(method="exact"))
        first = _attributions(engine.attribute(QUERY, database))
        engine.attribute(QUERY, database)
        assert engine.stats.answer_memo_hits == 1
        engine.cache.results.clear()
        misses = engine.stats.cache_misses
        assert _attributions(engine.attribute(QUERY, database)) == first
        assert engine.stats.answer_memo_hits == 1
        assert engine.stats.cache_misses > misses
        assert _attributions(engine.attribute(QUERY, database)) == first
        assert engine.stats.answer_memo_hits == 2

    def test_result_tier_smaller_than_the_answers(self):
        # Two non-isomorphic answers, room for one result: the memo always
        # hits and the result tier always misses one, so every call takes
        # the fallback -- and returns the same values.
        database = _database()
        engine = Engine(EngineConfig(method="exact", cache_size=1))
        first = _attributions(engine.attribute(QUERY, database))
        for _ in range(3):
            assert _attributions(engine.attribute(QUERY, database)) == first
        assert engine.stats.answer_memo_hits == 0

    def test_results_only_in_the_store_fall_back(self):
        database = _database()
        engine = Engine(EngineConfig(method="exact", store=MemoryStore()))
        first = _attributions(engine.attribute(QUERY, database))
        engine.cache.results.clear()
        assert _attributions(engine.attribute(QUERY, database)) == first
        assert engine.stats.store_hits == 2
        assert engine.stats.answer_memo_hits == 0
        # The store hits were promoted: the next call is a memo hit.
        assert _attributions(engine.attribute(QUERY, database)) == first
        assert engine.stats.answer_memo_hits == 1


@pytest.mark.concurrency
def test_no_submit_after_an_insert_serves_the_old_answers():
    database = Database()
    database.add_fact("R", (0,))
    service = AttributionService(database)
    request = {"op": "attribute", "query": "Q(X) :- R(X)"}
    stop = threading.Event()
    failures = []

    def hammer():
        while not stop.is_set():
            response = service.submit(request)
            if not response["ok"]:
                failures.append(response)

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    interval = sys.getswitchinterval()
    # Frequent thread switches put inserts between evaluation and the
    # memo's version check as often as possible.
    sys.setswitchinterval(1e-5)
    for thread in threads:
        thread.start()
    try:
        rng = random.Random(0)
        for value in range(1, 40):
            database.add_fact("R", (value,))
            if rng.random() < 0.3:
                # A re-insert changes nothing and must not matter either.
                database.add_fact("R", (rng.randrange(value),))
            response = service.submit(request)
            answers = sorted(answer["answer"][0]
                             for answer in response["answers"])
            assert answers == list(range(value + 1))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert service.stats()["answer_memo_hits"] > 0
