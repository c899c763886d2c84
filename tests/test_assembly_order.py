"""Canonical-space assembly against independent orderings.

Assembly reads each answer's output order off integer sort data kept on
the canonical result entry (:mod:`repro.engine.assembly`).  Here every
answer is rebuilt the slow way instead -- evaluate, canonicalize, look the
entry up, map its values back to fact variables -- and ordered with a
test-local ``(-value, variable)`` Fraction sort (attribution) or with
:func:`repro.core.ichiban.ranked_from_bounds` (rankings).  The first,
computed response and the repeated, memo-served one must both match it,
and must be identical to each other.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, parse_query
from repro.core.ichiban import ranked_from_bounds
from repro.db.lineage import lineage_of_answers
from repro.db.query import as_union
from repro.engine import Engine, EngineConfig
from repro.engine.canonical import canonicalize
from repro.workloads import academic, imdb, tpch

#: (op, k, numeric) of every checked request shape.
SHAPES = [("attribute", None, "exact")] + [
    (op, k, numeric)
    for op, k in (("rank", None), ("topk", 1), ("topk", 3))
    for numeric in ("exact", "float")]


def _warm_database():
    """The academic, IMDB and TPC-H databases at scale 1, merged."""
    database = Database()
    for module, seed in ((academic, 7), (imdb, 11), (tpch, 3)):
        source = module.generate_database(seed=seed, scale=1.0)
        for fact in source:
            database.add_fact(fact.relation, fact.values,
                              endogenous=source.is_endogenous(fact))
    return database


def _warm_queries():
    """The 21 non-Boolean queries of the three workloads."""
    return [query for module in (academic, imdb, tpch)
            for _, query in module.queries()
            if not as_union(query).is_boolean()]


class _Engines:
    """One engine per op over one shared cache, like the service."""

    def __init__(self):
        self.attribute = Engine(EngineConfig(method="auto"))
        self.rank = Engine(EngineConfig(method="rank"))
        self.topk = Engine(EngineConfig(method="topk"))
        self.rank.cache = self.topk.cache = self.attribute.cache

    def run(self, shape, query, database):
        op, k, numeric = shape
        if op == "attribute":
            return self.attribute.attribute(query, database)
        engine = self.rank if op == "rank" else self.topk
        return engine.rank(query, database, k=k, numeric=numeric)

    def memo_hits(self):
        return sum(engine.stats.answer_memo_hits
                   for engine in (self.attribute, self.rank, self.topk))


def _as_json(op, output):
    """The response payload, as the service renders it."""
    if op == "attribute":
        return json.dumps([
            [list(result.answer),
             [[str(a.fact), str(a.value), float(a.value), a.lower, a.upper]
              for a in result.attributions]]
            for result in output])
    return json.dumps([
        [list(answer),
         [[str(fact), str(entry.estimate), entry.lower, entry.upper]
          for fact, entry in entries]]
        for answer, entries in output])


def _check_order(engines, shape, query, database, output):
    """Compare every answer against the slow, independent ordering."""
    op, k, numeric = shape
    engine = {"attribute": engines.attribute, "rank": engines.rank,
              "topk": engines.topk}[op]
    method = engine.config.method
    if numeric == "float":
        method += "-float"
    answers = lineage_of_answers(query, database)
    assert len(answers) == len(output)
    for answer, produced in zip(answers, output):
        canonical = canonicalize(answer.lineage)
        entry = engine.cache.results.get(engine.cache.result_key(
            canonical.key, method, engine.config.epsilon, k))
        assert entry is not None
        mapping = canonical.from_canonical
        if op == "attribute":
            values = {mapping[v]: Fraction(value)
                      for v, value in entry.values.items()}
            expected = sorted(values, key=lambda v: (-values[v], v))
            assert produced.answer == answer.values
            assert [a.variable for a in produced.attributions] == expected
            assert [a.value for a in produced.attributions] \
                == [values[v] for v in expected]
            for attribution in produced.attributions:
                assert attribution.fact == database.fact_of(
                    attribution.variable)
        else:
            bounds = {mapping[v]: bound for v, bound in entry.bounds.items()}
            expected = ranked_from_bounds(bounds, k)
            values, entries = produced
            assert values == answer.values
            assert [(e.variable, e.interval, e.estimate) for _, e in entries] \
                == [(e.variable, e.interval, e.estimate) for e in expected]
            assert [fact for fact, _ in entries] \
                == [database.fact_of(e.variable) for e in expected]


def test_warm_queries_repeat_identically_in_reference_order():
    database = _warm_database()
    queries = _warm_queries()
    assert len(queries) == 21
    engines = _Engines()
    for query in queries:
        for shape in SHAPES:
            first = engines.run(shape, query, database)
            hits = engines.memo_hits()
            repeated = engines.run(shape, query, database)
            assert engines.memo_hits() == hits + 1, (query, shape)
            assert _as_json(shape[0], repeated) == _as_json(shape[0], first)
            _check_order(engines, shape, query, database, repeated)


#: Queries whose lineages are symmetric in many facts, so values tie.
TIE_QUERIES = [parse_query(text) for text in (
    "Q(X) :- R(X), S(X, Y)",
    "Q() :- R(X), S(X, Y), T(Y)",
    "Q(Y) :- S(X, Y), T(Y)",
    "Q() :- S(X, Y), T(Y) ; Q() :- R(X), S(X, Y)",
)]


@st.composite
def tie_databases(draw):
    """Small R/S/T databases over 3 values, inserted in a random order."""
    values = range(3)
    facts = ([("R", (x,)) for x in values if draw(st.booleans())]
             + [("S", (x, y)) for x in values for y in values
                if draw(st.booleans())]
             + [("T", (y,)) for y in values if draw(st.booleans())])
    random.Random(draw(st.integers(0, 2 ** 16))).shuffle(facts)
    exogenous = draw(st.sets(st.integers(0, max(0, len(facts) - 1)),
                             max_size=2))
    database = Database()
    for index, (relation, row) in enumerate(facts):
        database.add_fact(relation, row, endogenous=index not in exogenous)
    return database


@settings(max_examples=40, deadline=None)
@given(tie_databases())
def test_tied_values_assemble_in_reference_order(database):
    # Fresh engines, not sharing a cache: rankings then come from IchiBan's
    # own intervals as well as from exact reads.
    engines = _Engines()
    engines.rank.cache = type(engines.rank.cache)()
    engines.topk.cache = type(engines.topk.cache)()
    for query in TIE_QUERIES:
        for shape in SHAPES:
            first = engines.run(shape, query, database)
            repeated = engines.run(shape, query, database)
            assert _as_json(shape[0], repeated) == _as_json(shape[0], first)
            _check_order(engines, shape, query, database, first)
            _check_order(engines, shape, query, database, repeated)
