"""Query evaluation against an independent oracle: stdlib ``sqlite3``.

Random small databases and CQs/UCQs are generated as plain data, rendered
once as query text for ``repro`` and once as SQL for sqlite, and every
answer's groundings must agree.  Below the query text the oracle shares no
code with ``repro.db``: the SQL, the tables and the comparison are built
here from the generated data alone.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.datalog import parse_query
from repro.db.evaluation import evaluate_query

#: Relation names with the arity their facts have.
ARITIES = {"R": 1, "S": 2, "T": 3}
VARIABLES = ("X", "Y", "Z", "W")
VALUES = st.integers(min_value=0, max_value=2)
COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")

def _relation_facts(relation):
    arity = ARITIES[relation]
    domain = 3 ** arity
    return st.dictionaries(st.tuples(*[VALUES] * arity), st.booleans(),
                           min_size=domain // 2, max_size=domain * 3 // 4)


#: Dense relations, so that most queries have answers: a list of
#: (relation, values, endogenous).
facts_strategy = st.tuples(*map(_relation_facts, sorted(ARITIES))).map(
    lambda parts: [(relation, values, endogenous)
                   for relation, part in zip(sorted(ARITIES), parts)
                   for values, endogenous in part.items()])


@st.composite
def atoms(draw):
    relation = draw(st.sampled_from(sorted(ARITIES)))
    arity = ARITIES[relation]
    # Now and then an atom whose arity differs from its relation's facts.
    if draw(st.integers(0, 19)) == 0:
        arity += draw(st.sampled_from((-1, 1))) if arity > 1 else 1
    # Variables drawn from a small pool repeat within and across atoms,
    # and the same relation recurs (self-joins).
    variable = st.sampled_from(VARIABLES)
    terms = draw(st.lists(st.one_of(variable, variable, variable, VALUES),
                          min_size=arity, max_size=arity))
    return relation, tuple(terms)


@st.composite
def conjunctive_queries(draw, head_size):
    body = draw(st.lists(atoms(), min_size=1, max_size=4))
    variables = sorted({t for _, terms in body for t in terms
                        if isinstance(t, str)})
    if len(variables) < head_size:
        body.append(("T", tuple(VARIABLES[:3])))
        variables = sorted(set(variables) | set(VARIABLES[:3]))
    head = tuple(draw(st.permutations(variables))[:head_size])
    selections = draw(st.lists(
        st.tuples(st.sampled_from(variables), st.sampled_from(COMPARATORS),
                  VALUES), max_size=1)) if variables else []
    return head, tuple(body), tuple(selections)


queries_strategy = st.integers(0, 2).flatmap(
    lambda head_size: st.lists(conjunctive_queries(head_size),
                               min_size=1, max_size=2))


def query_text(rules) -> str:
    def term(value):
        return value if isinstance(value, str) else str(value)

    parts = []
    for head, body, selections in rules:
        elements = [f"{relation}({', '.join(term(t) for t in terms)})"
                    for relation, terms in body]
        elements += [f"{variable} {op} {constant}"
                     for variable, op, constant in selections]
        parts.append(f"Q({', '.join(head)}) :- {', '.join(elements)}")
    return " ; ".join(parts)


def _table(relation: str, arity: int) -> str:
    return f"{relation}_{arity}"


def oracle_groundings(facts, rules):
    """Per answer, the multiset of (binding, sorted facts) sqlite finds."""
    connection = sqlite3.connect(":memory:")
    try:
        tables = {(relation, len(values)) for relation, values, _ in facts}
        tables |= {(relation, len(terms)) for _, body, _ in rules
                   for relation, terms in body}
        for relation, arity in tables:
            columns = ", ".join(f"c{i}" for i in range(arity))
            connection.execute(
                f"CREATE TABLE {_table(relation, arity)} ({columns})")
        for relation, values in {(r, v) for r, v, _ in facts}:
            marks = ", ".join("?" * len(values))
            connection.execute(
                f"INSERT INTO {_table(relation, len(values))} "
                f"VALUES ({marks})", values)

        answers = {}
        for head, body, selections in rules:
            first_column = {}
            where, parameters, columns = [], [], []
            for index, (relation, terms) in enumerate(body):
                for position, term in enumerate(terms):
                    column = f"t{index}.c{position}"
                    columns.append(column)
                    if not isinstance(term, str):
                        where.append(f"{column} = ?")
                        parameters.append(term)
                    elif term in first_column:
                        where.append(f"{column} = {first_column[term]}")
                    else:
                        first_column[term] = column
            for variable, op, constant in selections:
                where.append(f"{first_column[variable]} {op} ?")
                parameters.append(constant)
            names = sorted(first_column)
            select = ([first_column[v] for v in head]
                      + [first_column[v] for v in names] + columns)
            sources = ", ".join(
                f"{_table(relation, len(terms))} AS t{index}"
                for index, (relation, terms) in enumerate(body))
            sql = (f"SELECT {', '.join(select)} FROM {sources}"
                   + (f" WHERE {' AND '.join(where)}" if where else ""))
            for row in connection.execute(sql, parameters):
                values = tuple(row[:len(head)])
                rest = row[len(head):]
                binding = tuple(zip(names, rest[:len(names)]))
                cells = iter(rest[len(names):])
                grounding = tuple(sorted(
                    (relation, tuple(next(cells) for _ in terms))
                    for relation, terms in body))
                answers.setdefault(values, Counter())[(binding, grounding)] += 1
        return answers
    finally:
        connection.close()


def repro_groundings(facts, text):
    database = Database()
    for relation, values, endogenous in facts:
        if not database.contains_fact(relation, values):
            database.add_fact(relation, values, endogenous=endogenous)
    answers = {}
    for answer in evaluate_query(parse_query(text), database):
        assert answer.values not in answers, "answer tuple listed twice"
        answers[answer.values] = Counter(
            (grounding.binding,
             tuple(sorted((f.relation, f.values) for f in grounding.facts)))
            for grounding in answer.groundings)
    return answers


@settings(max_examples=300, deadline=None)
@given(facts=facts_strategy, rules=queries_strategy)
def test_groundings_match_sqlite(facts, rules):
    assert repro_groundings(facts, query_text(rules)) == \
        oracle_groundings(facts, rules)
