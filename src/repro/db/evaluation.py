"""Query evaluation producing answer tuples and their groundings.

The evaluator is an index nested-loop join.  Atoms are joined in a greedy
order (:func:`_orderly_atoms`).  Before the join, each atom is planned once:
the positions whose value is known when the atom is reached -- constants and
variables bound by earlier atoms -- become the key of a hash index, and the
plan records which variables the atom binds, which repeated-variable
positions must hold equal values, and which selections become checkable.
Each recursion step is then one dict lookup that yields exactly the rows a
scan would have matched, in insertion order, so answers and groundings come
out in scan order.

The indexes live on the :class:`~repro.db.database.Database`, one per
(relation, atom arity, key positions).  Each is built from
``Database.rows`` on first use and published only once complete (threads
may evaluate against one database).  ``add_fact`` drops the indexes of its
relation, and an index is used only while the relation still has the
number of rows it was built from, so a later evaluation always sees the new
fact.

Besides the answer tuples the evaluator returns, for every answer,
the list of *groundings*: total assignments of the query variables to
constants under which every atom is matched by a database fact.  Each
grounding corresponds to one clause of the answer's lineage (Example 6 of the
paper), so the lineage builder consumes groundings directly.

Atoms are matched against both endogenous and exogenous facts; the
distinction only matters when the lineage is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.db.database import Database, Fact, Index, Row
from repro.db.query import (
    Atom,
    ConjunctiveQuery,
    Query,
    QueryVariable,
    Selection,
    as_union,
)

Value = object
#: A partial binding: the query's constants, then variable values by slot.
Binding = Tuple[Value, ...]


@dataclass(frozen=True)
class Grounding:
    """One way of satisfying a CQ: a variable binding plus the matched facts."""

    binding: Tuple[Tuple[str, Value], ...]
    facts: Tuple[Fact, ...]

    def as_dict(self) -> Dict[str, Value]:
        """The binding as a plain dict keyed by variable name."""
        return dict(self.binding)


@dataclass
class AnswerTuple:
    """An output tuple together with all groundings that produce it."""

    values: Tuple[Value, ...]
    groundings: List[Grounding]

    def __repr__(self) -> str:
        return f"AnswerTuple({self.values}, {len(self.groundings)} groundings)"


def _orderly_atoms(query: ConjunctiveQuery) -> List[Atom]:
    """Order atoms to bind variables early (simple greedy join order).

    Starts from the atom with the fewest variables and repeatedly picks the
    atom sharing the most variables with those already placed.
    """
    remaining = list(query.atoms)
    ordered: List[Atom] = []
    bound: set[QueryVariable] = set()
    while remaining:
        def score(candidate: Atom) -> Tuple[int, int]:
            variables = candidate.variables()
            return (len(variables & bound), -len(variables - bound))

        best = max(remaining, key=score) if ordered else min(
            remaining, key=lambda a: len(a.variables()))
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _projection(positions: Sequence[int]) -> Callable[[Sequence[Value]],
                                                     Tuple[Value, ...]]:
    """A function returning the tuple of a sequence's items at ``positions``."""
    if not positions:
        return lambda _: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return operator.itemgetter(*positions)


@dataclass(frozen=True)
class _Step:
    """How one atom extends a partial binding (a tuple in slot order)."""

    relation: str
    index: Index
    #: The index key (constants and earlier variables), from the binding.
    key: Callable[[Binding], Tuple[Value, ...]]
    #: The values of the variables first bound here, from the row.
    binds: Callable[[Row], Tuple[Value, ...]]
    #: Row position pairs that must hold equal values (repeated variables).
    equal: Tuple[Tuple[int, int], ...]
    #: Selections on variables first bound here, with their slot.
    selections: Tuple[Tuple[int, Selection], ...]


def _plan(query: ConjunctiveQuery, database: Database
          ) -> Tuple[List[_Step], Binding, Dict[QueryVariable, int]]:
    """One step per atom in join order, the initial binding, and the slots.

    The binding holds the query's constants in its first slots and each
    variable's value in the slot after those bound before it, so an index
    key is a projection of the binding.
    """
    atoms = _orderly_atoms(query)
    constants = tuple(term for current in atoms for term in current.terms
                      if not isinstance(term, QueryVariable))
    constant_slots = iter(range(len(constants)))
    slot: Dict[QueryVariable, int] = {}
    steps: List[_Step] = []
    next_slot = len(constants)
    for current in atoms:
        key_positions: List[int] = []
        key_slots: List[int] = []
        bind_positions: List[int] = []
        first_position: Dict[QueryVariable, int] = {}
        equal: List[Tuple[int, int]] = []
        for position, term in enumerate(current.terms):
            if not isinstance(term, QueryVariable):
                key_positions.append(position)
                key_slots.append(next(constant_slots))
            elif term in slot:
                key_positions.append(position)
                key_slots.append(slot[term])
            elif term in first_position:
                equal.append((first_position[term], position))
            else:
                first_position[term] = position
                bind_positions.append(position)
        for term in first_position:
            slot[term] = next_slot
            next_slot += 1
        steps.append(_Step(
            relation=current.relation,
            index=database.index(current.relation, len(current.terms),
                                 tuple(key_positions)),
            key=_projection(key_slots),
            binds=_projection(bind_positions),
            equal=tuple(equal),
            selections=tuple((slot[selection.variable], selection)
                             for selection in query.selections
                             if selection.variable in first_position),
        ))
    return steps, constants, slot


def evaluate_cq(query: ConjunctiveQuery, database: Database) -> List[AnswerTuple]:
    """Evaluate a conjunctive query, returning answers with their groundings.

    For a Boolean query the single possible answer is the empty tuple; it is
    returned iff the query is satisfied, with all its groundings.
    """
    steps, constants, slot = _plan(query, database)
    head = _projection([slot[variable] for variable in query.head])
    named = sorted((variable.name, position)
                   for variable, position in slot.items())
    names = tuple(name for name, _ in named)
    named_values = _projection([position for _, position in named])
    answers: Dict[Tuple[Value, ...], AnswerTuple] = {}

    def recurse(depth: int, binding: Binding, used: Tuple[Fact, ...]) -> None:
        if depth == len(steps):
            key = head(binding)
            answer = answers.get(key)
            if answer is None:
                answer = AnswerTuple(values=key, groundings=[])
                answers[key] = answer
            answer.groundings.append(Grounding(
                binding=tuple(zip(names, named_values(binding))), facts=used))
            return
        step = steps[depth]
        for row in step.index.get(step.key(binding), ()):
            if step.equal and any(row[first] != row[later]
                                  for first, later in step.equal):
                continue
            extended = binding + step.binds(row)
            if step.selections and not all(
                    selection.holds(extended[position])
                    for position, selection in step.selections):
                continue
            recurse(depth + 1, extended,
                    used + (Fact(step.relation, row),))

    recurse(0, constants, ())
    return list(answers.values())


def evaluate_query(query: Query, database: Database) -> List[AnswerTuple]:
    """Evaluate a CQ or UCQ; groundings of all disjuncts are merged per tuple."""
    union = as_union(query)
    merged: Dict[Tuple[Value, ...], AnswerTuple] = {}
    for disjunct in union.disjuncts:
        for answer in evaluate_cq(disjunct, database):
            existing = merged.get(answer.values)
            if existing is None:
                merged[answer.values] = answer
            else:
                existing.groundings.extend(answer.groundings)
    return list(merged.values())


def boolean_query_holds(query: Query, database: Database) -> bool:
    """``True`` iff a Boolean query is satisfied by the database."""
    union = as_union(query)
    if not union.is_boolean():
        raise ValueError("boolean_query_holds expects a Boolean query")
    return bool(evaluate_query(union, database))
