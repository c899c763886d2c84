"""Fact storage with an endogenous/exogenous partition and variable registry.

A database is a set of facts over a schema.  Following the paper (and the
standard setup for fact attribution), the facts are partitioned into
*endogenous* facts -- whose contribution we want to quantify, and which carry
a propositional variable ``v(f)`` -- and *exogenous* facts, which are taken
for granted and contribute the constant 1 to the lineage.

The :class:`Database` also acts as the registry mapping endogenous facts to
consecutive integer variable ids (the variables of the lineage DNF) and back,
and keeps the hash indexes the query evaluator joins through
(:meth:`Database.index`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.db.schema import RelationSymbol, Schema

Value = object
Row = Tuple[Value, ...]
#: Rows grouped by the tuple of their values at an index's key positions.
Index = Dict[Row, List[Row]]

#: Source of :attr:`Database.token`: unique for the life of the process,
#: unlike ``id()``, which a later object may reuse.
_TOKENS = itertools.count()


@dataclass(frozen=True)
class Fact:
    """A fact ``R(c1, ..., ck)``: a relation name plus a tuple of constants."""

    relation: str
    values: Tuple[Value, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"

    def arity(self) -> int:
        """Number of values in the fact."""
        return len(self.values)


class Database:
    """An in-memory database with endogenous/exogenous facts.

    Parameters
    ----------
    schema:
        Optional schema; relations are declared on the fly when facts are
        added if no schema is given or the relation is missing.

    Attributes
    ----------
    token:
        Process-unique identity of this database object (never reused,
        unlike ``id()``).
    version:
        Number of facts inserted so far.  :meth:`add_fact` increments it
        once per *new* fact, after the fact is fully visible; re-adding an
        existing fact leaves it unchanged.  ``(token, version)`` thus names
        one state of the content, which is what per-database memos key on
        (:class:`repro.engine.cache.LineageCache`'s answer tier).
    """

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.schema = schema if schema is not None else Schema()
        self._rows: Dict[str, List[Row]] = {}
        # relation -> (arity, key positions) -> (rows indexed, index).
        self._indexes: Dict[str, Dict[Tuple[int, Tuple[int, ...]],
                                      Tuple[int, Index]]] = {}
        self._endogenous: Dict[Fact, int] = {}
        self._exogenous: set[Fact] = set()
        self._by_variable: Dict[int, Fact] = {}
        self._next_variable = 0
        self.token = next(_TOKENS)
        self.version = 0

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A copy or an unpickled database is a new object: it must not
        # share its original's token, or memos keyed on the token would
        # serve one database's answers for the other once they diverge.
        self.__dict__.update(state)
        self.token = next(_TOKENS)

    # ------------------------------------------------------------------ #
    # Fact insertion
    # ------------------------------------------------------------------ #

    def add_fact(self, relation: str, values: Sequence[Value],
                 endogenous: bool = True) -> Fact:
        """Insert a fact; returns the (possibly pre-existing) fact object.

        Inserting the same fact twice is idempotent; a fact cannot be both
        endogenous and exogenous.
        """
        fact = Fact(relation, tuple(values))
        if relation not in self.schema:
            self.schema.declare(relation, len(fact.values))
        else:
            expected = self.schema.relation(relation).arity
            if expected != fact.arity():
                raise ValueError(
                    f"fact {fact} has arity {fact.arity()}, relation declared "
                    f"with arity {expected}"
                )
        already_endogenous = fact in self._endogenous
        already_exogenous = fact in self._exogenous
        if already_endogenous or already_exogenous:
            if endogenous != already_endogenous:
                raise ValueError(
                    f"fact {fact} already present with a different "
                    "endogenous/exogenous status"
                )
            return fact
        self._rows.setdefault(relation, []).append(fact.values)
        self._indexes.pop(relation, None)
        if endogenous:
            variable = self._next_variable
            self._next_variable += 1
            self._endogenous[fact] = variable
            self._by_variable[variable] = fact
        else:
            self._exogenous.add(fact)
        # Last, so a reader that sees the new version also sees the fact.
        self.version += 1
        return fact

    def add_facts(self, relation: str, rows: Iterable[Sequence[Value]],
                  endogenous: bool = True) -> List[Fact]:
        """Insert several facts of the same relation."""
        return [self.add_fact(relation, row, endogenous=endogenous)
                for row in rows]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def rows(self, relation: str) -> Sequence[Row]:
        """All rows of a relation (empty if the relation has no facts)."""
        return tuple(self._rows.get(relation, ()))

    def index(self, relation: str, arity: int,
              positions: Tuple[int, ...]) -> Index:
        """The rows of ``relation`` with ``arity`` values, keyed by ``positions``.

        Maps the tuple of a row's values at ``positions`` to every such row,
        in insertion order.  Built from :meth:`rows` on first use and cached
        until the next :meth:`add_fact` on the relation drops it.  An index
        is published only once it is complete, so threads evaluating
        against one database never see a partial one.  Callers must not
        mutate it.
        """
        key = (arity, positions)
        cached = self._indexes.get(relation, {}).get(key)
        # Rows are only ever appended, so an index is current iff it holds
        # as many rows as the relation has.  Checking here, not only in
        # ``add_fact``, keeps an index built concurrently with an insert
        # from being used stale, without a lock on the insert path.
        if cached is not None and cached[0] == len(
                self._rows.get(relation, ())):
            return cached[1]
        rows = self.rows(relation)
        index: Index = {}
        for row in rows:
            if len(row) == arity:
                index.setdefault(tuple([row[p] for p in positions]),
                                 []).append(row)
        self._indexes.setdefault(relation, {})[key] = (len(rows), index)
        return index

    def relations(self) -> List[str]:
        """Names of relations with at least one fact."""
        return sorted(self._rows)

    def contains_fact(self, relation: str, values: Sequence[Value]) -> bool:
        """``True`` iff the database contains the fact."""
        fact = Fact(relation, tuple(values))
        return fact in self._endogenous or fact in self._exogenous

    def is_endogenous(self, fact: Fact) -> bool:
        """``True`` iff the fact is endogenous."""
        return fact in self._endogenous

    def is_exogenous(self, fact: Fact) -> bool:
        """``True`` iff the fact is exogenous."""
        return fact in self._exogenous

    def variable_of(self, fact: Fact) -> int:
        """The lineage variable id ``v(f)`` of an endogenous fact."""
        try:
            return self._endogenous[fact]
        except KeyError:
            raise KeyError(f"{fact} is not an endogenous fact") from None

    def fact_of(self, variable: int) -> Fact:
        """The endogenous fact associated with a lineage variable id."""
        try:
            return self._by_variable[variable]
        except KeyError:
            raise KeyError(f"no endogenous fact with variable id {variable}") from None

    def endogenous_facts(self) -> List[Fact]:
        """All endogenous facts, in insertion order of their variable ids."""
        return [self._by_variable[v] for v in sorted(self._by_variable)]

    def exogenous_facts(self) -> List[Fact]:
        """All exogenous facts."""
        return sorted(self._exogenous, key=repr)

    def endogenous_variables(self) -> List[int]:
        """All lineage variable ids."""
        return sorted(self._by_variable)

    def num_facts(self) -> int:
        """Total number of facts."""
        return len(self._endogenous) + len(self._exogenous)

    def __iter__(self) -> Iterator[Fact]:
        yield from self._endogenous
        yield from self._exogenous

    def __len__(self) -> int:
        return self.num_facts()

    def __repr__(self) -> str:
        return (f"Database({len(self._endogenous)} endogenous, "
                f"{len(self._exogenous)} exogenous facts, "
                f"{len(self._rows)} relations)")
