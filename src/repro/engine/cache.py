"""LRU cache of attribution results keyed by canonical lineage.

The cache stores the *outcome* of attributing one canonical lineage with one
method configuration: the per-variable values (in canonical variable space),
the optional bounds, and which method actually produced them (relevant for
``auto``, where the engine may have fallen back from ExaBan to AdaBan, and
for the ranking methods, where a cached complete d-tree yields an exact
result).  Ranking entries store the full per-variable interval map, so one
entry serves any downstream ranking or top-k read.
Because entries live in canonical space they are shared by every answer --
of any query -- whose lineage is isomorphic.

Compiled d-trees live in a third, method-independent tier: the
compiled-lineage **artifact** cache (:mod:`repro.engine.artifact`), keyed
by canonical lineage *alone* — no method, no epsilon, no k — because a
d-tree is a function of the lineage and nothing else.  Complete and
partial (resumable) artifacts both live there; since they are exactly
serializable they also flow through the persistent store tier, so
compilation survives process restarts exactly like results do.

A third bounded tier, **answers**, memoizes query evaluation itself: per
``(query, database token, database version, domain policy)`` it keeps each
answer's values, canonical key and canonical-to-fact variable mapping
(:data:`AnswerKeys`) -- no lineages, no canonical DNFs -- so a repeated
query against an unchanged database reaches the result tier without
evaluating or canonicalizing anything.  The key carries no method, epsilon
or k, so every op over one query shares one entry; inserting a fact bumps
the database version and thereby retires every entry of the old state
(see :func:`repro.engine.engine.answer_keys`).

Since the store tier (:mod:`repro.engine.store`) this cache is the *first*
of two result tiers: the engine falls through memory -> store -> compute,
promoting store hits back into this LRU, and :meth:`LRUCache.snapshot`
exists so a warm memory tier can be persisted wholesale (``repro cache
save``).  Entries here and in any store share the same :data:`ResultKey`
and the same canonical variable space.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Generic, Hashable, Optional, Tuple, TypeVar, Union

from repro.engine.canonical import CanonicalKey

#: Cache key of a result: canonical lineage plus the method configuration
#: that produced it (epsilon for every epsilon-dependent method, k for
#: top-k).  The epsilon slot carries the *canonical* exact encoding
#: produced by :func:`canonical_epsilon` — an exact ``Fraction`` — never
#: a raw float, so equivalent configurations can neither split nor alias
#: entries across tiers or processes.
ResultKey = Tuple[CanonicalKey, str, Optional[Fraction], Optional[int]]


def canonical_epsilon(epsilon: Union[float, int, Fraction, None]
                      ) -> Optional[Fraction]:
    """One exact canonical encoding of an epsilon (``None`` passes through).

    Floats are expanded to their exact binary value (``Fraction(0.1)``,
    not the decimal 1/10), so the encoding is lossless and two epsilons
    key the same entry iff they denote the same number — regardless of
    which numeric type, process, or tier produced them.  Python's
    cross-type numeric hashing makes the ``Fraction`` hash/compare equal
    to the float it came from, so canonical keys interoperate with
    float-carrying callers.
    """
    if epsilon is None:
        return None
    return Fraction(epsilon)

#: One answer of a memoized query evaluation: the answer's values, the
#: canonical key of its lineage, and ``from_canonical`` as a tuple
#: (canonical variable ``i`` is fact variable ``from_canonical[i]``).
AnswerKey = Tuple[Tuple[object, ...], CanonicalKey, Tuple[int, ...]]
#: Value of the answers tier: one :data:`AnswerKey` per answer, in answer
#: order.
AnswerKeys = Tuple[AnswerKey, ...]

#: Methods whose cached values depend on epsilon: ``approximate`` outright,
#: ``auto`` through its AdaBan fallback (each Engine pins one epsilon, but
#: the key must not rely on that), ``rank``/``topk`` through their anytime
#: stopping rules.
_EPSILON_METHODS = ("approximate", "auto", "rank", "topk")

_V = TypeVar("_V")


@dataclass(frozen=True)
class CachedAttribution:
    """One memoized attribution, in canonical variable space.

    Attributes
    ----------
    method_used:
        The algorithm that produced the values (``"exact"``,
        ``"approximate"`` or ``"shapley"``); under ``auto`` this records
        which side of the fallback ran.
    values:
        Canonical variable id -> attribution value.
    bounds:
        Canonical variable id -> (lower, upper) certificate, present for
        exact (degenerate interval) and approximate results.
    """

    method_used: str
    values: Dict[int, Fraction]
    bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: ``False`` for best-so-far ranking results whose anytime run exhausted
    #: its budget; such entries are never written to the cache.
    converged: bool = True

    #: Sort data of canonical-space assembly (:mod:`repro.engine.assembly`),
    #: set on the instance the first time the entry is assembled as an
    #: attribution or as a ranking.  Not dataclass fields: they take no
    #: part in equality, ``repr`` or the store codec, and they live and
    #: die with the entry.
    _attribution_order = None
    _ranking_order = None


class LRUCache(Generic[_V]):
    """A minimal ordered-dict LRU with explicit capacity.

    Individual operations are lock-protected, so concurrent readers and
    writers (e.g. threads sharing one engine through ``attribute_facts``)
    can never corrupt the structure; the worst cross-thread outcome is a
    duplicated computation whose identical result is stored twice.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("cache capacity must be positive")
        self._max_entries = max_entries
        self._entries: "OrderedDict[Hashable, _V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[_V]:
        """Return the cached value and refresh its recency (``None`` on miss)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: _V) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()

    def snapshot(self):
        """List of ``(key, value)`` pairs, least recently used first.

        A point-in-time copy: safe to iterate while other threads keep
        using the cache.  Feeding the pairs into another cache in order
        preserves the recency ranking (the most recently used entry is
        inserted last).
        """
        with self._lock:
            return list(self._entries.items())


class LineageCache:
    """The engine's memo tiers: results, compiled artifacts and answers.

    Result entries are small (per-variable Fractions keyed by tuples of int
    tuples), so the default of 4096 is only a few megabytes for typical
    workload lineages.  Compiled-lineage artifacts
    (:class:`~repro.engine.artifact.CompiledLineage`: a complete d-tree,
    or a partial one plus its resumable frontier) can be arbitrarily
    large object graphs, so they get a much smaller independent bound
    (``artifact_entries``).  Artifacts are keyed by
    :data:`~repro.engine.canonical.CanonicalKey` alone — one compilation
    serves every method, epsilon and k over that lineage.

    The answers tier shares the result tier's bound (``max_entries``).  An
    entry holds its query and, per answer, the answer's values, a
    ``from_canonical`` tuple and a reference to the canonical key that
    the result tier's keys already hold.
    """

    def __init__(self, max_entries: int = 4096,
                 artifact_entries: int = 256) -> None:
        self.results: LRUCache[CachedAttribution] = LRUCache(max_entries)
        self.artifacts: LRUCache[object] = LRUCache(artifact_entries)
        self.answers: LRUCache[AnswerKeys] = LRUCache(max_entries)

    @staticmethod
    def result_key(key: CanonicalKey, method: str,
                   epsilon: Union[float, Fraction, None],
                   k: Optional[int] = None) -> ResultKey:
        """Build the result-cache key.

        Epsilon is kept for every epsilon-dependent method -- including
        ``auto``, whose fallback values depend on it -- and dropped for the
        exact methods (``exact``/``shapley``), whose results never do; it
        is normalized through :func:`canonical_epsilon` so float-repr
        drift can never split or alias equivalent entries.  ``k`` is kept
        for ``topk`` only.

        Tier-suffixed methods (``"rank-float"``, ``"topk-float"``) keep
        their base method's epsilon/k slots — the suffix itself stays in
        the key, so a float-tier result can never serve an exact-tier
        request or vice versa.
        """
        base = method.split("-", 1)[0]
        return (key, method,
                canonical_epsilon(epsilon) if base in _EPSILON_METHODS
                else None,
                k if base == "topk" else None)

    def clear(self) -> None:
        """Drop every tier."""
        self.results.clear()
        self.artifacts.clear()
        self.answers.clear()
