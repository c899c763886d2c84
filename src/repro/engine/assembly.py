"""Canonical-space assembly: turn one cached result into one answer's output.

A result entry (:class:`~repro.engine.cache.CachedAttribution`) lives in
canonical variable space and is shared by every answer whose lineage is
isomorphic.  What an answer adds is only its variable mapping
``from_canonical`` (canonical variable ``i`` is fact variable
``from_canonical[i]``).  Everything about the output order that does not
depend on that mapping is therefore worked out once per entry, the first
time the entry is assembled, and kept on the entry:

* a dense integer rank of every value (equal values, equal rank), so the
  per-answer sort compares small integers instead of ``Fraction``\\ s;
* for rankings, the rank of ``lower + upper`` (the midpoint order) and,
  per requested ``k``, of the top-k class in front of it, computed with
  IchiBan's own classifier;
* for rankings, one shared :class:`~repro.core.intervals.Interval` and
  midpoint ``Fraction`` per variable (the entry's own value objects are
  reused where they equal the midpoint); attributions hand out the
  entry's own ``Fraction`` values.

Assembling an answer is then an integer sort with ties broken by fact
variable id -- exactly the order of sorting the mapped values by
``(-value, variable)`` (attributions), and of
:func:`repro.core.ichiban.ranked_from_bounds` over the mapped bounds
(top-k class, midpoint descending, then variable; truncated to ``k``).
The sort data is never persisted: store backends encode the entry's
fields only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.core.attribution import FactAttribution
from repro.core.ichiban import RankedVariable, _topk_classify
from repro.core.intervals import Interval
from repro.db.database import Database, Fact
from repro.engine.cache import CachedAttribution

#: Canonical variable -> fact variable of one answer (a dict or a tuple).
FromCanonical = Sequence[int]

#: Per-entry attribution order: canonical variables by value descending
#: and their dense value ranks.
_AttributionOrder = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: Per-entry ranking order for one k: canonical variables by (top-k class,
#: midpoint descending), their dense ranks, shared intervals and midpoints.
#: Under a k it keeps only the variables that can reach the first k places.
_RankingOrder = Tuple[Tuple[int, ...], Tuple[int, ...],
                      Tuple[Interval, ...], Tuple[Fraction, ...]]


def _dense_ranks(sort_keys: Sequence[object]) -> Tuple[int, ...]:
    """Rank of each key in an already sorted sequence; equal keys tie."""
    ranks = []
    rank = -1
    previous: object = None
    for key in sort_keys:
        if rank < 0 or key != previous:
            rank += 1
            previous = key
        ranks.append(rank)
    return tuple(ranks)


def _attribution_order(entry: CachedAttribution) -> _AttributionOrder:
    order = entry._attribution_order
    if order is None:
        items = sorted(((value, variable)
                        for variable, value in entry.values.items()),
                       key=lambda item: item[0], reverse=True)
        order = (tuple(variable for _, variable in items),
                 _dense_ranks([value for value, _ in items]))
        # Racing threads may both build it; either copy is complete.
        object.__setattr__(entry, "_attribution_order", order)
    return order


def _ranking_order(entry: CachedAttribution,
                   k: Optional[int]) -> _RankingOrder:
    cached = entry._ranking_order
    # A top-k entry is keyed by its k, so one k per entry is the rule; a
    # different k (a degraded read of another op) rebuilds the order.
    if cached is not None and cached[0] == k:
        return cached[1]
    intervals = {variable: Interval(lower, upper)
                 for variable, (lower, upper) in entry.bounds.items()}
    classes = _topk_classify(intervals, k) if k is not None else {}
    items = sorted(
        ((classes.get(variable, 0), -(interval.lower + interval.upper)),
         variable)
        for variable, interval in intervals.items())
    ranks = _dense_ranks([key for key, _ in items])
    if k is not None and len(items) > k:
        # Only variables ranked no lower than the k-th one can be listed.
        cutoff = ranks[k - 1]
        kept = sum(1 for rank in ranks if rank <= cutoff)
        items, ranks = items[:kept], ranks[:kept]
    variables = tuple(variable for _, variable in items)
    values = entry.values
    midpoints = []
    for variable in variables:
        midpoint = intervals[variable].midpoint()
        # Ranking entries store the midpoint as the value: share that one.
        value = values.get(variable)
        midpoints.append(value if value == midpoint
                         and type(value) is Fraction else midpoint)
    order = (variables, ranks,
             tuple(intervals[variable] for variable in variables),
             tuple(midpoints))
    object.__setattr__(entry, "_ranking_order", (k, order))
    return order


def _sorted_positions(variables: Tuple[int, ...], ranks: Tuple[int, ...],
                      from_canonical: FromCanonical
                      ) -> List[Tuple[int, int, int]]:
    """``(rank, fact variable, position)`` in output order."""
    return sorted(zip(ranks, [from_canonical[v] for v in variables],
                      range(len(variables))))


def attributions_of(entry: CachedAttribution, from_canonical: FromCanonical,
                    database: Database) -> Tuple[FactAttribution, ...]:
    """One answer's fact attributions, best first (ties by variable id)."""
    variables, ranks = _attribution_order(entry)
    values, bounds = entry.values, entry.bounds
    fact_of = database.fact_of
    attributions = []
    for _, variable, position in _sorted_positions(variables, ranks,
                                                   from_canonical):
        canonical = variables[position]
        value = values[canonical]
        lower, upper = bounds.get(canonical, (None, None))
        attributions.append(FactAttribution(
            fact_of(variable), variable,
            value if type(value) is Fraction else Fraction(value),
            lower, upper))
    return tuple(attributions)


def ranking_of(entry: CachedAttribution, from_canonical: FromCanonical,
               database: Database, k: Optional[int]
               ) -> List[Tuple[Fact, RankedVariable]]:
    """One answer's ranked facts, truncated to ``k`` when given."""
    variables, ranks, intervals, estimates = _ranking_order(entry, k)
    positions = _sorted_positions(variables, ranks, from_canonical)
    if k is not None:
        positions = positions[:k]
    fact_of = database.fact_of
    return [(fact_of(variable),
             RankedVariable(variable, intervals[position],
                            estimates[position]))
            for _, variable, position in positions]
