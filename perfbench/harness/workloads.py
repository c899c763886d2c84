"""Seeded inputs of the three workloads.

Everything the service sees is made here from ``--seed``: the fact list
(loaded into a ``repro`` :class:`~repro.db.database.Database` by the
runner and into sqlite by the oracle) and the request stream.  The same
seed yields a byte-identical stream; :func:`stream_digest` hashes it so
every run reports which stream it served.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

from .oracle import FactRow

#: The non-Boolean queries of the academic, IMDB and TPC-H generators
#: (``repro.workloads.{academic,imdb,tpch}.queries()``), as request text.
#: The Boolean ones are left out: their lineages (49-60 variables) defeat
#: the exact budget of ``method="auto"``, so their values are estimates.
WARM_QUERIES: Tuple[str, ...] = (
    "Q(A) :- Author(A, N), Writes(A, P), Paper(P, V, Y), Venue(V, T)",
    "Q(A) :- Author(A, N), Writes(A, P), Paper(P, V, Y), Y >= 2015",
    "Q(V) :- Paper(P, V, Y), Writes(A, P), Author(A, N)",
    "Q(P2) :- Cites(P1, P2), Paper(P1, V, Y), Paper(P2, V2, Y2)",
    "Q(A1, A2) :- Writes(A1, P), Writes(A2, P), Author(A1, N1), "
    "Author(A2, N2)",
    "Q(A) :- Author(A, N), Writes(A, P), Cites(P2, P)",
    "Q(P) :- Paper(P, V, Y), Cites(P, P2) ; Q(P) :- Paper(P, V, Y), "
    "Cites(P2, P)",
    "Q(M) :- Movie(M, T, Y), Genre(M, G), Cast(P, M)",
    "Q(P) :- Cast(P, M), Movie(M, T, Y), Y >= 2010",
    "Q(P1, P2) :- Cast(P1, M), Directs(P2, M), Movie(M, T, Y)",
    "Q(P) :- Directs(P, M), Movie(M, T, Y), Genre(M, 'drama')",
    "Q(P1, P2) :- Cast(P1, M), Cast(P2, M), Movie(M, T, Y)",
    "Q(P) :- Cast(P, M), Movie(M, T, Y) ; Q(P) :- Directs(P, M), "
    "Movie(M, T, Y)",
    "Q(M) :- Movie(M, T, Y), Cast(P1, M), Directs(P2, M)",
    "Q(C) :- Customer(C, N, 'building'), Orders(O, C, Y)",
    "Q(P) :- Lineitem(O, P, S), Orders(O, C, Y), Customer(C, 'fr', Seg)",
    "Q(S, C) :- Supplier(S, N), Customer(C, N, Seg), Orders(O, C, Y), "
    "Lineitem(O, P, S)",
    "Q(P) :- Lineitem(O, P, S), Orders(O, C, Y), Y >= 1996",
    "Q(S) :- Supplier(S, N), Lineitem(O, P, S), Part(P, 'brass')",
    "Q(C) :- Customer(C, N, Seg), Orders(O, C, Y), Y <= 1994 ; "
    "Q(C) :- Customer(C, N, Seg), Orders(O, C, Y), Y >= 1997",
    "Q(O) :- Orders(O, C, Y), Lineitem(O, P, S), Supplier(S, N), "
    "Part(P, T)",
)

#: Generator seeds of the warm database: each generator's default, so the
#: data is the same in every run and ``--seed`` moves only the traffic.
WARM_DB_SEEDS = {"academic": 7, "imdb": 11, "tpch": 3}
TOPK = 3
#: ``Q() :- R_i(X), S_i(X, Y), T_i(Y)``: non-hierarchical for every class
#: whose edge set has a path of length three.
COLD_QUERY = "Q() :- R{i}(X), S{i}(X, Y), T{i}(Y)"
#: Side sizes of a cold class (left and right vertices of the edge set).
COLD_SIDES = (3, 4, 5)
#: Edge probability and vertex-fact exogenous probability of a cold class.
COLD_EDGE_P = 0.4
COLD_EXOGENOUS = 0.25
#: Generator seed of the cold classes: they are the same in every run,
#: like the warm database, and ``--seed`` moves only their order.
COLD_CLASS_SEED = 0
#: Op mix of the cold stream: class ``n`` is asked with
#: ``COLD_OPS[n % 4]``.
COLD_OPS = ("attribute", "attribute", "rank", "topk")
#: The cold stream is shuffled within blocks of this many requests, so
#: runs of any seed serve the same requests up to their last block.
COLD_BLOCK = 64
#: Zipf exponent of the open-loop popularity draw.
ZIPF_S = 1.1
#: Open-loop events per block with a fixed composition, and how many of
#: them are a burst of fresh cold classes (one event in ten).
OPEN_BLOCK = 200
OPEN_BLOCK_COLD = 20
COLD_BURST_SIZE = 3


def warm_facts() -> List[FactRow]:
    """The academic, IMDB and TPC-H databases at scale 1, merged.

    Relation names are disjoint, so merging keeps every fact and its
    endogenous/exogenous flag.
    """
    from repro.workloads import academic, imdb, tpch

    facts: List[FactRow] = []
    for name, module in (("academic", academic), ("imdb", imdb),
                         ("tpch", tpch)):
        database = module.generate_database(seed=WARM_DB_SEEDS[name],
                                            scale=1.0)
        facts += [(fact.relation, fact.values, database.is_endogenous(fact))
                  for fact in database]
    return facts


def warm_pool() -> List[Dict[str, object]]:
    """The 21 queries x {attribute, rank, topk k=3}."""
    pool: List[Dict[str, object]] = []
    for text in WARM_QUERIES:
        pool.append({"op": "attribute", "query": text})
        pool.append({"op": "rank", "query": text})
        pool.append({"op": "topk", "query": text, "k": TOPK})
    return pool


def with_ids(requests: Sequence[Dict[str, object]], start: int = 0
             ) -> List[Dict[str, object]]:
    return [dict(request, id=start + index)
            for index, request in enumerate(requests)]


def shuffled_blocks(rng: random.Random, block: Sequence, count: int
                    ) -> list:
    """``count`` items: copies of ``block``, each copy shuffled.

    Every run then serves the same mix, in an order set by the seed, so
    run-to-run differences come from the program, not from the draw.
    """
    out: list = []
    while len(out) < count:
        copy = list(block)
        rng.shuffle(copy)
        out += copy
    return out[:count]


def warm_stream(seed: int, count: int) -> List[Dict[str, object]]:
    """Uniform traffic over :func:`warm_pool`, in shuffled pool blocks."""
    rng = random.Random(f"warm-{seed}")
    return with_ids(shuffled_blocks(rng, warm_pool(), count))


# --------------------------------------------------------------------- #
# Cold classes
# --------------------------------------------------------------------- #


def lineage_invariant(clauses: Sequence[Sequence[object]]) -> tuple:
    """An isomorphism invariant of a positive DNF (colour refinement).

    Variables start coloured by their occurrence count, clauses by their
    size; three rounds refine each by the multiset of the other side's
    colours.  Isomorphic lineages get equal invariants, so a differing
    invariant proves two lineages are not isomorphic.
    """
    clauses = [tuple(clause) for clause in clauses]
    variables = sorted({v for clause in clauses for v in clause}, key=repr)
    colour = {v: sum(v in clause for clause in clauses) for v in variables}
    clause_colour = [len(clause) for clause in clauses]
    for _ in range(3):
        clause_colour = [hash((size, tuple(sorted(colour[v] for v in clause))))
                         for size, clause in zip(clause_colour, clauses)]
        colour = {v: hash((colour[v], tuple(sorted(
                      c for c, clause in zip(clause_colour, clauses)
                      if v in clause))))
                  for v in variables}
    return (len(variables), tuple(sorted(clause_colour)),
            tuple(sorted(colour.values())))


#: A cold class: side sizes, edges, and the exogenous vertices per side.
ColdClass = Tuple[int, int, Tuple[Tuple[int, int], ...],
                  Tuple[int, ...], Tuple[int, ...]]


def class_lineage(cold: ColdClass) -> List[Tuple[str, ...]]:
    """The lineage of a class's query, clauses over fact names."""
    _, _, edges, exo_left, exo_right = cold
    return [tuple(name for name, keep in ((f"r{x}", x not in exo_left),
                                          (f"s{x}_{y}", True),
                                          (f"t{y}", y not in exo_right))
                  if keep)
            for x, y in edges]


def cold_classes(seed: int, count: int, tag: str = "c",
                 avoid: Sequence[ColdClass] = ()) -> List[ColdClass]:
    """``count`` pairwise non-isomorphic random classes.

    A class is a bipartite edge set with sides drawn from
    :data:`COLD_SIDES`, each possible edge present with probability
    :data:`COLD_EDGE_P`, every vertex on an edge and a vertex of degree
    two or more on each side.  Each vertex fact is exogenous with
    probability :data:`COLD_EXOGENOUS`, which varies the lineage shape
    without growing it.  Classes whose lineage invariant was already
    drawn, or is one of ``avoid``'s, are skipped, so no two lineages of
    one stream are isomorphic.  Small sides run out of such classes
    first, so in draw order the classes grow; they are returned shuffled,
    which makes every stretch of a stream hold the same mix of sizes.
    """
    rng = random.Random(f"cold-{tag}-{seed}")
    seen = {lineage_invariant(class_lineage(cold)) for cold in avoid}
    classes: List[ColdClass] = []
    while len(classes) < count:
        left, right = rng.choice(COLD_SIDES), rng.choice(COLD_SIDES)
        edges = tuple((x, y) for x in range(left) for y in range(right)
                      if rng.random() < COLD_EDGE_P)
        lefts = [sum(1 for x, _ in edges if x == v) for v in range(left)]
        rights = [sum(1 for _, y in edges if y == v) for v in range(right)]
        if min(lefts) == 0 or min(rights) == 0:
            continue
        if max(lefts) < 2 or max(rights) < 2:
            continue
        cold = (left, right, edges,
                tuple(x for x in range(left) if rng.random() < COLD_EXOGENOUS),
                tuple(y for y in range(right)
                      if rng.random() < COLD_EXOGENOUS))
        invariant = lineage_invariant(class_lineage(cold))
        if invariant in seen:
            continue
        seen.add(invariant)
        classes.append(cold)
    rng.shuffle(classes)
    return classes


def cold_facts(classes: Sequence[ColdClass], first: int = 0
               ) -> List[FactRow]:
    """Facts of the classes; class ``first + n`` uses R/S/T with suffix n."""
    facts: List[FactRow] = []
    for offset, (left, right, edges, exo_left, exo_right) in enumerate(
            classes):
        index = first + offset
        facts += [(f"R{index}", (x,), x not in exo_left) for x in range(left)]
        facts += [(f"S{index}", edge, True) for edge in edges]
        facts += [(f"T{index}", (y,), y not in exo_right)
                  for y in range(right)]
    return facts


def cold_request(index: int, op: str) -> Dict[str, object]:
    request: Dict[str, object] = {"op": op,
                                  "query": COLD_QUERY.format(i=index)}
    if op == "topk":
        request["k"] = TOPK
    return request


def cold_stream(seed: int, count: int) -> List[Dict[str, object]]:
    """One request per class: half attribute, a quarter each rank/topk.

    Class ``n`` is asked with ``COLD_OPS[n % 4]`` whatever the seed; the
    seed shuffles the requests within each block of :data:`COLD_BLOCK`.
    A cold rank costs from a few to a few hundred milliseconds depending
    on the class, so a run's tail latency is set by which classes it
    serves: with the classes and their ops fixed, every run serves the
    same ones up to its last block, and the tail moves with the program.
    """
    rng = random.Random(f"cold-order-{seed}")
    requests = [cold_request(n, COLD_OPS[n % len(COLD_OPS)])
                for n in range(count)]
    out: List[Dict[str, object]] = []
    for first in range(0, count, COLD_BLOCK):
        block = requests[first:first + COLD_BLOCK]
        rng.shuffle(block)
        out += block
    return with_ids(out)


# --------------------------------------------------------------------- #
# Open-loop traffic
# --------------------------------------------------------------------- #


def zipf_weights(size: int) -> List[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, size + 1)]


def popularity_order(pool: Sequence[Dict[str, object]],
                     shape) -> List[Dict[str, object]]:
    """The pool, most popular first: fewest clauses, then fewest answers.

    ``shape(request)`` gives a request's (answers, clauses).  Small
    results are the ones dashboards and drill-downs ask for most; the
    order is a property of the data, not of the seed, so ``--seed``
    moves only the draw.
    """
    ranked = sorted(range(len(pool)),
                    key=lambda index: (shape(pool[index])[1],
                                       shape(pool[index])[0], index))
    return [pool[index] for index in ranked]


def zipf_block(pool: Sequence[Dict[str, object]], size: int
               ) -> List[Dict[str, object]]:
    """``size`` pool draws in Zipf proportions (largest remainders)."""
    weights = zipf_weights(len(pool))
    total = sum(weights)
    quotas = [size * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(pool)),
                          key=lambda i: (counts[i] - quotas[i], i))
    for index in by_remainder[:size - sum(counts)]:
        counts[index] += 1
    return [request for request, count in zip(pool, counts)
            for _ in range(count)]


def open_stream(seed: int, rate: float, seconds: float,
                pool: Sequence[Dict[str, object]]
                ) -> Tuple[List[Tuple[float, Dict[str, object]]], int]:
    """Timed open-loop events ``(due offset in s, request)``.

    Requests arrive at ``rate`` per second, events evenly spaced.  Every
    :data:`OPEN_BLOCK` events hold :data:`OPEN_BLOCK_COLD` fresh cold
    ``attribute`` classes, each sent as :data:`COLD_BURST_SIZE`
    back-to-back duplicates, and a Zipf-proportioned draw over ``pool``
    (most popular first), shuffled.  The schedule is the same for every
    seed -- in an open loop, which requests happen to meet in the queue
    moves the tail latency more than anything the program does -- and
    the seed orders the cold classes over the cold slots.  Returns the
    events and the number of cold classes used (class indices
    ``0 ...``).
    """
    rng = random.Random("open-schedule")
    cold_share = OPEN_BLOCK_COLD / OPEN_BLOCK
    spacing = (1 + cold_share * (COLD_BURST_SIZE - 1)) / rate
    block = zipf_block(pool, OPEN_BLOCK - OPEN_BLOCK_COLD) + [
        None] * OPEN_BLOCK_COLD
    draws = shuffled_blocks(rng, block, int(seconds / spacing))
    cold = draws.count(None)
    order = list(range(cold))
    random.Random(f"open-cold-{seed}").shuffle(order)
    events: List[Tuple[float, Dict[str, object]]] = []
    for index, draw in enumerate(draws):
        due = index * spacing
        if draw is None:
            events += [(due, cold_request(order.pop(), "attribute"))
                       ] * COLD_BURST_SIZE
        else:
            events.append((due, draw))
    return ([(due, dict(request, id=index))
             for index, (due, request) in enumerate(events)], cold)


def stream_digest(stream) -> str:
    """SHA-256 of the canonical JSON of a request stream."""
    blob = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
