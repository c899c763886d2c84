"""A run's inputs and expected values, made in a child process.

``python3 -m harness.prepare WORKLOAD SEED SECONDS DIR`` (with the
benchmark directory and the program's ``src`` on ``PYTHONPATH``) makes a
workload's facts, request stream and warm-up requests from the seed, has
the oracle compute the expected values of every query they hold, and
writes all of it to ``DIR``.  The timed process reads the files back
(:class:`Inputs`): the fact list for the set-ups, one request at a
time from the stream, and one query's expected values per check.  Neither
the oracle nor its values are resident in the process whose memory and
time are measured.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Tuple

from . import workloads as W
from .oracle import Oracle

#: Requests in the closed-loop streams, per measured second: several
#: times what the service serves, so the stream outlasts the window.
WARM_STREAM_PER_SECOND = 400
COLD_STREAM_PER_SECOND = 120
#: Cold classes served by each warm-up pass of ``cold_store``.
COLD_WARMUP_CLASSES = 20
#: Open-loop arrival rate, requests per second (burst duplicates count).
FRONTEND_RATE_RPS = 25.0

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")


class PrepareError(RuntimeError):
    """The child process could not make the inputs."""


def generate(workload: str, seed: int, seconds: float):
    """(facts, stream, warm-up requests) of one run.

    The stream holds requests (closed loops) or ``(due offset, request)``
    events (open loop).
    """
    if workload == "warm_mixed":
        stream = W.warm_stream(seed, int(WARM_STREAM_PER_SECOND * seconds))
        return W.warm_facts(), stream, W.warm_pool()
    if workload == "cold_store":
        # The warm-up classes are the same in every run and never
        # isomorphic to a timed one; warming up only attributes them.
        count = int(COLD_STREAM_PER_SECOND * seconds)
        warm_classes = W.cold_classes(0, COLD_WARMUP_CLASSES, tag="warmup")
        facts = (W.cold_facts(W.cold_classes(W.COLD_CLASS_SEED, count,
                                             avoid=warm_classes))
                 + W.cold_facts(warm_classes, first=count))
        warmup = [W.cold_request(count + index, "attribute")
                  for index in range(COLD_WARMUP_CLASSES)]
        return facts, W.cold_stream(seed, count), warmup
    if workload == "frontend_open":
        warm = W.warm_facts()
        warm_oracle = Oracle(warm)
        pool = W.popularity_order(W.warm_pool(), lambda request: _shape(
            warm_oracle.lineages(request["query"])))
        warm_oracle.close()
        events, cold = W.open_stream(seed, FRONTEND_RATE_RPS, seconds, pool)
        facts = warm + W.cold_facts(W.cold_classes(W.COLD_CLASS_SEED, cold,
                                                   tag="o"))
        return facts, events, W.warm_pool()
    raise PrepareError(f"unknown workload {workload!r}")


def _shape(lineages) -> Tuple[int, int]:
    """(answers, clauses) of a query's lineages."""
    return len(lineages), sum(len(c) for c in lineages.values())


def _request(item) -> Dict[str, object]:
    return item[1] if isinstance(item, (list, tuple)) else item


def write(workload: str, seed: int, seconds: float, directory: str) -> None:
    """Make the inputs and expected values of one run into ``directory``."""
    facts, stream, warmup = generate(workload, seed, seconds)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "facts.pickle"), "wb") as handle:
        pickle.dump(facts, handle, protocol=pickle.HIGHEST_PROTOCOL)
    with open(os.path.join(directory, "stream.jsonl"), "w",
              encoding="utf-8") as handle:
        for item in stream:
            handle.write(json.dumps(item, separators=(",", ":")) + "\n")
    started = time.perf_counter()
    oracle = Oracle(facts)
    table = sqlite3.connect(os.path.join(directory, "expected.sqlite"))
    table.execute("CREATE TABLE expected (query TEXT PRIMARY KEY, "
                  "answers INTEGER, clauses INTEGER, value BLOB)")
    queries = dict.fromkeys(request["query"] for request in
                            warmup + [_request(item) for item in stream])
    for query in queries:
        answers, clauses = _shape(oracle.lineages(query))
        table.execute("INSERT INTO expected VALUES (?, ?, ?, ?)", (
            query, answers, clauses,
            pickle.dumps(oracle.expected(query),
                         protocol=pickle.HIGHEST_PROTOCOL)))
    table.commit()
    table.close()
    oracle.close()
    meta = {"stream_sha256": W.stream_digest([stream, facts]),
            "oracle_s": time.perf_counter() - started, "warmup": warmup}
    with open(os.path.join(directory, "meta.json"), "w",
              encoding="utf-8") as handle:
        json.dump(meta, handle)


class Inputs:
    """Read side of :func:`write`, for the timed process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        with open(os.path.join(directory, "meta.json"),
                  encoding="utf-8") as handle:
            meta = json.load(handle)
        self.stream_sha256: str = meta["stream_sha256"]
        self.oracle_s: float = meta["oracle_s"]
        self.warmup: List[Dict[str, object]] = meta["warmup"]
        self._table = sqlite3.connect(
            os.path.join(directory, "expected.sqlite"))

    def facts(self) -> list:
        with open(os.path.join(self.directory, "facts.pickle"),
                  "rb") as handle:
            return pickle.load(handle)

    def stream(self) -> Iterator:
        """Requests, or ``(due offset, request)`` events, one by one."""
        with open(os.path.join(self.directory, "stream.jsonl"),
                  encoding="utf-8") as handle:
            for line in handle:
                yield json.loads(line)

    def _row(self, query: str):
        row = self._table.execute(
            "SELECT answers, clauses, value FROM expected WHERE query = ?",
            (query,)).fetchone()
        if row is None:
            raise PrepareError(f"no expected values for {query!r}")
        return row

    def expected(self, query: str):
        """Per answer tuple, the exact value of each fact label."""
        return pickle.loads(self._row(query)[2])

    def shape(self, query: str) -> Tuple[int, int]:
        """(answers, clauses) of the query's lineages."""
        answers, clauses, _ = self._row(query)
        return answers, clauses

    def close(self) -> None:
        self._table.close()


def prepare(workload: str, seed: int, seconds: float,
            directory: str) -> Inputs:
    """Run :func:`write` in a child process and open its output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]))
    finished = subprocess.run(
        [sys.executable, "-m", "harness.prepare", workload, str(seed),
         str(seconds), directory],
        env=env, cwd=BENCH, check=False, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if finished.returncode != 0:
        raise PrepareError(f"preparing inputs failed:\n{finished.stderr}")
    return Inputs(directory)


if __name__ == "__main__":
    write(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
