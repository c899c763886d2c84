"""Build the run table from the raw per-run records.

Step one is ``perfbench/run.py``: every run writes its raw record to
``perfbench/results/raw/``.  Step two is this script::

    python3 perfbench/run_table.py [--raw DIR] [--out DIR]

It writes ``run_table.csv`` (one row per workload and repetition, every
end-to-end metric plus the run's descriptors) and
``run_table_columns.json`` (unit, source and definition of every column),
and prints, per workload and metric, the median and the inter-quartile
spread as a share of the median.  Every number can be regenerated from
the raw records.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness.stats import quartile_spread  # noqa: E402

#: column -> (unit, source, definition)
COLUMNS = {
    "workload": ("", "run.py --workload", "workload name"),
    "repetition": ("", "run_table.py",
                   "index of the run among untraced runs of its workload, "
                   "in file order"),
    "seed": ("", "run.py --seed", "seed of the generated inputs"),
    "stream_sha256": ("", "workloads.stream_digest",
                      "SHA-256 of the request stream and the facts (same "
                      "seed, same hash)"),
    "attempted": ("count", "run.py", "requests sent in the timed window"),
    "failed": ("count", "run.py",
               "requests answered ok: false, shed or refused"),
    "latency_samples": ("count", "run.py", "latencies the percentiles use"),
    "failure_rate": ("share", "run.py", "failed / attempted"),
    "host_slowdown": ("ratio", "hostspeed",
                      "median over the timed requests of the reference "
                      "kernel's time / REFERENCE_S; the times below are "
                      "divided by it, request by request"),
    "throughput_rps": ("1/s", "run.py",
                       "closed loop: median over ten windows of requests "
                       "completed ok per second of scaled service time; "
                       "open loop: completed ok / (first due time to last "
                       "response), unscaled"),
    "latency_p50_ms": ("ms", "run.py",
                       "median over ten windows of the median scaled "
                       "latency; closed loop: send to response, open loop: "
                       "due time to response"),
    "latency_p95_ms": ("ms", "run.py",
                       "nearest-rank p95 of the scaled latencies, reported "
                       "only with >= 10 samples beyond it"),
    "latency_p99_ms": ("ms", "run.py",
                       "nearest-rank p99 of the scaled latencies (not a "
                       "gated metric)"),
    "success_rate": ("share", "run.py", "1 - failure_rate"),
    "cpu_ms_per_req": ("ms", "time.process_time",
                       "median over ten windows of process CPU time per "
                       "completed request, scaled by the window's slowdown "
                       "(the benchmark's own checking and kernel excluded)"),
    "setup_s": ("s", "run.py",
                "median of the set-up repetitions: database build, store "
                "open and warm start, warm-up pass; each step scaled by "
                "the slowdown around it"),
    "peak_rss_mb": ("MB", "getrusage ru_maxrss",
                    "peak resident set of the workload process"),
    "store_bytes_per_entry": ("bytes", "LogStore.stats",
                              "log bytes on disk / result entries at the end"),
    "workload.repeat_share": ("share", "run.py",
                              "timed requests whose (op, k, query) the "
                              "service had already served"),
    "workload.answers_per_req": ("answers/req", "oracle",
                                 "answer tuples per timed request"),
    "workload.clauses_per_req": ("clauses/req", "oracle",
                                 "lineage clauses per timed request"),
    "generator_late_ms_p95": ("ms", "open loop",
                              "p95 of send time minus due time"),
}
#: The timing metrics also appear unscaled, as ``raw.<name>``.
RAW = ("throughput_rps", "latency_p50_ms", "latency_p95_ms",
       "latency_p99_ms", "cpu_ms_per_req", "setup_s")
for _name in RAW:
    COLUMNS[f"raw.{_name}"] = (COLUMNS[_name][0], COLUMNS[_name][1],
                               f"{_name} without the host-speed scaling")


def load(raw_dir: str):
    records = []
    for path in sorted(glob.glob(os.path.join(raw_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def rows(records):
    repetition = {}
    out = []
    for record in records:
        if record["trace"]:
            continue
        workload = record["workload"]
        repetition[workload] = repetition.get(workload, -1) + 1
        row = {"workload": workload, "repetition": repetition[workload]}
        for column in COLUMNS:
            if column in record:
                row[column] = record[column]
            elif column in record["metrics"]:
                row[column] = record["metrics"][column]
            elif column in record.get("descriptors", {}):
                row[column] = record["descriptors"][column]
        late = record.get("generator_late_ms")
        if late:
            row["generator_late_ms_p95"] = late.get("p95")
        tail = record.get("latency_p99_ms") or {}
        row["latency_p99_ms"] = tail.get("scaled")
        raw = dict(record.get("raw_metrics", {}), latency_p99_ms=tail.get(
            "raw"))
        for name in RAW:
            row[f"raw.{name}"] = raw.get(name)
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--raw", default=os.path.join(HERE, "results", "raw"))
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    args = parser.parse_args(argv)
    table = rows(load(args.raw))
    if not table:
        print(f"no untraced raw records under {args.raw}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "run_table.csv"), "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(COLUMNS))
        writer.writeheader()
        writer.writerows(table)
    with open(os.path.join(args.out, "run_table_columns.json"), "w",
              encoding="utf-8") as handle:
        json.dump({name: {"unit": unit, "source": source,
                          "definition": definition}
                   for name, (unit, source, definition) in COLUMNS.items()},
                  handle, indent=1)
    for workload in sorted({row["workload"] for row in table}):
        runs = [row for row in table if row["workload"] == workload]
        print(f"{workload}: {len(runs)} runs")
        for column, (unit, _, _) in COLUMNS.items():
            values = [row[column] for row in runs
                      if isinstance(row.get(column), (int, float))]
            if len(values) < 2 or column in ("repetition", "seed"):
                continue
            print(f"  {column:28s} median {statistics.median(values):12.5g} "
                  f"{unit:12s} spread {quartile_spread(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
