"""Benchmark of the attribution service, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm_mixed --seed 1 --seconds 30 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded around every layer's public calls and
reports the per-layer metrics.  Every response is checked against the
independent oracle; a wrong value aborts the run with a non-zero exit.
The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it list every
metric with its unit.  Each run also writes its raw record to
``perfbench/results/raw/`` (and, traced, its spans to
``perfbench/results/spans/``); ``perfbench/run_table.py`` turns the raw
records into ``run_table.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_mixed", "cold_store", "frontend_open")
RESULTS = os.path.join(HERE, "results")


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _units(spec):
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def _run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    spec = _load_spec()
    units = _units(spec)
    from harness.runner import RunError, run_workload

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-" \
          f"{os.getpid()}"
    work_dir = os.path.join(HERE, ".work", tag)
    os.makedirs(work_dir, exist_ok=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work_dir)
    except RunError as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    recorder = record.pop("spans", None)
    os.makedirs(os.path.join(RESULTS, "raw"), exist_ok=True)
    if recorder is not None:
        os.makedirs(os.path.join(RESULTS, "spans"), exist_ok=True)
        record["span_count"] = recorder.write(
            os.path.join(RESULTS, "spans", f"{tag}.jsonl"))
    with open(os.path.join(RESULTS, "raw", f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    if args.trace:
        values = dict(record["layers"])
        values.update(record["descriptors"])
        names = [metric["name"] for metric in spec["per_layer"]]
    else:
        values = record["metrics"]
        names = [metric["name"] for metric in spec["end_to_end"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} requests, {record['failed']} failed, "
          f"{record['latency_samples']} latency samples, stream "
          f"{record['stream_sha256'][:16]}, host slowdown "
          f"{record['host_slowdown']:.3f} ({record['host_samples']} kernel "
          f"samples)")
    for name in names:
        raw = record["raw_metrics"].get(name) if not args.trace else None
        print(f"  {name:40s} {values[name]:14.6g} {units[name]:12s}"
              + ("" if raw is None else f" raw {raw:.6g}"))
    if not args.trace:
        tail = record["latency_p99_ms"]
        if tail["scaled"] is not None:
            print(f"  {'latency_p99_ms (not gated)':40s} "
                  f"{tail['scaled']:14.6g} {'ms':12s} raw {tail['raw']:.6g}")
    else:
        layers = record["layers"]["layers.self_ms_per_req"]
        print("  self ms/request by layer: " + ", ".join(
            f"{layer} {ms:.3f}" for layer, ms in layers.items()))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            finished = subprocess.run(command, cwd=ROOT, check=False,
                                      stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(finished.stdout.splitlines()[:-1])
                             + "\n")
            status = status or finished.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process by default, which
        # moves set and dict layouts, and with them time and memory,
        # from run to run.  Every run uses the same layout instead.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
