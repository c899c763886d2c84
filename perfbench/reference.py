"""Capacity reference for the open-loop workload.

Serves the request sequence of ``frontend_open`` (same seed, same
inputs) twice, as fast as each path allows: through the serial
``AttributionService.submit`` loop, and through ``ServingFrontend``
(``workers=2``) saturated by blocking admission.  The open loop's fixed
arrival rate was set from the second number; the first is the serial
path the front-end wraps.  Run from the root of a checkout::

    python3 perfbench/reference.py --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from harness import prepare as P  # noqa: E402
from harness import runner as D  # noqa: E402
from harness import workloads as W  # noqa: E402


def _rate(submit, requests, seconds: float, wait=None) -> float:
    started = time.perf_counter()
    sent = []
    for request in requests:
        if time.perf_counter() - started >= seconds:
            break
        sent.append(submit(request))
    if wait is not None:
        for outcome in sent:
            wait(outcome)
    return len(sent) / (time.perf_counter() - started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    from repro.engine.frontend import FrontendConfig, ServingFrontend

    # Enough events for the saturated front-end to stay busy.
    facts, events, warmup = P.generate("frontend_open", args.seed,
                                       args.seconds * 4)
    requests = [request for _, request in events]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    root = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        store = os.path.join(root, "store")
        filler = D.open_service(D.build_database(facts), store, False)
        for request in W.with_ids(warmup):
            filler.submit(request)
        D.close_service(filler)

        service = D.open_service(D.build_database(facts), store, True)
        for request in W.with_ids(warmup):
            service.submit(request)
        half = len(requests) // 2
        serial = _rate(service.submit, requests[:half], args.seconds)
        frontend = ServingFrontend(service, FrontendConfig(
            workers=D.FRONTEND_WORKERS))
        try:
            saturated = _rate(
                lambda r: frontend.submit_nowait(r, block=True),
                requests[half:], args.seconds,
                wait=lambda t: t if isinstance(t, dict) else t.result(120))
        finally:
            frontend.close()
            D.close_service(service)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({"serial_rps": serial, "frontend_saturated_rps":
                      saturated, "open_loop_rate_rps": P.FRONTEND_RATE_RPS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
