"""Measure the closed-loop capacity behind ``SERVICE_RATE`` in workloads.py.

Usage, from the root of a checkout::

    python3 perfbench/capacity.py --seed 0

Warms a service exactly as ``svc-open`` does, then queues rounds of jobs
(three per tenant) all at once and reports completed jobs per host second.
The open-loop workload offers well below this capacity (see
``SERVICE_RATE`` in ``workloads.py``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from run import CLEARED_ENV, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import make_workloads

    wl = make_workloads()["svc-open"]
    specs = wl.specs(wl.inputs(args.seed))
    svc, _, _ = wl.setup(specs)
    rates = []
    try:
        for _ in range(args.rounds):
            t0 = time.perf_counter()
            handles = [svc.submit_spec(spec) for spec in specs * 3]
            for handle in handles:
                handle.result(timeout=120.0)
            rates.append(len(handles) / (time.perf_counter() - t0))
    finally:
        svc.close()
    cap = statistics.median(rates)
    print("rounds (jobs/s): " + ", ".join(f"{r:.2f}" for r in rates))
    print(f"capacity {cap:.2f} jobs/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
