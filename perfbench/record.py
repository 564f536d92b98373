"""Regenerate ``perfbench/expected.json``, the values every run checks.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 0-63

For each seed it steps a fresh driver through one episode (recording the
state digest after every step) and runs each service tenant's job directly
through ``Simulation.create``.  Simulated cycles per step and per job do
not depend on the particle data; the script refuses to write a table in
which they differ between seeds.  Re-record only when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import CLEARED_ENV, ROOT


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", type=seed_list)
    args = parser.parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.gravit import Simulation
    from workloads import DT, EXPECTED_PATH, digest, make_workloads, tenant_name

    blank = {"cycles": [], "digests": {}}
    workloads = make_workloads(
        {name: blank for name in ("step-incore", "step-ooc", "svc-open")}
    )
    table = {}
    for name, wl in workloads.items():
        cycles_seen = None
        digests = {}
        for seed in args.seeds:
            if wl.kind == "step":
                sim = Simulation.create(wl.config, wl.inputs(seed).copy())
                cycles, states = [], []
                try:
                    for _ in range(wl.episode):
                        cycles.append(sim.step(DT))
                        states.append(
                            digest(sim.download(), sim.download_forces())
                        )
                finally:
                    sim.close()
            else:
                cycles, states = {}, {}
                for i, (cfg, system) in enumerate(
                    zip(wl.configs(), wl.inputs(seed))
                ):
                    sim = Simulation.create(cfg, system.copy())
                    try:
                        cycles[tenant_name(i)] = sim.run(1, DT)
                        states[tenant_name(i)] = digest(
                            sim.download(), sim.download_forces()
                        )
                    finally:
                        sim.close()
            if cycles_seen is not None and cycles != cycles_seen:
                raise SystemExit(f"{name}: cycles differ at seed {seed}")
            cycles_seen = cycles
            digests[str(seed)] = states
            print(f"{name} seed {seed}", file=sys.stderr)
        table[name] = {"cycles": cycles_seen, "digests": digests}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
