"""The benchmark's three workloads: what runs, what is timed, what is checked.

* ``step-incore`` and ``step-ooc`` are closed loops of driver steps.  An op
  is one ``step`` call.  Steps run in episodes of a few steps, each from
  the seeded initial state, so the state after step *k* of every episode
  has one right answer per seed.
* ``svc-open`` is an open loop of service jobs.  An op is one job, timed
  from the instant its Poisson schedule made it due to its result.

Every op is checked: its simulated cycles against the recorded value, and
the state it produced against the recorded digest for the seed (or, for a
seed without a record, against the first episode of the same run).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.cudasim import G8800GTX, fastpath
from repro.cudasim.kernel_cache import KernelCache, default_cache, set_default_cache
from repro.gravit import Simulation, SimulationConfig
from repro.gravit.forces_cpu import direct_forces
from repro.gravit.spawn import plummer
from repro.service import JobSpec, SimulationService
from repro.service.errors import ServiceError

import tracer as _tracer
from speed import REFERENCE_PROBE_S, Speed

DT = 1e-3
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Largest per-particle relative force error allowed against the float64
#: reference on the first step, per particle summed over: the worst-case
#: bound n * eps for a float32 sum of n terms (eps = 2**-23).
FORCE_RTOL_PER_TERM = 2.0**-23
#: Share of a traced run spent untraced, for ``trace.overhead_frac``.
UNTRACED_SHARE = 1.0 / 3.0
#: Spare seconds the service generator leaves between the end of a speed
#: probe and the next job's due time.
PROBE_MARGIN_S = 0.02
#: Least seconds between two probes of the service generator.
SERVICE_PROBE_GAP_S = 0.25
#: Share of host time spent on speed probes next to each op or set-up
#: (at least one probe, at most five).
PROBE_SHARE = 0.05
STATE_FIELDS = ("px", "py", "pz", "vx", "vy", "vz", "mass")
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")


def digest(state, forces) -> str:
    h = hashlib.sha256()
    for name in STATE_FIELDS:
        h.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    h.update(np.ascontiguousarray(forces).tobytes())
    return h.hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_cache() -> None:
    """Start from an empty in-memory kernel cache (no disk layer)."""
    set_default_cache(KernelCache())


def probe_after(speed: Speed, wall_s: float) -> None:
    """Probe host speed after ``wall_s`` of work, about PROBE_SHARE of it."""
    speed.batch(min(5, max(1, round(PROBE_SHARE * wall_s / REFERENCE_PROBE_S))))


def warp_instructions(snapshot: dict) -> float:
    metric = snapshot.get("cudasim.warp_instructions", {"series": []})
    return math.fsum(s["value"] for s in metric["series"])


@dataclass
class Outcome:
    """Everything one run measured and checked.

    Host times are kept as ``(start, end)`` intervals on the host clock and
    scaled to reference speed (see ``speed.py``) when they are read.
    """

    speed: Speed
    ops: list = field(default_factory=list)  # (start, end, ok) per op
    setups: list = field(default_factory=list)  # (start, end) per set-up
    runs: list = field(default_factory=list)  # svc-open: (start, end) per job run
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    window_s: float = 0.0  # svc-open: host seconds from start to last result
    cycles_per_op: float = 0.0
    winst_per_op: float = 0.0
    notes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # per-layer metrics

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def op_s(self) -> list:
        """Host seconds per op at reference speed; inf for a failed op."""
        return [
            self.speed.scale(s, e) if ok else math.inf
            for s, e, ok in self.ops
        ]

    def op_wall_s(self) -> list:
        return [e - s if ok else math.inf for s, e, ok in self.ops]

    def setup_s(self) -> list:
        return [self.speed.scale(s, e) for s, e in self.setups]

    def run_s(self) -> list:
        """Host seconds per job run on its device, at reference speed."""
        return [self.speed.scale(s, e) for s, e in self.runs]


# --------------------------------------------------------------- steps


class StepWorkload:
    """A closed loop of ``Simulation.step`` calls on one driver."""

    kind = "step"

    def __init__(self, name, config, n, episode, expected) -> None:
        self.name = name
        self.config = config
        self.n = n
        self.episode = episode
        exp = expected[name]
        self.cycles = exp["cycles"]  # per step index; seed-independent
        self.recorded = exp["digests"]  # seed -> digest per step index

    def inputs(self, seed: int):
        return plummer(self.n, seed=seed)

    def references(self, seed: int) -> tuple[list, bool]:
        rec = self.recorded.get(str(seed))
        if rec is not None:
            return list(rec), True
        return [None] * self.episode, False

    # -- pieces ----------------------------------------------------------

    def setup(self, system):
        """Cold set-up: empty kernel cache, ``Simulation.create`` and one
        warm-up step.  Returns ``(sim, warm-up cycles, (start, end))``."""
        fresh_cache()
        t0 = time.perf_counter()
        sim = Simulation.create(self.config, system.copy())
        cycles = sim.step(DT)
        return sim, cycles, (t0, time.perf_counter())

    def check_step(self, out, k, cycles, what) -> bool:
        if cycles != self.cycles[k]:
            out.fail(f"{what}: step {k + 1} took {cycles!r} cycles, "
                     f"recorded {self.cycles[k]!r}")
            return False
        return True

    def check_state(self, out, refs, k, value, what, ops) -> None:
        if refs[k] is None:
            refs[k] = value
        elif refs[k] != value:
            out.fail(f"{what}: state after step {k + 1} is {value}, "
                     f"expected {refs[k]}", ops=ops)

    def warm_up(self, out, system, refs, repeats) -> None:
        out.speed.batch(3)
        for i in range(repeats):
            sim, cycles, interval = self.setup(system)
            try:
                probe_after(out.speed, interval[1] - interval[0])
                out.layer["setup_window"] = interval
                out.setups.append(interval)
                out.attempted += 1
                forces = sim.download_forces()
                if i == 0:
                    self.check_reference(out, system, forces)
                if self.check_step(out, 0, cycles, "warm-up"):
                    self.check_state(
                        out, refs, 0, digest(sim.download(), forces),
                        "warm-up", 1,
                    )
            finally:
                sim.close()

    def check_reference(self, out, system, forces) -> None:
        """First-step forces against the float64 all-pairs reference."""
        ref = direct_forces(system, g=self.config.g, eps=self.config.eps)
        err = np.linalg.norm(forces.astype(np.float64) - ref, axis=1)
        worst = float(np.max(err / np.linalg.norm(ref, axis=1)))
        limit = self.n * FORCE_RTOL_PER_TERM
        out.notes.append(f"first-step force error vs float64: {worst:.2e} "
                         f"(limit {limit:.2e})")
        if not worst <= limit:
            out.fail(f"first-step forces off the float64 reference by "
                     f"{worst:.3e} > {limit:.3e}")

    def window(self, out, system, refs, seconds, trace=None) -> None:
        """Step for ``seconds``, episode by episode; every op is checked."""
        deadline = time.perf_counter() + seconds
        xfer_bytes = 0
        exposed = []
        measured = {}  # step index -> simulated cycles
        out.speed.batch(1)
        while time.perf_counter() < deadline:
            sim = Simulation.create(self.config, system.copy())
            try:
                bad = done = 0
                for k in range(self.episode):
                    if k and time.perf_counter() >= deadline:
                        break
                    done += 1
                    stats = getattr(sim, "stats", None)
                    before = stats.copy_bytes if stats is not None else 0
                    op = f"step{len(out.ops)}"
                    if trace is not None:
                        trace.op = op
                    t0 = time.perf_counter()
                    cycles = sim.step(DT)
                    t1 = time.perf_counter()
                    if trace is not None:
                        trace.op = None
                        out.layer.setdefault("ops", []).append((op, t0, t1))
                    probe_after(out.speed, t1 - t0)
                    out.attempted += 1
                    ok = self.check_step(out, k, cycles, "timed")
                    measured.setdefault(k, cycles)
                    out.ops.append((t0, t1, ok))
                    bad += not ok
                    if stats is not None:
                        xfer_bytes += stats.copy_bytes - before
                if stats is not None:
                    exposed.append(sim.xfer_summary()["copy_exposed_fraction"])
                state = digest(sim.download(), sim.download_forces())
            finally:
                sim.close()
            self.check_state(out, refs, done - 1, state, "timed", done - bad)
        ops = max(1, len(out.ops))
        out.layer["xfer.copy_bytes_per_op"] = xfer_bytes / ops
        out.layer["xfer.copy_exposed_fraction"] = (
            float(np.median(exposed)) if exposed else 0.0
        )
        out.cycles_per_op = math.fsum(measured.values()) / len(measured)

    def count_pass(self, out, system) -> None:
        """One untimed step with the simulator's own counters switched on,
        for the warp-instruction count behind ``sim_winst_per_s``."""
        sim = Simulation.create(self.config, system.copy())
        telemetry.enable()
        try:
            sim.step(DT)
            out.winst_per_op = warp_instructions(telemetry.snapshot())
        finally:
            telemetry.disable()
            sim.close()

    # -- runs ------------------------------------------------------------

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome(Speed())
        system = self.inputs(seed)
        refs, recorded = self.references(seed)
        out.notes.append(f"seed {seed}: recorded digests "
                         f"{'used' if recorded else 'absent; self-consistency only'}")
        self.warm_up(out, system, refs, SETUP_REPEATS)
        self.window(out, system, refs, seconds)
        self.count_pass(out, system)
        return out

    def run_traced(self, seed: int, seconds: float) -> tuple[Outcome, Outcome]:
        """An untraced window, then a traced cold set-up and window."""
        system = self.inputs(seed)
        refs, _ = self.references(seed)
        speed = Speed()
        plain = Outcome(speed)
        self.warm_up(plain, system, refs, 1)
        self.window(plain, system, refs, seconds * UNTRACED_SHARE)
        traced = Outcome(speed)
        trace = _tracer.Tracer()
        _tracer.install(trace)
        try:
            self.warm_up(traced, system, refs, 1)
            vec0 = fastpath.vec_counters()
            cache0 = _cache_counts()
            self.window(traced, system, refs,
                        seconds * (1.0 - UNTRACED_SHARE), trace=trace)
        finally:
            trace.unpatch()
        traced.layer["vec"] = _delta(fastpath.vec_counters(), vec0)
        traced.layer["cache"] = _delta(_cache_counts(), cache0)
        traced.layer["tracer"] = trace
        return plain, traced


def _cache_counts() -> dict:
    stats = default_cache().stats
    return {"hits": stats.hits, "misses": stats.misses}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


# ------------------------------------------------------------- service


#: The service benchmark's reduced device: 2 SMs, one resident block each.
SERVICE_HARDWARE = SimulationConfig(
    device_props=replace(
        G8800GTX, num_sms=2, max_blocks_per_sm=1, name="bench-svc"
    )
)
LAYOUTS = ("aos", "soa", "aoas", "soaoas")
#: One tenant per (layout, block size, unroll): 16 kernel configurations.
TENANTS = tuple(
    (layout, block, unroll)
    for layout in LAYOUTS
    for block in (32, 64)
    for unroll in (None, "full")
)
SERVICE_N = 96
#: Offered load, jobs per host second.  ``perfbench/capacity.py`` (all
#: jobs queued at once, warm caches) measured a closed-loop capacity of
#: 13.6 jobs/s (median of three runs) on the 2-vCPU build machine.  The
#: two devices share one interpreter, so a job that overlaps a job on the
#: other device runs up to twice as long as a solo one.  At 6 jobs/s about
#: half the jobs overlapped, and the median latency sat between the solo
#: and the overlapped jobs and amplified every change of host speed.  At
#: 3 jobs/s most jobs run solo, and latency follows host speed about
#: linearly.
SERVICE_RATE = 3.0


def tenant_name(i: int) -> str:
    layout, block, unroll = TENANTS[i]
    return f"t{i:02d}-{layout}-b{block}-{'full' if unroll else 'rolled'}"


class ServiceWorkload:
    """Sixteen tenants' jobs through ``SimulationService`` on a schedule."""

    kind = "service"

    def __init__(self, name, expected) -> None:
        self.name = name
        exp = expected[name]
        self.cycles = exp["cycles"]  # tenant -> cycles per job
        self.recorded = exp["digests"]  # seed -> tenant -> digest

    def configs(self) -> list:
        return [
            SERVICE_HARDWARE.replace(layout=l, block_size=b, unroll=u)
            for l, b, u in TENANTS
        ]

    def inputs(self, seed: int):
        """One particle system per tenant (each job of a tenant reuses it)."""
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=len(TENANTS))
        return [plummer(SERVICE_N, seed=int(s)) for s in seeds]

    def schedule(self, seed: int, seconds: float) -> list:
        """Poisson arrivals at :data:`SERVICE_RATE` for ``seconds``.

        The number of jobs is fixed (a multiple of the tenant count, so
        every tenant sends as many jobs); given that number, Poisson
        arrival times are uniform order statistics on the window.
        """
        rng = np.random.default_rng([seed, 1])
        per_tenant = max(1, round(SERVICE_RATE * seconds / len(TENANTS)))
        order = rng.permutation(np.repeat(np.arange(len(TENANTS)), per_tenant))
        due = np.sort(rng.uniform(0.0, seconds, size=order.size))
        return list(zip(due.tolist(), order.tolist()))

    def specs(self, systems) -> list:
        return [
            JobSpec(tenant=tenant_name(i), system=systems[i], config=cfg,
                    steps=1, dt=DT)
            for i, cfg in enumerate(self.configs())
        ]

    # -- pieces ----------------------------------------------------------

    def setup(self, specs):
        """Cold set-up: empty kernel cache, a new service and one warm-up
        job per tenant configuration.  Returns ``(service, results,
        (start, end))``."""
        fresh_cache()
        t0 = time.perf_counter()
        svc = SimulationService(hardware=SERVICE_HARDWARE)
        try:
            handles = [svc.submit_spec(spec) for spec in specs]
            results = [h.result(timeout=120.0) for h in handles]
        except BaseException:
            svc.close()
            raise
        return svc, results, (t0, time.perf_counter())

    def direct(self, out, systems) -> list:
        """Each tenant's job run straight through ``Simulation.create``.

        Untimed.  Returns the per-tenant digests, and fills the per-job
        warp-instruction count from the simulator's own counters.
        """
        digests, winst, measured = [], [], []
        for i, cfg in enumerate(self.configs()):
            sim = Simulation.create(cfg, systems[i].copy())
            telemetry.enable()
            try:
                cycles = sim.run(1, DT)
                winst.append(warp_instructions(telemetry.snapshot()))
                digests.append(digest(sim.download(), sim.download_forces()))
            finally:
                telemetry.disable()
                sim.close()
            measured.append(cycles)
            want = self.cycles[tenant_name(i)]
            if cycles != want:
                out.fail(f"direct {tenant_name(i)}: {cycles!r} cycles, "
                         f"recorded {want!r}")
        out.winst_per_op = math.fsum(winst) / len(winst)
        out.cycles_per_op = math.fsum(measured) / len(measured)
        return digests

    def check_job(self, out, i, result, refs, what) -> bool:
        name = tenant_name(i)
        if result.cycles != self.cycles[name]:
            out.fail(f"{what} {name}: {result.cycles!r} cycles, recorded "
                     f"{self.cycles[name]!r}")
            return False
        got = digest(result.state, result.forces)
        if got != refs[i]:
            out.fail(f"{what} {name}: state {got} differs from the direct "
                     f"run's {refs[i]}")
            return False
        return True

    def references(self, out, seed, systems) -> list:
        refs = self.direct(out, systems)
        rec = self.recorded.get(str(seed))
        if rec is None:
            out.notes.append(f"seed {seed}: recorded digests absent; "
                             "jobs are checked against direct runs only")
            return refs
        out.notes.append(f"seed {seed}: recorded digests used")
        for i, got in enumerate(refs):
            if rec[tenant_name(i)] != got:
                out.fail(f"direct {tenant_name(i)}: state {got}, recorded "
                         f"{rec[tenant_name(i)]}")
        return [rec[tenant_name(i)] for i in range(len(TENANTS))]

    def warm_up(self, out, specs, refs, repeats):
        svc = None
        out.speed.batch(3)
        for _ in range(repeats):
            if svc is not None:
                svc.close()
            svc, results, interval = self.setup(specs)
            probe_after(out.speed, interval[1] - interval[0])
            out.layer["setup_window"] = interval
            out.setups.append(interval)
            for i, result in enumerate(results):
                out.attempted += 1
                self.check_job(out, i, result, refs, "warm-up")
        return svc

    def window(self, out, svc, specs, refs, schedule, trace=None) -> None:
        """Send ``schedule`` from one generator thread; wait for every job.

        The generator also probes host speed, at most every
        :data:`SERVICE_PROBE_GAP_S`.  It starts a probe only when no job is
        queued or running and the next job is due later than twice the
        longest recent probe (a warm-up run and the probe) plus
        :data:`PROBE_MARGIN_S`, so a probe neither delays nor slows a job.
        """
        records = []
        out.speed.batch(5)
        start = time.perf_counter() + 0.01

        def generate() -> None:
            last_probe = start
            for offset, i in schedule:
                due = start + offset
                while (delay := due - time.perf_counter()) > 0:
                    now = due - delay
                    if (delay > 2 * out.speed.recent_max() + PROBE_MARGIN_S
                            and now - last_probe > SERVICE_PROBE_GAP_S
                            and svc.inflight == 0 and svc.queue_depth == 0):
                        out.speed.batch(1)
                        last_probe = time.perf_counter()
                    else:
                        time.sleep(min(delay, 0.005))
                t0 = time.perf_counter()
                try:
                    handle, error = svc.submit_spec(specs[i]), None
                except ServiceError as exc:  # refused, e.g. QueueFullError
                    handle, error = None, exc
                records.append((due, t0, time.perf_counter(), i, handle, error))

        stats0 = svc.stats()
        gen = threading.Thread(target=generate, name="bench-generator")
        gen.start()
        gen.join()
        finished = []
        busy: dict = {}
        queue_wait, run_s = [], []
        for due, t0, t1, i, handle, error in records:
            out.attempted += 1
            if handle is None:
                out.fail(f"job for {tenant_name(i)} refused: {error!r}")
                out.ops.append((due, due, False))
                continue
            try:
                result = handle.result(timeout=120.0)
            except Exception as exc:  # the job failed inside the service
                out.fail(f"{handle.job_id} failed: {exc!r}")
                out.ops.append((due, due, False))
                continue
            finished.append(handle.finished_s)
            ok = self.check_job(out, i, result, refs, handle.job_id)
            out.ops.append((due, handle.finished_s, ok))
            out.runs.append((handle.finished_s - result.run_s, handle.finished_s))
            busy[result.device] = busy.get(result.device, 0.0) + result.run_s
            queue_wait.append(result.queue_wait_s)
            run_s.append(result.run_s)
            if trace is not None:
                job = handle.job_id
                trace.add("service.gen_lag", due, t0, job)
                trace.add("service.submit", t0, t1, job)
                trace.add("service.queue_wait", handle.submitted_s,
                          handle.dispatched_s, job)
                out.layer.setdefault("ops", []).append(
                    (job, due, handle.finished_s))
                out.layer.setdefault("dispatched", {})[job] = (
                    handle.dispatched_s)
        end = max(finished) if finished else time.perf_counter()
        out.window_s = end - start
        out.speed.batch(5)
        stats1 = svc.stats()
        dispatches = stats1["dispatches"] - stats0["dispatches"]
        out.layer.update({
            "service.queue_wait_s": queue_wait,
            "service.run_s": run_s,
            "service.device_busy_frac": [
                busy.get(svc.group[d].name, 0.0) / out.window_s
                for d in range(len(svc.group))
            ],
            "service.warm_hit_rate": (
                (stats1["warm_hits"] - stats0["warm_hits"]) / dispatches
                if dispatches else 0.0
            ),
            "service.gen_lag_s_max": max(
                (t0 - due for due, t0, *_ in records), default=0.0
            ),
        })

    # -- runs ------------------------------------------------------------

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome(Speed())
        systems = self.inputs(seed)
        specs = self.specs(systems)
        refs = self.references(out, seed, systems)
        svc = self.warm_up(out, specs, refs, SETUP_REPEATS)
        try:
            self.window(out, svc, specs, refs, self.schedule(seed, seconds))
        finally:
            svc.close()
        return out

    def run_traced(self, seed: int, seconds: float) -> tuple[Outcome, Outcome]:
        systems = self.inputs(seed)
        specs = self.specs(systems)
        speed = Speed()
        plain = Outcome(speed)
        refs = self.references(plain, seed, systems)
        svc = self.warm_up(plain, specs, refs, 1)
        try:
            self.window(plain, svc, specs, refs,
                        self.schedule(seed, seconds * UNTRACED_SHARE))
        finally:
            svc.close()
        traced = Outcome(speed)
        traced.winst_per_op = plain.winst_per_op
        trace = _tracer.Tracer()
        _tracer.install(trace)
        try:
            svc = self.warm_up(traced, specs, refs, 1)
            try:
                vec0 = fastpath.vec_counters()
                cache0 = _cache_counts()
                self.window(traced, svc, specs, refs,
                            self.schedule(seed, seconds * (1.0 - UNTRACED_SHARE)),
                            trace=trace)
                traced.layer["vec"] = _delta(fastpath.vec_counters(), vec0)
                traced.layer["cache"] = _delta(_cache_counts(), cache0)
            finally:
                svc.close()
        finally:
            trace.unpatch()
        traced.layer["tracer"] = trace
        return plain, traced


def make_workloads(expected: dict | None = None) -> dict:
    """The workloads, checked against ``expected`` (default: the file)."""
    if expected is None:
        expected = load_expected()
    return {
        "step-incore": StepWorkload(
            "step-incore", SimulationConfig(), n=1024, episode=2,
            expected=expected,
        ),
        "step-ooc": StepWorkload(
            "step-ooc",
            SimulationConfig(block_size=32, out_of_core=True, tile_rows=32),
            n=256, episode=4, expected=expected,
        ),
        "svc-open": ServiceWorkload("svc-open", expected),
    }
