"""The measurement protocol: repeats, calibrated CPU time, checks, result line.

One run = one untimed warm-up repeat, then timed repeats until
``--seconds`` of measuring have passed. Every repeat builds a fresh world
(timed as set-up, ending in a ``gc.collect()``), then times only the drain
with the collector off. Simulated numbers are exact for a seed.

Host time on a small shared machine is noisy in a way longer repeats do
not fix: single 3 s drains of one scenario ranged 2.55-4.82 s. Three things
were measured about that noise (``bench/README.md`` has the tables):

* it comes in bursts about as long as a repeat, so a run makes many short
  repeats (0.25-0.7 s each) and takes medians;
* wall-clock time doubles when the cores are shared with a visible
  neighbour and CPU time does not, so host time is the **CPU time** of the
  drain, this process's and its workers';
* for minutes at a time the machine simply runs slower — CPU time of whole
  runs up 20-50% — and a fixed interpreter-bound loop slows with it, so
  every timed region is divided by the mean of that **calibration loop**
  run just before and just after it. That ratio moved 3-5% from run to run
  in quiet and in noisy minutes alike, where the plain CPU time moved 3%
  and 23%. It is reported in microseconds at the reference speed (the
  loop's quiet-machine time, ``CALIBRATION_REFERENCE_S``).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

from bench import ROOT
from bench.reducers import sim_digest, summarize
from bench.tracing import profile_layers, span_phases
from bench.workloads import WORKLOADS, Obs, Outcome, Workload

MAX_REPEATS = 60

CALIBRATION_STEPS = 30_000
#: CPU seconds the calibration loop takes on the quiet reference machine
#: (2 vCPUs of the sandbox this benchmark was built on): the speed at which
#: the reported host times are quoted
CALIBRATION_REFERENCE_S = 0.026

#: The simulated statistics every workload defines and that are never 0:
#: bounded end-to-end metrics. The rest of ``Outcome.sim`` (first-result
#: latency, re-query KB, degraded fraction, paper error) is reported
#: unbounded, under an ``e2e.`` prefix, by the workloads that define it.
SIM_BOUNDED = ("sim_kb_per_op", "recall")

_HOST_SUFFIXES = (
    "host_share", "calls_per_op", "_overhead", "host_us_per_event",
    "ipc_serialize_s", "ipc_deserialize_s", "busy_imbalance", "stall_share",
    "share_sum",
    "wall_over_cpu", "machine_speed",
)


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds printed."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_kind(name: str) -> str:
    """``host`` (what the simulator costs to run; noisy) or ``sim`` (what
    the modelled network experiences; exact for a seed)."""
    if name in ("host_us_per_op", "setup_s", "peak_rss_mb"):
        return "host"
    return "host" if name.endswith(_HOST_SUFFIXES) else "sim"


#: what the result line carries for a metric the workload does not define
UNDEFINED = 0.0


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout, read without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment() -> dict[str, Any]:
    """What two result files need to share to be comparable."""
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "load_start": os.getloadavg(),
    }


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time spent so far by this process and the workers it has reaped."""
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + workers.ru_utime + workers.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed loop shaped like the interpreter's work here:
    string-keyed dict updates, heap pushes and pops, float arithmetic."""
    rng = random.Random(1)
    counts: dict[str, int] = {}
    heap: list[tuple[float, int]] = []
    total = 0.0
    started = time.process_time()
    for step in range(CALIBRATION_STEPS):
        key = f"k{step & 1023}"
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (rng.random(), step))
        if step & 1:
            total += heapq.heappop(heap)[0] * 1.0001
    return time.process_time() - started


@dataclass
class Repeat:
    world: int
    #: CPU seconds of set-up and of the drain, at the reference speed
    setup_s: float
    host_s: float
    #: wall-clock over raw CPU seconds of the drain
    wall_over_cpu: float
    #: reference over measured calibration time around the drain (1 = the
    #: quiet reference machine, lower = a slower machine or minute)
    speed: float
    outcome: Outcome
    digest: str
    #: set only on the profiled pass
    profile: cProfile.Profile | None = None


def run_repeat(
    build: Callable[[], Any], world: int, profiled: bool = False, deep: bool = False
) -> Repeat:
    """Build a world (set-up), drain it (timed), reduce it (untimed)."""
    gc.collect()  # the previous world's garbage is not this one's set-up
    before_setup = calibrate()
    started = cpu_seconds()
    built = build()
    gc.collect()
    setup_cpu = cpu_seconds() - started
    profile = cProfile.Profile() if profiled else None
    gc.disable()
    try:
        before_drain = calibrate()
        started, wall_started = cpu_seconds(), time.perf_counter()
        if profile is not None:
            profile.enable()
        built.drain()
        if profile is not None:
            profile.disable()
        drain_cpu = cpu_seconds() - started
        drain_wall = time.perf_counter() - wall_started
        after_drain = calibrate()
    finally:
        gc.enable()
    setup_speed = 2 * CALIBRATION_REFERENCE_S / (before_setup + before_drain)
    drain_speed = 2 * CALIBRATION_REFERENCE_S / (before_drain + after_drain)
    outcome = built.outcome(deep=deep)
    digest = sim_digest(outcome.rows)
    outcome.rows = []  # digested; holding them would show up in peak_rss_mb
    return Repeat(
        world, setup_cpu * setup_speed, drain_cpu * drain_speed,
        drain_wall / drain_cpu, drain_speed, outcome, digest, profile,
    )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    env: dict[str, Any]
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: every metric this run computed, by name
    metrics: dict[str, float] = field(default_factory=dict)
    #: per-repeat samples behind each host metric
    samples: dict[str, list[float]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    digest: str = ""
    repeats: int = 0

    def result_line(self, spec: dict) -> str:
        """The contract's last line: exactly the listed metrics, each a
        number. The contract leaves no way to omit a per-layer metric the
        workload does not define, so it is carried as ``UNDEFINED``; the
        printed listing says ``n/a`` and ``--out`` leaves it out."""
        listed = spec["per_layer" if self.trace else "end_to_end"]
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    m["name"]: {
                        "value": self.metrics.get(m["name"], UNDEFINED),
                        "unit": m["unit"],
                    }
                    for m in listed
                },
            }
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "quick": self.quick, "env": self.env,
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "repeats": self.repeats, "digest": self.digest,
            "checks": self.checks, "metrics": self.metrics, "samples": self.samples,
        }


class _Run:
    """State shared by the untraced and the traced protocol."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, quick: bool):
        self.workload: Workload = WORKLOADS[name](quick)
        self.seed = seed
        self.result = RunResult(name, seed, seconds, trace, quick, environment())
        #: first digest seen per world: every later repeat must match it
        self.reference: dict[int, str] = {}
        self.outcomes: dict[int, Outcome] = {}

    def repeat(self, world: int, obs: Obs | None = None, **kwargs) -> Repeat:
        repeat = run_repeat(
            lambda: self.workload.build(self.seed, world, obs), world, **kwargs
        )
        self.account(repeat)
        return repeat

    def warm_up(self) -> None:
        """Untimed: lets imports, lazy set-up and allocator pools settle."""
        self.account(run_repeat(lambda: self.workload.build_warmup(self.seed), 0))

    def account(self, repeat: Repeat) -> None:
        result, outcome = self.result, repeat.outcome
        for check, passed in outcome.checks.items():
            result.checks[check] = result.checks.get(check, True) and passed
        expected = self.reference.setdefault(repeat.world, repeat.digest)
        result.checks["digest_stable"] = (
            result.checks.get("digest_stable", True) and repeat.digest == expected
        )
        self.outcomes.setdefault(repeat.world, outcome)

    def finish(self, counted: list[Repeat]) -> RunResult:
        result = self.result
        result.repeats = len(counted)
        result.attempted = sum(r.outcome.attempted for r in counted)
        result.failed = sum(r.outcome.failed for r in counted)
        result.metrics["e2e.failed_fraction"] = result.failed / result.attempted
        result.checks["no_failed_ops"] = result.failed == 0
        result.correct = all(result.checks.values())
        worlds = sorted(self.reference)
        result.digest = hashlib.sha256(
            "".join(self.reference[w] for w in worlds).encode()
        ).hexdigest()
        result.env["load_end"] = os.getloadavg()
        return result

    def sim_means(self, worlds: int) -> None:
        """The simulated statistics the workload defines, each averaged
        over the run's worlds."""
        metrics = self.result.metrics
        for key in self.outcomes[0].sim:
            name = key if key in SIM_BOUNDED else f"e2e.{key}"
            metrics[name] = sum(self.outcomes[w].sim[key] for w in range(worlds)) / worlds


def over_worlds(samples: list[float], worlds: int) -> float:
    """Each world's median repeat, averaged over the worlds (repeat ``r``
    drained world ``r % worlds``; worlds differ in how much work they are)."""
    medians = [median(samples[world::worlds]) for world in range(worlds)]
    return sum(medians) / len(medians)


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def run_untraced(name: str, seed: int, seconds: float, quick: bool) -> RunResult:
    """The end-to-end numbers, tracing off."""
    run = _Run(name, seed, seconds, False, quick)
    worlds = 1 if quick else run.workload.worlds_per_run
    # Every world is visited whatever the host's speed, so the simulated
    # numbers depend on the seed alone.
    at_least = 1 if quick else max(3, worlds)
    run.warm_up()
    repeats: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    while len(repeats) < at_least or (
        not quick and time.perf_counter() < deadline and len(repeats) < MAX_REPEATS
    ):
        repeats.append(run.repeat(len(repeats) % worlds))
    result = run.finish(repeats)
    samples = result.samples
    samples["host_us_per_op"] = [
        r.host_s * 1e6 / r.outcome.attempted for r in repeats
    ]
    samples["setup_s"] = [r.setup_s for r in repeats]
    metrics = result.metrics
    for key, values in samples.items():
        metrics[key] = over_worlds(values, worlds)
    # above 1: the machine was time-sharing; below 1: workers ran in parallel
    samples["trace.wall_over_cpu"] = [r.wall_over_cpu for r in repeats]
    samples["trace.machine_speed"] = [r.speed for r in repeats]
    for key in ("trace.wall_over_cpu", "trace.machine_speed"):
        metrics[key] = median(samples[key])
    metrics["peak_rss_mb"] = _peak_rss_mb()
    run.sim_means(worlds)
    return result


def run_traced(name: str, seed: int, seconds: float, quick: bool) -> RunResult:
    """The per-layer numbers: three passes over world 0, round after round.

    *plain* reads the exact counts and is the host-time reference;
    *profile* repeats it under ``cProfile`` for self time by layer; *obs*
    repeats it with a ``Tracer`` and a ``MetricsRegistry`` wired through
    the public constructors, for sim time by phase and the PIER operator
    counts. Each traced pass must leave the digest where *plain* put it.
    """
    run = _Run(name, seed, seconds, True, quick)
    run.warm_up()
    rounds: list[dict[str, float]] = []
    plain_repeats: list[Repeat] = []
    exact: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while not rounds or (not quick and time.perf_counter() < deadline):
        plain = run.repeat(0, deep=not rounds)
        plain_repeats.append(plain)
        ops = plain.outcome.attempted
        counts = plain.outcome.counts
        events = counts.get("sim.events", 0.0)
        # host-timed numbers are taken every round; exact ones once
        host = {k: v for k, v in counts.items() if metric_kind(k) == "host"}
        if events:
            host["sim.host_us_per_event"] = plain.host_s * 1e6 / events
        host["trace.wall_over_cpu"] = plain.wall_over_cpu
        host["trace.machine_speed"] = plain.speed
        profiled = run.repeat(0, profiled=True)
        host.update(profile_layers(profiled.profile, ops))
        host["trace.profile_overhead"] = profiled.host_s / plain.host_s
        obs = Obs() if run.workload.supports_obs else None
        if obs is not None:
            traced = run.repeat(0, obs=obs)
            host["obs.trace_overhead"] = traced.host_s / plain.host_s
        if not rounds:
            exact.update(counts)
            if obs is not None:
                exact.update(traced.outcome.counts)
                exact.update(span_phases(obs.tracer, ops))
        rounds.append(host)
    result = run.finish(plain_repeats)
    metrics = result.metrics
    for key in rounds[0]:
        result.samples[key] = [r[key] for r in rounds]
        metrics[key] = median(result.samples[key])
    metrics.update({k: v for k, v in exact.items() if k not in metrics})
    run.sim_means(1)
    return result


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> RunResult:
    runner = run_traced if trace else run_untraced
    return runner(name, seed, seconds, quick)


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------


def print_result(result: RunResult, spec: dict, out=sys.stdout) -> None:
    """Every metric by name with its unit, then the result line."""
    env = result.env
    why = next(w["why"] for w in spec["workloads"] if w["name"] == result.workload)
    print(
        f"# bench workload={result.workload} seed={result.seed} "
        f"seconds={result.seconds:g} trace={int(result.trace)} "
        f"repeats={result.repeats}"
        + (" QUICK: numbers not for comparison" if result.quick else ""),
        file=out,
    )
    print(f"# why: {why}", file=out)
    print(
        f"# env commit={env['commit']} python={env['python']} "
        f"cpus={env['cpu_count']} platform={env['platform']} "
        f"load_start={env['load_start'][0]:.2f} load_end={env['load_end'][0]:.2f}",
        file=out,
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = [m["name"] for m in spec["per_layer" if result.trace else "end_to_end"]]
    extra = sorted(k for k in result.metrics if k in units and k not in listed)
    for name in listed + extra:
        if name not in result.metrics:
            print(f"{name:38s} = n/a (not defined on this workload)", file=out)
            continue
        value = result.metrics[name]
        line = f"{name:38s} = {value:<14.6g} {units[name]:8s} [{metric_kind(name)}]"
        if name in result.samples and len(result.samples[name]) > 1:
            s = summarize(result.samples[name])
            line += (
                f"  {s.count} samples: median {s.median:.6g} "
                f"(q1 {s.q1:.6g}, q3 {s.q3:.6g}, min {s.minimum:.6g})"
            )
        print(line, file=out)
    print(f"sim_digest = {result.digest}", file=out)
    for check, passed in sorted(result.checks.items()):
        print(f"check {check}: {'ok' if passed else 'FAILED'}", file=out)
    print(result.result_line(spec), file=out)
