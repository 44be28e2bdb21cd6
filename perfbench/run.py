"""The repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``README.md`` for why each exists):

* ``paper-quick`` — the quick-mode experiment registry, in-process;
* ``campaign-serve`` — a daemon and an HTTP frontend under closed-loop
  load from two tenants (``serve.py``);
* ``fleet-provision`` — lockstep calibration of 24 dies x 2 standards.

Every unit of work runs in a fresh interpreter (``unit.py``), so each
one pays the set-up a user pays.  In-process workloads repeat their
unit until the next one would end past ``--seconds`` of measured work
(at least one unit); ``campaign-serve`` runs its closed loop for at
least ``--seconds`` and at least 200 jobs.  Set-up is sampled several
times per run and reported as a median.  The kernel is compiled and
every module imported once, untimed, before any timed unit.

The last stdout line is the result: ``{"correct", "attempted",
"failed", "metrics"}`` with every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``: the untraced units run as usual, then one more unit
runs traced).  The line before it holds the run's metadata (CPU count,
engine backend, kernel SIMD width and threading, thread-related
environment) and its set-up phases.

The benchmark sets no thread variable and refuses to run with
``REPRO_FAULTS`` armed.  Everything it writes stays under
``.bench_build/`` in the checkout; every process it starts is stopped
before it exits, and a process left behind fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procfs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")  # relative: every process runs in ROOT

WORKLOADS = ("paper-quick", "campaign-serve", "fleet-provision")
#: Set-up samples per run (units count; set-up-only units fill the rest).
SETUP_SAMPLES = {"paper-quick": 5, "fleet-provision": 5, "campaign-serve": 3}
#: The four lots ``fleet-provision`` provisions, in a seed-chosen order.
LOT_BASE = 2020
N_LOTS = 4
#: Every run ends within this many seconds (a run may take at most 180).
RUN_BUDGET = 170.0
FLEET_TRIPLES = 48


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["XDG_CACHE_HOME"] = str(ROOT / BUILD / "cache")
    env["TMPDIR"] = str(ROOT / BUILD / "tmp")
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts units, one process group each, within the run's budget."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET
        self.env = child_env()
        self.problems: list[str] = []
        self.strays = 0

    def unit(self, workload: str, *extra: str) -> dict | None:
        """Run one unit; None when it failed (recorded in problems)."""
        remaining = self.deadline - time.monotonic()
        if remaining < 5:
            self.problems.append(f"{workload}: run budget exhausted")
            return None
        argv = [
            sys.executable, str(HERE / "unit.py"), workload,
            "--workdir", str(self.workdir), "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), *extra, "--spawned-at",
        ]
        proc = subprocess.Popen(
            argv + [repr(time.monotonic())], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            out, err = proc.communicate()
            self.problems.append(f"{workload}: unit timed out")
        leftover = procfs.group_members(proc.pid)
        if leftover:
            kill_group(proc.pid)
            self.strays += len(leftover)
            self.problems.append(
                f"{workload}: unit left processes behind: {leftover}"
            )
        lines = out.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        tail = " | ".join(err.strip().splitlines()[-3:])
        self.problems.append(
            f"{workload}: unit exited {proc.returncode} without a result: "
            f"{tail}"
        )
        return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fleet_lots(seed: int) -> list[int]:
    """All four lots, in an order that starts at the seed's lot."""
    return [LOT_BASE + (seed + k) % N_LOTS for k in range(N_LOTS)]


def run_inprocess(runner: Runner, workload: str):
    """Repeat the unit until the next one would end past ``--seconds``
    of measured work; then, when tracing, one traced unit on the first
    unit's input."""
    args = runner.args
    extra = ()
    if workload == "fleet-provision":
        lots = fleet_lots(args.seed)
        extra = ("--lots", ",".join(map(str, lots)))
    units = []
    spent = 0.0
    while True:
        unit = runner.unit(workload, *extra)
        if unit is None:
            break
        units.append(unit)
        last = sum(job["wall_s"] for job in unit["jobs"])
        spent += last
        if spent + last > args.seconds:
            break
    traced = None
    if args.trace and units:
        if workload == "fleet-provision":
            extra = ("--lots", str(lots[0]))
        traced = runner.unit(workload, *extra, "--trace", "1")
    return units, traced


def setup_only_units(runner: Runner, workload: str, have: int) -> list:
    """Set-up-only units until the run holds its set-up samples."""
    extra = []
    while have + len(extra) < SETUP_SAMPLES[workload]:
        unit = runner.unit(workload, "--setup-only")
        if unit is None:
            break
        extra.append(unit)
    return extra


def job_walls(units) -> list[float]:
    return [job["wall_s"] for unit in units for job in unit["jobs"]]


def inprocess_end_to_end(units, samples) -> dict:
    walls = job_walls(units)
    return {
        "setup_s": median(s["setup_s"] for s in samples),
        "wall_s": median(walls),
        "jobs_per_s": 1.0 / median(walls),
        "job_p50_s": percentile(walls, 50),
        "job_p95_s": percentile(walls, 95),
        "peak_rss_mb": max((u["peak_rss_mb"] for u in units), default=0.0),
    }


def inprocess_layers(workload, units, traced) -> dict:
    spans = traced["trace"]["spans"]
    counts = traced["trace"]["counts"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    job = traced["jobs"][0]
    requests, batches, integrate = job["engine"]
    wall = job["wall_s"]
    same_input = [
        j["wall_s"] for u in units for j in u["jobs"]
        if j.get("lot") == job.get("lot")
    ]
    layers = {
        "logic.solve_calls": counts.get("logic.solve_calls", 0),
        "logic.solve_s": self_s("logic.solve"),
        "attacks.sat_iterations": counts.get("attacks.sat_iterations", 0),
        "attacks.sat_self_s": self_s("attacks.sat"),
        "attacks.oracle_queries": counts.get("attacks.oracle_queries", 0),
        "attacks.oracle_s": self_s("attacks.oracle"),
        "engine.requests": requests,
        "engine.batches": batches,
        "engine.integrate_s": integrate,
        "engine.plan_s": self_s("engine.plan"),
        "engine.self_s": self_s("engine.run_multi") - integrate,
        "dsp.decode_s": self_s("dsp.decode"),
        "calibration.rounds": traced["trace"]["calibration_rounds"],
        "calibration.driver_s": self_s(
            "calibration.fleet", "calibration.single"
        ),
        "store.writes": counts.get("store.writes", 0),
        "store.write_s": self_s("store.write"),
        "store.reads": spans.get("store.read", {}).get("calls", 0),
        "store.read_s": self_s("store.read"),
        "store.hits": counts.get("store.hits", 0),
        "service.submit_s": job["submit_s"],
        "service.first_event_s": job["first_event_s"],
        "trace.overhead": wall / median(same_input) - 1.0,
        "trace.unattributed_s": wall - self_s(*spans),
    }
    if workload == "paper-quick":
        for name, seconds in job["experiments"].items():
            layers[f"experiments.{name}_s"] = seconds
    if workload == "fleet-provision":
        walls = job_walls(units)
        layers["dies_per_s"] = FLEET_TRIPLES * len(walls) / sum(walls)
    return layers


def serve_end_to_end(unit, samples) -> dict:
    phase = unit["phases"][0]
    jobs = phase["jobs"]
    latencies = [j["latency_s"] for j in jobs]
    return {
        "setup_s": median(s["setup_s"] for s in samples),
        "wall_s": phase["wall_s"],
        "jobs_per_s": sum(j["ok"] for j in jobs) / phase["wall_s"],
        "job_p50_s": percentile(latencies, 50),
        "job_p95_s": percentile(latencies, 95),
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def serve_layers(unit) -> dict:
    untraced, traced = unit["phases"][0], unit["phases"][-1]
    jobs = [j for j in traced["jobs"] if j["ok"]]
    fresh = [j for j in jobs if j["kind"] == "fresh"]

    def p50(door, key, kinds=("fresh", "attach")):
        return median(
            j[key] for j in jobs if j["door"] == door and j["kind"] in kinds
        )

    n_jobs = max(len(traced["jobs"]), 1)
    n_http = sum(1 for j in traced["jobs"] if j["door"] == "http")
    # Per caller, the time its jobs spent in named layers: the submit
    # round trip and, for fresh jobs, fleet task time (an attach runs
    # no task).
    lanes = [
        sum(
            j["submit_s"] + (j["task_s"] if j["kind"] == "fresh" else 0.0)
            for j in jobs if j["door"] == door
        )
        for door in ("frame", "http")
    ]
    lanes[0] += sum(traced["pings"])
    per_job = [
        p["wall_s"] / max(len(p["jobs"]), 1) for p in (untraced, traced)
    ]
    return {
        "frame.submit_p50_s": p50("frame", "submit_s"),
        "http.submit_p50_s": p50("http", "submit_s"),
        "frame.job_p50_s": p50("frame", "latency_s", ("fresh",)),
        "http.job_p50_s": p50("http", "latency_s", ("fresh",)),
        "daemon.attach_p50_s": p50("frame", "latency_s", ("attach",)),
        "daemon.ping_p50_s": median(traced["pings"]),
        "fleet.task_p50_s": median(j["task_s"] for j in fresh),
        "fleet.task_inproc_ratio": unit["task_inproc_ratio"],
        "service.overhead_p50_s": median(
            j["latency_s"] - j["task_s"] for j in fresh
        ),
        "daemon.cpu_s_per_job": traced["cpu_s"]["daemon"] / n_jobs,
        "fleet.cpu_s_per_job": traced["cpu_s"]["fleet"] / n_jobs,
        "http.cpu_s_per_job": traced["cpu_s"]["http"] / max(n_http, 1),
        "journal.files_per_job": traced["journal"][0] / max(len(fresh), 1),
        "journal.bytes_per_job": traced["journal"][1] / max(len(fresh), 1),
        "tenants.queries": traced["queries"],
        "trace.overhead": per_job[1] / per_job[0] - 1.0,
        "trace.unattributed_s": traced["wall_s"] - sum(lanes) / len(lanes),
    }


def setup_phases(samples) -> dict:
    names = ("import_s", "kernel_s", "daemon_ready_s", "warmup_s")
    return {
        f"setup.{name}": median(s["setup"].get(name, 0.0) for s in samples)
        for name in names
    }


def measure(args, units, traced, samples) -> dict:
    """The run's metrics; empty when no unit produced measurements."""
    if args.workload == "campaign-serve":
        if not units or "phases" not in units[0]:
            return {}
        if args.trace:
            return {**setup_phases(samples), **serve_layers(units[0])}
        return serve_end_to_end(units[0], samples)
    if not units or (args.trace and not traced):
        return {}
    if args.trace:
        return {
            **setup_phases(samples),
            **inprocess_layers(args.workload, units, traced),
        }
    return inprocess_end_to_end(units, samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if os.environ.get("REPRO_FAULTS"):
        print("error: REPRO_FAULTS is armed; refusing to measure a fault "
              "plan", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = BUILD / f"run-{os.getpid()}"
    for path in (workdir, BUILD / "cache", BUILD / "tmp"):
        (ROOT / path).mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workdir)
    try:
        warm = runner.unit("warm")
        if warm is None:
            print("error: the program does not start: "
                  + "; ".join(runner.problems), file=sys.stderr)
            return 1
        if args.workload == "campaign-serve":
            unit = runner.unit(args.workload, "--trace", str(args.trace))
            units = [unit] if unit is not None else []
            traced = None  # the one unit runs its traced phase itself
        else:
            units, traced = run_inprocess(runner, args.workload)
        samples = units + setup_only_units(runner, args.workload, len(units))
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    counted = samples + ([traced] if traced else [])  # units lead samples
    attempted = sum(u.get("attempted", 0) for u in counted)
    failed = sum(u.get("failed", 0) for u in counted) + runner.strays
    failures = [f for u in counted for f in u.get("failures", [])]
    metrics = measure(args, units, traced, samples)
    names = {m["name"] for m in wanted}
    if set(metrics) - names:
        runner.problems.append(
            f"metrics not in BENCHMARK.json: {sorted(set(metrics) - names)}"
        )
    if not metrics:
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "metadata": warm["metadata"],
        "setup_phases": setup_phases(samples),
        "setup_samples_s": [s["setup_s"] for s in samples],
        "job_walls_s": [
            job["wall_s"] for u in units for job in u.get("jobs", [])
        ] or [p["wall_s"] for u in units for p in u.get("phases", [])],
        "problems": (runner.problems + failures)[:20],
    }))
    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {
                "value": metrics.get(m["name"], 0.0), "unit": m["unit"],
            }
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
