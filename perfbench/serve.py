"""The ``campaign-serve`` workload: a foundry daemon and an HTTP frontend
under closed-loop load from two tenants.

Topology, all started by the load process (this one):

* ``python -m repro.service serve --workers 2`` — the daemon and its
  two fleet workers;
* ``frontend.py`` — a ``FoundryHTTPFrontend`` in its own process,
  pointed straight at the daemon (no gateway on the path).

Load is closed-loop because every caller today waits for its result:
two callers, each its own tenant — ``frame`` submits through
``DaemonClient`` and waits on ``result()``; ``http`` posts to
``/v1/jobs`` and long-polls ``/result?timeout=``.  Each job is a
two-cell ``CampaignJob`` (brute-force and genetic against the fabric
lock, budget 16, ``n_fft`` 1024) with fresh seeds; every fourth
submission of a caller repeats one of its completed jobs, which the
daemon answers by attaching (idempotent resubmission).  A phase runs
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs have
completed, so the 95th percentile has ten samples beyond it.

Output checks after the load: a fixed sample of fresh jobs re-runs
in-process and must match byte for byte (pickled reports for frames,
canonical JSON for HTTP); every attach must return its original's
bytes; each tenant's meter total from ``ping`` must equal the summed
``n_queries`` of that tenant's fresh jobs (exactly-once charging).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from procfs import alive, children_of, cpu_seconds, peak_rss_mb

HERE = Path(__file__).resolve().parent

#: Jobs a phase completes at least (p95 then has >= 10 samples beyond).
MIN_JOBS = 200
#: Every ATTACH_EVERY-th submission of a caller repeats a completed job.
ATTACH_EVERY = 4
#: Fresh jobs (by position in each caller's list) re-run in-process.
SAMPLE_POSITIONS = (0, 10, 20, 30)
FLEET_WORKERS = 2
JOB_TIMEOUT = 120.0
POLL_TIMEOUT = 30.0
TEARDOWN_TIMEOUT = 30.0


def job_seeds(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(1 << 31), rng.randrange(1 << 31)


def campaign_job(seeds):
    from repro.campaigns import CampaignCell, ThreatScenario
    from repro.service import CampaignJob

    seed, measurement_seed = seeds
    scenario = ThreatScenario(
        budget=16, n_fft=1024, seed=seed, measurement_seed=measurement_seed
    )
    return CampaignJob(cells=(
        CampaignCell("brute-force", scenario),
        CampaignCell("genetic", scenario),
    ))


def campaign_json(seeds) -> dict:
    """The same job in the HTTP facade's JSON schema."""
    seed, measurement_seed = seeds
    scenario = {
        "budget": 16, "n_fft": 1024, "seed": seed,
        "measurement_seed": measurement_seed,
    }
    return {"type": "campaign", "cells": [
        {"attack": "brute-force", "scenario": scenario},
        {"attack": "genetic", "scenario": scenario},
    ]}


def frame_digest(reports) -> str:
    """Digest of each report's own pickle bytes.  Pickling the whole
    list is not canonical: an in-process run's reports share their
    scenario object, which changes the pickle memo."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(pickle.dumps(pickle.loads(pickle.dumps(report))))
    return digest.hexdigest()


def json_digest(reports) -> str:
    return hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()
    ).hexdigest()


def tree_usage(root: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            try:
                size += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
            files += 1
    return files, size


class Caller:
    """One tenant's closed loop.  Each submission is a job with fresh
    seeds or, every ``ATTACH_EVERY``-th, a repeat of a completed one."""

    def __init__(self, session, door: str, seed: int, phase: int):
        self.session = session
        self.door = door
        self.rng = random.Random(f"{seed}/{door}/{phase}")
        self.records: list[dict] = []
        self.fresh: list[dict] = []
        self.pings: list[float] = []
        self.crash = None
        self.conn = None  # the http caller's keep-alive connection

    def next_submission(self) -> dict:
        k = len(self.records)
        if k % ATTACH_EVERY == ATTACH_EVERY - 1 and self.fresh:
            original = self.fresh[self.rng.randrange(len(self.fresh))]
            return {"kind": "attach", "seeds": original["seeds"],
                    "original": original}
        return {"kind": "fresh", "seeds": job_seeds(self.rng)}

    def run(self, keep_going, traced: bool) -> None:
        """Thread body: an unexpected error ends this caller's loop and
        is reported as a failure, never lost with the thread."""
        try:
            if self.door == "frame":
                self.loop(self.frame_job, keep_going, traced)
                return
            self.conn = self.session.http_connection()
            try:
                self.loop(self.http_job, keep_going, traced)
            finally:
                self.conn.close()
        except Exception as exc:
            self.crash = f"{self.door} caller: {type(exc).__name__}: {exc}"

    def loop(self, submit, keep_going, traced: bool) -> None:
        while keep_going():
            record = self.next_submission()
            start = time.perf_counter()
            try:
                submit(record, start)
                record["ok"] = True
            except Exception as exc:  # a failed job is a measured outcome
                record["ok"] = False
                record["error"] = f"{type(exc).__name__}: {exc}"[:300]
                if self.conn is not None:
                    self.conn.close()  # reconnect on the next request
            record["latency_s"] = time.perf_counter() - start
            self.records.append(record)
            if record["ok"] and record["kind"] == "fresh":
                self.fresh.append(record)
            if traced and self.door == "frame":
                ping_start = time.perf_counter()
                self.session.client("frame").ping()
                self.pings.append(time.perf_counter() - ping_start)

    def frame_job(self, record, start) -> None:
        handle = self.session.client("frame").submit(
            campaign_job(record["seeds"])
        )
        record["submit_s"] = time.perf_counter() - start
        result = handle.result(timeout=JOB_TIMEOUT)
        record["task_s"] = sum(result.cell_seconds)
        record["queries"] = sum(r.n_queries for r in result.reports)
        record["digest"] = frame_digest(result.reports)

    def http_job(self, record, start) -> None:
        conn = self.conn
        status, body = http_call(conn, "POST", "/v1/jobs", {
            "tenant": "http", "job": campaign_json(record["seeds"]),
        })
        if status != 202:
            raise RuntimeError(f"submit answered {status}: {body}")
        record["submit_s"] = time.perf_counter() - start
        path = f"/v1/jobs/{body['job_id']}/result?timeout={POLL_TIMEOUT:g}"
        deadline = start + JOB_TIMEOUT
        while True:
            status, body = http_call(conn, "GET", path)
            if status == 200:
                break
            if status != 202 or time.perf_counter() > deadline:
                raise RuntimeError(f"result answered {status}: {body}")
        result = body["result"]
        record["task_s"] = sum(result["cell_seconds"])
        record["queries"] = sum(r["n_queries"] for r in result["reports"])
        record["digest"] = json_digest(result["reports"])


def http_call(conn, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


class Session:
    """Daemon + frontend lifetime, load phases and checks."""

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.root = Path(workdir) / f"serve-{os.getpid()}"
        self.root.mkdir(parents=True, exist_ok=True)
        # Relative to the working directory: Unix socket paths are
        # limited to ~107 bytes and the checkout may sit deep.
        self.socket = str(self.root / "d.sock")
        self.daemon = None
        self.frontend = None
        self.http_port = None
        self.fleet: list[int] = []
        self._clients = {}
        self.log = open(self.root.parent / f"serve-{os.getpid()}.log", "ab")

    # -- lifecycle --------------------------------------------------------

    def start(self) -> float:
        """Start daemon and frontend, ping through both doors; returns
        the seconds until both answered."""
        start = time.monotonic()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--root", str(self.root), "--socket", self.socket,
             "--workers", str(FLEET_WORKERS),
             "--tenant", "frame", "--tenant", "http"],
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        self.frontend = subprocess.Popen(
            [sys.executable, str(HERE / "frontend.py"),
             "--backend", self.socket],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        address = self.frontend.stdout.readline().strip()
        if not address:
            raise RuntimeError("HTTP frontend exited before binding")
        self.http_port = int(address.rpartition(":")[2])
        self.client("frame").ping()
        conn = self.http_connection()
        try:
            status, _ = http_call(conn, "GET", "/v1/ping")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"HTTP ping answered {status}")
        self.fleet = children_of(self.daemon.pid)
        return time.monotonic() - start

    def warm_up(self) -> tuple[float, list]:
        """One job per fleet worker, submitted together (tenant
        ``warmup``, so no load tenant's meter moves)."""
        start = time.monotonic()
        rng = random.Random(f"{self.seed}/warmup")
        seeds = [job_seeds(rng) for _ in range(FLEET_WORKERS)]
        client = self.client("warmup")
        handles = [client.submit(campaign_job(s)) for s in seeds]
        results = [h.result(timeout=JOB_TIMEOUT) for h in handles]
        warmed = [(s, frame_digest(r.reports)) for s, r in zip(seeds, results)]
        return time.monotonic() - start, warmed

    def client(self, tenant: str):
        from repro.service import DaemonClient

        if tenant not in self._clients:
            self._clients[tenant] = DaemonClient(
                socket=self.socket, tenant=tenant, timeout=60.0
            )
        return self._clients[tenant]

    def http_connection(self):
        return http.client.HTTPConnection(
            "127.0.0.1", self.http_port, timeout=JOB_TIMEOUT
        )

    def processes(self) -> dict[str, list[int]]:
        return {
            "daemon": [self.daemon.pid],
            "fleet": self.fleet,
            "http": [self.frontend.pid],
        }

    def cpu(self) -> dict[str, float]:
        return {
            role: sum(cpu_seconds(pid) for pid in pids)
            for role, pids in self.processes().items()
        }

    def peak_rss_mb(self) -> float:
        return peak_rss_mb() + sum(
            peak_rss_mb(pid)
            for pids in self.processes().values() for pid in pids
        )

    def stop(self) -> list[int]:
        """Drain the daemon, stop the frontend, remove root and socket.
        Returns the pids still alive afterwards (killed)."""
        started = [p for p in (self.daemon, self.frontend) if p is not None]
        if self.daemon is not None:
            try:
                self.client("frame").drain(timeout=TEARDOWN_TIMEOUT)
            except Exception:
                self.daemon.terminate()
        if self.frontend is not None:
            self.frontend.send_signal(signal.SIGTERM)
        for proc in started:
            try:
                proc.wait(timeout=TEARDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.frontend is not None:
            self.frontend.stdout.close()
        leftover = [pid for pid in self.fleet if alive(pid)]
        for pid in leftover:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.log.close()
        shutil.rmtree(self.root, ignore_errors=True)
        return leftover

    # -- load -------------------------------------------------------------

    def meters(self) -> dict[str, int]:
        tenants = self.client("frame").ping()["tenants"]
        return {name: tenants[name]["n_queries"] for name in ("frame", "http")}

    def phase(self, index: int, seconds: float, traced: bool) -> dict:
        callers = [Caller(self, door, self.seed, index)
                   for door in ("frame", "http")]
        cpu_before = self.cpu()
        journal_before = tree_usage(self.root / "jobs")
        meters_before = self.meters()
        start = time.perf_counter()
        give_up = start + seconds + 4 * JOB_TIMEOUT

        def keep_going():
            now = time.perf_counter()
            done = sum(len(c.records) for c in callers)
            return now < give_up and (now - start < seconds or done < MIN_JOBS)

        threads = [
            threading.Thread(target=c.run, args=(keep_going, traced))
            for c in callers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu_after = self.cpu()
        journal_after = tree_usage(self.root / "jobs")
        meters_after = self.meters()
        return {
            "traced": traced,
            "wall_s": wall,
            "callers": callers,
            "cpu_s": {k: cpu_after[k] - cpu_before[k] for k in cpu_after},
            "journal": [a - b for a, b in zip(journal_after, journal_before)],
            "queries": (
                sum(meters_after.values()) - sum(meters_before.values())
            ),
        }

    # -- checks -----------------------------------------------------------

    def check(self, phases, warmed) -> tuple[list[str], dict]:
        """Output checks; returns (failures, in-process comparison)."""
        from repro.campaigns.serialization import campaign_result_to_dict
        from repro.service import FoundryService

        failures = []
        service = FoundryService()
        # The first in-process job pays cold caches; the daemon's warm-up
        # jobs are that job, and are checked too.
        for seeds, digest in warmed:
            result = service.submit(campaign_job(seeds)).result()
            if frame_digest(result.reports) != digest:
                failures.append(f"warm-up job {seeds} differs in-process")
        fleet_s = inproc_s = 0.0
        for phase in phases:
            for caller in phase["callers"]:
                for position in SAMPLE_POSITIONS:
                    if position >= len(caller.fresh):
                        continue
                    record = caller.fresh[position]
                    result = service.submit(
                        campaign_job(record["seeds"])
                    ).result()
                    if caller.door == "frame":
                        digest = frame_digest(result.reports)
                    else:
                        digest = json_digest(
                            campaign_result_to_dict(result)["reports"]
                        )
                    if digest != record["digest"]:
                        failures.append(
                            f"{caller.door} job {record['seeds']} differs "
                            f"from its in-process re-run"
                        )
                    fleet_s += record["task_s"]
                    inproc_s += sum(result.cell_seconds)
                for record in caller.records:
                    if record["kind"] == "attach" and record["ok"] and (
                        record["digest"] != record["original"]["digest"]
                    ):
                        failures.append(
                            f"{caller.door} attach {record['seeds']} "
                            f"differs from its original"
                        )
        meters = self.meters()
        for door in ("frame", "http"):
            charged = sum(
                record["queries"]
                for phase in phases for caller in phase["callers"]
                if caller.door == door for record in caller.fresh
            )
            if meters[door] != charged:
                failures.append(
                    f"tenant {door} metered {meters[door]} queries, its "
                    f"fresh jobs report {charged}"
                )
        return failures, {"fleet_s": fleet_s, "inproc_s": inproc_s}


def campaign_serve(args, setup: dict) -> dict:
    """Run the workload in this (load) process; see module docstring."""
    session = Session(args.workdir, args.seed)
    record: dict = {"failures": [], "attempted": 0, "failed": 0}
    try:
        setup["daemon_ready_s"] = session.start()
        setup["warmup_s"], warmed = session.warm_up()
        if not args.setup_only:
            modes = [False, True] if args.trace else [False]
            phases = [
                session.phase(i, args.seconds, traced)
                for i, traced in enumerate(modes)
            ]
            record["peak_rss_mb"] = session.peak_rss_mb()
            failures, compared = session.check(phases, warmed)
            record.update(summarise(phases, failures, compared))
    except Exception as exc:
        record["failures"].append(f"{type(exc).__name__}: {exc}"[:300])
        record["failed"] = max(record["failed"], 1)
        record["attempted"] = max(record["attempted"], 1)
    finally:
        leftover = session.stop()
    if leftover:
        record["failures"].append(f"processes left behind: {leftover}")
        record["failed"] += len(leftover)
    record["leftover"] = leftover
    return record


def summarise(phases, failures, compared) -> dict:
    """Per-phase numbers for ``run.py``: job latencies by door and kind,
    fleet task time, CPU, journal growth and meter totals."""
    out = []
    attempted = failed = 0
    for phase in phases:
        jobs = []
        for caller in phase["callers"]:
            for r in caller.records:
                jobs.append({
                    "door": caller.door, "kind": r["kind"], "ok": r["ok"],
                    "latency_s": r["latency_s"],
                    "submit_s": r.get("submit_s"),
                    "task_s": r.get("task_s"),
                    "error": r.get("error"),
                })
        attempted += len(jobs)
        failed += sum(1 for j in jobs if not j["ok"])
        out.append({
            "traced": phase["traced"],
            "wall_s": phase["wall_s"],
            "jobs": jobs,
            "pings": [p for c in phase["callers"] for p in c.pings],
            "cpu_s": phase["cpu_s"],
            "journal": phase["journal"],
            "queries": phase["queries"],
        })
    errors = [
        j["error"] for phase in out for j in phase["jobs"] if j["error"]
    ]
    crashes = [
        c.crash for phase in phases for c in phase["callers"] if c.crash
    ]
    return {
        "phases": out,
        "attempted": attempted,
        "failed": failed + len(failures) + len(crashes),
        "failures": failures + crashes + errors[:5],
        "task_inproc_ratio": (
            compared["fleet_s"] / compared["inproc_s"]
            if compared["inproc_s"] else 0.0
        ),
    }
