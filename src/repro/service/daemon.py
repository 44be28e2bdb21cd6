"""The foundry daemon: a long-lived, multi-tenant job server.

:class:`FoundryDaemon` promotes the :class:`~repro.service.service.
FoundryService` from a drive-by-consumer library to a server process:
it accepts :mod:`job <repro.service.jobs>` submissions from many
tenants over a Unix/TCP socket front door (:mod:`~repro.service.
protocol` frames), keeps **one persistent worker fleet**, one shared
:class:`~repro.engine.store.CalibrationStore` and one journal root
across every concurrent job, and streams each job's
:class:`~repro.service.jobs.TaskEvent` log over the wire — the
``JobHandle.stream()/result()/status()/cancel()`` shape *is* the wire
protocol, and :class:`~repro.service.client.DaemonClient` returns a
network-backed handle that is drop-in for the in-process one.

Architecture
============

* **Fork first, thread later.**  The fleet's worker processes fork at
  :meth:`FoundryDaemon.start`, while the daemon process is still
  single-threaded — the same fork-safety argument as the engine
  kernel's per-call thread teams.  Only then do the service threads
  start (socket accept, one connection handler per client, one runner
  per admitted job).  A worker *respawned* after a crash necessarily
  forks from the threaded daemon (the trade every
  ``multiprocessing.Pool`` makes); the worker main immediately re-runs
  the same initialisation, so the replacement is indistinguishable.
* **One fleet, many jobs.**  Every job's tasks go into the fleet's one
  ready pool, tagged with a per-job *ticket* and a
  :class:`~repro.service.scheduler.TaskContext` (backend, store,
  tenant meter); workers re-initialise whenever the context changes
  hands, so which worker runs a task still cannot change any report.
  A job's ``n_workers`` bounds how many of its tasks are in flight at
  once (1 serialises the job's cells — which is what makes per-tenant
  metering deterministic), and provisioning tasks gate their attack
  cells through the same :func:`~repro.service.scheduler.run_on_fleet`
  loop an in-process sharded job uses.
* **Self-healing.**  Fleet workers are supervised over per-worker
  duplex pipes (see :mod:`~repro.service.scheduler`): a worker that
  dies or hangs mid-task is reaped, respawned, and its task retried on
  the respawned worker with its partial tenant charges rolled back
  from the per-task reservation journal — a job fails only once one
  of *its* tasks exhausts the ``REPRO_TASK_RETRIES`` attempt budget
  (:class:`~repro.service.jobs.TaskRetriesExhausted` delivered to that
  job's mailbox alone; every other tenant's job keeps running), and
  reports stay byte-identical across any crash schedule
  (``tests/test_faults.py``).
* **Admission control.**  Submissions enter a priority queue (tenant
  priority first, FIFO within a level) and at most ``max_active`` jobs
  run concurrently; per-tenant query quotas meter through one
  file-backed :class:`~repro.service.tenants.TenantMeter` per tenant,
  charged atomically by every oracle in every worker.
* **Durable by default.**  Campaign jobs journal into
  ``<root>/jobs/<job_id>/journal`` unless they pin their own; SIGTERM
  stops admission, cancels in-flight jobs at the next task boundary
  (their finished cells are already journaled) *without* marking them
  terminal — their event streams end with ``"resumable": true`` — and
  a daemon restarted on the same root re-admits exactly those jobs:
  they resume from their journals bit-identically.
  Startup also sweeps crashed-holder ``get_or_set`` lock debris from
  the store root, so a killed daemon can never stall the next one.

Execution reuses the service layer wholesale: :class:`_FleetService`
overrides only *where* tasks run (the persistent fleet instead of a
fleet private to the job, never inline) and under which tenant meter,
so the event sequence shape, gating, journaling and result assembly
are the very code paths ``tests/test_service.py`` already holds
bit-identical — the daemon differential guard in
``tests/test_daemon.py`` closes the loop over the wire.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import pickle
import socket as socket_module
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from repro.engine import CalibrationStore
from repro.service.jobs import (
    CampaignJob,
    JobFailed,
    JobStatus,
    ProvisioningJob,
    TaskEvent,
    default_worker_count,
    validate_worker_count,
)
from repro.service.protocol import (
    ProtocolError,
    bind,
    decode_payload,
    default_address,
    encode_payload,
    event_to_wire,
    recv_frame,
    send_frame,
)
from repro.service.scheduler import (
    POLL_SECONDS,
    TaskContext,
    WorkerFleet,
    run_on_fleet,
)
from repro.service.service import FoundryService
from repro.service.tenants import TenantConfig, TenantMeter, TokenBucket

#: Job statuses that will never change again.
TERMINAL_STATUSES = (JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.CANCELLED)


class DaemonUnavailable(RuntimeError):
    """The daemon refused the request (draining or shutting down)."""


def derive_job_id(tenant: str, job) -> str:
    """Deterministic job id from (tenant, job): resubmitting the
    identical job lands on the same journal, so retries after a kill
    resume instead of re-executing (jobs are frozen dataclasses of
    plain data — their reprs are stable across processes, exactly like
    :func:`~repro.service.journal.cells_fingerprint`)."""
    digest = hashlib.sha256()
    digest.update(tenant.encode())
    digest.update(b"\0")
    digest.update(repr(job).encode())
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# The service facade over the persistent fleet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    """One experiment-registry entry as a fleet task (the daemon runs
    experiment jobs on the fleet — the daemon process itself never
    simulates)."""

    name: str
    full: bool = False
    position: int = 0

    def label(self) -> str:
        return self.name

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("experiment", self.position, self.name)

    def run(self):
        from repro.experiments.runner import REGISTRY

        return REGISTRY[self.name].execute(full=self.full)


class _FleetService(FoundryService):
    """A :class:`FoundryService` whose jobs run on the daemon's
    persistent fleet, under the tenant's meter, and never inline — the
    daemon process itself never simulates, and validation / journal
    replay / gating / result assembly stay the inherited
    (differentially guarded) code paths."""

    def __init__(self, daemon: "FoundryDaemon", tenant: TenantConfig):
        super().__init__(n_workers=daemon.fleet.n_workers)
        self._daemon = daemon
        self._tenant = tenant

    @contextmanager
    def _fleet(self, n_workers: int):
        yield self._daemon.fleet  # shared: outlives the job

    def _task_context(self, backend, store_path) -> TaskContext:
        return TaskContext(
            backend=backend,
            store_path=store_path,
            tenant=self._tenant.name,
            meter_path=str(self._daemon.meter_path(self._tenant.name)),
            max_queries=self._tenant.max_queries,
            max_queries_per_minute=self._tenant.max_queries_per_minute,
        )

    def _campaign_runner(self, job, todo, n_workers, journal):
        # clear_locks=False: a concurrent job of this daemon may hold a
        # *live* lock on a shared triple; crashed-holder debris was
        # swept once at daemon startup.
        return (
            self._campaign_sharded(job, todo, n_workers, journal,
                                   clear_locks=False),
            n_workers,
        )

    def _provision_runner(self, job, missing, n_workers, store):
        return self._provision_sharded(job, missing, n_workers, store)

    def _experiment_events(self, job):
        from repro.experiments.runner import REGISTRY

        selected = list(REGISTRY)
        if job.names:
            selected = [name for name in selected if name in job.names]
        tasks = [
            ExperimentTask(name, job.full, position)
            for position, name in enumerate(selected)
        ]
        # max_inflight=1: experiments stream in report order, exactly
        # like the in-process registry loop.
        events = run_on_fleet(
            self._daemon.fleet,
            self._task_context(job.backend, None),
            tasks,
            [],
            {},
            max_inflight=1,
        )
        results = []
        for task, payload, seconds in events:
            results.append(payload)
            yield TaskEvent("experiment", task.name, task.position, payload,
                            seconds)
        return results


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class DaemonJob:
    """One submitted job's server-side record: the in-process handle,
    the wire-encoded event log, and a condition variable every
    connection handler waits on."""

    def __init__(self, job_id: str, tenant: TenantConfig, job, handle):
        self.job_id = job_id
        self.tenant = tenant
        self.job = job
        self.handle = handle  # None for a terminal stub loaded at restart
        self.status = JobStatus.PENDING if handle is not None else None
        self.events: list[dict] = []
        self.result_text: str | None = None
        self.error: str | None = None
        self.cond = threading.Condition()
        self.cancel_requested = False
        self.drain_cancelled = False
        self.admitted = False

    def interrupted(self) -> bool:
        """Cancelled by a drain: resumable, never terminal on the wire."""
        return self.drain_cancelled and self.status is JobStatus.CANCELLED


class FoundryDaemon:
    """Long-lived, multi-tenant job server over the foundry service.

    One daemon serves one root: it owns every job journaled there, so a
    restart recovers the root whole.  Scale a host up with a larger
    ``n_workers`` fleet, not a second daemon on the same root.

    Args:
        root: The daemon's state directory — shared calibration store
            (``calstore/``), per-job journals (``jobs/<job_id>/``),
            tenant meters and rate buckets (``tenants/``) and the
            default socket.
        socket: Address to listen on — a Unix socket path or
            ``host:port``; defaults to ``REPRO_SERVICE_SOCKET``, else
            ``<root>/daemon.sock``.
        n_workers: Persistent fleet size; None resolves
            ``REPRO_SERVICE_WORKERS`` (the service convention).
        tenants: :class:`TenantConfig` records for tenants with
            non-default priority or a query quota; unknown tenants are
            admitted with defaults (priority 0, unlimited).
        max_active: Concurrently *running* jobs; queued jobs beyond it
            wait in PENDING, admitted highest tenant priority first.
            Defaults to ``max(2, n_workers)``.

    Use ``start()``/``stop()`` to embed (tests do), or :meth:`run` as
    the blocking CLI entry point with SIGTERM/SIGINT drain semantics.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        socket: str | None = None,
        n_workers: int | None = None,
        tenants=(),
        max_active: int | None = None,
    ):
        self.root = Path(root)
        #: Injectable clock for the submission-rate bucket (tests pin
        #: it; worker-side measurement buckets always use real time).
        self.clock = time.monotonic
        self.root.mkdir(parents=True, exist_ok=True)
        self.address = socket or default_address() or str(self.root / "daemon.sock")
        n = n_workers if n_workers is not None else default_worker_count()
        self.fleet = WorkerFleet(n)
        if max_active is None:
            max_active = max(2, n)
        validate_worker_count(max_active, "max_active")
        self.max_active = max_active
        self.tenants = {config.name: config for config in tenants}
        self._jobs: dict[str, DaemonJob] = {}
        self._queue: list = []
        self._seq = itertools.count()
        self._active = 0
        self._lock = threading.RLock()
        self._state_cond = threading.Condition(self._lock)
        self._draining = False
        self._stop_event = threading.Event()
        self._shutdown_requested = threading.Event()
        self._listener = None
        self._accept_thread = None
        self._started = False

    # -- paths ------------------------------------------------------------

    def store_path(self) -> Path:
        """The daemon-wide shared calibration store directory."""
        return self.root / "calstore"

    def jobs_root(self) -> Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root() / job_id

    def meter_path(self, tenant: str) -> Path:
        return self.root / "tenants" / f"{tenant}.count"

    def tenant_meter(self, tenant: str) -> TenantMeter:
        """The (parent-side view of the) tenant's query meter."""
        config = self.tenant(tenant)
        return TenantMeter(
            self.meter_path(tenant), config.max_queries, tenant=tenant,
            max_per_minute=config.max_queries_per_minute,
        )

    def tenant(self, name: str) -> TenantConfig:
        return self.tenants.get(name) or TenantConfig(name=name)

    def submit_bucket(self, tenant: TenantConfig) -> TokenBucket | None:
        """The tenant's submission-rate bucket, or None when unlimited.
        A file under ``<root>/tenants``, so the limit is tenant-wide
        whichever door (frames or HTTP) a submission arrives through
        and survives a daemon restart."""
        if tenant.max_submits_per_minute is None:
            return None
        return TokenBucket(
            self.root / "tenants" / f"{tenant.name}.submits",
            tenant.max_submits_per_minute,
            tenant=tenant.name,
            kind="submission",
            clock=self.clock,
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> int:
        """Bring the daemon up; returns the number of stale store locks
        swept.

        Order matters: sweep crashed-holder lock debris and fork the
        fleet *first*, while this process is still single-threaded
        (fork safety), then recover journaled jobs and finally open the
        front door.
        """
        if self._started:
            raise RuntimeError("daemon already started")
        swept = CalibrationStore(self.store_path()).clear_locks()
        self.fleet.start()
        self._started = True
        self._recover()
        self._listener = bind(self.address)
        self._listener.settimeout(POLL_SECONDS)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-daemon-accept", daemon=True
        )
        self._accept_thread.start()
        return swept

    def run(self) -> None:
        """Blocking CLI entry point with signal-driven drain: SIGTERM
        (and SIGINT) stops admission, cancels in-flight jobs at the
        next task boundary — their finished cells are already
        journaled, and they are *not* marked terminal, so a restart on
        the same root resumes them — and exits."""
        import signal

        def _on_signal(signum, frame):
            self._shutdown_requested.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self.start()
        try:
            self._shutdown_requested.wait()
        finally:
            self.stop(drain_cancel=True)

    def stop(self, drain_cancel: bool = False) -> None:
        """Tear the daemon down.

        With ``drain_cancel`` (the SIGTERM path) in-flight jobs are
        cancelled at the next task boundary and left *resumable* (no
        terminal marker); without it the caller is expected to have
        drained already (or accepts killing the fleet under running
        jobs — their journals stay consistent either way).
        """
        if not self._started:
            return
        self._shutdown_requested.set()
        with self._lock:
            self._draining = True
            active = [
                djob for djob in self._jobs.values()
                if djob.admitted and djob.status not in TERMINAL_STATUSES
                and djob.status is not None
            ]
        if drain_cancel:
            for djob in active:
                self.cancel_job(djob.job_id, drain=True)
            with self._state_cond:
                self._state_cond.wait_for(
                    lambda: self._active == 0, timeout=60.0
                )
        self._stop_event.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.fleet.shutdown()
        family_is_unix = os.sep in self.address or ":" not in self.address
        if family_is_unix:
            try:
                os.unlink(self.address)
            except OSError:
                pass
        self._started = False

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting new jobs and wait for every queued and
        running job to finish; returns False on timeout."""
        with self._state_cond:
            self._draining = True
            return self._state_cond.wait_for(
                lambda: self._active == 0
                and not any(
                    djob.status is JobStatus.PENDING
                    for djob in self._jobs.values()
                ),
                timeout=timeout,
            )

    # -- submission and admission ----------------------------------------

    def submit_job(self, tenant_name: str, job, job_id: str | None = None,
                   rate_exempt: bool = False):
        """Admit ``job`` for ``tenant_name``: returns ``(DaemonJob,
        attached)`` where ``attached`` is True when an identical live
        submission already existed (idempotent resubmission).

        A resubmission of a CANCELLED or FAILED job — or of a job only
        known from a previous daemon life — is re-admitted and resumes
        from its journal.

        A genuinely *new* admission debits the tenant's submission-rate
        bucket (typed :class:`~repro.service.tenants.RateLimited`
        refusal, nothing persisted or queued); attaching is free, and
        ``rate_exempt`` skips the debit for the one submission that is
        not client demand: restart recovery (:meth:`_recover`).  It is
        an in-process argument only — no frame can set it.
        """
        tenant = self.tenant(tenant_name or "default")
        with self._lock:
            if self._draining:
                raise DaemonUnavailable(
                    "daemon is draining; new submissions are refused"
                )
            jid = job_id or derive_job_id(tenant.name, job)
            existing = self._jobs.get(jid)
            if existing is not None and existing.handle is not None and (
                existing.status not in (JobStatus.CANCELLED, JobStatus.FAILED)
            ):
                return existing, True
            if not rate_exempt:
                bucket = self.submit_bucket(tenant)
                if bucket is not None:
                    bucket.take(1.0)
            prepared = self._prepare(jid, job)
            handle = _FleetService(self, tenant).submit(prepared)
            djob = DaemonJob(jid, tenant, prepared, handle)
            self._jobs[jid] = djob
            self._persist(jid, tenant.name, job)
            heapq.heappush(
                self._queue, (-tenant.priority, next(self._seq), jid)
            )
            self._maybe_admit_locked()
        return djob, False

    def _prepare(self, job_id: str, job):
        """Bind the job to the daemon's shared state: the daemon-wide
        calibration store, and a per-job journal directory so every
        campaign is resumable by default."""
        job_dir = self.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(job, CampaignJob):
            return replace(
                job,
                journal=job.journal or str(job_dir / "journal"),
                calibration_store=job.calibration_store
                or str(self.store_path()),
            )
        if isinstance(job, ProvisioningJob):
            return replace(
                job,
                calibration_store=job.calibration_store
                or str(self.store_path()),
            )
        return job

    def _persist(self, job_id: str, tenant: str, job) -> None:
        """Record the submission for restart recovery (atomic writes:
        a SIGKILL mid-persist must not leave a torn job pickle)."""
        job_dir = self.job_dir(job_id)
        for name, data in (
            ("job.pkl", pickle.dumps(job)),
            ("meta.json", json.dumps(
                {"job_id": job_id, "tenant": tenant,
                 "job_type": type(job).__name__}
            ).encode()),
        ):
            tmp = job_dir / (name + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, job_dir / name)
        # A re-admission supersedes any previous terminal marker.
        try:
            os.unlink(job_dir / "terminal.json")
        except OSError:
            pass

    def _write_terminal(self, djob: DaemonJob) -> None:
        marker = self.job_dir(djob.job_id) / "terminal.json"
        tmp = marker.with_suffix(".tmp")
        tmp.write_text(json.dumps(
            {"status": djob.status.value, "error": djob.error}
        ))
        os.replace(tmp, marker)

    def _recover(self) -> None:
        """Re-admit every journaled job without a terminal marker —
        the restart half of drain/restart resume.  The daemon owns its
        root, so every job under ``<root>/jobs`` is its own (a root
        once shared by several daemons is recovered whole).  Jobs
        *with* a terminal marker load as inert records, so status
        queries keep answering; resubmitting one re-admits it (a
        campaign replays its journal, so even a COMPLETED resubmission
        is cheap)."""
        jobs_root = self.jobs_root()
        if not jobs_root.is_dir():
            return
        for job_dir in sorted(jobs_root.iterdir()):
            meta_path = job_dir / "meta.json"
            job_path = job_dir / "job.pkl"
            if not (meta_path.is_file() and job_path.is_file()):
                continue
            try:
                meta = json.loads(meta_path.read_text())
                terminal_path = job_dir / "terminal.json"
                if terminal_path.is_file():
                    terminal = json.loads(terminal_path.read_text())
                    stub = DaemonJob(
                        meta["job_id"], self.tenant(meta["tenant"]),
                        None, None,
                    )
                    stub.status = JobStatus(terminal["status"])
                    stub.error = terminal.get("error")
                    with self._lock:
                        self._jobs[meta["job_id"]] = stub
                    continue
                with open(job_path, "rb") as fh:
                    job = pickle.load(fh)
                # rate_exempt: recovery is not client demand — a
                # restart must never be refused by the submit bucket.
                self.submit_job(meta["tenant"], job, job_id=meta["job_id"],
                                rate_exempt=True)
            except (OSError, ValueError, KeyError, pickle.PickleError) as exc:
                # A torn record (the kill landed mid-persist) is not
                # recoverable state — skip it rather than refuse to start.
                print(f"repro-daemon: skipping {job_dir.name}: {exc}")

    def _maybe_admit_locked(self) -> None:
        while self._queue and self._active < self.max_active:
            _, _, jid = heapq.heappop(self._queue)
            djob = self._jobs.get(jid)
            if djob is None or djob.status is not JobStatus.PENDING \
                    or djob.admitted:
                continue
            djob.admitted = True
            self._active += 1
            threading.Thread(
                target=self._run_job, args=(djob,),
                name=f"repro-job-{jid}", daemon=True,
            ).start()

    def _run_job(self, djob: DaemonJob) -> None:
        handle = djob.handle
        with djob.cond:
            if not djob.cancel_requested:
                djob.status = JobStatus.RUNNING
            djob.cond.notify_all()
        error = None
        status = JobStatus.FAILED
        try:
            for event in handle.stream():
                wire = event_to_wire(event)
                with djob.cond:
                    djob.events.append(wire)
                    djob.cond.notify_all()
                if djob.cancel_requested:
                    handle.cancel()
            if handle.status() is JobStatus.CANCELLED:
                status = JobStatus.CANCELLED
            else:
                djob.result_text = encode_payload(handle.result())
                status = JobStatus.COMPLETED
        except JobFailed as exc:
            error = str(exc)
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
        with djob.cond:
            djob.status = status
            djob.error = error
            djob.cond.notify_all()
        if not (status is JobStatus.CANCELLED and djob.drain_cancelled):
            self._write_terminal(djob)
        with self._lock:
            self._active -= 1
            self._maybe_admit_locked()
            self._state_cond.notify_all()

    def _job(self, job_id: str) -> DaemonJob:
        with self._lock:
            djob = self._jobs.get(job_id)
        if djob is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return djob

    def cancel_job(self, job_id: str, drain: bool = False) -> bool:
        """Cancel at the next task boundary; finished tasks stay
        journaled.  Returns False when the job had already finished."""
        djob = self._job(job_id)
        finish_now = False
        with djob.cond:
            if djob.status in TERMINAL_STATUSES or djob.status is None:
                return False
            djob.cancel_requested = True
            if drain:
                djob.drain_cancelled = True
            if not djob.admitted:
                # Still queued: no runner thread will report for it.
                djob.handle.cancel()
                djob.status = JobStatus.CANCELLED
                djob.cond.notify_all()
                finish_now = True
        if finish_now:
            if not drain:
                self._write_terminal(djob)
            with self._lock:
                self._state_cond.notify_all()
        return True

    # -- the socket front door -------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket_module.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn) -> None:
        try:
            while not self._stop_event.is_set():
                frame = recv_frame(conn)
                if frame is None:
                    return
                op = frame.get("op")
                handler = getattr(self, f"_op_{op}", None)
                if handler is None:
                    send_frame(conn, {
                        "ok": False, "kind": "ProtocolError",
                        "error": f"unknown op {op!r}",
                    })
                    continue
                try:
                    handler(conn, frame)
                except (BrokenPipeError, ConnectionResetError):
                    return
                except Exception as exc:
                    send_frame(conn, {
                        "ok": False, "kind": type(exc).__name__,
                        "error": str(exc),
                    })
        except (ProtocolError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _op_submit(self, conn, frame) -> None:
        job = decode_payload(frame["job"])
        djob, attached = self.submit_job(
            frame.get("tenant") or "default", job, frame.get("job_id"),
        )
        send_frame(conn, {
            "ok": True, "job_id": djob.job_id, "attached": attached,
        })

    def _op_status(self, conn, frame) -> None:
        djob = self._job(frame["job_id"])
        with djob.cond:
            send_frame(conn, {
                "ok": True,
                "status": djob.status.value,
                "n_events": len(djob.events),
                "error": djob.error,
                "tenant": djob.tenant.name,
            })

    def _op_jobs(self, conn, frame) -> None:
        with self._lock:
            jobs = {
                jid: {
                    "tenant": djob.tenant.name,
                    "status": djob.status.value if djob.status else "unknown",
                    "n_events": len(djob.events),
                }
                for jid, djob in self._jobs.items()
            }
        send_frame(conn, {"ok": True, "jobs": jobs, "draining": self._draining})

    def _op_ping(self, conn, frame) -> None:
        with self._lock:
            n_jobs = len(self._jobs)
            active = self._active
        send_frame(conn, {
            "ok": True,
            "pid": os.getpid(),
            "workers": self.fleet.n_workers,
            "n_jobs": n_jobs,
            "active": active,
            "draining": self._draining,
            "tenants": {
                name: {
                    "priority": config.priority,
                    "max_queries": config.max_queries,
                    "n_queries": self.tenant_meter(name).n_queries(),
                    "max_submits_per_minute": config.max_submits_per_minute,
                    "max_queries_per_minute": config.max_queries_per_minute,
                }
                for name, config in self.tenants.items()
            },
        })

    def _op_events(self, conn, frame) -> None:
        """Stream the job's event log from ``start``, then an ``end``
        frame with the terminal status (buffer-replay: every consumer
        sees the full log, matching ``JobHandle.stream()``).  A job a
        drain left resumable, and any stream still open when the daemon
        stops, ends with ``"resumable": true`` instead — the job is not
        over, and a daemon restarted on the same root resumes it."""
        djob = self._job(frame["job_id"])
        i = int(frame.get("start", 0))
        while True:
            with djob.cond:
                if len(djob.events) <= i and not self._stop_event.is_set() \
                        and djob.status not in TERMINAL_STATUSES \
                        and djob.status is not None:
                    djob.cond.wait(timeout=POLL_SECONDS)
                batch = list(djob.events[i:])
                done = (
                    djob.status in TERMINAL_STATUSES or djob.status is None
                )
                status = djob.status
                error = djob.error
                result_text = djob.result_text
                interrupted = djob.interrupted()
            for wire in batch:
                send_frame(conn, {"event": wire})
            i += len(batch)
            stopping = self._stop_event.is_set()
            if (done or stopping) and not batch:
                end = {
                    "status": status.value if status else "unknown",
                    "error": error,
                    "result": result_text,
                }
                if interrupted or (stopping and not done):
                    end["resumable"] = True
                send_frame(conn, {"end": end})
                return

    def _op_result(self, conn, frame) -> None:
        djob = self._job(frame["job_id"])
        timeout = frame.get("timeout")
        deadline = None if timeout is None else time.monotonic() + timeout
        with djob.cond:
            while djob.status not in TERMINAL_STATUSES \
                    and djob.status is not None:
                if self._stop_event.is_set():
                    send_frame(conn, {
                        "ok": False, "kind": "DaemonUnavailable",
                        "error": "daemon is shutting down",
                    })
                    return
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    send_frame(conn, {
                        "ok": False, "kind": "Timeout",
                        "status": djob.status.value,
                        "n_events": len(djob.events),
                    })
                    return
                djob.cond.wait(timeout=POLL_SECONDS if remaining is None
                               else min(POLL_SECONDS, remaining))
            status = djob.status
            error = djob.error
            result_text = djob.result_text
            n_events = len(djob.events)
            interrupted = djob.interrupted()
        if status is JobStatus.COMPLETED:
            if result_text is None:  # terminal stub from a previous life
                send_frame(conn, {
                    "ok": False, "kind": "RuntimeError",
                    "error": "result not retained across a daemon restart; "
                             "resubmit the job to replay it from its journal",
                })
                return
            send_frame(conn, {"ok": True, "result": result_text})
        elif interrupted:
            send_frame(conn, {
                "ok": False, "kind": "DaemonUnavailable",
                "error": "job interrupted by a daemon drain; it resumes "
                         "from its journal on a daemon restarted on the "
                         "same root",
            })
        elif status is JobStatus.CANCELLED:
            send_frame(conn, {
                "ok": False, "kind": "JobCancelled",
                "error": f"job cancelled after {n_events} completed tasks",
            })
        else:
            send_frame(conn, {
                "ok": False, "kind": "JobFailed",
                "error": error or "job failed",
            })

    def _op_cancel(self, conn, frame) -> None:
        cancelled = self.cancel_job(frame["job_id"])
        send_frame(conn, {"ok": True, "cancelled": cancelled})

    def _op_drain(self, conn, frame) -> None:
        drained = self.drain(timeout=frame.get("timeout"))
        send_frame(conn, {"ok": True, "drained": drained})
        if frame.get("shutdown", True):
            self._shutdown_requested.set()
