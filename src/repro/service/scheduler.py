"""Supervised worker fleet and the gating loop every sharded job runs on.

Every unit of sharded work (a lockstep sub-lot of die calibrations,
an attack cell, a partitioned cell's sub-task, an experiment) is a
task in one ready pool, the next task goes to whichever worker frees
up first, and attack cells that need a die's calibration are *gated*
— released the instant the sub-lot holding their die completes, while
other sub-lots are still calibrating on other workers.  Imbalanced
fleets therefore pack tightly (the dominant cell occupies one worker
while the others drain the rest), and provisioning overlaps the attack
phase instead of preceding it.

Two pieces, one of each:

* :class:`WorkerFleet` — a supervised worker team whose router thread
  is the only dispatch/sweep loop.  An in-process sharded job runs on
  a fleet private to the job (forked before its router thread starts,
  reaped when the job ends); the daemon keeps one persistent fleet
  that every admitted job shares.
* :func:`run_on_fleet` — the only gating loop: it feeds one job's
  tasks to a fleet, gates cells on their provisioning triples, and
  absorbs/assembles partitioned cells.

Supervision: each worker is connected to the parent by its own duplex
pipe, so the router always knows exactly which task each worker holds
— a dead worker (exit code) or a hung one (its heartbeat thread silent
for ``REPRO_TASK_TIMEOUT`` seconds) is killed, respawned, and its task
retried *on the respawned worker*; a job fails only once one of its
tasks has consumed the whole ``REPRO_TASK_RETRIES`` attempt budget
(:class:`~repro.service.jobs.TaskRetriesExhausted`, carrying the
per-attempt failure notes).  Per-worker pipes are what make this
airtight: assignment is parent-side state (no pickup-message race to
lose a task in), and a worker killed mid-result tears only its own
channel (a shared queue's writer lock dies with its holder and wedges
every survivor).

Determinism: tasks carry their cell index, results are journaled and
assembled by index, every cell rebuilds its chip and seeds its own
RNGs, and die calibrations are deterministic values read through the
shared :class:`~repro.engine.store.CalibrationStore` — so the reports
are bit-identical to a sequential run whatever the worker count, the
dispatch order *or the crash schedule*: a retried task re-executes
identically (held differentially in ``tests/test_service.py`` and
``tests/test_faults.py``).

Sub-tasks (partitioned cells): a cell whose attack adapter declares a
partition plan (:meth:`~repro.campaigns.attacks.Attack.partition`) is
never dispatched as one :class:`CellTask`.  Instead its plan emits
:class:`SubTask` records — speculative, *unmetered* measurement slices
(brute-force key-range scores, GA population-slice scores) that are
pure functions of the cell, so a retried sub-task is trivially safe —
and the parent absorbs each result back into the plan, which may emit
further sub-tasks (the GA breeds generation ``g+1`` only after
absorbing generation ``g``).  When the plan drains, one
:class:`AssembleTask` replays the *scalar* attack against the plan's
measurement script (sequential accept-order replay: identical draws,
best-so-far updates, early exits and ``unlocks`` adjudications, with
every oracle/tenant charge committed in replay order), so the report,
``n_queries`` and the ``QueryBudgetExceeded`` refusal point are
bit-identical to the unpartitioned cell across partition sizes, worker
counts and backends.  Sub-task completions are internal — only
provision and cell (assembly) results are yielded.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro import faults
from repro.service.jobs import (
    JobFailed,
    TaskRetriesExhausted,
    task_retry_budget,
    task_timeout_seconds,
    validate_worker_count,
)

#: Seconds between worker-liveness checks while awaiting results.
POLL_SECONDS = 0.2

#: Seconds between a worker's heartbeat ticks.  The watchdog threshold
#: (``REPRO_TASK_TIMEOUT``) should be a comfortable multiple of this.
HEARTBEAT_SECONDS = 0.5


@dataclass(frozen=True)
class ProvisionTask:
    """Fleet-calibrate one sub-lot of ``(lot_seed, chip_id,
    standard_index)`` triples into the worker's shared store in one
    lockstep :func:`~repro.campaigns.campaign.provision_fleet` pass.
    Results stream into the store per die and stored triples are
    skipped, so a retried sub-lot recomputes only the dies its killed
    attempt had not stored."""

    triples: tuple

    def label(self) -> str:
        return f"fleet of {len(self.triples)} dies"

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("provision", self.triples)

    def run(self):
        from repro.campaigns.campaign import provision_fleet
        from repro.engine import get_default_engine

        provision_fleet(self.triples, get_default_engine().calibration_store)
        return self.triples


@dataclass(frozen=True)
class CellTask:
    """Execute one campaign cell (the cell rebuilds its own chip and
    seeds its own RNGs, so it runs identically on any worker)."""

    index: int
    cell: object

    def label(self) -> str:
        return self.cell.label()

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("cell", self.index)

    def run(self):
        return self.cell.execute()


@dataclass(frozen=True)
class SubTask:
    """One speculative slice of a partitioned cell's measurement work.

    The part computes raw measurement values (SNR/SFDR scores) directly
    — *never* through the metering oracle, so neither the oracle budget
    nor an installed tenant meter moves: all charges commit later, in
    replay order, inside the cell's :class:`AssembleTask`.  Sub-tasks
    are pure functions of ``(cell, part)`` with no side effects, which
    makes their retries trivially safe under supervision.
    """

    index: int
    part_id: tuple
    cell: object
    part: object

    def label(self) -> str:
        return f"{self.cell.label()} [{'/'.join(map(str, self.part_id))}]"

    def key(self) -> tuple:
        """Stable identity for retry accounting and charge reservations."""
        return ("subtask", self.index, self.part_id)

    def run(self):
        return self.part.run(self.cell)


@dataclass(frozen=True)
class AssembleTask(CellTask):
    """Sequential accept-order replay of a partitioned cell: re-runs
    the scalar attack with measurements served from the sub-tasks'
    script (live fallback when the script runs dry — e.g. a deceptive
    key pushing the search past where speculation stopped).  All
    oracle/tenant charges happen here, in replay order, under the same
    ``("cell", index)`` identity a scalar cell task would use — so the
    retry budget and the daemon's charge-reservation path treat it
    exactly like the cell it assembles, and it journals as a plain cell
    result (it *is* a :class:`CellTask`)."""

    script: object = None

    def run(self):
        return self.cell.execute_scripted(self.script)


@dataclass(frozen=True)
class TaskContext:
    """Everything a fleet worker must (re-)initialise to run a task:
    the job's backend and shared store (the campaign layer's
    ``_worker_init`` arguments) plus the tenant's meter, which only
    daemon jobs carry.  Workers re-init only when the context changes
    hands, so consecutive tasks of one job pay it once."""

    backend: str | None = None
    store_path: str | None = None
    tenant: str = "default"
    meter_path: str | None = None
    max_queries: int | None = None
    max_queries_per_minute: float | None = None

    def meter(self):
        """The tenant meter this context charges, or None (parent and
        worker build their own views of the same file-backed count)."""
        if self.meter_path is None:
            return None
        from repro.service.tenants import TenantMeter

        return TenantMeter(
            self.meter_path,
            self.max_queries,
            tenant=self.tenant,
            max_per_minute=self.max_queries_per_minute,
        )


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


def start_heartbeat(heartbeat) -> None:
    """Start the worker-side heartbeat: a daemon thread stamping
    ``time.monotonic()`` into the shared double every
    :data:`HEARTBEAT_SECONDS`.  It beats while a task computes (long
    tasks never look hung) and freezes with the process when the
    process freezes (``SIGSTOP``, a wedged syscall) — which is exactly
    the signal the parent's watchdog reclaims on.

    The shared value is lock-free (a raw aligned double; torn
    reads/writes don't occur on the platforms the fork context runs
    on): a lock would hand a killed worker a way to wedge the parent.

    The ``task.stall_heartbeat`` fault point stops the beat (the thread
    exits) while the worker keeps computing — a starved heartbeat
    thread under a long GIL-holding call looks exactly like this.
    """

    def beat():
        while not _HEARTBEAT_STALLED.is_set():
            heartbeat.value = time.monotonic()
            time.sleep(HEARTBEAT_SECONDS)

    threading.Thread(target=beat, name="repro-heartbeat", daemon=True).start()


#: Worker-process flag the ``task.stall_heartbeat`` fault point sets to
#: silence the heartbeat thread without touching the worker itself.
_HEARTBEAT_STALLED = threading.Event()


def run_task(task):
    """Execute one task under the fault-injection points every
    supervised worker threads through: ``task.hang`` freezes the
    process instead of running (nothing mutated — the watchdog must
    reclaim), ``task.crash_before_report`` kills the process after the
    task ran but before its result message exists (the supervisor must
    retry), ``task.stall_heartbeat`` silences the heartbeat and delays
    the task past the watchdog while staying alive (the *late result*
    schedule the supervisor's kill-before-drain ordering exists for).
    Returns a ``(kind, task, payload, seconds, error)`` result tuple."""
    if faults.ENABLED and faults.fire("task.hang"):
        faults.hang()
    if faults.ENABLED and faults.fire("task.stall_heartbeat"):
        _HEARTBEAT_STALLED.set()
        timeout = task_timeout_seconds()
        time.sleep((timeout or 0.0) + 3 * POLL_SECONDS)
    start = time.perf_counter()
    try:
        payload = task.run()
    except BaseException:
        return ("error", task, None, time.perf_counter() - start,
                traceback.format_exc())
    if faults.ENABLED and faults.fire("task.crash_before_report"):
        faults.crash()
    return ("done", task, payload, time.perf_counter() - start, None)


def _fleet_worker_main(conn, heartbeat) -> None:
    """One fleet worker: receive ``(ticket, context, task, task_id)``
    items on its private duplex pipe until the sentinel (or the
    parent's end of the pipe closing), re-initialising on context
    changes.

    A worker first pins its OpenBLAS pools to one thread
    (:func:`~repro.engine.native.pin_blas_threads`): the fleet already
    covers the cores.

    Initialisation is the campaign layer's ``_worker_init`` (a pristine
    private engine of the job's backend, reading through the job's
    shared calibration store) plus the tenant meter install, so reports
    cannot depend on which worker — or which *attempt*, or whose fleet
    — ran a task.  Before a metered task runs, its charge reservation
    opens under ``task_id`` (see
    :meth:`~repro.service.tenants.TenantMeter.begin_task`); the
    *parent* settles it — commit on the result, rollback before a
    retry — because the parent is the only survivor of every crash
    schedule.
    """
    from repro.attacks.oracle import install_tenant_meter
    from repro.campaigns.campaign import _worker_init
    from repro.engine.native import pin_blas_threads

    pin_blas_threads()
    start_heartbeat(heartbeat)
    current = None
    meter = None
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        ticket, context, task, task_id = item
        if context != current:
            _worker_init(context.backend, context.store_path)
            meter = context.meter()
            install_tenant_meter(meter)
            current = context
        if meter is not None:
            meter.begin_task(task_id)
        kind, task, payload, seconds, error = run_task(task)
        conn.send((ticket, kind, task, payload, seconds, error))
        if faults.ENABLED and faults.fire("worker.torn_conn"):
            faults.tear_connection(conn)


# ---------------------------------------------------------------------------
# The parent side: slots and the fleet
# ---------------------------------------------------------------------------


class WorkerSlot:
    """Parent-side record of one supervised worker: its process, the
    parent end of its private pipe, its heartbeat, and — the heart of
    supervision — exactly which task it currently holds."""

    def __init__(self, proc, conn, heartbeat):
        self.proc = proc
        self.conn = conn
        self.heartbeat = heartbeat
        self.item = None  # the dispatched _FleetItem
        # Set when a send to this worker failed: the process may still
        # be alive with a beating heartbeat, but its pipe is torn, so
        # the supervision sweep must reap it — an idle-looking slot that
        # can never be dispatched to would otherwise livelock the fleet.
        self.broken = False

    def stale(self, timeout: float | None) -> bool:
        """Has the heartbeat been silent past the watchdog threshold
        while a task is assigned?"""
        return (
            timeout is not None
            and self.item is not None
            and time.monotonic() - self.heartbeat.value > timeout
        )

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


def kill_slot(slot: WorkerSlot, note_kill: str | None) -> str:
    """Kill (when ``note_kill`` names a reason and the process is still
    alive) and join one worker, WITHOUT closing the parent's end of its
    pipe: the supervisor drains any result the worker managed to send
    *after* this, then closes.  Draining before the kill is the race —
    a hung-but-alive worker can emit its result between the drain and
    the kill, and the drained-empty supervisor would retry and run the
    task twice.  Killing first makes the post-kill drain complete: a
    dead process cannot send.  Returns the per-attempt note: the kill
    reason when this call did the killing, but the worker's own exit
    code when the join reveals it died by itself first (``is_alive`` can
    lag a crashing worker's pipe EOF, so a kill request may race a
    natural death — the factual exit code outranks the stale reason)."""
    if note_kill is not None and slot.proc.is_alive():
        slot.proc.kill()  # SIGKILL: works on a SIGSTOPped process too
    slot.proc.join(timeout=5.0)
    if slot.proc.is_alive():  # pragma: no cover - kill cannot be refused
        slot.proc.terminate()
        slot.proc.join(timeout=5.0)
    exitcode = slot.proc.exitcode
    if note_kill is not None and (exitcode is None or exitcode < 0):
        return note_kill
    return f"worker died with exit code {exitcode}"


class _FleetItem:
    """One unit of fleet work in flight: the submitting job's ticket,
    the worker context, the task, and the id its charge reservation
    and retry accounting live under."""

    __slots__ = ("ticket", "context", "task", "task_id")

    def __init__(self, ticket: int, context: TaskContext, task):
        self.ticket = ticket
        self.context = context
        self.task = task
        self.task_id = f"{ticket}:{task.key()!r}"


class WorkerFleet:
    """A supervised, self-healing worker team — private to one
    in-process job, or the daemon's one persistent fleet.

    The fleet forks its workers in :meth:`start`, *before* its router
    thread exists, and serves tasks from any number of jobs out of one
    ready pool.  Each job opens a *ticket*: a registered mailbox the
    router thread delivers that job's results to.  Results for a closed
    ticket (a cancelled job's stragglers) are dropped — at most the
    job's in-flight bound of tasks runs wastefully, and every store
    write they made stays valid (deterministic values).

    Supervision: every worker hangs off its own duplex pipe, so the
    router — which also dispatches and supervises, one thread owning
    all slot state — knows exactly which item each worker holds.  A
    dead worker (exit code) or a hung one (heartbeat silent past
    ``REPRO_TASK_TIMEOUT``) is reaped and respawned, its item's tenant
    charges are rolled back from the reservation journal, and the item
    is retried on the respawned worker; only when one task has consumed
    the whole ``REPRO_TASK_RETRIES`` budget does its *own* job fail (an
    ``"exhausted"`` mailbox message -> :class:`~repro.service.jobs.
    TaskRetriesExhausted`) — every other job keeps running.  Respawned
    workers fork from the router thread (the same trade
    ``multiprocessing.Pool`` makes); only the initial team needs the
    single-threaded fork window.
    """

    def __init__(self, n_workers: int):
        validate_worker_count(n_workers, "fleet n_workers")
        self.n_workers = n_workers
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self.slots: list = []
        self._ready: deque = deque()
        self._attempts: dict[str, list] = {}
        self._mailboxes: dict[int, queue_module.Queue] = {}
        self._tickets = itertools.count(1)
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._router = None
        self._wake_r = self._wake_w = None
        self._failure: str | None = None
        self._retry_budget = task_retry_budget()
        self._watchdog = task_timeout_seconds()
        self._barren_respawns = 0

    @property
    def workers(self) -> list:
        """The live worker processes (diagnostics and tests)."""
        return [slot.proc for slot in self.slots]

    def start(self) -> None:
        """Fork the workers (the caller must still be single-threaded),
        then start the router/dispatcher/supervisor thread."""
        self.slots = [self._spawn() for _ in range(self.n_workers)]
        self._wake_r, self._wake_w = os.pipe()
        self._router = threading.Thread(
            target=self._route, name="repro-fleet-router", daemon=True
        )
        self._router.start()

    def _spawn(self) -> WorkerSlot:
        """Fork one worker connected by a fresh duplex pipe."""
        parent_conn, child_conn = self._mp.Pipe()
        heartbeat = self._mp.Value("d", time.monotonic(), lock=False)
        proc = self._mp.Process(
            target=_fleet_worker_main, args=(child_conn, heartbeat),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # ours alone now lives in the child
        return WorkerSlot(proc, parent_conn, heartbeat)

    def open_ticket(self) -> tuple[int, queue_module.Queue]:
        with self._lock:
            ticket = next(self._tickets)
            mailbox: queue_module.Queue = queue_module.Queue()
            self._mailboxes[ticket] = mailbox
        return ticket, mailbox

    def close_ticket(self, ticket: int) -> None:
        with self._lock:
            self._mailboxes.pop(ticket, None)
            # Drop the ticket's queued work and retry history: no
            # mailbox will ever collect it.
            self._ready = deque(
                item for item in self._ready if item.ticket != ticket
            )
            # The router updates _attempts without this lock: iterate a
            # snapshot, and tolerate keys it already dropped.
            prefix = f"{ticket}:"
            for task_id in [
                t for t in list(self._attempts) if t.startswith(prefix)
            ]:
                self._attempts.pop(task_id, None)

    def submit(self, ticket: int, context: TaskContext, task) -> None:
        with self._lock:
            self._ready.append(_FleetItem(ticket, context, task))
        self._wake()

    def _wake(self) -> None:
        if self._wake_w is not None:
            try:
                os.write(self._wake_w, b"x")
            except OSError:
                pass

    def check_alive(self) -> None:
        """Raise :class:`JobFailed` when the fleet can no longer make
        progress — not on a worker death (the router respawns those),
        but on a respawn storm or a dead router, where a job's tasks
        would otherwise wait forever."""
        if self._stop_event.is_set():
            return
        if self._failure is not None:
            raise JobFailed(self._failure)
        if self._router is not None and not self._router.is_alive():
            raise JobFailed("fleet router thread died")

    def _deliver(self, ticket: int, message) -> None:
        with self._lock:
            mailbox = self._mailboxes.get(ticket)
        if mailbox is not None:
            mailbox.put(message)

    def _send(self, slot, item: _FleetItem) -> None:
        """Dispatch ``item`` to ``slot`` (the caller holds the lock)."""
        try:
            slot.conn.send(
                (item.ticket, item.context, item.task, item.task_id)
            )
        except (OSError, ValueError):
            self._ready.appendleft(item)
            # Flag the torn pipe: the process may be alive with a
            # beating heartbeat, and an unflagged slot would look idle
            # forever (livelock).
            slot.broken = True
            return
        slot.item = item

    def _settle(self, slot, message) -> None:
        """One worker result: commit its charge reservation (the
        charges stand — even for an ``"error"`` result, which spent
        real measurements exactly as an in-process run would have) and
        deliver it to the submitting job's mailbox."""
        ticket, kind, task, payload, seconds, error = message
        item, slot.item = slot.item, None
        self._barren_respawns = 0
        if item is not None:
            meter = item.context.meter()
            if meter is not None:
                meter.commit_task(item.task_id)
            self._attempts.pop(item.task_id, None)
        self._deliver(ticket, (kind, task, payload, seconds, error))

    def _rollback(self, item: _FleetItem) -> None:
        meter = item.context.meter()
        if meter is not None:
            meter.rollback_task(item.task_id)

    def _reclaim(self, slot, note: str) -> _FleetItem | None:
        """A dead or hung worker's item: roll back its partial tenant
        charges and return it for a retry — or, once its attempt budget
        is spent, fail its own job (and only its own job)."""
        item, slot.item = slot.item, None
        if item is None:
            return None
        self._rollback(item)
        notes = self._attempts.setdefault(item.task_id, [])
        notes.append(note)
        if len(notes) >= self._retry_budget:
            self._attempts.pop(item.task_id, None)
            self._deliver(
                item.ticket,
                ("exhausted", item.task, None, 0.0, list(notes)),
            )
            return None
        return item

    def _route(self) -> None:
        """The fleet's one owner thread: dispatch ready items to idle
        workers, collect results, and supervise (reap, respawn, retry)
        — single-threaded slot state, no handoff races."""
        from multiprocessing import connection

        while not self._stop_event.is_set():
            with self._lock:
                for slot in self.slots:
                    if slot.broken or slot.item is not None \
                            or not self._ready:
                        continue
                    self._send(slot, self._ready.popleft())
            waitable = [slot.conn for slot in self.slots] + [self._wake_r]
            try:
                readable = connection.wait(waitable, timeout=POLL_SECONDS)
            except OSError:
                readable = []
            for conn in readable:
                if conn == self._wake_r:  # the wake pipe is a raw fd
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                slot = next(s for s in self.slots if s.conn is conn)
                try:
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    slot.broken = True  # the sweep below reclaims it
                    continue
                self._settle(slot, message)
            for i, slot in enumerate(self.slots):  # supervision sweep
                hung = slot.stale(self._watchdog)
                if slot.proc.is_alive() and not hung and not slot.broken:
                    continue
                if self._stop_event.is_set():
                    return
                if hung:
                    kill_note = (
                        f"fleet worker hung (heartbeat silent > "
                        f"{self._watchdog:g}s); killed"
                    )
                elif slot.broken and slot.proc.is_alive():
                    kill_note = "fleet worker pipe broke; killed"
                else:
                    kill_note = None
                # Kill hung/broken-but-alive workers BEFORE draining: a
                # drain-first order races a late result into the pipe
                # between drain and kill — the task would settle AND be
                # retried (double execution, double tenant charge).
                # Dead workers cannot send, so the post-kill drain still
                # collects everything they reported before dying.
                note = kill_slot(slot, kill_note)
                try:
                    while slot.conn.poll():
                        self._settle(slot, slot.conn.recv())
                except (EOFError, OSError):
                    pass
                slot.close()
                # Deaths before a task is held spend no retry budget:
                # bound them too, or a crash-at-init respawns forever.
                self._barren_respawns += 1
                retry = self._reclaim(slot, note)
                if self._barren_respawns > 3 * len(self.slots) + \
                        self._retry_budget:
                    self._failure = (
                        f"fleet workers died {self._barren_respawns} times "
                        f"without completing a task (last: {note})"
                    )
                    return
                fresh = self.slots[i] = self._spawn()
                if retry is not None:
                    # Retry on the respawned worker, never an idle
                    # survivor: fault hit counters are per process, so a
                    # survivor could meet the same crash schedule again,
                    # and whether the budget ran out would hang on
                    # dispatch timing.
                    with self._lock:
                        self._send(fresh, retry)

    def shutdown(self) -> None:
        """Reap the fleet, leaving no orphans.  Once the router has
        stopped, a worker still holding a task can never have its result
        settled: it is killed at once (a cancel never waits out a
        running task) and its partial charges rolled back.  Idle workers
        get the sentinel and a bounded join."""
        self._stop_event.set()
        self._wake()
        if self._router is not None:
            self._router.join(timeout=5.0)
        idle = []
        for slot in self.slots:
            if slot.item is not None:
                kill_slot(slot, "fleet shut down")
                self._rollback(slot.item)
            else:
                idle.append(slot)
                try:
                    slot.conn.send(None)
                except (OSError, ValueError):
                    pass
        for slot in idle:
            slot.proc.join(timeout=5.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5.0)
        for slot in self.slots:
            slot.close()
        for fd in (self._wake_r, self._wake_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wake_r = self._wake_w = None


def run_on_fleet(fleet: WorkerFleet, context: TaskContext, cell_tasks,
                 provision_tasks, cell_triples, max_inflight: int,
                 partitions=None):
    """Drive one job's tasks through ``fleet``: yields ``(task,
    payload, seconds)`` per completed provision or cell task, in
    completion order.

    ``cell_triples`` maps cell index -> set of provisioning triples the
    cell is gated on; a gated cell enqueues the moment the last
    :class:`ProvisionTask` holding one of its missing triples
    completes.  ``partitions`` maps cell index -> partition plan (see
    the module docstring): a partitioned cell releases as its plan's
    :class:`SubTask` fan-out and completes via its :class:`AssembleTask`
    replay; sub-task completions are never yielded.

    ``max_inflight`` bounds this job's concurrently-dispatched tasks
    (the job's ``n_workers``), which both shares a daemon's fleet
    fairly between concurrent jobs and makes a 1-worker job's cells
    execute strictly sequentially — the property per-tenant quota
    determinism rides on.  A task that *raises* fails the job at once
    (tasks are pure functions: it would raise again on retry).
    """
    partitions = dict(partitions or {})
    blocked = {
        task: set(cell_triples.get(getattr(task, "index", None), ()))
        for task in cell_tasks
    }
    waiters: dict[tuple, list] = {}
    for task in cell_tasks:
        for triple in blocked[task]:
            waiters.setdefault(triple, []).append(task)
    outstanding: dict[int, int] = {}  # cell index -> unabsorbed sub-tasks
    ready = deque(provision_tasks)  # provisioning first: it unblocks cells

    def release(task):
        """An unblocked cell enters the pool — as itself, or, when a
        partition plan covers it, as the plan's initial sub-tasks."""
        plan = partitions.get(getattr(task, "index", None))
        if plan is None:
            ready.append(task)
            return
        parts = plan.initial_parts()
        outstanding[task.index] = len(parts)
        for part_id, part in parts:
            ready.append(SubTask(task.index, part_id, task.cell, part))

    for task in cell_tasks:
        if not blocked[task]:
            release(task)
    total = len(cell_tasks) + len(provision_tasks)
    ticket, mailbox = fleet.open_ticket()
    inflight = 0
    done = 0
    try:
        while done < total:
            while ready and inflight < max_inflight:
                fleet.submit(ticket, context, ready.popleft())
                inflight += 1
            try:
                kind, task, payload, seconds, error = mailbox.get(
                    timeout=POLL_SECONDS
                )
            except queue_module.Empty:
                fleet.check_alive()
                continue
            inflight -= 1
            if kind == "exhausted":
                # This task's workers died/hung through its whole retry
                # budget; only THIS job fails — the fleet healed itself
                # and every other job keeps running.
                raise TaskRetriesExhausted(task.label(), error)
            if kind == "error":
                raise JobFailed(f"task {task.label()!r} failed:\n{error}")
            if isinstance(task, SubTask):
                plan = partitions[task.index]
                new_parts = plan.absorb(task.part_id, payload)
                outstanding[task.index] += len(new_parts) - 1
                for part_id, part in new_parts:
                    ready.append(
                        SubTask(task.index, part_id, task.cell, part)
                    )
                if outstanding[task.index] == 0:
                    ready.append(
                        AssembleTask(task.index, task.cell, plan.script())
                    )
                continue
            done += 1
            if isinstance(task, ProvisionTask):
                for triple in task.triples:
                    for waiter in waiters.pop(triple, ()):
                        pending = blocked[waiter]
                        pending.discard(triple)
                        if not pending:
                            release(waiter)
            yield task, payload, seconds
    finally:
        fleet.close_ticket(ticket)
