"""The foundry service: one ``submit(job) -> JobHandle`` front door.

:class:`FoundryService` is the execution layer everything above the
engine now talks to: campaigns, fleet provisioning passes and
experiment-registry runs are all :mod:`~repro.service.jobs` submitted
through one API.  A submitted job is validated up front (worker
counts, attack names, journal binding — all rejected before any work
starts) and returns a :class:`JobHandle`:

* ``handle.stream()`` — iterate :class:`~repro.service.jobs.TaskEvent`
  records as tasks complete (completion order, not cell order);
* ``handle.result()`` — drive to completion and return the job's
  result (a :class:`~repro.campaigns.campaign.CampaignResult`, a
  provisioning count, or the experiment result list);
* ``handle.status()`` — the :class:`~repro.service.jobs.JobStatus`
  lifecycle;
* ``handle.cancel()`` — stop scheduling, reap the job's workers, keep
  everything already journaled.

The handle's consumer drives the job; any thread may read, cancel or
drive it, and drivers take turns one task at a time.  Work one task
wide (one worker, one unpartitioned cell, one provisioning sub-lot,
the experiment registry) runs in-process — the ground truth every
differential compares against — through
:func:`~repro.service.scheduler.run_inline`; the rest runs on a
:class:`~repro.service.scheduler.WorkerFleet` private to the job,
whose workers fork before its router thread starts, so the initial
team forks from a single-threaded parent — the same fork-safety
argument as the engine kernel's per-call thread teams.  A worker
respawned after a crash forks from the router thread (the trade the
daemon's persistent fleet makes too, and every
``multiprocessing.Pool``).  Either way each task runs under its job's
:class:`~repro.service.scheduler.TaskContext`, set for that task only,
so in-process jobs that interleave or nest never see each other's
backend or store, and interleaved ones never share a measurement memo.
Campaign reports are bit-identical to a sequential run whatever the
worker count or backend (cells rebuild their chips and seed their own
RNGs; calibrations are deterministic values read through the shared
store), and a campaign with a journal resumes from its finished cells
after a kill — both held in ``tests/test_service.py``.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from contextlib import contextmanager

from repro.engine import CalibrationStore, get_default_engine
from repro.service.jobs import (
    CampaignJob,
    JobCancelled,
    JobFailed,
    JobStatus,
    ProvisioningJob,
    TERMINAL_STATUSES,
    TaskEvent,
    default_worker_count,
    validate_job,
    validate_worker_count,
)
from repro.service.journal import JobJournal, cells_fingerprint
from repro.service.scheduler import (
    CellTask,
    ExperimentTask,
    ProvisionTask,
    TaskContext,
    WorkerFleet,
    run_inline,
    run_on_fleet,
)


def provisioning_tasks(missing, n_workers: int) -> list:
    """Split the sorted ``missing`` triples into ``k = min(n_workers,
    len(missing))`` near-equal lockstep sub-lots, ``missing[i::k]``,
    one :class:`ProvisionTask` each: every provisioning pass gets
    lockstep fusion within a sub-lot and process parallelism across
    them."""
    k = min(n_workers, len(missing))
    return [ProvisionTask(tuple(missing[i::k])) for i in range(k)]


def plan_campaign_tasks(todo, store, n_workers: int):
    """Turn the remaining ``(index, cell)`` pairs into scheduler tasks.

    Returns ``(cell_tasks, provision_tasks, cell_triples)``: the cells
    as :class:`CellTask` records, the calibration triples the cells
    declare that ``store`` does not already hold as
    :func:`provisioning_tasks` sub-lots, and the gating map (cell index
    -> set of missing triples the cell must wait for).
    """
    from repro.campaigns.campaign import cell_triples as triples_of

    cell_triples = {index: triples_of(cell) for index, cell in todo}
    missing = store.missing(
        sorted(set().union(*cell_triples.values())) if cell_triples else []
    )
    for index in cell_triples:
        cell_triples[index] &= set(missing)
    cell_tasks = [CellTask(index, cell) for index, cell in todo]
    return (
        cell_tasks, provisioning_tasks(missing, n_workers), cell_triples
    )


def plan_cell_partitions(todo):
    """Partition plans for the ``(index, cell)`` pairs whose attack
    adapter declares one (``{cell index: plan}``; empty when every cell
    runs scalar).  Built fresh for each run of a job — plans are
    stateful, parent-side objects the scheduler drives."""
    from repro.campaigns.campaign import cell_partition

    partitions = {}
    for index, cell in todo:
        plan = cell_partition(cell)
        if plan is not None:
            partitions[index] = plan
    return partitions


class JobHandle:
    """Lifecycle handle of one submitted job (see module docstring),
    safe from any thread: ``cond`` is notified on every event and
    status change, and a terminal status lands with its error and log."""

    def __init__(self, job, executor):
        self.job = job
        self._executor = executor
        self._status = JobStatus.PENDING
        self._events: list[TaskEvent] = []
        self._result = None
        self.error: JobFailed | None = None  # set when the job FAILED
        self._cancelled = False
        self._driving = False  # a thread is running the job's next task
        self._gen = self._run()  # runs nothing until first driven
        self.cond = threading.Condition()

    def status(self) -> JobStatus:
        """Where the job is in its lifecycle."""
        return self._status

    def events(self) -> list[TaskEvent]:
        """Every event delivered so far (the stream's log)."""
        return list(self._events)

    def _run(self):
        self._result = yield from self._executor()

    def _finish(self, status: JobStatus, error: JobFailed | None = None):
        """Publish a terminal status with its error; the turn ends."""
        with self.cond:
            self._status = status
            self.error = error
            self._driving = False
            self.cond.notify_all()

    def _advance(self, deadline: float | None = None) -> bool:
        """Drive one task event; False when no more will come.  Drivers
        take turns: while another thread runs a task, wait on ``cond``
        (until ``deadline`` at most) and return True to look again."""
        with self.cond:
            if self._driving:
                self.cond.wait(
                    None if deadline is None else deadline - time.monotonic()
                )
                return True
            if self._status in TERMINAL_STATUSES:
                return False
            if self._status is JobStatus.PENDING:
                self._status = JobStatus.RUNNING
                self.cond.notify_all()
            self._driving = True
        try:
            event = self._gen.send(None)
        except StopIteration:
            self._finish(JobStatus.COMPLETED)
            return False
        except JobFailed as exc:
            self._finish(JobStatus.FAILED, exc)
            raise
        except BaseException as exc:
            self._finish(JobStatus.FAILED, JobFailed(
                f"{self.job.__class__.__name__} failed: "
                f"{type(exc).__name__}: {exc}"
            ))
            raise self.error from exc
        with self.cond:
            self._events.append(event)
            self._driving = False
            self.cond.notify_all()
            if self._cancelled:
                self.cancel()  # cancelled while the task ran: stop now
        return True

    def stream(self):
        """Yield :class:`TaskEvent` records as tasks complete.

        Drives the job while iterated.  **Consumer contract
        (buffer-replay):** every consumer sees the full event log from
        the beginning — events already delivered are replayed first,
        so late consumers, repeated consumers and a second *concurrent*
        ``stream()`` on the same handle, in this thread or another, all
        observe the identical complete sequence; concurrent consumers
        never split events between them, and streams in different
        threads take turns driving the job one task at a time.  The
        stream simply ends on cancellation; a failure raises
        :class:`JobFailed` after the delivered events — for live and
        late consumers alike, so a failed job is never mistaken for a
        completed one.
        """
        i = 0
        while True:
            while i >= len(self._events):
                if not self._advance():
                    if self._status is JobStatus.FAILED:
                        raise self.error
                    return
            yield self._events[i]
            i += 1

    def wait(self, timeout: float | None = None) -> bool:
        """Drive the job until it reaches a terminal status, or until
        ``timeout`` seconds elapse.

        Returns True when the job finished (COMPLETED, FAILED *or*
        CANCELLED — inspect ``status()`` or call ``result()`` to
        distinguish), False on timeout.  The in-process handle is
        consumer-driven, so the deadline is checked between tasks: a
        task already running is never preempted, and ``wait(0)`` does no
        work on an undriven job, nor while another thread runs one of its
        tasks.  The network-backed
        :class:`~repro.service.client.RemoteJobHandle` has the same
        signature with the daemon driving regardless.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._status not in TERMINAL_STATUSES:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            try:
                self._advance(deadline)
            except JobFailed:
                break
        return True

    def result(self, timeout: float | None = None):
        """Drive the job to completion and return its result.

        Raises :class:`JobFailed` when a task raised,
        :class:`JobCancelled` when the job was cancelled, and
        :class:`TimeoutError` when ``timeout`` seconds elapse first
        (checked at task boundaries; see :meth:`wait`) — the job is
        *not* cancelled by a timeout, so a later ``result()`` resumes
        driving it.
        """
        if not self.wait(timeout):
            raise TimeoutError(
                f"job still {self._status.value} after {timeout} s "
                f"({len(self._events)} tasks completed); result() again "
                f"to keep driving, cancel() to stop"
            )
        if self._status is JobStatus.FAILED:
            raise self.error
        if self._status is JobStatus.CANCELLED:
            raise JobCancelled(
                f"job cancelled after {len(self._events)} completed tasks"
            )
        return self._result

    def cancel(self) -> bool:
        """Stop the job at the next task boundary, from any thread: the
        thread running a task stops the job once it lands, and with no
        task running the job stops here.  Finished tasks stay journaled
        (a resubmission resumes from them); in-flight workers are
        reaped.  Returns False when the job had already finished.
        """
        with self.cond:
            if self._status in TERMINAL_STATUSES:
                return False
            self._cancelled = True
            if not self._driving:
                self._gen.close()  # GeneratorExit -> the job's fleet is reaped
                self._finish(JobStatus.CANCELLED)
        return True


class FoundryService:
    """Job-oriented execution front door (``submit`` / ``JobHandle``).

    Args:
        n_workers: Default worker count for jobs that do not pin one;
            None falls back to ``REPRO_SERVICE_WORKERS`` (default 1).
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is not None:
            validate_worker_count(n_workers)
        self.n_workers = n_workers

    # -- submission -------------------------------------------------------

    def submit(self, job) -> JobHandle:
        """Validate ``job`` up front and return its handle (PENDING).

        Execution is driven by the handle's consumer — iterate
        ``stream()`` or call ``result()``.
        """
        validate_job(job)
        if isinstance(job, CampaignJob):
            executor = self._prepare_campaign(job)
        elif isinstance(job, ProvisioningJob):
            n_workers = self._resolve_workers(job.n_workers)
            executor = lambda: self._provisioning_events(job, n_workers)
        else:
            executor = lambda: self._experiment_events(job)
        return JobHandle(job, executor)

    def _resolve_workers(self, job_workers: int | None) -> int:
        if job_workers is not None:
            return validate_worker_count(job_workers)
        if self.n_workers is not None:
            return self.n_workers
        return default_worker_count()

    # -- execution hooks --------------------------------------------------

    def _runs_inline(self) -> bool:
        """Whether work one task wide runs in this process.  The
        daemon's service answers False: the daemon process never
        simulates."""
        return True

    @contextmanager
    def _fleet(self, n_workers: int):
        """The fleet a sharded job runs on: one private to the job,
        forked here — before its router thread starts — and reaped when
        the job completes, fails or is cancelled.  The daemon's service
        overrides this with its one persistent fleet."""
        fleet = WorkerFleet(n_workers)
        try:
            fleet.start()
            yield fleet
        finally:
            fleet.shutdown()

    def _task_context(self, backend, store_path) -> TaskContext:
        """What this service's tasks run under (the daemon's service
        adds the tenant meter)."""
        return TaskContext(backend=backend, store_path=store_path)

    def _run_tasks(self, context, width, cell_tasks, provision_tasks=(),
                   cell_triples=None, partitions=None):
        """Run one job's tasks, yielding ``(task, payload, seconds)``.

        Work one task wide (``width`` 1) runs in this process, in
        order, when this service runs inline (:func:`run_inline`); the
        rest runs on ``self._fleet(width)`` through
        :func:`run_on_fleet`, at most ``width`` tasks in flight.
        """
        if width == 1 and self._runs_inline():
            yield from run_inline(context, [*provision_tasks, *cell_tasks])
            return
        with self._fleet(width) as fleet:
            yield from run_on_fleet(
                fleet, context, cell_tasks, provision_tasks,
                cell_triples or {}, max_inflight=width, partitions=partitions,
            )

    # -- campaign jobs ----------------------------------------------------

    def _prepare_campaign(self, job: CampaignJob):
        cells = list(job.cells)
        n_workers = self._resolve_workers(job.n_workers)
        journal = None
        if job.journal is not None:
            journal = JobJournal(job.journal)
            journal.bind(
                cells_fingerprint(cells), meta={"n_cells": len(cells)}
            )
        return lambda: self._campaign_events(job, cells, n_workers, journal)

    def _campaign_events(self, job, cells, n_workers, journal):
        from repro.campaigns.campaign import CampaignResult

        resolved_backend = job.backend or get_default_engine().backend
        reports: dict[int, object] = {}
        timings: dict[int, float] = {}
        replayed = journal.completed_cells(len(cells)) if journal else {}
        for index in sorted(replayed):
            label, report, seconds = replayed[index]
            reports[index] = report
            timings[index] = seconds
            yield TaskEvent("replay", label, index, report, seconds)
        todo = [(i, cell) for i, cell in enumerate(cells) if i not in replayed]
        store_path = job.calibration_store or (
            journal.calibration_store_path() if journal else None
        )
        # A single scalar cell gains nothing from workers — but a single
        # *partitioned* cell is exactly the dominant-cell case sub-task
        # scheduling exists for, so it still shards.  One worker runs
        # inline without plans; otherwise they are built once, here.
        inline = self._runs_inline() and n_workers == 1
        if not inline:
            partitions = plan_cell_partitions(todo)
            inline = self._runs_inline() and len(todo) <= 1 and not partitions
        if inline:
            n_workers = 1
            events = self._run_tasks(
                self._task_context(job.backend, store_path), 1,
                [CellTask(index, cell) for index, cell in todo],
            )
        else:
            events = self._campaign_sharded(
                job, todo, n_workers, store_path, partitions
            )
        # Journal each finished cell the moment its result lands.
        for task, payload, seconds in events:
            if isinstance(task, ProvisionTask):
                yield TaskEvent("provision", task.label(), None, payload,
                                seconds)
                continue
            if journal is not None:
                journal.put_cell(task.index, task.label(), payload, seconds)
            reports[task.index] = payload
            timings[task.index] = seconds
            yield TaskEvent("cell", task.label(), task.index, payload,
                            seconds)
        return CampaignResult(
            reports=[reports[i] for i in range(len(cells))],
            cell_seconds=[timings[i] for i in range(len(cells))],
            n_workers=n_workers,
            backend=resolved_backend,
        )

    def _campaign_sharded(self, job, todo, n_workers, store_path,
                          partitions):
        """Fleet execution: provisioning sub-lots gate their cells, and
        the cells ``partitions`` plans (:func:`plan_cell_partitions`)
        fan out as sub-tasks.  A job naming no store shares a temporary
        one, removed when the job ends."""
        own_tmp = store_path is None
        if own_tmp:
            store_path = tempfile.mkdtemp(prefix="repro-calstore-")
        try:
            cell_tasks, provision_tasks, cell_triples = plan_campaign_tasks(
                todo, CalibrationStore(store_path), n_workers
            )
            # Partitioned jobs hold more units than results, so size the
            # fleet by the requested width rather than the result count.
            n_units = len(cell_tasks) + len(provision_tasks)
            if partitions:
                n_units = max(n_units, n_workers)
            yield from self._run_tasks(
                self._task_context(job.backend, store_path),
                max(1, min(n_workers, n_units)),
                cell_tasks, provision_tasks, cell_triples, partitions,
            )
        finally:
            if own_tmp:
                shutil.rmtree(store_path, ignore_errors=True)

    # -- provisioning jobs ------------------------------------------------

    def _provisioning_events(self, job, n_workers):
        """One ``"provision"`` event per sub-lot: one sub-lot runs
        in-process as one lockstep pass, more run on a fleet."""
        store = CalibrationStore(job.calibration_store)
        # Every die is read twice, here and again by the provisioning
        # task (`provision_fleet`), and both reads stay: this one sizes
        # the sub-lots by the missing dies and starts no fleet when none
        # is missing; the task's lets a retried sub-lot skip the dies
        # its killed attempt already stored.  Campaigns plan the same
        # way (`plan_campaign_tasks`).
        missing = store.missing(sorted({tuple(t) for t in job.triples}))
        if not missing:
            return 0
        tasks = provisioning_tasks(missing, n_workers)
        events = self._run_tasks(
            self._task_context(job.backend, str(store.path)), len(tasks),
            [], tasks,
        )
        for task, payload, seconds in events:
            yield TaskEvent("provision", task.label(), None, payload, seconds)
        return len(missing)

    # -- experiment jobs --------------------------------------------------

    def _experiment_events(self, job):
        """Run the selected registry entries in report order, one task
        each.  In process the tasks share their run's measurement memo
        (:func:`~repro.service.scheduler.run_inline`): Figs. 7-12 and
        the attack-cost table measure one die against one key
        population, and each measurement is then simulated once (see
        :func:`~repro.receiver.performance.measure_modulator_snr_batch`)."""
        from repro.experiments.runner import REGISTRY

        names = [name for name in REGISTRY
                 if not job.names or name in job.names]
        tasks = [
            ExperimentTask(name, job.full, position)
            for position, name in enumerate(names)
        ]
        # One task wide: experiments stream in report order.
        events = self._run_tasks(
            self._task_context(job.backend, None), 1, tasks
        )
        results = []
        for task, payload, seconds in events:
            results.append(payload)
            yield TaskEvent("experiment", task.name, task.position,
                            payload, seconds)
        return results
