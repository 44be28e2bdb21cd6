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

The handle's consumer drives the job.  A job with one worker runs
in-process — the ground truth every differential compares against; a
sharded job runs on a :class:`~repro.service.scheduler.WorkerFleet`
private to the job, whose workers fork before its router thread
starts, so the initial team forks from a single-threaded parent — the
same fork-safety argument as the engine kernel's per-call thread
teams.  A worker respawned after a crash forks from the router thread
(the trade the daemon's persistent fleet makes too, and every
``multiprocessing.Pool``); the worker immediately re-runs the same
initialisation.  Campaign reports are bit-identical to a sequential
run whatever the worker count or backend (cells rebuild their chips
and seed their own RNGs; calibrations are deterministic values read
through the shared store), and a campaign with a journal resumes from
its finished cells after a kill — both held in
``tests/test_service.py``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager

from repro.engine import CalibrationStore, get_default_engine, set_default_backend
from repro.service.jobs import (
    CampaignJob,
    ExperimentJob,
    JobCancelled,
    JobFailed,
    JobStatus,
    ProvisioningJob,
    TaskEvent,
    default_worker_count,
    validate_worker_count,
)
from repro.service.journal import JobJournal, cells_fingerprint
from repro.service.scheduler import (
    CellTask,
    ProvisionTask,
    TaskContext,
    WorkerFleet,
    run_on_fleet,
)


def plan_campaign_tasks(todo, store, clear_locks: bool):
    """Turn the remaining ``(index, cell)`` pairs into scheduler tasks.

    Returns ``(cell_tasks, provision_tasks, cell_triples)``:
    the cells as :class:`CellTask` records, one :class:`ProvisionTask`
    per calibration triple the cells declare that ``store`` does not
    already hold, and the gating map (cell index -> set of missing
    triples the cell must wait for).  ``clear_locks`` clears each
    missing triple's ``get_or_set`` lock up front — correct only when
    the caller owns the store exclusively (the per-job service path);
    the daemon shares one store across concurrent jobs and sweeps
    debris at startup instead.
    """
    from repro.campaigns.campaign import cell_triples as triples_of

    cell_triples = {index: triples_of(cell) for index, cell in todo}
    triples = sorted(set().union(*cell_triples.values())) if cell_triples else []
    missing = [
        t for t, hit in zip(triples, store.get_many(triples))
        if hit is None
    ]
    if clear_locks:
        for triple in missing:
            store.clear_lock(triple)
    for index in cell_triples:
        cell_triples[index] &= set(missing)
    cell_tasks = [CellTask(index, cell) for index, cell in todo]
    return cell_tasks, [ProvisionTask(t) for t in missing], cell_triples


def plan_cell_partitions(todo):
    """Partition plans for the ``(index, cell)`` pairs whose attack
    adapter declares one (``{cell index: plan}``; empty when every cell
    runs scalar).  Built fresh per scheduling round — plans are
    stateful, parent-side objects the scheduler drives."""
    from repro.campaigns.campaign import cell_partition

    partitions = {}
    for index, cell in todo:
        plan = cell_partition(cell)
        if plan is not None:
            partitions[index] = plan
    return partitions


class JobHandle:
    """Lifecycle handle of one submitted job (see module docstring)."""

    def __init__(self, job, executor):
        self.job = job
        self._executor = executor
        self._status = JobStatus.PENDING
        self._events: list[TaskEvent] = []
        self._result = None
        self._error: JobFailed | None = None
        self._cancelled = False
        self._gen = None

    def status(self) -> JobStatus:
        """Where the job is in its lifecycle."""
        return self._status

    def events(self) -> list[TaskEvent]:
        """Every event delivered so far (the stream's log)."""
        return list(self._events)

    def _run(self):
        self._result = yield from self._executor()

    def _advance(self) -> bool:
        """Drive one task event; False when no more will come."""
        if self._status in (
            JobStatus.COMPLETED,
            JobStatus.FAILED,
            JobStatus.CANCELLED,
        ):
            return False
        if self._cancelled:
            self._status = JobStatus.CANCELLED
            return False
        if self._gen is None:
            self._gen = self._run()
            self._status = JobStatus.RUNNING
        try:
            event = self._gen.send(None)
        except StopIteration:
            self._status = JobStatus.COMPLETED
            return False
        except JobFailed as exc:
            self._status = JobStatus.FAILED
            self._error = exc
            raise
        except BaseException as exc:
            self._status = JobStatus.FAILED
            self._error = JobFailed(
                f"{self.job.__class__.__name__} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            raise self._error from exc
        self._events.append(event)
        return True

    def stream(self):
        """Yield :class:`TaskEvent` records as tasks complete.

        Drives the job while iterated.  **Consumer contract
        (buffer-replay):** every consumer sees the full event log from
        the beginning — events already delivered are replayed first,
        so late consumers, repeated consumers and a second *concurrent*
        ``stream()`` on the same handle all observe the identical
        complete sequence; concurrent consumers never split events
        between them.  (Two streams of one handle interleaved from
        different threads are not supported — the handle's consumer
        drives the job single-threadedly.)  The stream simply ends on
        cancellation; a failure raises :class:`JobFailed` after the
        delivered events — for live and late consumers alike, so a
        failed job is never mistaken for a completed one.
        """
        i = 0
        while True:
            while i >= len(self._events):
                if not self._advance():
                    if self._status is JobStatus.FAILED:
                        raise self._error
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
        task already running is never preempted, and ``wait(0)`` on an
        undriven job does no work at all.  The network-backed
        :class:`~repro.service.client.RemoteJobHandle` has the same
        signature with the daemon driving regardless.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._status in (JobStatus.PENDING, JobStatus.RUNNING):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            try:
                if not self._advance():
                    break
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
            raise self._error
        if self._status is JobStatus.CANCELLED:
            raise JobCancelled(
                f"job cancelled after {len(self._events)} completed tasks"
            )
        return self._result

    def cancel(self) -> bool:
        """Stop the job at the next task boundary.

        Finished tasks stay journaled (a resubmission resumes from
        them); in-flight workers are reaped.  Returns False when the
        job had already finished.
        """
        if self._status in (
            JobStatus.COMPLETED,
            JobStatus.FAILED,
            JobStatus.CANCELLED,
        ):
            return False
        self._cancelled = True
        if self._gen is not None:
            self._gen.close()  # GeneratorExit -> the job's fleet is reaped
            self._gen = None
        self._status = JobStatus.CANCELLED
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
        if isinstance(job, CampaignJob):
            prepare = self._prepare_campaign
        elif isinstance(job, ProvisioningJob):
            prepare = self._prepare_provisioning
        elif isinstance(job, ExperimentJob):
            prepare = self._prepare_experiments
        else:
            raise TypeError(
                f"unknown job type {type(job).__name__}; submit a "
                f"CampaignJob, ProvisioningJob or ExperimentJob"
            )
        job.validate()
        executor = prepare(job)
        return JobHandle(job, executor)

    def _resolve_workers(self, job_workers: int | None) -> int:
        if job_workers is not None:
            return validate_worker_count(job_workers)
        if self.n_workers is not None:
            return self.n_workers
        return default_worker_count()

    # -- execution hooks --------------------------------------------------

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
        """What a worker initialises to run this service's tasks (the
        daemon's service adds the tenant meter)."""
        return TaskContext(backend=backend, store_path=store_path)

    # -- campaign jobs ----------------------------------------------------

    def _prepare_campaign(self, job: CampaignJob):
        from repro.campaigns.attacks import make_attack

        cells = list(job.cells)
        n_workers = self._resolve_workers(job.n_workers)
        # Up-front validation: every attack name must resolve before
        # any cell (or worker fork) runs.
        for attack, params in {(c.attack, c.attack_params) for c in cells}:
            make_attack(attack, **dict(params))
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
        runner, reported_workers = self._campaign_runner(
            job, todo, n_workers, journal
        )
        for event in runner:
            if event.kind == "cell":
                reports[event.index] = event.payload
                timings[event.index] = event.seconds
            yield event
        return CampaignResult(
            reports=[reports[i] for i in range(len(cells))],
            cell_seconds=[timings[i] for i in range(len(cells))],
            n_workers=reported_workers,
            backend=resolved_backend,
        )

    def _campaign_runner(self, job, todo, n_workers, journal):
        """Choose how the remaining cells execute: ``(runner,
        reported_workers)``.

        Small jobs run in-process (the ground-truth path); the rest
        shard over a fleet.  The daemon's service overrides this to
        shard everything on its persistent fleet.  Either way the
        runner yields the same :class:`TaskEvent` sequence shape, which
        is why reports are bit-identical across execution modes.
        """
        if n_workers == 1:
            return self._campaign_inline(job, todo, journal), 1
        if len(todo) <= 1 and not plan_cell_partitions(todo):
            # A single scalar cell gains nothing from workers — but a
            # single *partitioned* cell is exactly the dominant-cell
            # case sub-task scheduling exists for, so it still shards.
            return self._campaign_inline(job, todo, journal), 1
        # clear_locks=True: this job owns each triple as exactly one
        # task, so a lock left by a killed run's terminated worker is
        # debris.  (The daemon plans with False — see its override.)
        return (
            self._campaign_sharded(job, todo, n_workers, journal,
                                   clear_locks=True),
            n_workers,
        )

    def _campaign_inline(self, job, todo, journal):
        """In-process execution, cell order — the ground truth every
        other mode is differentially held against."""
        engine = get_default_engine()
        previous_backend = engine.backend
        previous_store = engine.calibration_store
        store_dir = job.calibration_store or (
            journal.calibration_store_path() if journal else None
        )
        if job.backend is not None:
            set_default_backend(job.backend)
        if store_dir is not None:
            engine.calibration_store = CalibrationStore(store_dir)
        try:
            for index, cell in todo:
                start = time.perf_counter()
                report = cell.execute()
                seconds = time.perf_counter() - start
                if journal is not None:
                    journal.put_cell(index, cell.label(), report, seconds)
                yield TaskEvent("cell", cell.label(), index, report, seconds)
        finally:
            engine.backend = previous_backend
            engine.calibration_store = previous_store

    def _campaign_sharded(self, job, todo, n_workers, journal, clear_locks):
        """Fleet execution: provisioning tasks gate their cells, and
        partitioned cells fan out as sub-tasks."""
        store_path = job.calibration_store or (
            journal.calibration_store_path() if journal else None
        )
        own_tmp = store_path is None
        if own_tmp:
            store_path = tempfile.mkdtemp(prefix="repro-calstore-")
        try:
            cell_tasks, provision_tasks, cell_triples = plan_campaign_tasks(
                todo, CalibrationStore(store_path), clear_locks=clear_locks
            )
            partitions = plan_cell_partitions(todo)
            # Partitioned jobs hold more units than results, so size the
            # fleet by the requested width rather than the result count.
            n_units = len(cell_tasks) + len(provision_tasks)
            if partitions:
                n_units = max(n_units, n_workers)
            with self._fleet(max(1, min(n_workers, n_units))) as fleet:
                events = run_on_fleet(
                    fleet,
                    self._task_context(job.backend, store_path),
                    cell_tasks,
                    provision_tasks,
                    cell_triples,
                    max_inflight=n_workers,
                    partitions=partitions,
                )
                # Journal each finished cell the moment its result lands.
                for task, payload, seconds in events:
                    if isinstance(task, ProvisionTask):
                        yield TaskEvent("provision", task.label(), None,
                                        payload, seconds)
                        continue
                    if journal is not None:
                        journal.put_cell(task.index, task.label(), payload,
                                         seconds)
                    yield TaskEvent("cell", task.label(), task.index,
                                    payload, seconds)
        finally:
            if own_tmp:
                shutil.rmtree(store_path, ignore_errors=True)

    # -- provisioning jobs ------------------------------------------------

    def _prepare_provisioning(self, job: ProvisioningJob):
        n_workers = self._resolve_workers(job.n_workers)
        return lambda: self._provisioning_events(job, n_workers)

    def _provisioning_events(self, job, n_workers):
        store = CalibrationStore(job.calibration_store)
        triples = sorted({tuple(t) for t in job.triples})
        missing = [
            t for t, hit in zip(triples, store.get_many(triples))
            if hit is None
        ]
        if not missing:
            return 0
        yield from self._provision_runner(job, missing, n_workers, store)
        return len(missing)

    def _provision_runner(self, job, missing, n_workers, store):
        """Execute the missing triples: one parent-side lockstep batch,
        or one fleet task per triple (the daemon's service overrides
        this to shard everything on its persistent fleet)."""
        from repro.campaigns.campaign import provision_fleet

        for triple in missing:
            store.clear_lock(triple)  # killed-run debris; see campaign path
        if n_workers == 1 or len(missing) <= 1:
            start = time.perf_counter()
            provision_fleet(missing, store, backend=job.backend)
            yield TaskEvent(
                "provision",
                f"fleet of {len(missing)} dies",
                None,
                tuple(missing),
                time.perf_counter() - start,
            )
        else:
            yield from self._provision_sharded(job, missing, n_workers, store)

    def _provision_sharded(self, job, missing, n_workers, store):
        with self._fleet(min(n_workers, len(missing))) as fleet:
            events = run_on_fleet(
                fleet,
                self._task_context(job.backend, str(store.path)),
                [],
                [ProvisionTask(t) for t in missing],
                {},
                max_inflight=n_workers,
            )
            for task, payload, seconds in events:
                yield TaskEvent("provision", task.label(), None, payload,
                                seconds)

    # -- experiment jobs --------------------------------------------------

    def _prepare_experiments(self, job: ExperimentJob):
        return lambda: self._experiment_events(job)

    def _experiment_events(self, job):
        from repro.experiments.runner import REGISTRY

        engine = get_default_engine()
        previous_backend = engine.backend
        if job.backend is not None:
            set_default_backend(job.backend)
        try:
            selected = list(REGISTRY.values())
            if job.names:
                selected = [
                    spec for spec in selected if spec.name in job.names
                ]
            results = []
            for position, spec in enumerate(selected):
                start = time.perf_counter()
                result = spec.execute(full=job.full)
                seconds = time.perf_counter() - start
                results.append(result)
                yield TaskEvent("experiment", spec.name, position, result,
                                seconds)
            return results
        finally:
            engine.backend = previous_backend
