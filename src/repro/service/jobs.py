"""Job descriptions and lifecycle vocabulary of the foundry service.

A *job* is a picklable, declarative description of a unit of service
work — a whole attack campaign (:class:`CampaignJob`), a fleet
provisioning pass (:class:`ProvisioningJob`) or a run of registered
experiments (:class:`ExperimentJob`).  Jobs carry no behaviour: the
:class:`~repro.service.service.FoundryService` validates them up front
at ``submit`` time and executes them (in-process, or sharded over a
supervised worker fleet), emitting one :class:`TaskEvent` per
completed task and moving the handle through the :class:`JobStatus`
lifecycle (``PENDING -> RUNNING -> COMPLETED`` / ``FAILED`` /
``CANCELLED``).

Cells whose attack adapter declares a partition plan
(:meth:`~repro.campaigns.attacks.Attack.partition`) are shattered into
fleet-internal sub-tasks; those never surface here.  A partitioned
cell still emits exactly one ``"cell"`` :class:`TaskEvent` — fired when
the parent's sequential-replay assembly completes — with a payload
bit-identical to the unpartitioned cell's, so streaming consumers and
journals cannot tell the difference.

Worker counts everywhere in the service follow one convention,
mirrored on ``REPRO_ENGINE_THREADS``: a count must be a positive
integer (``1`` runs in-process), rejected up front with the valid
range in the error.  ``REPRO_SERVICE_WORKERS`` supplies the default
for jobs that do not pin one.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

#: Environment variable naming the default worker count for jobs that
#: do not pin one (unset or empty means in-process execution).
SERVICE_WORKERS_ENV = "REPRO_SERVICE_WORKERS"

#: Environment variable naming the per-task attempt budget: a task
#: whose worker dies or hangs is requeued and re-executed until it has
#: consumed this many attempts, then fails its job with
#: :class:`TaskRetriesExhausted`.  Unset or empty means the default.
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

#: Attempts per task when ``REPRO_TASK_RETRIES`` is unset: first
#: execution plus two retries.
DEFAULT_TASK_RETRIES = 3

#: Environment variable naming the hung-worker watchdog threshold,
#: seconds: a worker whose heartbeat has been silent this long while
#: holding a task is killed, respawned, and its task requeued.  Unset,
#: empty or 0 disables the watchdog.  Heartbeats tick while a task
#: computes (a worker-side thread), so long tasks never trip it — only
#: a genuinely frozen process does.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"      #: submitted, not yet driven
    RUNNING = "running"      #: at least one task dispatched
    COMPLETED = "completed"  #: every task finished, result available
    FAILED = "failed"        #: a task raised; ``result()`` re-raises
    CANCELLED = "cancelled"  #: cancelled; finished tasks stay journaled


class JobFailed(RuntimeError):
    """A task of the job raised; the message names the failing task."""


class TaskRetriesExhausted(JobFailed):
    """One task consumed its whole attempt budget (worker deaths,
    hung-worker reclaims) without completing.

    A single worker death no longer fails a job — the fleet respawns
    the worker and retries the task — so reaching this exception
    means *every* attempt was lost to infrastructure.  The
    per-attempt failure descriptions ride along so the operator can see
    whether the attempts died the same way (a task that reliably OOMs
    its worker) or differently (a flaky host).

    Attributes:
        label: The failing task's label.
        attempts: One human-readable description per lost attempt, in
            order (exit codes for deaths, watchdog notes for hangs).
    """

    def __init__(self, label: str, attempts):
        self.label = label
        self.attempts = list(attempts)
        lines = "\n".join(
            f"  attempt {i}: {note}"
            for i, note in enumerate(self.attempts, start=1)
        )
        super().__init__(
            f"task {label!r} exhausted its {len(self.attempts)}-attempt "
            f"retry budget ({TASK_RETRIES_ENV}):\n{lines}"
        )


class JobCancelled(RuntimeError):
    """The job was cancelled before completing."""


class JournalMismatch(ValueError):
    """The named journal belongs to a different job (fingerprint clash)."""


def validate_worker_count(value, name: str = "n_workers") -> int:
    """Validate a worker count up front (the REPRO_ENGINE_THREADS
    convention: positive integer, valid range in the error)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(
            f"{name} must be a positive integer "
            f"(valid range: >= 1, where 1 runs in-process), got {value!r}"
        )
    return value


def validate_backend(backend) -> None:
    """Reject an unknown engine backend up front (None keeps the
    default engine's)."""
    from repro.engine import BACKENDS

    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )


def default_worker_count() -> int:
    """Resolve the service-wide default worker count from
    ``REPRO_SERVICE_WORKERS`` (unset or empty means 1, in-process)."""
    raw = os.environ.get(SERVICE_WORKERS_ENV)
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 1:
        raise ValueError(
            f"{SERVICE_WORKERS_ENV} must be a positive integer "
            f"(valid range: >= 1, or unset for in-process execution), "
            f"got {raw!r}"
        )
    return n


def task_retry_budget() -> int:
    """Resolve the per-task attempt budget from ``REPRO_TASK_RETRIES``
    (the worker-count convention: positive integer, valid range in the
    error; unset or empty means :data:`DEFAULT_TASK_RETRIES`)."""
    raw = os.environ.get(TASK_RETRIES_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_TASK_RETRIES
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 1:
        raise ValueError(
            f"{TASK_RETRIES_ENV} must be a positive integer "
            f"(valid range: >= 1, where 1 means no retries), got {raw!r}"
        )
    return n


def task_timeout_seconds() -> float | None:
    """Resolve the hung-worker watchdog threshold from
    ``REPRO_TASK_TIMEOUT`` (seconds of heartbeat silence; unset, empty
    or 0 disables the watchdog)."""
    raw = os.environ.get(TASK_TIMEOUT_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        seconds = float(raw)
    except ValueError:
        seconds = -1.0
    if seconds < 0:
        raise ValueError(
            f"{TASK_TIMEOUT_ENV} must be a non-negative number of seconds "
            f"(0 or unset disables the watchdog), got {raw!r}"
        )
    return seconds if seconds > 0 else None


@dataclass(frozen=True)
class TaskEvent:
    """One completed task, streamed through ``JobHandle.stream()``.

    Attributes:
        kind: ``"cell"`` (an executed campaign cell), ``"replay"`` (a
            cell served from the job journal), ``"provision"`` (a die
            calibration), or ``"experiment"`` (one registry entry).
        label: Human-readable task tag.
        index: Position of the task in the job's own ordering (cell
            index, experiment position), None for provisioning.
        payload: The task's result — an
            :class:`~repro.campaigns.report.AttackReport`, an
            ``ExperimentResult``, or a provisioning triple/count.
        seconds: Wall-clock seconds the task took (journal replays
            carry the original run's timing).
    """

    kind: str
    label: str
    index: int | None = None
    payload: object = None
    seconds: float = 0.0


@dataclass(frozen=True)
class CampaignJob:
    """Execute a list of campaign cells and assemble a
    :class:`~repro.campaigns.campaign.CampaignResult`.

    Attributes:
        cells: The independent cells, in report order (see
            :func:`~repro.campaigns.campaign.expand_matrix`).
        n_workers: Worker processes; None resolves
            ``REPRO_SERVICE_WORKERS`` (default 1, in-process).
        backend: Optional engine backend for the whole job.
        calibration_store: Directory of the cross-process calibration
            store workers share; None uses the journal's store when a
            journal is named, else a job-private temporary directory.
        journal: Directory of the on-disk job journal.  Completed cells
            persist there as they finish, so resubmitting the identical
            job resumes from the finished cells bit-identically; a
            journal written by a *different* cell list is rejected with
            :class:`JournalMismatch`.
    """

    cells: tuple = ()
    n_workers: int | None = None
    backend: str | None = None
    calibration_store: str | None = None
    journal: str | None = None

    def validate(self) -> None:
        """Reject malformed jobs up front, before any work happens."""
        if self.n_workers is not None:
            validate_worker_count(self.n_workers)
        validate_backend(self.backend)


@dataclass(frozen=True)
class ProvisioningJob:
    """Fleet-calibrate ``(lot_seed, chip_id, standard_index)`` triples
    into a calibration store; the result is the number computed.

    The missing triples run as ``min(n_workers, len(missing))``
    lockstep :func:`~repro.campaigns.campaign.provision_fleet` sub-lots,
    one ``"provision"`` event each: one in-process, more as tasks on a
    supervised worker fleet private to the job (or the daemon's).
    """

    triples: tuple = ()
    calibration_store: str | None = None
    backend: str | None = None
    n_workers: int | None = None

    def validate(self) -> None:
        from repro.receiver.standards import STANDARDS

        if self.calibration_store is None:
            raise ValueError("ProvisioningJob requires a calibration_store")
        indices = sorted(std.index for std in STANDARDS)
        for triple in self.triples:
            triple = tuple(triple)
            if len(triple) != 3 or not all(
                isinstance(value, int) and not isinstance(value, bool)
                for value in triple
            ):
                raise ValueError(
                    f"provisioning triples are (lot_seed, chip_id, "
                    f"standard_index) integers, got {triple!r}"
                )
            lot_seed, chip_id, standard_index = triple
            if lot_seed < 0 or chip_id < 0:
                raise ValueError(
                    f"provisioning triple {triple!r}: lot_seed and chip_id "
                    f"must be non-negative integers"
                )
            if standard_index not in indices:
                raise ValueError(
                    f"provisioning triple {triple!r}: unknown standard "
                    f"index {standard_index}; choose from {indices}"
                )
        if self.n_workers is not None:
            validate_worker_count(self.n_workers)
        validate_backend(self.backend)


@dataclass(frozen=True)
class ExperimentJob:
    """Run registered experiments (the runner's registry) in report
    order; the result is the list of ``ExperimentResult`` tables."""

    names: tuple | None = None
    full: bool = False
    backend: str | None = None

    def validate(self) -> None:
        validate_backend(self.backend)
        if self.names is not None and not self.names:
            raise ValueError(
                "ExperimentJob names is empty; omit it (None) to run "
                "the whole registry"
            )
        if self.names:
            from repro.experiments.runner import REGISTRY

            unknown = set(self.names) - set(REGISTRY)
            if unknown:
                raise KeyError(
                    f"unknown experiment(s) {sorted(unknown)}; "
                    f"known: {sorted(REGISTRY)}"
                )
