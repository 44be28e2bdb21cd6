"""Job-oriented execution service: submit, stream, resume.

The campaign, provisioning and experiment layers used to each own
their execution loop; this package gives them one.  A
:class:`~repro.service.service.FoundryService` accepts declarative
:mod:`jobs <repro.service.jobs>` through a single
``submit(job) -> JobHandle`` API:

* :class:`~repro.service.jobs.CampaignJob` — an attack campaign's cell
  list, sharded over a **supervised worker fleet**
  (:mod:`repro.service.scheduler`): cells are tasks in one ready pool
  that workers take as they free up, die calibrations run as lockstep
  sub-lots, one task per worker, that unblock their gated attack cells
  the moment they land — a finished sub-lot's dies attack while other
  sub-lots are still calibrating — and imbalanced fleets pack tightly
  instead of idling behind a dominant cell;
* :class:`~repro.service.jobs.ProvisioningJob` — fleet calibration
  into a shared store, as one lockstep sub-lot per worker;
* :class:`~repro.service.jobs.ExperimentJob` — registered paper
  artefacts in report order.

The handle streams :class:`~repro.service.jobs.TaskEvent` records as
tasks complete (``stream()``), assembles the job's result
(``result()``), reports the lifecycle (``status()``) and cancels
cleanly (``cancel()``).  Completed cells journal into an on-disk
:class:`~repro.service.journal.JobJournal` as they finish, so a killed
campaign resumes from its finished cells bit-identically.

Reports are bit-identical to sequential execution across worker
counts and backends — cells rebuild their chips and
seed their own RNGs, and calibrations are deterministic values read
through the shared :class:`~repro.engine.store.CalibrationStore` —
held differentially in ``tests/test_service.py``.
:func:`~repro.campaigns.campaign.run_campaign`, the experiment runner
and the example studies are thin clients of this service.

Execution is **self-healing**: fleet workers (a sharded job's own
fleet and the daemon's persistent one alike) that die or hang mid-task
are respawned and their task retried up to ``REPRO_TASK_RETRIES`` attempts
(a hung worker is reclaimed after ``REPRO_TASK_TIMEOUT`` seconds of
heartbeat silence), with reports byte-identical across any crash
schedule — held under the deterministic fault-injection plans of
:mod:`repro.faults` in ``tests/test_faults.py``.

Serving: :class:`~repro.service.daemon.FoundryDaemon` runs the same
service as a long-lived, multi-tenant server — one daemon per state
root, one persistent fleet — that frame clients
(:class:`~repro.service.client.DaemonClient`) reach over a
trusted-local socket.  :class:`~repro.service.http.FoundryHTTPFrontend`
is the JSON-only door for untrusted clients: it translates HTTP into
frames to that daemon (``python -m repro.service http``).
"""

from repro.service.jobs import (
    CampaignJob,
    ExperimentJob,
    JobCancelled,
    JobFailed,
    JobStatus,
    JournalMismatch,
    ProvisioningJob,
    SERVICE_WORKERS_ENV,
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    TaskEvent,
    TaskRetriesExhausted,
    default_worker_count,
    task_retry_budget,
    task_timeout_seconds,
    validate_worker_count,
)
from repro.service.journal import JobJournal, cells_fingerprint
from repro.service.scheduler import WorkerFleet
from repro.service.service import FoundryService, JobHandle
from repro.service.protocol import SERVICE_SOCKET_ENV, SERVICE_TENANT_ENV
from repro.service.tenants import (
    RateLimited,
    TenantConfig,
    TenantMeter,
    TokenBucket,
    parse_tenant_spec,
)
from repro.service.client import DaemonClient, JobInterrupted, RemoteJobHandle
from repro.service.daemon import DaemonUnavailable, FoundryDaemon
from repro.service.http import FoundryHTTPFrontend, job_from_json

__all__ = [
    "CampaignJob",
    "DaemonClient",
    "DaemonUnavailable",
    "ExperimentJob",
    "FoundryDaemon",
    "FoundryHTTPFrontend",
    "FoundryService",
    "JobCancelled",
    "JobFailed",
    "JobHandle",
    "JobInterrupted",
    "JobJournal",
    "JobStatus",
    "JournalMismatch",
    "ProvisioningJob",
    "RateLimited",
    "RemoteJobHandle",
    "SERVICE_SOCKET_ENV",
    "SERVICE_TENANT_ENV",
    "SERVICE_WORKERS_ENV",
    "TASK_RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "TaskEvent",
    "TaskRetriesExhausted",
    "TenantConfig",
    "TenantMeter",
    "TokenBucket",
    "WorkerFleet",
    "cells_fingerprint",
    "default_worker_count",
    "job_from_json",
    "parse_tenant_spec",
    "task_retry_budget",
    "task_timeout_seconds",
    "validate_worker_count",
]
