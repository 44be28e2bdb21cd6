"""Multi-tenant vocabulary of the foundry daemon: priorities, quotas
and rate limits.

A *tenant* is one customer of a shared daemon.  Its
:class:`TenantConfig` carries the admission-control knobs the service
enforces:

* ``priority`` — queued jobs are admitted highest priority first
  (FIFO within a priority level);
* ``max_queries`` — a tenant-level oracle-measurement budget across
  *all* of the tenant's jobs, metered by a :class:`TenantMeter`
  (an **absolute** quota: once spent, it never refills);
* ``max_submits_per_minute`` / ``max_queries_per_minute`` — **rate**
  limits, enforced through file-backed :class:`TokenBucket` records:
  a bucket of that capacity refills continuously at ``limit/60``
  tokens per second, a submission takes one token, an oracle chunk of
  ``n`` measurements takes ``n``, and an empty bucket refuses with a
  typed :class:`RateLimited` — the fair-admission complement to the
  absolute quota for many tenants sharing one daemon fleet.

The meter generalises :meth:`~repro.attacks.oracle.MeasurementOracle.
charge_batch`'s atomic chunk admission to the tenant level: a whole
chunk is admitted or refused at the same per-tenant count **regardless
of placement** — whichever job, cell or worker process submits it —
because the count lives in one file and every charge holds that file's
lock across its check-then-advance.  A refusal raises the same
:class:`~repro.attacks.oracle.QueryBudgetExceeded` the per-oracle
budget raises, with every meter (tenant and oracle) un-advanced, so
attacks report tenant exhaustion exactly as they report their own.
Rate refusals follow the identical contract: :class:`RateLimited` is a
:class:`QueryBudgetExceeded`, raised with the tenant meter, oracle
meter **and** the bucket all un-advanced, so a refused chunk can be
retried after ``retry_after`` seconds without having consumed
anything.  A request above a bucket's capacity can never fit, so it
is refused with a plain :class:`QueryBudgetExceeded` instead.

Worker processes install their task's meter through
:func:`repro.attacks.oracle.install_tenant_meter`; every oracle charge
then writes through both meters (and the rate bucket) atomically.
Meters and buckets are files under the daemon's root, so every fleet
worker process and both front doors (frames and the HTTP facade)
debit one tenant-wide count, and the counts survive a restart.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.attacks.oracle import QueryBudgetExceeded

try:  # POSIX: the kernel releases a crashed holder's flock for us.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


#: A tenant name: it becomes a file name under ``<root>/tenants``, so
#: it may hold no path separator and may not start with a dot.
TENANT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class RateLimited(QueryBudgetExceeded):
    """Typed rate-limit refusal: the tenant's token bucket is empty.

    A :class:`QueryBudgetExceeded`, so an attack whose oracle chunk is
    rate-refused reports exhaustion exactly like a spent budget — but
    unlike the absolute quota the refusal is *temporary*: the bucket
    keeps refilling, and ``retry_after`` names the seconds until the
    refused amount fits again.  The refusal leaves every meter and the
    bucket itself un-advanced (nothing was consumed), so retrying after
    ``retry_after`` is side-effect free.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of a shared daemon.

    The daemon enforces every field (``serve --tenant``); the HTTP
    facade submits through the daemon, so a tenant gets the same limits
    over frames and over HTTP.

    Attributes:
        name: Tenant identifier (the ``REPRO_SERVICE_TENANT`` value
            clients submit under); it must match :data:`TENANT_NAME`,
            because it names the tenant's files under
            ``<root>/tenants``.
        priority: Admission priority; higher admits first.
        max_queries: Tenant-wide oracle-measurement budget across all
            the tenant's jobs; None for unlimited.  Absolute — never
            refills.
        max_submits_per_minute: Token-bucket rate limit on job
            submissions (new submissions only; attaching to a live
            identical job and restart recovery are free); None for
            unlimited.
        max_queries_per_minute: Token-bucket rate limit on oracle
            measurements, enforced in the same atomic
            ``charge_batch`` that meters the absolute quota; None for
            unlimited.
    """

    name: str
    priority: int = 0
    max_queries: int | None = None
    max_submits_per_minute: float | None = None
    max_queries_per_minute: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not isinstance(self.name, str) or not TENANT_NAME.fullmatch(
            self.name
        ):
            raise ValueError(
                f"tenant name {self.name!r} must be 1-64 letters, digits, "
                f"'.', '_' or '-', starting with a letter or digit"
            )
        if self.max_queries is not None and self.max_queries < 0:
            raise ValueError(
                f"max_queries must be >= 0 or None (unlimited), "
                f"got {self.max_queries!r}"
            )
        for field_name in ("max_submits_per_minute",
                           "max_queries_per_minute"):
            value = getattr(self, field_name)
            if value is not None and not value > 0:
                raise ValueError(
                    f"{field_name} must be > 0 or None (unlimited), "
                    f"got {value!r}"
                )


def parse_tenant_spec(spec: str) -> TenantConfig:
    """Parse a CLI tenant spec:
    ``name[=priority[:max_queries[:submits/min[:queries/min]]]]``.

    Examples: ``acme`` (defaults), ``acme=5`` (priority 5),
    ``acme=5:20000`` (priority 5, 20000-measurement quota),
    ``acme=::30:6000`` (30 submissions and 6000 measurements per
    minute, no priority or absolute quota).  Empty fields keep their
    defaults.
    """
    name, _, rest = spec.partition("=")
    if not rest:
        return TenantConfig(name=name)
    fields = rest.split(":")
    if len(fields) > 4:
        raise ValueError(
            f"malformed tenant spec {spec!r}; expected "
            f"name[=priority[:max_queries[:submits/min[:queries/min]]]]"
        )
    fields += [""] * (4 - len(fields))
    priority_text, quota_text, spm_text, qpm_text = fields
    try:
        priority = int(priority_text) if priority_text else 0
        max_queries = int(quota_text) if quota_text else None
        spm = float(spm_text) if spm_text else None
        qpm = float(qpm_text) if qpm_text else None
    except ValueError:
        raise ValueError(
            f"malformed tenant spec {spec!r}; expected "
            f"name[=priority[:max_queries[:submits/min[:queries/min]]]]"
        ) from None
    return TenantConfig(
        name=name, priority=priority, max_queries=max_queries,
        max_submits_per_minute=spm, max_queries_per_minute=qpm,
    )


@contextmanager
def _locked(path: Path):
    """Hold the exclusive lock beside ``path`` for a block.

    ``flock`` where available (a crashed holder's lock is released by
    the kernel, so a SIGKILLed worker can never wedge its tenant),
    otherwise an ``O_CREAT|O_EXCL`` spin lock on the same lock file."""
    lock = path.with_suffix(path.suffix + ".lock")
    if fcntl is not None:
        fd = os.open(lock, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
    else:  # pragma: no cover - non-POSIX fallback
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                time.sleep(0.005)
    try:
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(fd)
            os.unlink(lock)


def _read_count(path: Path) -> int:
    """The ASCII integer in ``path``; 0 when missing or torn."""
    try:
        return int(path.read_text() or "0")
    except (OSError, ValueError):
        return 0


class TokenBucket:
    """File-backed token bucket shared by every process of a tenant.

    The state file holds ``"<tokens> <stamp>"`` — the token level and
    the monotonic clock reading it was valid at.  :meth:`take` holds an
    exclusive lock (:func:`_locked`, as :class:`TenantMeter` does on its
    count) across refill-check-write: the bucket refills continuously
    at ``per_minute / 60`` tokens per second up to ``per_minute``
    capacity, a request that fits is debited atomically, and one that
    does not raises :class:`RateLimited` **without writing anything**
    — a refusal consumes no tokens and can be retried after
    ``retry_after`` seconds.  A fresh bucket starts full.

    ``clock`` is injectable for deterministic tests; the default
    ``time.monotonic`` is system-wide on Linux, so processes sharing
    the file agree on elapsed time.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        per_minute: float,
        tenant: str = "",
        kind: str = "requests",
        clock=time.monotonic,
    ):
        if not per_minute > 0:
            raise ValueError(
                f"per_minute must be > 0, got {per_minute!r}"
            )
        self.path = Path(path)
        self.capacity = float(per_minute)
        self.rate = float(per_minute) / 60.0
        self.tenant = tenant
        self.kind = kind
        self.clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def _refilled(self, now: float) -> float:
        """Token level at ``now`` (lock held): stored level plus refill
        since the stored stamp, capped at capacity."""
        try:
            tokens_text, stamp_text = self.path.read_text().split()
            tokens, stamp = float(tokens_text), float(stamp_text)
        except (OSError, ValueError):
            return self.capacity  # fresh (or torn) bucket starts full
        return min(self.capacity, tokens + max(0.0, now - stamp) * self.rate)

    def level(self) -> float:
        """The current token level (diagnostics and tests)."""
        with _locked(self.path):
            return self._refilled(self.clock())

    def take(self, n: float = 1.0) -> None:
        """Atomically debit ``n`` tokens, or raise :class:`RateLimited`
        with the bucket un-advanced when they are not there yet (a
        plain :class:`QueryBudgetExceeded` when they never can be)."""
        if n < 0:
            raise ValueError(f"cannot take a negative amount, got {n}")
        if n > self.capacity + 1e-9:
            raise QueryBudgetExceeded(
                f"tenant {self.tenant or self.path.stem!r} {self.kind} "
                f"request of {n:g} exceeds the capacity of {self.capacity:g}/min"
            )
        with _locked(self.path):
            now = self.clock()
            tokens = self._refilled(now)
            if tokens + 1e-9 < n:
                retry_after = (n - tokens) / self.rate
                raise RateLimited(
                    f"tenant {self.tenant or self.path.stem!r} "
                    f"{self.kind} rate limit of {self.capacity:g}/min "
                    f"exceeded ({n:g} requested, {tokens:.3g} available; "
                    f"retry in {retry_after:.3g}s)",
                    retry_after=retry_after,
                )
            self.path.write_text(f"{tokens - n} {now}\n")

    def refund(self, n: float) -> None:
        """Return ``n`` tokens (capped at capacity) — the rollback half
        of a task reservation whose charges were rate-debited."""
        if n <= 0:
            return
        with _locked(self.path):
            now = self.clock()
            tokens = min(self.capacity, self._refilled(now) + n)
            self.path.write_text(f"{tokens} {now}\n")


def reservation_path(meter_path: str | os.PathLike, task_id: str) -> Path:
    """Where ``task_id``'s charge-reservation journal lives, for a
    given meter file — shared by the worker that writes it and the
    parent that settles it."""
    meter_path = Path(meter_path)
    digest = hashlib.sha256(task_id.encode()).hexdigest()[:16]
    return meter_path.parent / f"{meter_path.name}.r-{digest}"


class TenantMeter:
    """File-backed atomic query meter shared by every process of a
    tenant's jobs.

    The count is one ASCII integer in ``path``; :meth:`charge_batch`
    holds an exclusive lock across read-check-write, so concurrent
    chunks from any mixture of workers serialise and each whole chunk
    is admitted or refused atomically — the tenant-level analogue of
    the oracle's own ``charge_batch``.  Locking uses ``flock`` where
    available (a crashed holder's lock is released by the kernel, so a
    SIGKILLed worker can never wedge its tenant) and falls back to an
    ``O_CREAT|O_EXCL`` spin lock elsewhere.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_queries: int | None = None,
        tenant: str = "",
        max_per_minute: float | None = None,
        clock=time.monotonic,
    ):
        self.path = Path(path)
        self.max_queries = max_queries
        self.tenant = tenant
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._reservation: Path | None = None
        #: The measurement-rate bucket beside the absolute quota
        #: (``max_queries_per_minute``); None when the tenant is
        #: rate-unlimited.  Lives in its own file next to the count, so
        #: every process (and every daemon sharing the root) debits one
        #: tenant-wide bucket.
        self.bucket: TokenBucket | None = None
        if max_per_minute is not None:
            self.bucket = TokenBucket(
                self.path.with_suffix(self.path.suffix + ".rate"),
                max_per_minute,
                tenant=tenant,
                kind="measurement",
                clock=clock,
            )

    # -- the meter --------------------------------------------------------

    def n_queries(self) -> int:
        """The tenant's metered measurement count so far."""
        with _locked(self.path):
            return _read_count(self.path)

    def charge_batch(self, n: int, seconds_each: float = 0.0) -> None:
        """Atomically admit or refuse a whole ``n``-measurement chunk.

        Raises :class:`QueryBudgetExceeded` with the meter un-advanced
        when the chunk does not fit the tenant's remaining quota —
        at the same per-tenant count whichever job or worker placed it
        — and :class:`RateLimited` (a ``QueryBudgetExceeded``) when the
        tenant's measurement-rate bucket cannot cover it yet, with the
        meter *and* the bucket un-advanced (the quota is checked first,
        then the bucket is debited, then the count advances, all under
        the meter lock).

        Inside a task reservation (:meth:`begin_task`), an admitted
        chunk is recorded in the reservation file *before* the main
        count advances, both under the same lock: if this process is
        killed between the two writes, a later :meth:`rollback_task`
        refunds at most what actually landed — the meter can undercount
        a crashed task by one torn chunk, but never double-charge it.
        """
        if n < 0:
            raise ValueError(f"cannot charge a negative batch, got {n}")
        with _locked(self.path):
            count = _read_count(self.path)
            if (
                self.max_queries is not None
                and count + n > self.max_queries
            ):
                raise QueryBudgetExceeded(
                    f"tenant {self.tenant or self.path.stem!r} quota of "
                    f"{self.max_queries} measurements exhausted "
                    f"({count} spent, {n} more requested)"
                )
            if self.bucket is not None:
                self.bucket.take(n)  # a refusal leaves everything as-is
            if self._reservation is not None:
                reserved = _read_count(self._reservation)
                self._reservation.write_text(f"{reserved + n}\n")
            self.path.write_text(f"{count + n}\n")
        if faults.ENABLED and faults.fire("task.crash_after_charge"):
            faults.crash()

    # -- per-task charge reservations -------------------------------------
    #
    # The one stateful hazard of retrying a task: a worker that died
    # mid-task has already advanced this meter by its partial charges,
    # and the retry would charge them again.  Workers therefore journal
    # every charge into a per-task reservation file (same lock, same
    # directory), and the *parent* — the only survivor of any crash
    # schedule — settles it: commit (drop the journal, charges stand)
    # when the task's result arrives, rollback (refund the journaled
    # amount) before requeueing a reclaimed task.

    def begin_task(self, task_id: str) -> None:
        """Start journaling this process's charges under ``task_id``
        (worker-side, before the task runs).  Any stale journal for the
        same id was settled by the parent before the retry started."""
        self._reservation = reservation_path(self.path, task_id)
        with _locked(self.path):
            self._reservation.write_text("0\n")

    def commit_task(self, task_id: str) -> None:
        """Settle ``task_id``'s reservation as spent (parent-side, on
        the task's result): the charges stand, the journal is dropped."""
        with _locked(self.path):
            try:
                os.unlink(reservation_path(self.path, task_id))
            except OSError:
                pass

    def rollback_task(self, task_id: str) -> int:
        """Refund ``task_id``'s journaled charges (parent-side, before
        requeueing a task reclaimed from a dead or hung worker); returns
        the number of measurements refunded.  Idempotent: a second
        rollback — or a rollback racing a commit — finds no journal and
        refunds nothing."""
        reservation = reservation_path(self.path, task_id)
        with _locked(self.path):
            reserved = _read_count(reservation)
            if reserved:
                count = _read_count(self.path)
                self.path.write_text(f"{max(0, count - reserved)}\n")
            try:
                os.unlink(reservation)
            except OSError:
                pass
        if reserved and self.bucket is not None:
            # Refund the rate tokens the reclaimed task's charges took:
            # the retry will debit them again, and a crash must not
            # double-drain the bucket any more than the meter.
            self.bucket.refund(reserved)
        return reserved
