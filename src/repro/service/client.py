"""Client side of the foundry daemon: a network-backed job handle.

:class:`DaemonClient` speaks the :mod:`~repro.service.protocol` frames
to a running :class:`~repro.service.daemon.FoundryDaemon` and returns a
:class:`RemoteJobHandle` for each submission — drop-in for the
in-process :class:`~repro.service.service.JobHandle`: the same
``stream()`` / ``result(timeout=)`` / ``wait(timeout=)`` / ``status()``
/ ``cancel()`` surface, the same exceptions
(:class:`~repro.service.jobs.JobFailed` carrying the worker traceback,
:class:`~repro.service.jobs.JobCancelled`, :class:`TimeoutError`), the
same buffer-replay stream contract (every consumer replays the full
event log from the beginning), and bit-identical results — the wire
moves pickles, and the daemon differential guard holds a daemon
campaign byte-for-byte against the in-process service.

The one semantic difference is *who drives*: the daemon runs the job
whether or not anyone is connected, so ``wait()``/``result()`` here
block on the daemon instead of driving the executor, and a client
timeout leaves the job running server-side.  A job a daemon drain or
shutdown left resumable raises :class:`JobInterrupted` from
``stream()``, ``result()`` and ``wait()`` alike.

Every read of a job is one daemon ``events`` read on its own
connection (see :mod:`~repro.service.daemon`): ``events(start)`` asks
for the events from ``start`` and an answer at once,
``result(timeout)`` and ``wait(timeout)`` for no events and an answer
once the job is over or ``timeout`` has passed, and ``stream()`` for
every event from the last one it yielded until the job is over.  The
read's ``end`` frame maps to the in-process handle's outcome through
one function; ``wait`` decodes only its status (a torn read raises).

Defaults come from the environment: ``REPRO_SERVICE_SOCKET`` names the
daemon address, ``REPRO_SERVICE_TENANT`` the tenant to submit under.
"""

from __future__ import annotations

import os
import time

from repro.service.jobs import (
    JobCancelled,
    JobFailed,
    JobStatus,
    TERMINAL_STATUSES,
)
from repro.service.protocol import (
    ProtocolError,
    SERVICE_SOCKET_ENV,
    SERVICE_TENANT_ENV,
    connect,
    decode_payload,
    default_address,
    encode_payload,
    event_from_wire,
    recv_frame,
    send_frame,
)

#: Socket-level grace added on top of a *server-side* wait: when the
#: client asks the daemon to block (``result(timeout=T)``, ``drain``),
#: the socket read must outlive the daemon's own T-second wait by the
#: round-trip and scheduling slack, or a well-behaved daemon reply
#: races the client's socket timeout.  One constant, every such call.
RESULT_GRACE_SECONDS = 10.0

#: First connect-retry backoff, seconds; doubles per attempt up to
#: :data:`CONNECT_BACKOFF_MAX` while the connect budget lasts.
CONNECT_BACKOFF_INITIAL = 0.05

#: Backoff ceiling between connect attempts, seconds.
CONNECT_BACKOFF_MAX = 2.0

#: Reconnect attempts an event stream survives *between* deliveries
#: (each one resumes from the events already received); progress
#: resets the count.
STREAM_RECONNECTS = 5


class DaemonUnavailableError(ConnectionError):
    """The daemon refused the request or went away."""


class JobInterrupted(DaemonUnavailableError):
    """The job's read ended because its daemon drained or stopped, not
    because the job did: it is resumable, and resubmitting it to a
    daemon restarted on the same root continues from its journal."""


def _raise_for(reply: dict):
    """Map an error frame to the in-process handle's exception types."""
    kind = reply.get("kind", "")
    error = reply.get("error", "daemon request failed")
    if kind == "JobFailed":
        raise JobFailed(error)
    if kind == "JobCancelled":
        raise JobCancelled(error)
    if kind == "KeyError":
        raise KeyError(error)
    if kind == "DaemonUnavailable":
        raise DaemonUnavailableError(error)
    if kind in ("RateLimited", "QueryBudgetExceeded"):
        # Typed refusals keep their in-process types over the wire, so
        # attack loops that already catch QueryBudgetExceeded treat a
        # rate refusal exactly like quota exhaustion.
        from repro.service.tenants import QueryBudgetExceeded, RateLimited

        raise (RateLimited if kind == "RateLimited" else
               QueryBudgetExceeded)(error)
    if kind in ("ValueError", "TypeError", "JournalMismatch"):
        # Up-front validation keeps its in-process exception type, so
        # submit() misuse reads the same locally and over the wire.
        raised = {"ValueError": ValueError, "TypeError": TypeError}.get(kind)
        if raised is None:
            from repro.service.jobs import JournalMismatch

            raised = JournalMismatch
        raise raised(error)
    raise RuntimeError(f"{kind}: {error}" if kind else error)


def _outcome(job_id: str, end: dict):
    """What a read's ``end`` frame reports, in the in-process handle's
    terms: a completed job's result, or what the in-process handle
    raises in its place — :class:`JobFailed`, :class:`JobCancelled`, or
    :class:`TimeoutError` for a job still pending or running when the
    read's ``timeout`` passed — and :class:`JobInterrupted` for a job a
    daemon drain or shutdown left resumable."""
    status = JobStatus(end["status"])
    if end.get("resumable"):
        raise JobInterrupted(
            f"job {job_id} interrupted by a daemon drain or shutdown; "
            f"resubmit it to resume"
        )
    if status is JobStatus.FAILED:
        raise JobFailed(end["error"] or "job failed")
    if status is JobStatus.CANCELLED:
        raise JobCancelled(
            f"job cancelled after {end['n_events']} completed tasks"
        )
    if status is not JobStatus.COMPLETED:
        raise TimeoutError(
            f"job still {status.value} ({end['n_events']} tasks "
            f"completed); result() again to keep waiting, cancel() to stop"
        )
    if end["result"] is None:  # a record a restarted daemon loaded
        raise RuntimeError(
            "result not retained across a daemon restart; resubmit the "
            "job to replay it from its journal"
        )
    return decode_payload(end["result"])


def _server_wait_grace(timeout: float | None) -> float | None:
    """The socket timeout matching a server-side wait of ``timeout``
    seconds: the daemon's wait plus :data:`RESULT_GRACE_SECONDS` of
    transit slack.  ``timeout=0`` (an immediate poll) gets the full
    grace — the daemon answers at once, the socket just has to carry
    it; ``None`` (wait forever) disables the socket timeout too."""
    if timeout is None:
        return None
    return max(timeout, 0.0) + RESULT_GRACE_SECONDS


class DaemonClient:
    """A connection factory to one daemon address.

    Args:
        socket: Daemon address (Unix socket path or ``host:port``);
            None resolves ``REPRO_SERVICE_SOCKET``.
        tenant: Tenant to submit under; None resolves
            ``REPRO_SERVICE_TENANT`` (default ``"default"``).
        timeout: Connect budget, seconds.  Transient connect failures —
            the socket file not there yet (a client racing ``serve``
            startup), connection refused (a stale socket file), reset —
            retry with exponential backoff until the budget is spent,
            then raise the last error.  The budget also serves as the
            per-reply socket timeout for plain round trips.

    Each request opens its own connection (requests are independent
    and the daemon serves each connection on its own thread), so one
    client is safe to share across threads.
    """

    def __init__(
        self,
        socket: str | None = None,
        tenant: str | None = None,
        timeout: float = 10.0,
    ):
        self.address = socket or default_address()
        if not self.address:
            raise ValueError(
                f"no daemon address: pass socket= or set {SERVICE_SOCKET_ENV}"
            )
        self.tenant = tenant or os.environ.get(SERVICE_TENANT_ENV) or "default"
        self.timeout = timeout

    def _connect(self):
        """Connect with bounded exponential backoff: keep retrying
        transient failures until ``self.timeout`` seconds have been
        spent, then raise the last one."""
        deadline = time.monotonic() + self.timeout
        backoff = CONNECT_BACKOFF_INITIAL
        while True:
            remaining = deadline - time.monotonic()
            try:
                return connect(
                    self.address, timeout=max(remaining, 0.001)
                )
            except (FileNotFoundError, ConnectionRefusedError,
                    ConnectionResetError, TimeoutError) as exc:
                if time.monotonic() + backoff >= deadline:
                    raise DaemonUnavailableError(
                        f"no daemon reachable at {self.address} within "
                        f"{self.timeout:g}s ({type(exc).__name__}: {exc})"
                    ) from exc
                time.sleep(backoff)
                backoff = min(backoff * 2, CONNECT_BACKOFF_MAX)

    def _request(self, frame: dict, timeout: float | None = "connect"):
        """One request/reply round trip on a fresh connection."""
        sock = self._connect()
        try:
            if timeout == "connect":
                sock.settimeout(self.timeout)  # full budget for the reply
            else:
                sock.settimeout(timeout)
            send_frame(sock, frame)
            reply = recv_frame(sock)
        finally:
            sock.close()
        if reply is None:
            raise DaemonUnavailableError(
                f"daemon at {self.address} closed the connection"
            )
        if not reply.get("ok", False):
            _raise_for(reply)
        return reply

    def ping(self) -> dict:
        """Daemon liveness and stats (pid, workers, jobs, tenants)."""
        return self._request({"op": "ping"})

    def jobs(self) -> dict:
        """Every job the daemon knows: id -> {tenant, status, n_events}."""
        return self._request({"op": "jobs"})

    def submit(self, job, job_id: str | None = None) -> "RemoteJobHandle":
        """Submit ``job`` under this client's tenant; returns a
        network-backed handle.  Submitting an identical job attaches to
        the live submission instead of duplicating it."""
        reply = self._request({
            "op": "submit",
            "tenant": self.tenant,
            "job": encode_payload(job),
            "job_id": job_id,
        })
        return RemoteJobHandle(self, reply["job_id"], job=job)

    def handle(self, job_id: str) -> "RemoteJobHandle":
        """A handle to an already-submitted job by id."""
        return RemoteJobHandle(self, job_id)

    def drain(self, timeout: float | None = None, shutdown: bool = True) -> bool:
        """Stop admission, wait for every job, optionally shut the
        daemon down; returns False when ``timeout`` elapsed first.
        ``timeout=0`` is a valid immediate poll ("drained yet?")."""
        reply = self._request(
            {"op": "drain", "timeout": timeout, "shutdown": shutdown},
            timeout=_server_wait_grace(timeout),
        )
        return reply["drained"]


class RemoteJobHandle:
    """Drop-in :class:`~repro.service.service.JobHandle` backed by a
    daemon (see module docstring for the driving-semantics difference).
    ``events()``, ``result()`` and ``wait()`` each open one connection
    for one read; ``stream()`` opens one more only to resume a torn
    stream."""

    def __init__(self, client: DaemonClient, job_id: str, job=None):
        self.client = client
        self.job_id = job_id
        self.job = job

    def status(self) -> JobStatus:
        """Where the job is in its lifecycle (one round trip)."""
        reply = self.client._request({"op": "status", "job_id": self.job_id})
        return JobStatus(reply["status"])

    def events(self, start: int = 0) -> list:
        """The events delivered so far, from index ``start`` (the
        in-process handle's log, never waiting on the job): one read
        that the daemon answers at once."""
        return self._read(start, 0)[0]

    def _frames(self, start: int | None, timeout: float | None):
        """One ``events`` read on its own connection: yield its frames
        — the events from ``start``, then the ``end`` frame — raising
        the mapped exception for an error frame."""
        sock = self.client._connect()
        try:
            # The daemon waits server-side for `timeout`; the socket
            # read must outlive that wait by the shared transit grace.
            sock.settimeout(_server_wait_grace(timeout))
            send_frame(sock, {
                "op": "events", "job_id": self.job_id,
                "start": start, "timeout": timeout,
            })
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    raise DaemonUnavailableError(
                        f"daemon at {self.client.address} closed the "
                        f"connection (shutdown or restart?)"
                    )
                if not frame.get("ok", True):
                    _raise_for(frame)
                yield frame
                if "end" in frame:
                    return
        finally:
            sock.close()

    def _read(self, start: int | None, timeout: float | None):
        """One bounded read: ``(events from start, end frame)``."""
        *frames, last = self._frames(start, timeout)
        return [event_from_wire(f["event"]) for f in frames], last["end"]

    def stream(self):
        """Yield :class:`~repro.service.jobs.TaskEvent` records as tasks
        complete — the in-process handle's buffer-replay contract over
        the wire: the full log replays from the beginning, then live
        events follow; ends on completion or cancellation, raises
        :class:`JobFailed` after the delivered events on failure, and
        :class:`JobInterrupted` when a daemon drain or shutdown left the
        job resumable.

        A mid-stream socket drop reconnects with backoff and resumes
        from the events already delivered (the daemon replays its
        buffer from any index), so a consumer sees every event exactly
        once across any number of reconnects."""
        delivered = 0
        reconnects_left = STREAM_RECONNECTS
        while True:
            try:
                # Resume past the events already yielded; the daemon
                # replays its buffer from any index.
                for frame in self._frames(delivered, None):
                    if "end" in frame:
                        try:
                            _outcome(self.job_id, frame["end"])
                        except JobCancelled:
                            pass  # a cancelled job's stream just ends
                        return
                    yield event_from_wire(frame["event"])
                    delivered += 1
                    reconnects_left = STREAM_RECONNECTS  # progress
            except JobInterrupted:
                # An interrupted job's end frame (an OSError subclass)
                # is a verdict, not a torn stream: never reconnect.
                raise
            except (ProtocolError, OSError) as exc:
                # A torn stream — daemon restart, dropped or truncated
                # frame, reset connection — is transient: reconnect and
                # resume from `delivered`.  Only repeated tears with no
                # progress in between give up.
                if reconnects_left <= 0:
                    raise DaemonUnavailableError(
                        f"event stream for job {self.job_id} torn "
                        f"{STREAM_RECONNECTS + 1} times without progress: "
                        f"{exc}"
                    ) from exc
                reconnects_left -= 1
                time.sleep(CONNECT_BACKOFF_INITIAL)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal status (the daemon
        drives it regardless); False on timeout.  ``timeout=0`` is a
        valid immediate poll ("finished yet?").  One read, as
        :meth:`result` makes, whose result is never decoded."""
        end = self._read(None, timeout)[1]
        if end.get("resumable"):
            _outcome(self.job_id, end)  # raises JobInterrupted
        return JobStatus(end["status"]) in TERMINAL_STATUSES

    def result(self, timeout: float | None = None):
        """Block for the job's result.  Raises exactly like the
        in-process handle: :class:`JobFailed` (with the worker
        traceback), :class:`JobCancelled`, or :class:`TimeoutError` —
        a timeout leaves the job running on the daemon.  ``timeout=0``
        is a valid immediate poll (result now or TimeoutError)."""
        return _outcome(self.job_id, self._read(None, timeout)[1])

    def cancel(self) -> bool:
        """Cancel at the next task boundary; finished tasks stay
        journaled.  Returns False when the job had already finished."""
        reply = self.client._request({"op": "cancel", "job_id": self.job_id})
        return reply["cancelled"]
