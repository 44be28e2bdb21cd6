"""JSON-over-HTTP facade: the *untrusted* front door of the service.

The frame protocol (:mod:`~repro.service.protocol`) moves pickles and
is trusted-local by design — never expose it to clients you do not
control.  :class:`FoundryHTTPFrontend` is the boundary for everyone
else: a stdlib :mod:`http.server` translator that accepts **only
JSON**, validates the documented job schema server-side
(:func:`job_from_json`), and only then constructs the real job objects
on the trusted side before forwarding them over frames to the daemon
(one daemon per root; ``python -m repro.service http --socket ADDR
--listen HOST:PORT`` runs the facade in its own process beside it).
Nothing a client sends is ever unpickled, no server-side path
(journal or calibration store directory) is accepted from the wire,
and responses are plain JSON built from the campaign serialization
helpers — the ``reports`` list is the deterministic artefact payload,
byte-comparable across transports.

Job schema (``POST /v1/jobs`` body)::

    {"tenant": "acme",              # optional; or X-Repro-Tenant header
     "job": {
       "type": "campaign",          # or "experiment"
       "cells": [                   # campaign only
         {"attack": "brute-force",  # a repro.campaigns.ATTACKS name
          "attack_params": {...},   # JSON scalars only
          "scenario": {             # every field optional
            "scheme": "fabric",     # a scenario TARGETS name
            "scheme_params": {...}, # JSON scalars only
            "chip": {"lot_seed": 2020, "chip_id": 0},
            "standard_index": 0, "cost": "hardware", "budget": 150,
            "max_queries": null, "n_fft": 2048,
            "seed": 0, "measurement_seed": 0}}],
       "n_workers": 2,              # optional
       "backend": "reference",      # optional engine backend
       # experiment jobs instead take:
       "names": ["fig4"],           # optional registry filter
       "full": false}}              # optional

Endpoints::

    GET  /v1/ping                      service liveness and stats
    GET  /v1/jobs                      known jobs
    POST /v1/jobs                      submit (schema above)
    GET  /v1/jobs/<id>                 one job's status
    GET  /v1/jobs/<id>/events?start=N  poll events from index N
    GET  /v1/jobs/<id>/result?timeout=S  result (202 while running)
    POST /v1/jobs/<id>/cancel          cancel at the next task boundary
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.client import DaemonClient, DaemonUnavailableError
from repro.service.jobs import (
    CampaignJob,
    ExperimentJob,
    JobCancelled,
    JobFailed,
    JournalMismatch,
    validate_worker_count,
)
from repro.service.protocol import (
    connect,
    event_from_wire,
    recv_frame,
    send_frame,
)
from repro.service.tenants import QueryBudgetExceeded, RateLimited

#: Refuse request bodies beyond this size (a facade for untrusted
#: clients must bound every allocation it makes on their behalf).
MAX_BODY_BYTES = 1 << 20

#: JSON scalar types allowed as attack/scheme parameter values.
_SCALARS = (str, int, float, bool, type(None))


class SchemaError(ValueError):
    """The request body does not match the documented job schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _scalar_params(value, where: str) -> tuple:
    """A ``{name: scalar}`` JSON object as the sorted tuple-of-pairs
    the frozen dataclasses carry (the same normalisation
    ``expand_matrix`` applies, so HTTP and in-process submissions of
    one logical job derive the same job id)."""
    if value is None:
        return ()
    _require(isinstance(value, dict), f"{where} must be a JSON object")
    for key, item in value.items():
        _require(isinstance(key, str), f"{where} keys must be strings")
        _require(
            isinstance(item, _SCALARS),
            f"{where}[{key!r}] must be a JSON scalar, got "
            f"{type(item).__name__}",
        )
    return tuple(sorted(value.items()))


def _scenario_from_json(payload, where: str):
    from repro.campaigns.scenario import ChipSpec, TARGETS, ThreatScenario

    if payload is None:
        return ThreatScenario()
    _require(isinstance(payload, dict), f"{where} must be a JSON object")
    allowed = {
        "scheme", "scheme_params", "chip", "standard_index", "cost",
        "budget", "max_queries", "n_fft", "seed", "measurement_seed",
    }
    unknown = set(payload) - allowed
    _require(
        not unknown,
        f"{where} has unknown field(s) {sorted(unknown)}; "
        f"allowed: {sorted(allowed)}",
    )
    fields: dict = {}
    if "scheme" in payload:
        scheme = payload["scheme"]
        _require(isinstance(scheme, str), f"{where}.scheme must be a string")
        _require(
            scheme in TARGETS,
            f"{where}.scheme {scheme!r} unknown; known: {sorted(TARGETS)}",
        )
        fields["scheme"] = scheme
    if "scheme_params" in payload:
        fields["scheme_params"] = _scalar_params(
            payload["scheme_params"], f"{where}.scheme_params"
        )
    if "chip" in payload:
        chip = payload["chip"]
        _require(isinstance(chip, dict), f"{where}.chip must be a JSON object")
        unknown = set(chip) - {"lot_seed", "chip_id"}
        _require(
            not unknown,
            f"{where}.chip has unknown field(s) {sorted(unknown)}",
        )
        for key in ("lot_seed", "chip_id"):
            _require(
                isinstance(chip.get(key, 0), int),
                f"{where}.chip.{key} must be an integer",
            )
        fields["chip"] = ChipSpec(**chip)
    for key in ("standard_index", "budget", "n_fft", "seed",
                "measurement_seed"):
        if key in payload:
            _require(
                isinstance(payload[key], int)
                and not isinstance(payload[key], bool),
                f"{where}.{key} must be an integer",
            )
            fields[key] = payload[key]
    if "max_queries" in payload and payload["max_queries"] is not None:
        _require(
            isinstance(payload["max_queries"], int)
            and not isinstance(payload["max_queries"], bool)
            and payload["max_queries"] >= 0,
            f"{where}.max_queries must be a non-negative integer or null",
        )
        fields["max_queries"] = payload["max_queries"]
    if "cost" in payload:
        from repro.campaigns.scenario import COST_MODELS

        _require(
            payload["cost"] in COST_MODELS,
            f"{where}.cost {payload['cost']!r} unknown; "
            f"known: {sorted(COST_MODELS)}",
        )
        fields["cost"] = payload["cost"]
    return ThreatScenario(**fields)


def job_from_json(payload):
    """Validate the documented JSON job schema and build the real job
    object (trusted side).  Raises :class:`SchemaError` naming the
    offending field; never accepts server-side paths (``journal``,
    ``calibration_store``) from the wire — the daemon assigns those."""
    _require(isinstance(payload, dict), "job must be a JSON object")
    job_type = payload.get("type")
    _require(
        job_type in ("campaign", "experiment"),
        f"job.type must be 'campaign' or 'experiment', got {job_type!r}",
    )
    forbidden = {"journal", "calibration_store"} & set(payload)
    _require(
        not forbidden,
        f"job must not name server-side paths {sorted(forbidden)}; "
        f"the daemon assigns them",
    )
    backend = payload.get("backend")
    if backend is not None:
        _require(isinstance(backend, str), "job.backend must be a string")
    if job_type == "experiment":
        unknown = set(payload) - {"type", "names", "full", "backend"}
        _require(
            not unknown,
            f"experiment job has unknown field(s) {sorted(unknown)}",
        )
        names = payload.get("names")
        if names is not None:
            _require(
                isinstance(names, list)
                and all(isinstance(n, str) for n in names),
                "job.names must be a list of strings",
            )
            names = tuple(names)
        full = payload.get("full", False)
        _require(isinstance(full, bool), "job.full must be a boolean")
        job = ExperimentJob(names=names, full=full, backend=backend)
        job.validate()
        return job
    from repro.campaigns import ATTACKS
    from repro.campaigns.campaign import CampaignCell

    unknown = set(payload) - {"type", "cells", "n_workers", "backend"}
    _require(
        not unknown, f"campaign job has unknown field(s) {sorted(unknown)}"
    )
    cells_payload = payload.get("cells")
    _require(
        isinstance(cells_payload, list) and cells_payload,
        "job.cells must be a non-empty list",
    )
    cells = []
    for i, cell in enumerate(cells_payload):
        where = f"job.cells[{i}]"
        _require(isinstance(cell, dict), f"{where} must be a JSON object")
        unknown = set(cell) - {"attack", "attack_params", "scenario"}
        _require(
            not unknown, f"{where} has unknown field(s) {sorted(unknown)}"
        )
        attack = cell.get("attack")
        _require(
            isinstance(attack, str) and attack in ATTACKS,
            f"{where}.attack {attack!r} unknown; known: {sorted(ATTACKS)}",
        )
        cells.append(CampaignCell(
            attack=attack,
            scenario=_scenario_from_json(
                cell.get("scenario"), f"{where}.scenario"
            ),
            attack_params=_scalar_params(
                cell.get("attack_params"), f"{where}.attack_params"
            ),
        ))
    n_workers = payload.get("n_workers")
    if n_workers is not None:
        try:
            validate_worker_count(n_workers, "job.n_workers")
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    job = CampaignJob(cells=tuple(cells), n_workers=n_workers, backend=backend)
    job.validate()
    return job


def event_to_json(event) -> dict:
    """One :class:`~repro.service.jobs.TaskEvent` as plain JSON (the
    payload through the campaign serialization helpers)."""
    from repro.campaigns.report import AttackReport
    from repro.campaigns.serialization import (
        attack_report_to_dict,
        experiment_result_to_dict,
        jsonable,
    )

    payload = event.payload
    if isinstance(payload, AttackReport):
        payload = attack_report_to_dict(payload)
    elif hasattr(payload, "experiment_id") and hasattr(payload, "rows"):
        payload = experiment_result_to_dict(payload)
    else:
        payload = jsonable(payload)
    return {
        "kind": event.kind,
        "label": event.label,
        "index": event.index,
        "seconds": event.seconds,
        "payload": payload,
    }


def result_to_json(result):
    """A job result as plain JSON.  Campaign results keep the artefact
    schema (``reports`` is the deterministic, byte-comparable part;
    ``cell_seconds`` are timings and are not)."""
    from repro.campaigns.serialization import (
        campaign_result_to_dict,
        experiment_result_to_dict,
        jsonable,
    )

    if hasattr(result, "reports") and hasattr(result, "cell_seconds"):
        return campaign_result_to_dict(result)
    if isinstance(result, list) and result and all(
        hasattr(r, "experiment_id") for r in result
    ):
        return [experiment_result_to_dict(r) for r in result]
    return jsonable(result)


class _HTTPHandler(BaseHTTPRequestHandler):
    """One request: parse, translate to frames, answer JSON.  The
    frontend instance rides on the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-foundry-http/1"

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.frontend.verbose:
            super().log_message(format, *args)

    @property
    def frontend(self) -> "FoundryHTTPFrontend":
        return self.server.frontend

    def _reply(self, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc: BaseException) -> None:
        payload = {"kind": type(exc).__name__, "error": str(exc)}
        if isinstance(exc, RateLimited):
            payload["retry_after"] = exc.retry_after
        self._reply(status, payload)

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise SchemaError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"request body is not JSON: {exc}") from None
        _require(isinstance(payload, dict), "request body must be a JSON "
                                            "object")
        return payload

    def _client(self, tenant: str | None = None) -> DaemonClient:
        return DaemonClient(
            socket=self.frontend.backend,
            tenant=tenant or self.headers.get("X-Repro-Tenant")
            or self.frontend.tenant,
        )

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            handler = self._route(method, parts)
            if handler is None:
                self._reply(404, {
                    "kind": "NotFound",
                    "error": f"no route {method} {url.path}",
                })
                return
            handler(query)
        except SchemaError as exc:
            self._error(400, exc)
        except (ValueError, TypeError, JournalMismatch) as exc:
            self._error(400, exc)
        except KeyError as exc:
            self._error(404, exc)
        except RateLimited as exc:
            self._error(429, exc)
        except QueryBudgetExceeded as exc:
            self._error(429, exc)
        except JobCancelled as exc:
            self._error(409, exc)
        except JobFailed as exc:
            self._error(500, exc)
        except (DaemonUnavailableError, ConnectionError, OSError) as exc:
            self._error(503, exc)
        except Exception as exc:  # a facade must answer, not hang up
            self._error(500, exc)

    def _route(self, method: str, parts: list):
        if len(parts) < 1 or parts[0] != "v1":
            return None
        if method == "GET" and parts[1:] == ["ping"]:
            return self._get_ping
        if parts[1:2] != ["jobs"]:
            return None
        rest = parts[2:]
        if method == "GET" and rest == []:
            return self._get_jobs
        if method == "POST" and rest == []:
            return self._post_job
        if len(rest) == 1 and method == "GET":
            return lambda q: self._get_status(rest[0], q)
        if len(rest) == 2 and method == "GET" and rest[1] == "events":
            return lambda q: self._get_events(rest[0], q)
        if len(rest) == 2 and method == "GET" and rest[1] == "result":
            return lambda q: self._get_result(rest[0], q)
        if len(rest) == 2 and method == "POST" and rest[1] == "cancel":
            return lambda q: self._post_cancel(rest[0], q)
        return None

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    # -- endpoints --------------------------------------------------------

    def _get_ping(self, query) -> None:
        self._reply(200, self._client().ping())

    def _get_jobs(self, query) -> None:
        self._reply(200, self._client().jobs())

    def _post_job(self, query) -> None:
        body = self._body()
        unknown = set(body) - {"tenant", "job"}
        _require(
            not unknown,
            f"request has unknown field(s) {sorted(unknown)}; "
            f"expected {{'tenant'?, 'job'}}",
        )
        tenant = body.get("tenant")
        _require(
            tenant is None or isinstance(tenant, str),
            "tenant must be a string",
        )
        job = job_from_json(body.get("job"))
        handle = self._client(tenant).submit(job)
        self._reply(202, {
            "job_id": handle.job_id,
            "status_url": f"/v1/jobs/{handle.job_id}",
        })

    def _get_status(self, job_id: str, query) -> None:
        reply = self._client()._request({"op": "status", "job_id": job_id})
        self._reply(200, {
            "job_id": job_id,
            "status": reply["status"],
            "n_events": reply["n_events"],
            "error": reply.get("error"),
            "tenant": reply.get("tenant"),
        })

    def _get_events(self, job_id: str, query) -> None:
        """Poll events from ``start``: a *bounded* read of the event
        stream — status first to learn how many events exist, then read
        exactly that many off the replaying stream and hang up.  No
        long-poll: an untrusted client gets an answer and comes back."""
        try:
            start = int(query.get("start", "0"))
        except ValueError:
            raise SchemaError("start must be an integer") from None
        _require(start >= 0, "start must be >= 0")
        client = self._client()
        status = client._request({"op": "status", "job_id": job_id})
        available = int(status["n_events"])
        events = []
        if available > start:
            sock = None
            try:
                sock = connect(client.address, timeout=client.timeout)
                sock.settimeout(client.timeout)
                send_frame(sock, {
                    "op": "events", "job_id": job_id, "start": start,
                })
                while len(events) < available - start:
                    frame = recv_frame(sock)
                    if frame is None or "event" not in frame:
                        break
                    events.append(event_to_json(
                        event_from_wire(frame["event"])
                    ))
            finally:
                if sock is not None:
                    sock.close()
        self._reply(200, {
            "job_id": job_id,
            "start": start,
            "events": events,
            "next": start + len(events),
            "status": status["status"],
        })

    def _get_result(self, job_id: str, query) -> None:
        try:
            timeout = float(query.get("timeout", "0"))
        except ValueError:
            raise SchemaError("timeout must be a number") from None
        timeout = max(0.0, min(timeout, self.frontend.max_wait))
        handle = self._client().handle(job_id)
        try:
            result = handle.result(timeout=timeout)
        except TimeoutError:
            status = self._client()._request(
                {"op": "status", "job_id": job_id}
            )
            self._reply(202, {
                "job_id": job_id,
                "status": status["status"],
                "n_events": status["n_events"],
            })
            return
        self._reply(200, {
            "job_id": job_id,
            "status": "completed",
            "result": result_to_json(result),
        })

    def _post_cancel(self, job_id: str, query) -> None:
        cancelled = self._client().handle(job_id).cancel()
        self._reply(200, {"job_id": job_id, "cancelled": cancelled})


class FoundryHTTPFrontend:
    """The JSON facade server: binds ``host:port`` and translates to
    the frame protocol of the daemon at ``backend``.

    Args:
        backend: The daemon's frame-protocol address (Unix socket path
            or ``host:port``).
        host: HTTP bind host (default loopback; put a real proxy in
            front before exposing it wider).
        port: HTTP bind port; 0 picks a free one (see :attr:`port`).
        tenant: Default tenant for requests that name none
            (``X-Repro-Tenant`` or the body field override it).
        max_wait: Cap on the server-side seconds one
            ``/result?timeout=`` request may hold a connection.
    """

    def __init__(
        self,
        backend: str,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: str | None = None,
        max_wait: float = 60.0,
        verbose: bool = False,
    ):
        self.backend = backend
        self.tenant = tenant
        self.max_wait = max_wait
        self.verbose = verbose
        self._server = ThreadingHTTPServer((host, port), _HTTPHandler)
        self._server.daemon_threads = True
        self._server.frontend = self
        self._thread = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-http", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server.server_close()

    def serve_forever(self) -> None:
        """Blocking entry point; :meth:`stop` from another thread ends
        it.  The ``http`` CLI verb uses :meth:`start` instead, to stop
        cleanly on SIGTERM."""
        self._server.serve_forever(poll_interval=0.1)
