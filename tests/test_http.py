"""HTTP facade and rate-limit tests: token-bucket rate limits (typed,
un-advanced refusals, on meters and on daemon submissions, which no
frame can exempt itself from), the JSON-only HTTP facade in front of
one daemon (reports byte-identical to an in-process run, job ids shared
with frame clients), the ``http``/``jobs``/``ping`` CLI verbs, and
clean EOF in the frame reader."""

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
import uuid
from types import SimpleNamespace

import pytest

from repro.campaigns import CampaignCell, ThreatScenario
from repro.service import (
    CampaignJob,
    DaemonClient,
    FoundryDaemon,
    FoundryHTTPFrontend,
    FoundryService,
    RateLimited,
    TenantConfig,
    TenantMeter,
    TokenBucket,
    parse_tenant_spec,
)
from repro.service.protocol import (
    connect,
    encode_payload,
    recv_frame,
    send_frame,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def oracle_cells(n: int = 4, budget: int = 6, seed: int = 5) -> tuple:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=seed)
    return tuple(
        CampaignCell("brute-force", base.with_(seed=s)) for s in range(n)
    )


def short_socket() -> str:
    """A socket path short enough for AF_UNIX (pytest tmp_path is not)."""
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


class FakeClock:
    """Injectable monotonic clock for deterministic bucket tests."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Token buckets and rate-limited meters
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_parse_tenant_spec_rate_fields(self):
        assert parse_tenant_spec("acme=5:200:30:600") == TenantConfig(
            "acme", priority=5, max_queries=200,
            max_submits_per_minute=30.0, max_queries_per_minute=600.0,
        )
        # Empty fields keep their defaults.
        assert parse_tenant_spec("acme=::30") == TenantConfig(
            "acme", max_submits_per_minute=30.0
        )
        assert parse_tenant_spec("acme=:::600") == TenantConfig(
            "acme", max_queries_per_minute=600.0
        )
        with pytest.raises(ValueError, match="malformed"):
            parse_tenant_spec("acme=1:2:3:4:5")
        with pytest.raises(ValueError, match="must be > 0"):
            TenantConfig("acme", max_submits_per_minute=0)

    def test_take_refuses_typed_and_unadvanced(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 60.0, tenant="t",
                             kind="submission", clock=clock)
        assert bucket.level() == 60.0  # fresh bucket starts full
        bucket.take(60.0)
        assert bucket.level() == 0.0
        state = bucket.path.read_text()
        with pytest.raises(RateLimited) as err:
            bucket.take(1.0)
        # Typed, names the limit, un-advanced: the state file is
        # byte-identical and retry_after covers the refill exactly.
        assert "rate limit" in str(err.value)
        assert err.value.retry_after == pytest.approx(1.0)
        assert bucket.path.read_text() == state
        clock.advance(30.0)  # refill at 1 token/s
        assert bucket.level() == pytest.approx(30.0)
        bucket.take(30.0)
        with pytest.raises(ValueError, match="negative"):
            bucket.take(-1.0)

    def test_take_above_capacity_refused_for_good(self, tmp_path):
        """The bucket never holds more than its capacity, so a larger
        request is refused without a retry_after it could never meet."""
        from repro.attacks.oracle import QueryBudgetExceeded

        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 0.5, tenant="t",
                             kind="submission", clock=clock)
        assert bucket.level() == 0.5
        for _ in range(2):
            with pytest.raises(QueryBudgetExceeded) as err:
                bucket.take(1.0)
            assert not isinstance(err.value, RateLimited)
            assert "capacity of 0.5/min" in str(err.value)
            assert bucket.level() == 0.5
            assert not bucket.path.exists()
            clock.advance(3600.0)
        bucket.take(0.5)  # a request within capacity still fits

    def test_refund_caps_at_capacity(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 10.0, clock=clock)
        bucket.take(4.0)
        bucket.refund(100.0)
        assert bucket.level() == 10.0
        bucket.refund(-1.0)  # no-op, never raises
        assert bucket.level() == 10.0

    def test_torn_state_file_reads_as_full(self, tmp_path):
        clock = FakeClock()
        bucket = TokenBucket(tmp_path / "t.submits", 10.0, clock=clock)
        bucket.take(10.0)
        bucket.path.write_text("garbage")  # a torn write forfeits debits
        assert bucket.level() == 10.0


class TestMeterRateLimits:
    def test_rate_refusal_leaves_meter_and_bucket_unadvanced(self, tmp_path):
        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=1000,
                            tenant="t", max_per_minute=60.0, clock=clock)
        meter.charge_batch(60)
        assert meter.n_queries() == 60
        assert meter.bucket.level() == 0.0
        with pytest.raises(RateLimited) as err:
            meter.charge_batch(5)
        assert err.value.retry_after == pytest.approx(5.0)
        # Quota count AND bucket both un-advanced: the chunk can retry
        # after retry_after having consumed nothing.
        assert meter.n_queries() == 60
        assert meter.bucket.level() == 0.0
        clock.advance(5.0)
        meter.charge_batch(5)
        assert meter.n_queries() == 65

    def test_quota_checked_before_bucket(self, tmp_path):
        from repro.attacks.oracle import QueryBudgetExceeded

        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=10,
                            tenant="t", max_per_minute=600.0, clock=clock)
        with pytest.raises(QueryBudgetExceeded, match="quota"):
            meter.charge_batch(11)
        assert meter.bucket.level() == 600.0  # quota refusal spent no tokens

    def test_rollback_refunds_rate_tokens(self, tmp_path):
        clock = FakeClock()
        meter = TenantMeter(tmp_path / "m.count", max_queries=None,
                            tenant="t", max_per_minute=60.0, clock=clock)
        meter.begin_task("task-1")
        meter.charge_batch(40)
        assert meter.bucket.level() == pytest.approx(20.0)
        assert meter.rollback_task("task-1") == 40
        # The reclaimed task's charges come back to both records, so a
        # retry debits them again without double-draining.
        assert meter.n_queries() == 0
        assert meter.bucket.level() == pytest.approx(60.0)
        assert meter.rollback_task("task-1") == 0  # idempotent


# ---------------------------------------------------------------------------
# Submission-rate limits over the wire
# ---------------------------------------------------------------------------


@pytest.fixture
def daemon_factory(tmp_path):
    started = []

    def factory(tag="d", root=None, **kwargs):
        kwargs.setdefault("n_workers", 2)
        daemon = FoundryDaemon(
            root if root is not None else tmp_path / tag,
            socket=short_socket(), **kwargs,
        )
        daemon.start()
        started.append(daemon)
        return daemon

    yield factory
    for daemon in started:
        daemon.stop()


class TestSubmitRateOverWire:
    def test_daemon_refuses_typed_and_persists_nothing(self, daemon_factory):
        daemon = daemon_factory(
            "rate",
            tenants=[TenantConfig("acme", max_submits_per_minute=2.0)],
        )
        daemon.clock = FakeClock()
        client = DaemonClient(socket=daemon.address, tenant="acme")
        first = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        client.submit(CampaignJob(cells=oracle_cells(2), n_workers=1))
        refused = CampaignJob(cells=oracle_cells(3), n_workers=1)
        with pytest.raises(RateLimited, match="rate limit"):
            client.submit(refused)
        # The refusal admitted nothing: the daemon knows two jobs, and
        # the shared bucket was not advanced by the refused attempt.
        assert len(client.jobs()["jobs"]) == 2
        bucket = daemon.submit_bucket(daemon.tenant("acme"))
        assert bucket.level() == 0.0
        # Attaching to a live identical job is free even when the
        # bucket is empty.
        again = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        assert again.job_id == first.job_id
        # Refill admits the refused job.
        daemon.clock.advance(30.0)
        client.submit(refused).result(timeout=600)
        first.result(timeout=600)

    def test_malformed_submission_spends_nothing(self, daemon_factory):
        """A frame submission refused as malformed is refused before it
        costs a submission token or leaves a job directory."""
        daemon = daemon_factory(
            "malformed",
            tenants=[TenantConfig("acme", max_submits_per_minute=2.0)],
        )
        daemon.clock = FakeClock()
        client = DaemonClient(socket=daemon.address, tenant="acme")
        bucket = daemon.submit_bucket(daemon.tenant("acme"))

        def job_dirs():
            root = daemon.jobs_root()
            return sorted(root.iterdir()) if root.is_dir() else []

        with pytest.raises(ValueError, match="bogus"):
            client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1,
                                      backend="bogus"))
        with pytest.raises(KeyError, match="zero-day"):
            client.submit(CampaignJob(
                cells=(CampaignCell("zero-day", ThreatScenario()),),
                n_workers=1,
            ))
        assert bucket.level() == 2.0
        assert job_dirs() == []
        client.submit(
            CampaignJob(cells=oracle_cells(1), n_workers=1)
        ).result(timeout=600)

    def test_unlimited_tenant_never_rate_refused(self, daemon_factory):
        daemon = daemon_factory("free")
        client = DaemonClient(socket=daemon.address, tenant="free")
        handles = [
            client.submit(CampaignJob(cells=oracle_cells(1, seed=s),
                                      n_workers=1))
            for s in range(5)
        ]
        for handle in handles:
            handle.result(timeout=600)


class TestWireRateExempt:
    def test_frame_cannot_skip_the_submit_bucket(self, daemon_factory):
        """Only restart recovery skips the submission-rate bucket, and
        only in-process: a raw ``submit`` frame carrying ``rate_exempt``
        for a tenant whose bucket is empty is refused like any other
        submission and persists nothing."""
        daemon = daemon_factory(
            "exempt", n_workers=1,
            tenants=[TenantConfig("acme", max_submits_per_minute=1.0)],
        )
        daemon.clock = FakeClock()
        client = DaemonClient(socket=daemon.address, tenant="acme")
        first = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        bucket = daemon.submit_bucket(daemon.tenant("acme"))
        assert bucket.level() == 0.0
        sock = connect(daemon.address, timeout=30)
        try:
            send_frame(sock, {
                "op": "submit", "tenant": "acme", "rate_exempt": True,
                "job": encode_payload(
                    CampaignJob(cells=oracle_cells(2), n_workers=1)
                ),
            })
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False and reply["kind"] == "RateLimited"
        assert list(client.jobs()["jobs"]) == [first.job_id]
        assert [d.name for d in daemon.jobs_root().iterdir()] == [
            first.job_id
        ]
        assert bucket.level() == 0.0
        first.result(timeout=600)


# ---------------------------------------------------------------------------
# The JSON-only HTTP facade
# ---------------------------------------------------------------------------


def http_request(address, method, path, body=None, headers=()):
    """One HTTP round trip; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"http://{address}{path}", method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **dict(headers)},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


CAMPAIGN_JSON = {
    "type": "campaign",
    "n_workers": 1,
    "cells": [
        {"attack": "brute-force",
         "scenario": {"budget": 6, "n_fft": 1024, "seed": s}}
        for s in range(2)
    ],
}


@pytest.fixture
def frontend(daemon_factory):
    daemon = daemon_factory("front")
    front = FoundryHTTPFrontend(backend=daemon.address, max_wait=120.0)
    front.start()
    yield SimpleNamespace(address=front.address, daemon=daemon)
    front.stop()


class TestHTTPFacade:
    def test_submit_poll_result_matches_direct_run(self, frontend):
        from repro.campaigns.serialization import attack_report_to_dict

        status, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        assert status == 202
        job_id = reply["job_id"]
        assert reply["status_url"] == f"/v1/jobs/{job_id}"
        status, result = http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/result?timeout=115",
        )
        assert status == 200 and result["status"] == "completed"
        # The reports payload is byte-comparable across transports:
        # identical JSON to serializing an in-process run directly.
        cells = tuple(
            CampaignCell(
                "brute-force",
                ThreatScenario(budget=6, n_fft=1024, seed=s),
            )
            for s in range(2)
        )
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        assert json.dumps(
            result["result"]["reports"], sort_keys=True
        ) == json.dumps(
            [attack_report_to_dict(r) for r in reference.reports],
            sort_keys=True,
        )
        # The HTTP submission derived the same job id a frame-protocol
        # submission of the logical job would: the frame client attaches.
        attach = DaemonClient(socket=frontend.daemon.address).submit(
            CampaignJob(cells=cells, n_workers=1)
        )
        assert attach.job_id == job_id

    def test_events_poll_is_bounded(self, frontend):
        status, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        job_id = reply["job_id"]
        http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/result?timeout=115",
        )
        status, page = http_request(
            frontend.address, "GET", f"/v1/jobs/{job_id}/events?start=0"
        )
        assert status == 200
        assert len(page["events"]) == 2
        assert page["next"] == 2
        assert {e["kind"] for e in page["events"]} <= {"cell", "replay"}
        assert all("payload" in e for e in page["events"])
        status, rest = http_request(
            frontend.address, "GET",
            f"/v1/jobs/{job_id}/events?start={page['next']}",
        )
        assert status == 200 and rest["events"] == []

    def test_each_job_read_is_one_daemon_round_trip(self, daemon_factory):
        """``/events`` and ``/result`` each make one daemon read and take
        the status from its end frame, on a running job (pinned
        mid-flight: the one worker freezes on its second task) and on
        a finished one."""
        from repro import faults

        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("task.hang:at=2"))
        try:
            daemon = daemon_factory("reads", n_workers=1)
        finally:
            faults.install(standing)
        served = []
        serve_conn = daemon._serve_conn

        def counting(conn):  # _accept_loop looks it up per connection
            served.append(conn)
            serve_conn(conn)

        daemon._serve_conn = counting
        front = FoundryHTTPFrontend(backend=daemon.address, max_wait=120.0)
        front.start()

        def connections(path):
            served.clear()
            status, reply = http_request(front.address, "GET", path)
            return status, reply, len(served)

        try:
            _, reply = http_request(
                front.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
            )
            job = f"/v1/jobs/{reply['job_id']}"
            try:
                deadline = time.monotonic() + 120
                while http_request(
                    front.address, "GET", job
                )[1]["n_events"] < 1:
                    assert time.monotonic() < deadline, "first cell never ran"
                    time.sleep(0.05)
                status, page, n = connections(f"{job}/events?start=0")
                assert (status, page["status"], len(page["events"]), n) == (
                    200, "running", 1, 1
                )
                status, body, n = connections(f"{job}/result?timeout=0")
                assert (status, body["status"], body["n_events"], n) == (
                    202, "running", 1, 1
                )
            finally:
                for proc in daemon.fleet.workers:
                    proc.kill()  # the fleet respawns it, retries the cell
            assert http_request(
                front.address, "GET", f"{job}/result?timeout=115"
            )[0] == 200
            status, page, n = connections(f"{job}/events")
            assert (status, page["status"], page["next"], n) == (
                200, "completed", 2, 1
            )
            status, body, n = connections(f"{job}/result")
            assert (status, body["status"], n) == (200, "completed", 1)
        finally:
            front.stop()

    def test_schema_refusals_are_400(self, frontend):
        cases = [
            ({"job": {"type": "campaign", "cells": []}}, "non-empty"),
            ({"job": {"type": "warfare"}}, "job.type"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "zero-day"}]}}, "unknown"),
            ({"job": {"type": "campaign", "journal": "/etc/passwd",
                      "cells": [{"attack": "brute-force"}]}},
             "server-side"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "brute-force",
                                 "scenario": {"scheme": "nope"}}]}},
             "scheme"),
            ({"job": {"type": "campaign",
                      "cells": [{"attack": "brute-force",
                                 "attack_params": {"x": [1, 2]}}]}},
             "scalar"),
            ({"job": CAMPAIGN_JSON, "surprise": 1}, "unknown field"),
        ]
        for body, needle in cases:
            status, reply = http_request(
                frontend.address, "POST", "/v1/jobs", body
            )
            assert status == 400, (body, reply)
            assert reply["kind"] == "SchemaError"
            assert needle in reply["error"]

    def test_unknown_backend_is_400(self, frontend):
        for job in (
            {**CAMPAIGN_JSON, "backend": "bogus"},
            {"type": "experiment", "names": ["tab-keys"], "backend": "bogus"},
        ):
            status, reply = http_request(
                frontend.address, "POST", "/v1/jobs", {"job": job}
            )
            assert status == 400, (job, reply)
            assert "auto, reference, vectorized" in reply["error"]

    def test_out_of_range_cell_is_400(self, frontend):
        """A cell's die and standard are refused at submit, not in a
        worker."""
        for scenario, needle in (
            ({"standard_index": 100}, "unknown standard index 100"),
            ({"chip": {"lot_seed": 2020, "chip_id": -1}}, "non-negative"),
        ):
            job = {**CAMPAIGN_JSON, "cells": [
                {"attack": "brute-force",
                 "scenario": {"budget": 6, "n_fft": 1024, **scenario}},
            ]}
            status, reply = http_request(
                frontend.address, "POST", "/v1/jobs", {"job": job}
            )
            assert status == 400, (job, reply)
            assert needle in reply["error"]

    def test_empty_experiment_filter_is_400(self, frontend):
        # An empty filter is refused, not read as "the whole registry".
        status, reply = http_request(
            frontend.address, "POST", "/v1/jobs",
            {"job": {"type": "experiment", "names": []}},
        )
        assert status == 400, reply
        assert "omit it" in reply["error"]

    def test_unknown_job_and_route_are_404(self, frontend):
        status, reply = http_request(frontend.address, "GET", "/v1/jobs/nope")
        assert status == 404
        status, reply = http_request(frontend.address, "GET", "/v2/everything")
        assert status == 404 and reply["kind"] == "NotFound"

    def test_tenant_header_scopes_job_ids(self, frontend):
        body = {"job": CAMPAIGN_JSON}
        _, anon = http_request(frontend.address, "POST", "/v1/jobs", body)
        _, acme = http_request(
            frontend.address, "POST", "/v1/jobs", body,
            headers={"X-Repro-Tenant": "acme"},
        )
        assert anon["job_id"] != acme["job_id"]
        for reply in (anon, acme):
            http_request(
                frontend.address, "GET",
                f"/v1/jobs/{reply['job_id']}/result?timeout=115",
            )

    def test_path_tenant_names_are_400_and_write_nothing(
        self, tmp_path, daemon_factory
    ):
        """A tenant name becomes a file name under ``<root>/tenants``:
        one that is a path is refused, through the body field and the
        header alike, before any file exists outside the root."""
        root = tmp_path / "a" / "b" / "root"
        daemon = daemon_factory(root=root, n_workers=1)
        front = FoundryHTTPFrontend(backend=daemon.address, max_wait=120.0)
        front.start()
        try:
            for body, headers in (
                ({"tenant": "../../../escaped", "job": CAMPAIGN_JSON}, {}),
                ({"job": CAMPAIGN_JSON},
                 {"X-Repro-Tenant": str(tmp_path / "abs" / "escaped")}),
            ):
                status, reply = http_request(
                    front.address, "POST", "/v1/jobs", body, headers=headers
                )
                assert status == 400, reply
                assert reply["kind"] == "ValueError"
                assert "tenant name" in reply["error"]
        finally:
            front.stop()
        outside = [
            path for path in tmp_path.rglob("*")
            if not path.is_dir() and root not in path.parents
        ]
        assert outside == []

    def test_cancel_endpoint(self, frontend):
        _, reply = http_request(
            frontend.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
        )
        job_id = reply["job_id"]
        http_request(
            frontend.address, "GET", f"/v1/jobs/{job_id}/result?timeout=115"
        )
        status, reply = http_request(
            frontend.address, "POST", f"/v1/jobs/{job_id}/cancel"
        )
        assert status == 200
        assert reply["cancelled"] is False  # already terminal

    def test_rate_limited_submission_is_429(self, tmp_path):
        clock = FakeClock()
        daemon = FoundryDaemon(
            tmp_path / "r429", socket=short_socket(), n_workers=1,
            tenants=[TenantConfig("acme", max_submits_per_minute=1.0)],
        )
        daemon.clock = clock
        daemon.start()
        front = FoundryHTTPFrontend(backend=daemon.address, tenant="acme")
        front.start()
        try:
            status, first = http_request(
                front.address, "POST", "/v1/jobs", {"job": CAMPAIGN_JSON}
            )
            assert status == 202
            refused = dict(
                CAMPAIGN_JSON,
                cells=[{"attack": "brute-force",
                        "scenario": {"budget": 6, "n_fft": 1024, "seed": 7}}],
            )
            status, reply = http_request(
                front.address, "POST", "/v1/jobs", {"job": refused}
            )
            assert status == 429
            assert reply["kind"] == "RateLimited"
            assert "retry_after" in reply
            http_request(
                front.address, "GET",
                f"/v1/jobs/{first['job_id']}/result?timeout=115",
            )
        finally:
            front.stop()
            daemon.stop()


class TestBodyFraming:
    """The body cap holds whatever ``Content-Length`` claims, and a
    body the handler refused to read is never parsed as a request."""

    @pytest.fixture
    def door(self):
        # The refusals come before any daemon call: no daemon needed.
        front = FoundryHTTPFrontend(backend=short_socket())
        front.start()
        yield front
        front.stop()

    def exchange(self, door, raw: bytes) -> bytes:
        """Send ``raw`` with the write side left open; return every
        byte the server sends until it closes.  The socket timeout is
        the hang guard: a server that keeps the connection open fails
        the read instead of blocking the test."""
        host, port = door.address.rsplit(":", 1)
        with socket_module.create_connection(
            (host, int(port)), timeout=10
        ) as sock:
            sock.sendall(raw)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received
                received += chunk

    @staticmethod
    def status_lines(received: bytes) -> list:
        return [
            line for line in received.split(b"\r\n")
            if line.startswith(b"HTTP/1.")
        ]

    def test_negative_length_is_400_and_closes(self, door):
        received = self.exchange(
            door,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        (status,) = self.status_lines(received)
        assert b" 400 " in status
        body = json.loads(received.split(b"\r\n\r\n", 1)[1])
        assert body["kind"] == "SchemaError"
        assert "'-1'" in body["error"]

    def test_unread_over_cap_body_is_not_a_request(self, door):
        from repro.service.http import MAX_BODY_BYTES

        received = self.exchange(
            door,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            + b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        (status,) = self.status_lines(received)
        assert b" 400 " in status
        assert b"cap" in received


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestCLIVerbs:
    def _run(self, *args):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + inherited if inherited else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
            timeout=120,
        )

    def test_ping_and_jobs_against_live_daemon(self, daemon_factory):
        daemon = daemon_factory("cli", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        client.submit(
            CampaignJob(cells=oracle_cells(1), n_workers=1)
        ).result(timeout=600)
        ping = self._run("ping", "--socket", daemon.address)
        assert ping.returncode == 0
        assert ping.stdout.startswith("daemon pid ")
        jobs = self._run("jobs", "--socket", daemon.address)
        assert jobs.returncode == 0
        assert "completed (1 events)" in jobs.stdout

    def test_ping_unreachable_exits_nonzero(self):
        result = self._run("ping", "--socket", short_socket())
        assert result.returncode == 1
        assert "unreachable" in result.stderr

    def test_jobs_empty(self, daemon_factory):
        daemon = daemon_factory("cli2", n_workers=1)
        result = self._run("jobs", "--socket", daemon.address)
        assert result.returncode == 0
        assert result.stdout.strip() == "no jobs"


class TestHTTPVerb:
    def test_serves_the_facade_for_a_daemon_until_sigterm(
        self, daemon_factory
    ):
        """``python -m repro.service http`` runs the facade in its own
        process in front of one daemon, and stops cleanly on SIGTERM."""
        daemon = daemon_factory("verb", n_workers=1)
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + inherited if inherited else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "http",
             "--socket", daemon.address, "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro-http: serving on 127.0.0.1:")
            address = banner.split()[3].rstrip(",")
            status, info = http_request(address, "GET", "/v1/ping")
            assert status == 200 and info["pid"] == os.getpid()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert proc.stdout.read().strip() == "repro-http: stopped"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Protocol satellite: clean EOF mid-length-prefix
# ---------------------------------------------------------------------------


class TestFrameEOF:
    def test_close_mid_length_prefix_is_clean_eof(self):
        """A peer closing after part of the 4-byte length prefix is a
        clean hangup (None), not a ProtocolError — the client's
        reconnect path treats it like any other between-frame close."""
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\x00\x00")  # 2 of 4 header bytes
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_close_mid_body_is_still_torn(self):
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x40{")
            a.close()
            from repro.service.protocol import ProtocolError

            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()
