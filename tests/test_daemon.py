"""Foundry-daemon tests: wire protocol, the daemon differential guard
(a daemon campaign is bit-identical to the in-process service across
backends and worker counts), tenant quotas (same per-tenant refusal
counts shared or isolated, meters un-advanced), the job lifecycle over
the wire (cancel mid-stream, FAILED propagation, PENDING admission),
startup lock sweeping, and SIGTERM drain/restart resume."""

import os
import pickle
import signal
import socket as socket_module
import subprocess
import sys
import tempfile
import threading
import time
import uuid

import pytest

from repro.campaigns import CampaignCell, ChipSpec, ThreatScenario
from repro.engine import CalibrationStore
from repro.service import (
    CampaignJob,
    DaemonClient,
    DaemonUnavailable,
    ExperimentJob,
    FoundryDaemon,
    FoundryService,
    JobCancelled,
    JobFailed,
    JobStatus,
    ProvisioningJob,
    TenantConfig,
    TenantMeter,
    parse_tenant_spec,
)
from repro.service.client import DaemonUnavailableError
from repro.service.protocol import (
    ProtocolError,
    decode_payload,
    encode_payload,
    event_from_wire,
    event_to_wire,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.service.jobs import TaskEvent

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def oracle_cells(n: int = 4, budget: int = 6) -> tuple:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=5)
    return tuple(CampaignCell("brute-force", base.with_(seed=s)) for s in range(n))


def fleet_cells() -> tuple:
    """Gated fabric cells on two dies plus an oracle cell — exercises
    provisioning gating on the fleet path."""
    base = ThreatScenario(budget=6, n_fft=1024, seed=5)
    return (
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=0))),
        CampaignCell("brute-force", base),
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=1))),
    )


def short_socket() -> str:
    """A socket path short enough for AF_UNIX (pytest tmp_path is not)."""
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on short sockets and always stop them."""
    started = []

    def factory(tag="d", **kwargs):
        kwargs.setdefault("n_workers", 2)
        daemon = FoundryDaemon(
            tmp_path / tag, socket=short_socket(), **kwargs
        )
        daemon.start()
        started.append(daemon)
        return daemon

    yield factory
    for daemon in started:
        daemon.stop()


def report_bytes(reports) -> list:
    """Per-report pickle bytes: the byte-for-byte identity the guards
    compare.  (Pickling the whole list is not canonical — an in-process
    run's reports can share substructure across cells, which changes
    the pickle memo; each report's own bytes are stable.)"""
    return [pickle.dumps(pickle.loads(pickle.dumps(r))) for r in reports]


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_payload_roundtrip_is_bitexact(self):
        cells = oracle_cells(2)
        assert decode_payload(encode_payload(cells)) == cells
        text = encode_payload(cells)
        assert pickle.dumps(decode_payload(text)) == pickle.dumps(
            decode_payload(text)
        )

    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket_module.socketpair()
        try:
            send_frame(a, {"op": "submit", "payload": encode_payload([1, 2])})
            frame = recv_frame(b)
            assert frame["op"] == "submit"
            assert decode_payload(frame["payload"]) == [1, 2]
            a.close()
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_torn_frame_raises_protocol_error(self):
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{")  # header promises 255 bytes
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_refused(self):
        a, b = socket_module.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")
        assert parse_address("localhost:7070") == ("tcp", ("localhost", 7070))
        assert parse_address("10.0.0.2:80") == ("tcp", ("10.0.0.2", 80))
        # A path with a colon is still a path.
        assert parse_address("/tmp/odd:name")[0] == "unix"
        with pytest.raises(ValueError, match="empty"):
            parse_address("")

    def test_event_wire_roundtrip(self):
        event = TaskEvent("cell", "brute@x", 3, {"snr": 1.25}, 0.5)
        assert event_from_wire(event_to_wire(event)) == event


class TestTenantVocabulary:
    def test_parse_tenant_spec(self):
        assert parse_tenant_spec("acme") == TenantConfig("acme")
        assert parse_tenant_spec("acme=5") == TenantConfig("acme", priority=5)
        assert parse_tenant_spec("acme=5:200") == TenantConfig(
            "acme", priority=5, max_queries=200
        )
        assert parse_tenant_spec("acme=:200") == TenantConfig(
            "acme", max_queries=200
        )
        with pytest.raises(ValueError, match="malformed"):
            parse_tenant_spec("acme=high")
        with pytest.raises(ValueError, match="non-empty"):
            parse_tenant_spec("=1")

    def test_tenant_name_is_a_file_name(self):
        for name in ("acme", "default", "a.b_c-1", "9" * 64):
            assert TenantConfig(name).name == name
        for name in ("..", "a/b", "/abs", ".hidden", "a\\b", "9" * 65):
            with pytest.raises(ValueError, match="tenant name"):
                TenantConfig(name)
        with pytest.raises(ValueError, match="tenant name"):
            parse_tenant_spec("../up=5")

    def test_meter_admits_or_refuses_whole_chunks(self, tmp_path):
        from repro.attacks.oracle import QueryBudgetExceeded

        meter = TenantMeter(tmp_path / "m.count", max_queries=10, tenant="t")
        meter.charge_batch(6)
        assert meter.n_queries() == 6
        with pytest.raises(QueryBudgetExceeded, match="quota"):
            meter.charge_batch(5)  # would reach 11
        assert meter.n_queries() == 6  # refusal left the meter un-advanced
        meter.charge_batch(4)  # exactly to the cap is admitted
        assert meter.n_queries() == 10
        with pytest.raises(ValueError):
            meter.charge_batch(-1)

    def test_oracle_writes_through_installed_meter(self, tmp_path):
        from repro.attacks.oracle import (
            QueryBudgetExceeded,
            current_tenant_meter,
            install_tenant_meter,
        )
        from repro.attacks import MeasurementOracle

        meter = TenantMeter(tmp_path / "m.count", max_queries=8)
        install_tenant_meter(meter)
        try:
            assert current_tenant_meter() is meter
            scenario = ThreatScenario(budget=20, n_fft=1024, seed=5)
            oracle = scenario.oracle()
            oracle.charge_batch(5, 1.0)
            assert (oracle.n_queries, meter.n_queries()) == (5, 5)
            # Tenant refusal leaves BOTH meters un-advanced.
            with pytest.raises(QueryBudgetExceeded, match="quota"):
                oracle.charge_batch(4, 1.0)
            assert (oracle.n_queries, meter.n_queries()) == (5, 5)
            assert oracle.elapsed_seconds == 5.0
        finally:
            install_tenant_meter(None)


# ---------------------------------------------------------------------------
# The daemon differential guard
# ---------------------------------------------------------------------------


class TestDaemonDifferential:
    def test_campaign_bitidentical_across_backends_and_workers(
        self, daemon_factory
    ):
        """The acceptance property: a daemon campaign reproduces the
        in-process service's reports byte-for-byte, per backend, for
        1/2/4-worker jobs on one shared fleet."""
        cells = oracle_cells(4)
        daemon = daemon_factory("diff", n_workers=4)
        client = DaemonClient(socket=daemon.address)
        for backend in ("reference", "vectorized"):
            reference = FoundryService().submit(
                CampaignJob(cells=cells, n_workers=1, backend=backend)
            ).result()
            expected = report_bytes(reference.reports)
            for n_workers in (1, 2, 4):
                handle = client.submit(
                    CampaignJob(cells=cells, n_workers=n_workers,
                                backend=backend)
                )
                result = handle.result(timeout=600)
                assert result.reports == reference.reports
                assert report_bytes(result.reports) == expected

    def test_gated_campaign_and_shared_store(self, daemon_factory, tmp_path):
        """Provisioning-gated cells run on the fleet (calibrations land
        in the daemon-wide store) and match the in-process run; a second
        job reuses the calibrations instead of recomputing."""
        cells = fleet_cells()
        store = str(tmp_path / "refstore")
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1, calibration_store=store)
        ).result()
        daemon = daemon_factory("gated", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        result = client.submit(
            CampaignJob(cells=cells, n_workers=2)
        ).result(timeout=600)
        assert result.reports == reference.reports
        assert report_bytes(result.reports) == report_bytes(reference.reports)
        events_before = len(
            CalibrationStore(daemon.store_path()).compute_events()
        )
        assert events_before >= 2  # both dies calibrated into the store
        # A different job over the same dies: store hits, no recompute.
        again = client.submit(
            CampaignJob(cells=cells[:1], n_workers=1)
        ).result(timeout=600)
        assert again.reports == reference.reports[:1]
        assert len(
            CalibrationStore(daemon.store_path()).compute_events()
        ) == events_before

    def test_provisioning_and_experiment_jobs(self, daemon_factory, tmp_path):
        daemon = daemon_factory("jobs", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        store = str(tmp_path / "provstore")
        triples = ((11, 0, 0), (11, 1, 0))
        handle = client.submit(
            ProvisioningJob(triples=triples, calibration_store=store,
                            n_workers=2)
        )
        assert handle.result(timeout=600) == 2
        assert len(CalibrationStore(store)) == 2
        # Resubmission: everything already provisioned.
        fresh = client.submit(
            ProvisioningJob(triples=triples, calibration_store=store,
                            n_workers=1), job_id="prov-again",
        )
        assert fresh.result(timeout=600) == 0
        # Experiment jobs run on the fleet, registry order.
        names = ("tab-keys", "tab-ovr")
        reference = FoundryService().submit(
            ExperimentJob(names=names)
        ).result()
        remote = client.submit(ExperimentJob(names=names)).result(timeout=600)
        assert [r.experiment_id for r in remote] == [
            r.experiment_id for r in reference
        ]
        assert [r.rows for r in remote] == [r.rows for r in reference]


# ---------------------------------------------------------------------------
# One provisioning driver on the fleet
# ---------------------------------------------------------------------------


#: One lot's provisioning triples (lot 2022, dies 0-5, standards 0/3).
PROVISION_TRIPLES = tuple(
    (2022, chip_id, std) for chip_id in range(6) for std in (0, 3)
)


def stored_fields(store_path, triples) -> list:
    """Every stored calibration result, field by field, as the pickle
    bytes of each field's value (a bitwise comparison)."""
    import dataclasses

    return [
        {
            field.name: pickle.dumps(getattr(result, field.name))
            for field in dataclasses.fields(result)
        }
        for result in CalibrationStore(store_path).get_many(triples)
    ]


class TestDaemonProvisioning:
    def test_sub_lots_store_the_one_worker_pass(self, daemon_factory,
                                                tmp_path):
        """A daemon provisioning job runs ``min(n_workers, triples)``
        lockstep sub-lots on the fleet: one ``"provision"`` event each,
        one compute per triple, and stored results equal to the
        in-process one-worker pass field by field."""
        reference = str(tmp_path / "reference")
        FoundryService().submit(
            ProvisioningJob(triples=PROVISION_TRIPLES,
                            calibration_store=reference, n_workers=1)
        ).result()
        expected = stored_fields(reference, PROVISION_TRIPLES)
        daemon = daemon_factory("prov", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        for n_workers in (1, 2):
            store = str(tmp_path / f"store{n_workers}")
            handle = client.submit(
                ProvisioningJob(triples=PROVISION_TRIPLES,
                                calibration_store=store,
                                n_workers=n_workers)
            )
            assert handle.result(timeout=600) == len(PROVISION_TRIPLES)
            kinds = [e.kind for e in handle.stream()]
            assert kinds == ["provision"] * n_workers
            assert len(CalibrationStore(store).compute_events()) == len(
                PROVISION_TRIPLES
            )
            assert stored_fields(store, PROVISION_TRIPLES) == expected

    def test_retried_sub_lot_recomputes_nothing_stored(self,
                                                       daemon_factory,
                                                       tmp_path):
        """The one worker is killed as it reports the sub-lot (its
        second task, after a warm-up job): the respawned worker retries
        the sub-lot, finds every die stored, and the job completes with
        exactly one compute per triple."""
        from repro import faults

        triples = PROVISION_TRIPLES[:4]
        standing = faults.active()  # restore any suite-wide chaos plan
        # Hit counters are per process: the forked worker dies on its
        # second task, and its respawn's first task (the retry) succeeds.
        faults.install(faults.parse_spec("task.crash_before_report:at=2"))
        try:
            daemon = daemon_factory("retry", n_workers=1)
        finally:
            faults.install(standing)
        client = DaemonClient(socket=daemon.address)
        client.submit(
            CampaignJob(cells=oracle_cells(1), n_workers=1)
        ).result(timeout=600)
        (first,) = [proc.pid for proc in daemon.fleet.workers]
        store = str(tmp_path / "store")
        handle = client.submit(
            ProvisioningJob(triples=triples, calibration_store=store,
                            n_workers=1)
        )
        assert handle.result(timeout=600) == len(triples)
        assert [proc.pid for proc in daemon.fleet.workers] != [first]
        assert [e.kind for e in handle.stream()] == ["provision"]
        assert len(CalibrationStore(store).compute_events()) == len(triples)


# ---------------------------------------------------------------------------
# Tenant quotas through the daemon
# ---------------------------------------------------------------------------


class TestTenantQuotas:
    def test_shared_daemon_refuses_at_isolated_counts(self, daemon_factory):
        """Two tenants sharing one daemon hit their quotas at exactly
        the per-tenant query counts of isolated single-tenant runs, and
        a refused chunk advances no meter."""
        cells = oracle_cells(3)  # each cell wants 6 queries; quota 10
        job = CampaignJob(cells=cells, n_workers=1)  # serial => determinism
        quota = 10
        isolated = {}
        for tenant in ("acme", "initech"):
            daemon = daemon_factory(
                f"iso-{tenant}", n_workers=2,
                tenants=[TenantConfig(tenant, max_queries=quota)],
            )
            client = DaemonClient(socket=daemon.address, tenant=tenant)
            isolated[tenant] = client.submit(job).result(timeout=600)
            assert daemon.tenant_meter(tenant).n_queries() == 6
        shared = daemon_factory(
            "shared", n_workers=2,
            tenants=[TenantConfig("acme", max_queries=quota),
                     TenantConfig("initech", max_queries=quota)],
        )
        handles = [
            DaemonClient(socket=shared.address, tenant=tenant).submit(job)
            for tenant in ("acme", "initech")
        ]
        results = [handle.result(timeout=600) for handle in handles]
        for tenant, result in zip(("acme", "initech"), results):
            assert result.reports == isolated[tenant].reports
            assert report_bytes(result.reports) == report_bytes(
                isolated[tenant].reports
            )
            # Refusal pattern: first cell spends its 6, the next two
            # are refused whole (6+6 > 10) with nothing advanced.
            flags = [r.extras.get("budget_exhausted", False)
                     for r in result.reports]
            assert flags == [False, True, True]
            assert [r.n_queries for r in result.reports] == [6, 0, 0]
            assert shared.tenant_meter(tenant).n_queries() == 6

    def test_unlimited_tenant_is_metered_but_never_refused(
        self, daemon_factory
    ):
        daemon = daemon_factory("unlim", n_workers=2)
        client = DaemonClient(socket=daemon.address, tenant="free")
        result = client.submit(
            CampaignJob(cells=oracle_cells(2), n_workers=1)
        ).result(timeout=600)
        assert not any(
            r.extras.get("budget_exhausted") for r in result.reports
        )
        assert daemon.tenant_meter("free").n_queries() == 12


# ---------------------------------------------------------------------------
# Lifecycle over the wire
# ---------------------------------------------------------------------------


class TestDaemonLifecycle:
    def test_status_transitions_and_pending_admission(self, daemon_factory):
        """The full transition graph through the daemon path: PENDING
        (queued behind max_active) -> RUNNING -> COMPLETED, plus
        priority-ordered admission."""
        daemon = daemon_factory("adm", n_workers=1, max_active=1,
                                tenants=[TenantConfig("vip", priority=9)])
        client = DaemonClient(socket=daemon.address)
        vip = DaemonClient(socket=daemon.address, tenant="vip")
        first = client.submit(CampaignJob(cells=oracle_cells(2), n_workers=1))
        queued = client.submit(
            CampaignJob(cells=oracle_cells(1, budget=3), n_workers=1)
        )
        priority = vip.submit(
            CampaignJob(cells=oracle_cells(1, budget=2), n_workers=1)
        )
        statuses = {queued.status(), priority.status(), first.status()}
        assert JobStatus.PENDING in statuses  # max_active=1 queues the rest
        assert first.result(timeout=600) is not None
        assert priority.wait(timeout=600) and queued.wait(timeout=600)
        for handle in (first, queued, priority):
            assert handle.status() is JobStatus.COMPLETED
        # The VIP submission was admitted before the earlier default-
        # priority one: its runner observed a less-complete queue.
        jobs = client.jobs()["jobs"]
        assert jobs[priority.job_id]["status"] == "completed"

    def test_cancel_mid_stream_over_wire(self, daemon_factory):
        daemon = daemon_factory("cancel", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(
            CampaignJob(cells=oracle_cells(6, budget=12), n_workers=1)
        )
        delivered = 0
        for event in handle.stream():
            delivered += 1
            if delivered == 2:
                assert handle.cancel() is True
        # The stream simply ends; the job stopped at a task boundary.
        assert 2 <= delivered < 6
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        assert handle.cancel() is False  # already terminal
        # Finished cells stayed journaled: resubmitting the identical
        # job resumes from them (replay events) instead of re-running.
        resumed = client.submit(
            CampaignJob(cells=oracle_cells(6, budget=12), n_workers=1)
        )
        kinds = [event.kind for event in resumed.stream()]
        assert kinds.count("replay") >= 2
        assert resumed.status() is JobStatus.COMPLETED

    def test_cancel_queued_job_never_runs(self, daemon_factory):
        daemon = daemon_factory("cq", n_workers=1, max_active=1)
        client = DaemonClient(socket=daemon.address)
        running = client.submit(CampaignJob(cells=oracle_cells(2),
                                            n_workers=1))
        queued = client.submit(
            CampaignJob(cells=oracle_cells(3, budget=3), n_workers=1)
        )
        assert queued.cancel() is True
        assert queued.status() is JobStatus.CANCELLED
        assert list(queued.stream()) == []  # nothing ever ran
        running.result(timeout=600)

    def test_worker_failure_propagates_over_wire(self, daemon_factory):
        """FAILED end-to-end: the fleet worker's exception reaches the
        remote handle as JobFailed naming the failing task, result()
        keeps raising it, and late stream consumers see it too."""
        daemon = daemon_factory("fail", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        cells = oracle_cells(1) + (
            CampaignCell("brute-force", ThreatScenario(scheme="adamantium")),
        )
        handle = client.submit(CampaignJob(cells=cells, n_workers=2))
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result(timeout=600)
        assert handle.status() is JobStatus.FAILED
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        with pytest.raises(JobFailed, match="adamantium"):
            list(handle.stream())
        # The daemon survives its jobs' failures.
        ok = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        ok.result(timeout=600)

    def test_result_timeout_leaves_job_running(self, daemon_factory):
        daemon = daemon_factory("t", n_workers=1, max_active=1)
        client = DaemonClient(socket=daemon.address)
        blocker = client.submit(
            CampaignJob(cells=oracle_cells(4, budget=24), n_workers=1)
        )
        # Queued behind the blocker: not terminal, so a zero timeout
        # must report TimeoutError rather than a result.
        handle = client.submit(
            CampaignJob(cells=oracle_cells(3, budget=12), n_workers=1)
        )
        with pytest.raises(TimeoutError, match="result\\(\\) again"):
            handle.result(timeout=0)
        assert handle.wait(timeout=600) is True
        assert handle.result() is not None  # a timeout never cancelled it
        blocker.result(timeout=600)

    def test_concurrent_streams_replay_full_log(self, daemon_factory):
        """The documented stream contract over the wire: concurrent
        consumers each replay the complete event log — events are never
        split between them."""
        daemon = daemon_factory("streams", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))
        first = handle.stream()
        second = handle.stream()
        interleaved = list(zip(first, second))  # strictly alternating
        assert len(interleaved) == 3
        for a, b in interleaved:
            assert a == b
        late = list(client.handle(handle.job_id).stream())
        assert late == [a for a, _ in interleaved]

    def test_events_returns_the_delivered_events_mid_job(
        self, daemon_factory
    ):
        """``RemoteJobHandle.events()`` answers with the events delivered
        so far while the job runs, as the in-process handle does.  The
        job is pinned mid-flight: the one worker freezes on its second
        task (``task.hang``), and only the test's kill releases it."""
        from repro import faults

        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("task.hang:at=2"))
        try:
            daemon = daemon_factory("events", n_workers=1)
        finally:
            faults.install(standing)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))
        deadline = time.monotonic() + 120
        while client.jobs()["jobs"][handle.job_id]["n_events"] < 1:
            assert time.monotonic() < deadline, "first cell never finished"
            time.sleep(0.05)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(handle.events()), daemon=True
        )
        reader.start()
        reader.join(timeout=30)
        try:
            assert not reader.is_alive(), "events() waited for the job"
            (events,) = got
            assert [(e.kind, e.index) for e in events] == [("cell", 0)]
            assert handle.events(start=1) == []
            assert handle.status() is JobStatus.RUNNING
        finally:
            for proc in daemon.fleet.workers:
                proc.kill()  # the fleet respawns it and retries the cell
        assert len(handle.result(timeout=600).reports) == 3

    def test_events_polls_leave_no_daemon_thread(self, daemon_factory):
        """Each ``events()`` poll is one read the daemon answers and
        finishes at once, so polling a running job leaves no connection
        thread behind to wait for the job's next event."""
        from repro import faults

        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("task.hang:at=2"))
        try:
            daemon = daemon_factory("polls", n_workers=1)
        finally:
            faults.install(standing)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))

        def conn_threads() -> int:
            return sum(1 for thread in threading.enumerate()
                       if thread.name.endswith("(_serve_conn)"))

        deadline = time.monotonic() + 120
        while client.jobs()["jobs"][handle.job_id]["n_events"] < 1:
            assert time.monotonic() < deadline, "first cell never finished"
            time.sleep(0.05)
        try:
            before = conn_threads()
            for _ in range(20):
                assert len(handle.events()) == 1
            deadline = time.monotonic() + 2.0
            while conn_threads() > before and time.monotonic() < deadline:
                time.sleep(0.05)
            assert conn_threads() <= before
        finally:
            for proc in daemon.fleet.workers:
                proc.kill()  # the fleet respawns it and retries the cell
        assert len(handle.result(timeout=600).reports) == 3

    def test_closed_stream_leaves_no_daemon_thread(self, daemon_factory):
        """A consumer that closes ``stream()`` on a running job hangs up
        its read; the daemon notices at its next wait and ends the read,
        so no connection thread waits for the job's next event."""
        from repro import faults

        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("task.hang:at=2"))
        try:
            daemon = daemon_factory("closed", n_workers=1)
        finally:
            faults.install(standing)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))

        def conn_threads() -> int:
            return sum(1 for thread in threading.enumerate()
                       if thread.name.endswith("(_serve_conn)"))

        deadline = time.monotonic() + 120
        while client.jobs()["jobs"][handle.job_id]["n_events"] < 1:
            assert time.monotonic() < deadline, "first cell never finished"
            time.sleep(0.05)
        try:
            # The polls' connection threads end once their replies are
            # read; count after they have gone.
            deadline = time.monotonic() + 2.0
            while conn_threads() and time.monotonic() < deadline:
                time.sleep(0.05)
            before = conn_threads()
            stream = handle.stream()
            assert next(stream).index == 0
            stream.close()
            deadline = time.monotonic() + 2.0
            while conn_threads() > before and time.monotonic() < deadline:
                time.sleep(0.05)
            assert conn_threads() <= before
        finally:
            for proc in daemon.fleet.workers:
                proc.kill()  # the fleet respawns it and retries the cell
        assert len(handle.result(timeout=600).reports) == 3

    def test_events_refuses_a_negative_start(self, daemon_factory):
        """A negative ``start`` would slice the event log from its end
        and replay events out of order, and a ``timeout`` that is not a
        number bounds nothing; the daemon answers an error frame
        instead, as the HTTP door refuses a bad ``?start=``."""
        from repro.service.protocol import connect

        daemon = daemon_factory("start", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))
        handle.result(timeout=600)
        with pytest.raises(ValueError, match="non-negative integer"):
            handle.events(-1)
        sock = connect(daemon.address, timeout=10)
        try:
            sock.settimeout(10)
            send_frame(sock, {"op": "events", "job_id": handle.job_id,
                              "start": 0, "timeout": "soon"})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False and reply["kind"] == "ValueError"
        assert "timeout must be a number" in reply["error"]
        assert [e.index for e in handle.events(1)] == [1, 2]

    def test_stop_removes_a_relative_socket_with_a_colon(
        self, tmp_path, monkeypatch
    ):
        """``run:daemon.sock`` is a Unix socket path (its last field is
        not a port), so ``stop()`` removes the socket file."""
        monkeypatch.chdir(tmp_path)
        daemon = FoundryDaemon(tmp_path / "root", socket="run:daemon.sock",
                               n_workers=1)
        daemon.start()
        try:
            assert os.path.exists("run:daemon.sock")
        finally:
            daemon.stop()
        assert not os.path.exists("run:daemon.sock")

    def test_inprocess_wait_and_result_timeout(self):
        """Satellite on the in-process handle: wait(timeout)/
        result(timeout) check the deadline at task boundaries and never
        cancel the job."""
        handle = FoundryService().submit(
            CampaignJob(cells=oracle_cells(2), n_workers=1)
        )
        assert handle.wait(timeout=0) is False  # deadline before any work
        assert handle.status() is JobStatus.PENDING
        with pytest.raises(TimeoutError):
            handle.result(timeout=0)
        result = handle.result()  # resumes driving after the timeout
        assert len(result.reports) == 2
        assert handle.wait(timeout=0) is True  # terminal: returns at once

    def test_inprocess_concurrent_streams_share_log(self):
        handle = FoundryService().submit(
            CampaignJob(cells=oracle_cells(3), n_workers=1)
        )
        pairs = list(zip(handle.stream(), handle.stream()))
        assert len(pairs) == 3
        assert all(a == b for a, b in pairs)

    def test_submit_identical_job_attaches(self, daemon_factory):
        daemon = daemon_factory("attach", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        job = CampaignJob(cells=oracle_cells(2), n_workers=1)
        first = client.submit(job)
        second = client.submit(job)
        assert first.job_id == second.job_id
        assert first.result(timeout=600).reports == second.result().reports
        # Different tenant => different job id (tenants never share
        # handles, even for identical payloads).
        other = DaemonClient(socket=daemon.address, tenant="other").submit(job)
        assert other.job_id != first.job_id
        other.result(timeout=600)

    def test_draining_daemon_refuses_submissions(self, daemon_factory):
        daemon = daemon_factory("drain", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        assert client.drain(timeout=30, shutdown=False) is True
        with pytest.raises(DaemonUnavailable, match="draining"):
            daemon.submit_job("acme", CampaignJob(cells=oracle_cells(1)))
        with pytest.raises((RuntimeError, ConnectionError)):
            client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))

    def test_unknown_job_and_bad_submission_errors(self, daemon_factory):
        daemon = daemon_factory("err", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        with pytest.raises(KeyError, match="unknown job"):
            client.handle("nope").status()
        with pytest.raises(ValueError, match="n_workers"):
            client.submit(CampaignJob(cells=oracle_cells(1), n_workers=0))
        # The connection survives an errored request.
        assert client.ping()["ok"] is True


class TestDaemonRobustness:
    """Malformed wire input must cost the daemon one connection at
    most: an error frame or a closed socket, never a dead service."""

    def _raw(self, daemon):
        from repro.service.protocol import connect

        sock = connect(daemon.address, timeout=10)
        sock.settimeout(10)
        return sock

    def _reads_as_closed(self, sock) -> bool:
        try:
            return sock.recv(1 << 16) == b""
        except OSError:
            return True  # reset counts as closed too

    def test_oversized_length_prefix_closes_connection(self, daemon_factory):
        daemon = daemon_factory("rob1", n_workers=1)
        sock = self._raw(daemon)
        try:
            sock.sendall(b"\xff\xff\xff\xff")  # promises ~4 GiB
            assert self._reads_as_closed(sock)
        finally:
            sock.close()
        assert DaemonClient(socket=daemon.address).ping()["ok"] is True

    def test_truncated_frame_closes_connection(self, daemon_factory):
        daemon = daemon_factory("rob2", n_workers=1)
        sock = self._raw(daemon)
        try:
            sock.sendall(b"\x00\x00\x00\x64{\"op\":")  # 100 promised, 7 sent
            sock.shutdown(socket_module.SHUT_WR)
            assert self._reads_as_closed(sock)
        finally:
            sock.close()
        assert DaemonClient(socket=daemon.address).ping()["ok"] is True

    def test_non_json_body_closes_connection(self, daemon_factory):
        daemon = daemon_factory("rob3", n_workers=1)
        sock = self._raw(daemon)
        try:
            body = b"\x80\x04not json at all"
            sock.sendall(len(body).to_bytes(4, "big") + body)
            assert self._reads_as_closed(sock)
        finally:
            sock.close()
        assert DaemonClient(socket=daemon.address).ping()["ok"] is True

    def test_unknown_op_answers_error_frame_and_keeps_serving(
        self, daemon_factory
    ):
        daemon = daemon_factory("rob4", n_workers=1)
        sock = self._raw(daemon)
        try:
            send_frame(sock, {"op": "frobnicate"})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            # The same connection still serves well-formed requests.
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True
        finally:
            sock.close()
        assert DaemonClient(socket=daemon.address).ping()["ok"] is True

    def test_non_object_frame_closes_connection(self, daemon_factory):
        daemon = daemon_factory("rob5", n_workers=1)
        sock = self._raw(daemon)
        try:
            body = b"[1,2,3]"  # valid JSON, not a frame object
            sock.sendall(len(body).to_bytes(4, "big") + body)
            assert self._reads_as_closed(sock)
        finally:
            sock.close()
        assert DaemonClient(socket=daemon.address).ping()["ok"] is True


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def free_tcp_port() -> int:
    """A currently-free localhost TCP port (bind-0 probe)."""
    sock = socket_module.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestDaemonTCP:
    """The daemon over localhost TCP: the same protocol and the same
    guards as the Unix-socket path — malformed frames cost at most one
    connection, torn streams reconnect and resume."""

    @pytest.fixture
    def tcp_daemon(self, tmp_path):
        daemon = FoundryDaemon(
            tmp_path / "tcp", socket=f"127.0.0.1:{free_tcp_port()}",
            n_workers=1,
        )
        daemon.start()
        yield daemon
        daemon.stop()

    def test_campaign_over_tcp_matches_inprocess(self, tcp_daemon):
        cells = oracle_cells(2)
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        client = DaemonClient(socket=tcp_daemon.address)
        result = client.submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result(timeout=600)
        assert result.reports == reference.reports
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_malformed_frames_cost_one_connection(self, tcp_daemon):
        from repro.service.protocol import connect

        probes = (
            b"\xff\xff\xff\xff",            # oversized length prefix
            b"\x00\x00\x00\x64{\"op\":",    # 100 promised, 7 sent
            b"\x00\x00\x00\x07[1,2,3]",     # valid JSON, not a frame
        )
        for payload in probes:
            sock = connect(tcp_daemon.address, timeout=10)
            try:
                sock.settimeout(10)
                sock.sendall(payload)
                sock.shutdown(socket_module.SHUT_WR)
                try:
                    closed = sock.recv(1 << 16) == b""
                except OSError:
                    closed = True
                assert closed
            finally:
                sock.close()
            # The daemon survives every probe and keeps serving.
            assert DaemonClient(socket=tcp_daemon.address).ping()["ok"] is True

    def test_stream_reconnects_through_torn_frames_over_tcp(self, tcp_daemon):
        from repro import faults

        client = DaemonClient(socket=tcp_daemon.address)
        handle = client.submit(
            CampaignJob(cells=oracle_cells(3), n_workers=1)
        )
        handle.result(timeout=600)
        baseline = list(handle.stream())
        assert len(baseline) == 3
        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(
            faults.parse_spec("frame.truncate:every=5;frame.drop:at=2")
        )
        try:
            streamed = list(client.handle(handle.job_id).stream())
        finally:
            faults.install(standing)
        assert streamed == baseline


# ---------------------------------------------------------------------------
# Drain / restart
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestDrainRestart:
    def _serve(self, root, socket_path, env, options=("--workers", "2")):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--root", str(root), "--socket", socket_path, *options],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=REPO_ROOT,
            env=env,
            text=True,
        )

    def _wait_listening(self, client, proc, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited early:\n{proc.stdout.read()}"
                )
            try:
                client.ping()
                return
            except OSError:
                time.sleep(0.1)
        raise AssertionError("daemon never started listening")

    def test_sigterm_drain_then_restart_resumes_bitidentically(
        self, tmp_path
    ):
        """The acceptance property: SIGTERM a daemon mid-campaign, then
        a daemon restarted on the same root finishes the job from its
        journal, bit-identical to an uninterrupted run.

        The first life runs under a ``task.hang`` fault plan so the
        campaign deterministically cannot finish before the SIGTERM
        lands: some fleet worker's 3rd task freezes (6 tasks over 2
        workers — one of them always reaches a 3rd), pinning the job
        mid-flight until the watchdog reclaims it.  Without the pin the
        test raced daemon-side completion against client-side event
        delivery, and a warm-kernel run could finish all six cells
        before the signal was sent."""
        cells = oracle_cells(6, budget=24)
        uninterrupted = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        root = tmp_path / "droot"
        socket_path = short_socket()
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
        job = CampaignJob(cells=cells, n_workers=1)
        client = DaemonClient(socket=socket_path)

        first_env = dict(env)
        first_env["REPRO_FAULTS"] = "task.hang:at=3"
        first_env["REPRO_TASK_TIMEOUT"] = "8"
        proc = self._serve(root, socket_path, first_env)
        try:
            self._wait_listening(client, proc)
            handle = client.submit(job)
            delivered = 0
            with pytest.raises((DaemonUnavailableError, ProtocolError,
                                OSError)):
                for event in handle.stream():
                    delivered += 1
                    if delivered == 2:
                        # Drain: stop admission, journal in-flight
                        # work, leave the job resumable.
                        proc.send_signal(signal.SIGTERM)
            assert delivered >= 2
        finally:
            proc.wait(timeout=60)
            proc.stdout.close()

        # Restart on the same root: recovery re-admits the journaled
        # job; attaching to the same submission yields replay events
        # for every cell the first life finished, then the rest live.
        proc = self._serve(root, socket_path, env)
        try:
            self._wait_listening(client, proc)
            handle = client.submit(job)
            events = list(handle.stream())
            assert sum(1 for e in events if e.kind == "replay") >= 2
            result = handle.result()
            assert result.reports == uninterrupted.reports
            assert report_bytes(result.reports) == report_bytes(
                uninterrupted.reports
            )
            # Graceful drain shuts the daemon down cleanly.
            assert client.drain(timeout=60) is True
        finally:
            proc.wait(timeout=60)
            proc.stdout.close()
        assert proc.returncode == 0

    def test_sigterm_leaves_queued_jobs_queued(self, tmp_path):
        """SIGTERM drain-cancels queued jobs too, so none starts while
        the daemon stops: a job's runner that ends admits the next job
        only if it is still PENDING.

        The first life runs one worker under ``task.hang:at=2`` and
        admits one job at a time, so the running job's second cell
        freezes until the watchdog reclaims it: the SIGTERM always
        lands while that job runs and the other waits in the queue.  A
        daemon restarted on the same root finishes both, bit-identical
        to in-process runs."""
        from repro.service.journal import JobJournal

        cell_lists = (oracle_cells(3, budget=24), oracle_cells(2, budget=12))
        jobs = [CampaignJob(cells=cells, n_workers=1) for cells in cell_lists]
        expected = [FoundryService().submit(job).result() for job in jobs]
        root = tmp_path / "qroot"
        socket_path = short_socket()
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
        client = DaemonClient(socket=socket_path)

        first_env = dict(env, REPRO_FAULTS="task.hang:at=2",
                         REPRO_TASK_TIMEOUT="8")
        proc = self._serve(root, socket_path, first_env,
                           ("--workers", "1", "--max-active", "1"))
        try:
            self._wait_listening(client, proc)
            running, queued = (client.submit(job) for job in jobs)
            assert queued.status() is JobStatus.PENDING
            stream = running.stream()
            assert next(stream).index == 0  # the second cell now hangs
            stream.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        queued_dir = root / "jobs" / queued.job_id
        assert not (queued_dir / "terminal.json").exists()
        assert JobJournal(queued_dir / "journal").completed_cells(2) == {}

        proc = self._serve(root, socket_path, env)
        try:
            self._wait_listening(client, proc)
            for job, want in zip(jobs, expected):
                result = client.submit(job).result(timeout=600)
                assert report_bytes(result.reports) == report_bytes(
                    want.reports
                )
            assert client.drain(timeout=60) is True
        finally:
            proc.wait(timeout=60)
            proc.stdout.close()
        assert proc.returncode == 0
