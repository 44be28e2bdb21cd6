"""Fault-injection tests: the self-healing acceptance guards.

The differential property under test: reports stay byte-identical to a
fault-free run across any crash schedule the :mod:`repro.faults` plan
can express — workers killed after computing but before reporting,
workers hung mid-dispatch (watchdog reclaim), torn store entries and
journal appends — across backends and worker counts, with tenant
meters landing on exactly the fault-free counts (no double-charging).
Plus the unit semantics of the plan itself: deterministic given a seed
and spec, unknown points rejected, spec round-trips.
"""

import os
import pickle
import signal
import tempfile
import threading
import time
import uuid

import pytest

from repro import faults
from repro.campaigns import CampaignCell, ThreatScenario, run_campaign
from repro.engine import CalibrationStore
from repro.engine.store import DIGEST_BYTES, ENTRY_MAGIC, EVENTS_FILE
from repro.service import (
    CampaignJob,
    DaemonClient,
    FoundryDaemon,
    FoundryService,
    JobFailed,
    JobJournal,
    TenantMeter,
)
from repro.service.client import DaemonUnavailableError
from repro.service.jobs import (
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    TaskRetriesExhausted,
    task_retry_budget,
    task_timeout_seconds,
)
from repro.service.protocol import ProtocolError


def oracle_cells(n: int = 4, budget: int = 6) -> tuple:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=5)
    return tuple(CampaignCell("brute-force", base.with_(seed=s)) for s in range(n))


def short_socket() -> str:
    """A socket path short enough for AF_UNIX (pytest tmp_path is not)."""
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


def report_bytes(reports) -> list:
    """Per-report pickle bytes (the byte-for-byte identity the guards
    compare; see ``tests/test_daemon.py``)."""
    return [pickle.dumps(pickle.loads(pickle.dumps(r))) for r in reports]


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Every test leaves the process with no fault plan installed."""
    yield
    faults.install(None)


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on short sockets and always stop them."""
    started = []

    def factory(tag="d", **kwargs):
        kwargs.setdefault("n_workers", 2)
        daemon = FoundryDaemon(tmp_path / tag, socket=short_socket(), **kwargs)
        daemon.start()
        started.append(daemon)
        return daemon

    yield factory
    for daemon in started:
        daemon.stop()


# ---------------------------------------------------------------------------
# The plan itself
# ---------------------------------------------------------------------------


class TestFaultPlanSemantics:
    def test_every_at_and_times(self):
        plan = faults.FaultPlan([
            faults.FaultRule("frame.drop", every=3),
            faults.FaultRule("frame.truncate", at=(2, 5)),
            faults.FaultRule("task.hang", every=2, times=1),
        ])
        drops = [plan.should_fire("frame.drop") for _ in range(7)]
        assert drops == [False, False, True, False, False, True, False]
        cuts = [plan.should_fire("frame.truncate") for _ in range(6)]
        assert cuts == [False, True, False, False, True, False]
        hangs = [plan.should_fire("task.hang") for _ in range(6)]
        assert hangs == [False, True, False, False, False, False]  # capped
        # Points with no rule never fire and cost nothing.
        assert not any(
            plan.should_fire("store.torn_entry") for _ in range(10)
        )

    def test_p_selection_is_deterministic_given_seed(self):
        def firings(seed):
            plan = faults.FaultPlan(
                [faults.FaultRule("frame.drop", p=0.3)], seed=seed
            )
            return [plan.should_fire("frame.drop") for _ in range(200)]

        first, again = firings(7), firings(7)
        assert first == again  # same seed: the same hits, always
        assert 10 < sum(first) < 110  # a plausible 0.3 fraction
        assert firings(8) != first  # the seed actually selects

    def test_unknown_point_and_armless_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            faults.FaultRule("task.crash_before_repart", every=1)
        with pytest.raises(ValueError, match="needs every=, at= or p="):
            faults.FaultRule("frame.drop")
        with pytest.raises(ValueError, match="every must be"):
            faults.FaultRule("frame.drop", every=0)
        with pytest.raises(ValueError, match="p must be"):
            faults.FaultRule("frame.drop", p=1.5)
        with pytest.raises(ValueError, match="duplicate rule"):
            faults.FaultPlan([
                faults.FaultRule("frame.drop", every=1),
                faults.FaultRule("frame.drop", at=(1,)),
            ])

    def test_spec_roundtrip(self):
        text = (
            "task.crash_before_report:every=5,times=2;"
            "frame.truncate:at=2/7,seed=9;task.hang:p=0.25"
        )
        plan = faults.parse_spec(text)
        assert plan.seed == 9
        assert plan.rules["task.crash_before_report"].every == 5
        assert plan.rules["task.crash_before_report"].times == 2
        assert plan.rules["frame.truncate"].at == frozenset({2, 7})
        assert plan.rules["task.hang"].p == 0.25
        reparsed = faults.parse_spec(plan.spec())
        assert reparsed.seed == plan.seed
        for point, rule in plan.rules.items():
            again = reparsed.rules[point]
            assert (rule.every, rule.at, rule.p, rule.times) == (
                again.every, again.at, again.p, again.times
            )

    def test_spec_errors(self):
        with pytest.raises(ValueError, match="malformed fault clause"):
            faults.parse_spec("just-a-point")
        with pytest.raises(ValueError, match="malformed fault option"):
            faults.parse_spec("frame.drop:every")
        with pytest.raises(ValueError, match="unknown fault option"):
            faults.parse_spec("frame.drop:whenever=1")
        with pytest.raises(ValueError, match="unknown injection point"):
            faults.parse_spec("frame.dorp:every=1")

    def test_env_install(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "frame.drop:at=1")
        faults._install_from_env()
        try:
            assert faults.ENABLED
            assert faults.active().rules["frame.drop"].at == frozenset({1})
            assert faults.fire("frame.drop") is True
            assert faults.fire("frame.drop") is False
        finally:
            faults.install(None)
        assert not faults.ENABLED
        assert faults.fire("frame.drop") is False  # disarmed: never fires

    def test_torn_keeps_a_strict_prefix(self):
        assert faults.torn(b"abcdefgh") == b"abcd"
        assert faults.torn(b"x") == b"x"[:1]
        assert faults.torn(b"xy") == b"x"


# ---------------------------------------------------------------------------
# Store integrity (checksummed entries, torn audit log)
# ---------------------------------------------------------------------------


class TestStoreIntegrity:
    def test_corrupted_complete_entry_is_a_miss(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.put(("die", 1), {"gain": 1.5}, event="cal")
        assert store.get(("die", 1)) == {"gain": 1.5}
        entry = store._entry(("die", 1))
        data = bytearray(entry.read_bytes())
        assert bytes(data[:len(ENTRY_MAGIC)]) == ENTRY_MAGIC
        data[-1] ^= 0xFF  # complete file, silently corrupted payload
        entry.write_bytes(bytes(data))
        assert store.get(("die", 1)) is None  # miss, not an unpickle crash
        store.put(("die", 1), {"gain": 1.5})  # recompute heals it
        assert store.get(("die", 1)) == {"gain": 1.5}

    def test_corrupted_digest_is_a_miss(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.put(("die", 2), 42)
        entry = store._entry(("die", 2))
        data = bytearray(entry.read_bytes())
        data[len(ENTRY_MAGIC)] ^= 0xFF  # flip a digest byte instead
        entry.write_bytes(bytes(data))
        assert store.get(("die", 2)) is None

    def test_legacy_entry_without_magic_still_reads(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        key = ("die", "legacy")
        store._entry(key).write_bytes(pickle.dumps((key, "old-value")))
        assert store.get(key) == "old-value"

    def test_torn_audit_trailing_line_is_dropped(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        store.put(("a", 1), 1)
        store.put(("b", 2), 2)
        with open(tmp_path / "s" / EVENTS_FILE, "ab") as fh:
            fh.write(b"999 ('c', 3")  # killed mid-append: no newline
        events = store.compute_events()
        assert len(events) == 2
        assert all("'c'" not in line for line in events)

    def test_torn_entry_fault_degrades_to_miss(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        faults.install(faults.parse_spec("store.torn_entry:at=1"))
        store.put(("die", 9), [1.0, 2.0])
        assert store.get(("die", 9)) is None  # torn: a miss
        store.put(("die", 9), [1.0, 2.0])  # second write is clean
        assert store.get(("die", 9)) == [1.0, 2.0]

    def test_torn_audit_fault_is_survivable(self, tmp_path):
        store = CalibrationStore(tmp_path / "s")
        faults.install(faults.parse_spec("store.torn_audit:at=1"))
        store.put(("die", 5), 5)
        assert store.get(("die", 5)) == 5  # the entry itself is whole
        assert store.compute_events() == []  # torn line dropped, not garbled


# ---------------------------------------------------------------------------
# Journal torn appends
# ---------------------------------------------------------------------------


class TestJournalTorn:
    def test_torn_cell_append_resumes_bit_identically(self, tmp_path):
        cells = oracle_cells(3)
        uninterrupted = run_campaign(cells, n_workers=1)
        journal = str(tmp_path / "journal")
        faults.install(faults.parse_spec("journal.torn_append:at=2"))
        first = run_campaign(cells, n_workers=1, journal=journal)
        faults.install(None)
        # The run itself is unharmed (results assemble in memory) ...
        assert report_bytes(first.reports) == report_bytes(
            uninterrupted.reports
        )
        # ... but the torn entry reads as unfinished, so a resume
        # re-executes exactly that cell and reproduces the same bytes.
        torn = [
            i for i in range(len(cells))
            if JobJournal(journal).get_cell(i) is None
        ]
        assert len(torn) == 1
        resumed = run_campaign(cells, n_workers=1, journal=journal)
        assert report_bytes(resumed.reports) == report_bytes(
            uninterrupted.reports
        )
        assert JobJournal(journal).get_cell(torn[0]) is not None


# ---------------------------------------------------------------------------
# Crash transparency: the differential guard
# ---------------------------------------------------------------------------


class TestCrashTransparency:
    def test_crash_schedule_bitidentical_across_backends_and_workers(self):
        """The acceptance property: a campaign whose workers are killed
        after computing results (but before reporting them) reproduces
        the fault-free reports byte-for-byte, per backend, per worker
        count — the supervisor respawns, requeues and retries without
        touching determinism."""
        cells = oracle_cells(4)
        for backend in ("reference", "vectorized"):
            reference = run_campaign(cells, n_workers=1, backend=backend)
            expected = report_bytes(reference.reports)
            for n_workers in (1, 2, 4):
                # at=2: each worker dies reporting its second task, so
                # every retry (the respawn's *first* task) succeeds.
                faults.install(
                    faults.parse_spec("task.crash_before_report:at=2")
                )
                result = run_campaign(
                    cells, n_workers=n_workers, backend=backend
                )
                faults.install(None)
                assert result.reports == reference.reports
                assert report_bytes(result.reports) == expected

    def test_hung_worker_reclaimed_by_watchdog(self, monkeypatch):
        """A worker frozen whole (SIGSTOP: heartbeats stop too) is
        killed by the watchdog, its task retried, reports unchanged."""
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "2")
        assert task_timeout_seconds() == 2.0
        cells = oracle_cells(4)
        reference = run_campaign(cells, n_workers=1)
        faults.install(faults.parse_spec("task.hang:at=2"))
        result = run_campaign(cells, n_workers=2)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_retry_budget_exhaustion_is_typed_and_carries_attempts(
        self, monkeypatch
    ):
        monkeypatch.setenv(TASK_RETRIES_ENV, "2")
        assert task_retry_budget() == 2
        faults.install(faults.parse_spec("task.crash_before_report:every=1"))
        # n_workers=2: a one-worker campaign runs in-parent, where no
        # worker fault can fire.
        handle = FoundryService().submit(
            CampaignJob(cells=oracle_cells(2), n_workers=2)
        )
        with pytest.raises(TaskRetriesExhausted) as excinfo:
            handle.result()
        faults.install(None)
        exc = excinfo.value
        assert isinstance(exc, JobFailed)  # existing handlers still catch
        assert len(exc.attempts) == 2
        assert all("exit code 86" in note for note in exc.attempts)
        assert TASK_RETRIES_ENV in str(exc)
        assert "attempt 1" in str(exc) and "attempt 2" in str(exc)

    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv(TASK_RETRIES_ENV, "0")
        with pytest.raises(ValueError, match=TASK_RETRIES_ENV):
            task_retry_budget()
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "-3")
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            task_timeout_seconds()
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0")
        assert task_timeout_seconds() is None  # 0 disables the watchdog
        monkeypatch.delenv(TASK_TIMEOUT_ENV)
        assert task_timeout_seconds() is None


# ---------------------------------------------------------------------------
# Supervision races (regression guards for the sweep's kill/drain order
# and the broken-pipe slot flag)
# ---------------------------------------------------------------------------


class TestSupervisionRaces:
    def test_late_result_from_hung_worker_settles_once(self, monkeypatch):
        """The kill-then-drain regression guard: a worker flagged hung
        (stalled heartbeat) that delivers its result inside the kill
        window must have that result *drained and settled*, not lost.
        The old drain-before-kill order drained an empty pipe, requeued
        the task, and ran it twice; with ``REPRO_TASK_RETRIES=1`` that
        lost-result requeue is a :class:`TaskRetriesExhausted` — so the
        run completing bit-identically IS the regression assertion."""
        import repro.service.scheduler as scheduler_module

        monkeypatch.setenv(TASK_TIMEOUT_ENV, "1")
        monkeypatch.setenv(TASK_RETRIES_ENV, "1")
        real_kill = scheduler_module.kill_slot

        def slow_kill(slot, note_kill):
            # Widen the window between "flagged hung" and "actually
            # killed" so the stalled worker (which wakes, computes and
            # sends ~1.6s in) reliably lands its result inside it even
            # on a loaded host.
            time.sleep(4.0)
            return real_kill(slot, note_kill)

        monkeypatch.setattr(scheduler_module, "kill_slot", slow_kill)
        cells = oracle_cells(2)
        reference = run_campaign(cells, n_workers=1)
        faults.install(faults.parse_spec("task.stall_heartbeat:at=1"))
        result = run_campaign(cells, n_workers=2)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_torn_pipe_worker_is_reaped_not_livelocked(self):
        """A worker whose pipe tears while the process stays alive with
        a beating heartbeat: the dispatch failure must flag the slot so
        the sweep reaps and respawns it.  An unflagged slot looks idle
        forever — the single-worker round then never dispatches again
        (livelock), which is why the campaign is driven from a thread
        with a deadline."""
        cells = oracle_cells(2)
        reference = run_campaign(cells, n_workers=1)
        outcome = {}

        def drive():
            outcome["result"] = run_campaign(cells, n_workers=2)

        faults.install(faults.parse_spec("worker.torn_conn:at=1"))
        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        thread.join(timeout=120)
        faults.install(None)
        assert not thread.is_alive(), "torn-pipe slot livelocked the round"
        assert report_bytes(outcome["result"].reports) == report_bytes(
            reference.reports
        )

    def test_fleet_late_result_settles_once(self, daemon_factory, monkeypatch):
        """The same kill/drain race guard on the daemon fleet's router
        sweep, with the same retries=1 sharpening (the router lives in
        the scheduler module, whose ``kill_slot`` it calls)."""
        import repro.service.scheduler as scheduler_module

        monkeypatch.setenv(TASK_TIMEOUT_ENV, "1")
        monkeypatch.setenv(TASK_RETRIES_ENV, "1")
        real_kill = scheduler_module.kill_slot

        def slow_kill(slot, note_kill):
            time.sleep(4.0)
            return real_kill(slot, note_kill)

        monkeypatch.setattr(scheduler_module, "kill_slot", slow_kill)
        cells = oracle_cells(2)
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        # Armed before the daemon forks its fleet: workers inherit it.
        faults.install(faults.parse_spec("task.stall_heartbeat:at=1"))
        daemon = daemon_factory("race", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        result = client.submit(
            CampaignJob(cells=cells, n_workers=2)
        ).result(timeout=600)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_fleet_torn_pipe_is_reaped_not_livelocked(self, daemon_factory):
        """Torn-pipe reaping on the fleet: a one-worker fleet whose
        worker tears its pipe after each result must still finish a
        two-cell job (reap, respawn, redispatch) instead of idling."""
        cells = oracle_cells(2)
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        faults.install(faults.parse_spec("worker.torn_conn:at=1"))
        daemon = daemon_factory("torn", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        result = client.submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result(timeout=120)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )


# ---------------------------------------------------------------------------
# Faults on sub-task boundaries (partitioned cells)
# ---------------------------------------------------------------------------


def partitioned_cells() -> tuple:
    """A dominant brute-force cell and a genetic cell, both declaring
    partition plans (key-range chunks / per-generation slices)."""
    bf = ThreatScenario(budget=24, n_fft=1024, seed=5)
    ga = ThreatScenario(budget=32, n_fft=1024, seed=7)
    return (
        CampaignCell("brute-force", bf,
                     attack_params=(("subtask_keys", 6),)),
        CampaignCell("genetic", ga,
                     attack_params=(("population_size", 8),
                                    ("subtask_slices", 2))),
    )


def scalar_equivalents() -> tuple:
    """The same cells without partition knobs — the byte-for-byte
    reference the partitioned runs must reproduce."""
    return tuple(
        CampaignCell(
            cell.attack,
            cell.scenario,
            attack_params=tuple(
                (k, v) for k, v in cell.attack_params
                if k not in ("subtask_keys", "subtask_slices")
            ),
        )
        for cell in partitioned_cells()
    )


class TestSubTaskFaults:
    def test_crash_on_subtask_boundaries_bitidentical(self):
        """Workers crashing on sub-task boundaries (speculative chunk
        scores lost and retried) leave the assembled reports
        byte-identical to a fault-free scalar run."""
        reference = run_campaign(scalar_equivalents(), n_workers=1)
        expected = report_bytes(reference.reports)
        for n_workers in (2, 4):
            faults.install(
                faults.parse_spec("task.crash_before_report:at=2")
            )
            result = run_campaign(partitioned_cells(), n_workers=n_workers)
            faults.install(None)
            assert report_bytes(result.reports) == expected

    def test_hang_on_subtask_boundaries_bitidentical(self, monkeypatch):
        """A worker hanging mid-sub-task is reclaimed by the watchdog;
        the retried chunk reproduces the same speculative scores, so
        assembly stays byte-identical."""
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "2")
        reference = run_campaign(scalar_equivalents(), n_workers=1)
        faults.install(faults.parse_spec("task.hang:at=2"))
        result = run_campaign(partitioned_cells(), n_workers=2)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_subtask_crash_after_charge_meters_exactly(self, daemon_factory):
        """Tenant metering through partitioned cells: sub-tasks measure
        unmetered (speculation), every charge lands in the assembly
        replay — so a worker crashing after a replay charge rolls back
        cleanly and the final meter total equals the fault-free scalar
        count exactly."""
        base = ThreatScenario(budget=12, n_fft=1024, seed=5)
        cells = tuple(
            CampaignCell("brute-force", base.with_(seed=s),
                         attack_params=(("subtask_keys", 4),))
            for s in range(4)
        )
        scalar = tuple(
            CampaignCell("brute-force", base.with_(seed=s)) for s in range(4)
        )
        reference = FoundryService().submit(
            CampaignJob(cells=scalar, n_workers=1)
        ).result()
        faults.install(faults.parse_spec("task.crash_after_charge:at=2"))
        daemon = daemon_factory("submeter", n_workers=2)
        client = DaemonClient(socket=daemon.address, tenant="free")
        result = client.submit(
            CampaignJob(cells=cells, n_workers=2)
        ).result(timeout=600)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )
        meter = daemon.tenant_meter("free")
        assert meter.n_queries() == sum(
            r.n_queries for r in reference.reports
        )
        assert list(meter.path.parent.glob(f"{meter.path.name}.r-*")) == []


# ---------------------------------------------------------------------------
# Tenant charge reservations: crash-safe metering
# ---------------------------------------------------------------------------


class TestChargeReservations:
    def test_begin_commit_rollback_mechanics(self, tmp_path):
        worker = TenantMeter(tmp_path / "m.count", tenant="t")
        parent = TenantMeter(tmp_path / "m.count", tenant="t")
        worker.begin_task("job:cell-0")
        worker.charge_batch(5)
        worker.charge_batch(3)
        assert parent.n_queries() == 8
        # The worker "died"; the parent refunds the journaled charges.
        assert parent.rollback_task("job:cell-0") == 8
        assert parent.n_queries() == 0
        assert parent.rollback_task("job:cell-0") == 0  # idempotent
        # The retry succeeds; commit keeps its charges.
        worker.begin_task("job:cell-0")
        worker.charge_batch(4)
        parent.commit_task("job:cell-0")
        assert parent.n_queries() == 4
        assert parent.rollback_task("job:cell-0") == 0  # nothing journaled
        assert parent.n_queries() == 4

    def test_unreserved_charges_have_no_journal(self, tmp_path):
        meter = TenantMeter(tmp_path / "m.count", tenant="t")
        meter.charge_batch(6)  # in-process path: no begin_task
        assert meter.n_queries() == 6
        assert list(tmp_path.glob("m.count.r-*")) == []

    def test_crash_after_charge_never_double_charges(self, daemon_factory):
        """A fleet worker killed *after* its charge landed: the parent
        rolls the journaled charge back before the retry, so the final
        meter count equals the fault-free count exactly — and the
        reports stay byte-identical."""
        cells = oracle_cells(4)
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        # Armed before the daemon forks its fleet, so workers inherit
        # the plan; at=2 so each retry (a respawn's first charge) lands.
        faults.install(faults.parse_spec("task.crash_after_charge:at=2"))
        daemon = daemon_factory("meter", n_workers=2)
        client = DaemonClient(socket=daemon.address, tenant="free")
        result = client.submit(
            CampaignJob(cells=cells, n_workers=2)
        ).result(timeout=600)
        faults.install(None)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )
        meter = daemon.tenant_meter("free")
        assert meter.n_queries() == sum(r.n_queries for r in reference.reports)
        # Every reservation was settled: no journal debris left behind.
        assert list(meter.path.parent.glob(f"{meter.path.name}.r-*")) == []


# ---------------------------------------------------------------------------
# Fleet supervision through the daemon
# ---------------------------------------------------------------------------


class TestFleetSupervision:
    def test_killed_fleet_worker_job_still_completes(self, daemon_factory):
        """SIGKILL a fleet worker mid-campaign: the fleet respawns it,
        requeues its task, and the job's reports match a calm run's
        byte-for-byte.  The daemon then keeps serving."""
        cells = oracle_cells(6, budget=12)
        reference = FoundryService().submit(
            CampaignJob(cells=cells, n_workers=1)
        ).result()
        daemon = daemon_factory("kill", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=cells, n_workers=2))
        killed = False
        for _ in handle.stream():
            if not killed:
                os.kill(daemon.fleet.workers[0].pid, signal.SIGKILL)
                killed = True
        result = handle.result(timeout=600)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )
        assert all(worker.is_alive() for worker in daemon.fleet.workers)
        again = client.submit(
            CampaignJob(cells=cells[:1], n_workers=1), job_id="after-kill"
        ).result(timeout=600)
        assert report_bytes(again.reports) == report_bytes(
            reference.reports[:1]
        )

    def test_exhausted_retries_fail_only_that_job(
        self, daemon_factory, monkeypatch
    ):
        monkeypatch.setenv(TASK_RETRIES_ENV, "2")
        faults.install(faults.parse_spec("task.crash_before_report:every=1"))
        daemon = daemon_factory("exh", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(1), n_workers=1))
        with pytest.raises(JobFailed, match="retry budget"):
            handle.result(timeout=600)
        # Disarm; the *daemon* survived (one job failed, not the fleet)
        # and self-heals: its still-armed worker dies once more, but the
        # respawn forks from the now-disarmed parent and completes.
        faults.install(None)
        ok = client.submit(
            CampaignJob(cells=oracle_cells(1), n_workers=1), job_id="clean"
        )
        assert ok.result(timeout=600) is not None


# ---------------------------------------------------------------------------
# Client resilience
# ---------------------------------------------------------------------------


class TestClientResilience:
    def test_connect_backoff_waits_out_daemon_startup(self, tmp_path):
        """A client racing ``serve`` startup retries with backoff inside
        its connect budget instead of failing on the missing socket."""
        socket_path = short_socket()
        client = DaemonClient(socket=socket_path, timeout=30)
        started = []

        def late_start():
            time.sleep(0.8)
            daemon = FoundryDaemon(
                tmp_path / "late", socket=socket_path, n_workers=1
            )
            daemon.start()
            started.append(daemon)

        thread = threading.Thread(target=late_start)
        thread.start()
        try:
            assert client.ping()["ok"] is True  # no sleep loop needed
        finally:
            thread.join()
            for daemon in started:
                daemon.stop()

    def test_connect_gives_up_within_budget(self):
        client = DaemonClient(socket=short_socket(), timeout=0.5)
        begin = time.monotonic()
        with pytest.raises(DaemonUnavailableError, match="within 0.5s"):
            client.ping()
        assert time.monotonic() - begin < 5.0

    def test_stream_resumes_through_torn_frames(self, daemon_factory):
        """Mid-stream frame faults (dropped and truncated frames) tear
        the connection; the handle reconnects and resumes from the
        events already delivered — every event exactly once."""
        daemon = daemon_factory("stream", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(4),
                                           n_workers=1))
        handle.result(timeout=600)
        baseline = list(handle.stream())
        assert len(baseline) == 4
        faults.install(
            faults.parse_spec("frame.truncate:every=5;frame.drop:at=2")
        )
        streamed = list(client.handle(handle.job_id).stream())
        faults.install(None)
        assert streamed == baseline

    def test_wait_on_a_torn_reply_raises(self, daemon_factory):
        """``wait()`` reads the job's end frame as ``result()`` does, so
        a torn reply raises instead of reading as "finished".  The job
        is pinned running: its one worker freezes on its second task."""
        standing = faults.active()  # restore any suite-wide chaos plan
        faults.install(faults.parse_spec("task.hang:at=2"))
        try:
            daemon = daemon_factory("torn", n_workers=1)
        finally:
            faults.install(standing)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(3),
                                           n_workers=1))
        deadline = time.monotonic() + 120
        while client.jobs()["jobs"][handle.job_id]["n_events"] < 1:
            assert time.monotonic() < deadline, "first cell never finished"
            time.sleep(0.05)
        try:
            # The daemon runs in this process: from here on the wait's
            # request is the first frame sent, the daemon's end frame
            # the second.
            faults.install(faults.parse_spec("frame.truncate:at=2"))
            with pytest.raises(ProtocolError):
                handle.wait(timeout=0)
        finally:
            faults.install(standing)
            for proc in daemon.fleet.workers:
                proc.kill()  # the fleet respawns it and retries the cell
        assert len(handle.result(timeout=600).reports) == 3

    def test_result_timeout_zero_polls_completed_job(self, daemon_factory):
        daemon = daemon_factory("poll", n_workers=1)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=oracle_cells(1),
                                           n_workers=1))
        assert handle.wait(timeout=600) is True
        # Terminal job: a zero-timeout poll returns the result at once.
        assert handle.result(timeout=0) is not None
        assert handle.wait(timeout=0) is True
