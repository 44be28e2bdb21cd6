"""Foundry-service tests: job lifecycle, work-stealing determinism,
journal resume (including after a hard SIGKILL), provisioning gating,
and up-front validation of worker counts and job payloads."""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaigns import (
    CampaignCell,
    ChipSpec,
    ThreatScenario,
    run_campaign,
)
from repro.engine import CalibrationStore, get_default_engine
from repro.service import (
    CampaignJob,
    ExperimentJob,
    FoundryService,
    JobCancelled,
    JobFailed,
    JobJournal,
    JobStatus,
    JournalMismatch,
    ProvisioningJob,
    SERVICE_WORKERS_ENV,
    default_worker_count,
    validate_worker_count,
)


def oracle_cells(n: int = 4, budget: int = 6) -> list:
    """Cheap oracle-only cells (no calibration in the loop)."""
    base = ThreatScenario(budget=budget, n_fft=1024, seed=5)
    return [CampaignCell("brute-force", base.with_(seed=s)) for s in range(n)]


def fleet_cells() -> list:
    """A mixed campaign: gated fabric cells on two dies plus oracle and
    bench-scheme cells — the shape that exercises provisioning gating."""
    base = ThreatScenario(budget=6, n_fft=1024, seed=5)
    return [
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=0))),
        CampaignCell("brute-force", base),
        CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=1))),
        CampaignCell(
            "brute-force",
            base.with_(scheme="mixlock", scheme_params=(("n_key_bits", 5),)),
        ),
        CampaignCell("removal", base.with_(scheme="memristor")),
    ]


class TestWorkStealingDeterminism:
    """The tentpole acceptance: reports bit-identical to sequential
    execution across worker counts and backends."""

    def test_worker_counts_and_schedulers_are_bit_identical(self):
        cells = fleet_cells()
        sequential = run_campaign(cells, n_workers=1)
        for n_workers in (2, 4):
            stealing = run_campaign(cells, n_workers=n_workers)
            assert stealing.reports == sequential.reports
            assert stealing.n_workers == n_workers

    def test_backends_bit_identical_through_scheduler(self):
        cells = fleet_cells()[:3]
        reference = run_campaign(cells, n_workers=2, backend="reference")
        vectorized = run_campaign(cells, n_workers=2, backend="vectorized")
        assert reference.reports == vectorized.reports

    def test_stream_completion_order_and_result_order(self):
        cells = oracle_cells(3)
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), n_workers=2)
        )
        events = [e for e in handle.stream() if e.kind == "cell"]
        assert sorted(e.index for e in events) == [0, 1, 2]
        result = handle.result()
        # Whatever order tasks completed in, reports come back in cell
        # order, matching the sequential run exactly.
        assert result.reports == run_campaign(cells).reports


class TestProvisioningFirstClass:
    def test_provision_events_unblock_gated_cells(self, tmp_path):
        """Die calibrations are tasks in the stream, and each die is
        calibrated exactly once campaign-wide (the store audit)."""
        store = str(tmp_path / "store")
        handle = FoundryService().submit(
            CampaignJob(
                cells=tuple(fleet_cells()),
                n_workers=2,
                calibration_store=store,
            )
        )
        kinds = [e.kind for e in handle.stream()]
        handle.result()
        assert kinds.count("provision") == 2  # dies 0 and 1
        assert kinds.count("cell") == len(fleet_cells())
        assert len(CalibrationStore(store).compute_events()) == 2

    def test_provisioning_job_computes_each_triple_once(self, tmp_path):
        store = str(tmp_path / "store")
        job = ProvisioningJob(
            triples=((2020, 0, 0), (2020, 1, 0)), calibration_store=store
        )
        service = FoundryService()
        assert service.submit(job).result() == 2
        assert len(CalibrationStore(store).compute_events()) == 2
        # A resubmission finds the store warm: nothing to compute.
        assert service.submit(job).result() == 0
        assert len(CalibrationStore(store).compute_events()) == 2

    def test_provisioning_job_requires_store(self):
        with pytest.raises(ValueError, match="calibration_store"):
            FoundryService().submit(ProvisioningJob(triples=((2020, 0, 0),)))


#: One lot's provisioning triples for the driver differentials.
PROVISION_TRIPLES = tuple(
    (2021, chip_id, std) for chip_id in range(6) for std in (0, 3)
)


def stored_fields(store_path, triples) -> list:
    """Every stored calibration result, field by field, as the pickle
    bytes of each field's value (a bitwise comparison)."""
    return [
        {
            field.name: pickle.dumps(getattr(result, field.name))
            for field in dataclasses.fields(result)
        }
        for result in CalibrationStore(store_path).get_many(triples)
    ]


class TestOneProvisioningDriver:
    """Every provisioning pass runs as ``min(n_workers, len(missing))``
    lockstep sub-lots through ``provision_fleet``: the stored results
    equal the one-worker pass field by field, each triple is computed
    once, and each sub-lot streams one ``"provision"`` event."""

    def test_worker_counts_store_the_one_worker_pass(self, tmp_path):
        expected = None
        for n_workers in (1, 2, 3):
            store = str(tmp_path / f"store{n_workers}")
            handle = FoundryService().submit(
                ProvisioningJob(
                    triples=PROVISION_TRIPLES,
                    calibration_store=store,
                    n_workers=n_workers,
                )
            )
            events = list(handle.stream())
            assert handle.result() == len(PROVISION_TRIPLES)
            assert [e.kind for e in events] == ["provision"] * n_workers
            assert sorted(
                t for e in events for t in e.payload
            ) == sorted(PROVISION_TRIPLES)
            assert len(CalibrationStore(store).compute_events()) == len(
                PROVISION_TRIPLES
            )
            got = stored_fields(store, PROVISION_TRIPLES)
            if expected is None:
                expected = got
            assert got == expected, n_workers

    def test_sub_lots_split_the_sorted_triples(self):
        from repro.service.service import provisioning_tasks

        missing = sorted(PROVISION_TRIPLES)
        for n_workers in (1, 2, 5, 12, 40):
            tasks = provisioning_tasks(missing, n_workers)
            assert len(tasks) == min(n_workers, len(missing))
            sizes = [len(task.triples) for task in tasks]
            assert max(sizes) - min(sizes) <= 1
            assert sorted(
                t for task in tasks for t in task.triples
            ) == missing
        assert provisioning_tasks([], 3) == []


class TestJobLifecycle:
    def test_status_transitions_to_completed(self):
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(oracle_cells(2)))
        )
        assert handle.status() is JobStatus.PENDING
        stream = handle.stream()
        next(stream)
        assert handle.status() is JobStatus.RUNNING
        handle.result()
        assert handle.status() is JobStatus.COMPLETED
        # The stream log replays in full for late consumers.
        assert len(list(handle.stream())) == 2

    def test_status_failed_inline(self):
        # An unknown scheme resolves only at execute time: the job
        # passes up-front validation, then fails at its first task.
        bad = CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        handle = FoundryService().submit(CampaignJob(cells=(bad,)))
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        assert handle.status() is JobStatus.FAILED
        # result() keeps raising the same failure.
        with pytest.raises(JobFailed):
            handle.result()

    def test_status_failed_in_worker(self):
        cells = oracle_cells(2) + [
            CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        ]
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), n_workers=2)
        )
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        assert handle.status() is JobStatus.FAILED

    def test_stream_raises_for_late_consumers_of_failed_job(self):
        bad = CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        handle = FoundryService().submit(CampaignJob(cells=(bad,)))
        with pytest.raises(JobFailed):
            handle.result()
        # A late stream consumer must not mistake the failed job for a
        # completed one: the replayed log ends in the same failure.
        with pytest.raises(JobFailed, match="adamantium"):
            list(handle.stream())

    def test_cancel_before_drive_and_after_completion(self):
        service = FoundryService()
        handle = service.submit(CampaignJob(cells=tuple(oracle_cells(1))))
        assert handle.cancel() is True
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        done = service.submit(CampaignJob(cells=tuple(oracle_cells(1))))
        done.result()
        assert done.cancel() is False
        assert done.status() is JobStatus.COMPLETED

    def test_unknown_job_type_rejected(self):
        with pytest.raises(TypeError, match="unknown job type"):
            FoundryService().submit(object())

    def test_unknown_attack_rejected_at_submit(self):
        cell = CampaignCell("rowhammer", ThreatScenario())
        with pytest.raises(KeyError, match="unknown attack"):
            FoundryService().submit(CampaignJob(cells=(cell,)))

    def test_experiment_job_validates_names_at_submit(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            FoundryService().submit(ExperimentJob(names=("fig99",)))

    def test_empty_experiment_filter_rejected_at_submit(self):
        # An empty filter is refused, not read as "the whole registry".
        with pytest.raises(ValueError, match="omit it"):
            FoundryService().submit(ExperimentJob(names=()))


class TestSubmitValidation:
    """Job backends and provisioning triples are refused at submit,
    before the job is PENDING, with the valid choices in the error."""

    @pytest.mark.parametrize(
        "job",
        [
            CampaignJob(cells=tuple(oracle_cells(1)), backend="bogus"),
            ExperimentJob(names=("tab-keys",), backend="bogus"),
            ProvisioningJob(
                triples=((2020, 0, 0),), calibration_store="store",
                backend="bogus",
            ),
        ],
        ids=["campaign", "experiment", "provisioning"],
    )
    def test_unknown_backend_rejected(self, job):
        with pytest.raises(ValueError, match="auto, reference, vectorized"):
            FoundryService().submit(job)

    @pytest.mark.parametrize(
        "kind, triple, needle",
        [
            ("provisioning", (2020, 0, 99),
             r"unknown standard index 99; choose from \[0,"),
            ("provisioning", (2020, "0", 0), "integers"),
            ("provisioning", (2020, 0, True), "integers"),
            ("provisioning", (2020, 0), "integers"),
            ("provisioning", (2020, -1, 0), "non-negative"),
            ("campaign", (2020, 0, 100),
             r"unknown standard index 100; choose from \[0,"),
            ("campaign", (2020, "0", 0), "integers"),
            ("campaign", (2020, 0, True), "integers"),
            ("campaign", (2020, -1, 0), "non-negative"),
        ],
        ids=[
            "standard", "str-field", "bool-field", "short", "negative",
            "campaign-standard", "campaign-str-field", "campaign-bool-field",
            "campaign-negative",
        ],
    )
    def test_bad_provisioning_triple_rejected(self, kind, triple, needle):
        """A triple is a provisioning job's input and a campaign cell's
        die and standard (a 2-tuple is a triple-only case)."""
        if kind == "provisioning":
            job = ProvisioningJob(triples=(triple,), calibration_store="store")
        else:
            lot_seed, chip_id, standard_index = triple
            job = CampaignJob(cells=(CampaignCell(
                "brute-force",
                ThreatScenario(
                    chip=ChipSpec(lot_seed, chip_id),
                    standard_index=standard_index, budget=6, n_fft=1024,
                ),
            ),))
        with pytest.raises(ValueError, match=needle):
            FoundryService().submit(job)


class TestJobFleetReaped:
    """A sharded in-process job runs on a fleet private to the job: its
    workers and its router thread must be gone once the job completes,
    fails or is cancelled."""

    def assert_reaped(self):
        assert multiprocessing.active_children() == []
        assert [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-") and t.is_alive()
        ] == []

    def test_completed_job(self):
        FoundryService().submit(
            CampaignJob(cells=tuple(oracle_cells(2)), n_workers=2)
        ).result()
        self.assert_reaped()

    def test_failed_job(self):
        cells = oracle_cells(1) + [
            CampaignCell("brute-force", ThreatScenario(scheme="adamantium"))
        ]
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), n_workers=2)
        )
        with pytest.raises(JobFailed, match="adamantium"):
            handle.result()
        self.assert_reaped()

    def test_cancelled_job(self):
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(oracle_cells(4)), n_workers=2)
        )
        next(iter(handle.stream()))
        assert handle.cancel() is True
        self.assert_reaped()


def tank_discretisation_bytes() -> list:
    """The ZOH tank matrices (``expm`` + ``solve`` through OpenBLAS)
    over a grid of tuning codes, as bytes."""
    from repro.engine import discretise_tank
    from repro.receiver import Chip

    blocks = Chip().blocks
    h = 1.0 / (3.2e9 * 8)
    return [
        b"".join(m.tobytes() for m in discretise_tank(blocks, cc, cf, h))
        for cc in range(0, 256, 17)
        for cf in range(0, 256, 51)
    ]


class BlasProbeTask:
    """A fleet task that reports its worker's OpenBLAS thread counts and
    the tank discretisations its pools compute."""

    def label(self) -> str:
        return "blas-probe"

    def key(self) -> tuple:
        return ("blas-probe",)

    def run(self):
        from repro.engine.native import blas_threads

        return blas_threads(), tank_discretisation_bytes()


class TestFleetBlasPinned:
    def test_fleet_worker_runs_every_openblas_on_one_thread(self):
        """A fleet worker pins every OpenBLAS copy loaded in it to one
        thread (the fleet already covers the cores), the forking
        process keeps its pools, and the pinned pools compute the same
        bytes."""
        from repro.engine.native import blas_threads
        from repro.service.scheduler import (
            TaskContext,
            WorkerFleet,
            run_on_fleet,
        )

        parent = blas_threads()
        if not parent:
            pytest.skip("no OpenBLAS loaded in this process")
        fleet = WorkerFleet(1)
        fleet.start()
        try:
            (_, (worker, tank), _), = run_on_fleet(
                fleet, TaskContext(), [BlasProbeTask()], [], {},
                max_inflight=1,
            )
        finally:
            fleet.shutdown()
        assert worker == {path: 1 for path in parent}
        assert blas_threads() == parent
        assert tank == tank_discretisation_bytes()


class EngineProbeTask:
    """A fleet task that reports the backend and calibration-store
    directory its worker's default engine runs with."""

    def label(self) -> str:
        return "engine-probe"

    def key(self) -> tuple:
        return ("engine-probe",)

    def run(self):
        engine = get_default_engine()
        store = engine.calibration_store
        return engine.backend, None if store is None else str(store.path)


class TestTaskContextScope:
    """A task's backend and store apply to that task only: neither a
    fleet worker nor an interleaved in-process job carries one job's
    settings into another job's task."""

    def test_fleet_worker_forgets_the_previous_tasks_context(
        self, tmp_path
    ):
        from repro.service.scheduler import (
            TaskContext,
            WorkerFleet,
            run_on_fleet,
        )

        first = get_default_engine().backend
        other = "vectorized" if first == "reference" else "reference"
        store = str(tmp_path / "store")
        fleet = WorkerFleet(1)
        fleet.start()
        try:
            readings = []
            for context in (
                TaskContext(),
                TaskContext(backend=other, store_path=store),
                TaskContext(),
            ):
                (_, reading, _), = run_on_fleet(
                    fleet, context, [EngineProbeTask()], [], {},
                    max_inflight=1,
                )
                readings.append(reading)
        finally:
            fleet.shutdown()
        assert readings[1] == (other, store)
        assert readings[2] == readings[0]

    def test_interleaved_campaigns_keep_their_own_context(
        self, monkeypatch, tmp_path
    ):
        engine = get_default_engine()
        backend, store = engine.backend, engine.calibration_store
        other = "vectorized" if backend == "reference" else "reference"
        seen = []

        def probe(cell):
            seen.append((cell.scenario.seed, *EngineProbeTask().run()))
            return cell.scenario.seed

        monkeypatch.setattr(CampaignCell, "execute", probe)
        base = ThreatScenario(budget=6, n_fft=1024)

        def submit(seeds, job_backend, name):
            return FoundryService().submit(CampaignJob(
                cells=tuple(CampaignCell("brute-force", base.with_(seed=s))
                            for s in seeds),
                n_workers=1, backend=job_backend,
                calibration_store=str(tmp_path / name),
            ))

        first = submit((0, 1), other, "a").stream()
        second = submit((10, 11), backend, "b").stream()
        next(first)
        next(second)
        list(first)
        list(second)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert seen == [(0, other, a), (10, backend, b),
                        (1, other, a), (11, backend, b)]
        assert engine.backend == backend
        assert engine.calibration_store is store


class TestInProcessJobsPinBlas:
    """An in-process job runs with every loaded OpenBLAS copy on one
    thread, and each copy gets its previous count back whether the job
    completes, fails or is cancelled."""

    def submit(self, kind, fail, monkeypatch, tmp_path):
        """Submit a two-task job of ``kind`` (one task for a
        provisioning pass) whose tasks record the OpenBLAS thread
        counts they see; returns ``(handle, seen)``."""
        from repro.campaigns import campaign
        from repro.engine.native import blas_threads
        from repro.experiments.common import ExperimentResult
        from repro.experiments.runner import REGISTRY

        seen = []

        def probe(*args, **kwargs):
            seen.append(blas_threads())
            if fail:
                raise RuntimeError("probe card slipped")
            return ExperimentResult("probe", "probe", [])

        if kind == "experiment":
            for name in ("tab-keys", "tab-ovr"):
                monkeypatch.setitem(
                    REGISTRY, name,
                    dataclasses.replace(REGISTRY[name], run=probe),
                )
            job = ExperimentJob(names=("tab-keys", "tab-ovr"))
        elif kind == "campaign":
            monkeypatch.setattr(CampaignCell, "execute", probe)
            job = CampaignJob(cells=tuple(oracle_cells(2)), n_workers=1)
        else:
            monkeypatch.setattr(campaign, "provision_fleet", probe)
            job = ProvisioningJob(
                triples=((2020, 0, 0), (2020, 1, 0)),
                calibration_store=str(tmp_path / "store"), n_workers=1,
            )
        return FoundryService().submit(job), seen

    @pytest.mark.parametrize("ending", ["completed", "failed", "cancelled"])
    @pytest.mark.parametrize("kind", ["experiment", "campaign", "provisioning"])
    def test_pinned_for_the_job_only(self, kind, ending, monkeypatch,
                                     tmp_path):
        from repro.engine.native import blas_threads

        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded in this process")
        handle, seen = self.submit(
            kind, ending == "failed", monkeypatch, tmp_path
        )
        if ending == "completed":
            handle.result()
        elif ending == "failed":
            with pytest.raises(JobFailed, match="probe card"):
                handle.result()
        else:
            next(iter(handle.stream()))
            assert handle.cancel() is True
        assert seen and all(
            threads == {path: 1 for path in before} for threads in seen
        )
        assert blas_threads() == before

    def test_interleaved_jobs_restore_when_the_last_ends(
        self, monkeypatch, tmp_path
    ):
        from repro.engine.native import blas_threads

        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded in this process")
        first, first_seen = self.submit(
            "experiment", False, monkeypatch, tmp_path
        )
        second, second_seen = self.submit(
            "campaign", False, monkeypatch, tmp_path
        )
        next(iter(first.stream()))
        next(iter(second.stream()))
        # Each task pins and restores on its own: neither suspended job
        # holds the pools pinned.
        assert blas_threads() == before
        first.result()
        assert blas_threads() == before
        second.result()
        assert blas_threads() == before
        assert len(first_seen) == len(second_seen) == 2
        assert all(
            threads == {path: 1 for path in before}
            for threads in first_seen + second_seen
        )

    def test_nested_job_restores_the_outer_pin(self, monkeypatch):
        from repro.engine.native import blas_threads
        from repro.experiments.runner import REGISTRY

        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded in this process")
        seen = []

        def outer(**kwargs):
            cells = tuple(oracle_cells(1))
            FoundryService().submit(CampaignJob(cells=cells, n_workers=1)
                                    ).result()
            seen.append(blas_threads())
            return REGISTRY["tab-keys"].execute()

        monkeypatch.setitem(
            REGISTRY, "tab-ovr",
            dataclasses.replace(REGISTRY["tab-ovr"], run=outer),
        )
        FoundryService().submit(ExperimentJob(names=("tab-ovr",))).result()
        assert seen == [{path: 1 for path in before}]
        assert blas_threads() == before


class TestWorkerCountValidation:
    """Satellite: worker counts rejected up front, REPRO_ENGINE_THREADS
    convention (positive integer, valid range in the error)."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_run_campaign_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match=r"n_workers must be a positive integer"):
            run_campaign(oracle_cells(2), n_workers=bad)

    def test_error_names_valid_range(self):
        with pytest.raises(ValueError, match=">= 1"):
            validate_worker_count(0)
        with pytest.raises(ValueError, match="got 2.5"):
            validate_worker_count(2.5)

    def test_service_default_rejected_up_front(self):
        with pytest.raises(ValueError, match="n_workers"):
            FoundryService(n_workers=0)

    def test_env_default_parsed_and_validated(self, monkeypatch):
        monkeypatch.delenv(SERVICE_WORKERS_ENV, raising=False)
        assert default_worker_count() == 1
        monkeypatch.setenv(SERVICE_WORKERS_ENV, "3")
        assert default_worker_count() == 3
        for bad in ("0", "-2", "two"):
            monkeypatch.setenv(SERVICE_WORKERS_ENV, bad)
            with pytest.raises(ValueError, match=SERVICE_WORKERS_ENV):
                default_worker_count()

    def test_env_default_reaches_campaigns(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV, "2")
        cells = oracle_cells(3)
        result = run_campaign(cells)
        assert result.n_workers == 2
        assert result.reports == run_campaign(cells, n_workers=1).reports


class TestJournalResume:
    def test_cancelled_campaign_resumes_bit_identically(self, tmp_path):
        cells = fleet_cells()
        uninterrupted = run_campaign(cells)
        journal = str(tmp_path / "journal")
        service = FoundryService()
        job = CampaignJob(cells=tuple(cells), n_workers=2, journal=journal)
        handle = service.submit(job)
        finished = 0
        for event in handle.stream():
            if event.kind == "cell":
                finished += 1
                if finished == 2:
                    handle.cancel()
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobCancelled):
            handle.result()
        # The journal holds exactly the finished cells; resubmitting
        # the identical job replays them and executes only the rest.
        resumed = service.submit(job)
        kinds = [e.kind for e in resumed.stream() if e.kind in ("cell", "replay")]
        assert kinds.count("replay") == finished
        assert kinds.count("cell") == len(cells) - finished
        assert resumed.result().reports == uninterrupted.reports
        # Total journal computes across both runs: one per cell.
        assert len(JobJournal(journal).events()) == len(cells)

    def test_resume_after_sigkill(self, tmp_path):
        """The acceptance property: a campaign whose driver process is
        SIGKILLed mid-run resumes from its journal and reproduces the
        uninterrupted run's reports bit-identically."""
        cells = oracle_cells(6, budget=24)
        uninterrupted = run_campaign(cells)
        journal = str(tmp_path / "journal")
        cells_file = str(tmp_path / "cells.pkl")
        with open(cells_file, "wb") as fh:
            pickle.dump(cells, fh)
        script = (
            "import pickle, sys\n"
            "from repro.service import CampaignJob, FoundryService\n"
            "cells = pickle.load(open(sys.argv[1], 'rb'))\n"
            "handle = FoundryService().submit(CampaignJob(\n"
            "    cells=tuple(cells), n_workers=2, journal=sys.argv[2]))\n"
            "for event in handle.stream():\n"
            "    if event.kind == 'cell':\n"
            "        print('CELL', flush=True)\n"
            "print('ALLDONE', flush=True)\n"
        )
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, cells_file, journal],
            stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            seen = 0
            for line in proc.stdout:
                if line.strip() == "CELL":
                    seen += 1
                    if seen >= 2:
                        break
                if line.strip() == "ALLDONE":
                    break
            # Kill the whole driver session (scheduler and workers).
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        journaled = len(JobJournal(journal).completed_cells(len(cells)))
        assert journaled >= 1  # the kill left finished cells behind
        resumed = run_campaign(cells, n_workers=2, journal=journal)
        assert resumed.reports == uninterrupted.reports

    def test_resume_after_a_kill_mid_calibration(self, tmp_path):
        """A journaled campaign whose process dies mid-calibration
        leaves nothing in its calibration store that the resuming
        process waits on: the resume computes the die and reproduces
        the uninterrupted run's reports."""
        cells = [CampaignCell("removal", ThreatScenario(seed=3))]
        uninterrupted = run_campaign(cells, n_workers=1)
        journal = str(tmp_path / "journal")
        reports_file = str(tmp_path / "reports.pkl")
        script = (
            "import os, pickle, sys\n"
            "from repro.calibration import Calibrator\n"
            "from repro.campaigns import CampaignCell, ThreatScenario, "
            "run_campaign\n"
            "if sys.argv[1] == 'kill':\n"
            "    Calibrator.calibrate_fleet = lambda *a, **k: os._exit(9)\n"
            "result = run_campaign(\n"
            "    [CampaignCell('removal', ThreatScenario(seed=3))],\n"
            "    n_workers=1, journal=sys.argv[2])\n"
            "with open(sys.argv[3], 'wb') as fh:\n"
            "    pickle.dump(result.reports, fh)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = "src" + (os.pathsep + inherited if inherited else "")

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def child(mode):
            return subprocess.run(
                [sys.executable, "-c", script, mode, journal, reports_file],
                cwd=repo_root, env=env, timeout=120,
            )

        assert child("kill").returncode == 9  # died inside the calibration
        assert child("resume").returncode == 0
        with open(reports_file, "rb") as fh:
            assert pickle.load(fh) == uninterrupted.reports

    def test_torn_journal_entry_degrades_to_recompute(self, tmp_path):
        """A kill landing mid-write leaves a torn entry: it must read
        as a miss and the cell re-executes to the identical report."""
        cells = oracle_cells(3)
        journal = str(tmp_path / "journal")
        baseline = run_campaign(cells, journal=journal)
        # Truncate one journaled task entry in place.
        tasks_dir = tmp_path / "journal" / "tasks"
        entry = sorted(tasks_dir.glob("cal-*.pkl"))[0]
        entry.write_bytes(entry.read_bytes()[:7])
        resumed = run_campaign(cells, journal=journal)
        assert resumed.reports == baseline.reports

    def test_journal_bound_to_one_cell_list(self, tmp_path):
        journal = str(tmp_path / "journal")
        run_campaign(oracle_cells(2), journal=journal)
        with pytest.raises(JournalMismatch, match="different job"):
            run_campaign(oracle_cells(3), journal=journal)

    def test_replay_preserves_original_timings(self, tmp_path):
        cells = oracle_cells(2)
        journal = str(tmp_path / "journal")
        first = run_campaign(cells, journal=journal)
        handle = FoundryService().submit(
            CampaignJob(cells=tuple(cells), journal=journal)
        )
        replays = [e for e in handle.stream() if e.kind == "replay"]
        assert [e.seconds for e in replays] == first.cell_seconds
        assert handle.result().cell_seconds == first.cell_seconds

    def test_journal_keeps_calibrations_warm(self, tmp_path):
        """The journal bundles the calibration store: a resumed
        campaign must not recalibrate dies the killed run provisioned."""
        cells = [fleet_cells()[0], fleet_cells()[2]]  # two fabric dies
        journal = str(tmp_path / "journal")
        run_campaign(cells, n_workers=2, journal=journal)
        store = CalibrationStore(
            JobJournal(journal).calibration_store_path()
        )
        assert len(store.compute_events()) == 2
        # Re-running replays both cells; the store stays at 2 computes.
        run_campaign(cells, n_workers=2, journal=journal)
        assert len(store.compute_events()) == 2


class TestExperimentJob:
    def test_experiment_stream_matches_registry_order(self):
        handle = FoundryService().submit(
            ExperimentJob(names=("tab-keys", "tab-ovr"))
        )
        events = list(handle.stream())
        assert [e.label for e in events] == ["tab-keys", "tab-ovr"]
        results = handle.result()
        assert [r.experiment_id for r in results] == [
            e.payload.experiment_id for e in events
        ]
        assert handle.status() is JobStatus.COMPLETED


class TestExperimentBackendRestored:
    """An ExperimentJob's backend and measurement memo apply to its own
    run only: the default engine gets its previous backend back, and
    no memo stays attached, whether the job completes, fails or is
    cancelled."""

    def backends(self):
        previous = get_default_engine().backend
        return previous, "vectorized" if previous == "reference" else "reference"

    def test_completed_job(self):
        previous, other = self.backends()
        FoundryService().submit(
            ExperimentJob(names=("tab-keys",), backend=other)
        ).result()
        assert get_default_engine().backend == previous
        assert get_default_engine().measurement_memo is None

    def test_failed_job(self, monkeypatch):
        from repro.experiments.runner import REGISTRY

        previous, other = self.backends()
        seen = []

        def explode(**kwargs):
            engine = get_default_engine()
            seen.append((engine.backend, engine.measurement_memo))
            raise RuntimeError("probe card slipped")

        monkeypatch.setitem(
            REGISTRY, "tab-keys",
            dataclasses.replace(REGISTRY["tab-keys"], run=explode),
        )
        handle = FoundryService().submit(
            ExperimentJob(names=("tab-keys",), backend=other)
        )
        with pytest.raises(JobFailed, match="probe card"):
            handle.result()
        assert seen == [(other, {})]
        assert get_default_engine().backend == previous
        assert get_default_engine().measurement_memo is None

    def test_cancelled_job(self):
        previous, other = self.backends()
        handle = FoundryService().submit(
            ExperimentJob(names=("tab-attack", "tab-keys"), backend=other)
        )
        next(iter(handle.stream()))
        # The backend and the memo apply around each task only.
        assert get_default_engine().backend == previous
        assert get_default_engine().measurement_memo is None
        assert handle.cancel() is True
        assert get_default_engine().backend == previous
        assert get_default_engine().measurement_memo is None

    def test_interleaved_jobs_detach_when_the_last_ends(self, monkeypatch):
        # Jobs started A then B and finished A then B each measure into
        # their own memo, attached around their own tasks only.
        from repro.experiments.common import ExperimentResult
        from repro.experiments.runner import REGISTRY

        engine = get_default_engine()
        seen = []

        def probe(**kwargs):
            seen.append(engine.measurement_memo)
            return ExperimentResult("probe", "probe", [])

        names = ("tab-keys", "tab-ovr")
        for name in names:
            monkeypatch.setitem(
                REGISTRY, name, dataclasses.replace(REGISTRY[name], run=probe)
            )
        first = FoundryService().submit(ExperimentJob(names=names))
        second = FoundryService().submit(ExperimentJob(names=names))
        next(iter(first.stream()))
        next(iter(second.stream()))
        assert engine.measurement_memo is None
        first.result()
        assert engine.measurement_memo is None
        second.result()
        assert engine.measurement_memo is None
        first_a, second_a, first_b, second_b = seen
        assert first_a is first_b is not None
        assert second_a is second_b is not None
        assert first_a is not second_a

    def test_nested_job_keeps_the_outer_memo(self, monkeypatch):
        from repro.experiments.runner import REGISTRY

        seen = []

        def outer(**kwargs):
            memo = get_default_engine().measurement_memo
            handle = FoundryService().submit(ExperimentJob(names=("tab-ovr",)))
            result = handle.result()[0]
            seen.append((memo, get_default_engine().measurement_memo))
            return result

        def inner(**kwargs):
            seen.append(get_default_engine().measurement_memo)
            return REGISTRY["tab-keys"].execute()

        monkeypatch.setitem(
            REGISTRY, "tab-ovr",
            dataclasses.replace(REGISTRY["tab-ovr"], run=inner),
        )
        monkeypatch.setitem(
            REGISTRY, "sweep-std",
            dataclasses.replace(REGISTRY["sweep-std"], run=outer),
        )
        FoundryService().submit(ExperimentJob(names=("sweep-std",))).result()
        inner_memo, (outer_memo, after_inner) = seen
        assert outer_memo is not None
        assert inner_memo is outer_memo is after_inner
        assert get_default_engine().measurement_memo is None


class TestSuspendedConsumer:
    """A consumer that takes one event and stops, neither cancelling
    nor dropping the handle, leaves no job setting in force: the
    measurement memo and the OpenBLAS pin apply around each task, not
    across the job's suspended stream."""

    def test_nothing_stays_set_between_tasks(self, monkeypatch):
        from repro.engine.native import blas_threads
        from repro.experiments.common import ExperimentResult
        from repro.experiments.runner import REGISTRY

        before = blas_threads()
        seen = []

        def probe(**kwargs):
            seen.append(get_default_engine().measurement_memo)
            return ExperimentResult("probe", "probe", [])

        for name in ("tab-keys", "tab-ovr"):
            monkeypatch.setitem(
                REGISTRY, name, dataclasses.replace(REGISTRY[name], run=probe)
            )
        first = FoundryService().submit(
            ExperimentJob(names=("tab-keys", "tab-ovr"))
        )
        next(iter(first.stream()))
        assert first.status() is JobStatus.RUNNING
        assert get_default_engine().measurement_memo is None
        assert blas_threads() == before
        FoundryService().submit(ExperimentJob(names=("tab-ovr",))).result()
        first.result()
        first_memo, second_memo, first_memo_again = seen
        assert second_memo is not None and second_memo is not first_memo
        assert first_memo_again is first_memo is not None
        assert get_default_engine().measurement_memo is None
        assert blas_threads() == before
