"""Differential harness: fleet-lockstep calibration is bit-exact.

The fleet calibrator regroups per-die engine requests across a lot —
one fused batch per lockstep round — and claims the regrouping changes
*nothing* per die: not the key, not the scores, not the step log, not
the metered measurement count.  This file holds that claim
differentially against the pure sequential :class:`Calibrator`
(``batch_probing=False`` — no speculation, no batching, the scalar
ground truth) over every combination of fleet size, mixed standards,
engine backend and kernel thread count, which transitively also proves
the fleet path bit-exact across backends and thread counts.
"""

import dataclasses

import pytest

from repro.calibration import (
    CalibrationFailed,
    Calibrator,
    FleetCalibrator,
    metering,
    procedure,
)
from repro.engine import SimulationEngine, get_default_engine, kernel_threaded
from repro.process import ChipFactory
from repro.receiver import Chip, STANDARDS

#: Fast-but-real calibrator settings shared by both sides of every
#: differential comparison (the full default procedure is exercised by
#: the campaign provisioning tests and the benchmarks).
CAL_KW = dict(n_fft=1024, optimizer_passes=1, sfdr_weight=0.0)

LOT_SEED = 2020

#: Per-die standard indices for the largest fleet — deliberately mixed,
#: so lockstep rounds fuse requests of different clocks and targets.
STANDARD_PATTERN = (0, 1, 0, 2, 1, 2, 0)

#: The pristine frequency meter, captured before any test patches it.
_REAL_METER = metering.oscillation_frequency


def _fleet(n_dies: int) -> tuple[list[Chip], list]:
    fab = ChipFactory(lot_seed=LOT_SEED)
    chips = [Chip(variations=fab.draw(die)) for die in range(n_dies)]
    standards = [STANDARDS[i] for i in STANDARD_PATTERN[:n_dies]]
    return chips, standards


@pytest.fixture(scope="module")
def sequential_baseline():
    """Lazy per-(die, standard) ground truth: the scalar sequential
    calibrator, run once on the session's default backend."""
    cache = {}

    def get(die: int, standard_index: int):
        key = (die, standard_index)
        if key not in cache:
            chip = Chip(variations=ChipFactory(lot_seed=LOT_SEED).draw(die))
            cache[key] = Calibrator(batch_probing=False, **CAL_KW).calibrate(
                chip, STANDARDS[standard_index]
            )
        return cache[key]

    return get


#: Lot size x engine backend x kernel thread count.  The 7-die lot
#: gives uneven half-lots (4 and 3 dies) on mixed standards; its
#: reference-backend run is taken at one thread count only, which keeps
#: the slowest combination (~7 s) out of tier-1 once.
FLEET_AXES = [
    (n_dies, backend, threads)
    for n_dies in (1, 2, 5, 7)
    for backend in ("reference", "vectorized")
    for threads in ("1", "4")
    if (n_dies, backend, threads) != (7, "reference", "4")
]


class TestFleetMatchesSequential:
    """The tentpole exactness property, over every axis combination."""

    @pytest.mark.parametrize("n_dies, backend, threads", FLEET_AXES)
    def test_fleet_bit_identical(
        self, n_dies, backend, threads, sequential_baseline, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE_THREADS", threads)
        chips, standards = _fleet(n_dies)
        engine = get_default_engine()
        previous = engine.backend
        engine.backend = backend
        try:
            fleet = FleetCalibrator(**CAL_KW).calibrate_fleet(chips, standards)
            # calibrate() is a lot of one on the same lockstep driver.
            single = [
                Calibrator(**CAL_KW).calibrate(chip, standard)
                for chip, standard in zip(chips, standards)
            ]
        finally:
            engine.backend = previous
        assert len(fleet) == n_dies
        for die, result in [*enumerate(fleet), *enumerate(single)]:
            expected = sequential_baseline(die, STANDARD_PATTERN[die])
            # The secret key, bit for bit.
            assert result.config == expected.config
            # Every score and measured figure, exactly.
            assert result.snr_db == expected.snr_db
            assert result.sfdr_db == expected.sfdr_db
            assert result.achieved_frequency == expected.achieved_frequency
            assert result.success == expected.success
            # The step log, entry for entry (step-6/7/14 values included).
            assert result.log == expected.log
            # The metered measurement count.
            assert result.n_measurements == expected.n_measurements
            assert result.segment_gains == expected.segment_gains
            assert result.standard == expected.standard

    def test_fleet_of_same_die_twice_is_consistent(self):
        """Duplicated dies in one lot calibrate to identical results
        (the lockstep driver must not cross-contaminate machines)."""
        fab = ChipFactory(lot_seed=LOT_SEED)
        chips = [Chip(variations=fab.draw(0)), Chip(variations=fab.draw(0))]
        first, second = FleetCalibrator(**CAL_KW).calibrate_fleet(
            chips, STANDARDS[0]
        )
        assert first.config == second.config
        assert first.log == second.log
        assert first.n_measurements == second.n_measurements

    def test_single_standard_broadcasts(self):
        chips, _ = _fleet(2)
        results = FleetCalibrator(**CAL_KW).calibrate_fleet(
            chips, STANDARDS[0]
        )
        assert [r.standard for r in results] == [STANDARDS[0]] * 2

    def test_standard_count_mismatch_rejected(self):
        chips, _ = _fleet(2)
        with pytest.raises(ValueError, match="2 chips got 1 standards"):
            FleetCalibrator(**CAL_KW).calibrate_fleet(chips, [STANDARDS[0]])

    def test_empty_fleet(self):
        assert FleetCalibrator(**CAL_KW).calibrate_fleet([], []) == []


@pytest.fixture
def started_runs(monkeypatch):
    """Every run ``start_multi`` returns, as a record of its
    ``overlap`` flag and of whether its ``result()`` was called.  Two
    kernel threads, so a lot runs as half-lots wherever the kernel is
    built threaded."""
    monkeypatch.setenv("REPRO_ENGINE_THREADS", "2")
    runs = []
    real_start = SimulationEngine.start_multi

    def recording(self, items, **kwargs):
        run = real_start(self, items, **kwargs)
        record = {"finished": False, "overlap": kwargs.get("overlap", True)}
        real_result = run.result

        def result():
            record["finished"] = True
            return real_result()

        run.result = result
        runs.append(record)
        return run

    monkeypatch.setattr(SimulationEngine, "start_multi", recording)
    return runs


def _kill_die(monkeypatch, victim: int, n_good: int) -> None:
    """From its ``n_good + 1``-th frequency probe on, die ``victim``
    reads no oscillation, whatever lot it is calibrated in."""
    real_probe = procedure._fosc_probe
    seen = []

    def probe(chip, config, standard, seed):
        made = real_probe(chip, config, standard, seed)
        if chip.chip_id != victim:
            return made
        seen.append(1)
        if len(seen) <= n_good:
            return made
        return dataclasses.replace(
            made, decode=lambda results: None, fused_extract=None
        )

    monkeypatch.setattr(procedure, "_fosc_probe", probe)


class TestHalfLots:
    def test_half_lots_only_where_the_kernel_can_overlap(
        self, started_runs, monkeypatch
    ):
        """Overlapped half-lot submissions where the kernel can
        integrate beside the driver; one plain submission per round
        where it cannot (one thread, no kernel)."""
        chips, standards = _fleet(4)
        engine = get_default_engine()
        previous = engine.backend
        engine.backend = "vectorized"
        try:
            for threads, expected in (("1", False), ("2", kernel_threaded())):
                monkeypatch.setenv("REPRO_ENGINE_THREADS", threads)
                assert engine.can_overlap() == expected
                started_runs.clear()
                Calibrator(**CAL_KW).calibrate_fleet(chips, standards)
                overlapped = any(run["overlap"] for run in started_runs)
                assert overlapped == expected
        finally:
            engine.backend = previous


class TestFailureFinishesRuns:
    """A failure while one half settles leaves the other half's run in
    flight; the driver finishes it before the exception leaves."""

    @pytest.mark.parametrize("victim", [2, 3])  # one die of each half
    def test_dead_die_finishes_the_other_half(
        self, victim, started_runs, monkeypatch
    ):
        chips, standards = _fleet(4)
        _kill_die(monkeypatch, victim, 3)
        with pytest.raises(CalibrationFailed) as sequential:
            Calibrator(batch_probing=False, **CAL_KW).calibrate(
                chips[victim], standards[victim]
            )
        _kill_die(monkeypatch, victim, 3)
        with pytest.raises(CalibrationFailed) as fleet:
            Calibrator(**CAL_KW).calibrate_fleet(chips, standards)
        assert len(started_runs) > 2
        assert all(run["finished"] for run in started_runs)
        assert type(fleet.value) is type(sequential.value)
        assert fleet.value.chip_id == sequential.value.chip_id == victim
        assert fleet.value.step == sequential.value.step == 6
        assert fleet.value.log == sequential.value.log

    def test_raising_on_result_finishes_the_other_half(self, started_runs):
        chips, standards = _fleet(3)

        def refuse(die, result):
            raise RuntimeError("store unavailable")

        with pytest.raises(RuntimeError, match="store unavailable"):
            Calibrator(**CAL_KW).calibrate_fleet(
                chips, standards, on_result=refuse
            )
        assert len(started_runs) > 2
        assert all(run["finished"] for run in started_runs)


class TestFleetDeadDie:
    """The dead-die path: explicit, typed, and identical at fleet level."""

    def _kill_after(self, monkeypatch, n_good: int):
        calls = []

        def flaky(samples, fs):
            calls.append(1)
            if len(calls) > n_good:
                return None
            return _REAL_METER(samples, fs)

        def flaky_batch(records, fs):
            # The fleet's fused decode meters records in the same
            # active-die order the per-probe decodes ran in, so
            # injecting per record here keeps the failure point
            # identical to the scalar meter's.
            records = list(records)
            fss = [fs] * len(records) if not hasattr(fs, "__len__") else fs
            return [flaky(r, f) for r, f in zip(records, fss)]

        monkeypatch.setattr(metering, "oscillation_frequency", flaky)
        monkeypatch.setattr(
            metering, "oscillation_frequency_batch", flaky_batch
        )

    def test_mid_bisection_death_raises_typed_failure(self, monkeypatch):
        self._kill_after(monkeypatch, 3)
        chips, standards = _fleet(2)
        with pytest.raises(CalibrationFailed) as excinfo:
            FleetCalibrator(**CAL_KW).calibrate_fleet(chips, standards)
        failure = excinfo.value
        assert failure.step == 6
        assert failure.chip_id in (0, 1)
        # The audit trail up to the failure rides the exception.
        assert [entry.step for entry in failure.log] == [1, 2, 3, 4, 5]

    def test_fleet_failure_matches_sequential_failure(self, monkeypatch):
        """The same die dies at the same point either way."""
        chips, standards = _fleet(1)
        self._kill_after(monkeypatch, 5)
        with pytest.raises(CalibrationFailed) as sequential:
            Calibrator(batch_probing=False, **CAL_KW).calibrate(
                chips[0], standards[0]
            )
        self._kill_after(monkeypatch, 5)
        with pytest.raises(CalibrationFailed) as fleet:
            FleetCalibrator(**CAL_KW).calibrate_fleet(chips, standards)
        assert fleet.value.step == sequential.value.step == 6
        assert fleet.value.chip_id == sequential.value.chip_id == 0
        assert fleet.value.log == sequential.value.log


class TestProvisionFleet:
    """Campaign pre-provisioning rides the lockstep path."""

    def test_skips_stored_triples_and_tags_fleet_events(self, tmp_path):
        from repro.campaigns import provision_fleet
        from repro.engine import CalibrationStore

        store = CalibrationStore(tmp_path / "store")
        sentinel = {"already": "stored"}
        store.put((LOT_SEED, 0, 0), sentinel)
        computed = provision_fleet(
            [(LOT_SEED, 0, 0), (LOT_SEED, 1, 0)], store
        )
        assert computed == 1  # the stored triple was skipped
        assert store.get((LOT_SEED, 0, 0)) == sentinel
        fresh = store.get((LOT_SEED, 1, 0))
        # The fleet-stored value is the design-house default calibration.
        chip = Chip(variations=ChipFactory(lot_seed=LOT_SEED).draw(1))
        expected = Calibrator().calibrate(chip, STANDARDS[0])
        assert fresh.config == expected.config
        assert fresh.log == expected.log
        assert fresh.n_measurements == expected.n_measurements
        events = store.compute_events()
        # One audit line per computed die (the skip logged nothing new
        # beyond the sentinel put), tagged as a fleet compute.
        assert len(events) == 2
        assert events[-1].endswith(" fleet")

    def test_noop_when_everything_stored(self, tmp_path):
        from repro.campaigns import provision_fleet
        from repro.engine import CalibrationStore

        store = CalibrationStore(tmp_path / "store")
        store.put((LOT_SEED, 3, 0), "anything")
        assert provision_fleet([(LOT_SEED, 3, 0)], store) == 0

    def test_completed_dies_survive_a_mid_lot_failure(
        self, tmp_path, monkeypatch
    ):
        """Streaming durability: a die that fails mid-lot must not
        discard dies already calibrated — a retry resumes warm."""
        from repro.calibration import procedure
        from repro.campaigns import provision_fleet
        from repro.engine import CalibrationStore

        real_plan = procedure.segment_gain_plan
        completions = []

        def dies_at_completion(chip):
            # The third die to reach its final step fails there; the
            # two dies that completed before it have already streamed
            # into the store.
            completions.append(chip.chip_id)
            if len(completions) == 3:
                raise RuntimeError("probe card slipped")
            return real_plan(chip)

        monkeypatch.setattr(procedure, "segment_gain_plan", dies_at_completion)
        store = CalibrationStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="probe card"):
            provision_fleet(
                [(LOT_SEED, die, 0) for die in range(5)], store
            )
        # Exactly the dies that completed before the failure survive.
        survivors = [
            die
            for die in range(5)
            if store.get((LOT_SEED, die, 0)) is not None
        ]
        assert sorted(completions[:2]) == survivors
        events = store.compute_events()
        assert len(events) == 2
        assert all(event.endswith(" fleet") for event in events)
