"""Calibration tests: metering, binary searches, the 14-step procedure."""

import numpy as np
import pytest

from repro.calibration import (
    CalibrationFailed,
    Calibrator,
    NOMINAL_DELAY_CODE,
    coordinate_descent,
    is_oscillating,
    metering,
    oscillation_frequency,
    segment_gain_plan,
    vglna_gain_plan,
)
from repro.dsp import sine
from repro.receiver import Chip, ConfigWord


class TestMetering:
    def test_frequency_meter_accuracy(self, rng):
        fs = 12e9
        f = 2.7182e9
        x = sine(4096, fs, f, 0.3) + rng.normal(0, 1e-3, 4096)
        measured = oscillation_frequency(x, fs)
        assert measured == pytest.approx(f, rel=2e-4)

    def test_frequency_meter_rejects_noise(self, rng):
        assert oscillation_frequency(rng.normal(0, 0.1, 4096), 1e9) is None

    def test_frequency_meter_rejects_silence(self):
        assert oscillation_frequency(np.zeros(2048), 1e9) is None

    def test_is_oscillating_detects_sustained(self):
        x = sine(2048, 1e9, 1e8, 0.3)
        assert is_oscillating(x, 1e9)

    def test_is_oscillating_rejects_decay(self):
        t = np.arange(2048)
        x = 0.3 * np.exp(-t / 150) * np.sin(2 * np.pi * 0.1 * t)
        assert not is_oscillating(x, 1e9)

    def test_is_oscillating_rejects_small(self, rng):
        assert not is_oscillating(rng.normal(0, 0.015, 2048), 1e9)


class TestBatchedFrequencyMeter:
    """oscillation_frequency_batch == the scalar meter, record by record.

    The fleet calibrator's lockstep rounds decode every active die's
    frequency probe through one batched call; the batch must reproduce
    the scalar meter bit for bit — gates (silence, noise) included —
    over mixed record lengths and mixed clock rates.
    """

    def _records(self, rng):
        records, rates = [], []
        for i in range(6):
            n = 4096 if i % 2 == 0 else 2048
            fs = 1e9 * (i + 1)
            if i == 2:
                x = np.zeros(n)  # silence -> None via the RMS gate
            elif i == 4:
                x = rng.normal(0, 0.1, n)  # noise -> concentration gate
            else:
                x = sine(n, fs, fs / 7.3, 0.3) + rng.normal(0, 1e-3, n)
            records.append(x)
            rates.append(fs)
        return records, rates

    def test_bit_identical_to_scalar_meter(self, rng):
        records, rates = self._records(rng)
        batch = metering.oscillation_frequency_batch(records, rates)
        for record, fs, got in zip(records, rates, batch):
            expected = metering.oscillation_frequency(record, fs)
            assert got == expected or (got is None and expected is None)

    def test_scalar_rate_broadcasts(self, rng):
        records = [sine(2048, 1e9, 1.3e8, 0.3) for _ in range(3)]
        batch = metering.oscillation_frequency_batch(records, 1e9)
        assert batch == [metering.oscillation_frequency(r, 1e9) for r in records]

    def test_rate_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 rates for 1 records"):
            metering.oscillation_frequency_batch([np.zeros(64)], [1e9, 2e9])

    def test_empty_batch(self):
        assert metering.oscillation_frequency_batch([], []) == []


class TestCoordinateDescent:
    def test_finds_separable_optimum(self):
        target = {"gmin_code": 37, "dac_code": 11, "preamp_code": 5}

        def objective(cfg: ConfigWord) -> float:
            return -sum(
                abs(getattr(cfg, k) - v) for k, v in target.items()
            )

        fields = (("gmin_code", 6), ("dac_code", 6), ("preamp_code", 5))
        result = coordinate_descent(objective, ConfigWord(), fields=fields, passes=2)
        for k, v in target.items():
            assert getattr(result.config, k) == v
        assert result.score == 0.0

    def test_memoises_evaluations(self):
        calls = []

        def objective(cfg: ConfigWord) -> float:
            calls.append(cfg.encode())
            return 0.0

        coordinate_descent(objective, ConfigWord(), fields=(("lna_gain", 4),), passes=3)
        assert len(calls) == len(set(calls))


class TestGainPlans:
    def test_vglna_plan_monotone_in_power(self, hero_chip):
        codes = [vglna_gain_plan(hero_chip, p) for p in (-85, -60, -40, -20, 0)]
        assert all(a >= b for a, b in zip(codes, codes[1:]))
        assert codes[0] == 15  # weakest input -> max gain

    def test_segment_plan_covers_paper_ranges(self, hero_chip):
        segments = segment_gain_plan(hero_chip)
        assert len(segments) == 3
        assert segments[0].power_lo_dbm == -85.0
        assert segments[2].power_hi_dbm == 0.0
        assert segments[0].lna_gain > segments[2].lna_gain


class TestProcedure:
    def test_capacitor_tuning_hits_target(self, hero_chip, quick_calibration, ref_standard):
        achieved = quick_calibration.achieved_frequency
        assert achieved == pytest.approx(ref_standard.f_center, rel=0.004)

    def test_gmq_backed_off_near_critical(self, hero_chip, quick_calibration):
        # The empirical oscillation detector can disagree with the
        # analytic threshold by one code (marginal growth within the
        # capture window), so the calibrated code sits within a small
        # band at/below the analytic critical code.
        cfg = quick_calibration.config
        critical = hero_chip.blocks.tank.critical_gmq_code(
            cfg.cc_coarse, cfg.cf_fine
        )
        assert critical - 3 <= cfg.gmq_code <= critical

    def test_loop_restored(self, quick_calibration):
        cfg = quick_calibration.config
        assert cfg.fb_en == 1
        assert cfg.dac_en == 1
        assert cfg.comp_clk_en == 1
        assert cfg.gmin_en == 1
        assert cfg.delay_code == NOMINAL_DELAY_CODE

    def test_calibrated_snr_meets_loose_spec(self, quick_calibration):
        # Quick mode (1 pass, short FFT) still gets close to spec.
        assert quick_calibration.snr_db > 35.0

    def test_measurement_count_is_bounded(self, quick_calibration):
        # The guided calibration needs ~tens of measurements, not 2^64.
        assert quick_calibration.n_measurements < 300

    def test_log_covers_all_14_steps(self, quick_calibration):
        steps = {entry.step for entry in quick_calibration.log}
        assert steps == set(range(1, 15))

    def test_keys_unique_per_chip(self, fab, ref_standard, quick_calibration):
        other = Calibrator(n_fft=2048, optimizer_passes=1, sfdr_weight=0.0).calibrate(
            Chip(variations=fab.draw(1)), ref_standard
        )
        assert other.config.encode() != quick_calibration.config.encode()


class TestSpeculativeBatchedDescent:
    """Batched probing must replay the sequential descent exactly."""

    def _noisy_objective(self):
        # Deterministic but non-separable: couples fields so the accept
        # path actually matters, with plateaus to exercise ties.
        def score(cfg: ConfigWord) -> float:
            return (
                -abs(cfg.gmin_code - 37)
                - 0.5 * abs(cfg.dac_code - 11)
                - 0.25 * abs((cfg.gmin_code % 5) - (cfg.preamp_code % 5))
            )
        return score

    def test_replay_identical_to_sequential(self):
        objective = self._noisy_objective()
        fields = (("gmin_code", 6), ("dac_code", 6), ("preamp_code", 5))
        sequential = coordinate_descent(
            objective, ConfigWord(), fields=fields, passes=2
        )
        batched = coordinate_descent(
            objective,
            ConfigWord(),
            fields=fields,
            passes=2,
            batch_objective=lambda configs: [objective(c) for c in configs],
        )
        assert batched.config == sequential.config
        assert batched.score == sequential.score
        assert batched.n_evaluations == sequential.n_evaluations
        assert [(t.config, t.score) for t in batched.trace] == [
            (t.config, t.score) for t in sequential.trace
        ]

    def test_sequential_mode_never_speculates(self):
        calls = []

        def objective(cfg: ConfigWord) -> float:
            calls.append(cfg.encode())
            return 0.0

        coordinate_descent(objective, ConfigWord(), fields=(("lna_gain", 4),))
        assert len(calls) == len(set(calls))  # memoised, probe-for-probe


class TestDeadDie:
    """A die whose tank dies mid-bisection fails loudly and typed."""

    def test_calibrate_raises_with_log_and_die(
        self, hero_chip, ref_standard, monkeypatch
    ):
        real = oscillation_frequency
        calls = []

        def dies_mid_bisection(samples, fs):
            calls.append(1)
            if len(calls) > 4:  # a few healthy readings, then silence
                return None
            return real(samples, fs)

        def dies_mid_bisection_batch(records, fs):
            # The lockstep driver meters frequency probes through the
            # batched meter; inject per record so the failure point is
            # the scalar meter's.
            return [dies_mid_bisection(r, f) for r, f in zip(records, fs)]

        monkeypatch.setattr(
            metering, "oscillation_frequency", dies_mid_bisection
        )
        monkeypatch.setattr(
            metering, "oscillation_frequency_batch", dies_mid_bisection_batch
        )
        with pytest.raises(CalibrationFailed) as excinfo:
            Calibrator(n_fft=1024, optimizer_passes=1, sfdr_weight=0.0).calibrate(
                hero_chip, ref_standard
            )
        failure = excinfo.value
        assert isinstance(failure, RuntimeError)  # old catchers still work
        assert failure.step == 6
        assert failure.chip_id == hero_chip.chip_id
        # The completed steps ride the exception for lot triage.
        assert [entry.step for entry in failure.log] == [1, 2, 3, 4, 5]
        assert "failed to oscillate" in str(failure)


class TestBatchedCalibrator:
    @pytest.mark.slow
    def test_batched_calibration_identical(self, hero_chip, ref_standard):
        """The tentpole exactness claim: batch probing cannot change the
        secret key, the score, the log or the measurement count."""
        sequential = Calibrator(
            n_fft=2048, optimizer_passes=1, batch_probing=False
        ).calibrate(hero_chip, ref_standard)
        batched = Calibrator(
            n_fft=2048, optimizer_passes=1, batch_probing=True
        ).calibrate(hero_chip, ref_standard)
        assert batched.config == sequential.config
        assert batched.snr_db == sequential.snr_db
        assert batched.sfdr_db == sequential.sfdr_db
        assert batched.n_measurements == sequential.n_measurements
        assert batched.log == sequential.log
