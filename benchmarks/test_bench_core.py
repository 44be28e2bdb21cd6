"""Micro-benchmarks of the computational substrates themselves.

These time the hot kernels behind the reproductions: the modulator
transient engine (the paper's "20 minutes per SNR point" equivalent),
the full-receiver measurement, the calibration procedure and the SAT
solver.  They use standard repeated-round benchmarking since each call
is short.
"""

import pytest

pytestmark = pytest.mark.bench

import numpy as np

from repro.calibration import Calibrator
from repro.experiments.common import hero_chip
from repro.logic import lock_netlist, ripple_adder
from repro.attacks import SatAttack
from repro.receiver import (
    STANDARDS,
    ToneStimulus,
    measure_modulator_snr,
    measure_receiver_snr,
    stimulus_frequency,
)

STD = STANDARDS[0]


def test_bench_modulator_transient_8192(benchmark):
    chip = hero_chip()
    from repro.experiments.common import calibrated

    key = calibrated(chip, STD).config
    stim = ToneStimulus.single(stimulus_frequency(STD, 64, 8192), -25.0)

    def run():
        return chip.simulate_modulator(key, stim, STD.fs, n_samples=8192, seed=1)

    result = benchmark(run)
    assert result.is_bitstream


def test_bench_snr_measurement(benchmark):
    chip = hero_chip()
    from repro.experiments.common import calibrated

    key = calibrated(chip, STD).config
    m = benchmark(measure_modulator_snr, chip, key, STD, n_fft=4096, seed=1)
    assert m.snr_db > 38.0


def test_bench_receiver_measurement(run_once):
    chip = hero_chip()
    from repro.experiments.common import calibrated

    key = calibrated(chip, STD).config
    m = run_once(measure_receiver_snr, chip, key, STD, n_baseband=512, seed=1)
    assert m.snr_db > 35.0


def test_bench_full_calibration(run_once):
    chip = hero_chip()
    calibrator = Calibrator(n_fft=2048, optimizer_passes=1, sfdr_weight=0.0)
    result = run_once(calibrator.calibrate, chip, STD)
    assert abs(result.achieved_frequency - STD.f_center) < 0.004 * STD.f_center


def test_bench_sat_attack_adder(benchmark):
    rng = np.random.default_rng(5)
    original = ripple_adder(4)
    locked = lock_netlist(original, 7, rng)
    attack = SatAttack(locked=locked, oracle=locked.oracle(original))
    # Each run builds a fresh miter, so rounds are independent.
    result = benchmark(attack.run)
    assert result.n_oracle_queries >= 1
