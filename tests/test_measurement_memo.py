"""The measurement paths and the modulator-SNR job-scoped memo.

Each scalar measurement (``measure_modulator_snr``, ``measure_sfdr``,
``measure_receiver_snr``) is the one-key case of its batch, the Fig. 10
spectrum runs the modulator-SNR request, and an in-process
``ExperimentJob`` attaches a measurement memo to the default engine,
so each distinct modulator-SNR measurement of a registry run is
simulated once.  These tests hold each single path to the original
scalar formula, the memo's keys, and the registry's tables to
unmemoised runs.
"""

import dataclasses
import pickle
import struct

import numpy as np
import pytest

from repro.dsp import band_snr, periodogram, two_tone_sfdr
from repro.dsp.tones import coherent_frequency
from repro.engine import SimulationEngine, clear_caches, get_default_engine
from repro.experiments.common import calibrated
from repro.experiments.runner import REGISTRY
from repro.process import ChipFactory
from repro.receiver import (
    Chip,
    ConfigWord,
    STANDARDS,
    ToneStimulus,
    measure_modulator_snr,
    measure_receiver_snr,
    measure_sfdr,
    modulator_output_spectrum,
    signal_band,
    stimulus_frequency,
)
from repro.receiver.performance import (
    SFDR_DELTA_HZ,
    SFDR_POWER_DBM,
    measure_modulator_snr_batch,
    measure_receiver_snr_batch,
    measure_sfdr_batch,
)
from repro.service import ExperimentJob, FoundryService

STD = STANDARDS[0]
N = 512


def bits(measurement) -> tuple:
    """Every field of a measurement as its IEEE-754 bytes."""
    return tuple(
        struct.pack("<d", value)
        for value in dataclasses.astuple(measurement)
    )


def die(chip_id: int, lot: int = 2020) -> Chip:
    return Chip(variations=ChipFactory(lot_seed=lot).draw(chip_id))


class TestOneMeasurementPath:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_scalar_equals_the_original_formula(self, backend, monkeypatch):
        """The scalar measurement, now a batch of one, equals the
        formula it used to compute, field by field and bitwise."""
        monkeypatch.setattr(get_default_engine(), "backend", backend)
        chip = die(3)
        rng = np.random.default_rng(17)
        for seed in range(4):
            key = ConfigWord.random(rng)
            n = (N, 2 * N)[seed % 2]
            power = -25.0 - 5.0 * seed
            f_sig = stimulus_frequency(STD, chip.design.osr, n)
            result = chip.simulate_modulator(
                key, ToneStimulus.single(f_sig, power), STD.fs,
                n_samples=n, seed=seed, substeps=4,
            )
            f_lo, f_hi = signal_band(STD, chip.design.osr)
            expected = band_snr(
                periodogram(result.output, STD.fs), f_sig, f_lo, f_hi
            )
            got = measure_modulator_snr(
                chip, key, STD, power_dbm=power, n_fft=n, seed=seed
            )
            assert bits(got) == bits(expected)


    @staticmethod
    def keys(chip, standard) -> list:
        """Three random keys plus the die's calibrated key."""
        rng = np.random.default_rng(23)
        return [ConfigWord.random(rng) for _ in range(3)] + [
            calibrated(chip, standard).config
        ]

    @pytest.mark.parametrize("std_index", [0, 3])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_sfdr_equals_the_original_formula(self, backend, std_index,
                                              monkeypatch):
        monkeypatch.setattr(get_default_engine(), "backend", backend)
        chip, std = die(0), STANDARDS[std_index]
        keys = self.keys(chip, std)
        half = std.fs / (4.0 * chip.design.osr)
        n = 4 * N  # the two tones need a few bins of spacing
        f1 = coherent_frequency(std.f_center + 0.15 * half, std.fs, n)
        f2 = coherent_frequency(f1 + SFDR_DELTA_HZ, std.fs, n)
        f_lo, f_hi = signal_band(std, chip.design.osr)
        for seed, key in enumerate(keys):
            result = chip.simulate_modulator(
                key, ToneStimulus.two_tone(f1, f2, SFDR_POWER_DBM), std.fs,
                n_samples=n, seed=seed, substeps=4,
            )
            expected = two_tone_sfdr(
                periodogram(result.output, std.fs), f1, f2, f_lo, f_hi,
                search_bins=1,
            )
            got = measure_sfdr(chip, key, std, n_fft=n, seed=seed)
            assert bits(got) == bits(expected)
        batch = measure_sfdr_batch(chip, keys, std, n_fft=n)
        assert [bits(m) for m in batch] == [
            bits(measure_sfdr(chip, key, std, n_fft=n)) for key in keys
        ]

    @pytest.mark.parametrize("std_index", [0, 3])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_receiver_snr_equals_the_original_formula(self, backend,
                                                      std_index,
                                                      monkeypatch):
        monkeypatch.setattr(get_default_engine(), "backend", backend)
        chip, std = die(0), STANDARDS[std_index]
        keys = self.keys(chip, std)
        n_baseband = 128
        osr = chip.design.osr
        f_sig = stimulus_frequency(std, osr, n_baseband * osr)
        half = std.fs / (4.0 * osr)
        for seed, key in enumerate(keys):
            result = chip.simulate_receiver(
                key, ToneStimulus.single(f_sig, -25.0), std.fs,
                n_baseband=n_baseband, seed=seed, substeps=4,
            )
            expected = band_snr(
                periodogram(result.baseband, result.fs_out),
                f_sig - std.fs / 4.0, -half, half,
            )
            got = measure_receiver_snr(
                chip, key, std, n_baseband=n_baseband, seed=seed
            )
            assert bits(got) == bits(expected)
        batch = measure_receiver_snr_batch(
            chip, keys, std, n_baseband=n_baseband
        )
        assert [bits(m) for m in batch] == [
            bits(measure_receiver_snr(chip, key, std, n_baseband=n_baseband))
            for key in keys
        ]

    @pytest.mark.parametrize("std_index", [0, 3])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_spectrum_equals_the_original_formula(self, backend, std_index,
                                                  monkeypatch):
        monkeypatch.setattr(get_default_engine(), "backend", backend)
        chip, std = die(0), STANDARDS[std_index]
        f_sig = stimulus_frequency(std, chip.design.osr, N)
        for seed, key in enumerate(self.keys(chip, std)):
            result = chip.simulate_modulator(
                key, ToneStimulus.single(f_sig, -25.0), std.fs,
                n_samples=N, seed=seed, substeps=4,
            )
            expected = periodogram(result.output, std.fs)
            got = modulator_output_spectrum(chip, key, std, n_fft=N,
                                            seed=seed)
            assert pickle.dumps(got) == pickle.dumps(expected)


class TestMemoKeys:
    def engine(self) -> SimulationEngine:
        engine = SimulationEngine()
        engine.measurement_memo = {}
        return engine

    def keys(self, n: int = 3) -> list:
        rng = np.random.default_rng(5)
        return [ConfigWord.random(rng) for _ in range(n)]

    def test_rebuilt_die_hits(self):
        engine = self.engine()
        keys = self.keys()
        first = measure_modulator_snr_batch(
            die(1), keys, STD, n_fft=N, engine=engine
        )
        assert engine.stats.n_requests == len(keys)
        again = measure_modulator_snr_batch(
            die(1), keys, STD, n_fft=N, engine=engine
        )
        assert engine.stats.n_requests == len(keys)
        assert [bits(m) for m in again] == [bits(m) for m in first]

    @pytest.mark.parametrize(
        "change",
        [
            {"chip": die(2)},
            {"chip": die(1, lot=2021)},
            {"standard": STANDARDS[3]},
            {"power_dbm": -35.0},
            {"n_fft": 2 * N},
            {"seed": 1},
            {"substeps": 2},
        ],
        ids=["die", "lot", "standard", "power", "n_fft", "seed",
             "substeps"],
    )
    def test_any_other_setup_misses(self, change):
        engine = self.engine()
        keys = self.keys()
        setup = {"chip": die(1), "standard": STD, "power_dbm": -25.0,
                 "n_fft": N, "seed": 0, "substeps": 4}
        measure_modulator_snr_batch(
            configs=keys, engine=engine, **setup
        )
        setup.update(change)
        got = measure_modulator_snr_batch(
            configs=keys, engine=engine, **setup
        )
        assert engine.stats.n_requests == 2 * len(keys)
        unmemoised = measure_modulator_snr_batch(
            configs=keys, engine=SimulationEngine(), **setup
        )
        assert [bits(m) for m in got] == [bits(m) for m in unmemoised]

    def test_key_repeated_within_a_call_simulates_once(self):
        engine = self.engine()
        a, b = self.keys(2)
        got = measure_modulator_snr_batch(
            die(1), [a, b, a, a], STD, n_fft=N, engine=engine
        )
        assert engine.stats.n_requests == 2
        expected = measure_modulator_snr_batch(
            die(1), [a, b, a, a], STD, n_fft=N, engine=SimulationEngine()
        )
        assert [bits(m) for m in got] == [bits(m) for m in expected]

    def test_no_memo_outside_a_job(self):
        """Without a memo a call still simulates a repeated key once,
        and nothing carries over to the next call."""
        assert get_default_engine().measurement_memo is None
        engine = SimulationEngine()
        a, = self.keys(1)
        measure_modulator_snr_batch(die(1), [a, a], STD, n_fft=N,
                                    engine=engine)
        assert engine.stats.n_requests == 1
        measure_modulator_snr_batch(die(1), [a], STD, n_fft=N, engine=engine)
        assert engine.stats.n_requests == 2
        assert engine.measurement_memo is None


class TestRegistryMemo:
    #: The registry entries that measure Fig. 7's population again.
    NAMES = ("fig7", "fig8", "fig10", "fig11", "fig12", "tab-attack")

    def test_tables_match_unmemoised_runs_with_fewer_simulations(self):
        engine = get_default_engine()
        clear_caches()
        expected = []
        for name in self.NAMES:
            assert engine.measurement_memo is None
            expected.append(REGISTRY[name].execute().format_table())
        unmemoised = engine.stats.n_requests
        clear_caches()
        results = FoundryService().submit(
            ExperimentJob(names=self.NAMES)
        ).result()
        assert [r.format_table() for r in results] == expected
        assert engine.stats.n_requests < unmemoised
        assert engine.measurement_memo is None
