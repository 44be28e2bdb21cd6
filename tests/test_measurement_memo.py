"""The modulator-SNR measurement path and its job-scoped memo.

``measure_modulator_snr`` is the one-key case of
``measure_modulator_snr_batch``, and an in-process ``ExperimentJob``
attaches a measurement memo to the default engine, so each distinct
measurement of a registry run is simulated once.  These tests hold the
single path to the original scalar formula, the memo's keys, and the
registry's tables to unmemoised runs.
"""

import dataclasses
import struct

import numpy as np
import pytest

from repro.dsp import band_snr, periodogram
from repro.engine import SimulationEngine, clear_caches, get_default_engine
from repro.experiments.runner import REGISTRY
from repro.process import ChipFactory
from repro.receiver import (
    Chip,
    ConfigWord,
    STANDARDS,
    ToneStimulus,
    measure_modulator_snr,
    signal_band,
    stimulus_frequency,
)
from repro.receiver.performance import measure_modulator_snr_batch
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
