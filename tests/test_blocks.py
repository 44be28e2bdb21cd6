"""Analog block tests: tank tuning law, VGLNA, comparator, DAC, delay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks import (
    Comparator,
    FeedbackDac,
    InputTransconductor,
    LoopDelay,
    OutputBuffer,
    PreAmplifier,
    TunableLcTank,
    Vglna,
)
from repro.process import typical_chip
from repro.receiver.design import NOMINAL_DESIGN

DESIGN = NOMINAL_DESIGN
CHIP = typical_chip()


@pytest.fixture(scope="module")
def tank():
    return TunableLcTank(DESIGN.tank, CHIP)


class TestTank:
    def test_capacitance_monotone_in_coarse(self, tank):
        caps = [tank.capacitance(cc, 0) for cc in range(0, 256, 17)]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    @given(cc=st.integers(0, 255), cf=st.integers(0, 254))
    @settings(max_examples=50, deadline=None)
    def test_capacitance_monotone_in_fine(self, tank, cc, cf):
        assert tank.capacitance(cc, cf + 1) > tank.capacitance(cc, cf)

    def test_tuning_range_covers_standards(self, tank):
        f_max = tank.resonance_frequency(0, 0)
        f_min = tank.resonance_frequency(255, 255)
        assert f_max > 3.0e9
        assert f_min < 1.5e9

    def test_code_out_of_range(self, tank):
        with pytest.raises(ValueError):
            tank.capacitance(256, 0)
        with pytest.raises(ValueError):
            tank.gmq(64)

    def test_critical_gmq_marks_oscillation(self, tank):
        code = tank.critical_gmq_code(10, 128)
        assert tank.quality_factor(10, 128, code) == math.inf
        assert tank.quality_factor(10, 128, code - 1) < math.inf

    def test_quality_factor_rises_with_gmq(self, tank):
        critical = tank.critical_gmq_code(10, 128)
        qs = [tank.quality_factor(10, 128, g) for g in range(0, critical, 5)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_state_matrices_are_stable(self, tank):
        a, b = tank.state_matrices(10, 128)
        eigs = np.linalg.eigvals(a)
        assert np.all(eigs.real < 0)
        assert b.shape == (2, 1)

    def test_gmq_current_saturates(self, tank):
        i_small = tank.gmq_current(40, 1e-3)
        i_large = tank.gmq_current(40, 10.0)
        assert i_small == pytest.approx(tank.gmq(40) * 1e-3, rel=1e-3)
        assert i_large == pytest.approx(tank.gmq(40) * DESIGN.tank.gmq_vsat, rel=1e-3)


class TestVglna:
    def test_sixteen_gain_levels(self):
        lna = Vglna(DESIGN.vglna, CHIP)
        gains = [lna.gain_db(c) for c in range(16)]
        assert gains[0] == pytest.approx(-3.0)
        assert gains[15] == pytest.approx(42.0)
        steps = np.diff(gains)
        assert np.allclose(steps, 3.0)

    def test_small_signal_gain_matches_code(self, rng):
        lna = Vglna(DESIGN.vglna, CHIP)
        x = 1e-4 * np.sin(np.linspace(0, 20 * np.pi, 4096))
        y = lna.process(
            x, code=8, bandwidth=1.0, noise=rng.standard_normal(x.shape)
        )
        gain = np.std(y) / np.std(x)
        assert 20 * np.log10(gain) == pytest.approx(lna.gain_db(8), abs=0.5)

    def test_large_signal_compresses(self, rng):
        lna = Vglna(DESIGN.vglna, CHIP)
        x = 0.5 * np.sin(np.linspace(0, 20 * np.pi, 4096))
        y = lna.process(
            x, code=15, bandwidth=1.0, noise=rng.standard_normal(x.shape)
        )
        assert np.max(np.abs(y)) <= DESIGN.vglna.v_clip + 1e-9

    def test_noise_grows_at_low_gain(self):
        lna = Vglna(DESIGN.vglna, CHIP)
        assert lna.input_noise_density(0) > lna.input_noise_density(15)

    def test_code_out_of_range(self):
        lna = Vglna(DESIGN.vglna, CHIP)
        with pytest.raises(ValueError):
            lna.gain_db(16)


class TestFrontEndBlocks:
    def test_gmin_linear_and_limited(self):
        gmin = InputTransconductor(DESIGN.front_end, CHIP)
        small = gmin.output_current(np.array([1e-3]), 32, enabled=True)[0]
        assert small == pytest.approx(gmin.gm(32) * 1e-3, rel=1e-3)
        big = gmin.output_current(np.array([10.0]), 32, enabled=True)[0]
        assert big == pytest.approx(
            gmin.gm(32) * DESIGN.front_end.gmin_vlin, rel=1e-3
        )

    def test_gmin_disabled_is_silent(self):
        gmin = InputTransconductor(DESIGN.front_end, CHIP)
        out = gmin.output_current(np.ones(8), 63, enabled=False)
        assert np.all(out == 0.0)

    def test_preamp_gain_monotone_with_code(self):
        pre = PreAmplifier(DESIGN.front_end, CHIP)
        gains = [pre.gain(c) for c in range(32)]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[0] < 0.1  # starved at code 0

    def test_preamp_clips(self):
        pre = PreAmplifier(DESIGN.front_end, CHIP)
        assert abs(pre.amplify(5.0, 31)) <= DESIGN.front_end.preamp_v_clip

    def test_comparator_decides_sign(self):
        comp = Comparator(DESIGN.front_end, CHIP)
        assert comp.decide(0.3, 31, 0.0, previous=-1.0) == 1.0
        assert comp.decide(-0.3, 31, 0.0, previous=1.0) == -1.0

    def test_comparator_hysteresis_holds_small_inputs(self):
        comp = Comparator(DESIGN.front_end, CHIP)
        h = DESIGN.front_end.comp_hysteresis
        assert comp.decide(-h / 2, 31, 0.0, previous=1.0) == 1.0

    def test_comparator_noise_grows_when_starved(self):
        comp = Comparator(DESIGN.front_end, CHIP)
        assert comp.decision_noise(0) > comp.decision_noise(31)

    def test_comparator_buffer_mode_clamps_and_distorts(self):
        comp = Comparator(DESIGN.front_end, CHIP)
        assert abs(comp.buffer_output(5.0, 31, 0.0)) <= comp.BUFFER_CLAMP + 1e-9
        small = comp.buffer_output(1e-3, 31, 0.0)
        assert small == pytest.approx(comp.BUFFER_GAIN * 1e-3, rel=0.05)

    def test_dac_full_scale_monotone(self):
        dac = FeedbackDac(DESIGN.front_end, CHIP)
        scales = [dac.full_scale(c) for c in range(64)]
        assert all(b > a for a, b in zip(scales, scales[1:]))

    def test_dac_disabled(self):
        dac = FeedbackDac(DESIGN.front_end, CHIP)
        assert dac.output_current(1.0, 32, enabled=False) == 0.0

    def test_delay_mapping(self):
        delay = LoopDelay(DESIGN.front_end, CHIP)
        assert delay.delay_periods(12) == pytest.approx(1.5)
        assert delay.delay_periods(0) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            delay.delay_periods(16)

    def test_buffer_gain_codes(self):
        buf = OutputBuffer(DESIGN.front_end, CHIP)
        assert buf.gain(0) == pytest.approx(0.8)
        assert buf.gain(7) == pytest.approx(1.15)
