"""Continuous-time band-pass sigma-delta modulator: result/block records.

The loop of Fig. 6 — Gmin, LC tank with -Gm enhancement, pre-amplifier,
clocked comparator, loop delay, NRZ feedback DAC — is integrated with an
exact zero-order-hold discretisation of the linear tank over ``substeps``
sub-intervals per clock period.  The matrix exponential makes the linear
part exact at any step size; the two nonlinear currents (-Gm saturation
and the DAC's drive characteristic) and the input current are treated as
piecewise-constant over a sub-interval, which at 4 substeps per clock
(48 GHz update rate for the 3 GHz standard) is far inside the accuracy
needed for behavioural security experiments.

Everything the configuration word controls is honoured, including the
loop-topology enables that the calibration procedure manipulates:

* ``fb_en``/``dac_en`` open the feedback loop (steps 4, 8),
* ``comp_clk_en`` turns the comparator into a buffer (step 1) — with the
  clock off the modulator output is the *analog* pre-amplifier output,
  the mechanism of the paper's deceptive key,
* ``gmin_en`` disconnects the RF input (step 3),
* maximum ``gmq_code`` with the loop open puts the tank in oscillation
  mode (step 5).

The integrator itself lives in :mod:`repro.engine` (per-key setup in
``engine.plan``, the scalar reference recursion in ``engine.reference``
and the compiled key-axis kernel behind ``engine.native``); this module
keeps the data records they share.  A single key is simulated through
the engine too: :meth:`repro.receiver.receiver.Chip.simulate_modulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from repro.receiver.config import ConfigWord


@dataclass(frozen=True)
class ModulatorResult:
    """Output record of a modulator transient simulation.

    Attributes:
        output: Modulator output at the clock rate — the +/-1 bitstream
            scaled by the output-buffer gain in normal mode, or the
            buffered analog pre-amplifier output in buffer mode.
        bits: Raw comparator decisions (+/-1); meaningful only when
            ``is_bitstream``.
        tank_voltage: Tank voltage sampled at the clock edges.
        fs: Clock (sampling) frequency, Hz.
        is_bitstream: True when the comparator was clocked.
    """

    output: np.ndarray
    bits: np.ndarray
    tank_voltage: np.ndarray
    fs: float
    is_bitstream: bool


@dataclass(frozen=True)
class ModulatorBlocks:
    """The per-chip block set the simulator operates on."""

    tank: TunableLcTank
    vglna: Vglna
    gmin: InputTransconductor
    preamp: PreAmplifier
    comparator: Comparator
    dac: FeedbackDac
    delay: LoopDelay
    buffer: OutputBuffer
    tank_current_noise: float
    dither_amplitude: float
    bias_global_step: float


def oscillation_config(config: ConfigWord, gmq_code: int | None = None) -> ConfigWord:
    """Configuration for tank oscillation mode (calibration steps 1-5).

    Comparator as buffer, input off, feedback off, -Gm at the requested
    code (maximum by default).
    """
    if gmq_code is None:
        gmq_code = 63
    return config.replace(
        comp_clk_en=0,
        gmin_en=0,
        fb_en=0,
        dac_en=0,
        gmq_code=gmq_code,
    )
