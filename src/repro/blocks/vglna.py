"""Variable-gain low-noise amplifier (paper Fig. 5).

Five cascaded gain stages with resistive feedback; a 4-bit word selects
one of 16 overall gain levels so the receiver's sensitivity and dynamic
range can track the target standard (paper calibration step 12).  Each
stage clips softly, so large inputs at high gain settings compress —
this produces the dynamic-range behaviour of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.variations import ChipVariations
from repro.receiver.design import VglnaDesign


@dataclass(frozen=True)
class Vglna:
    """A specific chip's VGLNA: nominal design + variation draw."""

    design: VglnaDesign
    variations: ChipVariations

    def gain_db(self, code: int) -> float:
        """Nominal voltage gain in dB for a 4-bit gain code."""
        if not 0 <= code < 16:
            raise ValueError(f"lna gain code {code} out of range")
        return self.design.gain_min_db + code * self.design.gain_step_db

    def stage_gains(self, code: int) -> np.ndarray:
        """Linear per-stage gains, including per-stage process error."""
        d = self.design
        total_db = self.gain_db(code)
        per_stage_db = total_db / d.n_stages + self.variations.lna_stage_gain_err_db
        return 10.0 ** (per_stage_db / 20.0)

    def input_noise_density(self, code: int) -> float:
        """Input-referred noise density at this gain setting, V/sqrt(Hz).

        Lower gain settings are noisier (feedback attenuates the signal
        before the noisy stages), modelled as a per-step noise penalty.
        """
        d = self.design
        steps_below_max = 15 - code
        return (
            d.noise_density
            * d.noise_per_step**steps_below_max
            * self.variations.noise_scale
        )

    def process(
        self,
        samples: np.ndarray,
        code: int,
        bandwidth: float,
        noise: np.ndarray,
    ) -> np.ndarray:
        """Amplify ``samples`` through the five clipping stages.

        Args:
            samples: Input voltage waveform.
            code: 4-bit gain code.
            bandwidth: Noise integration bandwidth of the sampled
                representation (half the sample rate), Hz.
            noise: Standard-normal record, same shape as ``samples``.
                The input-referred noise is ``0.0 + sigma * noise``,
                NumPy's own arithmetic for ``normal(0.0, sigma)``, so
                passing ``rng.standard_normal(samples.shape)`` gives
                bit for bit ``rng.normal(0.0, sigma, samples.shape)``
                (see :mod:`repro.engine.plan`).

        Returns:
            Output voltage waveform, same shape as ``samples``.
        """
        d = self.design
        sigma = self.input_noise_density(code) * np.sqrt(bandwidth)
        x = samples + (0.0 + sigma * noise)
        for gain in self.stage_gains(code):
            # Soft clip per stage: linear for small signals, saturating
            # to +/- v_clip — a resistive-feedback inverter's transfer.
            x = d.v_clip * np.tanh(gain * x / d.v_clip)
        return x
