"""Input transconductor Gmin (paper Fig. 6).

Converts the VGLNA output voltage into the current injected into the LC
tank.  A 6-bit bias code sets the transconductance; a soft (tanh)
limiting characteristic gives it the finite linearity responsible for
the third-order intermodulation measured in the SFDR test (Fig. 12).
The calibration procedure turns the block off entirely (step 3) while
the tank is tuned in oscillation mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.variations import ChipVariations
from repro.receiver.design import FrontEndDesign


@dataclass(frozen=True)
class InputTransconductor:
    """A specific chip's Gmin: nominal design + variation draw."""

    design: FrontEndDesign
    variations: ChipVariations

    def gm(self, code: int, bias_scale: float = 1.0) -> float:
        """Transconductance for a 6-bit bias code, siemens."""
        if not 0 <= code < (1 << self.design.gmin_bits):
            raise ValueError(f"gmin code {code} out of range")
        return code * self.design.gmin_lsb * self.variations.gmin_scale * bias_scale

    def gm_vlin(self, code: int, bias_scale: float = 1.0) -> float:
        """Current scale ``gm * vlin`` of the characteristic, amperes."""
        return self.gm(code, bias_scale) * self.design.gmin_vlin

    def limiting_shape(self, v_in: np.ndarray) -> np.ndarray:
        """Soft-limiting shape ``tanh(v / vlin)`` of a voltage waveform;
        it depends on no code, so one waveform's shape serves them all."""
        return np.tanh(np.asarray(v_in, dtype=float) / self.design.gmin_vlin)

    def output_current(
        self,
        v_in: np.ndarray,
        code: int,
        enabled: bool,
        bias_scale: float = 1.0,
    ) -> np.ndarray:
        """Output current waveform for an input voltage waveform.

        The soft-limited characteristic is
        ``i = gm * vlin * tanh(v / vlin)``, :meth:`gm_vlin` times
        :meth:`limiting_shape`; its cubic term sets the block's IIP3.
        """
        if not enabled:
            return np.zeros_like(np.asarray(v_in, dtype=float))
        return self.gm_vlin(code, bias_scale) * self.limiting_shape(v_in)
