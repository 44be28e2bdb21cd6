"""Digital section of the receiver: slicer, fs/4 mixer, decimation.

The modulator's output buffer drives standard digital logic.  The first
thing that logic does — implicitly — is interpret its input against a
logic threshold.  For a proper +/-1 bitstream this is transparent; for
the *analog* waveform produced by a deceptive key (comparator in buffer
mode) the slicer crushes the signal, which is why the deceptive key's
SNR collapses between Fig. 7 (modulator output) and Fig. 9 (receiver
output) in the paper.

After slicing, the stream is down-converted by the multiplier-free fs/4
mixer and decimated by the OSR through the CIC + compensation + half-band
chain of :mod:`repro.dsp.decimate`.

The chain has one path, :meth:`DigitalChain.process_matrix`: the
slicer, mixer and decimators all take the whole ``(keys, samples)``
batch in one pass (the engine's ``run_receiver`` routes batched
requests through it), and :meth:`DigitalChain.process` on one record is
its one-row case.  A key's result does not depend on the rest of its
batch (guarded in ``tests/test_receiver_chain.py``).  The FIR stages
inside run the pinned-order batch convolution (C kernel with a
bit-identical NumPy fallback — see :mod:`repro.dsp.decimate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dsp.decimate import DecimationChain, fs4_mixer_sequences
from repro.receiver.config import DigitalConfig


@dataclass(frozen=True)
class ReceiverResult:
    """Complex baseband output of the full receiver chain.

    Attributes:
        baseband: Complex baseband samples at ``fs_out``.
        fs_out: Output sampling rate (``fs / osr``), Hz.
        fs_mod: Modulator clock rate, Hz.
    """

    baseband: np.ndarray
    fs_out: float
    fs_mod: float


@dataclass
class DigitalChain:
    """The receiver's digital back-end for one standard profile.

    Args:
        osr: Decimation factor (oversampling ratio).
        logic_threshold: Input slicer threshold, volts.
        digital_config: The 3 digital programming bits.  They select the
            standard profile; a mismatched profile mis-centres the band
            but, as the paper notes, deriving these 3 bits is
            straightforward — they are not part of the key.
    """

    osr: int = 64
    logic_threshold: float = 0.0
    digital_config: DigitalConfig = field(default_factory=DigitalConfig)
    _decimator: DecimationChain = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._decimator = DecimationChain(osr=self.osr)

    def slice_input(self, samples: np.ndarray) -> np.ndarray:
        """Logic-level interpretation of the modulator output."""
        return np.where(np.asarray(samples) >= self.logic_threshold, 1.0, -1.0)

    def process(self, modulator_output: np.ndarray, fs: float) -> ReceiverResult:
        """Slice, down-convert and decimate one modulator output record:
        the one-row case of :meth:`process_matrix`."""
        return self.process_matrix(np.asarray(modulator_output)[None], fs)[0]

    def process_matrix(
        self, modulator_outputs: np.ndarray, fs: float | Sequence[float]
    ) -> list[ReceiverResult]:
        """Slice, down-convert and decimate a ``(keys, samples)`` matrix
        of modulator output records in one pass.

        The slicer and fs/4 mixer are elementwise over the matrix, and
        the I and Q streams of every key are stacked into a single
        ``(2 * keys, samples)`` matrix so the decimation chain runs once
        for the whole batch.

        Args:
            modulator_outputs: ``(keys, samples)`` modulator records.
            fs: Modulator clock rate, shared or one per key.
        """
        outputs = np.asarray(modulator_outputs)
        if outputs.ndim != 2:
            raise ValueError(
                f"expected a (keys, samples) matrix, got shape {outputs.shape}"
            )
        n_keys, n_samples = outputs.shape
        fs_per_key = (
            [float(fs)] * n_keys
            if np.isscalar(fs)
            else [float(f) for f in fs]
        )
        if len(fs_per_key) != n_keys:
            raise ValueError(
                f"got {len(fs_per_key)} clock rates for {n_keys} keys"
            )
        if n_keys == 0:
            return []
        sliced = self.slice_input(outputs)
        seq_i, seq_q = fs4_mixer_sequences(n_samples)
        streams = np.concatenate([sliced * seq_i, sliced * seq_q], axis=0)
        decimated = self._decimator.process_matrix(streams)
        baseband = decimated[:n_keys] + 1j * decimated[n_keys:]
        return [
            ReceiverResult(
                baseband=baseband[k],
                fs_out=fs_per_key[k] / self.osr,
                fs_mod=fs_per_key[k],
            )
            for k in range(n_keys)
        ]
