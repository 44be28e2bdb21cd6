"""Decimation structures for the receiver's digital back-end.

The paper's receiver (Fig. 4) follows the band-pass sigma-delta modulator
with a digital down-conversion mixer and a decimation filter.  After the
fs/4 mixer the complex baseband stream is decimated by the OSR (64 for
the reference standard) through:

    CIC (order 4, R = 16)  ->  CIC droop compensator  ->  2 half-bands

Each structure is implemented operationally (integrator/comb chains,
polyphase-free direct convolution) rather than as a single black-box
filter, so that the digital section can be locked/unlocked at the block
level by the MixLock baseline.

Every stage has one path, ``process_matrix``, over a ``(keys,
samples)`` matrix: key sweeps decimate the whole batch in one pass, and
``process`` on a single record is its one-row case.  A row's output
does not depend on the other rows — integrators are per-row cumulative
sums (NumPy accumulates each row of an ``axis=-1`` cumsum in the same
sequential order as a 1-D call), combs and subsampling are elementwise,
and the FIR stages run one *pinned-order* convolution primitive (see
below) — so a record decimates to the same bits alone or in a batch
(guarded in ``tests/test_dsp_filters_decimate.py``).

Pinned-order FIR
----------------

The FIR stages used to keep ``np.convolve`` per row because its inner
accumulation order (a BLAS dot under the hood) is implementation-
defined, which made the scalar path itself the only spec.  That is
exactly why it had to go: a build-dependent sum order can never be
matched by a compiled batch kernel — or by another BLAS.  The stages
now accumulate each 'same'-aligned output sample in an *explicitly
pinned* ascending-tap order over the zero-padded row,

    y[i] = ((0 + taps[0]*x[i+s]) + taps[1]*x[i+s-1]) + ...

which two independent implementations transcribe exactly:
:func:`fir_same_pinned` here (a tap-outer NumPy loop whose per-element
left fold is that sum tree, usable with no compiler anywhere) and the
threaded ``repro_fir_batch`` entry of the engine kernel
(:func:`repro.engine.native.fir_batch_native`, used whenever the
kernel is available).  C and NumPy are bit-identical to each other on
every platform — a stronger exactness property than the np.convolve
path ever had, and the per-row Python convolution loop in matrix
sweeps is gone.  Against ``np.convolve`` itself the pinned order
agrees to a few ULPs (guarded differentially in
``tests/test_dsp_filters_decimate.py``), differing only where BLAS
multi-accumulator dots reassociate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.filters import design_cic_compensator, design_halfband


@dataclass
class CicDecimator:
    """Hogenauer cascaded integrator-comb decimator.

    Attributes:
        rate: Decimation factor R.
        order: Number of integrator and comb stages N.
        differential_delay: Comb differential delay M (usually 1).
    """

    rate: int
    order: int = 4
    differential_delay: int = 1

    def __post_init__(self) -> None:
        if self.rate < 2:
            raise ValueError(f"CIC rate must be >= 2, got {self.rate}")
        if self.order < 1:
            raise ValueError(f"CIC order must be >= 1, got {self.order}")

    @property
    def gain(self) -> float:
        """DC gain (R*M)^N of the raw CIC structure."""
        return float((self.rate * self.differential_delay) ** self.order)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Decimate one record: the one-row case of :meth:`process_matrix`."""
        return self.process_matrix(np.asarray(samples)[None])[0]

    def process_matrix(self, samples: np.ndarray) -> np.ndarray:
        """Decimate every row of a ``(keys, samples)`` matrix by
        ``rate``, normalised to unit DC gain.

        Integrators run at the input rate (cumulative sums along each
        row), the rows are subsampled, then combs run at the output
        rate.
        """
        x = np.asarray(samples, dtype=complex if np.iscomplexobj(samples) else float)
        if x.ndim != 2:
            raise ValueError(f"expected a (keys, samples) matrix, got shape {x.shape}")
        for _ in range(self.order):
            x = np.cumsum(x, axis=-1)
        x = x[:, :: self.rate]
        dd = self.differential_delay
        for _ in range(self.order):
            delayed = np.concatenate(
                [np.zeros((x.shape[0], dd), dtype=x.dtype), x[:, :-dd]], axis=-1
            )
            x = x - delayed
        return x / self.gain


def fir_same_pinned(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Pinned-order 'same'-aligned FIR of every row of ``x``.

    The portable transcription of the kernel's ``repro_fir_batch``:
    each output sample accumulates ``taps[0]`` first and ``taps[-1]``
    last over the zero-padded row, so the per-element sum tree is a
    plain left fold — the tap-outer loop below performs exactly that
    fold element-wise, making this bit-identical to the C kernel on
    every platform (zero-padded terms included: both sides accumulate
    them rather than skip, which keeps IEEE signed zeros identical for
    the exactly-zero samples the fs/4 mixer produces).

    Output is aligned and shaped like ``np.convolve(row, taps,
    "same")`` — ``(rows, max(samples, taps))`` — and matches it to a
    few ULPs; bitwise it matches only the pinned order.

    Args:
        x: ``(rows, samples)`` real matrix.
        taps: 1-D filter taps.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (rows, samples) matrix, got shape {x.shape}")
    taps = np.asarray(taps, dtype=np.float64)
    n, m = x.shape[1], taps.size
    if m == 0:
        raise ValueError("taps must be non-empty")
    out_n = max(n, m)
    if x.shape[0] == 0:
        return np.empty((0, out_n))
    if n == 0:
        raise ValueError("samples cannot be empty")  # as np.convolve
    # 'same' alignment: y[i] = full[i + start], start = (min(n,m)-1)//2.
    s0 = (min(n, m) - 1) // 2 + m - 1
    padded = np.zeros((x.shape[0], out_n + s0))
    padded[:, m - 1 : m - 1 + n] = x
    out = np.zeros((x.shape[0], out_n))
    for k in range(m):
        out += taps[k] * padded[:, s0 - k : s0 - k + out_n]
    return out


def _fir_rows(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Pinned-order FIR rows via the kernel when available.

    Kernel and transcription are bit-identical, so this dispatch is
    pure throughput policy.  Imported lazily: the engine package
    imports the receiver stack, which imports this module.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and x.shape[0] > 0 and x.shape[1] > 0:
        from repro.engine import native

        if native.kernel_available():
            return native.fir_batch_native(x, taps)
    return fir_same_pinned(x, taps)


@dataclass
class FirDecimator:
    """Direct-form FIR filter followed by subsampling, through the
    pinned-order convolution (module docstring)."""

    taps: np.ndarray
    rate: int = 1

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=float)
        if self.rate < 1:
            raise ValueError(f"rate must be >= 1, got {self.rate}")

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter one record: the one-row case of :meth:`process_matrix`."""
        return self.process_matrix(np.asarray(samples)[None])[0]

    def process_matrix(self, samples: np.ndarray) -> np.ndarray:
        """Filter every row of a ``(keys, samples)`` matrix, then keep
        every ``rate``-th sample ('same' alignment).

        One pinned-order batch convolution covers every key (threaded
        in the kernel path).
        """
        x = np.asarray(samples)
        if x.ndim != 2:
            raise ValueError(f"expected a (keys, samples) matrix, got shape {x.shape}")
        if np.iscomplexobj(x):
            y = self._filter(x.real) + 1j * self._filter(x.imag)
        else:
            y = self._filter(x)
        return y[:, :: self.rate]

    def _filter(self, x: np.ndarray) -> np.ndarray:
        return _fir_rows(x, self.taps)


@dataclass
class DecimationChain:
    """Complete OSR decimator: CIC + compensator + half-band stages.

    Args:
        osr: Overall decimation factor; must be ``cic_rate * 2**n_halfbands``.
        cic_rate: First-stage CIC decimation factor.
        cic_order: CIC order.
        compensator_taps: Length of the droop-compensation FIR.
        halfband_taps: Length of each half-band FIR (4k+3).
    """

    osr: int = 64
    cic_rate: int = 16
    cic_order: int = 4
    compensator_taps: int = 33
    halfband_taps: int = 31
    _stages: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        residual = self.osr // self.cic_rate
        if self.cic_rate * residual != self.osr or residual & (residual - 1):
            raise ValueError(
                f"osr {self.osr} must equal cic_rate {self.cic_rate} times a power of two"
            )
        stages: list = [CicDecimator(rate=self.cic_rate, order=self.cic_order)]
        comp = design_cic_compensator(
            self.compensator_taps, self.cic_order, self.cic_rate
        )
        stages.append(FirDecimator(taps=comp, rate=1))
        n_halfbands = residual.bit_length() - 1
        for _ in range(n_halfbands):
            stages.append(FirDecimator(taps=design_halfband(self.halfband_taps), rate=2))
        self._stages = stages

    @property
    def stages(self) -> list:
        """The ordered list of decimation stages."""
        return list(self._stages)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Run one record through the full chain: the one-row case of
        :meth:`process_matrix`."""
        return self.process_matrix(np.asarray(samples)[None])[0]

    def process_matrix(self, samples: np.ndarray) -> np.ndarray:
        """Run every row of a ``(keys, samples)`` matrix through the
        full chain (complex-safe), one pass per stage."""
        x = np.asarray(samples)
        if x.ndim != 2:
            raise ValueError(f"expected a (keys, samples) matrix, got shape {x.shape}")
        if np.iscomplexobj(x):
            real = x.real.astype(float)
            imag = x.imag.astype(float)
            for stage in self._stages:
                real = stage.process_matrix(real)
                imag = stage.process_matrix(imag)
            return real + 1j * imag
        x = x.astype(float)
        for stage in self._stages:
            x = stage.process_matrix(x)
        return x


def fs4_mixer_sequences(n: int) -> tuple[np.ndarray, np.ndarray]:
    """In-phase and quadrature fs/4 local-oscillator sequences.

    With the modulator clocked at exactly four times the centre frequency
    (paper calibration step 10), digital down-conversion reduces to the
    multiplier-free sequences ``[1, 0, -1, 0]`` and ``[0, -1, 0, 1]``.
    """
    base_i = np.array([1.0, 0.0, -1.0, 0.0])
    base_q = np.array([0.0, -1.0, 0.0, 1.0])
    reps = -(-n // 4)
    return np.tile(base_i, reps)[:n], np.tile(base_q, reps)[:n]
