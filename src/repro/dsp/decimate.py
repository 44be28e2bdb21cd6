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

The FIR stages (the droop compensator and the half-bands) have one
implementation, :func:`fir_same_pinned`, a tap-outer NumPy loop over
the whole matrix.  It accumulates each 'same'-aligned output sample in
an *explicitly pinned* ascending-tap order over the zero-padded row,

    y[i] = ((0 + taps[0]*x[i+s]) + taps[1]*x[i+s-1]) + ...

one elementwise multiply and one elementwise add per tap, each a
single IEEE-754 rounding per element.  ``np.convolve`` is not used
because its inner accumulation order (a BLAS-style dot) is
implementation-defined: it may reassociate the sum differently on
another NumPy build or CPU, and the receiver's output bits, which the
reports and the pinned digests rest on, would then move with it.  The
pinned fold's bits depend only on the data and the taps (pinned by
sha256 in ``tests/test_dsp_filters_decimate.py``); against
``np.convolve`` it agrees to a few ULPs (guarded there too).
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

    Each output sample accumulates ``taps[0]`` first and ``taps[-1]``
    last over the zero-padded row, so the per-element sum tree is a
    plain left fold, which the tap-outer loop below performs element-
    wise (module docstring).  Zero-padded and exactly-zero terms are
    accumulated, never skipped, which keeps the IEEE signed zeros of
    the exactly-zero samples the fs/4 mixer produces fixed too.

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

        One pinned-order batch convolution covers every key.
        """
        x = np.asarray(samples)
        if x.ndim != 2:
            raise ValueError(f"expected a (keys, samples) matrix, got shape {x.shape}")
        if np.iscomplexobj(x):
            y = (fir_same_pinned(x.real, self.taps)
                 + 1j * fir_same_pinned(x.imag, self.taps))
        else:
            y = fir_same_pinned(x, self.taps)
        return y[:, :: self.rate]


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
