"""FIR filter design for the receiver's digital decimation chain.

The receiver decimates the 1-bit fs/4 band-pass bitstream by the OSR
(64) after down-conversion.  The chain (see :mod:`repro.dsp.decimate`)
uses a CIC first stage, a CIC droop-compensation FIR, and half-band
stages, all designed here from first principles (windowed-sinc), with a
frequency-response evaluator for verification.

Designed taps are *applied* through the pinned-order FIR of
:mod:`repro.dsp.decimate`, not through ``np.convolve``.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.windows import make_window


def design_lowpass(num_taps: int, cutoff: float, fs: float, window: str = "blackman") -> np.ndarray:
    """Windowed-sinc linear-phase low-pass FIR.

    Args:
        num_taps: Filter length (odd recommended for a symmetric type-I
            filter).
        cutoff: -6 dB cutoff frequency, Hz.
        fs: Sampling frequency, Hz.
        window: Window applied to the ideal sinc.

    Returns:
        Tap array normalised to unit DC gain.
    """
    if num_taps < 3:
        raise ValueError(f"num_taps must be >= 3, got {num_taps}")
    if not 0.0 < cutoff < fs / 2.0:
        raise ValueError(f"cutoff must be in (0, fs/2), got {cutoff}")
    m = np.arange(num_taps) - (num_taps - 1) / 2.0
    fc = cutoff / fs
    taps = 2.0 * fc * np.sinc(2.0 * fc * m)
    taps *= make_window(window, num_taps).samples
    return taps / np.sum(taps)


def design_halfband(num_taps: int, window: str = "blackman") -> np.ndarray:
    """Half-band low-pass FIR for decimation by 2.

    ``num_taps`` must be of the form 4k+3 so that every second tap (except
    the centre) is an exact zero of the sinc; the zeros are forced to
    eliminate design-window leakage.
    """
    if num_taps % 4 != 3:
        raise ValueError(f"half-band length must be 4k+3, got {num_taps}")
    taps = design_lowpass(num_taps, 0.25 * 1.0, 1.0, window)
    centre = (num_taps - 1) // 2
    for i in range(num_taps):
        if i != centre and (i - centre) % 2 == 0:
            taps[i] = 0.0
    return taps / np.sum(taps)


def design_cic_compensator(
    num_taps: int,
    cic_order: int,
    cic_rate: int,
    passband_fraction: float = 0.4,
    fs: float = 1.0,
) -> np.ndarray:
    """FIR that flattens CIC passband droop (inverse-sinc equaliser).

    Designed by frequency sampling: the target response is the inverse of
    the CIC magnitude up to ``passband_fraction`` of the post-CIC Nyquist
    frequency, rolling off to zero beyond it.

    Args:
        num_taps: Equaliser length (odd).
        cic_order: Number of integrator/comb stages of the CIC.
        cic_rate: CIC decimation factor.
        passband_fraction: Edge of the equalised band, as a fraction of
            the post-CIC Nyquist frequency.
        fs: Post-CIC sampling frequency (only sets the tap grid; the
            design is rate-relative).

    Returns:
        Tap array with unit DC gain.
    """
    if num_taps % 2 == 0:
        raise ValueError(f"compensator length must be odd, got {num_taps}")
    grid = np.linspace(0.0, 0.5, 512)
    target = np.zeros_like(grid)
    for i, f in enumerate(grid):
        if f <= passband_fraction * 0.5:
            target[i] = 1.0 / _cic_droop(f, cic_order, cic_rate)
        else:
            target[i] = 0.0
    # Frequency-sampling design: inverse DTFT of the (real, even) target.
    m = np.arange(num_taps) - (num_taps - 1) / 2.0
    taps = np.zeros(num_taps)
    df = grid[1] - grid[0]
    for i, f in enumerate(grid):
        weight = 1.0 if 0 < i < grid.size - 1 else 0.5
        taps += 2.0 * weight * target[i] * np.cos(2.0 * np.pi * f * m) * df
    taps *= make_window("hamming", num_taps).samples
    return taps / np.sum(taps)


def _cic_droop(f_relative: float, order: int, rate: int) -> float:
    """Magnitude of an order-``order`` CIC at ``f_relative`` (post-CIC rate).

    ``f_relative`` is in cycles/sample at the decimated rate.
    """
    f_in = f_relative / rate
    if abs(f_in) < 1e-12:
        return 1.0
    num = np.sin(np.pi * rate * f_in)
    den = rate * np.sin(np.pi * f_in)
    return float(abs(num / den) ** order)


def freq_response(taps: np.ndarray, freqs: np.ndarray, fs: float) -> np.ndarray:
    """Complex frequency response of an FIR at ``freqs`` (Hz)."""
    taps = np.asarray(taps, dtype=float)
    n = np.arange(taps.size)
    omega = 2.0 * np.pi * np.asarray(freqs) / fs
    return np.exp(-1j * np.outer(omega, n)) @ taps
