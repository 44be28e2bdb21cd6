"""Calibrated spectra for tone and noise measurements.

The convention used here makes a single calibrated periodogram serve both
tone-power and noise-power readings:

    P[k] = 2 |X[k]|^2 / (N^2 * CG^2 * NBW)

where ``CG`` is the window coherent gain and ``NBW`` its equivalent noise
bandwidth in bins.  With this scaling,

* the sum of ``P`` over a tone's main lobe equals the tone power in V^2
  (rms) — exactly for bin-centred tones with a Hann window, and
* the sum of ``P`` over any band of bins equals the white-noise power that
  falls in that band.

This is the measurement backbone for the paper's Figs. 7, 9, 10 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.windows import WindowInfo, make_window


@dataclass
class Spectrum:
    """One-sided (real input) or two-sided (complex input) power spectrum.

    Attributes:
        freqs: Bin centre frequencies in Hz.  For complex inputs these
            span ``[-fs/2, fs/2)``; for real inputs ``[0, fs/2]``.
        power: Calibrated bin powers in V^2 (see module docstring).
        fs: Sampling frequency in Hz.
        n: FFT length.
        window: The window used, with its calibration factors.
    """

    freqs: np.ndarray
    power: np.ndarray
    fs: float
    n: int
    window: WindowInfo

    @property
    def bin_width(self) -> float:
        """Frequency spacing between bins, Hz."""
        return self.fs / self.n

    def band_indices(self, f_lo: float, f_hi: float) -> np.ndarray:
        """Indices of bins whose centre lies in ``[f_lo, f_hi]``.

        The frequency grid is ascending, so the edges are found by
        bisection; the result is the same contiguous ascending run a
        mask scan would produce, at O(log n) instead of O(n) — metric
        decodes run once per measurement, which makes this a hot path
        for batched sweeps.
        """
        lo = int(np.searchsorted(self.freqs, f_lo, side="left"))
        hi = int(np.searchsorted(self.freqs, f_hi, side="right"))
        return np.arange(lo, hi)

    def band_power(self, f_lo: float, f_hi: float) -> float:
        """Total power (V^2) in the band ``[f_lo, f_hi]``."""
        idx = self.band_indices(f_lo, f_hi)
        return float(np.sum(self.power[idx]))

    def peak_index(self, f_lo: float, f_hi: float) -> int:
        """Index of the strongest bin in ``[f_lo, f_hi]``."""
        idx = self.band_indices(f_lo, f_hi)
        if idx.size == 0:
            raise ValueError(f"no bins in [{f_lo}, {f_hi}] Hz")
        return int(idx[np.argmax(self.power[idx])])

    def tone_indices(self, f_tone: float, search_bins: int = 3) -> np.ndarray:
        """Bins forming the main lobe of the tone nearest ``f_tone``.

        The peak is searched within ``search_bins`` of the nominal
        location to tolerate slight frequency error, then the window's
        main-lobe width is taken around the found peak.
        """
        # Nearest bin by bisection on the ascending grid — identical
        # (ties included: the lower index wins, as argmin's first-hit
        # rule would pick) to scanning |freqs - f_tone|, without the
        # full-array pass.
        position = int(np.searchsorted(self.freqs, f_tone))
        if position <= 0:
            nominal = 0
        elif position >= self.freqs.size:
            nominal = self.freqs.size - 1
        elif (
            f_tone - self.freqs[position - 1]
            <= self.freqs[position] - f_tone
        ):
            nominal = position - 1
        else:
            nominal = position
        lo = max(nominal - search_bins, 0)
        hi = min(nominal + search_bins, self.power.size - 1)
        local = lo + int(np.argmax(self.power[lo : hi + 1]))
        half = self.window.main_lobe_bins
        lobe_lo = max(local - half, 0)
        lobe_hi = min(local + half, self.power.size - 1)
        return np.arange(lobe_lo, lobe_hi + 1)

    def tone_power(self, f_tone: float, search_bins: int = 3) -> float:
        """Power (V^2) of the tone nearest ``f_tone``."""
        idx = self.tone_indices(f_tone, search_bins)
        return float(np.sum(self.power[idx]))

    def psd(self) -> np.ndarray:
        """Power spectral density in V^2/Hz."""
        return self.power / self.bin_width

    def psd_db(self, floor_db: float = -250.0) -> np.ndarray:
        """PSD in dBV^2/Hz, clipped below at ``floor_db`` to avoid -inf."""
        density = self.psd()
        with np.errstate(divide="ignore"):
            out = 10.0 * np.log10(density)
        return np.maximum(out, floor_db)


def periodogram(samples: np.ndarray, fs: float, window: str = "hann") -> Spectrum:
    """Calibrated periodogram of ``samples``.

    Real inputs yield a one-sided spectrum; complex inputs (e.g. the
    receiver's complex baseband output) a two-sided, fftshifted one.
    The one-row case of :func:`periodogram_batch`.
    """
    return periodogram_batch(np.asarray(samples)[None], fs, window)[0]


def periodogram_batch(
    samples: np.ndarray, fs: float, window: str = "hann"
) -> list[Spectrum]:
    """Calibrated periodograms of a ``(keys, samples)`` matrix, one pass.

    Key sweeps measure many records of one length at one clock, so the
    windowing and FFT run over the whole matrix (the FFT is applied
    along the last axis, which transforms each row exactly as a 1-D
    call does) and the window is designed once.  A row's spectrum does
    not depend on the other rows of its matrix (guarded in
    ``tests/test_dsp_windows_spectrum.py``), so :func:`periodogram` is
    the one-row case.
    """
    x = np.asarray(samples)
    if x.ndim != 2:
        raise ValueError(f"expected a (keys, samples) matrix, got shape {x.shape}")
    n_keys, n = x.shape
    if n_keys == 0:
        return []
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    win = make_window(window, n)
    xw = x * win.samples
    scale = 1.0 / (n**2 * win.coherent_gain**2 * win.noise_bandwidth_bins)
    if np.iscomplexobj(x):
        spec = np.fft.fftshift(np.fft.fft(xw, axis=-1), axes=-1)
        freqs = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / fs))
        power = np.abs(spec) ** 2 * scale
    else:
        spec = np.fft.rfft(xw, axis=-1)
        freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        power = np.abs(spec) ** 2 * (2.0 * scale)
        power[:, 0] *= 0.5
        if n % 2 == 0:
            power[:, -1] *= 0.5
    return [
        Spectrum(freqs=freqs, power=power[k], fs=fs, n=n, window=win)
        for k in range(n_keys)
    ]


def welch_psd(
    samples: np.ndarray,
    fs: float,
    segment_length: int,
    overlap: float = 0.5,
    window: str = "hann",
) -> Spectrum:
    """Welch-averaged spectrum for smoother PSD plots (paper Fig. 10).

    Segments of ``segment_length`` samples with fractional ``overlap``
    are individually windowed and their calibrated periodograms averaged.
    """
    x = np.asarray(samples)
    if segment_length > x.size:
        raise ValueError(
            f"segment_length {segment_length} exceeds signal length {x.size}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    step = max(int(segment_length * (1.0 - overlap)), 1)
    accumulated = None
    count = 0
    for start in range(0, x.size - segment_length + 1, step):
        seg = periodogram(x[start : start + segment_length], fs, window)
        if accumulated is None:
            accumulated = seg
            accumulated.power = accumulated.power.copy()
        else:
            accumulated.power += seg.power
        count += 1
    accumulated.power /= count
    return accumulated
