"""ATE-style measurements used by the off-chip calibration.

The calibration algorithm never inspects the chip model's internals: it
observes the output buffer, exactly like the paper's off-chip flow with
external automated test equipment.  This module provides the two meters
the procedure needs: an oscillation-frequency meter (FFT peak with
parabolic interpolation) and an oscillation detector (envelope growth).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.dsp.spectrum import periodogram, periodogram_batch


def _centered(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean-removed record and its RMS — the meter's common front end.

    Shared by the scalar and batched frequency meters so the gate
    arithmetic is the same code (bit-identity by construction).
    """
    x = np.asarray(samples, dtype=float)
    x = x - np.mean(x)
    return x, float(np.sqrt(np.mean(x**2)))


def _peak_frequency(power: np.ndarray, fs: float, n: int) -> float | None:
    """Interpolated peak frequency of one calibrated power spectrum.

    The periodogram-peak + parabolic-log-interpolation back end shared
    by the scalar and batched meters; ``fs / n`` is the bin width.
    """
    peak = int(np.argmax(power[1:-1])) + 1
    total = float(np.sum(power))
    if power[peak] < 0.2 * total:
        # Power not concentrated in a line: noise, not oscillation.
        return None
    p_l = max(power[peak - 1], 1e-300)
    p_c = max(power[peak], 1e-300)
    p_r = max(power[peak + 1], 1e-300)
    a, b, c = math.log(p_l), math.log(p_c), math.log(p_r)
    denom = a - 2.0 * b + c
    delta = 0.0 if abs(denom) < 1e-12 else 0.5 * (a - c) / denom
    delta = max(min(delta, 0.5), -0.5)
    return (peak + delta) * (fs / n)


def oscillation_frequency(samples: np.ndarray, fs: float) -> float | None:
    """Dominant oscillation frequency of a captured waveform, Hz.

    Uses the periodogram peak refined by parabolic interpolation of the
    log-power of the three bins around it (standard frequency-metering
    practice, good to a small fraction of a bin).  Returns None when the
    record is not oscillating (no dominant line above the noise).
    """
    x, rms = _centered(samples)
    if rms < 1e-6:
        return None
    spec = periodogram(x, fs, window="hann")
    return _peak_frequency(spec.power, fs, spec.n)


def oscillation_frequency_batch(
    records: Sequence[np.ndarray], fs: float | Sequence[float]
) -> list[float | None]:
    """Batched :func:`oscillation_frequency` over many captured records.

    One fused windowed FFT per record length replaces the per-record
    scalar periodogram — the fleet calibrator's lockstep rounds meter
    every active die's frequency probe here in one call instead of one
    FFT per die per round.  Per record this is bit-identical to the
    scalar meter: centering and gates run the same shared helpers, and
    a :func:`~repro.dsp.spectrum.periodogram_batch` row equals the 1-D
    :func:`~repro.dsp.spectrum.periodogram` bitwise (spectrum *power*
    does not depend on ``fs``, so records may mix clock rates freely —
    only the final bin-width scaling is per record).

    Args:
        records: Captured waveforms; lengths may differ (records group
            by length internally).
        fs: Sampling rate, shared or one per record.

    Returns:
        One frequency (or None for a non-oscillating record) per
        record, in order.
    """
    records = list(records)
    if np.isscalar(fs):
        fss = [float(fs)] * len(records)
    else:
        fss = [float(f) for f in fs]
    if len(fss) != len(records):
        raise ValueError(f"got {len(fss)} rates for {len(records)} records")
    out: list[float | None] = [None] * len(records)
    by_length: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, record in enumerate(records):
        x, rms = _centered(record)
        if rms < 1e-6:
            continue
        by_length.setdefault(x.size, []).append((i, x))
    for group in by_length.values():
        # Power is fs-independent, so one batch call serves mixed
        # clocks; any member's rate works as the placeholder.
        specs = periodogram_batch(
            np.stack([x for _, x in group]), fss[group[0][0]], window="hann"
        )
        for (i, _), spec in zip(group, specs):
            out[i] = _peak_frequency(spec.power, fss[i], spec.n)
    return out


def is_oscillating(samples: np.ndarray, fs: float, min_amplitude: float = 0.08) -> bool:
    """Whether a captured record shows sustained (non-decaying) oscillation.

    The record is split in half: sustained oscillation keeps (or grows)
    its RMS in the second half and exceeds ``min_amplitude``.  The
    threshold sits well above the buffer-mode output noise (~15 mV rms)
    and well below the saturated oscillation swing (~0.3 V rms).
    """
    x = np.asarray(samples, dtype=float)
    x = x - np.mean(x)
    half = x.size // 2
    rms_first = float(np.sqrt(np.mean(x[:half] ** 2)))
    rms_second = float(np.sqrt(np.mean(x[half:] ** 2)))
    if rms_second < min_amplitude:
        return False
    return rms_second > 0.5 * rms_first
