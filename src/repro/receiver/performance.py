"""Performance measurements on configured chips.

These functions are the behavioural equivalent of the paper's bench
measurements: SNR at the modulator output (Fig. 7), SNR at the receiver
output (Fig. 9), PSD (Fig. 10), SNR-vs-input-power dynamic range sweeps
(Fig. 11) and two-tone SFDR (Fig. 12).  They are also the only
interface the calibration procedure and the attacks get to a chip.

Measurement conventions:

* The stimulus tone sits ``TONE_OFFSET_FRACTION`` of the signal band
  above the standard's centre frequency (a tone exactly at F0 would land
  at DC after down-conversion), snapped to an FFT bin.
* The in-band region is ``F0 +/- fs/(4*OSR)`` (bandwidth ``fs/(2*OSR)``),
  and the SNR counts every non-signal in-band component as noise,
  matching the paper's "noise or harmonics within the band-of-interest".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dsp.metrics import SfdrMeasurement, ToneMeasurement, band_snr, two_tone_sfdr
from repro.dsp.spectrum import Spectrum, periodogram, periodogram_batch
from repro.dsp.tones import coherent_frequency
from repro.receiver.config import ConfigWord
from repro.receiver.receiver import Chip
from repro.receiver.standards import Standard
from repro.receiver.stimulus import ToneStimulus

if TYPE_CHECKING:  # deferred: the engine package imports receiver modules
    from repro.engine.engine import SimulationEngine

#: Stimulus placement within the signal band, as a fraction of the
#: in-band half-width above the centre frequency.
TONE_OFFSET_FRACTION = 0.25

#: Default stimulus power for the SNR experiments (paper: -25 dBm).
DEFAULT_POWER_DBM = -25.0

#: Default per-tone power for the SFDR experiment.
SFDR_POWER_DBM = -31.0

#: Tone spacing of the SFDR two-tone test (paper: 10 MHz).
SFDR_DELTA_HZ = 10e6


def signal_band(standard: Standard, osr: int) -> tuple[float, float]:
    """In-band edges ``[f_lo, f_hi]`` around the standard's centre."""
    half = standard.fs / (4.0 * osr)
    return standard.f_center - half, standard.f_center + half


def stimulus_frequency(standard: Standard, osr: int, n_fft: int) -> float:
    """Coherent single-tone frequency for SNR measurements."""
    half = standard.fs / (4.0 * osr)
    target = standard.f_center + TONE_OFFSET_FRACTION * half
    return coherent_frequency(target, standard.fs, n_fft)


def measure_modulator_snr(
    chip: Chip,
    config: ConfigWord,
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
) -> ToneMeasurement:
    """In-band SNR at the modulator output (paper Fig. 7 measurement):
    the one-key case of :func:`measure_modulator_snr_batch`."""
    return measure_modulator_snr_batch(
        chip,
        [config],
        standard,
        power_dbm=power_dbm,
        n_fft=n_fft,
        seed=seed,
        substeps=substeps,
    )[0]


def modulator_snr_probe(
    chip: Chip,
    configs: Sequence[ConfigWord],
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
):
    """Requests + decoder for a batched modulator-SNR measurement.

    Splits :func:`measure_modulator_snr_batch` into its engine requests
    and the pure post-processing that turns their results into
    :class:`ToneMeasurement`\\ s, so drivers that fuse many measurement
    kinds (the fleet calibrator batches SNR, SFDR and oscillation
    probes of a whole lot into one engine submission) build *exactly*
    the requests and decode *exactly* the arithmetic the batch function
    uses.  Returns ``(requests, decode)``.
    """
    from repro.engine.request import ModulatorRequest

    n = n_fft or chip.design.fft_points
    f_sig = stimulus_frequency(standard, chip.design.osr, n)
    stim = ToneStimulus.single(f_sig, power_dbm)
    requests = [
        ModulatorRequest(
            config=config,
            stimulus=stim,
            fs=standard.fs,
            n_samples=n,
            seed=seed,
            substeps=substeps,
        )
        for config in configs
    ]
    f_lo, f_hi = signal_band(standard, chip.design.osr)

    def decode(results) -> list[ToneMeasurement]:
        if not results:
            return []
        spectra = periodogram_batch(
            np.stack([r.output for r in results]), standard.fs
        )
        return [band_snr(s, f_sig, f_lo, f_hi) for s in spectra]

    return requests, decode


def measure_modulator_snr_batch(
    chip: Chip,
    configs: Sequence[ConfigWord],
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
    engine: SimulationEngine | None = None,
) -> list[ToneMeasurement]:
    """In-band modulator SNR of many keys, in one engine submission.

    The transient integration is amortised across the batch, and
    per-key results do not depend on the batch (the backends are
    bit-exact and engine results are per request).

    Each distinct measurement of the call is simulated once, as one
    batch in request order, and when ``engine`` carries a measurement
    memo (an in-process job run attaches its memo to the default engine
    around each of its tasks) every measurement the memo already holds
    is served from it and only the misses are simulated.  A measurement
    is a pure function of its memo key — the die by content, the key, the
    standard, the power, the resolved record length, the seed and the
    substeps: those fix every engine request field, the engine result
    of a request does not depend on what else is in its batch, and
    neither do a ``periodogram_batch`` row or ``band_snr``.  A hit is
    therefore the value a simulation would return.  Callers that meter
    queries (the attack oracle) charge before they measure, so the memo
    cannot move a query count.
    """
    from repro.engine.engine import get_default_engine

    engine = engine or get_default_engine()
    memo = engine.measurement_memo
    if memo is None:
        memo = {}
    n = n_fft or chip.design.fft_points
    setup = (chip.content_key, standard, power_dbm, n, seed, substeps)
    keys = [(setup, config) for config in configs]
    misses = list(dict.fromkeys(key for key in keys if key not in memo))
    if misses:
        requests, decode = modulator_snr_probe(
            chip,
            [config for _, config in misses],
            standard,
            power_dbm=power_dbm,
            n_fft=n,
            seed=seed,
            substeps=substeps,
        )
        memo.update(zip(misses, decode(engine.run(chip, requests))))
    return [memo[key] for key in keys]


def measure_receiver_snr_batch(
    chip: Chip,
    configs: Sequence[ConfigWord],
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_baseband: int = 1024,
    seed: int = 0,
    substeps: int = 4,
    engine: SimulationEngine | None = None,
) -> list[ToneMeasurement]:
    """In-band SNR at the receiver output (paper Fig. 9 measurement)
    of many keys, in one engine submission.

    The tone at ``F0 + delta`` appears at ``+delta`` in the complex
    baseband after the fs/4 mixer; the SNR is evaluated over the
    decimated band ``+/- fs/(4*OSR)``.
    """
    from repro.engine.engine import get_default_engine
    from repro.engine.request import ReceiverRequest

    engine = engine or get_default_engine()
    osr = chip.design.osr
    n_mod = n_baseband * osr
    f_sig = stimulus_frequency(standard, osr, n_mod)
    stim = ToneStimulus.single(f_sig, power_dbm)
    requests = [
        ReceiverRequest(
            config=config,
            stimulus=stim,
            fs=standard.fs,
            n_baseband=n_baseband,
            seed=seed,
            substeps=substeps,
        )
        for config in configs
    ]
    results = engine.run_receiver(chip, requests)
    half = standard.fs / (4.0 * osr)
    # The fs/4 mixer shifts F0 = fs/4 to DC, so the tone lands at
    # f_sig - fs/4 in the complex baseband.
    f_tone_bb = f_sig - standard.fs / 4.0
    if not results:
        return []
    spectra = periodogram_batch(
        np.stack([r.baseband for r in results]), results[0].fs_out
    )
    return [band_snr(s, f_tone_bb, -half, half) for s in spectra]


def modulator_sfdr_probe(
    chip: Chip,
    configs: Sequence[ConfigWord],
    standard: Standard,
    power_dbm_each: float = SFDR_POWER_DBM,
    delta_hz: float = SFDR_DELTA_HZ,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
):
    """Requests + decoder for a batched two-tone SFDR measurement at
    the modulator output (paper Fig. 12); the SFDR counterpart of
    :func:`modulator_snr_probe`.  Returns ``(requests, decode)``.

    Two equal-power tones ``delta_hz`` apart are centred in the upper
    half of the signal band so their IM3 products stay in band.
    """
    from repro.engine.request import ModulatorRequest

    n = n_fft or chip.design.fft_points
    osr = chip.design.osr
    half = standard.fs / (4.0 * osr)
    f1 = coherent_frequency(standard.f_center + 0.15 * half, standard.fs, n)
    f2 = coherent_frequency(f1 + delta_hz, standard.fs, n)
    stim = ToneStimulus.two_tone(f1, f2, power_dbm_each)
    requests = [
        ModulatorRequest(
            config=config,
            stimulus=stim,
            fs=standard.fs,
            n_samples=n,
            seed=seed,
            substeps=substeps,
        )
        for config in configs
    ]
    f_lo, f_hi = signal_band(standard, osr)

    def decode(results) -> list[SfdrMeasurement]:
        if not results:
            return []
        spectra = periodogram_batch(
            np.stack([r.output for r in results]), standard.fs
        )
        # The tones are placed coherently on exact bins, so the peak
        # search can be tight — essential at short FFTs where 10 MHz is
        # only a few bins and a wide search would confuse the two
        # fundamentals.
        return [
            two_tone_sfdr(s, f1, f2, f_lo, f_hi, search_bins=1) for s in spectra
        ]

    return requests, decode


def measure_sfdr_batch(
    chip: Chip,
    configs: Sequence[ConfigWord],
    standard: Standard,
    power_dbm_each: float = SFDR_POWER_DBM,
    delta_hz: float = SFDR_DELTA_HZ,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
    engine: SimulationEngine | None = None,
) -> list[SfdrMeasurement]:
    """Two-tone SFDR of many keys (see :func:`modulator_sfdr_probe`),
    in one engine submission."""
    from repro.engine.engine import get_default_engine

    engine = engine or get_default_engine()
    requests, decode = modulator_sfdr_probe(
        chip,
        configs,
        standard,
        power_dbm_each=power_dbm_each,
        delta_hz=delta_hz,
        n_fft=n_fft,
        seed=seed,
        substeps=substeps,
    )
    return decode(engine.run(chip, requests))


def modulator_output_spectrum(
    chip: Chip,
    config: ConfigWord,
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
) -> Spectrum:
    """Calibrated output spectrum of the modulator (paper Fig. 10),
    under the modulator-SNR measurement's request
    (:func:`modulator_snr_probe`)."""
    from repro.engine.engine import get_default_engine

    requests, _ = modulator_snr_probe(
        chip, [config], standard, power_dbm=power_dbm, n_fft=n_fft,
        seed=seed, substeps=substeps,
    )
    (result,) = get_default_engine().run(chip, requests)
    return periodogram(result.output, standard.fs)


def measure_receiver_snr(
    chip: Chip,
    config: ConfigWord,
    standard: Standard,
    power_dbm: float = DEFAULT_POWER_DBM,
    n_baseband: int = 1024,
    seed: int = 0,
    substeps: int = 4,
) -> ToneMeasurement:
    """In-band SNR at the receiver output (paper Fig. 9 measurement):
    the one-key case of :func:`measure_receiver_snr_batch`."""
    return measure_receiver_snr_batch(
        chip, [config], standard, power_dbm=power_dbm,
        n_baseband=n_baseband, seed=seed, substeps=substeps,
    )[0]


def measure_sfdr(
    chip: Chip,
    config: ConfigWord,
    standard: Standard,
    power_dbm_each: float = SFDR_POWER_DBM,
    delta_hz: float = SFDR_DELTA_HZ,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
) -> SfdrMeasurement:
    """Two-tone SFDR at the modulator output (paper Fig. 12): the
    one-key case of :func:`measure_sfdr_batch`."""
    return measure_sfdr_batch(
        chip, [config], standard, power_dbm_each=power_dbm_each,
        delta_hz=delta_hz, n_fft=n_fft, seed=seed, substeps=substeps,
    )[0]


@dataclass(frozen=True)
class GainSegment:
    """One VGLNA gain segment of the dynamic-range plan (paper Fig. 11).

    Attributes:
        power_lo_dbm: Lower edge of the input-power segment.
        power_hi_dbm: Upper edge of the input-power segment.
        lna_gain: The calibrated 4-bit VGLNA code for this segment.
    """

    power_lo_dbm: float
    power_hi_dbm: float
    lna_gain: int


#: The paper's three input-range segments: [-85:-45], [-60:-20], [-40:0] dBm.
SEGMENT_RANGES: tuple[tuple[float, float], ...] = (
    (-85.0, -45.0),
    (-60.0, -20.0),
    (-40.0, 0.0),
)


@dataclass(frozen=True)
class DynamicRangePoint:
    """One point of the SNR-versus-input-power sweep."""

    power_dbm: float
    segment_index: int
    lna_gain: int
    snr_db: float


def dynamic_range_sweep(
    chip: Chip,
    config: ConfigWord,
    standard: Standard,
    segments: tuple[GainSegment, ...],
    power_step_dbm: float = 5.0,
    n_fft: int | None = None,
    seed: int = 0,
    substeps: int = 4,
    use_segment_gain: bool = True,
) -> list[DynamicRangePoint]:
    """SNR across the input range with per-segment VGLNA gains.

    For the correct key the VGLNA code follows the calibrated per-segment
    plan (``use_segment_gain=True``); an attacker applying a random key
    has no such plan, so an invalid key is swept with its own embedded
    ``lna_gain`` (``use_segment_gain=False``).
    """
    points = []
    for seg_idx, seg in enumerate(segments):
        power = seg.power_lo_dbm
        while power <= seg.power_hi_dbm + 1e-9:
            cfg = (
                config.replace(lna_gain=seg.lna_gain)
                if use_segment_gain
                else config
            )
            m = measure_modulator_snr(
                chip,
                cfg,
                standard,
                power_dbm=power,
                n_fft=n_fft,
                seed=seed,
                substeps=substeps,
            )
            points.append(
                DynamicRangePoint(
                    power_dbm=power,
                    segment_index=seg_idx,
                    lna_gain=cfg.lna_gain,
                    snr_db=m.snr_db,
                )
            )
            power += power_step_dbm
    return points


def peak_snr(points: list[DynamicRangePoint]) -> float:
    """Best SNR across a dynamic-range sweep."""
    if not points:
        raise ValueError("empty sweep")
    return max(p.snr_db for p in points)


def dynamic_range_db(points: list[DynamicRangePoint], snr_min_db: float = 10.0) -> float:
    """Width (dB) of the input-power range achieving ``snr_min_db``."""
    usable = [p.power_dbm for p in points if p.snr_db >= snr_min_db]
    if not usable:
        return 0.0
    return max(usable) - min(usable)
