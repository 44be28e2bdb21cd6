"""The paper's 14-step off-chip calibration procedure (Sec. V-B).

This module is the "secret calibration algorithm" of the locking scheme.
It drives a chip through the exact sequence the paper lists:

 1. comparator configured as a buffer (clock deactivated),
 2. output buffer configured for the off-chip load,
 3. RF input disabled (Gmin off),
 4. feedback loop (DAC + loop delay) turned off,
 5. LC filter in oscillation mode (-Gm at maximum),
 6. capacitor arrays Cc then Cf tuned until the oscillation frequency
    equals the target centre frequency,
 7. -Gm reduced until the oscillation vanishes,
 8. feedback loop restored,
 9. RF input applied at F0,
10. sampling frequency set to Fs = 4 F0,
11. loop delay set according to Fs,
12. VGLNA tuned for the target sensitivity/dynamic range,
13. Gmin / DAC / pre-amp / comparator initialised to nominal values
    from design simulation,
14. iterative bias optimisation on measured SNR (and SFDR).

All tuning decisions are made from *measurements* (oscillation frequency
metering, SNR/SFDR readings), never from the chip model's internals, so
the procedure works on any process-varied chip exactly as the real flow
works on silicon.

Resumable state machines
------------------------

The per-die step loop is written as generator state machines
(:func:`calibration_machine` and its per-step sub-machines): the
machine owns every tuning decision but performs no simulation — it
*yields* :class:`CalibrationProbe` records (engine requests plus a pure
decode) and receives each probe's decoded value via ``send``.

One driver advances them: :meth:`Calibrator.calibrate_fleet` runs a
lot's machines in lockstep, fusing every active die's probe into one
engine batch per round — per half-lot, with both half-lots in flight,
where the kernel can integrate one beside the driver — and
:meth:`Calibrator.calibrate` is a lot of one.
``Calibrator(batch_probing=False)`` keeps the scalar reference
driver (:meth:`Calibrator._drive`: one probe per engine call, each
probe's own decode, an unbatched descent) that the differential tests
hold the lockstep driver against.  The bit-exactness argument sits
with the lockstep loop, in :meth:`Calibrator.calibrate_fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Sequence

from repro.calibration import metering
from repro.calibration.optimizer import descent_machine
from repro.dsp.units import dbm_to_vamp
from repro.receiver.config import ConfigWord
from repro.receiver.performance import (
    DEFAULT_POWER_DBM,
    SEGMENT_RANGES,
    GainSegment,
    modulator_sfdr_probe,
    modulator_snr_probe,
)
from repro.receiver.receiver import Chip
from repro.receiver.standards import Standard

if TYPE_CHECKING:
    from repro.engine.engine import SimulationEngine
    from repro.engine.request import ModulatorRequest

#: Step-13 nominal bias codes "determined by simulation" on the nominal
#: design — these are part of the secret calibration knowledge.
NOMINAL_BIAS_CODES = {
    "gmin_code": 24,
    "dac_code": 32,
    "preamp_code": 20,
    "comp_code": 28,
    "bias_global": 4,
}

#: Step-11 nominal loop-delay code ("set according to Fs"): 1.5 periods.
NOMINAL_DELAY_CODE = 12

#: Step-2 nominal output-buffer code.
NOMINAL_BUFFER_CODE = 4

#: Target VGLNA output amplitude the sensitivity plan aims at, volts.
LNA_TARGET_AMPLITUDE = 0.14

#: Acceptable relative centre-frequency error after step 6.
FREQ_TOLERANCE = 0.004


@dataclass
class CalibrationLogEntry:
    """One step of the calibration, for audit/tests."""

    step: int
    description: str
    value: float | int | None = None


@dataclass
class CalibrationResult:
    """Outcome of calibrating one chip for one standard.

    Attributes:
        config: The calibrated configuration word — the secret key.
        standard: The standard calibrated for.
        achieved_frequency: Measured oscillation frequency after tuning.
        snr_db: Final measured SNR at the modulator output.
        sfdr_db: Final measured SFDR.
        success: Whether the result meets the standard's specification.
        n_measurements: Total oracle measurements spent.
        log: Step-by-step audit trail.
        segment_gains: Per-segment VGLNA plan (paper Fig. 11).
    """

    config: ConfigWord
    standard: Standard
    achieved_frequency: float
    snr_db: float
    sfdr_db: float
    success: bool
    n_measurements: int
    log: list[CalibrationLogEntry] = field(default_factory=list)
    segment_gains: tuple[GainSegment, ...] = ()


class CalibrationFailed(RuntimeError):
    """A die failed the calibration procedure.

    Raised when a tuning measurement comes back physically impossible
    to act on — today the one such path is the tank never oscillating
    mid-bisection during frequency tuning (a dead die, or one whose
    oscillation detector lost the line).  The exception carries the
    context an operator triaging a lot needs:

    Attributes:
        step: The 14-step procedure step that failed.
        chip_id: The die that failed (None until a driver attaches it).
        log: The :class:`CalibrationLogEntry` audit trail up to the
            failure, so the completed steps are not lost with the die.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        chip_id: int | None = None,
        log: tuple[CalibrationLogEntry, ...] | list[CalibrationLogEntry] = (),
    ):
        super().__init__(message)
        self.step = step
        self.chip_id = chip_id
        self.log = list(log)


@dataclass(frozen=True)
class CalibrationProbe:
    """One measurement a calibration state machine is waiting on.

    Attributes:
        requests: The engine requests this measurement submits — built
            exactly as the scalar procedure builds them, so any driver
            that runs them (alone, or fused with other dies' probes)
            gets bit-identical results.
        decode: Pure post-processing from the requests' results (in
            request order) to the value the machine expects back.
        kind: Debug/audit label (``"fosc"``, ``"oscillates"``,
            ``"scores"``, ``"verify"``).
        fused_extract: Optional hook for the lockstep driver, which
            decodes many probes at once: maps this probe's results to
            the ``(record, fs)`` pair a batched meter
            (:func:`~repro.calibration.metering.
            oscillation_frequency_batch`) consumes.  The batched value
            is bit-identical to ``decode`` on the same results, so
            fusing is pure throughput policy — the scalar reference
            driver ignores the hook and calls ``decode``.
    """

    requests: tuple["ModulatorRequest", ...]
    decode: Callable[[list], object]
    kind: str = ""
    fused_extract: Callable[[list], tuple] | None = None


#: A calibration state machine: yields probes, receives decoded values.
CalibrationMachine = Generator[CalibrationProbe, object, "CalibrationResult"]


def _fosc_probe(
    chip: Chip, config: ConfigWord, standard: Standard, seed: int
) -> CalibrationProbe:
    """Oscillation-frequency measurement (steps 5-6), as a probe: the
    settled second half of an oscillation-mode record, through the
    frequency meter."""
    request = chip.oscillation_request(config, standard.fs, seed=seed)

    def settled(results):
        return results[0].output[request.n_samples // 2 :]

    def decode(results) -> float | None:
        return metering.oscillation_frequency(settled(results), standard.fs)

    return CalibrationProbe(
        (request,),
        decode,
        kind="fosc",
        # The lockstep driver fuses every active die's frequency decode
        # into one batched meter call per round (same settled slice,
        # same meter arithmetic — bit-identical to decode()).
        fused_extract=lambda results: (settled(results), standard.fs),
    )


def _oscillates_probe(
    chip: Chip, config: ConfigWord, standard: Standard, gmq_code: int, seed: int
) -> CalibrationProbe:
    """Sustained-oscillation detection at a -Gm code (step 7)."""
    request = chip.oscillation_request(
        config, standard.fs, gmq_code=gmq_code, seed=seed
    )

    def decode(results) -> bool:
        return metering.is_oscillating(
            results[0].output[request.n_samples // 2 :], standard.fs
        )

    return CalibrationProbe((request,), decode, kind="oscillates")


def _cap_tuning_machine(
    chip: Chip, config: ConfigWord, standard: Standard, seed: int
):
    """Step 6 as a state machine; returns ``(config, achieved, n_meas)``.

    Binary-searches Cc (coarse) then Cf (fine) to hit F0: oscillation
    frequency falls monotonically with capacitance, and capacitance
    rises monotonically with either array code.  Each ``yield`` is one
    metered frequency measurement, and the next probe depends on the
    decoded previous one — which is exactly why lockstep batching
    happens across dies (every die at its own bisection level) rather
    than within one die's inherently sequential search.  A die whose
    tank stops oscillating mid-bisection raises
    :class:`CalibrationFailed`.
    """
    target = standard.f_center
    n_measurements = 0

    def fosc(cc: int, cf: int):
        nonlocal n_measurements
        n_measurements += 1
        freq = yield _fosc_probe(
            chip, config.replace(cc_coarse=cc, cf_fine=cf), standard, seed
        )
        if freq is None:
            # Dead-die path, explicit: a mid-bisection non-oscillation
            # cannot steer the search and must not masquerade as a
            # frequency reading.
            raise CalibrationFailed(
                f"tank failed to oscillate at (cc={cc}, cf={cf}) "
                "during frequency tuning",
                step=6,
            )
        return freq

    # Coarse: binary search with the fine array mid-scale so the fine
    # range straddles the coarse residual in both directions.
    lo, hi = 0, 255
    while lo < hi:
        mid = (lo + hi) // 2
        if (yield from fosc(mid, 128)) > target:
            lo = mid + 1  # frequency too high -> need more C
        else:
            hi = mid
    cc_best = lo
    if cc_best > 0:
        f_below = yield from fosc(cc_best - 1, 128)
        f_here = yield from fosc(cc_best, 128)
        if abs(f_below - target) < abs(f_here - target):
            cc_best -= 1

    lo, hi = 0, 255
    while lo < hi:
        mid = (lo + hi) // 2
        if (yield from fosc(cc_best, mid)) > target:
            lo = mid + 1
        else:
            hi = mid
    cf_best = lo
    if cf_best > 0:
        f_below = yield from fosc(cc_best, cf_best - 1)
        f_here = yield from fosc(cc_best, cf_best)
        if abs(f_below - target) < abs(f_here - target):
            cf_best -= 1

    achieved = yield from fosc(cc_best, cf_best)
    return (
        config.replace(cc_coarse=cc_best, cf_fine=cf_best),
        achieved,
        n_measurements,
    )


def _q_backoff_machine(
    chip: Chip, config: ConfigWord, standard: Standard, seed: int
):
    """Step 7 as a state machine; returns ``(config, n_meas)``.

    Binary search for the smallest oscillating -Gm code, then sit one
    code below it (maximum loss cancellation without oscillation).
    """
    n_measurements = 0
    lo, hi = 0, 63
    while lo < hi:
        mid = (lo + hi) // 2
        n_measurements += 1
        if (yield _oscillates_probe(chip, config, standard, mid, seed)):
            hi = mid
        else:
            lo = mid + 1
    critical = lo
    return config.replace(gmq_code=max(critical - 1, 0)), n_measurements


def _score_probe(
    chip: Chip,
    standard: Standard,
    candidates: list[ConfigWord],
    n_fft: int,
    sfdr_weight: float,
    seed: int,
) -> CalibrationProbe:
    """Step-14 objective scores for a candidate set, as one probe.

    The SNR sweep and (when weighted) the SFDR sweep ride the same
    probe, so a lockstep round fuses both measurement kinds of every
    die into a single engine submission.
    """
    snr_requests, snr_decode = modulator_snr_probe(
        chip, candidates, standard, n_fft=n_fft, seed=seed
    )
    if sfdr_weight > 0.0:
        sfdr_requests, sfdr_decode = modulator_sfdr_probe(
            chip, candidates, standard, n_fft=n_fft, seed=seed
        )
    else:
        sfdr_requests, sfdr_decode = [], None
    n_snr = len(snr_requests)

    def decode(results) -> list[float]:
        scores = [m.snr_db for m in snr_decode(results[:n_snr])]
        if sfdr_weight > 0.0:
            scores = [
                score
                + sfdr_weight * min(0.0, m.sfdr_db - standard.sfdr_spec_db)
                for score, m in zip(scores, sfdr_decode(results[n_snr:]))
            ]
        return scores

    return CalibrationProbe(
        tuple(snr_requests) + tuple(sfdr_requests), decode, kind="scores"
    )


def _bias_optimisation_machine(
    chip: Chip,
    standard: Standard,
    config: ConfigWord,
    n_fft: int,
    passes: int,
    sfdr_weight: float,
    seed: int,
    batch_probing: bool,
):
    """Step 14 as a state machine; returns ``(descent_result, n_meas)``.

    Wraps the optimizer's :func:`~repro.calibration.optimizer.
    descent_machine` — which owns the accept logic and the round
    prefetch — turning each candidate list it wants scored into one
    :func:`_score_probe`.  Measurements are metered per consumed
    evaluation, exactly as the sequential objective meters them.
    """
    descent = descent_machine(config, passes=passes, batched=batch_probing)
    try:
        candidates = next(descent)
        while True:
            scores = yield _score_probe(
                chip, standard, candidates, n_fft, sfdr_weight, seed
            )
            candidates = descent.send(scores)
    except StopIteration as stop:
        result = stop.value
    per_evaluation = 2 if sfdr_weight > 0.0 else 1
    return result, per_evaluation * result.n_evaluations


def _verification_probe(
    chip: Chip, standard: Standard, config: ConfigWord, seed: int
) -> CalibrationProbe:
    """Final full-record SNR + SFDR verification, as one probe."""
    snr_requests, snr_decode = modulator_snr_probe(
        chip, [config], standard, seed=seed
    )
    sfdr_requests, sfdr_decode = modulator_sfdr_probe(
        chip, [config], standard, seed=seed
    )

    def decode(results) -> tuple[float, float]:
        return (
            snr_decode(results[:1])[0].snr_db,
            sfdr_decode(results[1:])[0].sfdr_db,
        )

    return CalibrationProbe(
        tuple(snr_requests) + tuple(sfdr_requests), decode, kind="verify"
    )


def calibration_machine(
    chip: Chip,
    standard: Standard,
    n_fft: int = 4096,
    optimizer_passes: int = 2,
    sfdr_weight: float = 0.3,
    seed: int = 0,
    batch_probing: bool = True,
    power_dbm: float = DEFAULT_POWER_DBM,
) -> CalibrationMachine:
    """The full 14-step procedure as a resumable state machine.

    Yields :class:`CalibrationProbe` records and expects each probe's
    decoded value back via ``send``; the generator's return value is
    the :class:`CalibrationResult`.  A dead die raises
    :class:`CalibrationFailed` with this die's id and the audit log up
    to the failure attached.
    """
    n_measurements = 0
    log: list[CalibrationLogEntry] = []
    try:
        # Steps 1-5 configure the loop topology for oscillation-mode
        # tuning; the oscillation requests apply them on every
        # measurement (comparator buffered, input off, loop off, -Gm max).
        config = ConfigWord(
            buffer_code=NOMINAL_BUFFER_CODE,
            delay_code=NOMINAL_DELAY_CODE,
            **NOMINAL_BIAS_CODES,
        )
        log.append(CalibrationLogEntry(1, "comparator configured as buffer"))
        log.append(CalibrationLogEntry(2, "output buffer set", NOMINAL_BUFFER_CODE))
        log.append(CalibrationLogEntry(3, "RF input disabled"))
        log.append(CalibrationLogEntry(4, "feedback loop disabled"))
        log.append(CalibrationLogEntry(5, "-Gm set to maximum", 63))

        config, achieved, n = yield from _cap_tuning_machine(
            chip, config, standard, seed
        )
        n_measurements += n
        log.append(CalibrationLogEntry(6, "capacitor arrays tuned", achieved))

        config, n = yield from _q_backoff_machine(chip, config, standard, seed)
        n_measurements += n
        log.append(CalibrationLogEntry(7, "-Gm backed off", config.gmq_code))

        config = config.replace(fb_en=1, dac_en=1, comp_clk_en=1, gmin_en=1)
        log.append(CalibrationLogEntry(8, "feedback loop restored"))
        log.append(CalibrationLogEntry(9, "RF input applied at F0"))
        log.append(CalibrationLogEntry(10, "Fs set to 4*F0", standard.fs))
        log.append(CalibrationLogEntry(11, "loop delay set", NOMINAL_DELAY_CODE))

        lna_code = vglna_gain_plan(chip, power_dbm)
        config = config.replace(lna_gain=lna_code)
        log.append(CalibrationLogEntry(12, "VGLNA tuned", lna_code))
        log.append(CalibrationLogEntry(13, "bias blocks initialised"))

        opt, n = yield from _bias_optimisation_machine(
            chip,
            standard,
            config,
            n_fft,
            optimizer_passes,
            sfdr_weight,
            seed,
            batch_probing,
        )
        n_measurements += n
        config = opt.config
        log.append(CalibrationLogEntry(14, "bias optimisation done", opt.score))

        snr, sfdr = yield _verification_probe(chip, standard, config, seed)
        n_measurements += 2
    except CalibrationFailed as failure:
        if not failure.log:
            failure.log = list(log)
        if failure.chip_id is None:
            failure.chip_id = chip.chip_id
        raise
    success = snr >= standard.snr_spec_db and sfdr >= standard.sfdr_spec_db - 10.0
    return CalibrationResult(
        config=config,
        standard=standard,
        achieved_frequency=achieved,
        snr_db=snr,
        sfdr_db=sfdr,
        success=success,
        n_measurements=n_measurements,
        log=log,
        segment_gains=segment_gain_plan(chip),
    )


def vglna_gain_plan(chip: Chip, power_dbm: float) -> int:
    """Step 12: VGLNA code for an expected input power (sensitivity plan).

    Chooses the gain that brings the expected tone amplitude to the
    transconductor's optimal drive level.
    """
    d = chip.design.vglna
    amp = dbm_to_vamp(power_dbm)
    wanted_db = 20.0 * math.log10(LNA_TARGET_AMPLITUDE / amp)
    code = round((wanted_db - d.gain_min_db) / d.gain_step_db)
    return max(0, min(15, code))


def segment_gain_plan(chip: Chip) -> tuple[GainSegment, ...]:
    """VGLNA plan for the paper's three dynamic-range segments."""
    segments = []
    for lo, hi in SEGMENT_RANGES:
        centre = 0.5 * (lo + hi)
        segments.append(GainSegment(lo, hi, vglna_gain_plan(chip, centre)))
    return tuple(segments)


class Calibrator:
    """Runs the 14-step procedure on chips, one die or a whole lot.

    Args:
        n_fft: FFT length for the step-14 SNR measurements (a smaller
            record keeps the optimisation fast; the final verification
            uses the full record).
        optimizer_passes: Coordinate-descent sweeps over the bias fields.
        sfdr_weight: Weight of the SFDR shortfall in the step-14
            objective.
        seed: Measurement noise seed.
        batch_probing: With the default True, calibrations run on the
            lockstep driver (:meth:`calibrate_fleet`) and the step-14
            descent scores each hill-climb round's two neighbours as one
            probe.  False selects the scalar reference instead: one
            probe per engine call, each probe's own decode, one
            measurement at a time in the descent.  The calibrated key,
            score, log and measurement count are identical either way —
            only the latency differs.
    """

    def __init__(
        self,
        n_fft: int = 4096,
        optimizer_passes: int = 2,
        sfdr_weight: float = 0.3,
        seed: int = 0,
        batch_probing: bool = True,
    ):
        self.n_fft = n_fft
        self.optimizer_passes = optimizer_passes
        self.sfdr_weight = sfdr_weight
        self.seed = seed
        self.batch_probing = batch_probing

    def _drive(self, chip: Chip, machine):
        """The scalar reference driver: run one die's state machine to
        completion, each probe through its own engine call and its own
        ``decode``.  Returns the machine's return value.
        """
        from repro.engine.engine import get_default_engine

        engine = get_default_engine()
        value = None
        try:
            while True:
                probe = machine.send(value)
                value = probe.decode(engine.run(chip, list(probe.requests)))
        except StopIteration as stop:
            return stop.value

    def machine(
        self,
        chip: Chip,
        standard: Standard,
        power_dbm: float = DEFAULT_POWER_DBM,
    ) -> CalibrationMachine:
        """This calibrator's 14-step procedure as a state machine.

        :meth:`calibrate_fleet` builds one of these per die and
        advances them in lockstep; the scalar reference :meth:`_drive`
        runs a single one to completion.  Both issue identical per-die
        probes.
        """
        return calibration_machine(
            chip,
            standard,
            n_fft=self.n_fft,
            optimizer_passes=self.optimizer_passes,
            sfdr_weight=self.sfdr_weight,
            seed=self.seed,
            batch_probing=self.batch_probing,
            power_dbm=power_dbm,
        )

    def calibrate(
        self,
        chip: Chip,
        standard: Standard,
        power_dbm: float = DEFAULT_POWER_DBM,
    ) -> CalibrationResult:
        """Run steps 1-14 and return the chip's secret key for ``standard``.

        A lot of one on :meth:`calibrate_fleet`; with
        ``batch_probing=False``, the scalar reference :meth:`_drive`.
        Raises :class:`CalibrationFailed` (step log and die id attached)
        when the die cannot complete the procedure."""
        if not self.batch_probing:
            return self._drive(chip, self.machine(chip, standard, power_dbm))
        return self.calibrate_fleet([chip], standard, power_dbm)[0]

    def calibrate_fleet(
        self,
        chips: Sequence[Chip],
        standard: Standard | Sequence[Standard],
        power_dbm: float = DEFAULT_POWER_DBM,
        engine: "SimulationEngine | None" = None,
        on_result=None,
    ) -> list[CalibrationResult]:
        """Run all 14 steps in lockstep across ``chips``.

        Most of the procedure is sequential per die: steps 5-6 and 7
        are binary searches where each measurement decides the next,
        and the step-14 descent's probes start wherever the previous
        accepts moved.  The lot is not: every die walks the procedure
        independently.  So this driver builds one :meth:`machine` per
        die and advances them in rounds, each round fusing every active
        die's pending probe into one engine submission — a bisection
        level of steps 5-6, a step-7 back-off probe or a step-14 probe
        set (SNR and SFDR sweeps included), whatever mixture the dies
        are at.  Dies whose machines return (or that converge a search
        early, so yield fewer probes) drop out of later rounds.

        **Half-lots.**  When the engine can integrate beside this
        thread (:meth:`~repro.engine.engine.SimulationEngine.
        can_overlap`: the threaded kernel with a helper to spare), the
        lot runs as two interleaved half-lots, ``dies[0::2]`` and
        ``dies[1::2]``, each with one submission in flight
        (:meth:`~repro.engine.engine.SimulationEngine.start_multi`):
        while the kernel integrates one half's round, this thread
        finishes the other half's round, decodes it, advances its
        machines and starts its next round.  Otherwise (the reference
        backend, the no-compiler fallback, ``REPRO_ENGINE_THREADS=1``,
        a one-core host) the whole lot is one half, one submission per
        round, as a lot of one always is.  Every started run is
        finished before this method returns, on failure too (a die
        failing, or ``on_result`` raising, while one half settles
        leaves the other half's run in flight), so no kernel helper
        outlives the call.

        **Bit-exactness argument.**  A die's machine yields the same
        requests in the same order as under the scalar reference
        :meth:`_drive` — this loop only *regroups* them with other
        dies' requests into half-lot batches, and engine results are a
        pure function of the individual request (the mixed-chip batch
        property of ``run_multi``, whatever else is in flight; the
        session ``noise_cache`` reuses a drawn record only for a
        request of the same die with the same record inputs, and a hit
        is bitwise the record a miss would draw, so drawing one half's
        records before the other half's decode moves no bit).  The
        caller working through packs at finish is one more worker on
        the kernel's atomic counter, which thread-count invariance
        already covers.  Every decode is pure per-die post-processing
        — including the *fused* frequency decode, which meters every
        active die's fosc probe through one
        :func:`~repro.calibration.metering.oscillation_frequency_batch`
        call per half-round, bit-identical per record to each probe's
        own ``decode``.  So per-die keys, scores, step logs and metered
        measurement counts are bit-identical to the scalar reference's
        — held differentially in ``tests/test_fleet_calibration.py``
        across lot sizes (uneven halves included), standards mixes,
        backends and thread counts.

        Args:
            chips: The lot to provision.
            standard: One standard for the whole lot, or one per die
                (mixed-standard fleets are how campaign provisioning
                calibrates all its (die, standard) triples in a single
                lockstep pass).
            power_dbm: Step-12 expected input power.
            engine: Engine to submit the fused batches to (default
                engine when omitted).
            on_result: Optional ``(die_index, result)`` callback fired
                the moment a die's machine completes — dies converge at
                different rounds, so streaming consumers (campaign
                provisioning persists each die to the shared store as
                it lands) keep completed work durable even when a later
                die kills the lot.

        Returns:
            One :class:`CalibrationResult` per die, in ``chips`` order.

        Raises:
            CalibrationFailed: A die could not complete the procedure
                (its id and partial step log attached).  Fail-fast: a
                dead die aborts the lot, exactly as it aborts a
                die-by-die loop at that die; dies already completed
                have been delivered through ``on_result``.
        """
        from repro.engine.engine import get_default_engine

        chips = list(chips)
        if isinstance(standard, Standard):
            standards = [standard] * len(chips)
        else:
            standards = list(standard)
        if len(standards) != len(chips):
            raise ValueError(
                f"fleet of {len(chips)} chips got {len(standards)} standards"
            )
        engine = engine or get_default_engine()
        machines = [
            self.machine(chip, std, power_dbm)
            for chip, std in zip(chips, standards)
        ]
        results: list[CalibrationResult | None] = [None] * len(chips)
        pending: dict[int, CalibrationProbe] = {}
        # Session-scoped drawn-record memo: a lot is measured under the
        # same few setups round after round, so the records persist
        # across the session's submissions and die with it.
        noise_cache: dict = {}

        def advance(die: int, value) -> None:
            try:
                pending[die] = machines[die].send(value)
            except StopIteration as stop:
                results[die] = stop.value
                # A finished die's drawn records can never be reused
                # (entries are per chip): evict them so the session
                # cache scales with the *active* fleet, not the lot.
                blocks = chips[die].blocks
                for key in [
                    k for k, v in noise_cache.items() if v[0] is blocks
                ]:
                    del noise_cache[key]
                if on_result is not None:
                    on_result(die, stop.value)

        if engine.can_overlap():
            halves = (range(0, len(chips), 2), range(1, len(chips), 2))
        else:
            # Nothing would integrate beside this thread: one submission
            # per round, as for a lot of one, keeps the lane packs full.
            halves = (range(len(chips)), range(0))

        def start(h):
            """Start ONE fused engine submission: every pending probe
            of half ``h``'s active dies; None once the half is done."""
            active = [die for die in halves[h] if die in pending]
            if not active:
                return None
            return active, engine.start_multi(
                [
                    (chips[die], request)
                    for die in active
                    for request in pending[die].requests
                ],
                noise_cache=noise_cache,
                # Overlapped when the other half has probes pending:
                # this thread settles that half's round first.
                overlap=any(die in pending for die in halves[1 - h]),
            )

        def settle(active, outs) -> None:
            position = 0
            decoded = {}
            # Frequency probes expose a fused decode: instead of one
            # scalar FFT per die per round, every active die's record
            # goes through ONE batched meter call (bit-identical per
            # record — see CalibrationProbe.fused_extract).
            fused: list[tuple[int, object, float]] = []
            for die in active:
                probe = pending[die]
                span = len(probe.requests)
                chunk = outs[position : position + span]
                if probe.fused_extract is not None:
                    record, fs = probe.fused_extract(chunk)
                    fused.append((die, record, fs))
                else:
                    decoded[die] = probe.decode(chunk)
                position += span
            if fused:
                freqs = metering.oscillation_frequency_batch(
                    [record for _, record, _ in fused],
                    [fs for _, _, fs in fused],
                )
                for (die, _, _), freq in zip(fused, freqs):
                    decoded[die] = freq
            for die in active:
                del pending[die]
                advance(die, decoded[die])

        in_flight: list = [None, None]
        try:
            for die in range(len(machines)):
                advance(die, None)
            for h in (0, 1):
                in_flight[h] = start(h)
            # Ping-pong: while the kernel integrates one half's round,
            # this thread settles the other half's finished round and
            # starts its next one.
            while any(in_flight):
                for h in (0, 1):
                    if in_flight[h] is None:
                        continue
                    active, run = in_flight[h]
                    in_flight[h] = None
                    settle(active, run.result())
                    in_flight[h] = start(h)
        finally:
            # A die failing (or on_result raising) while one half
            # settles leaves the other half's run in flight: finish it,
            # so no kernel helper outlives this call.
            for started in in_flight:
                if started is not None:
                    started[1].result()
        return results  # type: ignore[return-value]
