"""The fabricated chip: receiver design + per-chip process variations.

:class:`Chip` is the central object of the reproduction.  Calibration,
locking and attacks all operate on chips strictly through simulation of
their configured behaviour — exactly the oracle access the paper's
threat model grants ("the attacker ... has the netlist and access to
working oracle chips").  All simulation goes through the batched
:class:`repro.engine.SimulationEngine`; the ``simulate_*`` methods are
single-request conveniences that delegate to the process default
engine.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.blocks import (
    Comparator,
    FeedbackDac,
    InputTransconductor,
    LoopDelay,
    OutputBuffer,
    PreAmplifier,
    TunableLcTank,
    Vglna,
)
from repro.engine.cache import BoundedCache
from repro.process.variations import ChipVariations, typical_chip
from repro.receiver.chain import ReceiverResult
from repro.receiver.config import ConfigWord, DigitalConfig
from repro.receiver.design import NOMINAL_DESIGN, ReceiverDesign
from repro.receiver.sdm import (
    ModulatorBlocks,
    ModulatorResult,
    oscillation_config,
)
from repro.receiver.stimulus import ToneStimulus


@dataclass
class Chip:
    """One fabricated instance of the programmable RF receiver."""

    design: ReceiverDesign = field(default_factory=lambda: NOMINAL_DESIGN)
    variations: ChipVariations = field(default_factory=typical_chip)
    _blocks: ModulatorBlocks | None = field(default=None, init=False, repr=False)
    _disc_cache: BoundedCache | None = field(default=None, init=False, repr=False)
    _content_key: bytes | None = field(default=None, init=False, repr=False)

    @property
    def chip_id(self) -> int:
        """Identifier of this die within its lot."""
        return self.variations.chip_id

    @property
    def blocks(self) -> ModulatorBlocks:
        """The chip's analog block set (built once, then cached)."""
        if self._blocks is None:
            d = self.design
            v = self.variations
            self._blocks = ModulatorBlocks(
                tank=TunableLcTank(d.tank, v),
                vglna=Vglna(d.vglna, v),
                gmin=InputTransconductor(d.front_end, v),
                preamp=PreAmplifier(d.front_end, v),
                comparator=Comparator(d.front_end, v),
                dac=FeedbackDac(d.front_end, v),
                delay=LoopDelay(d.front_end, v),
                buffer=OutputBuffer(d.front_end, v),
                tank_current_noise=d.noise.tank_current_noise * v.noise_scale,
                dither_amplitude=d.noise.dither_amplitude,
                bias_global_step=d.bias_global_step,
            )
        return self._blocks

    @property
    def content_key(self) -> bytes:
        """This die by content: its pickled design and variation draw.

        Two :class:`Chip` objects built from the same ``(lot, id)`` share
        it, so memos keyed on it survive rebuilding a chip.  Pickling is
        lossless, so equal keys mean equal contents.
        """
        if self._content_key is None:
            self._content_key = pickle.dumps((self.design, self.variations))
        return self._content_key

    @property
    def discretisation_cache(self) -> BoundedCache:
        """Per-chip memo of ZOH tank discretisations, ``(cc, cf, h)``.

        Chip state like :attr:`blocks` — the matrices depend only on
        this chip's tank and the step size, and computing them (a matrix
        exponential) dominates short simulations, so the engine reuses
        them across every request that hits the same capacitor codes.
        """
        if self._disc_cache is None:
            self._disc_cache = BoundedCache(maxsize=1024)
        return self._disc_cache

    def simulate_modulator(
        self,
        config: ConfigWord,
        stimulus: ToneStimulus,
        fs: float,
        n_samples: int | None = None,
        seed: int = 0,
        substeps: int = 4,
        initial_state: tuple[float, float] = (0.0, 0.0),
    ) -> ModulatorResult:
        """Transient simulation of the configured modulator."""
        # Deferred: the engine package imports this module's siblings.
        from repro.engine.engine import get_default_engine
        from repro.engine.request import ModulatorRequest

        if n_samples is None:
            n_samples = self.design.fft_points
        request = ModulatorRequest(
            config=config,
            stimulus=stimulus,
            fs=fs,
            n_samples=n_samples,
            seed=seed,
            substeps=substeps,
            initial_state=initial_state,
        )
        return get_default_engine().run_one(self, request)

    def simulate_receiver(
        self,
        config: ConfigWord,
        stimulus: ToneStimulus,
        fs: float,
        n_baseband: int = 1024,
        seed: int = 0,
        substeps: int = 4,
        digital_config: DigitalConfig | None = None,
    ) -> ReceiverResult:
        """Full-chain simulation: modulator plus digital section.

        ``n_baseband`` output samples require ``n_baseband * osr``
        modulator clock periods, so this costs OSR times more than a
        modulator-only measurement of the same record length — mirroring
        the paper's observation that receiver-output measurements are
        the slow ones (20 minutes per SNR point on their testbed).
        """
        from repro.engine.engine import get_default_engine
        from repro.engine.request import ReceiverRequest

        if n_baseband <= 0:
            raise ValueError(f"n_baseband must be positive, got {n_baseband}")
        request = ReceiverRequest(
            config=config,
            stimulus=stimulus,
            fs=fs,
            n_baseband=n_baseband,
            seed=seed,
            substeps=substeps,
            digital_config=digital_config,
        )
        return get_default_engine().run_receiver_one(self, request)

    def oscillation_request(
        self,
        config: ConfigWord,
        fs: float,
        n_samples: int = 4096,
        gmq_code: int | None = None,
        seed: int = 0,
        substeps: int = 4,
    ):
        """The engine request :meth:`simulate_oscillation` submits.

        Exposed so batch drivers (the fleet calibrator groups one
        bisection level of a whole lot into a single engine submission)
        issue *exactly* the request the scalar measurement would — same
        oscillation-mode configuration, same kick, same record length —
        which is what makes regrouped runs bit-identical.
        """
        from repro.engine.request import ModulatorRequest

        return ModulatorRequest(
            config=oscillation_config(config, gmq_code),
            stimulus=ToneStimulus.off(),
            fs=fs,
            n_samples=n_samples,
            seed=seed,
            substeps=substeps,
            initial_state=(1e-3, 0.0),
        )

    def simulate_oscillation(
        self,
        config: ConfigWord,
        fs: float,
        n_samples: int = 4096,
        gmq_code: int | None = None,
        seed: int = 0,
        substeps: int = 4,
    ) -> ModulatorResult:
        """Free-running tank measurement (calibration steps 1-7).

        The loop is opened, the input disabled, the comparator buffered
        and the -Gm set to ``gmq_code`` (maximum by default); a small
        initial kick starts the oscillation.
        """
        from repro.engine.engine import get_default_engine

        return get_default_engine().run_one(
            self,
            self.oscillation_request(
                config,
                fs,
                n_samples=n_samples,
                gmq_code=gmq_code,
                seed=seed,
                substeps=substeps,
            ),
        )
