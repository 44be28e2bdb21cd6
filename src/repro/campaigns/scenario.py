"""Declarative threat scenarios: *what* is attacked under *which* rules.

A :class:`ThreatScenario` names everything an attack needs — the target
(a baseline scheme or a :class:`~repro.locking.scheme.
ProgrammabilityLock`'d chip), the operation standard, the measurement
cost model, the query budget and the seeds — as plain picklable data,
so campaign cells can be shipped to worker processes and expanded over
scheme x standard x chip-fleet grids.  Chips are named by
:class:`ChipSpec` (lot seed + die id): process variations are a pure
function of that pair, so a fleet of distinct physical chips is just a
range of ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.attacks.cost import AttackCostModel
from repro.attacks.oracle import MeasurementOracle
from repro.baselines import (
    AnalogLockScheme,
    BiasObfuscationLock,
    CalibrationLoopLock,
    CurrentMirrorLock,
    MemristorBiasLock,
    MixLock,
    NeuralBiasLock,
    ProposedFabricLock,
)
from repro.engine import get_default_engine
from repro.locking.scheme import ProgrammabilityLock
from repro.process.variations import ChipFactory
from repro.receiver.receiver import Chip
from repro.receiver.standards import Standard, standard_by_index

#: The shared reference manufacturing lot (matches the experiments' lot).
DEFAULT_LOT_SEED = 2020

#: Registry name of the paper's proposed scheme.
FABRIC = "fabric"

#: Named per-measurement cost models a scenario can select.
COST_MODELS: dict[str, Callable[[], AttackCostModel]] = {
    "simulation": AttackCostModel.simulation,
    "hardware": AttackCostModel.hardware,
}


@dataclass(frozen=True)
class ChipSpec:
    """A fabricated die, named by its manufacturing draw.

    Two specs with the same ``(lot_seed, chip_id)`` denote the same
    silicon in every process — the campaign sharding relies on this to
    rebuild identical chips inside worker processes.
    """

    lot_seed: int = DEFAULT_LOT_SEED
    chip_id: int = 0

    def build(self) -> Chip:
        """Fabricate the chip (deterministic variation draw)."""
        return Chip(
            variations=ChipFactory(lot_seed=self.lot_seed).draw(self.chip_id)
        )


@dataclass(frozen=True)
class ThreatScenario:
    """One attacked configuration, fully declarative.

    Attributes:
        scheme: Target registry name — :data:`FABRIC` for the paper's
            programmability-fabric lock, or a baseline name from
            :data:`TARGETS`.
        scheme_params: Keyword arguments of the baseline constructor,
            as a tuple of pairs (hashable and picklable).
        chip: The oracle die on the attacker's bench (fabric target).
        standard_index: Operation mode under attack.
        cost: Cost-model name from :data:`COST_MODELS`.
        budget: Attack effort knob — trials, oracle evaluations or
            population-generations worth of queries, depending on the
            attack.
        max_queries: Hard oracle budget; None for unlimited.
        n_fft: Measurement record length per oracle probe.
        seed: Attack RNG seed (key draws, mutations, move proposals).
        measurement_seed: Oracle measurement-noise seed.
    """

    scheme: str = FABRIC
    scheme_params: tuple[tuple[str, object], ...] = ()
    chip: ChipSpec = field(default_factory=ChipSpec)
    standard_index: int = 0
    cost: str = "hardware"
    budget: int = 150
    max_queries: int | None = None
    n_fft: int = 2048
    seed: int = 0
    measurement_seed: int = 0

    # -- resolution helpers -------------------------------------------------

    def standard(self) -> Standard:
        """The operation mode under attack."""
        return standard_by_index(self.standard_index)

    def cost_model(self) -> AttackCostModel:
        """Resolve the named per-measurement cost model."""
        if self.cost not in COST_MODELS:
            raise KeyError(
                f"unknown cost model {self.cost!r}; "
                f"known: {sorted(COST_MODELS)}"
            )
        return COST_MODELS[self.cost]()

    def build_chip(self) -> Chip:
        """Fabricate the scenario's oracle chip."""
        return self.chip.build()

    def oracle(self, chip: Chip | None = None) -> MeasurementOracle:
        """A metered measurement oracle on the scenario's chip."""
        return MeasurementOracle(
            chip=chip if chip is not None else self.build_chip(),
            standard=self.standard(),
            cost_model=self.cost_model(),
            n_fft=self.n_fft,
            max_queries=self.max_queries,
            seed=self.measurement_seed,
        )

    def resolve_scheme(self) -> AnalogLockScheme:
        """Build the target locking scheme named by this scenario."""
        if self.scheme not in TARGETS:
            raise KeyError(
                f"unknown target scheme {self.scheme!r}; "
                f"known: {sorted(TARGETS)}"
            )
        return TARGETS[self.scheme](self)

    def describe(self) -> str:
        """Compact cell label for progress lines and JSON artefacts."""
        return (
            f"{self.scheme}/chip{self.chip.chip_id}"
            f"/std{self.standard_index}/seed{self.seed}"
        )

    def with_(self, **changes) -> "ThreatScenario":
        """Functional update (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)


def provision_calibration(spec: ChipSpec, standard: Standard, chip: Chip | None = None):
    """Full (design-house) calibration of ``spec``'s die, memoised: the
    one on-demand calibration entry point of campaigns and experiments.

    The result lives on the default engine's bounded cache (and its
    attached store) under ``(lot_seed, chip_id, standard.index)`` — the
    lot seed is part of the key because campaigns make lots a scenario
    axis, and dies with equal ids from different lots are different
    silicon.  A miss runs the engine's default factory, the default
    :class:`~repro.calibration.procedure.Calibrator`.
    """
    if chip is None:
        chip = spec.build()
    return get_default_engine().calibrated(
        chip, standard, key=(spec.lot_seed, spec.chip_id, standard.index)
    )


def _build_fabric(scenario: ThreatScenario) -> ProposedFabricLock:
    """The proposed scheme: a chip locked by withholding its settings.

    Provisioning calibrates the die for the scenario's standard with
    the design house's (default) calibrator; the result is memoised on
    the default engine's bounded cache, exactly as the experiment
    drivers do, so repeated cells on one die calibrate once per
    process.
    """
    chip = scenario.build_chip()
    standard = scenario.standard()
    lock = ProgrammabilityLock(chip=chip)
    lock._lut[standard.index] = provision_calibration(
        scenario.chip, standard, chip=chip
    )
    return ProposedFabricLock(lock=lock, standard=standard, n_fft=scenario.n_fft)


def _baseline(cls) -> Callable[[ThreatScenario], AnalogLockScheme]:
    return lambda scenario: cls(**dict(scenario.scheme_params))


#: Target registry: scenario scheme name -> scheme factory.
TARGETS: dict[str, Callable[[ThreatScenario], AnalogLockScheme]] = {
    FABRIC: _build_fabric,
    "memristor": _baseline(MemristorBiasLock),
    "bias-obfuscation": _baseline(BiasObfuscationLock),
    "current-mirror": _baseline(CurrentMirrorLock),
    "mixlock": _baseline(MixLock),
    "calibration-lock": _baseline(CalibrationLoopLock),
    "neural-bias": _baseline(NeuralBiasLock),
}
