"""Shared scaffolding for the per-figure experiment drivers.

Every experiment produces an :class:`ExperimentResult` — named columns,
rows of plain numbers/strings, and a free-form notes block — so the
benchmark harness and EXPERIMENTS.md generation share one format.

Chip access goes through the batched simulation engine:
:func:`calibrated` memoises full calibrations on the engine's bounded
cache (shared across experiments in one process), and
:func:`measure_keys` is the batched SNR sweep primitive the per-figure
drivers build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.calibration.procedure import CalibrationResult
from repro.campaigns.scenario import ChipSpec, provision_calibration
from repro.engine.engine import clear_caches  # re-exported test hook
from repro.process.variations import ChipFactory
from repro.receiver.config import ConfigWord
from repro.receiver.performance import (
    measure_modulator_snr_batch,
    measure_receiver_snr_batch,
)
from repro.receiver.receiver import Chip
from repro.receiver.standards import STANDARDS, Standard

#: Lot seed shared by every experiment, so they all see the same silicon.
EXPERIMENT_LOT_SEED = 2020

#: The chip the headline experiments run on (the paper's single device).
HERO_CHIP_ID = 0


@dataclass
class ExperimentResult:
    """Uniform result container.

    Attributes:
        experiment_id: Table/figure tag (e.g. ``fig7``).
        title: What the experiment reproduces.
        columns: Column headers.
        rows: Data rows (same arity as ``columns``).
        notes: Free-form remarks (paper-vs-measured commentary).
    """

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Render an aligned plain-text table."""
        widths = [len(c) for c in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = [
                f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
            ]
            rendered_rows.append(rendered)
            for i, cell in enumerate(rendered):
                widths[i] = max(widths[i], len(cell))
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for rendered in rendered_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(rendered, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)


def hero_chip() -> Chip:
    """The experiment chip (die 0 of the reference lot)."""
    return Chip(variations=ChipFactory(lot_seed=EXPERIMENT_LOT_SEED).draw(HERO_CHIP_ID))


def chip_by_id(chip_id: int) -> Chip:
    """Any die of the reference lot."""
    return Chip(variations=ChipFactory(lot_seed=EXPERIMENT_LOT_SEED).draw(chip_id))


def calibrated(chip: Chip, standard: Standard | None = None) -> CalibrationResult:
    """Calibration result for a reference-lot chip, cached across
    experiments and shared with campaigns: the campaign layer's
    :func:`~repro.campaigns.scenario.provision_calibration` of the
    chip's die.

    The result lives on the default engine's bounded LRU cache (the
    old module-global grew without limit over long sweeps); clear it
    with :func:`clear_caches`.
    """
    return provision_calibration(
        ChipSpec(EXPERIMENT_LOT_SEED, chip.chip_id),
        standard or STANDARDS[0],
        chip=chip,
    )


def measure_keys(
    chip: Chip,
    keys: Sequence[ConfigWord],
    standard: Standard | None = None,
    at_receiver: bool = False,
    n_fft: int | None = None,
    n_baseband: int = 512,
    seed: int = 0,
) -> np.ndarray:
    """Batched SNR sweep over ``keys`` — the experiments' workhorse.

    One engine submission measures every key under the standard's
    stimulus, at the modulator output by default or after the digital
    section with ``at_receiver=True``.  Returns the SNRs in dB, in key
    order.
    """
    standard = standard or STANDARDS[0]
    if not keys:
        return np.empty(0)
    if at_receiver:
        measurements = measure_receiver_snr_batch(
            chip, keys, standard, n_baseband=n_baseband, seed=seed
        )
    else:
        measurements = measure_modulator_snr_batch(
            chip, keys, standard, n_fft=n_fft, seed=seed
        )
    return np.array([m.snr_db for m in measurements])
