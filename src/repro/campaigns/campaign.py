"""Campaign execution: grid expansion and the service thin client.

``run_campaign`` takes a list of independent cells (attack name +
parameters + :class:`~repro.campaigns.scenario.ThreatScenario`),
executes each and returns the reports in cell order.  Cells are
independent by construction — every cell rebuilds its chip from the
scenario's :class:`ChipSpec` and seeds its own RNGs — so with
``n_workers > 1`` they become tasks on a supervised worker fleet of the
foundry service (:mod:`repro.service`): workers take cells from one
ready pool as they free up, die calibrations run as first-class tasks
that unblock their gated attack cells the moment they land, and
reports come back deterministic and bit-identical to a sequential run
whatever the worker count or backend.

Workers share one cross-process
:class:`~repro.engine.store.CalibrationStore`; each (lot, die,
standard) triple the attack adapters declare is calibrated exactly
once campaign-wide.  Calibration results are deterministic values, so
neither the store nor the scheduling can change any report — only who
pays for the compute.  Naming a ``journal`` directory makes the
campaign resumable: finished cells persist as they complete, and
re-running the identical campaign replays them instead of
re-executing.

``expand_matrix`` is the declarative front: attack x scheme x standard
x chip-fleet grids in one call, the shape the paper's comparative
security claims need (every attack against every defense under every
standard, on a fleet of distinct dies).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.campaigns.attacks import make_attack
from repro.campaigns.report import AttackReport
from repro.campaigns.scenario import (
    DEFAULT_LOT_SEED,
    ChipSpec,
    ThreatScenario,
)
from repro.engine import (
    CalibrationStore,
    clear_caches,
    get_default_engine,
    set_default_backend,
)
from repro.receiver.standards import standard_by_index


@dataclass(frozen=True)
class CampaignCell:
    """One independent unit of campaign work.

    Attributes:
        attack: Attack registry name.
        scenario: The threat scenario the attack runs against.
        attack_params: Keyword parameters of the attack adapter, as a
            tuple of pairs (picklable, hashable).
    """

    attack: str
    scenario: ThreatScenario
    attack_params: tuple[tuple[str, object], ...] = ()

    def label(self) -> str:
        """Unique-ish human-readable cell tag."""
        return f"{self.attack}@{self.scenario.describe()}"

    def execute(self) -> AttackReport:
        """Run this cell in the current process."""
        attack = make_attack(self.attack, **dict(self.attack_params))
        return attack.execute(self.scenario)

    def execute_scripted(self, script) -> AttackReport:
        """Replay this cell against a partition plan's measurement
        script (the scheduler's assembly step — see
        :meth:`~repro.campaigns.attacks.Attack.execute_scripted`)."""
        attack = make_attack(self.attack, **dict(self.attack_params))
        return attack.execute_scripted(self.scenario, script)


def cell_partition(cell: CampaignCell):
    """The cell's partition plan, or None when it runs scalar (see
    :meth:`~repro.campaigns.attacks.Attack.partition`)."""
    attack = make_attack(cell.attack, **dict(cell.attack_params))
    return attack.partition(cell.scenario)


@dataclass
class CampaignResult:
    """All reports of one campaign run, in cell order.

    Attributes:
        reports: One :class:`AttackReport` per cell.
        cell_seconds: Wall-clock seconds per cell (diagnostic only —
            kept out of the reports so they stay deterministic).
        n_workers: Worker processes the run was scheduled across — 1
            when it ran in-process, which a small (or mostly
            journal-replayed) campaign does even when more were
            requested.  Diagnostic, like the timings: reports are
            bit-identical whatever this value.
        backend: Engine backend the cells ran on.
    """

    reports: list[AttackReport]
    cell_seconds: list[float] = field(default_factory=list)
    n_workers: int = 1
    backend: str = "auto"

    def successes(self) -> list[AttackReport]:
        """The cells where the modelled attacker won."""
        return [r for r in self.reports if r.success]

    def total_queries(self) -> int:
        """Metered oracle measurements across the whole campaign."""
        return sum(r.n_queries for r in self.reports)


def expand_matrix(
    attacks: Sequence[str | tuple[str, dict]],
    schemes: Sequence[str | tuple[str, dict]] = ("fabric",),
    standard_indices: Sequence[int] = (0,),
    chip_ids: Sequence[int] = (0,),
    base: ThreatScenario | None = None,
    lot_seed: int = DEFAULT_LOT_SEED,
) -> list[CampaignCell]:
    """Expand an attack x scheme x standard x chip grid into cells.

    ``attacks`` and ``schemes`` entries are either plain registry names
    or ``(name, params)`` pairs; ``params`` feed the attack adapter or
    the baseline scheme constructor.  Every other scenario knob (cost
    model, budget, seeds, FFT size) comes from ``base``.  Expansion
    order — attacks outermost, chips innermost — is deterministic, so
    cell lists built from the same arguments are identical everywhere.

    The chip-fleet axis only multiplies the ``fabric`` target: the
    bench-model baseline schemes carry no chip, so expanding them per
    die would just duplicate identical cells.
    """
    base = base or ThreatScenario()
    cells: list[CampaignCell] = []
    for attack_entry in attacks:
        attack_name, attack_params = _named(attack_entry)
        for scheme_entry in schemes:
            scheme_name, scheme_params = _named(scheme_entry)
            scheme_chip_ids = (
                chip_ids if scheme_name == "fabric" else tuple(chip_ids)[:1]
            )
            for standard_index in standard_indices:
                for chip_id in scheme_chip_ids:
                    scenario = replace(
                        base,
                        scheme=scheme_name,
                        scheme_params=tuple(sorted(scheme_params.items())),
                        chip=ChipSpec(lot_seed=lot_seed, chip_id=chip_id),
                        standard_index=standard_index,
                    )
                    cells.append(
                        CampaignCell(
                            attack=attack_name,
                            scenario=scenario,
                            attack_params=tuple(sorted(attack_params.items())),
                        )
                    )
    return cells


def _named(entry: str | tuple[str, dict]) -> tuple[str, dict]:
    if isinstance(entry, str):
        return entry, {}
    name, params = entry
    return name, dict(params)


def _worker_init(backend: str | None, store_path: str | None = None) -> None:
    """Give each worker a pristine engine of the requested backend.

    Workers inherit (fork) or rebuild (spawn) the module state; either
    way the caches are dropped so every worker meters its own engine
    from zero — the caches are deterministic value caches, so this
    cannot change any report, only the sharing.  The campaign's shared
    calibration store is detached *before* the caches are cleared (a
    forked worker must not wipe the parent's store) and re-attached
    after, so every worker of one campaign reads through the same
    store.
    """
    engine = get_default_engine()
    engine.calibration_store = None
    if backend is not None:
        set_default_backend(backend)
    clear_caches()
    if store_path is not None:
        engine.calibration_store = CalibrationStore(store_path)


def provision_fleet(
    triples: Sequence[tuple[int, int, int]],
    store: CalibrationStore | str,
    backend: str | None = None,
) -> int:
    """Fleet-calibrate ``triples`` into ``store`` in one lockstep pass.

    Builds each missing triple's die and runs one
    :meth:`~repro.calibration.procedure.Calibrator.calibrate_fleet`
    over the whole (possibly mixed-lot, mixed-standard) fleet with the
    design-house default calibrator.  Results stream into the store as
    each die's machine completes, with ``"fleet"``-tagged audit events
    — one audit line per die computed, so "each die calibrated once
    campaign-wide" stays countable, and a die that fails mid-lot does
    not discard the dies already calibrated (a retry resumes from the
    warm store).  Already-stored triples are skipped.  The lockstep
    batches run on the engine's threaded key axis, whose worker
    threads never outlive a call — forking campaign workers afterwards
    is safe.

    Returns the number of triples actually computed.
    """
    from repro.calibration.procedure import Calibrator

    if not isinstance(store, CalibrationStore):
        store = CalibrationStore(store)
    triples = list(triples)
    todo = [
        triple
        for triple, hit in zip(triples, store.get_many(triples))
        if hit is None
    ]
    if not todo:
        return 0
    chips = [
        ChipSpec(lot_seed=lot_seed, chip_id=chip_id).build()
        for lot_seed, chip_id, _ in todo
    ]
    standards = [standard_by_index(index) for _, _, index in todo]
    engine = get_default_engine()
    previous = engine.backend
    if backend is not None:
        set_default_backend(backend)
    try:
        Calibrator().calibrate_fleet(
            chips,
            standards,
            on_result=lambda die, result: store.put(
                todo[die], result, event="fleet"
            ),
        )
    finally:
        engine.backend = previous
    return len(todo)


def cell_triples(cell: CampaignCell) -> set[tuple[int, int, int]]:
    """The (lot_seed, chip_id, standard_index) calibrations ``cell``
    will demand when it executes.

    The attack adapter declares its provisioning demand
    (:meth:`~repro.campaigns.attacks.Attack.provisioning_triples`):
    oracle-only attacks declare none — pre-provisioning a die no cell
    calibrates would add work the sequential campaign never did.  The
    service scheduler gates each cell on exactly this set."""
    attack = make_attack(cell.attack, **dict(cell.attack_params))
    return set(attack.provisioning_triples(cell.scenario))


def fabric_triples(cells: Sequence[CampaignCell]) -> list[tuple[int, int, int]]:
    """The unique calibrations a whole campaign will perform, in
    deterministic order (the union of :func:`cell_triples`)."""
    triples: set[tuple[int, int, int]] = set()
    for cell in cells:
        triples.update(cell_triples(cell))
    return sorted(triples)


def run_campaign(
    cells: Iterable[CampaignCell],
    n_workers: int | None = None,
    backend: str | None = None,
    json_path: str | None = None,
    calibration_store: str | None = None,
    journal: str | None = None,
) -> CampaignResult:
    """Execute every cell; reports come back in cell order.

    A thin client of the foundry service (:mod:`repro.service`): the
    cell list becomes one :class:`~repro.service.jobs.CampaignJob`,
    driven to completion through ``submit(job).result()``.  Drive the
    service directly when you want streaming results or cancellation.

    Args:
        cells: Independent campaign cells (see :func:`expand_matrix`).
        n_workers: 1 runs in-process; more shards cells over a
            supervised worker fleet private to the campaign (one
            private engine per worker).  None resolves
            ``REPRO_SERVICE_WORKERS`` (default 1).  Reports are
            bit-identical whatever the count; non-positive counts are
            rejected up front.
        backend: Optional engine backend for the cells (restored after
            an in-process run; workers die with their setting).
        json_path: When given, the machine-readable campaign artefact
            is written there (see :mod:`repro.campaigns.serialization`).
        calibration_store: Directory for the cross-process calibration
            store the workers share.  Defaults to the journal's bundled
            store when ``journal`` is named, else a campaign-private
            temporary directory removed afterwards; name one explicitly
            to keep fleet calibrations warm across campaigns.
            Calibration results are deterministic values, so the store
            cannot change any report.
        journal: Directory of the on-disk job journal.  Completed cells
            persist there as they finish, so re-running the identical
            campaign after a kill resumes from the finished cells and
            reproduces the uninterrupted run's reports bit-identically.

    Sharded runs schedule the unique (lot, die, standard) calibrations
    the attack adapters declare as first-class tasks ahead of the cells
    they gate — each die calibrated exactly once campaign-wide, with
    early-calibrated dies unblocking their attack cells while straggler
    dies are still calibrating on other workers.
    """
    from repro.service import CampaignJob, FoundryService

    cells = list(cells)
    handle = FoundryService().submit(
        CampaignJob(
            cells=tuple(cells),
            n_workers=n_workers,
            backend=backend,
            calibration_store=calibration_store,
            journal=journal,
        )
    )
    result = handle.result()
    if json_path is not None:
        from repro.campaigns.serialization import dump_json, campaign_result_to_dict

        dump_json(json_path, campaign_result_to_dict(result, cells=cells))
    return result
