"""Campaign-API tests: registry, scenarios, report schema, determinism
across backends and worker processes, atomic budget metering, JSON
artefacts."""

import json
import os

import numpy as np
import pytest

from repro.attacks import MeasurementOracle, QueryBudgetExceeded
from repro.baselines import MemristorBiasLock, MixLock, ProposedFabricLock
from repro.campaigns import (
    ATTACKS,
    AttackReport,
    CampaignCell,
    ChipSpec,
    Removal,
    Sat,
    TARGETS,
    ThreatScenario,
    attack_report_to_dict,
    campaign_result_to_dict,
    expand_matrix,
    make_attack,
    run_campaign,
)
from repro.locking import ProgrammabilityLock
from repro.receiver import ConfigWord


def quick_cells():
    """Cheap deterministic cells covering oracle and scheme attacks."""
    base = ThreatScenario(budget=6, n_fft=1024, seed=5)
    return [
        CampaignCell("brute-force", base),
        CampaignCell(
            "brute-force",
            base.with_(scheme="mixlock", scheme_params=(("n_key_bits", 5),)),
        ),
        CampaignCell(
            "sat", base.with_(scheme="mixlock", scheme_params=(("n_key_bits", 5),))
        ),
        CampaignCell("removal", base.with_(scheme="memristor")),
        CampaignCell("brute-force", base.with_(budget=20, max_queries=4)),
    ]


class TestRegistry:
    def test_all_five_attacks_registered(self):
        # The five incompatible pre-campaign APIs, plus annealing.
        assert {"brute-force", "genetic", "removal", "sat", "transfer"} <= set(
            ATTACKS
        )
        assert "annealing" in ATTACKS

    def test_make_attack_unknown_name(self):
        with pytest.raises(KeyError, match="unknown attack"):
            make_attack("rowhammer")

    def test_make_attack_params(self):
        attack = make_attack("genetic", population_size=8)
        assert attack.population_size == 8

    def test_target_registry_builds_baselines(self):
        scenario = ThreatScenario(
            scheme="mixlock", scheme_params=(("n_key_bits", 4),)
        )
        scheme = scenario.resolve_scheme()
        assert isinstance(scheme, MixLock)
        assert scheme.n_key_bits == 4

    def test_unknown_scheme_and_cost(self):
        with pytest.raises(KeyError, match="unknown target scheme"):
            ThreatScenario(scheme="adamantium").resolve_scheme()
        with pytest.raises(KeyError, match="unknown cost model"):
            ThreatScenario(cost="free").cost_model()

    def test_fabric_in_targets(self):
        assert "fabric" in TARGETS


class TestChipSpec:
    def test_same_spec_same_silicon(self):
        a = ChipSpec(chip_id=2).build()
        b = ChipSpec(chip_id=2).build()
        assert a.variations.summary() == b.variations.summary()

    def test_distinct_ids_distinct_silicon(self):
        a = ChipSpec(chip_id=0).build()
        b = ChipSpec(chip_id=1).build()
        assert a.variations.summary() != b.variations.summary()

    def test_calibration_cache_is_lot_qualified(self):
        """Dies with equal ids from different lots are different silicon
        and must not share engine-cached calibrations (regression: the
        cache used to key on chip_id alone, so a sequential run handed
        lot B the lot-A calibration while sharded workers recomputed it
        correctly — breaking sequential == sharded determinism).

        Uses sentinel factories on a private engine: only the cache-key
        resolution is under test, not the calibration itself."""
        from repro.engine import SimulationEngine
        from repro.receiver import STANDARDS

        engine = SimulationEngine()
        std = STANDARDS[0]
        spec_a = ChipSpec(lot_seed=1, chip_id=0)
        spec_b = ChipSpec(lot_seed=2, chip_id=0)

        def cached(spec, factory):
            # The lot-qualified key shape provision_calibration uses.
            return engine.calibrated(
                spec.build(), std, factory=factory,
                key=(spec.lot_seed, spec.chip_id, std.index),
            )

        sentinel_a, sentinel_b = object(), object()
        assert cached(spec_a, lambda: sentinel_a) is sentinel_a
        assert cached(spec_b, lambda: sentinel_b) is sentinel_b
        assert cached(spec_a, lambda: object()) is sentinel_a


class TestAtomicBudget:
    def test_charge_batch_is_atomic(self, hero_chip, ref_standard, rng):
        oracle = MeasurementOracle(
            chip=hero_chip, standard=ref_standard, n_fft=1024, max_queries=3
        )
        keys = [ConfigWord.random(rng) for _ in range(5)]
        with pytest.raises(QueryBudgetExceeded):
            oracle.snr_batch(keys)
        # Nothing was charged: the overrun was refused before any
        # measurement, not mid-loop.
        assert oracle.n_queries == 0
        assert oracle.elapsed_seconds == 0.0
        oracle.snr_batch(keys[:3])
        assert oracle.n_queries == 3
        with pytest.raises(QueryBudgetExceeded):
            oracle.snr(keys[0])
        assert oracle.n_queries == 3

    def test_charge_batch_negative_guard(self, hero_chip, ref_standard):
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard)
        with pytest.raises(ValueError):
            oracle.charge_batch(-1, 1.0)

    def test_budget_raises_at_identical_query_counts(self):
        """QueryBudgetExceeded fires at the same metered count through
        the unified API, whatever backend or worker count ran the cell."""
        cell = CampaignCell(
            "brute-force",
            ThreatScenario(budget=20, max_queries=4, n_fft=1024, seed=7),
        )
        counts = set()
        for backend in ("reference", "vectorized"):
            for n_workers in (1, 2):
                campaign = run_campaign(
                    [cell, cell], n_workers=n_workers, backend=backend
                )
                for report in campaign.reports:
                    assert report.extra("budget_exhausted") is True
                    assert not report.success
                    counts.add(report.n_queries)
        assert counts == {4}


class TestLockEffectiveness:
    def test_batched_draw_matches_scalar_loop(self):
        scheme = MemristorBiasLock()
        batched = scheme.lock_effectiveness(32, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        key_space = 1 << scheme.profile.key_bits
        failures = 0
        for _ in range(32):
            key = int(rng.integers(0, key_space))
            if key != scheme.correct_key and not scheme.unlocks(key):
                failures += 1
        assert batched == failures / 32

    def test_zero_keys_guarded(self, hero_chip, ref_standard, quick_calibration):
        with pytest.raises(ValueError, match="n_random_keys"):
            MemristorBiasLock().lock_effectiveness(0, np.random.default_rng(1))
        lock = ProgrammabilityLock(chip=hero_chip)
        lock._lut[ref_standard.index] = quick_calibration
        proposed = ProposedFabricLock(lock=lock, standard=ref_standard)
        with pytest.raises(ValueError, match="n_random_keys"):
            proposed.lock_effectiveness(0, np.random.default_rng(1))


class TestDeterminism:
    def test_backends_produce_identical_reports(self):
        cells = quick_cells()
        ref = run_campaign(cells, backend="reference")
        vec = run_campaign(cells, backend="vectorized")
        assert ref.reports == vec.reports

    def test_sharded_run_matches_sequential(self):
        cells = quick_cells()
        seq = run_campaign(cells, n_workers=1)
        par = run_campaign(cells, n_workers=2)
        assert seq.reports == par.reports
        assert par.n_workers == 2
        assert len(par.cell_seconds) == len(cells)

    def test_same_seed_same_reports(self):
        cells = quick_cells()
        assert run_campaign(cells).reports == run_campaign(cells).reports

    def test_workers_guard(self):
        with pytest.raises(ValueError, match="n_workers"):
            run_campaign(quick_cells(), n_workers=0)


class TestExpandMatrix:
    def test_grid_shape_and_order(self):
        cells = expand_matrix(
            attacks=["removal", ("brute-force", {"batch_size": 4})],
            schemes=["fabric", ("mixlock", {"n_key_bits": 5})],
            standard_indices=(0, 1),
            chip_ids=(0, 3),
        )
        # The chip axis multiplies only the fabric target; baseline
        # cells carry no chip, so per attack: 2 std x (2 + 1) chips.
        assert len(cells) == 2 * 2 * (2 + 1)
        # Attacks outermost, chips innermost.
        assert cells[0].attack == "removal"
        assert cells[0].scenario.chip.chip_id == 0
        assert cells[1].scenario.chip.chip_id == 3
        assert cells[-1].attack == "brute-force"
        assert dict(cells[-1].attack_params) == {"batch_size": 4}
        assert dict(cells[-1].scenario.scheme_params) == {"n_key_bits": 5}
        assert cells[-1].scenario.standard_index == 1
        assert len({c.label() for c in cells}) == len(cells)

    def test_baseline_cells_not_duplicated_per_chip(self):
        cells = expand_matrix(
            ["removal"], schemes=["memristor"], chip_ids=(0, 1, 2, 3)
        )
        assert len(cells) == 1

    def test_base_scenario_propagates(self):
        cells = expand_matrix(
            ["removal"],
            base=ThreatScenario(budget=7, cost="simulation", seed=42),
        )
        assert cells[0].scenario.budget == 7
        assert cells[0].scenario.cost == "simulation"
        assert cells[0].scenario.seed == 42

    def test_empty_axes_expand_to_empty_grids(self):
        # An empty axis empties the whole product — no attack, no
        # standard, or (for the chip-carrying fabric target) no chip.
        assert expand_matrix([]) == []
        assert expand_matrix(["removal"], standard_indices=()) == []
        assert expand_matrix(["removal"], chip_ids=()) == []
        # Baseline schemes carry no chip, so an empty chip axis still
        # empties their expansion (the axis is sliced, not defaulted).
        assert expand_matrix(
            ["removal"], schemes=["memristor"], chip_ids=()
        ) == []
        # An empty campaign is a valid (empty) run, not an error.
        result = run_campaign([])
        assert result.reports == [] and result.cell_seconds == []

    def test_duplicate_standards_expand_to_duplicate_cells(self):
        # Grid semantics: axes are sequences, not sets — a repeated
        # standard index repeats its cells, in expansion order.
        cells = expand_matrix(["removal"], standard_indices=(0, 0, 1))
        assert len(cells) == 3
        assert cells[0] == cells[1]
        assert cells[2].scenario.standard_index == 1

    def test_single_cell_grid(self):
        cells = expand_matrix(
            ["brute-force"],
            schemes=["fabric"],
            standard_indices=(3,),
            chip_ids=(5,),
        )
        assert len(cells) == 1
        assert cells[0].scenario.standard_index == 3
        assert cells[0].scenario.chip.chip_id == 5


class TestReportsAndSerialization:
    def test_report_summary_lines(self):
        report = AttackReport(
            attack="brute-force",
            scenario=None,
            applicable=True,
            success=False,
            best_metric_db=21.5,
            n_queries=12,
            lab_seconds=12.0,
        )
        assert "brute-force failed after 12 queries" in report.summary()
        na = AttackReport(
            attack="sat", scenario=None, applicable=False, success=False
        )
        assert "not applicable" in na.summary()

    def test_json_artefact_roundtrip(self, tmp_path):
        cells = quick_cells()[:2]
        path = tmp_path / "campaign.json"
        campaign = run_campaign(cells, json_path=str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.campaigns/v1"
        assert payload["n_cells"] == 2
        assert payload["cells"] == [c.label() for c in cells]
        assert [r["attack"] for r in payload["reports"]] == [
            r.attack for r in campaign.reports
        ]
        # Every value survived the jsonable normalisation.
        json.dumps(payload)

    def test_report_dict_handles_numpy(self):
        report = AttackReport(
            attack="x",
            scenario=ThreatScenario(),
            applicable=True,
            success=bool(np.bool_(True)),
            best_metric_db=np.float64(1.5),
            extras={"snrs": np.array([1.0, 2.0]), "n": np.int64(3)},
        )
        payload = attack_report_to_dict(report)
        json.dumps(payload)
        assert payload["extras"]["snrs"] == [1.0, 2.0]

    def test_campaign_result_counters(self):
        campaign = run_campaign(quick_cells()[:2])
        payload = campaign_result_to_dict(campaign)
        assert payload["total_queries"] == campaign.total_queries()
        assert payload["n_successes"] == len(campaign.successes())


class TestSchemeLevelAdjudication:
    def test_removal_adjudicate_outside_campaign(self):
        report = Removal().adjudicate(MemristorBiasLock())
        assert report.applicable and report.success
        assert report.scenario is None
        assert report.n_queries == 1

    def test_sat_applicability_probe(
        self, hero_chip, ref_standard, quick_calibration
    ):
        assert Sat.applicable_to(MixLock(n_key_bits=4))
        lock = ProgrammabilityLock(chip=hero_chip)
        lock._lut[ref_standard.index] = quick_calibration
        fabric = ProposedFabricLock(lock=lock, standard=ref_standard)
        assert not Sat.applicable_to(fabric)
        report = Sat().adjudicate(fabric)
        assert not report.applicable
        assert "no miter" in str(report.extra("reason"))


class TestRunnerJson:
    def test_runner_writes_json_artefact(self, tmp_path):
        import io

        from repro.experiments import runner

        path = tmp_path / "report.json"
        runner.run_all(
            names=["tab-ovr"], stream=io.StringIO(), json_path=str(path)
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.experiments/v1"
        assert payload["mode"] == "quick"
        assert payload["experiments"][0]["experiment_id"] == "tab-overhead"
        assert payload["experiments"][0]["rows"][-1][0] == "this work"

    def test_runner_json_names_the_backend_it_ran(self, tmp_path):
        """The job restores the engine's backend before the runner
        writes its artefact, which must still name the one it ran."""
        import io

        from repro.engine import get_default_engine
        from repro.experiments import runner

        default = get_default_engine().backend
        other = "vectorized" if default == "reference" else "reference"
        path = tmp_path / "report.json"
        stream = io.StringIO()
        runner.run_all(
            names=["tab-ovr"], stream=stream, backend=other,
            json_path=str(path),
        )
        assert json.loads(path.read_text())["backend"] == other
        assert f"# engine backend={other}:" in stream.getvalue()
        assert get_default_engine().backend == default


class TestOracleAttackAdapters:
    """Adapter metering matches the primitive attacks exactly."""

    def test_brute_force_adapter_matches_primitive(self):
        from repro.attacks import BruteForceAttack

        scenario = ThreatScenario(budget=8, n_fft=1024, seed=9)
        report = make_attack("brute-force").execute(scenario)
        oracle = scenario.oracle()
        outcome = BruteForceAttack(
            oracle, rng=np.random.default_rng(9)
        ).run(8)
        assert report.n_queries == oracle.n_queries
        assert report.best_metric_db == outcome.best_snr_db
        assert report.best_key == outcome.best_key.encode()
        assert report.lab_seconds == oracle.elapsed_seconds

    def test_oracle_attacks_not_applicable_to_bench_schemes(self):
        scenario = ThreatScenario(
            scheme="memristor", budget=4, n_fft=1024, seed=1
        )
        for name in ("annealing", "genetic", "transfer"):
            report = make_attack(name).execute(scenario)
            assert not report.applicable
            assert "oracle" in str(report.extra("reason"))


class TestCalibrationStoreSharing:
    def test_fabric_triples_follow_attack_demand(self):
        """Only attacks that calibrate declare triples: oracle-only
        attacks must not make the campaign pre-provision anything."""
        base = ThreatScenario(budget=2, n_fft=1024)
        cells = [
            CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=1))),
            CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=0))),
            CampaignCell("removal", base.with_(chip=ChipSpec(chip_id=1))),
            CampaignCell("removal", base.with_(scheme="memristor")),
            CampaignCell("brute-force", base.with_(chip=ChipSpec(chip_id=7))),
            CampaignCell("transfer", base.with_(chip=ChipSpec(chip_id=2))),
        ]
        from repro.campaigns.campaign import fabric_triples

        # removal provisions its own die; transfer its donor (die 1);
        # brute-force only queries the oracle and provisions nothing.
        assert fabric_triples(cells) == [(2020, 0, 0), (2020, 1, 0)]

    def test_sharded_fleet_calibrates_once_per_die(self, tmp_path):
        """The tentpole property: workers share provisioning through the
        store, so a fleet campaign calibrates each die exactly once."""
        from repro.engine import CalibrationStore

        base = ThreatScenario(budget=2, n_fft=1024, seed=3)
        cells = [
            CampaignCell(
                "removal",
                base.with_(chip=ChipSpec(chip_id=chip_id), seed=seed),
            )
            for chip_id in range(2)
            for seed in (3, 4)
        ]
        store = str(tmp_path / "store")
        seq = run_campaign(cells)
        par = run_campaign(cells, n_workers=2, calibration_store=store)
        assert seq.reports == par.reports
        events = CalibrationStore(store).compute_events()
        assert len(events) == 2  # one calibration per die, fleet-wide

    def test_sequential_run_persists_to_named_store(self, tmp_path):
        from repro.engine import CalibrationStore, clear_caches

        clear_caches()
        store = str(tmp_path / "store")
        base = ThreatScenario(budget=2, n_fft=1024, seed=3)
        cells = [
            CampaignCell("removal", base),
            CampaignCell("removal", base.with_(seed=4)),
        ]
        run_campaign(cells, calibration_store=store)
        assert len(CalibrationStore(store)) == 1
        # A later campaign (fresh engine caches) reuses it: no new computes.
        clear_caches()
        run_campaign(cells, calibration_store=store)
        assert len(CalibrationStore(store).compute_events()) == 1
