"""Attack-suite tests: cost model, oracle, brute force, optimisation,
transfer, removal, SAT."""

import itertools

import numpy as np
import pytest

from repro.attacks import (
    AttackCostModel,
    BruteForceAttack,
    GeneticAttack,
    MeasurementOracle,
    QueryBudgetExceeded,
    SatAttack,
    SatAttackNotApplicable,
    SimulatedAnnealingAttack,
    TransferAttack,
    assert_sat_attack_applicable,
    expected_trials,
    format_years,
    removal_attack,
    success_probability,
)
from repro.baselines import MemristorBiasLock, MixLock
from repro.locking import ProgrammabilityLock
from repro.logic import Netlist, lock_netlist, parity_tree, ripple_adder


class TestCostModel:
    def test_paper_simulation_times(self):
        sim = AttackCostModel.simulation()
        assert sim.snr_seconds == 20 * 60
        assert sim.dr_sweep_seconds == 3 * 3600
        assert sim.sfdr_seconds == 30 * 60

    def test_brute_force_years_scale(self):
        # Half of 2^64 trials at 20 min each: astronomically long.
        years = AttackCostModel.simulation().brute_force_years()
        assert years > 1e14

    def test_campaign_accounting(self):
        hw = AttackCostModel.hardware()
        total = hw.campaign_seconds(n_snr=10, n_sfdr=5)
        assert total == pytest.approx(10 * hw.snr_seconds + 5 * hw.sfdr_seconds)

    def test_format_years_ranges(self):
        assert "s" in format_years(1e-9)
        assert "days" in format_years(0.5)
        assert "years" in format_years(3.0)
        assert "e6" in format_years(2.2e6)


class TestProbabilityMath:
    def test_success_probability_bounds(self):
        assert success_probability(100, 0.0) == 0.0
        assert success_probability(1, 1.0) == 1.0
        assert 0 < success_probability(10, 0.01) < 0.1

    def test_expected_trials(self):
        assert expected_trials(0.01) == pytest.approx(100.0)
        assert expected_trials(0.0) == float(1 << 64)

    def test_probability_guard(self):
        with pytest.raises(ValueError):
            success_probability(10, 1.5)


class TestOracle:
    def test_query_metering(self, hero_chip, ref_standard, correct_key):
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=2048)
        oracle.snr(correct_key)
        oracle.sfdr(correct_key)
        assert oracle.n_queries == 2
        assert oracle.elapsed_seconds == pytest.approx(
            oracle.cost_model.snr_seconds + oracle.cost_model.sfdr_seconds
        )

    def test_budget_enforced(self, hero_chip, ref_standard, correct_key):
        oracle = MeasurementOracle(
            chip=hero_chip, standard=ref_standard, n_fft=2048, max_queries=2
        )
        oracle.snr(correct_key)
        oracle.snr(correct_key)
        with pytest.raises(QueryBudgetExceeded):
            oracle.snr(correct_key)

    def test_unlocks_adjudication(self, hero_chip, ref_standard, correct_key, rng):
        from repro.receiver import ConfigWord

        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=4096)
        assert oracle.unlocks(correct_key)
        assert not oracle.unlocks(ConfigWord.random(rng))


class TestFleetBatchMetering:
    """Metering at fleet-batch boundaries: a fleet round that charges a
    whole lot at once must refuse at exactly the query count where
    per-die charging refuses, with meters un-advanced either way."""

    def _oracle(self, hero_chip, ref_standard, max_queries):
        return MeasurementOracle(
            chip=hero_chip,
            standard=ref_standard,
            n_fft=1024,
            max_queries=max_queries,
        )

    @pytest.mark.parametrize("fleet_size", [2, 5])
    def test_budget_boundary_identical_per_die_vs_fleet(
        self, hero_chip, ref_standard, fleet_size
    ):
        # Two full fleet rounds fit; the third round's first
        # measurement is the first over-budget one either way.
        budget = 2 * fleet_size
        per_die = self._oracle(hero_chip, ref_standard, budget)
        fleet = self._oracle(hero_chip, ref_standard, budget)
        seconds = per_die.cost_model.snr_seconds

        rounds_per_die = 0
        try:
            while True:
                for _ in range(fleet_size):  # one charge per die
                    per_die.charge_batch(1, seconds)
                rounds_per_die += 1
        except QueryBudgetExceeded:
            pass

        rounds_fleet = 0
        try:
            while True:
                fleet.charge_batch(fleet_size, seconds)  # one fleet charge
                rounds_fleet += 1
        except QueryBudgetExceeded:
            pass

        # Same refusal round, same meters after refusal: the refused
        # fleet chunk charged nothing, the refused per-die measurement
        # charged nothing, and everything before them was identical.
        assert rounds_fleet == rounds_per_die == 2
        assert per_die.n_queries == fleet.n_queries == budget
        assert per_die.elapsed_seconds == fleet.elapsed_seconds
        assert per_die.remaining_queries() == fleet.remaining_queries() == 0

    def test_overrun_leaves_meters_unadvanced(self, hero_chip, ref_standard):
        oracle = self._oracle(hero_chip, ref_standard, max_queries=7)
        seconds = oracle.cost_model.snr_seconds
        oracle.charge_batch(5, seconds)
        with pytest.raises(QueryBudgetExceeded):
            oracle.charge_batch(3, seconds)  # 5 + 3 > 7: refuse atomically
        assert oracle.n_queries == 5
        assert oracle.elapsed_seconds == 5 * seconds
        # The remaining budget is still spendable after the refusal.
        oracle.charge_batch(2, seconds)
        assert oracle.n_queries == 7


class TestBruteForce:
    def test_campaign_fails_within_budget(self, hero_chip, ref_standard):
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=2048)
        outcome = BruteForceAttack(oracle, rng=np.random.default_rng(2)).run(15)
        assert not outcome.success
        assert outcome.n_trials == 15
        assert outcome.best_snr_db < ref_standard.snr_spec_db
        # Even at optimistic 1 s/measurement hardware speed, the full
        # 2^64 space takes hundreds of billions of years.
        assert outcome.extrapolated_years_full_space > 1e10
        assert "failed" in outcome.summary()


class TestOptimisationAttacks:
    def test_annealing_improves_but_stalls(self, hero_chip, ref_standard):
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=2048)
        attack = SimulatedAnnealingAttack(oracle, rng=np.random.default_rng(3))
        outcome = attack.run(30)
        assert not outcome.success
        assert outcome.history == sorted(outcome.history)  # best-so-far
        assert outcome.best_score < ref_standard.snr_spec_db

    def test_genetic_respects_population_budget(self, hero_chip, ref_standard):
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=2048)
        attack = GeneticAttack(
            oracle, rng=np.random.default_rng(4), population_size=8
        )
        outcome = attack.run(2)
        assert oracle.n_queries <= 8 * 3
        assert not outcome.success


class TestTransferAttack:
    def test_leaked_key_is_good_start(
        self, hero_chip, second_chip, ref_standard, quick_calibration
    ):
        from repro.calibration import Calibrator

        leaked = (
            Calibrator(n_fft=2048, optimizer_passes=1, sfdr_weight=0.0)
            .calibrate(second_chip, ref_standard)
            .config
        )
        oracle = MeasurementOracle(chip=hero_chip, standard=ref_standard, n_fft=2048)
        outcome = TransferAttack(oracle, rng=np.random.default_rng(5)).run(leaked)
        # The leaked key starts far above random (random keys are < 30 dB)
        # and local search improves it further.
        assert outcome.start_snr_db > 25.0
        assert outcome.final_snr_db >= outcome.start_snr_db


class TestRemoval:
    def test_bias_scheme_vulnerable(self):
        outcome = removal_attack(MemristorBiasLock())
        assert outcome.applicable
        assert outcome.succeeds
        assert outcome.measurements_needed == 1

    def test_proposed_not_applicable(self, hero_chip, ref_standard, quick_calibration):
        from repro.baselines import ProposedFabricLock

        lock = ProgrammabilityLock(chip=hero_chip)
        lock._lut[ref_standard.index] = quick_calibration
        outcome = removal_attack(
            ProposedFabricLock(lock=lock, standard=ref_standard)
        )
        assert not outcome.applicable
        assert not outcome.succeeds


class TestSatAttack:
    def test_recovers_functional_key(self, rng):
        original = ripple_adder(3)
        locked = lock_netlist(original, 6, rng)
        attack = SatAttack(locked=locked, oracle=locked.oracle(original))
        result = attack.run()
        from repro.logic import functional_under_key

        assert functional_under_key(locked, original, result.key, 64, rng)
        assert result.n_oracle_queries <= 16

    def test_small_parity_lock(self, rng):
        original = parity_tree(6)
        locked = lock_netlist(original, 4, rng)
        result = SatAttack(locked=locked, oracle=locked.oracle(original)).run()
        from repro.logic import functional_under_key

        assert functional_under_key(locked, original, result.key, 32, rng)

    def test_not_applicable_to_fabric_lock(self, hero_chip):
        with pytest.raises(SatAttackNotApplicable):
            assert_sat_attack_applicable(ProgrammabilityLock(chip=hero_chip))

    def test_applicable_to_locked_netlist(self, rng):
        locked = lock_netlist(parity_tree(4), 2, rng)
        assert_sat_attack_applicable(locked)  # no exception

    def test_mixlock_sat_integration(self):
        scheme = MixLock(n_key_bits=6)
        result = scheme.run_sat_attack()
        assert scheme.unlocks(result.key)


class TestSatAttackKeyInputs:
    def test_input_named_like_a_key_is_a_primary_input(self, rng):
        # Only key0 ... key{key_bits-1} are key inputs; ``keypad`` is a
        # primary input the distinguishing vectors must drive.
        original = Netlist("keypad", inputs=["keypad", "a", "b"])
        original.add_gate("y", "AND", "keypad", "a")
        original.add_gate("z", "XOR", "y", "b")
        original.add_gate("w", "OR", "a", "b")
        original.outputs = ["z", "w"]
        locked = lock_netlist(original, 2, rng)
        result = SatAttack(locked=locked, oracle=locked.oracle(original)).run()
        for bits in itertools.product((0, 1), repeat=3):
            vec = dict(zip(original.inputs, bits))
            assert locked.evaluate_with_key(vec, result.key) == original.evaluate(vec)
