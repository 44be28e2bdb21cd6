"""Logic substrate tests: netlists, bench circuits, locking, CNF, SAT."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import SatAttack, sat_attack
from repro.logic import (
    CnfBuilder,
    Gate,
    Netlist,
    SatResult,
    decimation_controller,
    encode_netlist,
    functional_under_key,
    lock_netlist,
    magnitude_comparator,
    parity_tree,
    ripple_adder,
    sar_optimizer_step,
    solve_cnf,
)
from repro.logic.sat import reference_solve


class TestGates:
    def test_gate_arity_guards(self):
        with pytest.raises(ValueError):
            Gate("y", "NOT", ("a", "b"))
        with pytest.raises(ValueError):
            Gate("y", "MUX", ("a", "b"))
        with pytest.raises(ValueError):
            Gate("y", "AND", ("a",))
        with pytest.raises(ValueError):
            Gate("y", "FOO", ("a", "b"))

    def test_basic_truth_tables(self):
        net = Netlist("t", inputs=["a", "b"])
        net.add_gate("and_", "AND", "a", "b")
        net.add_gate("or_", "OR", "a", "b")
        net.add_gate("xor_", "XOR", "a", "b")
        net.add_gate("nand_", "NAND", "a", "b")
        net.outputs = ["and_", "or_", "xor_", "nand_"]
        for a, b in itertools.product((0, 1), repeat=2):
            out = net.evaluate({"a": a, "b": b})
            assert out["and_"] == (a & b)
            assert out["or_"] == (a | b)
            assert out["xor_"] == (a ^ b)
            assert out["nand_"] == 1 - (a & b)

    def test_mux(self):
        net = Netlist("m", inputs=["s", "a", "b"])
        net.add_gate("y", "MUX", "s", "a", "b")
        net.outputs = ["y"]
        assert net.evaluate({"s": 0, "a": 1, "b": 0})["y"] == 1
        assert net.evaluate({"s": 1, "a": 1, "b": 0})["y"] == 0

    def test_combinational_loop_detected(self):
        net = Netlist("loop", inputs=["a"])
        net.add_gate("x", "AND", "a", "y")
        net.add_gate("y", "OR", "x", "a")
        net.outputs = ["y"]
        with pytest.raises(ValueError):
            net.validate()

    def test_undriven_net_detected(self):
        net = Netlist("u", inputs=["a"])
        net.add_gate("y", "AND", "a", "ghost")
        net.outputs = ["y"]
        with pytest.raises(ValueError):
            net.validate()

    def test_double_drive_rejected(self):
        net = Netlist("d", inputs=["a", "b"])
        net.add_gate("y", "AND", "a", "b")
        with pytest.raises(ValueError):
            net.add_gate("y", "OR", "a", "b")

    def test_missing_input_value(self):
        net = Netlist("mi", inputs=["a", "b"])
        net.add_gate("y", "AND", "a", "b")
        net.outputs = ["y"]
        with pytest.raises(KeyError):
            net.evaluate({"a": 1})


class TestBenchCircuits:
    def test_adder_exhaustive(self):
        add = ripple_adder(3)
        for a in range(8):
            for b in range(8):
                assert add.evaluate_word(a | (b << 3)) == a + b

    def test_comparator_exhaustive(self):
        cmp4 = magnitude_comparator(4)
        for a in range(16):
            for b in range(16):
                assert cmp4.evaluate_word(a | (b << 4)) == int(a > b)

    def test_parity(self):
        par = parity_tree(5)
        for word in range(32):
            assert par.evaluate_word(word) == bin(word).count("1") % 2

    def test_decimation_controller_spot_checks(self):
        net = decimation_controller()
        out = net.evaluate(
            {"std0": 1, "std1": 1, "std2": 1, "rate0": 0, "rate1": 0}
        )
        assert out["cic_clr"] == 1  # reserved code 7
        out = net.evaluate(
            {"std0": 0, "std1": 0, "std2": 0, "rate0": 1, "rate1": 1}
        )
        assert out["hb1_en"] == 0
        assert out["hb2_en"] == 0

    def test_sar_step_keeps_bit_when_higher(self):
        net = sar_optimizer_step(4)
        vec = {"higher": 1}
        for i in range(4):
            vec[f"code{i}"] = int(i == 3)
            vec[f"mask{i}"] = int(i == 3)
        out = net.evaluate(vec)
        assert out["next3"] == 1  # kept
        assert out["next2"] == 1  # next trial bit set

    def test_sar_step_clears_bit_when_lower(self):
        net = sar_optimizer_step(4)
        vec = {"higher": 0}
        for i in range(4):
            vec[f"code{i}"] = int(i == 3)
            vec[f"mask{i}"] = int(i == 3)
        out = net.evaluate(vec)
        assert out["next3"] == 0  # cleared
        assert out["next2"] == 1


class TestLocking:
    @pytest.mark.parametrize("maker", [decimation_controller, lambda: ripple_adder(3)])
    def test_correct_key_restores_function(self, maker, rng):
        original = maker()
        locked = lock_netlist(original, 6, rng)
        assert functional_under_key(locked, original, locked.correct_key, 40, rng)

    def test_wrong_key_breaks_function(self, rng):
        original = decimation_controller()
        locked = lock_netlist(original, 8, rng)
        wrong = locked.correct_key ^ 0b101
        assert not functional_under_key(locked, original, wrong, 64, rng)

    def test_too_many_key_bits_rejected(self, rng):
        with pytest.raises(ValueError):
            lock_netlist(parity_tree(3), 50, rng)

    def test_key_inputs_added(self, rng):
        locked = lock_netlist(parity_tree(4), 3, rng)
        assert sum(1 for n in locked.netlist.inputs if n.startswith("key")) == 3

    @pytest.mark.parametrize("key0_kind", ["input", "gate"])
    def test_net_named_like_a_key_input_rejected(self, key0_kind, rng):
        original = Netlist("collide", inputs=["a", "b"])
        if key0_kind == "input":
            original.inputs.insert(0, "key0")
        else:
            original.add_gate("key0", "OR", "a", "b")
        original.add_gate("y", "XOR", "key0", "a")
        original.add_gate("z", "AND", "y", "b")
        original.outputs = ["z"]
        with pytest.raises(ValueError, match="'key0'"):
            lock_netlist(original, 1, rng)


class TestCnfAndSat:
    def test_simple_sat(self):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause(x, y)
        b.add_clause(-x, y)
        result = solve_cnf(b.n_vars, b.clauses)
        assert result.satisfiable
        assert result.assignment[y] is True

    def test_simple_unsat(self):
        b = CnfBuilder()
        x = b.new_var()
        b.add_clause(x)
        b.add_clause(-x)
        assert not solve_cnf(b.n_vars, b.clauses).satisfiable

    def test_pigeonhole_unsat(self):
        b = CnfBuilder()
        v = {(i, j): b.new_var() for i in range(4) for j in range(3)}
        for i in range(4):
            b.add_clause(*[v[(i, j)] for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    b.add_clause(-v[(i1, j)], -v[(i2, j)])
        assert not solve_cnf(b.n_vars, b.clauses).satisfiable

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfBuilder().add_clause()

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            solve_cnf(1, [(2,)])

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tseitin_equisatisfiable_with_evaluation(self, word):
        net = decimation_controller()
        # Pad/truncate the random word onto the 5 inputs.
        vec = {name: (word >> i) & 1 for i, name in enumerate(net.inputs)}
        builder = CnfBuilder()
        mapping = encode_netlist(builder, net)
        for name, val in vec.items():
            builder.add_clause(mapping[name] if val else -mapping[name])
        result = solve_cnf(builder.n_vars, builder.clauses)
        assert result.satisfiable
        reference = net.evaluate(vec)
        for out_net in net.outputs:
            assert result.assignment[mapping[out_net]] == bool(reference[out_net])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_solver_agrees_with_brute_force_on_random_3sat(self, seed):
        rng = np.random.default_rng(seed)
        n_vars, n_clauses = 8, 28
        clauses = []
        for _ in range(n_clauses):
            lits = rng.choice(np.arange(1, n_vars + 1), size=3, replace=False)
            signs = rng.choice([-1, 1], size=3)
            clauses.append(tuple(int(s * l) for s, l in zip(signs, lits)))
        result = solve_cnf(n_vars, clauses)
        brute_sat = any(
            all(
                any(
                    (assignment >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0)
                    for l in clause
                )
                for clause in clauses
            )
            for assignment in range(1 << n_vars)
        )
        assert result.satisfiable == brute_sat
        if result.satisfiable:
            for clause in clauses:
                assert any(
                    result.assignment.get(abs(l), False) == (l > 0) for l in clause
                )


def pigeonhole(pigeons: int, holes: int) -> tuple[int, list[tuple[int, ...]]]:
    """Every pigeon in some hole, no two pigeons sharing one."""
    b = CnfBuilder()
    v = {(i, j): b.new_var() for i in range(pigeons) for j in range(holes)}
    for i in range(pigeons):
        b.add_clause(*[v[(i, j)] for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                b.add_clause(-v[(i1, j)], -v[(i2, j)])
    return b.n_vars, b.clauses


@st.composite
def cnfs(draw):
    """1-16 variables and 0-70 clauses, mostly of 2-4 literals; unit
    clauses, an occasional empty clause, repeated literals and clauses
    holding both polarities of a variable all occur."""
    n_vars = draw(st.integers(min_value=1, max_value=16))
    # 1..n are the positive literals, n+1..2n the negations of 1..n.
    literal = st.integers(min_value=1, max_value=2 * n_vars).map(
        lambda x: x if x <= n_vars else n_vars - x
    )
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=70))):
        size = draw(st.sampled_from((3, 3, 2, 3, 4, 3, 1, 4, 3, 2)))
        clause = draw(st.lists(literal, min_size=size, max_size=size))
        extra = draw(st.sampled_from(("", "", "", "duplicate", "tautology")))
        if extra == "duplicate":
            clause.append(clause[-1])
        elif extra == "tautology":
            clause.append(-clause[-1])
        clauses.append(tuple(draw(st.permutations(clause))))
    if clauses and draw(st.integers(min_value=0, max_value=9)) == 0:
        clauses.insert(draw(st.integers(min_value=0, max_value=len(clauses))), ())
    return n_vars, clauses


class TestSolverMatchesReference:
    """``SatSolver`` (watched literals) against ``reference_solve`` (the
    original clause scan): same satisfiability, decisions and model."""

    @given(cnfs())
    @settings(max_examples=200, deadline=None)
    def test_random_cnfs(self, cnf):
        n_vars, clauses = cnf
        fast = solve_cnf(n_vars, clauses)
        slow = reference_solve(n_vars, clauses)
        assert (fast.satisfiable, fast.decisions, fast.assignment) == (
            slow.satisfiable,
            slow.decisions,
            slow.assignment,
        )

    @pytest.mark.parametrize(
        "maker, key_widths",
        [
            (lambda: ripple_adder(3), (2, 4)),
            (lambda: parity_tree(4), (2, 3)),
            (lambda: magnitude_comparator(3), (2, 4)),
            (decimation_controller, (2, 4)),
            (lambda: sar_optimizer_step(3), (2, 4)),
        ],
        ids=[
            "ripple_adder",
            "parity_tree",
            "magnitude_comparator",
            "decimation_controller",
            "sar_optimizer_step",
        ],
    )
    def test_sat_attack_cnfs(self, maker, key_widths, monkeypatch):
        recorded = []

        def recording_solve(n_vars, clauses, *args, **kwargs):
            recorded.append((n_vars, list(clauses)))
            return solve_cnf(n_vars, clauses, *args, **kwargs)

        monkeypatch.setattr(sat_attack, "solve_cnf", recording_solve)
        original = maker()
        for key_bits in key_widths:
            for seed in (0, 1):
                locked = lock_netlist(original, key_bits, np.random.default_rng(seed))
                SatAttack(locked=locked, oracle=locked.oracle(original)).run()
        assert len(recorded) >= 4 * len(key_widths)
        for n_vars, clauses in recorded:
            assert solve_cnf(n_vars, clauses) == reference_solve(n_vars, clauses)

    @pytest.mark.parametrize(
        "n_vars, clauses, model",
        [
            (2, [(1, 1)], {1: True, 2: True}),
            (3, [(1, 1, 2), (-2,)], {1: True, 2: False, 3: True}),
        ],
        ids=["repeat", "repeat-beside-false"],
    )
    def test_repeated_literal_is_never_unit(self, n_vars, clauses, model):
        # Two unassigned occurrences of one literal are not a unit
        # clause: both solvers decide variable 1 instead of forcing it.
        expected = SatResult(satisfiable=True, assignment=model, decisions=2)
        assert solve_cnf(n_vars, clauses) == expected
        assert reference_solve(n_vars, clauses) == expected

    @pytest.mark.parametrize("solve", [solve_cnf, reference_solve])
    def test_decision_budget(self, solve):
        n_vars, clauses = pigeonhole(4, 3)
        with pytest.raises(RuntimeError, match="decision budget"):
            solve(n_vars, clauses, max_decisions=7)
        result = solve(n_vars, clauses, max_decisions=8)
        assert result == SatResult(satisfiable=False, decisions=8)

    @pytest.mark.parametrize("solve", [solve_cnf, reference_solve])
    def test_empty_clause_is_unsat_without_decisions(self, solve):
        assert solve(3, [(1, 2), (), (3,)]) == SatResult(satisfiable=False)
