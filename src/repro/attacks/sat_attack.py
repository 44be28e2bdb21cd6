"""Oracle-guided SAT attack on logic locking (ref [17]) and why it does
not apply to the proposed scheme (paper Sec. IV-B.1).

The classic attack: build a *miter* of two copies of the locked circuit
sharing primary inputs but with independent keys, constrained to
disagree on some output.  Each SAT solution yields a distinguishing
input; querying the oracle on it and constraining both copies to match
the oracle's answer eliminates whole equivalence classes of wrong keys.
When the miter goes UNSAT, any key satisfying the accumulated
constraints is functionally correct.

This breaks the digital-locking baselines ([9], [10]) in a handful of
iterations.  For the paper's analog fabric locking there is *no*
Boolean circuit between key and observable behaviour — the "netlist"
is a transistor-level analog loop and the observable is a measured SNR
— so the attack has no formulation: :func:`assert_sat_attack_applicable`
raises :class:`SatAttackNotApplicable` with the structural reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.logic.cnf import CnfBuilder, encode_netlist
from repro.logic.gates import Netlist
from repro.logic.locking import LockedNetlist
from repro.logic.sat import solve_cnf


class SatAttackNotApplicable(RuntimeError):
    """The target is not a Boolean-locked circuit with an I/O oracle."""


@dataclass
class SatAttackResult:
    """Result of a successful SAT attack.

    Attributes:
        key: A functionally-correct key (equivalence class witness).
        n_oracle_queries: Distinguishing-input queries used.
        n_iterations: Miter iterations until UNSAT.
    """

    key: int
    n_oracle_queries: int
    n_iterations: int


@dataclass
class SatAttack:
    """Decamouflage a :class:`LockedNetlist` with oracle access."""

    locked: LockedNetlist
    oracle: Callable[[dict[str, int]], dict[str, int]]
    max_iterations: int = 64
    _primary_inputs: list[str] = field(init=False)

    def __post_init__(self) -> None:
        key_inputs = {f"key{i}" for i in range(self.locked.key_bits)}
        self._primary_inputs = [
            net for net in self.locked.netlist.inputs if net not in key_inputs
        ]

    def run(self) -> SatAttackResult:
        """Execute the attack until the miter is UNSAT."""
        builder = CnfBuilder()
        # Two copies A/B over shared miter inputs but distinct keys.
        map_a = encode_netlist(builder, self.locked.netlist, prefix="A.")
        map_b = encode_netlist(builder, self.locked.netlist, prefix="B.")
        # Share the primary inputs between copies.
        for net in self._primary_inputs:
            va, vb = builder.var("A." + net), builder.var("B." + net)
            builder.add_clause(-va, vb)
            builder.add_clause(va, -vb)
        # Miter: at least one output differs.
        diff_vars = []
        for out in self.locked.netlist.outputs:
            d = builder.new_var()
            builder.encode_xor2(d, builder.var("A." + out), builder.var("B." + out))
            diff_vars.append(d)
        builder.add_clause(*diff_vars)

        n_queries = 0
        iteration = 0
        while True:
            iteration += 1
            if iteration > self.max_iterations:
                raise RuntimeError("SAT attack exceeded its iteration budget")
            result = solve_cnf(builder.n_vars, builder.clauses)
            if not result.satisfiable:
                break
            # Distinguishing input from the model.
            dis = {
                net: int(result.assignment.get(builder.var("A." + net), False))
                for net in self._primary_inputs
            }
            response = self.oracle(dis)
            n_queries += 1
            # Constrain both key copies to reproduce the oracle on `dis`
            # via two fresh circuit copies.
            for key_side in ("A.", "B."):
                prefix = f"io{iteration}{key_side}"
                mapping = encode_netlist(builder, self.locked.netlist, prefix=prefix)
                for net in self._primary_inputs:
                    v = builder.var(prefix + net)
                    builder.add_clause(v if dis[net] else -v)
                for i in range(self.locked.key_bits):
                    shared = builder.var(key_side + f"key{i}")
                    local = builder.var(prefix + f"key{i}")
                    builder.add_clause(-shared, local)
                    builder.add_clause(shared, -local)
                for out, val in response.items():
                    v = builder.var(prefix + out)
                    builder.add_clause(v if val else -v)

        # Any key satisfying the accumulated IO constraints is correct:
        # drop the miter disagreement clause and solve for key A.
        final = CnfBuilder()
        final.clauses = [c for c in builder.clauses]
        final._var_count = builder.n_vars
        final._names = dict(builder._names)
        final.clauses.remove(tuple(diff_vars))
        result = solve_cnf(final.n_vars, final.clauses)
        if not result.satisfiable:
            raise RuntimeError("constraint set unsatisfiable — oracle inconsistent")
        key = 0
        for i in range(self.locked.key_bits):
            if result.assignment.get(builder.var(f"A.key{i}"), False):
                key |= 1 << i
        return SatAttackResult(
            key=key, n_oracle_queries=n_queries, n_iterations=iteration
        )


def assert_sat_attack_applicable(target: object) -> None:
    """Gatekeeper used by attack drivers.

    Raises :class:`SatAttackNotApplicable` for anything that is not a
    Boolean-locked netlist — in particular the analog fabric lock, where
    the key feeds tuning knobs of a continuous-time loop and the only
    observable is a measured performance, not a Boolean output.
    """
    if isinstance(target, LockedNetlist):
        return
    raise SatAttackNotApplicable(
        f"SAT attack needs a Boolean locked netlist with an I/O oracle; "
        f"{type(target).__name__} exposes only analog measurements, so no "
        "miter can be formulated (paper Sec. IV-B.1)"
    )
