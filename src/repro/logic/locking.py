"""Random XOR/XNOR logic locking (EPIC-style, refs [9], [10], [15]).

Key gates are inserted on randomly chosen internal nets: an XOR key
gate passes the signal for key bit 0, an XNOR for key bit 1 (the
inversion hides the correct polarity from netlist inspection).  With a
wrong key some nets are inverted and the function breaks.

This is the digital locking machinery the MixLock [9] and locked-
calibration [10] baselines rely on — and the machinery the SAT attack
(:mod:`repro.attacks.sat_attack`) defeats, unlike the paper's analog
fabric locking where no Boolean oracle exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.logic.gates import Netlist


@dataclass(frozen=True)
class LockedNetlist:
    """A locked circuit plus its (secret) correct key.

    Attributes:
        netlist: The locked netlist; key inputs are named ``key<i>``.
        correct_key: The key word (bit i = polarity of key gate i).
        key_bits: Number of key inputs.
    """

    netlist: Netlist
    correct_key: int
    key_bits: int

    def evaluate_with_key(self, input_values: dict[str, int], key: int) -> dict[str, int]:
        """Evaluate the locked circuit under a specific key."""
        values = dict(input_values)
        for i in range(self.key_bits):
            values[f"key{i}"] = (key >> i) & 1
        return self.netlist.evaluate(values)

    def oracle(self, original: Netlist):
        """An I/O oracle function from an unlocked reference circuit."""
        def query(input_values: dict[str, int]) -> dict[str, int]:
            return original.evaluate(input_values)

        return query


def lock_netlist(
    original: Netlist,
    n_key_bits: int,
    rng: np.random.Generator,
) -> LockedNetlist:
    """Insert ``n_key_bits`` random XOR/XNOR key gates into a copy.

    Args:
        original: Circuit to lock (left untouched).
        n_key_bits: Number of key gates; must not exceed the number of
            lockable nets (gate outputs).
        rng: Placement and polarity randomness.

    Returns:
        The locked netlist with its correct key.

    Raises:
        ValueError: Too many key bits, or ``original`` already has a
            net named like one of the key inputs ``key0 ...``.
    """
    lockable = list(original.gates)
    if n_key_bits > len(lockable):
        raise ValueError(
            f"cannot insert {n_key_bits} key gates into "
            f"{len(lockable)} lockable nets"
        )
    nets = original.graph()
    for i in range(n_key_bits):
        if f"key{i}" in nets:
            raise ValueError(
                f"{original.name}: net 'key{i}' collides with key input {i}"
            )
    locked = original.copy(new_name=f"{original.name}_locked")
    chosen = rng.choice(len(lockable), size=n_key_bits, replace=False)
    correct_key = 0
    for i, net_idx in enumerate(sorted(chosen)):
        target_net = lockable[net_idx]
        key_bit = int(rng.integers(0, 2))
        correct_key |= key_bit << i
        # Rename the original driver to an internal net, then insert the
        # key gate between it and all former consumers.
        hidden = f"{target_net}__pre_key{i}"
        old_gate = locked.gates.pop(target_net)
        locked.gates[hidden] = type(old_gate)(
            output=hidden, gate_type=old_gate.gate_type, inputs=old_gate.inputs
        )
        gate_type = "XNOR" if key_bit else "XOR"
        locked.inputs.append(f"key{i}")
        locked.add_gate(target_net, gate_type, hidden, f"key{i}")
    locked.validate()
    return LockedNetlist(netlist=locked, correct_key=correct_key, key_bits=n_key_bits)


def functional_under_key(
    locked: LockedNetlist, original: Netlist, key: int, n_vectors: int, rng: np.random.Generator
) -> bool:
    """Check I/O equivalence on random vectors under ``key``."""
    for _ in range(n_vectors):
        vec = {net: int(rng.integers(0, 2)) for net in original.inputs}
        if locked.evaluate_with_key(vec, key) != original.evaluate(vec):
            return False
    return True
