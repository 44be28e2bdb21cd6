"""Gate-level combinational netlists.

The digital substrate for the prior-work baselines: MixLock [9] locks
the receiver's digital section, and [10] locks the digital optimiser of
the calibration loop.  Netlists here are plain combinational graphs
with named nets, evaluated in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

#: Supported gate types and their evaluation functions.
GATE_TYPES = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX")


def _evaluate_gate(gate_type: str, inputs: list[int]) -> int:
    """Evaluate one gate on already-resolved input values."""
    if gate_type == "AND":
        return int(all(inputs))
    if gate_type == "OR":
        return int(any(inputs))
    if gate_type == "NAND":
        return int(not all(inputs))
    if gate_type == "NOR":
        return int(not any(inputs))
    if gate_type == "XOR":
        return sum(inputs) % 2
    if gate_type == "XNOR":
        return 1 - sum(inputs) % 2
    if gate_type == "NOT":
        return 1 - inputs[0]
    if gate_type == "BUF":
        return inputs[0]
    if gate_type == "MUX":
        select, a, b = inputs
        return b if select else a
    raise ValueError(f"unknown gate type {gate_type!r}")


@dataclass(frozen=True)
class Gate:
    """One gate: ``output = type(inputs)``.

    For MUX the input order is ``(select, in0, in1)``.
    """

    output: str
    gate_type: str
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gate_type not in GATE_TYPES:
            raise ValueError(f"unknown gate type {self.gate_type!r}")
        arity = {"NOT": 1, "BUF": 1, "MUX": 3}.get(self.gate_type)
        if arity is not None and len(self.inputs) != arity:
            raise ValueError(
                f"{self.gate_type} takes {arity} inputs, got {len(self.inputs)}"
            )
        if arity is None and len(self.inputs) < 2:
            raise ValueError(f"{self.gate_type} needs at least 2 inputs")


@dataclass
class Netlist:
    """A combinational netlist.

    Attributes:
        name: Human-readable circuit name.
        inputs: Primary input net names, in declaration order.
        outputs: Primary output net names.
        gates: Gates keyed by output net.
    """

    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)

    def add_gate(self, output: str, gate_type: str, *inputs: str) -> Gate:
        """Create and register a gate driving net ``output``."""
        if output in self.gates:
            raise ValueError(f"net {output!r} already driven")
        if output in self.inputs:
            raise ValueError(f"net {output!r} is a primary input")
        gate = Gate(output=output, gate_type=gate_type, inputs=tuple(inputs))
        self.gates[output] = gate
        return gate

    def graph(self) -> dict[str, tuple[str, ...]]:
        """The net-dependency DAG as ``{net: predecessor nets}``.

        Keys are every net: the primary inputs, then each gate's output
        in gate order (its inputs deduplicated in first-use order),
        then any undriven net, which :meth:`validate` rejects.
        """
        g: dict[str, tuple[str, ...]] = {net: () for net in self.inputs}
        for gate in self.gates.values():
            g[gate.output] = tuple(dict.fromkeys(gate.inputs))
        for gate in self.gates.values():
            for src in gate.inputs:
                g.setdefault(src, ())
        return g

    def validate(self) -> None:
        """Check that the netlist is a well-formed combinational DAG."""
        try:
            TopologicalSorter(self.graph()).prepare()
        except CycleError:
            raise ValueError(f"{self.name}: combinational loop detected") from None
        driven = set(self.inputs) | set(self.gates)
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in driven:
                    raise ValueError(f"{self.name}: net {src!r} undriven")
        for out in self.outputs:
            if out not in driven:
                raise ValueError(f"{self.name}: output {out!r} undriven")

    def topological_nets(self) -> list[str]:
        """Gate outputs in a valid evaluation order.

        The order is pinned, because the CNF encoder numbers variables
        in it: Kahn's algorithm one generation at a time, starting from
        the in-degree-0 nets in first-seen order and releasing each
        net's consumers in gate order.  ``graph()``'s insertion order
        gives :class:`graphlib.TopologicalSorter` exactly that walk.
        """
        order = TopologicalSorter(self.graph()).static_order()
        return [net for net in order if net in self.gates]

    def evaluate(self, input_values: dict[str, int]) -> dict[str, int]:
        """Evaluate the netlist; returns output net values.

        Args:
            input_values: Value (0/1) for every primary input.
        """
        values: dict[str, int] = {}
        for net in self.inputs:
            if net not in input_values:
                raise KeyError(f"missing value for input {net!r}")
            values[net] = int(input_values[net]) & 1
        for net in self.topological_nets():
            gate = self.gates[net]
            values[net] = _evaluate_gate(
                gate.gate_type, [values[src] for src in gate.inputs]
            )
        return {out: values[out] for out in self.outputs}

    def evaluate_word(self, word: int) -> int:
        """Evaluate with inputs packed LSB-first into ``word``; outputs
        packed the same way."""
        values = {net: (word >> i) & 1 for i, net in enumerate(self.inputs)}
        out = self.evaluate(values)
        result = 0
        for i, net in enumerate(self.outputs):
            result |= out[net] << i
        return result

    def copy(self, new_name: str | None = None) -> "Netlist":
        """Deep copy (gates are immutable, so sharing them is safe)."""
        return Netlist(
            name=new_name or self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            gates=dict(self.gates),
        )

    def stats(self) -> dict[str, int]:
        """Size summary for reports."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
        }
