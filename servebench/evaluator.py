"""Independent answer check: a netlist evaluator of the benchmark's own.

It reads gates through :class:`repro.circuits.netlist.Circuit` and calls
nothing in ``repro.sim`` or ``repro.diagnosis``, so a fault in the
simulators or the diagnosis strategies cannot also hide in the check.

A correction (a set of gates) is *valid* for a device when, for every
failing test, some assignment of values to the correction's gates makes
the test's output take the value the tester observed.  Tests are packed
one per bit of a Python integer, so one evaluation of the netlist covers
every test of a device; an assignment is tried by forcing each gate of
the correction to all-zeros or all-ones and re-evaluating only the
forced gates' fan-out cone.
"""

from __future__ import annotations

from itertools import product

from repro.circuits.gates import GateType

__all__ = ["DeviceCheck", "NetlistModel"]


def _and(values):
    out = values[0]
    for v in values[1:]:
        out &= v
    return out


def _or(values):
    out = values[0]
    for v in values[1:]:
        out |= v
    return out


def _xor(values):
    out = values[0]
    for v in values[1:]:
        out ^= v
    return out


#: gate type -> (function of the fan-in lane words, output inverted)
_GATES = {
    GateType.BUF: (_and, False),
    GateType.NOT: (_and, True),
    GateType.AND: (_and, False),
    GateType.NAND: (_and, True),
    GateType.OR: (_or, False),
    GateType.NOR: (_or, True),
    GateType.XOR: (_xor, False),
    GateType.XNOR: (_xor, True),
}


class NetlistModel:
    """Levelized view of one combinational circuit for lane evaluation."""

    def __init__(self, circuit) -> None:
        nodes = {gate.name: gate for gate in circuit}
        if any(gate.gtype is GateType.DFF for gate in nodes.values()):
            raise ValueError(f"{circuit.name}: the evaluator needs a "
                             "combinational (full-scan) circuit")
        self.inputs = tuple(circuit.inputs)
        self.outputs = tuple(circuit.outputs)
        order: list[str] = []
        state: dict[str, int] = {}
        for root in nodes:
            stack = [(root, False)]
            while stack:
                name, expanded = stack.pop()
                if expanded:
                    state[name] = 2
                    order.append(name)
                    continue
                if state.get(name):
                    continue
                state[name] = 1
                stack.append((name, True))
                for fanin in nodes[name].fanins:
                    if not state.get(fanin):
                        stack.append((fanin, False))
        self.order = tuple(order)
        self.position = {name: i for i, name in enumerate(order)}
        self.gates = {
            name: (gate.gtype, gate.fanins) for name, gate in nodes.items()
        }
        fanouts: dict[str, list[str]] = {name: [] for name in nodes}
        for name, gate in nodes.items():
            for fanin in gate.fanins:
                fanouts[fanin].append(name)
        self.fanouts = fanouts

    def eval_gate(self, name: str, values: dict, mask: int) -> int:
        gtype, fanins = self.gates[name]
        if gtype is GateType.CONST0:
            return 0
        if gtype is GateType.CONST1:
            return mask
        func, inverted = _GATES[gtype]
        out = func([values[f] for f in fanins])
        return (~out & mask) if inverted else out

    def evaluate(self, lanes: dict[str, int], mask: int) -> dict[str, int]:
        """Every node's lane word for the packed primary inputs."""
        values: dict[str, int] = {}
        for name in self.order:
            if self.gates[name][0] is GateType.INPUT:
                values[name] = lanes.get(name, 0)
            else:
                values[name] = self.eval_gate(name, values, mask)
        return values

    def cone(self, sources) -> tuple[str, ...]:
        """Nodes strictly downstream of ``sources``, in evaluation order."""
        seen: set[str] = set()
        stack = list(sources)
        while stack:
            for nxt in self.fanouts[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        seen.difference_update(sources)
        return tuple(sorted(seen, key=self.position.__getitem__))


class DeviceCheck:
    """Validity and minimality of corrections for one device's tests.

    ``tests`` is a sequence of ``(vector, output, observed_value)``.
    """

    def __init__(self, model: NetlistModel, tests) -> None:
        self.model = model
        self.mask = (1 << len(tests)) - 1
        lanes = {name: 0 for name in model.inputs}
        watched: dict[str, list[int]] = {}
        for j, (vector, output, value) in enumerate(tests):
            if output not in model.gates:
                raise ValueError(f"unknown output {output!r}")
            for name, bit in vector.items():
                if bit:
                    lanes[name] |= 1 << j
            want_mask, want = watched.setdefault(output, [0, 0])
            watched[output] = [want_mask | (1 << j), want | (value << j)]
        self.watched = {o: tuple(v) for o, v in watched.items()}
        self.golden = model.evaluate(lanes, self.mask)
        self._verdicts: dict[frozenset, bool] = {}

    def _matched(self, values: dict) -> int:
        matched = 0
        for output, (lanes, want) in self.watched.items():
            matched |= lanes & ~(values[output] ^ want)
        return matched

    def valid(self, correction) -> bool:
        """True when some per-test assignment to ``correction`` explains
        every failing test."""
        key = frozenset(correction)
        verdict = self._verdicts.get(key)
        if verdict is not None:
            return verdict
        model, mask = self.model, self.mask
        gates = sorted(key)
        if any(g not in model.gates for g in gates):
            self._verdicts[key] = False
            return False
        cone = model.cone(gates)
        covered = self._matched(self.golden)
        for assignment in product((0, mask), repeat=len(gates)):
            if covered == mask:
                break
            values = dict(self.golden)
            values.update(zip(gates, assignment))
            for name in cone:
                values[name] = model.eval_gate(name, values, mask)
            covered |= self._matched(values)
        verdict = covered == mask
        self._verdicts[key] = verdict
        return verdict

    def minimal(self, correction) -> bool:
        """Valid, and no gate can be dropped (validity is monotone, so
        checking the one-smaller subsets suffices)."""
        key = frozenset(correction)
        return self.valid(key) and not any(
            self.valid(key - {g}) for g in key
        )
