"""Seeded device fleets for the serving benchmark.

Every fleet is a list of failing-device reports in the JSON-lines form
``python -m repro serve`` reads.  A device is the design netlist plus the
*observed* responses of an injected-error implementation: each test's
``value`` is what the faulty implementation produced, so the injected
sites are one valid correction, kept here as ground truth and never sent
to the service.

On the small designs of ``stream`` and ``resume`` the seed draws the
injected errors, the failing tests, the order and which devices use
the ``bits`` form; the make-up is fixed: every design's signatures
carry 2, 3, 4 failing tests in turn, every signature repeats the
same number of times (the first few once more) and a fixed share of
the devices uses ``bits``, so every seed parses, memoizes and journals
the same number of tests.  On ``sim1423`` a device's cost is set by where
its errors sit and by its tests, and one long enumeration moves a fleet
of a dozen devices by more than the benchmark's bounds; with one
design, every device goes to one shard, so the order of arrival sets
each device's queue wait.  So the ``race`` and ``enum`` fleets hold
the same devices in the same order for every seed — slot ``i`` injects
and draws its tests with seed ``i`` — and the seed names the devices
and picks the wire form of each, which leaves the diagnosis work
unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.circuits.library import get_circuit
from repro.circuits.scan import to_combinational
from repro.faults.inject import random_gate_changes
from repro.testgen.random_gen import random_failing_tests
from repro.testgen.satgen import distinguishing_tests

__all__ = [
    "DeviceSpec",
    "Fleet",
    "enum_fleet",
    "race_fleet",
    "resume_fleet",
    "stream_fleet",
    "STREAM_DESIGNS",
]

#: Small library designs of the ``stream`` and ``resume`` fleets.
STREAM_DESIGNS = ("c17", "fig5a", "fig5b", "maj3")

RACE_DEVICES = 8
RACE_TESTS = 12
ENUM_DEVICES = 6
ENUM_TESTS = 12
STREAM_DEVICES = 8000
STREAM_SIGNATURES_PER_DESIGN = 15
#: s27 devices per stream round.  Their content and positions do not
#: depend on the seed: every one resolves ``error`` today (see README).
STREAM_S27_DEVICES = 16
STREAM_S27_SIGNATURES = 4
RESUME_DEVICES = 8000
RESUME_SIGNATURES_PER_DESIGN = 10
RESUME_TAIL = 40
#: Share of small-design devices whose tests use the ``bits`` form.
BITS_SHARE = 0.3
#: Failing tests per small-design signature, in turn.
TEST_COUNTS = (2, 3, 4)


@dataclass(frozen=True)
class DeviceSpec:
    """One generated device and what the benchmark knows about it."""

    device_id: str
    design: str
    #: ``(vector, output, observed value)`` per failing test.
    tests: tuple
    k: int | None = None
    #: Injected error sites (a valid correction), never sent.
    sites: tuple[str, ...] = ()
    #: Send the tests in the tester-log ``bits`` form.
    bits: bool = False

    def signature(self) -> tuple:
        return (
            self.design,
            self.k,
            tuple(
                (tuple(sorted(v.items())), o, val) for v, o, val in self.tests
            ),
        )

    def wire(self, inputs: tuple[str, ...] | None = None) -> str:
        tests = []
        for vector, output, value in self.tests:
            if self.bits:
                entry = {"bits": "".join(str(vector[n]) for n in inputs)}
            else:
                entry = {"vector": vector}
            entry["output"] = output
            entry["value"] = value
            tests.append(entry)
        record = {"id": self.device_id, "design": self.design}
        if self.k is not None:
            record["k"] = self.k
        record["tests"] = tests
        return json.dumps(record, separators=(",", ":"))


@dataclass
class Fleet:
    """A workload's devices, JSON lines and designs."""

    devices: list[DeviceSpec]
    designs: tuple[str, ...]

    def lines(self) -> list[str]:
        inputs = {
            d: tuple(scan_view(d).inputs) for d in self.designs
        }
        return [d.wire(inputs.get(d.design)) for d in self.devices]


def scan_view(design: str):
    """The combinational (full-scan) view in which devices are made."""
    circuit = get_circuit(design)
    if circuit.is_sequential:
        circuit = to_combinational(circuit).circuit
    return circuit


def observed_tests(golden, faulty, m: int, seed: int) -> tuple:
    """``m`` failing tests of ``faulty``, carrying its (wrong) values."""
    try:
        tests = random_failing_tests(golden, faulty, m=m, seed=seed)
    except RuntimeError:
        tests = distinguishing_tests(golden, faulty, m=m)
    return tuple(
        (dict(t.vector), t.output, t.value ^ 1) for t in tests
    )


def _sim1423_fleet(tag: str, seed: int, n: int, p_of, m: int, k: int,
                   ) -> Fleet:
    """Slot ``i`` injects with seed ``i`` and draws its tests with seed
    ``i`` too, whatever the workload seed: the seed names the devices
    and picks each one's wire form."""
    golden = get_circuit("sim1423")
    rng = random.Random(f"{tag}:{seed}")
    devices = []
    for slot in range(n):
        injection = random_gate_changes(golden, p=p_of(slot), seed=slot)
        devices.append(
            DeviceSpec(
                device_id=f"{tag}-{seed}-{slot}",
                design="sim1423",
                tests=observed_tests(golden, injection.faulty, m, slot),
                k=k,
                sites=injection.sites,
                bits=rng.random() < BITS_SHARE,
            )
        )
    if len({d.signature() for d in devices}) != n:
        raise RuntimeError(f"the {tag} fleet repeats a signature")
    return Fleet(devices, ("sim1423",))


def race_fleet(seed: int) -> Fleet:
    """sim1423 devices, p=2-3 injected gate changes, 12 tests, k=2."""
    return _sim1423_fleet(
        "race", seed, RACE_DEVICES, lambda s: 2 + s % 2, RACE_TESTS, 2
    )


def enum_fleet(seed: int) -> Fleet:
    """sim1423 devices, p=1 injected gate change, 12 tests, k=2."""
    return _sim1423_fleet(
        "enum", seed, ENUM_DEVICES, lambda s: 1, ENUM_TESTS, 2
    )


def _small_signatures(tag: str, seed: int, design: str, count: int,
                      ) -> list[DeviceSpec]:
    """``count`` devices of ``design`` with distinct failure signatures;
    signature ``i`` carries ``TEST_COUNTS[i % 3]`` failing tests."""
    golden = scan_view(design)
    rng = random.Random(f"{tag}:{seed}:{design}")
    wanted = [TEST_COUNTS[i % len(TEST_COUNTS)] for i in range(count)]
    found: dict[int, list[DeviceSpec]] = {m: [] for m in TEST_COUNTS}
    seen: set[tuple] = set()
    for attempt in range(50 * count):
        missing = [m for m in TEST_COUNTS
                   if len(found[m]) < wanted.count(m)]
        if not missing:
            break
        m = missing[attempt % len(missing)]
        injection = random_gate_changes(
            golden, p=1, seed=rng.getrandbits(31)
        )
        # A small design's failing tests are few: take all of them and
        # list ``m`` in random order, as a tester log may.
        every = distinguishing_tests(golden, injection.faulty, m=1 << 16)
        if len(every) < m:
            continue
        picked = rng.sample(range(len(every)), m)
        tests = tuple(
            (dict(every[i].vector), every[i].output, every[i].value ^ 1)
            for i in picked
        )
        spec = DeviceSpec(
            device_id="", design=design, tests=tests, sites=injection.sites
        )
        if spec.signature() not in seen:
            seen.add(spec.signature())
            found[m].append(spec)
    if any(len(found[m]) < wanted.count(m) for m in TEST_COUNTS):
        raise RuntimeError(
            f"{design}: too few distinct signatures for seed {seed}"
        )
    return [found[m].pop(0) for m in wanted]


def _instances(tag: str, seed: int, n: int, pool: list[DeviceSpec],
               rng: random.Random) -> list[DeviceSpec]:
    """``n`` devices over ``pool``: every signature once, in random
    order, before any repeats; then ``n - len(pool)`` repeats that go
    round ``pool`` in its own order, shuffled.  ``BITS_SHARE`` of the
    devices, drawn at random, use the ``bits`` form."""
    head = list(pool)
    rng.shuffle(head)
    repeats = [pool[i % len(pool)] for i in range(n - len(pool))]
    rng.shuffle(repeats)
    bits = set(rng.sample(range(n), round(BITS_SHARE * n)))
    return [
        DeviceSpec(
            device_id=f"{tag}-{seed}-{i}",
            design=spec.design,
            tests=spec.tests,
            sites=spec.sites,
            bits=i in bits,
        )
        for i, spec in enumerate(head + repeats)
    ]


def s27_devices() -> list[DeviceSpec]:
    """The seed-independent s27 devices, in s27's full-scan view."""
    pool = _small_signatures("s27", 0, "s27", STREAM_S27_SIGNATURES)
    return [
        DeviceSpec(
            device_id=f"s27-{i}",
            design="s27",
            tests=pool[i % len(pool)].tests,
            sites=pool[i % len(pool)].sites,
        )
        for i in range(STREAM_S27_DEVICES)
    ]


def stream_fleet(seed: int) -> Fleet:
    """Small-design devices that nearly all repeat an earlier signature,
    with the s27 devices at fixed positions."""
    pool = [
        spec
        for design in STREAM_DESIGNS
        for spec in _small_signatures(
            "stream", seed, design, STREAM_SIGNATURES_PER_DESIGN
        )
    ]
    rng = random.Random(f"stream:{seed}")
    s27 = s27_devices()
    devices = _instances(
        "stream", seed, STREAM_DEVICES - len(s27), pool, rng
    )
    stride = STREAM_DEVICES // len(s27)
    for i, spec in enumerate(s27):
        devices.insert(i * stride + stride // 2, spec)
    return Fleet(devices, STREAM_DESIGNS + ("s27",))


def resume_fleet(seed: int) -> tuple[Fleet, int]:
    """A stream-like fleet and the length of its head.

    The head's signatures repeat; the tail after it holds
    ``RESUME_TAIL`` signatures that the head never carries — the ones a
    crash before their resolution leaves to re-run.
    """
    per_design = RESUME_SIGNATURES_PER_DESIGN + RESUME_TAIL // len(
        STREAM_DESIGNS
    )
    head_pool, tail_pool = [], []
    for design in STREAM_DESIGNS:
        specs = _small_signatures("resume", seed, design, per_design)
        head_pool += specs[:RESUME_SIGNATURES_PER_DESIGN]
        tail_pool += specs[RESUME_SIGNATURES_PER_DESIGN:]
    rng = random.Random(f"resume:{seed}")
    head = _instances(
        "resume", seed, RESUME_DEVICES - len(tail_pool), head_pool, rng
    )
    rng.shuffle(tail_pool)
    tail = [
        DeviceSpec(
            device_id=f"resume-{seed}-tail-{i}",
            design=spec.design,
            tests=spec.tests,
            sites=spec.sites,
        )
        for i, spec in enumerate(tail_pool)
    ]
    return Fleet(head + tail, STREAM_DESIGNS), len(head)
