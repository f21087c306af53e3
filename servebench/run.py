"""Serving benchmark: four device fleets through ``repro.serve``.

Each round does what ``python -m repro serve --journal`` does: build a
journaled service (the *set-up*), then read and parse the JSON lines,
``DiagnosisService.run`` them and encode the result records (the
*serving call*).  A run repeats whole rounds of one fleet for
``--seconds`` and reports medians over its rounds, then checks every
answer with the benchmark's own netlist evaluator (``evaluator.py``).

Usage, from the root of the repository::

    python3 servebench/run.py --workload race --seed 1 --seconds 20 --trace 0

``--trace 1`` alternates untraced and traced rounds: the traced rounds
give the per-layer metrics (``tracing.py``), the untraced ones the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".servebench"

#: The race legs of the default ``serve`` configuration.
RACE = ("greedy-stochastic", "ihs", "bsat")

#: workload -> (race legs, policy); every other setting is the CLI's
#: default (two shards, no timeout, one retry, degradation on).
CONFIG = {
    "race": (RACE, "first"),
    "enum": (("bsat",), "complete"),
    "stream": (RACE, "first"),
    "resume": (RACE, "first"),
}

#: Set-ups are timed on their own before the rounds, for about this
#: many seconds (at least SETUP_SAMPLES, at most 200 of them); each
#: round's set-up adds one more sample to the median.
SETUP_SECONDS = 0.5
SETUP_SAMPLES = 3


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed reference."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i & 7
    return time.perf_counter() - start


@dataclass
class Round:
    setup_s: float
    serve_s: float
    results: list
    skipped: int
    stats: dict
    journal_stats: dict
    wal_bytes: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    #: Problems with answers the service reported ``ok``.
    wrong: list = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        import fleets
        from evaluator import DeviceCheck, NetlistModel
        from repro import serve

        self.serve = serve
        self.workload = workload
        self.strategies, self.policy = CONFIG[workload]
        self.head = None
        if workload == "resume":
            fleet, self.head = fleets.resume_fleet(seed)
            self.first_tail = fleet.devices[self.head]
        else:
            fleet = getattr(fleets, f"{workload}_fleet")(seed)
        self.designs = fleet.designs
        self.lines = fleet.lines()
        # Device id -> the first spec of its signature.  Repeats share
        # one spec, so the benchmark's own objects stay few and do not
        # lengthen the program's garbage collections.
        first: dict[tuple, object] = {}
        self.spec = {
            d.device_id: first.setdefault(d.signature(), d)
            for d in fleet.devices
        }
        self._models = {
            d: NetlistModel(fleets.scan_view(d)) for d in self.designs
        }
        self._check_cls = DeviceCheck
        self._checks: dict[tuple, object] = {}
        WORK.mkdir(exist_ok=True)
        self.wal = WORK / f"{workload}-{os.getpid()}.wal"
        self.base_wal = None
        #: device id -> _answer_key of its journaled result
        self.journaled: dict[str, str] = {}
        self.tally = Tally()

    # ------------------------------------------------------------------
    def setup(self, base_wal=None, tracer=None):
        """Everything before the service takes its first device: the
        WAL read (on resume), the journal, the service and every design
        of the fleet.  Returns ``(seconds, journal, service, cache)``."""
        serve = self.serve
        if base_wal is not None:
            shutil.copyfile(base_wal, self.wal)
        elif self.wal.exists():
            self.wal.unlink()
        start = time.perf_counter()
        replay = serve.read_journal(self.wal) if base_wal else None
        journal = serve.ResultJournal(self.wal)
        cache = serve.DesignCache()
        service = serve.DiagnosisService(
            n_shards=2,
            strategies=self.strategies,
            policy=self.policy,
            max_attempts=2,
            journal=journal,
            resume_from=replay,
            design_cache=cache,
            fault_hook=tracer.fault_hook if tracer is not None else None,
        )
        for design in self.designs:
            try:
                cache.get(design)
            except ValueError:
                pass  # s27 does not build today: see README.md
        return time.perf_counter() - start, journal, service, cache

    def serve_round(self, lines, base_wal=None, tracer=None) -> Round:
        serve = self.serve
        setup_s, journal, service, cache = self.setup(base_wal, tracer)
        wal_before = self.wal.stat().st_size
        skipped = []
        try:
            start = time.perf_counter()
            devices = list(
                serve.read_device_stream(
                    lines,
                    inputs_of=cache.inputs_of,
                    on_error=lambda n, msg: skipped.append((n, msg)),
                )
            )
            results = service.run(devices)
            payload = "\n".join(json.dumps(r.to_dict()) for r in results)
            serve_s = time.perf_counter() - start
        finally:
            journal.close()
        if payload.count("\n") + 1 != len(devices):
            raise RuntimeError("result records do not match the devices")
        return Round(
            setup_s=setup_s,
            serve_s=serve_s,
            results=results,
            skipped=len(skipped),
            stats=service.stats(),
            journal_stats=dict(journal.stats),
            wal_bytes=self.wal.stat().st_size - wal_before,
        )

    # ------------------------------------------------------------------
    def prepare_resume(self) -> bool:
        """Write the crashed run's WAL; True when its torn tail reads
        back as torn."""
        serve = self.serve
        head = self.serve_round(self.lines[: self.head])
        for r in head.results:
            self.journaled[r.device_id] = _answer_key(r)
        # The crash lands while the first tail device's accepted record
        # is being written: the WAL ends in the first half of that line.
        first_tail = self.first_tail
        scratch = WORK / f"record-{os.getpid()}.wal"
        with serve.ResultJournal(scratch) as journal:
            journal.accepted(
                first_tail.device_id,
                first_tail.design,
                serve.signature_key(
                    serve.parse_device_line(self.lines[self.head], 1)
                    .signature()
                ),
            )
        record = scratch.read_bytes()
        scratch.unlink()
        self.base_wal = WORK / f"cut-{os.getpid()}.wal"
        shutil.copyfile(self.wal, self.base_wal)
        with open(self.base_wal, "ab") as fh:
            fh.write(record[: len(record) // 2])
        return serve.read_journal(self.base_wal).truncated

    # ------------------------------------------------------------------
    def _check(self, spec):
        key = spec.signature()
        check = self._checks.get(key)
        if check is None:
            check = self._check_cls(self._models[spec.design], spec.tests)
            self._checks[key] = check
        return check

    def check_round(self, rnd: Round) -> None:
        """Count attempts and failures; record wrong ``ok`` answers."""
        tally = self.tally
        tally.attempted += len(rnd.results) + rnd.skipped
        tally.failed += rnd.skipped
        first_answer: dict[tuple, tuple] = {}
        for index, r in enumerate(rnd.results):
            if r.status != "ok":
                tally.failed += 1
                continue
            spec = self.spec[r.device_id]
            problem = self._answer_problem(index, spec, r, first_answer)
            if problem is not None:
                tally.failed += 1
                tally.wrong.append(f"{r.device_id}: {problem}")

    def _answer_problem(self, index, spec, r, first_answer):
        check = self._check(spec)
        if r.answer is None or not check.valid(r.answer):
            return f"answer {r.answer} is not a valid correction"
        if self.workload == "enum":
            for solution in r.solutions:
                if not check.minimal(solution):
                    return f"solution {sorted(solution)} is not minimal"
            sites = set(spec.sites)
            if not any(set(s) <= sites for s in r.solutions):
                return "no solution lies within the injected sites"
        if self.workload == "stream":
            mine = (r.answer, r.solutions)
            first = first_answer.setdefault(spec.signature(), mine)
            if first != mine:
                return "answer differs from its signature's first device"
        if self.workload == "resume":
            in_head = index < self.head
            if r.journal_replayed != in_head:
                return ("replayed" if r.journal_replayed else
                        "not replayed") + " against the cut WAL"
            if in_head and self.journaled[r.device_id] != _answer_key(r):
                return "replayed answer differs from the journaled run"
        return None

    # ------------------------------------------------------------------
    def greedy_alone(self) -> float:
        """Seconds for the greedy leg alone on fresh sessions, one per
        device, over the fleet (the race's best alternative)."""
        from repro.diagnosis.core import DiagnosisSession
        from repro.serve.race import run_leg

        cache = self.serve.DesignCache()
        devices = list(self.serve.read_device_stream(
            self.lines, inputs_of=cache.inputs_of
        ))
        start = time.perf_counter()
        for device in devices:
            artifacts = cache.get(device.design)
            session = DiagnosisSession(
                artifacts.circuit,
                device.tests,
                seed=self.serve.signature_seed(device.signature()),
            )
            session.master_skeleton = artifacts.skeleton
            result = run_leg(session, "greedy-stochastic", device.k,
                             True, None)
            if not result.solutions:
                raise RuntimeError(f"greedy alone found nothing for "
                                   f"{device.device_id}")
        return time.perf_counter() - start

    def cleanup(self) -> None:
        for path in (self.wal, self.base_wal):
            if path is not None and path.exists():
                path.unlink()


def _answer_key(r) -> str:
    """A result's answer and its set of solutions, as one string; each
    solution is sorted, since a frozenset's order can differ between two
    equal sets."""
    return repr((r.answer, sorted(tuple(sorted(s)) for s in r.solutions)))


def _percentile_line(latencies: list[float]) -> str:
    """The highest percentile with ten samples beyond it."""
    n = len(latencies)
    q = max((p for p in (90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10),
            default=None)
    if n < 40 or q is None:
        return f"latency: p50 {statistics.median(latencies):.6f} s (n={n})"
    ordered = sorted(latencies)
    value = ordered[min(n - 1, int(n * q / 100))]
    return (f"latency: p50 {statistics.median(ordered):.6f} s, "
            f"p{q:g} {value:.6f} s (n={n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro import serve  # noqa: F401
    except ImportError as exc:
        print(f"error: the program is not importable from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return measure(args)


def measure(args) -> int:
    bench = Bench(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
    report = []
    ref_before = reference_loop()
    global_problems = []
    try:
        if bench.head is not None:
            if not bench.prepare_resume():
                global_problems.append("the cut WAL does not report its "
                                       "torn tail")
        else:
            # Warm up on one device, untimed (the first is never s27).
            bench.serve_round(bench.lines[:1])
        setups, rates, latencies = [], [], []
        setup_end = time.perf_counter() + SETUP_SECONDS
        while len(setups) < SETUP_SAMPLES or (
            len(setups) < 200 and time.perf_counter() < setup_end
        ):
            seconds, journal, _, _ = bench.setup(bench.base_wal)
            journal.close()
            setups.append(seconds)
        traced_rates, traced_latencies = [], []
        # Whole rounds only: a round starts when one more of the length
        # seen so far still ends within --seconds.
        start = time.perf_counter()
        durations = []
        index = 0
        min_rounds = 2 if tracer is not None else 1
        while index < min_rounds or (
            time.perf_counter() - start + statistics.median(durations)
            <= args.seconds
        ):
            # Every round starts from the same collector state; the
            # collection is not timed.
            gc.collect()
            round_start = time.perf_counter()
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_round()
            try:
                rnd = bench.serve_round(
                    bench.lines, base_wal=bench.base_wal,
                    tracer=tracer if traced else None,
                )
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.end_round(rnd.stats, rnd.journal_stats, rnd.wal_bytes)
            rate = len(rnd.results) / rnd.serve_s
            lat = [r.latency for r in rnd.results]
            (traced_rates if traced else rates).append(rate)
            (traced_latencies if traced else latencies).extend(lat)
            if not traced:
                setups.append(rnd.setup_s)
            bench.check_round(rnd)
            rnd = None  # the next round does not carry this one's results
            durations.append(time.perf_counter() - round_start)
            index += 1
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        ref_after = reference_loop()
        report.append(f"workload {args.workload}, seed {args.seed}: "
                      f"{index} rounds of {len(bench.lines)} devices")
        report.append("devices_per_s by untraced round: "
                      + " ".join(f"{r:.4g}" for r in rates))
        report.append(f"reference loop: {ref_before:.4f} s before, "
                      f"{ref_after:.4f} s after")
        report.append(_percentile_line(latencies))
        if args.workload == "race":
            alone = bench.greedy_alone()
            served = len(bench.lines) / statistics.median(rates)
            report.append(
                f"greedy leg alone: {alone:.3f} s over the fleet "
                f"({len(bench.lines) / alone:.3f} devices/s); the race "
                f"serves it in {served:.3f} s ({served / alone:.2f}x)"
            )
    finally:
        bench.cleanup()
    if tracer is not None:
        overhead = (statistics.median(rates)
                    / statistics.median(traced_rates) - 1.0)
        lat_overhead = (statistics.median(traced_latencies)
                        / statistics.median(latencies) - 1.0)
        report.append(f"tracing overhead: devices_per_s {overhead:+.1%}, "
                      f"latency_p50_s {lat_overhead:+.1%} "
                      f"({len(rates)} untraced, {len(traced_rates)} traced "
                      "rounds)")
        self_times = tracer.self_times()
        rounds = len(tracer.rounds)
        report.append("self time per traced round: " + ", ".join(
            f"{name} {seconds / rounds:.4f} s"
            for name, seconds in sorted(self_times.items())
        ))
        spans_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        count = tracer.dump(spans_path)
        report.append(f"{count} spans written to "
                      f"{spans_path.relative_to(ROOT)}")
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in tracer.per_layer().items()
        }
    else:
        metrics = {
            "devices_per_s": {"value": statistics.median(rates),
                              "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies),
                              "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    tally = bench.tally
    problems = global_problems + tally.wrong
    report.append(f"attempted {tally.attempted}, failed {tally.failed}")
    for problem in problems[:20]:
        report.append(f"WRONG: {problem}")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
