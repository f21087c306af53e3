"""Spans around the public entry points of each serving layer.

The tracer wraps, from outside the program, the functions and methods
named in the README's layer table: it replaces them on their owning
class, or in every ``repro`` module that imported them by name, and
puts the originals back on :meth:`Tracer.uninstall`.  Each call records
a span ``(id, parent, name, device, start, end, counts)``.  The parent
is the caller's open span on the same thread; a race leg, which runs on
a thread of its own, takes its race's span as parent.  Spans of one
device carry its id.  A call nested inside an open span of the same
layer on the same thread is not recorded again, so a layer's spans never
overlap on one thread and its busy time is their sum.

Spans go to per-thread lists and stay in memory; :meth:`Tracer.dump`
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

import repro.sat.solver as sat_solver
import repro.serve as serve
import repro.serve.race as serve_race
import repro.sim.batchevent as batchevent
import repro.sim.batchfault as batchfault
import repro.sim.deductive_numpy as deductive_numpy
import repro.sim.parallel as parallel
from repro.serve.design import DesignCache
from repro.serve.journal import ResultJournal
from repro.serve.service import DeviceResult
from repro.serve.shard import ServiceShard

__all__ = ["Tracer", "PER_LAYER"]

_SAT_COUNTS = ("conflicts", "decisions", "propagations")
_RACE_LEGS = ("greedy-stochastic", "ihs", "bsat")

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "intake.parse_s": "s",
    "intake.devices": "count",
    "design.build_s": "s",
    "design.builds": "count",
    "service.queue_wait_s": "s",
    "service.memo_hits": "count",
    "service.races": "count",
    "service.encode_s": "s",
    "race.busy_s": "s",
    "race.to_answer_s": "s",
    "race.after_answer_s": "s",
    "race.legs_started": "count",
    "race.legs_skipped": "count",
    "race.legs_cancelled": "count",
    **{f"race.wins.{leg}": "count" for leg in _RACE_LEGS},
    **{f"diagnosis.{leg}.busy_s": "s" for leg in _RACE_LEGS},
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.load_s": "s",
    **{f"sat.{name}": "count" for name in _SAT_COUNTS},
    "sim.busy_s": "s",
    "sim.calls": "count",
    "journal.append_s": "s",
    "journal.records": "count",
    "journal.commits": "count",
    "journal.bytes": "B",
    "journal.read_s": "s",
    "journal.replayed": "count",
}

#: Metrics that are a median over samples rather than a per-round sum.
_MEDIANS = ("service.queue_wait_s", "race.to_answer_s", "race.after_answer_s")


def _layer_of(span_name: str) -> str:
    """Span name -> the row it is reported under in the self-time table."""
    if span_name.startswith("sim."):
        return "sim"
    if span_name.startswith("race.leg."):
        return "race.leg"
    return span_name


class Tracer:
    """Records spans while installed; aggregates them per round."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers_lock = threading.Lock()
        self._buffers: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        #: session seed -> (race span id, device id, race start)
        self._races: dict[int, tuple] = {}
        #: (session seed, leg) -> the leg's return time
        self._leg_ends: dict[tuple, float] = {}
        self._submitted: dict[object, float] = {}
        self.rounds: list[dict] = []
        self._round: dict = {}

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _thread(self):
        local = self._local
        buf = getattr(local, "buf", None)
        if buf is None:
            buf = local.buf = []
            local.stack = []
            local.depth = defaultdict(int)
            with self._buffers_lock:
                self._buffers.append(buf)
        return local

    def _call(self, layer, name, fn, args, kwargs, device=None,
              parent=None, counts_of=None):
        """Run ``fn`` inside a span unless ``layer`` is already open."""
        local = self._thread()
        if local.depth[layer]:
            return fn(*args, **kwargs)
        stack = local.stack
        if parent is None and stack:
            parent, parent_device = stack[-1]
            device = device if device is not None else parent_device
        elif device is None:
            device = getattr(local, "device", None)
        span = next(self._ids)
        stack.append((span, device))
        local.depth[layer] += 1
        before = counts_of() if counts_of is not None else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.depth[layer] -= 1
            stack.pop()
            counts = None
            if before is not None:
                counts = tuple(a - b for a, b in zip(counts_of(), before))
            local.buf.append((span, parent, name, device, start, end, counts))

    def _record(self, name, device, start, end, parent=None, counts=None):
        local = self._thread()
        span = next(self._ids)
        local.buf.append((span, parent, name, device, start, end, counts))
        return span

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every repro module holding it."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _span_wrapper(self, layer, name, fn, device_of=None, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            device = device_of(args) if device_of is not None else None
            counts_of = (lambda: counts(args)) if counts is not None else None
            return tracer._call(layer, name, fn, args, kwargs,
                                device=device, counts_of=counts_of)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self

        # serve.intake: time spent producing devices from the stream.
        original_stream = serve.read_device_stream

        def read_device_stream(*args, **kwargs):
            inner = original_stream(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    device = next(inner)
                except StopIteration:
                    tracer._record("intake.parse", None, start,
                                   time.perf_counter())
                    return
                tracer._record("intake.parse", device.device_id, start,
                               time.perf_counter())
                yield device

        self._patch_everywhere(original_stream, read_device_stream)

        # serve.design: DesignCache.get misses build a design.
        original_get = DesignCache.get

        def design_get(cache, name):
            builds = cache.stats["skeleton_builds"]
            before = builds.get(name, 0)
            start = time.perf_counter()
            try:
                artifacts = original_get(cache, name)
            except Exception:
                # A design that fails to build is still a miss.
                tracer._record("design.build", name, start,
                               time.perf_counter())
                raise
            if builds.get(name, 0) > before:
                tracer._record("design.build", name, start,
                               time.perf_counter())
            return artifacts

        self._patch(DesignCache, "get", design_get)

        # serve.shard / serve.service: submit time -> dequeue time.
        original_submit = ServiceShard.submit

        def submit(shard, attempt, timeout=None):
            tracer._submitted.setdefault(attempt, time.perf_counter())
            return original_submit(shard, attempt, timeout=timeout)

        self._patch(ServiceShard, "submit", submit)
        self._patch(
            DeviceResult, "to_dict",
            self._span_wrapper(
                "service.encode", "service.encode", DeviceResult.to_dict,
                device_of=lambda a: a[0].device_id,
            ),
        )

        # serve.race: the race, its legs, and the outcome.
        original_race = serve_race.race_device

        def race_device(session, *args, **kwargs):
            seed = session.seed
            local = tracer._thread()
            device = getattr(local, "device", None)
            span = next(tracer._ids)
            parent = local.stack[-1][0] if local.stack else None
            start = time.perf_counter()
            tracer._races[seed] = (span, device, start)
            local.stack.append((span, device))
            try:
                outcome = original_race(session, *args, **kwargs)
            finally:
                local.stack.pop()
            end = time.perf_counter()
            tracer._races.pop(seed, None)
            local.buf.append((span, parent, "race", device, start, end, None))
            tracer._race_done(seed, start, end, outcome)
            return outcome

        self._patch_everywhere(original_race, race_device)
        original_leg = serve_race.run_leg

        def run_leg(session, strategy, *args, **kwargs):
            race = tracer._races.get(session.seed)
            parent, device = (race[0], race[1]) if race else (None, None)
            local = tracer._thread()
            if local.stack:
                parent, device = local.stack[-1]
            try:
                return tracer._call(
                    "race.leg", f"race.leg.{strategy}", original_leg,
                    (session, strategy) + args, kwargs,
                    device=device, parent=parent,
                )
            finally:
                tracer._leg_ends[(session.seed, strategy)] = (
                    time.perf_counter()
                )

        self._patch_everywhere(original_leg, run_leg)

        # diagnosis: one span per strategy run.
        original_diagnose = serve_race.diagnose

        def diagnose(session, *args, **kwargs):
            strategy = kwargs.get("strategy", "")
            leg = "bsat" if strategy.startswith("bsat") else strategy
            return tracer._call(
                "diagnosis", f"diagnosis.{leg}", original_diagnose,
                (session,) + args, kwargs,
            )

        self._patch_everywhere(original_diagnose, diagnose)

        # sat: solve / bulk load, with the solver's counter deltas.
        def solver_counts(args):
            stats = args[0].stats
            return tuple(stats[name] for name in _SAT_COUNTS)

        for method, name in (("solve", "sat.solve"),
                             ("load_clauses", "sat.load")):
            self._patch(
                sat_solver.Solver, method,
                self._span_wrapper("sat", name,
                                   getattr(sat_solver.Solver, method),
                                   counts=solver_counts),
            )

        # sim: the lane simulator and the sweep entry points.
        cls = batchevent.BatchEventSimulator
        for attr, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and (
                attr == "__init__" or not attr.startswith("_")
            ):
                self._patch(cls, attr,
                            self._span_wrapper("sim", f"sim.{attr}", value))
        for function in (batchfault.batch_output_lanes,
                         parallel.simulate_words,
                         deductive_numpy.deductive_output_fault_lists):
            self._patch_everywhere(
                function,
                self._span_wrapper("sim", f"sim.{function.__name__}",
                                   function),
            )

        # serve.journal: appends and the resume read.
        for method in ("accepted", "resolved"):
            device_of = (
                (lambda a: a[1]) if method == "accepted"
                else (lambda a: a[2].device_id)
            )
            self._patch(
                ResultJournal, method,
                self._span_wrapper("journal", "journal.append",
                                   getattr(ResultJournal, method),
                                   device_of=device_of),
            )
        self._patch_everywhere(
            serve.read_journal,
            self._span_wrapper("journal", "journal.read", serve.read_journal),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fault_hook(self, shard_index, attempt) -> None:
        """``DiagnosisService(fault_hook=...)``: the attempt left its
        shard's queue and starts now."""
        self._thread().device = attempt.device.device_id
        submitted = self._submitted.pop(attempt, None)
        if submitted is not None:
            self._record("service.queue_wait", attempt.device.device_id,
                         submitted, time.perf_counter())

    def _race_done(self, seed, start, end, outcome) -> None:
        races = self._round.setdefault("race", [])
        answered = None
        if outcome.winner is not None:
            answered = self._leg_ends.get((seed, outcome.winner))
        races.append((start, end, answered, outcome))
        for leg in _RACE_LEGS:
            self._leg_ends.pop((seed, leg), None)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        self._round = {"first_span": next(self._ids)}

    def end_round(self, service_stats: dict, journal_stats: dict,
                  wal_bytes: int) -> None:
        """Aggregate the spans recorded since :meth:`begin_round`."""
        first = self._round["first_span"]
        spans = [s for buf in self._buffers for s in buf if s[0] > first]
        busy = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        waits = []
        for _, _, name, device, start, end, extra in spans:
            busy[name] += end - start
            calls[name] += 1
            if name == "service.queue_wait":
                waits.append(end - start)
            elif name == "intake.parse" and device is not None:
                counts["intake.devices"] += 1
            if extra is not None:
                for key, value in zip(_SAT_COUNTS, extra):
                    counts[key] += value

        def total(prefix):
            return sum(v for k, v in busy.items() if k.startswith(prefix))

        def count(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        races = self._round.get("race", [])
        metrics = {
            "intake.parse_s": busy["intake.parse"],
            "intake.devices": counts["intake.devices"],
            "design.build_s": busy["design.build"],
            "design.builds": calls["design.build"],
            "service.queue_wait_s": waits,
            "service.memo_hits": service_stats["signature_hits"],
            "service.races": sum(
                s["races"] for s in service_stats["shards"].values()
            ),
            "service.encode_s": busy["service.encode"],
            "race.busy_s": busy["race"],
            "race.to_answer_s": [
                a - s for s, _, a, _ in races if a is not None
            ],
            "race.after_answer_s": [
                e - a for _, e, a, _ in races if a is not None
            ],
            "race.legs_started": count("race.leg."),
            "race.legs_skipped": sum(o.skipped_legs for *_, o in races),
            "race.legs_cancelled": sum(o.cancelled_legs for *_, o in races),
            **{
                f"race.wins.{leg}": sum(
                    1 for *_, o in races if o.winner == leg
                )
                for leg in _RACE_LEGS
            },
            **{
                f"diagnosis.{leg}.busy_s": busy[f"diagnosis.{leg}"]
                for leg in _RACE_LEGS
            },
            "sat.solve_s": busy["sat.solve"],
            "sat.solve_calls": calls["sat.solve"],
            "sat.load_s": busy["sat.load"],
            **{f"sat.{key}": counts[key] for key in _SAT_COUNTS},
            "sim.busy_s": total("sim."),
            "sim.calls": count("sim."),
            "journal.append_s": busy["journal.append"],
            "journal.records": journal_stats["appended"],
            "journal.commits": journal_stats["commits"],
            "journal.bytes": wal_bytes,
            "journal.read_s": busy["journal.read"],
            "journal.replayed": service_stats["journal_replayed"],
        }
        self.rounds.append(metrics)

    def per_layer(self) -> dict[str, float]:
        """Median per-round value (medians: over every sample)."""
        out = {}
        for name in PER_LAYER:
            values = [r[name] for r in self.rounds]
            if name in _MEDIANS:
                pooled = [v for per_round in values for v in per_round]
                out[name] = statistics.median(pooled) if pooled else 0.0
            else:
                out[name] = statistics.median(values)
        return out

    # ------------------------------------------------------------------
    # self time and output
    # ------------------------------------------------------------------
    def spans(self) -> list[tuple]:
        return sorted(s for buf in self._buffers for s in buf)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by children,
        summed over every recorded span."""
        spans = self.spans()
        children = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                children[span[1]].append((span[4], span[5]))
        out = defaultdict(float)
        for span_id, _, name, _, start, end, _ in spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[_layer_of(name)] += end - start - covered
        return dict(out)

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        spans = self.spans()
        with open(path, "w") as fh:
            for span_id, parent, name, device, start, end, extra in spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "device": device, "start": start, "end": end}
                if extra is not None:
                    record.update(zip(_SAT_COUNTS, extra))
                fh.write(json.dumps(record) + "\n")
        return len(spans)
