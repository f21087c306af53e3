"""The serving benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest servebench/selftest.py -q

They check the answer checker against ground truth, and run every
workload to its end on small fleets, untraced and traced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fleets  # noqa: E402
import run  # noqa: E402
from evaluator import DeviceCheck, NetlistModel  # noqa: E402


def _fleet_checks(fleet):
    models = {d: NetlistModel(fleets.scan_view(d)) for d in fleet.designs}
    return [(spec, DeviceCheck(models[spec.design], spec.tests))
            for spec in fleet.devices]


@pytest.mark.parametrize("make", [fleets.race_fleet, fleets.enum_fleet])
def test_checker_accepts_injected_sites(make, monkeypatch):
    monkeypatch.setattr(fleets, "RACE_DEVICES", 3)
    monkeypatch.setattr(fleets, "ENUM_DEVICES", 3)
    for spec, check in _fleet_checks(make(7)):
        assert check.valid(spec.sites), spec.device_id


def test_checker_accepts_small_design_and_scan_sites():
    seen = set()
    for spec in fleets.s27_devices() + fleets.resume_fleet(7)[0].devices:
        if spec.signature() in seen:
            continue
        seen.add(spec.signature())
        model = NetlistModel(fleets.scan_view(spec.design))
        assert DeviceCheck(model, spec.tests).valid(spec.sites)


def test_checker_rejects_invalid_corrections(monkeypatch):
    monkeypatch.setattr(fleets, "ENUM_DEVICES", 3)
    for spec, check in _fleet_checks(fleets.enum_fleet(7)):
        model = check.model
        # No observed output lies downstream of a gate outside every
        # observed output's fan-in cone, so forcing it explains nothing.
        observed = {output for _, output, _ in spec.tests}
        upstream = set()
        stack = list(observed)
        while stack:
            name = stack.pop()
            if name not in upstream:
                upstream.add(name)
                stack.extend(model.gates[name][1])
        outside = next(g for g in model.order
                       if g not in upstream and g not in model.inputs)
        assert not check.valid(())
        assert not check.valid({outside})
        # The injected single site is its own minimal correction; adding
        # a gate keeps it valid but no longer minimal.
        assert check.minimal(spec.sites)
        assert check.valid(set(spec.sites) | {outside})
        assert not check.minimal(set(spec.sites) | {outside})


def test_small_design_fleets_have_the_same_make_up_for_every_seed():
    def make_up(fleet):
        return (sum(len(d.tests) for d in fleet.devices),
                sum(d.bits for d in fleet.devices))

    assert make_up(fleets.stream_fleet(3)) == make_up(fleets.stream_fleet(4))
    assert (make_up(fleets.resume_fleet(3)[0])
            == make_up(fleets.resume_fleet(4)[0]))


def test_answer_key_ignores_solution_order():
    class Result:
        def __init__(self, solutions):
            self.answer = ("g1", "g2")
            self.solutions = solutions

    one = Result((frozenset(["g1", "g2"]), frozenset(["g3"])))
    other = Result([frozenset(["g3"]), frozenset(["g2", "g1"])])
    assert run._answer_key(one) == run._answer_key(other)
    assert run._answer_key(one) != run._answer_key(Result([frozenset(["g3"])]))


@pytest.fixture
def small_fleets(monkeypatch):
    monkeypatch.setattr(fleets, "RACE_DEVICES", 2)
    monkeypatch.setattr(fleets, "ENUM_DEVICES", 2)
    monkeypatch.setattr(fleets, "STREAM_DEVICES", 320)
    monkeypatch.setattr(fleets, "STREAM_SIGNATURES_PER_DESIGN", 3)
    monkeypatch.setattr(fleets, "STREAM_S27_DEVICES", 4)
    monkeypatch.setattr(fleets, "RESUME_DEVICES", 200)
    monkeypatch.setattr(fleets, "RESUME_SIGNATURES_PER_DESIGN", 3)
    monkeypatch.setattr(fleets, "RESUME_TAIL", 8)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.CONFIG))
def test_workload_runs_to_its_end(workload, trace, small_fleets, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out
    rounds = 2 if trace else 1
    expected_failed = 4 * rounds if workload == "stream" else 0
    assert result["failed"] == expected_failed
    names = {m["name"] for m in _benchmark_metrics(trace)}
    assert set(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def _benchmark_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def test_cut_wal_reports_torn_tail(small_fleets):
    bench = run.Bench("resume", 3)
    try:
        assert bench.prepare_resume()
        assert bench.base_wal.read_bytes()[-1:] != b"\n"
    finally:
        bench.cleanup()
