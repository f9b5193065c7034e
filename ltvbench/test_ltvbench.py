"""Tests of the benchmark itself, on shrunken workloads.

Run with ``PYTHONPATH=src python -m pytest ltvbench`` from the repository root.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import bench
import run
from ltvkit import LtvModel

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "smd-long": {"N": 60},
    "wide-block": {"N": 60},
    "smd-sweep": {"seeds": 1},
    "cli-roundtrip": {"N": 60},
}


def _tiny(name, tmp_path):
    return bench.make_workload(name, 3, tmp_path, **TINY[name])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    measured, result = run.measure(name, 3, 0.0, bool(trace), sizes=TINY[name],
                                   setup_repeats=1)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(measured) == sorted(m["name"] for m in spec)
    for metric in spec:
        assert run.unit_of(metric["name"]) == metric["unit"]
        assert np.isfinite(measured[metric["name"]][0])
    assert result.outcome.attempted > 0
    assert result.outcome.failed == 0, result.outcome.reasons


def _perturbed(solve):
    def wrong(data, sched, opts):
        report = solve(data, sched, opts)
        model = report.model
        bad = LtvModel(p=model.p, q=model.q, N=model.N, C=model.C + 1e-3)
        return dataclasses.replace(report, model=bad)
    return wrong


@pytest.mark.parametrize("name", ["smd-long", "smd-sweep"])
def test_a_perturbed_model_is_counted_as_failed(name, tmp_path, monkeypatch):
    workload = _tiny(name, tmp_path)
    honest = bench.run(workload, 0.0, traced=False, min_passes=1)
    assert honest.outcome.failed == 0, honest.outcome.reasons
    monkeypatch.setattr(bench, "cosmic_solve", _perturbed(bench.cosmic_solve))
    wrong = bench.run(workload, 0.0, traced=False, min_passes=1)
    assert wrong.outcome.attempted == honest.outcome.attempted
    assert wrong.outcome.failed > 0


def test_an_unregulated_rollout_is_counted_as_failed():
    outcome = bench.Outcome()
    outcome.check(bench.regulated([1.0, 0.5, 0.0]), "regulated")
    outcome.check(bench.regulated([1.0, 0.5, 1e-3]), "slow")
    outcome.check(bench.regulated([1.0, np.nan, 0.0]), "not finite")
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert outcome.reasons == ["slow", "not finite"]


@pytest.mark.parametrize("name", ["smd-long", "wide-block", "smd-sweep"])
def test_counts_repeat_exactly(name, tmp_path):
    workload = _tiny(name, tmp_path)
    first = bench.run(workload, 0.0, traced=True, min_passes=2)
    second = bench.run(workload, 0.0, traced=True, min_passes=2)
    assert first.counts == second.counts
    assert first.counts["solvers.calls_per_instant"] > 0
    layers = [bench.per_layer(first), bench.per_layer(second)]
    for key in ("solvers.multiply_count", "solvers.multiply_forward",
                "solvers.multiply_backward"):
        assert layers[0][key] == layers[1][key]
        assert layers[0][key][0] > 0


def test_tail_keeps_ten_samples_beyond_it():
    assert bench.tail(range(100)) == 89
    assert bench.tail(range(11)) == 0
    assert bench.tail([3.0, 1.0, 2.0]) == 3.0
