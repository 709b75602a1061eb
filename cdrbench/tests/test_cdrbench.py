"""Tests of the benchmark itself: checker, generators, failure accounting.

Run from the repository root with ``python -m pytest cdrbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import repro  # noqa: E402
from cdrbench import checks, measure, tracing, workloads  # noqa: E402

#: 384 states: every backend and solver path in well under a second.
TINY = {
    "n_phase_points": 64, "n_clock_phases": 16, "counter_length": 2,
    "max_run_length": 2, "nw_std": 0.08, "nw_atoms": 7,
}


@pytest.fixture(scope="module")
def solved():
    tracer = tracing.Tracer(timing=False)
    with tracer.installed():
        repro.analyze_cdr(repro.CDRSpec(**TINY))
    (chain, result), = tracer.take_solves()
    return chain, result


def test_checker_accepts_the_program_output(solved):
    chain, result = solved
    assert checks.check_solve(chain, result) == []


@pytest.mark.parametrize("perturb, expect", [
    (lambda x: x.__setitem__(slice(0, 2), x[:2] + [1e-6, -1e-6]), "residual"),
    (lambda x: x.__setitem__(0, -abs(x[0]) - 1e-300), "negative"),
    (lambda x: x.__setitem__(0, x[0] + 1e-9), "mass"),
    (lambda x: x.__setitem__(0, np.nan), "non-finite"),
])
def test_checker_rejects_a_perturbed_stationary_vector(solved, perturb, expect):
    chain, result = solved
    x = result.distribution.copy()
    perturb(x)
    problems = checks.check_solve(chain, dataclasses.replace(result, distribution=x))
    assert any(expect in p for p in problems), problems


def test_checker_rejects_an_unconverged_solve(solved):
    chain, result = solved
    problems = checks.check_solve(chain, dataclasses.replace(result, converged=False))
    assert any("converge" in p for p in problems)


def test_checker_rejects_a_golden_mismatch():
    from repro.scenarios import get_scenario, load_golden, run_scenario

    scenario = get_scenario("baseline")
    golden = load_golden("baseline").measures
    run = run_scenario(scenario, size="fast", backend="assembled", tol=workloads.TOL)
    assert checks.check_scenario_run(run, golden, scenario.tolerances) == []
    name = sorted(run.measures)[0]
    bad = dict(run.measures, **{name: run.measures[name] * (1 + 1e-3) + 1e-3})
    problems = checks.check_scenario_run(
        dataclasses.replace(run, measures=bad), golden, scenario.tolerances
    )
    assert problems and name in problems[0]


def test_cross_backend_error():
    a = {"mean_ui": 0.02, "rms_ui": 0.04}
    assert checks.cross_backend_error(a, dict(a)) == 0.0
    assert checks.cross_backend_error(a, {"mean_ui": 0.02 * (1 + 1e-6), "rms_ui": 0.04}) > 1e-9
    assert checks.cross_backend_error(a, {"mean_ui": math.nan, "rms_ui": 0.04}) == math.inf


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_design_points_cover_the_region_in_every_block():
    specs = workloads.design_points(3, 32)
    for block in (specs[:16], specs[16:]):
        nw = sorted(s["nw_std"] for s in block)
        lo, hi = workloads.DESIGN_NW_STD
        width = (hi - lo) / 16
        assert all(lo + k * width <= v <= lo + (k + 1) * width for k, v in enumerate(nw))


def test_a_forced_failure_counts_against_points_attempted():
    client = workloads.DesignPointClient(repro)
    specs = [dict(TINY), dict(TINY, nw_std=-1.0), dict(TINY, nw_std=0.07)]
    record = measure.run_pass(client, specs, math.inf, tracing.Tracer(False), {}, limit=3)
    assert record.count == 3
    assert record.ok == [True, False, True]
    assert "nw_std" in record.problems[1][0]
    values, _ = measure.end_to_end(record, [1.0], 1.0)
    assert values["points_per_s"] == pytest.approx(2 / sum(record.times))
    assert values["point_tail_s"] == math.inf  # a failure misses every limit


def test_traced_pass_matches_untraced_bitwise():
    spec = dict(TINY, backend="matrix-free")
    specs = [spec, dict(spec, nw_std=0.07)]
    client = workloads.DesignPointClient(repro)
    plain = measure.run_pass(client, specs, math.inf, tracing.Tracer(False), {}, limit=2)
    tracer = tracing.Tracer(True)
    traced = measure.run_pass(client, specs, math.inf, tracer, {}, limit=2)
    assert plain.ok == traced.ok == [True, True]
    assert plain.digests == traced.digests
    assert plain.iterations == traced.iterations
    layers = tracing.layer_metrics(tracer.spans, sum(traced.iterations), {}, [])
    assert layers["kernels.applies"] > 0
    assert layers["markov.iterations"] == sum(traced.iterations) / 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 31)]
    value, label = measure.tail(times)
    assert value == 20.0 and sum(t > value for t in times) == 10
    assert label.startswith("p66")
    value, label = measure.tail(times[:12])
    assert value == 12.0 and label.startswith("p100")


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    units = measure.per_layer_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units
