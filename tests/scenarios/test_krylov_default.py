"""The matrix-free Krylov default on every registered scenario.

``solve_krylov(preconditioner="auto")`` resolves to AMG for a matrix-free
operator offering ``diagonal()`` and ``restrict()``, which every scenario's
matrix-free chain does.  The default must converge to the requested
tolerance, and the scenario measures it yields must match the golden
(assembled) values within their recorded tolerances -- and more closely
than the unpreconditioned solve the default used to be.
"""

import math

import pytest

from repro.markov.solvers import krylov
from repro.markov.stationary import stationary_distribution
from repro.scenarios import load_golden, run_scenario, scenario_names
from repro.scenarios.registry import get_scenario
from repro.scenarios.tolerance import Tolerance, compare_measures

pytestmark = pytest.mark.scenario


def matrix_free_chain(name):
    scenario = get_scenario(name)
    if "matrix-free" not in scenario.backends:
        pytest.skip(f"scenario {name!r} has no matrix-free backend")
    return scenario.build(scenario.params_for("fast"), backend="matrix-free").chain


def distance_to_golden(golden, measures) -> float:
    """Largest measure error, in units of that measure's golden tolerance."""
    fallback = golden.tolerances.get("default", Tolerance())
    worst = 0.0
    for name, expected in golden.measures.items():
        got = measures[name]
        if got == expected:
            continue
        allowed = golden.tolerances.get(name, fallback).allowed(expected, got)
        worst = max(worst, abs(got - expected) / allowed if allowed else math.inf)
    return worst


@pytest.mark.parametrize("name", scenario_names())
def test_auto_resolves_to_amg_and_converges(name):
    result = stationary_distribution(
        matrix_free_chain(name), method="krylov", tol=1e-10
    )
    assert result.method == "krylov-gmres+amg"
    assert result.converged
    assert result.residual <= 1e-10


@pytest.mark.parametrize("name", scenario_names())
def test_amg_measures_closer_to_golden_than_unpreconditioned(name, monkeypatch):
    matrix_free_chain(name)  # skips scenarios without the backend
    golden = load_golden(name, "fast")
    amg = run_scenario(name, size="fast", backend="matrix-free")
    assert compare_measures(golden.measures, amg.measures, golden.tolerances).ok

    # The rule before AMG became the default: no preconditioner at all.
    monkeypatch.setattr(krylov, "_coarsens", lambda op: False)
    plain = run_scenario(name, size="fast", backend="matrix-free")

    assert distance_to_golden(golden, amg.measures) < distance_to_golden(
        golden, plain.measures
    )
