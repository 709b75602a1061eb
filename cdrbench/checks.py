"""Output checks for every benchmark point, run outside the timed region.

The checks read what the program already returned.  The only array they
allocate is one transposed apply for the residual, the same size as the
applies the solver itself makes on every iteration.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List, Mapping

import numpy as np

#: Largest accepted stationary residual ``||x P - x||_1``.
RESIDUAL_MAX = 1e-8
#: Largest accepted ``|sum(x) - 1|``.
MASS_SLACK = 1e-12
#: Relative agreement required of ``mean_ui``/``rms_ui`` across backends.
CROSS_BACKEND_RTOL = 1e-9
CROSS_BACKEND_STATS = ("mean_ui", "rms_ui")


def digest(vector: np.ndarray) -> str:
    """sha256 of a vector's float64 bytes (no copy for contiguous input)."""
    return hashlib.sha256(memoryview(np.ascontiguousarray(vector))).hexdigest()


def check_solve(chain, result) -> List[str]:
    """Problems with one stationary solve: convergence, residual, mass."""
    from repro.markov import operator_residual
    from repro.markov.linop import as_operator

    problems = []
    x = result.distribution
    if not result.converged:
        problems.append(f"solve did not converge ({result.iterations} iterations)")
    if not np.all(np.isfinite(x)):
        problems.append("stationary vector has non-finite entries")
        return problems
    residual = operator_residual(as_operator(chain), x)
    if not residual <= RESIDUAL_MAX:
        problems.append(f"residual {residual:.3e} > {RESIDUAL_MAX:g}")
    low = float(x.min())
    if low < 0.0:
        problems.append(f"stationary vector has a negative entry ({low:.3e})")
    mass = float(x.sum())
    if not abs(mass - 1.0) <= MASS_SLACK:
        problems.append(f"stationary mass {mass!r} is not 1 +- {MASS_SLACK:g}")
    return problems


def check_analysis(analysis) -> List[str]:
    """Problems with one CDR analysis beyond its solve: finite phase stats."""
    bad = {k: v for k, v in analysis.phase_stats.items() if not math.isfinite(v)}
    return [f"phase_statistics not finite: {bad}"] if bad else []


def check_scenario_run(run, golden_measures: Mapping[str, float], tolerances) -> List[str]:
    """Problems with one scenario run: its measures against the golden."""
    from repro.scenarios import compare_measures

    diff = compare_measures(golden_measures, run.measures, tolerances)
    if diff.ok:
        return []
    return [f"{run.scenario}/{run.backend} vs golden: {diff.describe()}"]


def cross_backend_error(reference: Mapping[str, float], other: Mapping[str, float]) -> float:
    """Largest relative difference of :data:`CROSS_BACKEND_STATS` (inf if non-finite)."""
    worst = 0.0
    for key in CROSS_BACKEND_STATS:
        a, b = float(reference[key]), float(other[key])
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        scale = max(abs(a), abs(b))
        if scale > 0:
            worst = max(worst, abs(a - b) / scale)
    return worst


def check_catalog_backends(runs: List[Any], scenarios: Dict[str, Any]) -> List[str]:
    """Each scenario's assembled and matrix-free measures agree (its tolerances)."""
    from repro.scenarios import compare_measures

    by_backend: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        by_backend.setdefault(run.scenario, {})[run.backend] = run
    problems = []
    for name, pair in sorted(by_backend.items()):
        diff = compare_measures(
            pair["assembled"].measures, pair["matrix-free"].measures,
            scenarios[name].tolerances,
        )
        if not diff.ok:
            problems.append(f"{name} assembled vs matrix-free: {diff.describe()}")
    return problems
