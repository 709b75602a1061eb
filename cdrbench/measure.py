"""The closed loop: run specs through a client, check them, derive metrics."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: Below this many samples no percentile above the median has ten samples
#: beyond it, so ``point_tail_s`` reports the maximum instead.
TAIL_MIN_SAMPLES = 21

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_p50_s": "s",
    "point_tail_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------- #
# the closed loop
# ---------------------------------------------------------------------- #

class Pass:
    """Per-point records of one pass over a workload's specs."""

    def __init__(self) -> None:
        self.times: list = []
        self.ok: list = []
        self.problems: list = []
        self.digests: list = []
        self.iterations: list = []
        self.ber: list = []
        self.slip: list = []
        self.context = {}
        self.first = None

    @property
    def count(self) -> int:
        return len(self.times)

    def verified(self) -> int:
        return sum(self.ok)


def verify(client, outcome, solves, goldens) -> tuple:
    """``(problems, digests, iterations, ber, slip)`` of one completed point."""
    from cdrbench import checks

    problems = list(outcome.failed_in_program)
    if not solves:
        problems.append("no stationary solve was observed")
    for chain, result in solves:
        problems.extend(checks.check_solve(chain, result))
    digests = [checks.digest(result.distribution) for _, result in solves]
    iterations = sum(int(result.iterations) for _, result in solves)
    for analysis in outcome.analyses:
        problems.extend(checks.check_analysis(analysis))
    for run in outcome.runs:
        scenario = client.scenarios[run.scenario]
        problems.extend(
            checks.check_scenario_run(run, goldens[run.scenario], scenario.tolerances)
        )
        digests.append(run.measures_digest())
    if not outcome.runs and len(outcome.analyses) != 1:
        problems.append(f"expected one analysis, got {len(outcome.analyses)}")
    ber = [a.ber for a in outcome.analyses]
    slip = [a.slip_rate for a in outcome.analyses]
    return problems, digests, iterations, ber, slip


def run_pass(client, specs, seconds: float, tracer, goldens, limit=None) -> Pass:
    """Run specs until ``seconds`` of timed work (or ``limit`` points) are done."""
    record = Pass()
    busy = 0.0
    with tracer.installed():
        for index, spec in enumerate(specs):
            if (limit is None and busy >= seconds) or (limit is not None and index >= limit):
                break
            error = None
            with tracer.point(index):
                t0 = perf_counter()
                try:
                    outcome = client.execute(spec)
                except Exception as exc:  # a failed point, counted below
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
            busy += elapsed
            solves = tracer.take_solves()
            if error is None:
                problems, digests, iterations, ber, slip = verify(
                    client, outcome, solves, goldens
                )
                for key, delta in outcome.context_delta.items():
                    record.context[key] = record.context.get(key, 0) + delta
                if record.first is None and not problems:
                    record.first = (
                        spec, [a.phase_stats for a in outcome.analyses], outcome.runs
                    )
            else:
                problems, digests, iterations, ber, slip = [error], [], 0, [], []
            del solves
            record.times.append(elapsed)
            record.ok.append(not problems)
            record.problems.append(problems)
            record.digests.append(digests)
            record.iterations.append(iterations)
            record.ber.extend(ber)
            record.slip.extend(slip)
    return record


def cross_backend(client, record: Pass) -> tuple:
    """Once per run: one point on the other backend.  ``(problems, note)``."""
    from cdrbench import checks

    if record.first is None:
        return ["no verified point to re-solve on the other backend"], ""
    spec, phase_stats, runs = record.first
    if runs:
        problems = checks.check_catalog_backends(runs, client.scenarios)
        return problems, "each scenario: assembled vs matrix-free within its golden tolerances"
    other = client.cross_backend(spec)
    reference = phase_stats[0]
    error = checks.cross_backend_error(reference, other.phase_stats)
    note = (
        f"{other.backend} re-solve of point 0: mean_ui/rms_ui relative "
        f"difference {error:.2e} (limit {checks.CROSS_BACKEND_RTOL:g})"
    )
    problems = [] if error <= checks.CROSS_BACKEND_RTOL else [note]
    if not other.solver_result.converged:
        problems.append(f"{other.backend} re-solve did not converge")
    return problems, note


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #

def tail(times: list) -> tuple:
    """``(value, label)``: the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], f"p100 (max; {n} samples < {TAIL_MIN_SAMPLES})"
    pct = math.floor(100.0 * (n - 10) / n)
    return ordered[n - 11], f"p{pct} ({n} samples, 10 beyond)"


def end_to_end(record: Pass, setups: list, peak_rss_mb: float) -> tuple:
    """``(metrics, notes)`` of an untraced pass."""
    # A failed point misses every latency limit.
    times = [t if ok else math.inf for t, ok in zip(record.times, record.ok)]
    tail_value, tail_label = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "points_per_s": record.verified() / sum(record.times),
        "point_p50_s": statistics.median(times),
        "point_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "points_per_s": f"{record.verified()} verified of {record.count} attempted",
        "point_p50_s": f"{record.count} samples",
        "point_tail_s": tail_label,
        "peak_rss_mb": "ru_maxrss before the cross-backend check",
    }
    return values, notes


def scenario_keys() -> list:
    from cdrbench.workloads import CATALOG_BACKENDS, CATALOG_SCENARIOS

    return [f"{s}.{b}" for s in CATALOG_SCENARIOS for b in CATALOG_BACKENDS]


def per_layer_units() -> dict:
    """``name -> (unit, better)`` of every per-layer metric."""
    units = {
        "cdr.build_s": ("s/point", "lower"),
        "cdr.restrict_calls": ("count/point", "lower"),
        "cdr.restrict_s": ("s/point", "lower"),
        "kernels.applies": ("count/point", "lower"),
        "kernels.apply_s": ("s/point", "lower"),
        "kernels.apply_us": ("us", "lower"),
        "kernels.bytes_computed": ("bytes/point", "lower"),
        "markov.solve_s": ("s/point", "lower"),
        "markov.iterations": ("count/point", "lower"),
        "context.hierarchy_build_s": ("s/point", "lower"),
        "context.hierarchy_hits": ("count/point", "higher"),
        "context.hierarchy_misses": ("count/point", "lower"),
        "context.warm_starts": ("count/point", "higher"),
        "measures_s": ("s/point", "lower"),
        "scenarios.build_s": ("s/point", "lower"),
        "scenarios.evaluate_s": ("s/point", "lower"),
    }
    for key in scenario_keys():
        units[f"scenarios.{key}.evaluate_s"] = ("s/point", "lower")
    from cdrbench.tracing import SELF_LAYERS

    for metric in SELF_LAYERS.values():
        units[metric] = ("s/point", "lower")
    units["unattributed_s"] = ("s/point", "lower")
    units["unattributed_share"] = ("fraction", "lower")
    units["trace.overhead_frac"] = ("fraction", "higher")
    return units
