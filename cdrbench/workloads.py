"""Seeded workload generators and the clients that run them through ``repro``.

A generator turns ``(seed, count)`` into plain spec dicts -- the only thing
the program under test receives.  A client executes one spec through the
public API (the timed call) and hands back what the checker needs.  The
benchmark is a closed loop with one client: the next spec starts when the
previous call has returned and been checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("design-point", "sweep-mf-46k", "scenario-catalog")

#: Analyzer tolerance for every solve (``analyze_cdr``'s default).
TOL = 1e-10

# design-point: cold analyze_cdr calls on the paper's default 11,520-state
# spec, with the two noise knobs the paper sweeps drawn around its default.
DESIGN_NW_STD = (0.015, 0.030)
DESIGN_NR_MEAN = (0.001, 0.003)

# sweep-mf-46k: nw_std sweeps on the 1024-phase-point chain (46,080 states),
# matrix-free, sharing one SolveContext.
SWEEP_PHASE_POINTS = 1024
SWEEP_NW_STD = (0.015, 0.025)
SWEEP_LENGTH = 12

# scenario-catalog: the four scenarios registered when the benchmark was
# defined, fixed here so a newly registered scenario does not change it.
CATALOG_SCENARIOS = (
    "alexander-offset",
    "bangbang-freq",
    "baseline",
    "mesochronous-settle",
)
CATALOG_BACKENDS = ("assembled", "matrix-free")

#: Specs generated per run; far more than a run can use at these sizes.
SPEC_COUNT = 256


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """One random value inside each of ``n`` equal strata of ``[lo, hi]``, in order."""
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in range(n)]


def design_points(seed: int, count: int = SPEC_COUNT) -> List[Dict[str, float]]:
    """Latin-hypercube blocks of 16 ``(nw_std, nr_mean)`` design points.

    Every block covers the whole design region evenly, so runs with
    different seeds do the same mix of easy and hard points and their
    medians are comparable.
    """
    rng = random.Random(f"design-point:{seed}")
    specs: List[Dict[str, float]] = []
    while len(specs) < count:
        nw = _strata(rng, 16, *DESIGN_NW_STD)
        nr = _strata(rng, 16, *DESIGN_NR_MEAN)
        rng.shuffle(nw)
        rng.shuffle(nr)
        specs.extend(
            {"nw_std": round(a, 6), "nr_mean": round(b, 6)} for a, b in zip(nw, nr)
        )
    return specs[:count]


def sweep_points(seed: int, count: int = SPEC_COUNT) -> List[Dict[str, float]]:
    """Consecutive ascending ``nw_std`` sweeps of :data:`SWEEP_LENGTH` points.

    Each sweep is an evenly spaced grid over :data:`SWEEP_NW_STD` shifted
    by a seeded fraction of its step, so every warm start bridges the same
    distance whatever the seed.
    """
    rng = random.Random(f"sweep-mf-46k:{seed}")
    lo, hi = SWEEP_NW_STD
    step = (hi - lo) / SWEEP_LENGTH
    specs: List[Dict[str, float]] = []
    while len(specs) < count:
        offset = rng.random()
        specs.extend(
            {"n_phase_points": SWEEP_PHASE_POINTS,
             "nw_std": round(lo + (k + offset) * step, 6)}
            for k in range(SWEEP_LENGTH)
        )
    return specs[:count]


def catalog_passes(seed: int, count: int = SPEC_COUNT) -> List[List[Tuple[str, str]]]:
    """Passes over every (scenario, backend) pair, each in a seeded order."""
    rng = random.Random(f"scenario-catalog:{seed}")
    pairs = [(s, b) for s in CATALOG_SCENARIOS for b in CATALOG_BACKENDS]
    passes = []
    for _ in range(count):
        order = list(pairs)
        rng.shuffle(order)
        passes.append(order)
    return passes


def generate(workload: str, seed: int, count: int = SPEC_COUNT) -> List[Any]:
    """The spec list of one workload (deterministic in ``seed``)."""
    if workload == "design-point":
        return design_points(seed, count)
    if workload == "sweep-mf-46k":
        return sweep_points(seed, count)
    if workload == "scenario-catalog":
        return catalog_passes(seed, count)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------- #
# clients
# ---------------------------------------------------------------------- #

@dataclass
class Outcome:
    """What one timed call produced, for the checker (not timed)."""

    analyses: List[Any] = field(default_factory=list)
    runs: List[Any] = field(default_factory=list)
    failed_in_program: List[str] = field(default_factory=list)
    context_delta: Dict[str, float] = field(default_factory=dict)


class DesignPointClient:
    """One cold ``analyze_cdr`` per spec: assembled backend, ``auto`` solver."""

    workload = "design-point"

    def __init__(self, repro) -> None:
        self.repro = repro

    def execute(self, spec: Dict[str, Any]) -> Outcome:
        analysis = self.repro.analyze_cdr(self.repro.CDRSpec(**spec), tol=TOL)
        return Outcome(analyses=[analysis])

    def cross_backend(self, spec: Dict[str, Any]):
        """The same point re-solved on the other backend."""
        return self.repro.analyze_cdr(
            self.repro.CDRSpec(**spec), tol=TOL, backend="matrix-free"
        )


class SweepClient:
    """A warm matrix-free ``sweep_parameter`` over ``nw_std``, one point per call.

    All calls share one :class:`~repro.markov.SolveContext`, so the first
    point builds the coarsening hierarchy and every later one reuses it
    and warm-starts from its predecessor, exactly as one long sweep would.
    """

    workload = "sweep-mf-46k"

    def __init__(self, repro) -> None:
        from repro.markov import SolveContext

        self.repro = repro
        self.context = SolveContext()
        self._captured: List[Any] = []

    def _analyze(self, *args, **kwargs):
        analysis = self.repro.analyze_cdr(*args, **kwargs)
        self._captured.append(analysis)
        return analysis

    def execute(self, spec: Dict[str, Any]) -> Outcome:
        before = self.context.stats()
        base = self.repro.CDRSpec(
            **{k: v for k, v in spec.items() if k != "nw_std"}
        )
        result = self.repro.sweep_parameter(
            base, "nw_std", [spec["nw_std"]], tol=TOL,
            backend="matrix-free", solve_context=self.context,
            analyze_fn=self._analyze,
        )
        analyses, self._captured = self._captured, []
        after = self.context.stats()
        return Outcome(
            analyses=analyses,
            failed_in_program=[
                f"{e['error_type']}: {e['message']}" for e in result.failed_points
            ],
            context_delta={k: after[k] - before[k] for k in after},
        )

    def cross_backend(self, spec: Dict[str, Any]):
        """The same point re-solved cold on the assembled backend."""
        return self.repro.analyze_cdr(
            self.repro.CDRSpec(**spec), tol=TOL, solver="multigrid",
            backend="assembled",
        )


class CatalogClient:
    """One pass over the catalog: every scenario at ``fast`` size on both backends."""

    workload = "scenario-catalog"

    def __init__(self, repro) -> None:
        from repro.scenarios import get_scenario

        self.repro = repro
        self.scenarios = {name: get_scenario(name) for name in CATALOG_SCENARIOS}

    def execute(self, spec: Sequence[Tuple[str, str]]) -> Outcome:
        from repro.scenarios import run_scenario

        runs = [
            run_scenario(self.scenarios[name], size="fast", backend=backend, tol=TOL)
            for name, backend in spec
        ]
        return Outcome(runs=runs)


CLIENTS = {
    "design-point": DesignPointClient,
    "sweep-mf-46k": SweepClient,
    "scenario-catalog": CatalogClient,
}
