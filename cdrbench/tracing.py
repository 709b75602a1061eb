"""Spans around the calls the benchmark makes into ``repro``'s layers.

Nothing here changes the program: the benchmark swaps module-level
references to a few public functions for wrappers, for the duration of
one pass, and puts the fine transition operator behind a proxy that
forwards every attribute.  The wrapped calls are

* ``get_backend(..).build`` (span ``cdr.build``);
* ``stationary_distribution`` wherever a ``repro`` module imported it
  (span ``markov.solve``; its results are also captured for the checker);
* ``SolveContext.hierarchy_for`` (span ``context.hierarchy_for``);
* the public functions of ``repro.core.measures`` (span ``measures``);
* a scenario's ``build`` and ``evaluate`` (spans ``scenario.build`` and
  ``scenario.evaluate``);
* the fine operator's ``matvec``/``rmatvec``/``matmat``/``rmatmat``
  (leaf ``kernels.apply``) and ``restrict`` (leaf ``cdr.restrict``).

Leaves are far too many to keep one span each (tens of thousands of
applies per catalog pass), so their calls, seconds and computed bytes are
summed into the innermost open span.  Spans live in memory and are
written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Protocol methods timed as ``kernels.apply``; bytes are computed as the
#: input plus output array sizes, not measured traffic.
APPLY_METHODS = ("matvec", "rmatvec", "matmat", "rmatmat")

#: Which end-to-end metric each per-layer metric should move, on which
#: workload -- written down before any change is measured against it.
#: ``"no change"`` marks the pairings where a change to that layer is
#: predicted not to show.
LAYER_MAP: Tuple[Tuple[str, str, str, str], ...] = (
    ("cdr.build_s", "point_p50_s", "design-point",
     "small share; ROADMAP item 3 (a single chain construction) must not raise it"),
    ("cdr.restrict_calls / cdr.restrict_s", "points_per_s", "sweep-mf-46k",
     "ROADMAP item 2a (Galerkin plan)"),
    ("cdr.restrict_calls / cdr.restrict_s", "points_per_s", "scenario-catalog",
     "no change: zero or unchanged (no multigrid)"),
    ("kernels.*", "points_per_s", "sweep-mf-46k",
     "ROADMAP item 2c (large applies)"),
    ("kernels.*", "points_per_s", "scenario-catalog",
     "ROADMAP item 2c (small applies, matrix-free legs)"),
    ("kernels.*", "point_p50_s", "design-point",
     "no change: assembled applies go through scipy"),
    ("markov.solve_s / markov.iterations / markov.other_s", "point_p50_s",
     "design-point", "ROADMAP item 2a (setup-once multigrid)"),
    ("markov.solve_s / markov.iterations / markov.other_s", "point_p50_s",
     "sweep-mf-46k", "ROADMAP item 2a"),
    ("context.*", "points_per_s", "sweep-mf-46k",
     "hierarchy reuse and warm starts"),
    ("context.*", "points_per_s", "design-point / scenario-catalog",
     "no change: no SolveContext"),
    ("measures_s", "point_p50_s", "all", "small everywhere"),
    ("scenarios.*", "points_per_s", "scenario-catalog",
     "ROADMAP items 2c, 2d, 2e"),
)


class Span:
    """One timed call: name, start, end, parent span index and point id."""

    __slots__ = ("name", "start", "end", "parent", "point", "key",
                 "apply_calls", "apply_s", "apply_bytes",
                 "restrict_calls", "restrict_s")

    def __init__(self, name: str, start: float, parent: int, point: int, key: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.point = point
        self.key = key
        self.apply_calls = 0
        self.apply_s = 0.0
        self.apply_bytes = 0
        self.restrict_calls = 0
        self.restrict_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {k: getattr(self, k) for k in self.__slots__}


class OperatorProxy:
    """Forwards every attribute to the wrapped operator, timing applies.

    Only attributes the operator has are visible through the proxy, so
    capability probes (``getattr(op, "restrict", None)``, ``to_csr``,
    ``matmat``) see exactly what they would see without it.
    """

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name in APPLY_METHODS:
            attr = self._tracer.timed_apply(attr)
        elif name == "restrict":
            attr = self._tracer.timed_restrict(attr)
        else:
            return attr
        self.__dict__[name] = attr
        return attr

    def __repr__(self) -> str:
        return f"OperatorProxy({self._inner!r})"


def _is_operator(chain) -> bool:
    from repro.markov import MarkovChain

    return not isinstance(chain, (MarkovChain, OperatorProxy)) and hasattr(chain, "rmatvec")


@contextmanager
def _replaced_everywhere(original: Callable, replacement: Callable) -> Iterator[None]:
    """Point every ``repro`` module-level reference to ``original`` at ``replacement``."""
    swapped = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped.append((module, attr))
    try:
        yield
    finally:
        for module, attr in swapped:
            setattr(module, attr, original)


class Tracer:
    """Captures every stationary solve; with ``timing`` also records spans."""

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._point = -1
        self.solves: List[Tuple[Any, Any]] = []

    # -- spans ----------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, key: str = "") -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        sp = Span(name, perf_counter(), parent, self._point, key)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            yield
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def point(self, point_id: int) -> Iterator[None]:
        """The root span of one benchmark point (nothing when not timing)."""
        if not self.timing:
            yield
            return
        self._point = point_id
        with self.span("point"):
            yield

    def timed_apply(self, fn: Callable) -> Callable:
        def apply(x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            dt = perf_counter() - t0
            if self._stack:
                sp = self.spans[self._stack[-1]]
                sp.apply_calls += 1
                sp.apply_s += dt
                sp.apply_bytes += getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0)
            return out

        return apply

    def timed_restrict(self, fn: Callable) -> Callable:
        def restrict(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            if self._stack:
                sp = self.spans[self._stack[-1]]
                sp.restrict_calls += 1
                sp.restrict_s += dt
            return out

        return restrict

    # -- wrappers -------------------------------------------------------- #

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def take_solves(self) -> List[Tuple[Any, Any]]:
        solves, self.solves = self.solves, []
        return solves

    def scenario(self, scenario):
        """``scenario`` with spanned ``build``/``evaluate`` and a proxied chain."""
        build, evaluate = scenario.build, scenario.evaluate

        def traced_build(params, backend="assembled"):
            with self.span("scenario.build", f"{scenario.name}.{backend}"):
                model = build(params, backend=backend)
            if _is_operator(model.chain):
                model.chain = OperatorProxy(model.chain, self)
            return model

        def traced_evaluate(model, params, **kwargs):
            with self.span("scenario.evaluate", f"{scenario.name}.{model.backend}"):
                return evaluate(model, params, **kwargs)

        return dataclasses.replace(scenario, build=traced_build, evaluate=traced_evaluate)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the wrappers in for the enclosed block."""
        import repro.core.measures as measures
        import repro.markov.registry as registry
        import repro.markov.stationary as stationary
        from repro.markov.context import SolveContext

        solve = stationary.stationary_distribution
        get_backend = registry.get_backend
        hierarchy_for = SolveContext.hierarchy_for

        def traced_solve(chain, *args, **kwargs):
            if self.timing:
                with self.span("markov.solve"):
                    result = solve(chain, *args, **kwargs)
            else:
                result = solve(chain, *args, **kwargs)
            self.solves.append((chain, result))
            return result

        def traced_get_backend(name):
            entry = get_backend(name)
            build = entry.build

            def traced_build(spec, *args, **kwargs):
                with self.span("cdr.build"):
                    model = build(spec, *args, **kwargs)
                if _is_operator(model.chain):
                    model.chain = OperatorProxy(model.chain, self)
                return model

            return dataclasses.replace(entry, build=traced_build)

        with ExitStack() as stack:
            stack.enter_context(_replaced_everywhere(solve, traced_solve))
            if self.timing:
                stack.enter_context(_replaced_everywhere(get_backend, traced_get_backend))
                for name in measures.__all__:
                    fn = getattr(measures, name)
                    stack.enter_context(
                        _replaced_everywhere(fn, self._spanned("measures", fn))
                    )
                SolveContext.hierarchy_for = self._spanned(
                    "context.hierarchy_for", hierarchy_for
                )
                stack.callback(setattr, SolveContext, "hierarchy_for", hierarchy_for)
            yield self


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

#: Span name -> metric of its self time (duration minus child spans and
#: leaves).  The solver's self time is what applies and restrict leave over.
SELF_LAYERS = {
    "cdr.build": "self.cdr.build_s",
    "markov.solve": "markov.other_s",
    "context.hierarchy_for": "self.context.hierarchy_for_s",
    "measures": "self.measures_s",
    "scenario.build": "self.scenarios.build_s",
    "scenario.evaluate": "self.scenarios.evaluate_s",
}


def layer_metrics(
    spans: List[Span],
    iterations: int,
    context_totals: Dict[str, float],
    scenario_keys: List[str],
) -> Dict[str, float]:
    """Per-point layer metrics from the spans of ``n`` traced points."""
    points = [sp for sp in spans if sp.name == "point"]
    n = max(len(points), 1)
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_s[sp.parent] += sp.duration
    selfs = {name: 0.0 for name in SELF_LAYERS}
    inclusive: Dict[str, float] = {}
    per_key: Dict[str, float] = {key: 0.0 for key in scenario_keys}
    applies = apply_s = apply_bytes = restrict_calls = restrict_s = 0.0
    unattributed = 0.0
    for i, sp in enumerate(spans):
        own = sp.duration - child_s[i] - sp.apply_s - sp.restrict_s
        applies += sp.apply_calls
        apply_s += sp.apply_s
        apply_bytes += sp.apply_bytes
        restrict_calls += sp.restrict_calls
        restrict_s += sp.restrict_s
        if sp.name == "point":
            unattributed += own
            continue
        selfs[sp.name] += own
        parent = spans[sp.parent].name if sp.parent >= 0 else ""
        if parent != sp.name:  # nested measures count once
            inclusive[sp.name] = inclusive.get(sp.name, 0.0) + sp.duration
        if sp.name == "scenario.evaluate":
            per_key[sp.key] = per_key.get(sp.key, 0.0) + sp.duration
    point_s = sum(sp.duration for sp in points)

    metrics = {
        "cdr.build_s": inclusive.get("cdr.build", 0.0) / n,
        "cdr.restrict_calls": restrict_calls / n,
        "cdr.restrict_s": restrict_s / n,
        "kernels.applies": applies / n,
        "kernels.apply_s": apply_s / n,
        "kernels.apply_us": 1e6 * apply_s / applies if applies else 0.0,
        "kernels.bytes_computed": apply_bytes / n,
        "markov.solve_s": inclusive.get("markov.solve", 0.0) / n,
        "markov.iterations": iterations / n,
        "context.hierarchy_build_s": inclusive.get("context.hierarchy_for", 0.0) / n,
        "context.hierarchy_hits": context_totals.get("hierarchy_hits", 0) / n,
        "context.hierarchy_misses": context_totals.get("hierarchy_misses", 0) / n,
        "context.warm_starts": context_totals.get("warm_starts", 0) / n,
        "measures_s": inclusive.get("measures", 0.0) / n,
        "scenarios.build_s": inclusive.get("scenario.build", 0.0) / n,
        "scenarios.evaluate_s": inclusive.get("scenario.evaluate", 0.0) / n,
    }
    for key in scenario_keys:
        metrics[f"scenarios.{key}.evaluate_s"] = per_key[key] / n
    for name, metric in SELF_LAYERS.items():
        metrics[metric] = selfs[name] / n
    metrics["unattributed_s"] = unattributed / n
    metrics["unattributed_share"] = unattributed / point_s if point_s else 0.0
    return metrics
