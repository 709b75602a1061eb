#!/usr/bin/env python3
"""Benchmark of the CDR analyzer, end to end and per layer.

Run from the root of a source checkout::

    python3 cdrbench/run.py --workload design-point --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn.  The program is imported
from ``src/`` of the checkout and driven through its public API in one
process, single-threaded, as a closed loop with one client.  The last
line of standard output is the JSON result; everything before it is a
human-readable report.  Files the run leaves behind (the kernel-tier
build cache, per-run records with spans) go to ``.cdrbench/``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures
the same points twice, first untraced and then traced, prints the
per-layer metrics, and requires both passes to agree bitwise on every
stationary vector and on iteration counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".cdrbench")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from cdrbench import measure  # noqa: E402  (needs the path above)

#: Set-ups measured per run (fresh interpreters); ``setup_s`` is their median.
SETUP_SAMPLES = 3


def pin_environment() -> None:
    """One BLAS thread; compiler output and kernel cache inside the checkout.

    Must run before numpy is imported; set-up children inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_KERNELS_CACHE"] = os.path.join(OUT_DIR, "kernels")
    os.environ["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``repro`` under ``src/``."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise ProgramMissing(f"no program source at {ROOT}/src/repro")


def import_program():
    """``repro`` from this checkout's ``src/`` (never an installed copy)."""
    require_program()
    try:
        import repro
    except ImportError as exc:
        raise ProgramMissing(f"cannot import repro from {ROOT}/src: {exc}") from exc
    expected = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        raise ProgramMissing(f"repro was imported from {repro.__file__}, not {expected}")
    return repro


def warm_up(repro, workload: str) -> None:
    """Everything a timed point should not pay for the first time."""
    import repro.kernels
    import repro.scenarios

    repro.kernels.active_tier()  # compiles or loads the kernel tier
    tiny = repro.CDRSpec(
        n_phase_points=64, n_clock_phases=16, counter_length=2,
        max_run_length=2, nw_std=0.08, nw_atoms=7,
    )
    for backend in ("assembled", "matrix-free"):
        repro.analyze_cdr(tiny, backend=backend)
    if workload == "scenario-catalog":
        from cdrbench.workloads import CATALOG_SCENARIOS

        for name in CATALOG_SCENARIOS:
            repro.scenarios.load_golden(name)


def measure_setups(workload: str) -> list:
    """Wall seconds from interpreter spawn to the end of warm-up, per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline().strip()
            elapsed = perf_counter() - t0
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it."""
    import ctypes
    import glob

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    import repro.kernels

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "kernel_tier": repro.kernels.active_tier(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #

def parse_args(argv):
    from cdrbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample, spawned by measure_setups().
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    from cdrbench.workloads import WORKLOADS

    rows, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            rows.append((workload, json.loads(lines[-1])))
    print("\nsummary")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"  {workload:18s} {name:52s} {metric['value']:14.6g} {metric['unit']}")
        print(f"  {workload:18s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    return status


def trace_problems(untraced, traced) -> list:
    """The traced pass must follow the untraced solver path bit for bit."""
    problems = []
    if traced.iterations != untraced.iterations:
        problems.append(
            f"traced iterations {traced.iterations} != untraced {untraced.iterations}"
        )
    if traced.digests != untraced.digests:
        problems.append("traced stationary digests differ from untraced")
    return problems


def layer_values(tracer, untraced, traced) -> dict:
    from cdrbench import tracing

    values = tracing.layer_metrics(
        tracer.spans, sum(traced.iterations), traced.context, measure.scenario_keys()
    )
    values["trace.overhead_frac"] = (
        (traced.verified() / sum(traced.times))
        / (untraced.verified() / sum(untraced.times))
    )
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_child:
        warm_up(import_program(), args.workload)
        print("ready", flush=True)
        return 0

    require_program()
    setups = measure_setups(args.workload)
    repro = import_program()
    warm_up(repro, args.workload)
    from cdrbench import tracing, workloads

    specs = workloads.generate(args.workload, args.seed)
    client_cls = workloads.CLIENTS[args.workload]
    goldens = {}
    if args.workload == "scenario-catalog":
        from repro.scenarios import load_golden

        goldens = {n: load_golden(n).measures for n in workloads.CATALOG_SCENARIOS}

    budget = args.seconds / 2 if args.trace else args.seconds
    client = client_cls(repro)
    untraced = measure.run_pass(client, specs, budget, tracing.Tracer(False), goldens)
    passes, tracer = [untraced], None
    if args.trace:
        tracer = tracing.Tracer(True)
        traced_client = client_cls(repro)
        if args.workload == "scenario-catalog":
            traced_client.scenarios = {
                n: tracer.scenario(s) for n, s in traced_client.scenarios.items()
            }
        passes.append(measure.run_pass(
            traced_client, specs, math.inf, tracer, goldens, limit=untraced.count
        ))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_problems, cross_note = measure.cross_backend(client, untraced)

    print(f"cdrbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    fp = fingerprint(args.workload, args.seed)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.trace:
        traced = passes[1]
        run_problems += trace_problems(untraced, traced)
        values = layer_values(tracer, untraced, traced)
        layer_units = measure.per_layer_units()
        units = {k: layer_units[k][0] for k in values}
        notes = {"trace.overhead_frac": "traced points_per_s / untraced, same points"}
    else:
        values, notes = measure.end_to_end(untraced, setups, peak_rss_mb)
        units = measure.END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name:52s} {value:14.6g} {units[name]:12s} {notes.get(name, '')}")
    if args.trace:
        print("layer -> end-to-end metric -> workload (predicted):")
        for layer, metric, workload, why in tracing.LAYER_MAP:
            print(f"  {layer:52s} {metric:14s} {workload:32s} {why}")
        print(f"traced vs untraced over the same {untraced.count} points: "
              f"iterations and stationary digests "
              f"{'identical' if not trace_problems(untraced, traced) else 'DIFFER'}")
    print("checks: " + ", ".join(
        f"{name} {p.verified()}/{p.count} points verified"
        for name, p in zip(("untraced", "traced"), passes)
    ))
    print(f"cross-backend: {cross_note}")
    if untraced.ber:
        print(f"BER {min(untraced.ber):.3e}..{max(untraced.ber):.3e}, slip rate "
              f"{min(untraced.slip):.3e}..{max(untraced.slip):.3e}: recorded per "
              "point, not gated (ROADMAP item 1: tail measures below ~1e-14 "
              "are not resolved)")
    for p in passes:
        for index, problems in enumerate(p.problems):
            for problem in problems:
                print(f"FAILED point {index}: {problem}")
    for problem in run_problems:
        print(f"FAILED: {problem}")

    record_path = write_record(args, fp, values, notes, setups, passes, tracer, run_problems)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    failed = sum(p.count - p.verified() for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": sum(p.count for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def write_record(args, fp, values, notes, setups, passes, tracer, run_problems) -> str:
    """Everything measured, per point and per span, as JSON under ``.cdrbench``."""
    from cdrbench import tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({
            "fingerprint": fp,
            "metrics": values,
            "notes": notes,
            "setups_s": setups,
            "points": [
                {"pass": name, "time_s": t, "ok": ok, "problems": probs,
                 "digests": dig, "iterations": it}
                for name, p in zip(("untraced", "traced"), passes)
                for t, ok, probs, dig, it in zip(
                    p.times, p.ok, p.problems, p.digests, p.iterations
                )
            ],
            "ber": passes[0].ber,
            "slip_rate": passes[0].slip,
            "run_problems": run_problems,
            "spans": [sp.to_dict() for sp in tracer.spans] if tracer else [],
            "layer_map": tracing.LAYER_MAP,
        }, fh, indent=1)
    return path


if __name__ == "__main__":
    pin_environment()
    try:
        sys.exit(main())
    except ProgramMissing as exc:
        print(f"cdrbench: {exc}", file=sys.stderr)
        sys.exit(2)
