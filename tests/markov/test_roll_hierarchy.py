"""Matrix-free multigrid on roll-operator levels vs the assembled hierarchy.

The CDR operator's phase-pairing coarse levels are roll operators
(:class:`repro.cdr.operator.RollOperator`) applied through the active
kernel tier, down to the coarsest level, which is assembled for its direct
solve.  A matrix-free multigrid solve must follow the assembled solve cycle
for cycle, be bitwise repeatable, report the same per-level nonzero counts,
and build its coarse levels in a bounded footprint.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cdr.operator import RollOperator
from repro.core.spec import CDRSpec
from repro.markov import RecordingMonitor, solve_multigrid
from repro.markov.registry import get_backend


def models(M: int):
    """The assembled and matrix-free models of one spec."""
    spec = CDRSpec(n_phase_points=M, nw_std=0.02)
    return get_backend("assembled").build(spec), get_backend("matrix-free").build(spec)


def solve(model, monitor=None):
    # The analyzer's multigrid settings.
    return solve_multigrid(
        model.chain, strategy=model.multigrid_strategy(), tol=1e-10,
        nu_pre=8, nu_post=8, monitor=monitor,
    )


def assert_backends_agree(assembled, matrix_free) -> None:
    a, f = solve(assembled), solve(matrix_free)
    assert a.converged and f.converged
    assert abs(a.iterations - f.iterations) <= 1
    assert np.abs(a.distribution - f.distribution).sum() <= 1e-12


@pytest.fixture(scope="module")
def pair256():
    return models(256)


class TestAgainstAssembled:
    def test_same_cycles_and_stationary_vector(self, pair256):
        assert_backends_agree(*pair256)

    @pytest.mark.slow
    def test_same_cycles_and_stationary_vector_at_46k_states(self):
        assert_backends_agree(*models(1024))

    def test_matrix_free_solves_are_bitwise_repeatable(self, pair256):
        _, mf = pair256
        a, b = solve(mf), solve(mf)
        assert a.iterations == b.iterations
        assert np.array_equal(
            a.distribution.view(np.int64), b.distribution.view(np.int64)
        )


    def test_coarsest_operator_level_is_solved_directly(self, pair256, monkeypatch):
        # The coarsest roll level is assembled for the direct solve; power
        # iteration is only the fallback for a fine level that is coarsest.
        import repro.markov.multigrid as multigrid

        def no_power(*args, **kwargs):
            raise AssertionError("a coarse operator level was power-iterated")

        monkeypatch.setattr(multigrid, "solve_power", no_power)
        assert solve(pair256[1]).converged


class TestLevelTelemetry:
    def test_level_nnz_matches_assembled_backend(self):
        # Operator levels count their entries from the plan, unassembled.
        counts = []
        for model in models(128):
            rec = RecordingMonitor()
            assert solve(model, rec).converged
            counts.append({e.level: e.nnz for e in rec.vcycle_events if e.cycle == 1})
        assembled, matrix_free = counts
        assert matrix_free[0] == assembled[0] == 51_000
        assert matrix_free[1] == assembled[1] > 0


class TestCoarseBuildFootprint:
    def test_warm_pairing_restrict_stays_lean(self):
        op = get_backend("matrix-free").build(CDRSpec(n_phase_points=1024)).chain
        part = op.phase_pairing_partitions()[0]
        w = np.random.default_rng(0).random(op.n)
        op.restrict(part, w)  # warm: the level's pairing structure is cached
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            coarse = op.restrict(part, w)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(coarse, RollOperator)
        assert peak - before < 8 * 2**20
        # The coarse level keeps less than one fine-nnz-sized array.
        assert retained - before < 8 * op.nnz
