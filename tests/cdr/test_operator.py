"""Tests for the matrix-free CDR transition operator."""

import numpy as np
import pytest

from repro.cdr import CDRTransitionOperator, PhaseGrid, build_cdr_chain
from repro.cdr.operator import RollOperator
from repro.markov import (
    Partition,
    ensure_csr,
    lumped_tpm,
    solve_direct,
    stationary_distribution,
)
from repro.noise import DiscreteDistribution, eye_opening_noise


def params(M=32, counter=3, g=2):
    grid = PhaseGrid(M)
    return dict(
        grid=grid,
        nw=eye_opening_noise(0.06, n_atoms=7),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
        ),
        counter_length=counter,
        phase_step_units=g,
        max_run_length=2,
    )


@pytest.fixture(scope="module")
def pair():
    p = params()
    return build_cdr_chain(**p), CDRTransitionOperator(**p)


class TestAgainstAssembledMatrix:
    def test_shapes_match(self, pair):
        model, op = pair
        assert op.n == model.n_states
        assert op.shape == (model.n_states, model.n_states)

    def test_rmatvec_matches(self, pair):
        model, op = pair
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.random(op.n)
            np.testing.assert_allclose(
                op.rmatvec(x), model.chain.P.T.dot(x), atol=1e-12
            )

    def test_matvec_matches(self, pair):
        model, op = pair
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.random(op.n)
            np.testing.assert_allclose(
                op.matvec(v), model.chain.P.dot(v), atol=1e-12
            )

    def test_adjoint_identity(self, pair):
        _, op = pair
        rng = np.random.default_rng(2)
        x, v = rng.random(op.n), rng.random(op.n)
        # <P^T x, v> == <x, P v>
        assert np.dot(op.rmatvec(x), v) == pytest.approx(
            np.dot(x, op.matvec(v)), rel=1e-12
        )

    def test_preserves_probability_mass(self, pair):
        _, op = pair
        x = np.full(op.n, 1.0 / op.n)
        y = op.rmatvec(x)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.min() >= -1e-15

    def test_row_stochasticity_via_matvec(self, pair):
        _, op = pair
        # P @ ones == ones
        np.testing.assert_allclose(op.matvec(np.ones(op.n)), 1.0, atol=1e-12)

    def test_linear_operator_view(self, pair):
        _, op = pair
        lo = op.as_linear_operator()
        x = np.random.default_rng(3).random(op.n)
        np.testing.assert_allclose(lo.rmatvec(x), op.rmatvec(x))

    @pytest.mark.parametrize("M,counter,g", [(16, 1, 1), (64, 4, 8), (32, 2, 4)])
    def test_matches_across_configurations(self, M, counter, g):
        p = params(M=M, counter=counter, g=g)
        model = build_cdr_chain(**p)
        op = CDRTransitionOperator(**p)
        rng = np.random.default_rng(M + counter)
        x = rng.random(op.n)
        np.testing.assert_allclose(
            op.rmatvec(x), model.chain.P.T.dot(x), atol=1e-12
        )


class TestMatrixFreeStationary:
    def test_matches_direct_solve(self, pair):
        model, op = pair
        ref = solve_direct(model.chain.P).distribution
        res = stationary_distribution(op, method="power", tol=1e-11)
        assert res.converged
        assert res.method == "power"
        assert np.abs(res.distribution - ref).sum() < 1e-8

    def test_phase_marginal_matches(self, pair):
        model, op = pair
        res = stationary_distribution(op, method="power", tol=1e-11)
        np.testing.assert_allclose(
            op.phase_marginal(res.distribution),
            model.phase_marginal(res.distribution),
            atol=1e-14,
        )

    def test_damping_validation(self, pair):
        _, op = pair
        with pytest.raises(ValueError):
            stationary_distribution(op, method="power", damping=0.0)

    def test_large_model_runs_without_assembly(self):
        """A model size whose assembled matrix would be heavy builds and
        applies instantly matrix-free."""
        p = params(M=4096, counter=8, g=256)
        op = CDRTransitionOperator(**p)
        assert op.n == 2 * 15 * 4096
        x = np.full(op.n, 1.0 / op.n)
        y = op.rmatvec(x)
        assert y.sum() == pytest.approx(1.0, abs=1e-10)


def pairing_levels(op, seed=0):
    """``(level operator, partition, weights, restricted)`` down the
    operator's own phase-pairing hierarchy, with spread-out weights."""
    rng = np.random.default_rng(seed)
    current = op
    for part in op.phase_pairing_partitions():
        w = rng.random(current.n) * 10.0 ** -rng.uniform(0.0, 6.0, current.n)
        coarse = current.restrict(part, w)
        yield current, part, w, coarse
        current = coarse


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def op256():
    return CDRTransitionOperator(**params(M=256))


class TestRollLevels:
    """Phase-pairing coarse levels are roll operators equal to the
    assembled Galerkin coarse operator, applied bit-for-bit like their
    own ``to_csr()``."""

    def test_every_pairing_level_matches_lumped_tpm(self, op256):
        levels = 0
        for current, part, w, coarse in pairing_levels(op256):
            assert isinstance(coarse, RollOperator)
            assert coarse.n == part.n_blocks
            ref = lumped_tpm(current.to_csr(), part, weights=w)
            np.testing.assert_allclose(
                ensure_csr(coarse).toarray(), ref.toarray(), rtol=0, atol=1e-15
            )
            levels += 1
        assert levels == 5  # 256 -> 8 phase points

    def test_level_applies_bitwise_equal_own_csr(self, op256):
        rng = np.random.default_rng(4)
        for _, _, _, coarse in pairing_levels(op256, seed=1):
            P = coarse.to_csr()
            x = rng.random(coarse.n)
            X = rng.random((coarse.n, 3))
            assert same_bits(coarse.rmatvec(x), P.T @ x)
            assert same_bits(coarse.matvec(x), P @ x)
            assert same_bits(coarse.rmatmat(X), P.T @ X)
            assert same_bits(coarse.matmat(X), P @ X)
            assert same_bits(coarse.diagonal(), P.diagonal())
            assert coarse.nnz == P.nnz
            # Segments are trimmed to the phases the fine supports reach:
            # the kernel touches exactly the stored entries.
            segs = coarse._plan.scatter
            assert int((segs.b - segs.a).sum()) == P.nnz

    def test_fine_diagonal_and_nnz_come_from_the_plan(self, pair):
        model, op = pair
        P = op.to_csr()
        assert same_bits(op.diagonal(), P.diagonal())
        assert op.nnz == P.nnz == model.chain.P.nnz

    def test_non_pairing_partition_still_matches(self, op256):
        rng = np.random.default_rng(5)
        n = op256.n
        _, block_of = np.unique(rng.integers(0, n // 3, size=n), return_inverse=True)
        part = Partition(block_of)
        w = rng.random(n)
        got = op256.restrict(part, w)
        ref = lumped_tpm(op256.to_csr(), part, weights=w)
        np.testing.assert_allclose(
            ensure_csr(got).toarray(), ref.toarray(), rtol=0, atol=1e-15
        )
        # The same from a roll level, and on an odd phase count, where the
        # paper's lumping keeps a singleton and is no longer i // 2.
        coarse = op256.restrict(op256.phase_pairing_partitions()[0], w)
        part = Partition(np.arange(coarse.n) // 3)
        np.testing.assert_allclose(
            ensure_csr(coarse.restrict(part, None)).toarray(),
            lumped_tpm(coarse.to_csr(), part).toarray(), rtol=0, atol=1e-15,
        )
        odd = CDRTransitionOperator(**params(M=12, counter=2, g=1))
        current = odd
        for part in odd.phase_pairing_partitions(coarsest_phase_points=2):
            w = rng.random(current.n)
            coarse = current.restrict(part, w)
            np.testing.assert_allclose(
                ensure_csr(coarse).toarray(),
                lumped_tpm(current.to_csr(), part, weights=w).toarray(),
                rtol=0, atol=1e-15,
            )
            current = coarse
        assert not isinstance(current, RollOperator)  # 3 -> 2 phase points

    def test_coarse_levels_reuse_one_structure(self, op256):
        # Two V-cycles' coarse builds: new weights, the same value-free
        # terms and segment tables at every level.
        parts = op256.phase_pairing_partitions()
        rng = np.random.default_rng(6)
        a, b = op256, op256
        for part in parts[:3]:
            a = a.restrict(part, rng.random(a.n))
            b = b.restrict(part, rng.random(b.n))
            assert a._plan.scatter is b._plan.scatter
            assert a._plan.gather is b._plan.gather
            # Each cycle gets a fresh weight table, frozen once built.
            assert not np.shares_memory(a._plan.q, b._plan.q)
            assert not a._plan.q.flags.writeable

    def test_coarse_level_inherits_kernel_tier(self):
        from repro.kernels import active_tier, available_tiers, use_tier

        others = [t for t in available_tiers() if t != active_tier()]
        tier = others[0] if others else active_tier()
        with use_tier(tier):
            op = CDRTransitionOperator(**params(M=64))
        coarse = op.restrict(op.phase_pairing_partitions()[0], None)
        assert coarse.kernel_tier == op.kernel_tier == tier


class TestValidation:
    def test_bad_counter(self):
        p = params()
        p["counter_length"] = 0
        with pytest.raises(ValueError):
            CDRTransitionOperator(**p)

    def test_bad_step(self):
        p = params()
        p["phase_step_units"] = 0
        with pytest.raises(ValueError):
            CDRTransitionOperator(**p)

    def test_moves_exceed_grid(self):
        p = params(M=4, g=3)
        p["nr"] = DiscreteDistribution.delta(0.5)
        with pytest.raises(ValueError, match="exceed"):
            CDRTransitionOperator(**p)

    def test_vector_size_checked(self, pair):
        _, op = pair
        with pytest.raises(ValueError):
            op.rmatvec(np.ones(3))
        with pytest.raises(ValueError):
            op.matvec(np.ones(3))

    def test_repr(self, pair):
        _, op = pair
        assert "CDRTransitionOperator" in repr(op)
