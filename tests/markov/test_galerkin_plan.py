"""Compiled Galerkin plans: bitwise equal to the one-shot coarse build.

A :class:`~repro.markov.galerkin.GalerkinPlan` must reproduce
``lumped_tpm`` + ``jacobi_split`` to the last bit (values *and* storage
order), and a multigrid solve that plans its levels must produce the same
iterates and cycle count as one that rebuilds every level every cycle.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.markov import (
    GalerkinPlan,
    MultigridOptions,
    MultigridSolver,
    Partition,
    lumped_tpm,
    pairing_hierarchy,
    random_chain,
    stationary_distribution,
    strength_of_connection_partition,
)
from repro.markov.registry import get_backend
from repro.markov.solvers.jacobi import jacobi_split
from repro.obs.profile import profiled


def assert_same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    """Equal shape, storage order and bit patterns."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data.view(np.int64), b.data.view(np.int64))


def assert_plan_matches(plan, values, reference: sp.csr_matrix) -> None:
    assert_same_csr(plan.to_csr(values), reference)
    off, inv_diag = plan.split(values)
    ref_off, ref_inv = jacobi_split(reference)
    assert_same_csr(off, ref_off)
    np.testing.assert_array_equal(inv_diag.view(np.int64), ref_inv.view(np.int64))
    if plan.n_off:
        assert np.shares_memory(off.data, values)  # the split is a view


def walk_levels(P: sp.csr_matrix, partitions, weights_for) -> int:
    """Plan every level and compare it with ``lumped_tpm``; returns levels."""
    current, source, values = P, P, P.data
    for level, partition in enumerate(partitions):
        w = weights_for(level, current.shape[0])
        plan = GalerkinPlan(source, partition)
        coarse = plan.coarse(values, w)
        reference = lumped_tpm(current, partition, weights=w)
        assert_plan_matches(plan, coarse, reference)
        current, source, values = reference, plan, coarse
    return len(partitions)


def spread_weights(seed: int):
    rng = np.random.default_rng(seed)

    def weights_for(level, n):
        return rng.random(n) * 10.0 ** -rng.uniform(0.0, 30.0, n)

    return weights_for


def fresh_copies(strategy):
    """The same partitions, as a new Partition object on every call.

    Identity never repeats, so the solver can never plan: this drives the
    one-shot ``lumped_tpm`` path with exactly the same partitions.
    """
    def fresh(level, P):
        part = strategy(level, P)
        return None if part is None else Partition(part.block_of.copy())
    return fresh


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def default_model():
    return get_backend("assembled").build(repro.CDRSpec())


@pytest.fixture(scope="module")
def small_model():
    spec = repro.CDRSpec(n_phase_points=64, counter_length=4)
    return get_backend("assembled").build(spec)


CDR_KW = dict(nu_pre=8, nu_post=8, tol=1e-10)


class TestPlanEqualsOneShot:
    def test_every_level_of_the_default_cdr_chain(self, default_model):
        P = default_model.chain.P
        parts = default_model.phase_pairing_partitions()
        assert walk_levels(P, parts, spread_weights(0)) == len(parts) >= 4

    def test_uniform_weights(self, small_model):
        P = small_model.chain.P
        walk_levels(
            P, small_model.phase_pairing_partitions(), lambda level, n: np.ones(n)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        density=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_chains_under_pairing_hierarchy(self, n, density, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(n, rng, density=density, ensure_irreducible=True)
        # A shuffled pairing per level: blocks straddle rows and columns
        # in every order, so the unstable per-row sort really has work.
        parts, size = [], n
        while size > 1:
            block_of = np.empty(size, dtype=np.int64)
            block_of[rng.permutation(size)] = np.arange(size) // 2
            parts.append(Partition(block_of))
            size = parts[-1].n_blocks
        strategy = pairing_hierarchy(parts)
        partitions = [strategy(level, sp.eye(p.n_states)) for level, p in enumerate(parts)]
        walk_levels(chain.P, partitions, spread_weights(seed))

    def test_underflow_keeps_an_explicit_zero(self):
        # w * p underflows to exactly 0 for the only 0 -> 1 block entry:
        # lumped_tpm drops it, the plan keeps the slot holding a zero.
        P = sp.csr_matrix(np.array([
            [0.5, 0.5 - 1e-300, 1e-300, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.25, 0.25, 0.25, 0.25],
        ]))
        part = Partition([0, 0, 1, 1])
        w = np.array([1e-300, 1.0, 1.0, 1.0])
        plan = GalerkinPlan(P, part)
        values = plan.coarse(P.data, w)
        reference = lumped_tpm(P, part, weights=w)
        assert reference.nnz == 3
        assert np.count_nonzero(values == 0.0) == 1
        assert plan.n_values == 4
        np.testing.assert_array_equal(
            plan.to_csr(values).toarray(), reference.toarray()
        )
        assert_same_csr(plan.to_csr(values), reference)
        off, inv_diag = plan.split(values)
        ref_off, ref_inv = jacobi_split(reference)
        np.testing.assert_array_equal(off.toarray(), ref_off.toarray())
        np.testing.assert_array_equal(inv_diag, ref_inv)

    def test_plan_views_cannot_corrupt_the_plan(self, small_model):
        P = small_model.chain.P
        plan = GalerkinPlan(P, small_model.phase_pairing_partitions()[0])
        C = plan.to_csr(plan.coarse(P.data, np.ones(P.shape[0])))
        with pytest.raises(ValueError):
            C.indices[0] = 0

    def test_rejects_mismatched_partition(self, small_model):
        P = small_model.chain.P
        with pytest.raises(ValueError, match="partition size"):
            GalerkinPlan(P, Partition.pairs(P.shape[0] + 2))
        with pytest.raises(TypeError):
            GalerkinPlan(P.tocoo(), Partition.pairs(P.shape[0]))

    def test_lean_maps(self, default_model):
        P = default_model.chain.P
        plan = GalerkinPlan(P, default_model.phase_pairing_partitions()[0])
        coarse_nnz = plan.to_csr(plan.coarse(P.data, np.ones(P.shape[0]))).nnz
        # int32 maps: 8 B per input nonzero, 12 B per coarse nonzero
        # (off-diagonal indices, gather map, column indices) plus two
        # row-pointer arrays.
        rows = plan.n_blocks + 1
        assert plan.nbytes <= 8 * P.nnz + 12 * coarse_nnz + 8 * rows


class TestPlannedSolve:
    def test_bitwise_equal_to_one_shot(self, small_model):
        strategy = small_model.multigrid_strategy()
        opt = MultigridOptions(coarsest_size=16, **CDR_KW)
        planned = MultigridSolver(strategy=strategy, options=opt)
        with profiled(metrics=False) as session:
            a = planned.solve(small_model.chain.P)
        ops = session.snapshot()["operators"]
        # every level is compiled once, on the second cycle
        assert all(
            ops[f"multigrid.L{level}"]["ops"]["coarse_plan"]["calls"] == 1
            for level in range(3)
        )
        b = MultigridSolver(strategy=fresh_copies(strategy), options=opt).solve(
            small_model.chain.P
        )
        assert a.converged and a.iterations == b.iterations
        assert digest(a.distribution) == digest(b.distribution)
        assert planned._plans == {} and planned._seen == {}

    def test_w_cycle_bitwise_equal_to_one_shot(self, small_model):
        strategy = small_model.multigrid_strategy()
        opt = MultigridOptions(coarsest_size=16, cycle_type="W", **CDR_KW)
        a = MultigridSolver(strategy=strategy, options=opt).solve(small_model.chain.P)
        b = MultigridSolver(strategy=fresh_copies(strategy), options=opt).solve(
            small_model.chain.P
        )
        assert a.iterations == b.iterations
        assert digest(a.distribution) == digest(b.distribution)

    def test_value_dependent_strategy_never_meets_a_stale_plan(self):
        # Algebraic aggregation of the Alexander chain re-partitions the
        # coarse levels as the iterate moves (e.g. 48 vs 49 blocks).
        # Memoizing by content hands the solver the *same* object whenever
        # a partition repeats, so plans are compiled, dropped and
        # recompiled as partitions and their parent levels change.
        from repro.scenarios import get_scenario

        scenario = get_scenario("alexander-offset")
        P = scenario.build(scenario.params_for("fast")).chain.P
        memo, sizes = {}, {}

        def memoized(level, P_l):
            part = strength_of_connection_partition(P_l)
            sizes.setdefault(level, set()).add(part.n_blocks)
            return memo.setdefault((level, part.block_of.tobytes()), part)

        opt = MultigridOptions(coarsest_size=8, nu_pre=2, nu_post=2, tol=1e-12)
        with profiled(metrics=False) as session:
            a = MultigridSolver(strategy=memoized, options=opt).solve(P)
        b = MultigridSolver(strategy=fresh_copies(memoized), options=opt).solve(P)
        ops = session.snapshot()["operators"]
        assert any(len(s) > 1 for s in sizes.values())
        assert ops["multigrid.L1"]["ops"]["coarse_plan"]["calls"] > 1
        assert a.iterations == b.iterations
        assert digest(a.distribution) == digest(b.distribution)

    def test_replanned_parent_invalidates_the_levels_below(self):
        # Level 1 alternates between two pairings of equal size every two
        # cycles while level 2 keeps one Partition object: the level-2 plan
        # must be recompiled against each new level-1 plan, never reused.
        rng = np.random.default_rng(7)
        chain = random_chain(64, rng, density=0.2, ensure_irreducible=True)
        level0 = Partition.pairs(64)
        level1 = [Partition.pairs(32), Partition(np.argsort(rng.permutation(32)) // 2)]
        level2 = Partition.pairs(16)
        visits = []

        def alternating(level, P):
            if level == 0:
                visits.append(level)
                return level0
            if level == 1:
                return level1[(len(visits) - 1) // 2 % 2]
            return level2 if level == 2 else None

        opt = MultigridOptions(coarsest_size=8, tol=1e-13)
        with profiled(metrics=False) as session:
            a = MultigridSolver(strategy=alternating, options=opt).solve(chain.P)
        visits.clear()
        b = MultigridSolver(strategy=fresh_copies(alternating), options=opt).solve(
            chain.P
        )
        ops = session.snapshot()["operators"]
        assert a.iterations >= 6
        assert ops["multigrid.L2"]["ops"]["coarse_plan"]["calls"] >= 2
        assert a.iterations == b.iterations
        assert digest(a.distribution) == digest(b.distribution)

    def test_matrix_free_fine_level_is_not_planned(self):
        spec = repro.CDRSpec(n_phase_points=64, counter_length=4)
        model = get_backend("matrix-free").build(spec)
        with profiled(metrics=False) as session:
            res = stationary_distribution(
                model.chain, method="multigrid",
                strategy=model.multigrid_strategy(), coarsest_size=16, **CDR_KW
            )
        assert res.converged
        ops = session.snapshot()["operators"]
        assert not any("coarse_plan" in ops[role]["ops"] for role in ops)


class TestProfiling:
    def test_profiled_planned_solve_is_bitwise_unprofiled(self, small_model):
        kw = dict(method="multigrid", strategy=small_model.multigrid_strategy(),
                  coarsest_size=16, **CDR_KW)
        ref = stationary_distribution(small_model.chain, **kw)
        with profiled(metrics=False) as session:
            prof = stationary_distribution(small_model.chain, **kw)
        assert prof.iterations == ref.iterations
        assert digest(prof.distribution) == digest(ref.distribution)
        l0 = session.snapshot()["operators"]["multigrid.L0"]["ops"]
        assert l0["coarse_plan"]["calls"] == 1
        assert l0["coarse_build"]["calls"] == ref.iterations

    def test_assembled_fine_level_attribution(self, small_model):
        # The multigrid smooths an assembled fine level on the unwrapped
        # CSR, so the solver's own role sees only the residual check after
        # each cycle; the fine level's work shows up as its stages.
        kw = dict(method="multigrid", strategy=small_model.multigrid_strategy(),
                  coarsest_size=16, **CDR_KW)
        with profiled(metrics=False) as session:
            res = stationary_distribution(small_model.chain, **kw)
        ops = session.snapshot()["operators"]
        solver_ops = ops["solver.multigrid"]["ops"]
        assert set(solver_ops) == {"rmatvec"}
        assert solver_ops["rmatvec"]["calls"] == res.iterations
        assert solver_ops["rmatvec"]["bytes"] > 0
        l0 = ops["multigrid.L0"]["ops"]
        for stage in ("smooth.pre", "smooth.post", "coarse_build"):
            assert l0[stage]["calls"] == res.iterations
        assert l0["coarse_plan"]["calls"] == 1

    @pytest.mark.parametrize(
        "coarsest_size, fallback", [(32, "coarsest_solve"), (16, "smooth.post")]
    )
    def test_declined_level_times_its_fallback(self, small_model, coarsest_size, fallback):
        # The phase pairing stops at 8 phase points (168 states here), so
        # that level declines to coarsen: it is solved directly when small
        # enough (<= 8 x coarsest_size), else smoothed.  Either fallback
        # must be attributed to the level.
        kw = dict(method="multigrid", strategy=small_model.multigrid_strategy(),
                  coarsest_size=coarsest_size, **CDR_KW)
        with profiled(metrics=False) as session:
            res = stationary_distribution(small_model.chain, **kw)
        level = len(small_model.phase_pairing_partitions())
        ops = session.snapshot()["operators"][f"multigrid.L{level}"]["ops"]
        assert ops[fallback]["calls"] == res.iterations


@pytest.mark.slow
def test_m1024_assembled_planned_equals_one_shot():
    """46,080 states: identical sha256 and cycle count with and without plans."""
    model = get_backend("assembled").build(repro.CDRSpec(n_phase_points=1024))
    strategy = model.multigrid_strategy()
    kw = dict(method="multigrid", **CDR_KW)
    a = stationary_distribution(model.chain, strategy=strategy, **kw)
    b = stationary_distribution(model.chain, strategy=fresh_copies(strategy), **kw)
    assert a.converged and a.iterations == b.iterations
    assert digest(a.distribution) == digest(b.distribution)
