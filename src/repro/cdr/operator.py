"""Matrix-free application of the CDR transition operator.

Explicit sparse storage is the paper's admitted bottleneck: "For now, we
use explicit sparse storage ... which allows solving models of practical
clock recovery circuits with [~1e5] states.  For solving more complex
models, we are looking into using hierarchical generalized
Kronecker-algebra ... representations."

:class:`CDRTransitionOperator` is that direction realized for this model
class: it applies ``x -> P^T x`` (and ``v -> P v``) directly from the
model's *structure* -- the small (data-state, decision, counter, drift)
alphabet and circular phase shifts -- without ever materializing the
matrix.  Memory is ``O(n)`` for a handful of work vectors instead of
``O(nnz)``; per-application cost is the same ``O(nnz)`` arithmetic, done
as vectorized block-roll operations.

Combined with the matrix-free power iteration this pushes the feasible
model size to tens of millions of states on a laptop (the assembled
matrix for 1e7 states at ~9 nnz/row would already need multiple GB).

Its phase-pairing multigrid levels are the same kind of operator
(:class:`RollOperator`) on half the phase points, so the whole hierarchy
stays unassembled down to its small coarsest level.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.loop_filter import counter_state_count
from repro.cdr.model import _sign_masses
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.kernels import RollPlan, as_apply_block, as_apply_vector, get_kernel
from repro.markov.lumping import Partition, lumped_tpm, prepare_block_weights
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
from repro.markov.solvers.result import StationaryResult
from repro.noise.distributions import DiscreteDistribution
from repro.obs import get_registry, span

__all__ = ["RollOperator", "CDRTransitionOperator"]


class RollOperator:
    """A block-roll transition operator, applied from its :class:`RollPlan`.

    The fine :class:`CDRTransitionOperator` and every level of its
    phase-pairing multigrid hierarchy are roll operators: they share the
    kernel applies, ``diagonal()``, ``to_csr()`` and ``restrict()``.  A
    coarse level is what :meth:`restrict` returns for the operator's own
    phase pairing -- the paper's lumped problem, which "resembles the
    original problem but with coarser phase error discretization", and
    here is exactly the same kind of operator on ``M / 2`` phases.
    """

    def __init__(self, plan: RollPlan, kernel=None) -> None:
        self._plan = plan
        #: Global state count, fixed at construction (every apply reads it).
        self.n = plan.n
        self.shape: Tuple[int, int] = (self.n, self.n)
        self._kernel = get_kernel() if kernel is None else kernel
        # The plan's fixed arguments are bound once; an apply hands the
        # kernel only its input and output buffers.
        self._scatter = self._kernel.bind_roll(plan.q, plan.scatter)
        self._gather = self._kernel.bind_roll(plan.q, plan.gather)
        self._diag: Optional[np.ndarray] = None

    @property
    def nnz(self) -> int:
        """Entries of the matrix this operator applies (not assembled)."""
        return self._plan.nnz

    @property
    def kernel_tier(self) -> str:
        """Name of the kernel tier this operator applies through."""
        return self._kernel.name

    # ------------------------------------------------------------------ #
    # operator applications
    # ------------------------------------------------------------------ #

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``P^T x``: propagate a (row) distribution one symbol forward.

        Mass in source block ``b`` at phase ``m`` lands in destination
        block ``b'`` at phase ``(m + shift) mod M`` -- a circular roll,
        executed as contiguous-slice segments by the active kernel tier
        (bit-identical to applying ``to_csr().T``).  A C-contiguous
        float64 ``x`` is consumed without copying.
        """
        x = as_apply_vector(x, self.n)
        out = np.zeros(self.n)
        self._scatter(x, out)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``P v`` (adjoint of :meth:`rmatvec`)."""
        v = as_apply_vector(v, self.n)
        out = np.zeros(self.n)
        self._gather(v, out)
        return out

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """``P^T X`` for an ``(n, k)`` block of vectors in one pass.

        The blocked kernels stream the weight table once per segment for
        all ``k`` columns, amortizing the weight/index traffic that a
        column-at-a-time loop would re-read ``k`` times; column ``j`` of
        the result is bit-identical to ``rmatvec(X[:, j])``.
        """
        X = as_apply_block(X, self.n)
        out = np.zeros_like(X)
        self._scatter(X, out)
        return out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """``P V`` for an ``(n, k)`` block (adjoint of :meth:`rmatmat`)."""
        V = as_apply_block(V, self.n)
        out = np.zeros_like(V)
        self._gather(V, out)
        return out

    def as_linear_operator(self):
        """scipy ``LinearOperator`` view (for Krylov methods)."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            self.shape, matvec=self.matvec, rmatvec=self.rmatvec,
            matmat=self.matmat, rmatmat=self.rmatmat, dtype=float,
        )

    # ------------------------------------------------------------------ #
    # structural queries (TransitionOperator protocol)
    # ------------------------------------------------------------------ #

    def diagonal(self) -> np.ndarray:
        """``diag(P)`` from the plan (for Jacobi splittings).

        Computed once and cached readonly: Jacobi/multigrid smoothers call
        this every sweep.  Exactly ``to_csr().diagonal()``.
        """
        if self._diag is None:
            diag = self._plan.diagonal()
            diag.flags.writeable = False
            self._diag = diag
        return self._diag

    def row_sums(self) -> np.ndarray:
        """``P 1``, computed by one ``matvec``."""
        return self.matvec(np.ones(self.n))

    def stochasticity_defect(self) -> float:
        """``max |P 1 - 1|`` computed by an actual matvec (guard check)."""
        return float(np.abs(self.matvec(np.ones(self.n)) - 1.0).max())

    def to_csr(self) -> sp.csr_matrix:
        """Materialize the explicit CSR matrix.

        Costs the O(nnz) memory the operator otherwise avoids.  Built from
        the coalesced plan so the matrix and the kernels agree bit for bit
        (same merged values, same per-row column order).
        """
        return self._plan.to_csr()

    def restrict(self, partition: Partition, weights: Optional[np.ndarray] = None):
        """Weighted Galerkin coarse operator, built without assembling ``P``.

        For the operator's own phase pairing (``block_of[b*M + m] ==
        b*(M/2) + m//2``, ``M`` even) the coarse operator is again a
        :class:`RollOperator`, on ``M / 2`` phases: its weight table is
        the fine weight rows scaled by ``w / mass`` and summed over phase
        pairs (:meth:`~repro.kernels.plan.PhasePairing.coarse`), and its
        term map and segment tables are built once per level.  Any
        other partition goes through ``lumped_tpm(self.to_csr(), ...)``
        and returns CSR.  Either result equals that ``lumped_tpm`` up to
        summation order; callers needing CSR use
        :func:`~repro.markov.linop.ensure_csr`.
        """
        if partition.n_states != self.n:
            raise ValueError("partition size does not match operator size")
        if not self._pairs_phases(partition):
            return lumped_tpm(self.to_csr(), partition, weights=weights)
        w, block_mass = prepare_block_weights(partition, weights)
        w *= np.repeat(1.0 / block_mass, 2)
        plan = self._plan
        return RollOperator(plan.phase_pairing().coarse(plan, w), self._kernel)

    def _pairs_phases(self, partition: Partition) -> bool:
        # For even M, b*(M/2) + m//2 with i = b*M + m is just i // 2.
        return (
            self._plan.M % 2 == 0
            and 2 * partition.n_blocks == self.n
            and np.array_equal(partition.block_of, np.arange(self.n) // 2)
        )

    def __repr__(self) -> str:
        plan = self._plan
        return (
            f"RollOperator(n={self.n}, blocks={plan.n_blocks}, M={plan.M}, "
            f"terms={plan.n_terms})"
        )


class CDRTransitionOperator(RollOperator):
    """The CDR chain's transition operator, applied without assembly.

    Parameters are identical to :func:`repro.cdr.model.build_cdr_chain`;
    the operator is mathematically the same matrix (a test invariant).
    """

    def __init__(
        self,
        grid: PhaseGrid,
        nw: DiscreteDistribution,
        nr: DiscreteDistribution,
        counter_length: int,
        phase_step_units: int,
        data_source: Optional[MarkovSource] = None,
        transition_density: float = 0.5,
        max_run_length: int = 3,
    ) -> None:
        if counter_length < 1:
            raise ValueError("counter_length must be at least 1")
        if phase_step_units < 1:
            raise ValueError("phase_step_units must be at least 1")
        if data_source is None:
            data_source = transition_run_length_source(
                "data", transition_density, max_run_length
            )
        self.grid = grid
        self.nw = nw
        self.data_source = data_source
        self.counter_length = int(counter_length)
        self.phase_step_units = int(phase_step_units)
        self.nr_steps = grid.quantize_to_steps(nr)
        if self.phase_step_units + int(np.max(np.abs(self.nr_steps.values))) >= grid.n_points:
            raise ValueError("phase moves exceed the grid size")
        self._masses = _sign_masses(grid, nw)
        with span("cdr.compile_operator") as op_span:
            self._terms = self._compile_terms()
            super().__init__(RollPlan(self._terms, self.D * self.C, self.M))
            op_span.set_attributes(
                n_states=self.n,
                n_terms=len(self._terms),
                n_roll_terms=self._plan.n_terms,
                kernel_tier=self._kernel.name,
            )
        self._ones: Optional[np.ndarray] = None
        self._slip: Optional[np.ndarray] = None
        get_registry().counter(
            "repro_operator_compiles_total",
            "Matrix-free CDR operators compiled",
        ).inc()

    # ------------------------------------------------------------------ #

    @property
    def M(self) -> int:
        return self.grid.n_points

    @property
    def C(self) -> int:
        return counter_state_count(self.counter_length)

    @property
    def D(self) -> int:
        return self.data_source.n_states

    def _compile_terms(self) -> List[Tuple[int, int, int, int, Optional[np.ndarray], float]]:
        """Flatten the transition structure into per-block roll terms.

        Each term is ``(src_block, dst_block, shift, q_vec, scalar)``:
        probability-weighted mass moves from phase-vector block
        ``(d, c)`` to block ``(d', c')`` with a circular shift, where
        ``q_vec`` is the per-phase decision mass (or None for 1) and
        ``scalar`` collects the data/drift probabilities.  Blocks are
        indexed ``d * C + c``.
        """
        N = self.counter_length
        C = self.C
        g = self.phase_step_units
        terms = []
        ones = None
        for d in range(self.D):
            t = self.data_source.symbol(d)
            branches = self.data_source.branches(d)
            decisions = (
                [(1, self._masses[1]), (0, self._masses[0]), (-1, self._masses[-1])]
                if t == 1
                else [(0, ones)]
            )
            for c in range(C):
                c_val = c - (N - 1)
                for o, q_vec in decisions:
                    v = c_val + o
                    if v >= N:
                        direction, c_next_val = 1, 0
                    elif v <= -N:
                        direction, c_next_val = -1, 0
                    else:
                        direction, c_next_val = 0, v
                    c_next = c_next_val + (N - 1)
                    for r_steps, q_r in zip(
                        self.nr_steps.values, self.nr_steps.probs
                    ):
                        shift = -g * direction + int(r_steps)
                        for d_next, p_d in branches:
                            terms.append(
                                (
                                    d * C + c,
                                    d_next * C + c_next,
                                    shift,
                                    q_vec,
                                    float(q_r * p_d),
                                )
                            )
        return terms

    def row_sums(self) -> np.ndarray:
        """``P 1`` -- all ones for this stochastic-by-construction chain.

        The chain is row-stochastic by construction (decision masses and
        branch/drift probabilities each sum to one), so this returns a
        cached readonly ones vector instead of running a full
        ``matvec(ones)`` on every call -- solver preambles and residual
        checks call it per solve, which made it a measurable hot-path tax.
        Use :meth:`stochasticity_defect` to *verify* ``P 1 = 1``
        numerically (the test suite does).
        """
        if self._ones is None:
            ones = np.ones(self.n)
            ones.flags.writeable = False
            self._ones = ones
        return self._ones

    def structure_token(self):
        """Hashable structure identity (noise probabilities excluded).

        Two operators with equal tokens have identical state layouts and
        branch/shift structure, so a coarsening hierarchy or warm-start
        vector built for one is valid for the other -- this is what lets
        sweep points differing only in ``nw_std``/``nr`` rates share one
        cached hierarchy (see :func:`repro.markov.context.structural_digest`).
        The decision masses ``q_vec`` and the drift/data ``scalar``
        weights are *values*, not structure, and are deliberately left
        out; what remains is the (src, dst, shift) roll topology.
        """
        return (
            "cdr",
            self.D,
            self.C,
            self.M,
            self.counter_length,
            self.phase_step_units,
            tuple(
                (src, dst, shift % self.M, q_vec is None)
                for src, dst, shift, q_vec, _ in self._terms
            ),
        )

    def slip_row_sums(self) -> np.ndarray:
        """Per-state probability of a phase-wrap (cycle-slip) transition.

        Matches ``slip_matrix.sum(axis=1)`` of the assembled model: a term
        with circular shift ``s > 0`` wraps exactly for source phases
        ``m >= M - s`` and ``s < 0`` for ``m < -s`` (same convention as
        ``PhaseGrid.shift_indices``).  This is all
        :func:`~repro.markov.passage.stationary_event_rate` needs, so slip
        rate and MTBF work without the slip matrix ever existing.  Computed
        once and cached readonly (the slip measures ask for it twice per
        analysis).
        """
        if self._slip is None:
            M = self.M
            out = np.zeros((self.D * self.C, M))
            m_idx = np.arange(M)
            for src, dst, shift, q_vec, scalar in self._terms:
                if shift == 0:
                    continue
                wrapped = (m_idx >= M - shift) if shift > 0 else (m_idx < -shift)
                if not np.any(wrapped):
                    continue
                if q_vec is None:
                    out[src, wrapped] += scalar
                else:
                    out[src, wrapped] += scalar * q_vec[wrapped]
            out = out.ravel()
            out.flags.writeable = False
            self._slip = out
        return self._slip

    def to_kronecker(self):
        """Kronecker/SAN descriptor of the same matrix over ``[D, C, M]``.

        One descriptor term per (data state, decision, drift atom): a
        ``D x D`` data-branch factor, a single-entry counter factor and a
        shifted-diagonal phase factor, with the drift probability as the
        coefficient.  The sum of terms reproduces the chain exactly (a
        test invariant), which is what makes the ``kronecker`` backend a
        drop-in for the matrix-free one.
        """
        from repro.fsm.kronecker import KroneckerDescriptor

        N = self.counter_length
        C, D, M = self.C, self.D, self.M
        g = self.phase_step_units
        desc = KroneckerDescriptor([D, C, M])
        m_idx = np.arange(M)
        for d in range(D):
            t = self.data_source.symbol(d)
            branches = self.data_source.branches(d)
            d_next_idx = np.array([b[0] for b in branches])
            d_probs = np.array([b[1] for b in branches], dtype=float)
            data_factor = sp.csr_matrix(
                (d_probs, (np.full(len(branches), d), d_next_idx)),
                shape=(D, D),
            )
            decisions = (
                [(1, self._masses[1]), (0, self._masses[0]), (-1, self._masses[-1])]
                if t == 1
                else [(0, None)]
            )
            for c in range(C):
                c_val = c - (N - 1)
                for o, q_vec in decisions:
                    v = c_val + o
                    if v >= N:
                        direction, c_next_val = 1, 0
                    elif v <= -N:
                        direction, c_next_val = -1, 0
                    else:
                        direction, c_next_val = 0, v
                    c_next = c_next_val + (N - 1)
                    counter_factor = sp.csr_matrix(
                        ([1.0], ([c], [c_next])), shape=(C, C)
                    )
                    for r_steps, q_r in zip(
                        self.nr_steps.values, self.nr_steps.probs
                    ):
                        shift = -g * direction + int(r_steps)
                        phase_vals = (
                            np.full(M, 1.0) if q_vec is None else q_vec
                        )
                        phase_factor = sp.csr_matrix(
                            (phase_vals, (m_idx, (m_idx + shift) % M)),
                            shape=(M, M),
                        )
                        desc.add_term(
                            [data_factor, counter_factor, phase_factor],
                            coefficient=float(q_r),
                        )
        return desc

    # ------------------------------------------------------------------ #
    # multigrid coarsening (the paper's phase-pairing strategy)
    # ------------------------------------------------------------------ #

    def phase_pairing_partitions(
        self, coarsest_phase_points: int = 8
    ) -> List[Partition]:
        """The paper's coarsening: lump consecutive phase grid values.

        Identical to
        :meth:`repro.cdr.model.CDRChainModel.phase_pairing_partitions`, so
        matrix-free multigrid coarsens exactly like the assembled solve.
        """
        from repro.cdr.model import phase_pairing_partitions

        return phase_pairing_partitions(
            self.D * self.C, self.M, coarsest_phase_points
        )

    def multigrid_strategy(
        self, coarsest_phase_points: int = 8
    ) -> CoarseningStrategy:
        """A ready-to-use coarsening strategy for the multigrid solver."""
        return pairing_hierarchy(
            self.phase_pairing_partitions(coarsest_phase_points)
        )

    # ------------------------------------------------------------------ #
    # matrix-free stationary solve (deprecated shim)
    # ------------------------------------------------------------------ #

    def stationary_power(
        self,
        tol: float = 1e-10,
        max_iter: int = 100_000,
        x0: Optional[np.ndarray] = None,
        damping: float = 1.0,
    ) -> StationaryResult:
        """Deprecated: use ``stationary_distribution(op, method="power")``.

        The private power loop is gone; this shim delegates to the solver
        registry so matrix-free solves emit the same
        ``repro.solver-trace/1`` telemetry as assembled ones.  The result's
        ``method`` is now ``"power"`` (previously ``"matrix-free-power"``).
        """
        warnings.warn(
            "CDRTransitionOperator.stationary_power is deprecated; use "
            "repro.markov.stationary_distribution(operator, method='power') "
            "(same matrix-free solve, uniform solver telemetry)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.markov.stationary import stationary_distribution

        return stationary_distribution(
            self,
            method="power",
            tol=tol,
            max_iter=max_iter,
            x0=x0,
            damping=damping,
        )

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal over the phase axis (matches the assembled model's)."""
        distribution = np.asarray(distribution, dtype=float)
        return distribution.reshape(-1, self.M).sum(axis=0)

    def __repr__(self) -> str:
        return (
            f"CDRTransitionOperator(n={self.n}, D={self.D}, C={self.C}, "
            f"M={self.M}, terms={len(self._terms)})"
        )
