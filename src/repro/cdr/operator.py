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

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.loop_filter import counter_state_count
from repro.cdr.model import (
    _roll_terms,
    _sign_masses,
    _slip_matrix,
    phase_pairing_partitions,
)
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.kernels import RollPlan, as_apply_block, as_apply_vector, get_kernel
from repro.markov.lumping import Partition, lumped_tpm, prepare_block_weights
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
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

    Parameters are identical to :func:`repro.cdr.model.build_cdr_chain`,
    and both compile the same terms (:func:`repro.cdr.model._roll_terms`)
    into the same :class:`RollPlan`: the assembled chain's matrix is this
    operator's ``to_csr()`` as validated by ``MarkovChain`` (a test
    invariant).
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
        self._masses = _sign_masses(grid, nw)
        with span("cdr.compile_operator") as op_span:
            self._terms = _roll_terms(
                grid, self._masses, self.nr_steps, counter_length,
                phase_step_units, data_source,
            )
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

        The row sums of the assembled model's ``slip_matrix``, computed
        from the same raw terms (:func:`~repro.cdr.model._slip_matrix`),
        so the two are equal bit for bit.  This is all
        :func:`~repro.markov.passage.stationary_event_rate` needs, so slip
        rate and MTBF work without the model's slip matrix being kept.
        Computed once and cached readonly (the slip measures ask for it
        twice per analysis).
        """
        if self._slip is None:
            E = _slip_matrix(self._terms, self.D * self.C, self.M)
            slip = np.asarray(E.sum(axis=1)).ravel()
            slip.flags.writeable = False
            self._slip = slip
        return self._slip

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

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal over the phase axis (matches the assembled model's)."""
        distribution = np.asarray(distribution, dtype=float)
        return distribution.reshape(-1, self.M).sum(axis=0)

    def __repr__(self) -> str:
        return (
            f"CDRTransitionOperator(n={self.n}, D={self.D}, C={self.C}, "
            f"M={self.M}, terms={len(self._terms)})"
        )
