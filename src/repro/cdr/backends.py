"""Pluggable TPM backends: how a :class:`~repro.core.spec.CDRSpec` becomes
a solvable model.

The paper's pipeline always *assembled* the transition matrix ("For now,
we use explicit sparse storage ...").  This module registers three ways of
realizing the same operator, selected by the spec's ``backend`` field (or
the analyzer/CLI override):

``assembled``
    The vectorized sparse builder (:func:`repro.cdr.model.build_cdr_chain`);
    memory ``O(nnz)``, every solver available.
``matrix-free``
    A compiled :class:`~repro.cdr.operator.CDRTransitionOperator` applied
    structurally; memory ``O(n)``, iterative solvers only (``direct`` /
    ``arnoldi`` raise :class:`~repro.markov.linop.OperatorCapabilityError`
    unless the operator is asked to materialize).
``kronecker``
    The stochastic-automata-network descriptor
    (:meth:`~repro.cdr.operator.CDRTransitionOperator.to_kronecker`):
    matvecs run factor-by-factor via the shuffle algorithm; structural
    queries (diagonal, row sums, Galerkin restriction, slip flux) delegate
    to the compiled operator, which shares the exact term structure.

All three produce objects the analyzer treats uniformly: the assembled
backend returns the classic :class:`~repro.cdr.model.CDRChainModel`; the
matrix-free ones return an :class:`OperatorCDRModel` facade with the same
measure-facing surface (``phase_marginal``, ``slip_row_sums``,
``multigrid_strategy``, grid/noise metadata) but whose ``chain`` is a
:class:`~repro.markov.linop.TransitionOperator`, never a matrix.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.operator import CDRTransitionOperator
from repro.markov.lumping import Partition
from repro.markov.multigrid import CoarseningStrategy
from repro.markov.registry import register_backend
from repro.obs import span

__all__ = ["OperatorCDRModel", "KroneckerCDROperator"]


class KroneckerCDROperator:
    """Kronecker-descriptor view of the CDR chain, protocol-complete.

    Matrix applications go through the
    :class:`~repro.fsm.kronecker.KroneckerDescriptor` (shuffle algorithm);
    structural queries that the descriptor cannot answer cheaply
    (``restrict``, ``slip_row_sums``, the coarsening hierarchy) fall back
    to the structural operator the descriptor was compiled from -- both
    represent the identical matrix (a test invariant).
    """

    def __init__(self, structural: CDRTransitionOperator) -> None:
        self._structural = structural
        self.descriptor = structural.to_kronecker()
        self._diag: Optional[np.ndarray] = None
        self._row_sums: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return self.descriptor.shape

    @property
    def n(self) -> int:
        return self.descriptor.n

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.descriptor.matvec(v)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self.descriptor.rmatvec(x)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """Blocked ``P V``: one shuffle pass per term for all columns."""
        return self.descriptor.matmat(V)

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """Blocked ``P^T X`` through the descriptor's cached transposes."""
        return self.descriptor.rmatmat(X)

    def diagonal(self) -> np.ndarray:
        """``diag(P)``, computed once per backend instance (readonly).

        Smoothers call this every sweep; the descriptor recomputes the
        factor-diagonal Kronecker products per call, so cache here.
        """
        if self._diag is None:
            diag = self.descriptor.diagonal()
            diag.flags.writeable = False
            self._diag = diag
        return self._diag

    def row_sums(self) -> np.ndarray:
        """``P 1``, computed once per backend instance (readonly)."""
        if self._row_sums is None:
            rows = self.descriptor.row_sums()
            rows.flags.writeable = False
            self._row_sums = rows
        return self._row_sums

    def to_csr(self) -> sp.csr_matrix:
        # The descriptor's materialization keeps the Kronecker size guard
        # (OperatorCapabilityError above 1e5 states).
        return self.descriptor.to_csr()

    def restrict(self, partition: Partition, weights: Optional[np.ndarray] = None):
        return self._structural.restrict(partition, weights)

    def slip_row_sums(self) -> np.ndarray:
        return self._structural.slip_row_sums()

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        return self._structural.phase_marginal(distribution)

    def phase_pairing_partitions(
        self, coarsest_phase_points: int = 8
    ) -> List[Partition]:
        return self._structural.phase_pairing_partitions(coarsest_phase_points)

    def multigrid_strategy(
        self, coarsest_phase_points: int = 8
    ) -> CoarseningStrategy:
        return self._structural.multigrid_strategy(coarsest_phase_points)

    def __repr__(self) -> str:
        return (
            f"KroneckerCDROperator(n={self.n}, "
            f"terms={self.descriptor.n_terms})"
        )


class OperatorCDRModel:
    """Analyzer-facing facade over a matrix-free CDR operator.

    Mirrors the measure-facing surface of
    :class:`~repro.cdr.model.CDRChainModel` -- grid/noise metadata,
    ``phase_marginal``, slip flux, the multigrid coarsening -- but its
    ``chain`` attribute is the transition *operator*: anything downstream
    that needs the explicit matrix must go through the operator's
    ``to_csr`` capability (and pays the memory the backend exists to
    avoid).  ``slip_matrix`` is always ``None``; slip measures use
    :meth:`slip_row_sums`.
    """

    #: Matrix-free backends never build the sparse slip-flux matrix.
    slip_matrix = None

    def __init__(
        self,
        operator,
        *,
        backend: str,
        form_time: float,
        grid,
        nw,
        nr_steps,
        data_source,
        counter_length: int,
        phase_step_units: int,
    ) -> None:
        self.chain = operator
        self.operator = operator
        self.backend = backend
        self.form_time = float(form_time)
        self.grid = grid
        self.nw = nw
        self.nr_steps = nr_steps
        self.data_source = data_source
        self.counter_length = int(counter_length)
        self.phase_step_units = int(phase_step_units)

    # ------------------------------------------------------------------ #
    # layout / marginals (what repro.core.measures touches)
    # ------------------------------------------------------------------ #

    @property
    def n_states(self) -> int:
        return self.operator.shape[0]

    @property
    def n_phase_points(self) -> int:
        return self.grid.n_points

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        distribution = np.asarray(distribution, dtype=float)
        if distribution.shape != (self.n_states,):
            raise ValueError("distribution has wrong size")
        return self.operator.phase_marginal(distribution)

    def phase_values_per_state(self) -> np.ndarray:
        blocks = self.n_states // self.grid.n_points
        return np.tile(self.grid.values, blocks)

    def slip_row_sums(self) -> np.ndarray:
        """Per-state cycle-slip flux (replaces ``slip_matrix.sum(axis=1)``)."""
        return self.operator.slip_row_sums()

    # ------------------------------------------------------------------ #
    # multigrid support
    # ------------------------------------------------------------------ #

    def phase_pairing_partitions(
        self, coarsest_phase_points: int = 8
    ) -> List[Partition]:
        return self.operator.phase_pairing_partitions(coarsest_phase_points)

    def multigrid_strategy(
        self, coarsest_phase_points: int = 8
    ) -> CoarseningStrategy:
        return self.operator.multigrid_strategy(coarsest_phase_points)

    def __repr__(self) -> str:
        return (
            f"OperatorCDRModel(backend={self.backend!r}, "
            f"states={self.n_states})"
        )


# ---------------------------------------------------------------------- #
# registered builders (spec -> model)
# ---------------------------------------------------------------------- #

def _structural_operator(spec) -> CDRTransitionOperator:
    return CDRTransitionOperator(
        grid=spec.grid,
        nw=spec.nw_distribution(),
        nr=spec.nr_distribution(),
        counter_length=spec.counter_length,
        phase_step_units=spec.phase_step_units,
        data_source=spec.data_source(),
    )


@register_backend(
    "assembled",
    description="explicit sparse TPM (vectorized builder); every solver",
)
def _build_assembled(spec):
    return spec.build_model()


@register_backend(
    "matrix-free",
    description="structural operator, O(n) memory; iterative solvers only",
)
def _build_matrix_free(spec) -> OperatorCDRModel:
    start = time.perf_counter()
    with span("cdr.build_tpm", backend="matrix-free") as build_span:
        op = _structural_operator(spec)
        build_span.set_attributes(
            n_states=op.n, n_terms=len(op._terms), kernel_tier=op.kernel_tier
        )
    return OperatorCDRModel(
        op,
        backend="matrix-free",
        form_time=time.perf_counter() - start,
        grid=op.grid,
        nw=op.nw,
        nr_steps=op.nr_steps,
        data_source=op.data_source,
        counter_length=op.counter_length,
        phase_step_units=op.phase_step_units,
    )


@register_backend(
    "kronecker",
    description="SAN/Kronecker descriptor matvecs; iterative solvers only",
)
def _build_kronecker(spec) -> OperatorCDRModel:
    start = time.perf_counter()
    with span("cdr.build_tpm", backend="kronecker") as build_span:
        structural = _structural_operator(spec)
        op = KroneckerCDROperator(structural)
        build_span.set_attributes(
            n_states=op.n, n_terms=op.descriptor.n_terms
        )
    return OperatorCDRModel(
        op,
        backend="kronecker",
        form_time=time.perf_counter() - start,
        grid=structural.grid,
        nw=structural.nw,
        nr_steps=structural.nr_steps,
        data_source=structural.data_source,
        counter_length=structural.counter_length,
        phase_step_units=structural.phase_step_units,
    )
