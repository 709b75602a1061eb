"""Construction of the CDR Markov chain.

This builds the paper's "very large but highly structured" transition
probability matrix for the digital phase-selection loop directly on the
product state space

    (data-source hidden state d)  x  (counter state c)  x  (phase index m)

with global index ``((d * C) + c) * M + m``.  One function enumerates the
structure (:func:`_roll_terms`): it loops only over the small discrete
alphabet (data states, phase-detector decisions, counter states, ``n_r``
atoms) and emits block-roll terms -- a source and destination ``(d, c)``
block, a circular phase shift and per-phase weights.  A
:class:`~repro.kernels.plan.RollPlan` compiles them, and the assembled
matrix is the plan's ``to_csr()`` -- the matrix the matrix-free
:class:`~repro.cdr.operator.CDRTransitionOperator` applies -- validated
by :class:`MarkovChain`.  The modulated chain (:mod:`repro.cdr.modulated`)
is built the same way.

Key exactness property: the eye-opening noise ``n_w`` influences the chain
*only* through the phase detector's three-valued decision, so its atoms are
pre-aggregated into three per-phase-index probability masses
``P(sgn(phi_m + n_w) = -1 / 0 / +1)``.  This keeps the assembled matrix
mathematically identical to enumerating every ``n_w`` atom while removing a
factor of ``n_atoms(n_w)`` from both time and nonzeros.

A parallel sparse *slip-flux matrix* records the probability of every
transition that wraps the phase error across the ``+-1/2`` UI boundary --
the cycle-slip events whose mean spacing the paper computes "between
certain sets of MC states".
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.loop_filter import counter_state_count
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.kernels.plan import RollPlan
from repro.markov.chain import MarkovChain
from repro.markov.lumping import Partition
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
from repro.noise.distributions import DiscreteDistribution
from repro.obs import get_registry, span

__all__ = ["CDRChainModel", "build_cdr_chain", "phase_pairing_partitions"]


def phase_pairing_partitions(
    n_blocks: int, n_phase_points: int, coarsest_phase_points: int = 8
) -> List[Partition]:
    """The paper's coarsening hierarchy for a ``(d, c) x phase`` state space.

    Level ``l`` maps a state space with ``M_l`` phase points onto
    ``ceil(M_l / 2)`` points by lumping consecutive phase grid values,
    preserving the ``n_blocks = D * C`` non-phase coordinates.  Shared by
    the assembled :class:`CDRChainModel` and the matrix-free
    :class:`~repro.cdr.operator.CDRTransitionOperator` so both backends
    coarsen identically.
    """
    if coarsest_phase_points < 2:
        raise ValueError("coarsest_phase_points must be at least 2")
    partitions = []
    M = n_phase_points
    while M > coarsest_phase_points:
        Mc = (M + 1) // 2
        i = np.arange(n_blocks * M)
        assign = (i // M) * Mc + (i % M) // 2
        partitions.append(Partition(assign))
        M = Mc
    return partitions


@dataclass
class CDRChainModel:
    """A compiled CDR Markov-chain model and its structural metadata.

    Attributes
    ----------
    chain:
        The product Markov chain (unlabeled; use the layout helpers).
    slip_matrix:
        Sparse matrix ``E <= P`` of transition probabilities that wrap the
        phase across the UI boundary (cycle slips).
    grid:
        The phase-error grid.
    nw:
        The eye-opening noise distribution (UI) used for the detector
        decision masses and later for BER tail integration.
    nr_steps:
        The drift noise, quantized to whole grid steps.
    data_source:
        The data-statistics Markov source.
    counter_length:
        Loop-filter counter length ``N``.
    phase_step_units:
        The loop correction step ``G`` in grid units.
    form_time:
        Wall-clock seconds spent assembling the matrix (the paper's
        "Matrixformtime").
    """

    chain: MarkovChain
    slip_matrix: sp.csr_matrix
    grid: PhaseGrid
    nw: DiscreteDistribution
    nr_steps: DiscreteDistribution
    data_source: MarkovSource
    counter_length: int
    phase_step_units: int
    form_time: float
    sign_masses: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    @property
    def n_data_states(self) -> int:
        return self.data_source.n_states

    @property
    def n_counter_states(self) -> int:
        return counter_state_count(self.counter_length)

    @property
    def n_phase_points(self) -> int:
        return self.grid.n_points

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    def state_index(self, data_state: int, counter_value: int, phase_index: int) -> int:
        """Global index of ``(d, counter value, m)``.

        ``counter_value`` is the signed count in ``[-(N-1), N-1]``.
        """
        N = self.counter_length
        c = counter_value + (N - 1)
        D, C, M = self.n_data_states, self.n_counter_states, self.n_phase_points
        if not (0 <= data_state < D and 0 <= c < C and 0 <= phase_index < M):
            raise ValueError("state coordinates out of range")
        return (data_state * C + c) * M + phase_index

    def state_of_index(self, index: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`state_index`: ``(d, counter value, m)``."""
        C, M = self.n_counter_states, self.n_phase_points
        if not 0 <= index < self.n_states:
            raise ValueError("index out of range")
        m = index % M
        dc = index // M
        return dc // C, (dc % C) - (self.counter_length - 1), m

    # ------------------------------------------------------------------ #
    # marginals
    # ------------------------------------------------------------------ #

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution of the phase index under ``distribution``."""
        distribution = np.asarray(distribution, dtype=float)
        if distribution.shape != (self.n_states,):
            raise ValueError("distribution has wrong size")
        return distribution.reshape(-1, self.n_phase_points).sum(axis=0)

    def counter_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution over counter values ``-(N-1) .. N-1``."""
        distribution = np.asarray(distribution, dtype=float)
        D, C, M = self.n_data_states, self.n_counter_states, self.n_phase_points
        return distribution.reshape(D, C, M).sum(axis=(0, 2))

    def data_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution over data-source hidden states."""
        distribution = np.asarray(distribution, dtype=float)
        D = self.n_data_states
        return distribution.reshape(D, -1).sum(axis=1)

    def mean_phase(self, distribution: np.ndarray) -> float:
        """Mean phase error (UI) under ``distribution``."""
        return float(np.dot(self.phase_marginal(distribution), self.grid.values))

    def phase_values_per_state(self) -> np.ndarray:
        """Phase value (UI) of every global state (for autocorrelation)."""
        D, C = self.n_data_states, self.n_counter_states
        return np.tile(self.grid.values, D * C)

    # ------------------------------------------------------------------ #
    # multigrid support
    # ------------------------------------------------------------------ #

    def phase_pairing_partitions(self, coarsest_phase_points: int = 8) -> List[Partition]:
        """The paper's coarsening: lump consecutive phase-error grid values.

        Returns one partition per level; level ``l`` maps a state space
        with ``M_l`` phase points onto ``ceil(M_l / 2)`` points, preserving
        the data and counter coordinates, "so the lumped problems resemble
        the original problem but with coarser phase error discretization".
        """
        return phase_pairing_partitions(
            self.n_data_states * self.n_counter_states,
            self.n_phase_points,
            coarsest_phase_points,
        )

    def multigrid_strategy(self, coarsest_phase_points: int = 8) -> CoarseningStrategy:
        """A ready-to-use coarsening strategy for the multigrid solver."""
        return pairing_hierarchy(self.phase_pairing_partitions(coarsest_phase_points))

    # ------------------------------------------------------------------ #
    # structure report (Figure 3)
    # ------------------------------------------------------------------ #

    def structure_report(self) -> Dict[str, float]:
        """Summary statistics of the TPM's nonzero pattern (paper Fig. 3).

        The pattern is compositional: the data FSM *always* moves (run
        counters never self-loop), the counter coordinate is preserved on
        NULL decisions, and the phase coordinate moves by at most
        ``G + max|n_r|`` grid steps (banded sub-blocks, modulo the wrap).
        """
        P = self.chain.P
        coo = P.tocoo()
        M = self.n_phase_points
        C = self.n_counter_states
        counter_row = (coo.row // M) % C
        counter_col = (coo.col // M) % C
        same_counter = float(np.mean(counter_row == counter_col)) if coo.nnz else 0.0
        dphi = np.abs((coo.col % M).astype(np.int64) - (coo.row % M))
        dphi = np.minimum(dphi, M - dphi)  # wrap-aware phase distance
        max_phase_move = int(dphi.max()) if coo.nnz else 0
        return {
            "n_states": float(self.n_states),
            "nnz": float(P.nnz),
            "nnz_per_row": float(P.nnz) / self.n_states,
            "density": float(P.nnz) / self.n_states ** 2,
            "fraction_counter_preserving": same_counter,
            "max_phase_move_steps": float(max_phase_move),
            "form_time_s": self.form_time,
        }

    def __repr__(self) -> str:
        return (
            f"CDRChainModel(states={self.n_states}, "
            f"D={self.n_data_states}, C={self.n_counter_states}, "
            f"M={self.n_phase_points}, nnz={self.chain.nnz})"
        )


def _sign_masses(
    grid: PhaseGrid, nw: DiscreteDistribution
) -> Dict[int, np.ndarray]:
    """Per-phase-index probability that ``sgn(phi_m + n_w)`` is -1 / 0 / +1."""
    phi = grid.values[None, :]  # (1, M)
    w = nw.values[:, None]      # (K, 1)
    q = nw.probs[:, None]
    noisy = phi + w
    plus = (noisy > 0.0)
    minus = (noisy < 0.0)
    zero = ~plus & ~minus
    return {
        1: (q * plus).sum(axis=0),
        0: (q * zero).sum(axis=0),
        -1: (q * minus).sum(axis=0),
    }




def _roll_terms(
    grid: PhaseGrid,
    masses: Dict[int, np.ndarray],
    nr_steps: DiscreteDistribution,
    counter_length: int,
    phase_step_units: int,
    data_source: MarkovSource,
    drift_source: Optional[MarkovSource] = None,
) -> List[Tuple[int, int, int, Optional[np.ndarray], float]]:
    """The chain's transition structure as raw block-roll terms.

    The one enumeration of data state x decision x counter x drift x
    branch, shared by every CDR chain builder: the assembled and
    modulated chains are ``RollPlan(terms, ...).to_csr()`` and the
    matrix-free :class:`~repro.cdr.operator.CDRTransitionOperator` applies
    the same plan.  Each term is ``(src_block, dst_block, shift, q_vec,
    scalar)``: probability moves from phase-vector block ``src`` to block
    ``dst`` with a circular phase shift, weighted per source phase by the
    decision mass ``q_vec`` (None for one) times ``scalar`` (the drift and
    branch probabilities).

    Blocks are ``(d, h, c)``, indexed ``(d * H + h) * C + c``, with ``h``
    the hidden state of the optional ``drift_source``, whose emission is
    quantized to grid steps and added to the ``n_r`` drift.  Without one,
    ``H = 1`` and the emission is 0; the unit factors multiply exactly, so
    those terms are the white-drift chain's.

    Owns the input checks of every builder: a phase move of ``M`` or more
    grid steps raises ``ValueError``, and moves that all share a factor
    with ``M`` warn (``RuntimeWarning``) that the phase lattice splits
    into non-communicating residue classes.
    """
    N = int(counter_length)
    g = int(phase_step_units)
    if N < 1:
        raise ValueError("counter_length must be at least 1")
    if g < 1:
        raise ValueError("phase_step_units must be at least 1")
    D = data_source.n_states
    for i in range(D):
        if data_source.symbol(i) not in (0, 1):
            raise ValueError(
                "data_source must emit transition indicators (0 or 1); "
                f"hidden state {i} emits {data_source.symbol(i)!r}"
            )
    M = grid.n_points
    C = counter_state_count(N)
    if drift_source is None:
        H = 1
        emissions = [[(0, 1.0)]]
        drift_branches = [[(0, 1.0)]]
    else:
        H = drift_source.n_states
        emissions = []
        for h in range(H):
            atoms = grid.quantize_to_steps(
                DiscreteDistribution.delta(float(drift_source.symbol(h)))
            )
            emissions.append(list(zip(atoms.values.astype(int).tolist(), atoms.probs)))
        drift_branches = [drift_source.branches(h) for h in range(H)]
    drift = nr_steps.values.astype(int).tolist()
    emitted = [e for atoms in emissions for e, _ in atoms]

    max_move = g + max(abs(r) for r in drift) + max(abs(e) for e in emitted)
    if max_move >= M:
        raise ValueError(
            f"phase moves of up to {max_move} grid steps exceed the grid "
            f"size {M}; refine the grid or reduce the step/drift"
        )
    # If every phase move (the correction step G, all n_r atoms and all
    # emission atoms) shares a common factor with the grid size, the phase
    # lattice decomposes into non-communicating residue classes and the
    # stationary distribution is not unique.  Flag it early.
    move_gcd = math.gcd(g, *drift, *emitted)
    if move_gcd > 1 and math.gcd(move_gcd, M) > 1:
        warnings.warn(
            f"all phase moves are multiples of {move_gcd}: the phase grid "
            f"decomposes into {math.gcd(move_gcd, M)} non-communicating "
            "residue classes; choose a grid size or n_r discretization "
            "that breaks the common factor",
            RuntimeWarning,
            stacklevel=3,
        )

    terms = []
    for d in range(D):
        data_branches = data_source.branches(d)
        decisions = (
            [(1, masses[1]), (0, masses[0]), (-1, masses[-1])]
            if data_source.symbol(d) == 1
            else [(0, None)]
        )
        for h in range(H):
            for c in range(C):
                src = (d * H + h) * C + c
                for o, q_vec in decisions:
                    v = c - (N - 1) + o
                    if v >= N:
                        direction, c_next_val = 1, 0
                    elif v <= -N:
                        direction, c_next_val = -1, 0
                    else:
                        direction, c_next_val = 0, v
                    c_next = c_next_val + (N - 1)
                    for e, q_e in emissions[h]:
                        for r, q_r in zip(drift, nr_steps.probs):
                            shift = -g * direction + r + e
                            q_move = q_e * q_r
                            for h_next, p_h in drift_branches[h]:
                                for d_next, p_d in data_branches:
                                    terms.append((
                                        src,
                                        (d_next * H + h_next) * C + c_next,
                                        shift,
                                        q_vec,
                                        float(q_move * (p_h * p_d)),
                                    ))
    return terms


def _slip_matrix(terms, n_blocks: int, M: int) -> sp.csr_matrix:
    """The sparse slip-flux matrix ``E <= P`` of raw roll terms.

    A term with shift ``s > 0`` wraps the phase for source phases
    ``m >= M - s`` and one with ``s < 0`` for ``m < -s`` (the convention
    of :meth:`PhaseGrid.shift_indices`).  Built from the raw terms, not
    the coalesced plan: coalescing keys on ``shift mod M``, which can
    merge a wrapping term with a non-wrapping one on a small grid.
    """
    n = n_blocks * M
    wrapping = [t for t in terms if t[2] != 0]
    if not wrapping:
        return sp.csr_matrix((n, n))
    src, dst, shift, q_vecs, scalar = zip(*wrapping)
    # Row 0 of the weight table is the all-ones row of q_vec None.
    masses = {id(q): q for q in q_vecs if q is not None}
    row_of = {key: row for row, key in enumerate(masses, start=1)}
    q_table = np.stack([np.ones(M), *masses.values()])
    qrow = np.array([0 if q is None else row_of[id(q)] for q in q_vecs])
    shift = np.asarray(shift, dtype=np.int64)
    length = np.abs(shift)
    first = np.where(shift > 0, M - shift, 0)
    # The wrapped source phases of every term, term after term.
    term = np.repeat(np.arange(shift.size), length)
    m = np.repeat(first - np.cumsum(length) + length, length) + np.arange(term.size)
    vals = np.asarray(scalar)[term] * q_table[qrow[term], m]
    live = vals > 0.0
    term, m = term[live], m[live]
    rows = np.asarray(src, dtype=np.int64)[term] * M + m
    cols = np.asarray(dst, dtype=np.int64)[term] * M + (m + shift[term]) % M
    E = sp.coo_matrix((vals[live], (rows, cols)), shape=(n, n)).tocsr()
    E.sum_duplicates()
    return E


def _assemble_terms(terms, n_blocks: int, M: int) -> Tuple[MarkovChain, sp.csr_matrix]:
    """The chain and slip matrix of raw roll terms.

    The matrix is the compiled plan's ``to_csr()`` -- the matrix the
    :class:`~repro.cdr.operator.CDRTransitionOperator` of the same terms
    applies -- validated like every :class:`MarkovChain`, which rescales
    the few rows whose floating-point sum is not exactly one.
    """
    P = RollPlan(terms, n_blocks, M).to_csr()
    return MarkovChain(P), _slip_matrix(terms, n_blocks, M)


def _record_build(form_time: float, nnz: int) -> None:
    registry = get_registry()
    registry.counter(
        "repro_tpm_builds_total", "CDR transition matrices assembled"
    ).inc()
    registry.histogram(
        "repro_tpm_build_seconds", "Wall time of CDR TPM assembly"
    ).observe(form_time)
    registry.gauge(
        "repro_tpm_nnz", "Nonzeros of the last assembled CDR TPM"
    ).set(nnz)


def build_cdr_chain(
    grid: PhaseGrid,
    nw: DiscreteDistribution,
    nr: DiscreteDistribution,
    counter_length: int,
    phase_step_units: int,
    data_source: Optional[MarkovSource] = None,
    transition_density: float = 0.5,
    max_run_length: int = 3,
) -> CDRChainModel:
    """Assemble the CDR phase-selection-loop Markov chain.

    Parameters
    ----------
    grid:
        Phase-error discretization (``M`` points over one UI).
    nw:
        Eye-opening jitter distribution (UI); enters only through the
        phase-detector decision.
    nr:
        Drift noise distribution (UI per symbol); quantized to whole grid
        steps with mean-preserving splitting.
    counter_length:
        Loop-filter up/down counter length ``N`` (the paper's "COUNTER").
    phase_step_units:
        Loop correction step ``G`` in grid units; ``G * grid.step`` is the
        phase-select increment in UI (one VCO phase tap).
    data_source:
        Transition-indicator Markov source; when omitted, a run-length-
        limited source with the given ``transition_density`` and
        ``max_run_length`` is used.
    """
    if data_source is None:
        data_source = transition_run_length_source(
            "data", transition_density, max_run_length
        )
    with span("cdr.build_tpm") as build_span:
        start = time.perf_counter()
        nr_steps = grid.quantize_to_steps(nr)
        masses = _sign_masses(grid, nw)
        terms = _roll_terms(
            grid, masses, nr_steps, counter_length, phase_step_units,
            data_source,
        )
        N, g = int(counter_length), int(phase_step_units)
        D, C, M = data_source.n_states, counter_state_count(N), grid.n_points
        chain, E = _assemble_terms(terms, D * C, M)
        # Structure identity for hierarchy caching (repro.markov.context):
        # dimensions, counter/step layout, the n_r shift pattern and the
        # data source's transition structure -- every noise probability
        # excluded, so sweep points differing only in noise rates share
        # one digest even though near-zero probabilities shift the CSR
        # sparsity pattern.
        ds_P = data_source.chain.P.tocsr()
        chain.set_structure_token((
            "cdr-assembled", D, C, M, N, g,
            tuple(int(v) for v in nr_steps.values),
            tuple(int(data_source.symbol(s)) for s in range(D)),
            ds_P.indptr.tobytes(), ds_P.indices.tobytes(),
        ))
        form_time = time.perf_counter() - start
        P = chain.P
        build_span.set_attributes(
            n_states=chain.n_states,
            nnz=int(P.nnz),
            memory_bytes=int(
                P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
                + E.data.nbytes + E.indices.nbytes + E.indptr.nbytes
            ),
            n_data_states=D,
            n_counter_states=C,
            n_phase_points=M,
        )
    _record_build(form_time, int(P.nnz))
    return CDRChainModel(
        chain=chain,
        slip_matrix=E,
        grid=grid,
        nw=nw,
        nr_steps=nr_steps,
        data_source=data_source,
        counter_length=N,
        phase_step_units=g,
        form_time=form_time,
        sign_masses=masses,
    )
