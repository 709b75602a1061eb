"""Coalesced kernel plans for the structural operators.

The CDR chain's structure is a list of raw block-roll terms
(:func:`repro.cdr.model._roll_terms`), with the same ``(src, dst, shift)``
triple emitted once per (decision, drift, branch) combination that
produces it.  A :class:`RollPlan` compiles those terms once into the form
the kernel tiers (:mod:`repro.kernels`) consume, and is the one builder
of every CDR chain: the matrix-free operator applies it and the assembled
and modulated chains are its :meth:`RollPlan.to_csr`:

* **Coalescing** -- terms sharing ``(src_block, dst_block, shift mod M)``
  are merged.  Same decision-mass vector: the scalars are summed.
  Different mass vectors (possible for saturating counters, where two
  decisions can reach the same destination with the same net shift): the
  weighted sum is materialized as one dense weight row.  Either way each
  surviving term is a single ``(q_row, scale)`` pair, so the kernel does
  one multiply-accumulate pass per term.
* **Factored weights** -- per-phase weights are stored as ``scale *
  Q[q_row]`` against a tiny shared table ``Q`` (the three decision-mass
  vectors, a ones row, plus any merged rows).  Memory stays ``O(M + K)``,
  not ``O(nnz)``: the plan does not re-materialize the matrix it exists
  to avoid, and the weight table fits in L1/L2 cache, so a kernel apply
  streams only the input and output vectors.
* **Segments** -- each circular roll is split into at most two contiguous
  slices (the wrapped and non-wrapped ranges), trimmed to the weight
  row's nonzero support, so the kernels run plain strided loops with no
  modular indexing.
* **CSR accumulation order** -- segments are sorted so that every output
  element receives its contributions in ascending source-column order,
  which is exactly the order ``scipy`` CSR matvec sums a row in.  That is
  what makes every kernel tier *bit-identical* to applying
  ``to_csr()`` / its transpose (a test invariant), not merely close.

:class:`BranchPlan` does the analogous compilation for
:class:`~repro.scenarios.operator.BranchSumOperator`: the per-branch
``(weights, dest)`` arrays are flattened, zero-weight entries dropped,
duplicates merged, and the result sorted into explicit CSR index arrays
for the gather (``P v``) and scatter (``P^T x``) directions -- replacing
the ``np.add.at`` scatter (notoriously slow: one Python-level fancy-index
dispatch per apply) with a sequential CSR pass that is bit-identical to
the assembled backend.

A :class:`PhasePairing` maps a roll plan onto the plan of its Galerkin
coarse operator under the paper's phase pairing (lumping phases ``2p``
and ``2p + 1``), which is again a roll plan, on ``M / 2`` phases: the
matrix-free multigrid hierarchy stays in this format down to its
coarsest level.  The pairing is value-free and built once per level; a
V-cycle only recomputes the coarse weight table.

Every plan array is **read-only** once its constructor returns: the
kernel tiers bind raw buffer addresses when an operator is built
(:mod:`repro.kernels`), and an array that could be written in place or
resized would let a bound call read stale memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["SegmentSet", "RollPlan", "PhasePairing", "CSRArrays", "BranchPlan"]


def _freeze(*arrays: np.ndarray) -> None:
    """Mark plan arrays read-only (their addresses are bound by the tiers)."""
    for arr in arrays:
        arr.flags.writeable = False


class SegmentSet:
    """One apply direction's segment table, in CSR accumulation order.

    A segment applies, for ``m`` in ``[a, b)``::

        out[orow * M + m] += (scale * Q[qrow, m + woff]) * x[irow * M + m + xoff]

    All arrays are parallel, C-contiguous and int64/float64 so the
    compiled tiers can consume their raw buffers directly.
    """

    __slots__ = (
        "orow", "irow", "qrow", "scale", "a", "b", "xoff", "woff",
        "n_segments", "_rows",
    )

    def __init__(self, orow, irow, qrow, scale, a, b, xoff, woff) -> None:
        self.orow = np.ascontiguousarray(orow, dtype=np.int64)
        self.irow = np.ascontiguousarray(irow, dtype=np.int64)
        self.qrow = np.ascontiguousarray(qrow, dtype=np.int64)
        self.scale = np.ascontiguousarray(scale, dtype=np.float64)
        self.a = np.ascontiguousarray(a, dtype=np.int64)
        self.b = np.ascontiguousarray(b, dtype=np.int64)
        self.xoff = np.ascontiguousarray(xoff, dtype=np.int64)
        self.woff = np.ascontiguousarray(woff, dtype=np.int64)
        self.n_segments = int(self.orow.size)
        self._rows = None
        _freeze(self.orow, self.irow, self.qrow, self.scale, self.a, self.b,
               self.xoff, self.woff)

    def rows(self) -> List[Tuple]:
        """Plain-Python tuples for the NumPy tier's segment loop (cached)."""
        if self._rows is None:
            self._rows = list(
                zip(
                    self.orow.tolist(), self.irow.tolist(), self.qrow.tolist(),
                    self.scale.tolist(), self.a.tolist(), self.b.tolist(),
                    self.xoff.tolist(), self.woff.tolist(),
                )
            )
        return self._rows


def _segments(src, dst, shift, qrow, scale, lo, hi, M: int, transpose: bool) -> SegmentSet:
    """The segment table of one apply direction, for all terms at once.

    Term ``k`` maps phase ``m`` of block ``src[k]`` to phase
    ``(m + shift[k]) mod M`` of block ``dst[k]``; its weight row is
    nonzero only on ``[lo[k], hi[k])``.  Each circular roll becomes at
    most two contiguous pieces, trimmed to that support.
    """
    s = np.asarray(shift, dtype=np.int64)
    wrapped = s != 0
    if transpose:
        # out[dst, m] += w[m + d] * x[src, m + d]; the weight index is the
        # source phase, so the support trim shifts by d.
        a = np.concatenate([s, np.zeros_like(s[wrapped])])
        b = np.concatenate([np.full_like(s, M), s[wrapped]])
        d = np.concatenate([-s, M - s[wrapped]])
    else:
        # out[src, m] += w[m] * v[dst, m + d]; weight indexed by the
        # output phase directly.
        a = np.concatenate([np.zeros_like(s), M - s[wrapped]])
        b = np.concatenate([M - s, np.full_like(s[wrapped], M)])
        d = np.concatenate([s, s[wrapped] - M])
    term = np.concatenate([np.arange(s.size), np.flatnonzero(wrapped)])
    outer = np.asarray(dst if transpose else src, dtype=np.int64)[term]
    inner = np.asarray(src if transpose else dst, dtype=np.int64)[term]
    woff = d if transpose else np.zeros_like(d)
    aa = np.maximum(a, lo[term] - woff)
    bb = np.minimum(b, hi[term] - woff)
    keep = aa < bb
    # CSR accumulation order: for any fixed output element, ascending
    # source column is (input block, then column offset d) -- exactly
    # the order a canonical CSR row is summed in.  The keys are unique.
    order = np.lexsort((d[keep], inner[keep], outer[keep]))
    pick = np.flatnonzero(keep)[order]
    t = term[pick]
    return SegmentSet(
        outer[pick], inner[pick], np.asarray(qrow)[t], np.asarray(scale)[t],
        aa[pick], bb[pick], d[pick], woff[pick],
    )


class RollPlan:
    """Coalesced block-roll terms plus per-direction segment tables.

    Built once per chain from its raw ``_roll_terms()`` output;
    ``scatter`` drives ``rmatvec``/``rmatmat`` (out-block = destination),
    ``gather`` drives ``matvec``/``matmat`` (out-block = source).
    Its :meth:`phase_pairing` builds the plans of the phase-paired
    Galerkin coarse operator, itself a roll plan on ``M / 2`` phases.
    """

    __slots__ = (
        "M", "n_blocks", "n", "q", "src", "dst", "shift", "qrow", "scale",
        "lo", "hi", "n_terms", "n_input_terms", "scatter", "gather", "_nnz",
        "_pairing", "_origin",
    )

    def __init__(self, terms, n_blocks: int, M: int) -> None:
        self.M = int(M)
        self.n_blocks = int(n_blocks)
        self.n = self.n_blocks * self.M
        self.n_input_terms = len(terms)
        q_rows: List[np.ndarray] = [np.ones(M)]
        q_index: Dict[int, int] = {}

        def row_of(q_vec) -> int:
            if q_vec is None:
                return 0
            key = id(q_vec)
            row = q_index.get(key)
            if row is None:
                row = q_index[key] = len(q_rows)
                q_rows.append(np.ascontiguousarray(q_vec, dtype=np.float64))
            return row

        # Group the raw terms by (src, dst, shift mod M), preserving
        # emission order inside each group so merged values accumulate in
        # a deterministic order.
        groups: Dict[Tuple[int, int, int], List[Tuple[int, float]]] = {}
        for src, dst, shift, q_vec, scalar in terms:
            groups.setdefault((src, dst, shift % M), []).append(
                (row_of(q_vec), float(scalar))
            )

        src_l: List[int] = []
        dst_l: List[int] = []
        shift_l: List[int] = []
        qrow_l: List[int] = []
        scale_l: List[float] = []
        for (src, dst, s), parts in groups.items():
            # Same mass vector: sum the scalars (CSR would sum the
            # duplicate entries; to_csr() below builds from these merged
            # values, so plan and matrix stay bit-consistent).
            combined: List[Tuple[int, float]] = []
            for qrow, scalar in parts:
                for i, (qr, sc) in enumerate(combined):
                    if qr == qrow:
                        combined[i] = (qr, sc + scalar)
                        break
                else:
                    combined.append((qrow, scalar))
            if len(combined) == 1:
                qrow, scalar = combined[0]
                if scalar == 0.0:
                    continue
            else:
                # Distinct mass vectors collapsing onto one (src, dst,
                # shift): materialize the merged weight row so the kernel
                # still does a single multiply-accumulate for this term.
                merged = np.zeros(M)
                for qr, sc in combined:
                    merged += sc * q_rows[qr]
                if not np.any(merged):
                    continue
                qrow, scalar = len(q_rows), 1.0
                q_rows.append(merged)
            src_l.append(src)
            dst_l.append(dst)
            shift_l.append(s)
            qrow_l.append(qrow)
            scale_l.append(scalar)

        self.q = np.ascontiguousarray(np.stack(q_rows), dtype=np.float64)
        self.src = np.asarray(src_l, dtype=np.int64)
        self.dst = np.asarray(dst_l, dtype=np.int64)
        self.shift = np.asarray(shift_l, dtype=np.int64)
        self.qrow = np.asarray(qrow_l, dtype=np.int64)
        self.scale = np.asarray(scale_l, dtype=np.float64)
        self.n_terms = len(src_l)
        self._nnz: Optional[int] = None
        self._pairing: Optional[PhasePairing] = None
        self._origin: Optional[PhasePairing] = None
        _freeze(self.q, self.src, self.dst, self.shift, self.qrow, self.scale)

        # Nonzero support [lo, hi) of each weight row.  Segments are
        # trimmed to it, so the explicit zeros CSR eliminates are (for
        # the contiguous supports the decision masses actually have)
        # never touched by the kernels either.
        lo = np.zeros(len(q_rows), dtype=np.int64)
        hi = np.zeros(len(q_rows), dtype=np.int64)
        for i, row in enumerate(q_rows):
            nz = np.flatnonzero(row)
            if nz.size:
                lo[i], hi[i] = int(nz[0]), int(nz[-1]) + 1
        #: Per-term support [lo, hi) of the weight row.
        self.lo, self.hi = lo[self.qrow], hi[self.qrow]
        _freeze(self.lo, self.hi)
        layout = (self.src, self.dst, self.shift, self.qrow, self.scale,
                  self.lo, self.hi, M)
        self.scatter = _segments(*layout, transpose=True)
        self.gather = _segments(*layout, transpose=False)

    @classmethod
    def _paired(cls, pairing: "PhasePairing", table: np.ndarray) -> "RollPlan":
        """A coarse plan: the pairing's value-free terms and segments plus
        one cycle's weight table (one dense row per coarse term)."""
        plan = cls.__new__(cls)
        plan.M = pairing.M // 2
        plan.n_blocks = pairing.n_blocks
        plan.n = plan.n_blocks * plan.M
        _freeze(table)
        plan.q = table
        plan.src, plan.dst, plan.shift = pairing.src, pairing.dst, pairing.shift
        plan.qrow, plan.scale = pairing.qrow, pairing.scale
        plan.lo, plan.hi = pairing.lo, pairing.hi
        plan.n_terms = int(pairing.src.size)
        plan.n_input_terms = pairing.n_contributions
        plan.scatter, plan.gather = pairing.scatter, pairing.gather
        plan._nnz = None
        plan._pairing = None
        plan._origin = pairing
        return plan

    def phase_pairing(self) -> "PhasePairing":
        """This plan's :class:`PhasePairing`, built once and cached.

        A fine plan keeps its own; every coarse plan one pairing produced
        shares that pairing's next level, so each level of a hierarchy is
        built once per fine plan, however many cycles rebuild its weights.
        """
        if self._origin is not None:
            return self._origin.next_level(self)
        if self._pairing is None:
            self._pairing = PhasePairing(self)
        return self._pairing

    def to_csr(self) -> sp.csr_matrix:
        """The explicit matrix the plan describes (O(nnz) memory).

        Values are the plan's merged ``scale * Q[qrow]`` weights, so the
        kernels' accumulation reproduces this matrix's application
        bit-for-bit (given the CSR-order segment sort above).
        """
        M, n = self.M, self.n
        m_idx = np.arange(M)
        # Term-major triplets: row k of each table is term k's M entries.
        rows = self.src[:, None] * M + m_idx
        cols = self.dst[:, None] * M + (m_idx + self.shift[:, None]) % M
        vals = self.scale[:, None] * self.q[self.qrow]
        P = sp.coo_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
        ).tocsr()
        P.sum_duplicates()
        P.eliminate_zeros()
        return P

    def diagonal(self) -> np.ndarray:
        """``diag(P)``: the weights of the unshifted block self-terms.

        Coalescing leaves at most one ``(b, b, 0)`` term per block, so the
        values are exactly those of ``to_csr().diagonal()``.
        """
        diag = np.zeros((self.n_blocks, self.M))
        k = np.flatnonzero((self.src == self.dst) & (self.shift == 0))
        diag[self.src[k]] = self.scale[k, None] * self.q[self.qrow[k]]
        return diag.ravel()

    @property
    def nnz(self) -> int:
        """Entries ``to_csr()`` stores, counted from the weight rows."""
        if self._nnz is None:
            per_row = np.count_nonzero(self.q, axis=1)
            self._nnz = int(per_row[self.qrow].sum())
        return self._nnz

    @property
    def n_segments(self) -> int:
        return self.scatter.n_segments + self.gather.n_segments

    def __repr__(self) -> str:
        return (
            f"RollPlan(n={self.n}, terms={self.n_terms} of "
            f"{self.n_input_terms} raw, q_rows={self.q.shape[0]}, "
            f"segments={self.n_segments})"
        )


#: Fine rows gathered per step of a coarse build; bounds its temporaries
#: at two ``_PAIR_CHUNK x M/2`` arrays.
_PAIR_CHUNK = 256


class PhasePairing:
    """Value-free map from a roll plan's terms to its phase-paired terms.

    Lumping phases ``2p`` and ``2p + 1`` of every block (the paper's
    coarsening) turns a block-roll operator on ``M`` phases into one on
    ``M / 2``: fine term ``(src, dst, s)`` feeds coarse term
    ``(src, dst, floor(s/2))`` from its even source phases and
    ``(src, dst, ceil(s/2))`` from its odd ones, both mod ``M / 2``.
    This object holds all of that map that does not depend on weights
    -- the coarse terms, which fine (term, parity) rows sum into each,
    and the coarse segment tables -- so a V-cycle's coarse build is a
    gather, two multiplies and a sum per fine row (:meth:`coarse`).  It
    depends only on the plan's ``(src, dst, shift)`` terms and their
    weight supports, never on the weights.

    Coarse weight tables are dense, one ``M/2`` row per coarse term; the
    segments cover only the hull of each row's possible support (the
    phase pairs its fine rows' supports reach), so the kernels skip the
    zeros the fine segment trim skips.
    """

    __slots__ = (
        "n_blocks", "M", "src", "dst", "shift", "qrow", "scale", "lo", "hi",
        "passes", "n_contributions", "scatter", "gather", "_next",
    )

    def __init__(self, plan: RollPlan) -> None:
        if plan.M % 2:
            raise ValueError("phase pairing needs an even number of phases")
        self.n_blocks = plan.n_blocks
        self.M = plan.M
        Mc = self.M // 2
        src, dst, shift = plan.src, plan.dst, plan.shift
        # Contribution j = 2k + r: parity r of fine term k.
        k = np.repeat(np.arange(src.size, dtype=np.int64), 2)
        r = np.tile(np.array([0, 1], dtype=np.int64), src.size)
        delta = ((shift[k] + r) // 2) % Mc
        key = (src[k] * self.n_blocks + dst[k]) * Mc + delta
        coarse_keys, c = np.unique(key, return_inverse=True)
        c = c.ravel()
        self.src = coarse_keys // (self.n_blocks * Mc)
        self.dst = (coarse_keys // Mc) % self.n_blocks
        self.shift = coarse_keys % Mc
        n_coarse = coarse_keys.size
        self.qrow = np.arange(n_coarse, dtype=np.int64)
        self.scale = np.ones(n_coarse)
        self.n_contributions = int(key.size)
        # Pass (t, parity) adds the t-th contribution (in j order) of every
        # coarse term whose t-th contribution has that parity, so a pass
        # names a coarse term at most once, and rank 0 names each once.
        rank = np.empty_like(c)
        order = np.argsort(c, kind="stable")
        rank[order] = np.arange(c.size) - np.searchsorted(c[order], c[order])
        self.passes = tuple(
            (t, parity, k[pick], c[pick])
            for t in range(int(rank.max()) + 1 if rank.size else 0)
            for parity in (0, 1)
            for pick in [np.flatnonzero((rank == t) & (r == parity))]
            if pick.size
        )
        # Fine phases 2p + r in [lo, hi) are coarse phases p in
        # [ceil((lo - r)/2), floor((hi - 1 - r)/2)].
        p_lo = (plan.lo[k] - r + 1) // 2
        p_hi = (plan.hi[k] - 1 - r) // 2 + 1
        live = p_lo < p_hi
        self.lo = np.full(n_coarse, Mc, dtype=np.int64)
        self.hi = np.zeros(n_coarse, dtype=np.int64)
        np.minimum.at(self.lo, c[live], p_lo[live])
        np.maximum.at(self.hi, c[live], p_hi[live])
        layout = (self.src, self.dst, self.shift, self.qrow, self.scale,
                  self.lo, self.hi, Mc)
        self.scatter = _segments(*layout, transpose=True)
        self.gather = _segments(*layout, transpose=False)
        _freeze(self.src, self.dst, self.shift, self.qrow, self.scale,
                self.lo, self.hi, *(arr for p in self.passes for arr in p[2:]))
        self._next: Optional[PhasePairing] = None

    def next_level(self, coarse: RollPlan) -> "PhasePairing":
        """The pairing of the coarse plans this pairing builds (they all
        share its terms and supports), built on first use."""
        # Two threads racing here build equal pairings; either one serves.
        if self._next is None:
            self._next = PhasePairing(coarse)
        return self._next

    def coarse(self, plan: RollPlan, wn: np.ndarray) -> RollPlan:
        """The plan of the Galerkin coarse operator lumping phases ``2p, 2p+1``.

        ``wn[i]`` is the aggregation weight of state ``i`` of ``plan``
        divided by the mass of its block, so the coarse weight of
        ``(b, p) -> (b', p')`` is ``sum_i wn_i P[i, j]`` over the paired
        states: the weighted ``lumped_tpm`` of ``plan.to_csr()``, up to
        summation order.  The weight table is a fresh array, read-only
        once built; the coarse plan shares this pairing's terms and
        segment tables.
        """
        # Parity views: phases 2p + r of every row, no copies.
        q_par = plan.q[:, 0::2], plan.q[:, 1::2]
        w = np.reshape(wn, (self.n_blocks, self.M))
        w_par = w[:, 0::2], w[:, 1::2]
        scaled = not np.all(plan.scale == 1.0)  # coarse plans have unit scales
        table = np.empty((self.src.size, self.M // 2))
        for t, parity, k, c in self.passes:
            for a in range(0, k.size, _PAIR_CHUNK):
                kk, cc = k[a:a + _PAIR_CHUNK], c[a:a + _PAIR_CHUNK]
                v = q_par[parity][plan.qrow[kk]]
                if scaled:
                    v *= plan.scale[kk, None]
                v *= w_par[parity][plan.src[kk]]
                if t:
                    table[cc] += v
                else:
                    table[cc] = v
        return RollPlan._paired(self, table)


class CSRArrays:
    """Explicit CSR index arrays for one branch-apply direction.

    ``rows`` repeats the row index per stored entry (what the NumPy
    tier's ``np.bincount`` accumulation consumes); the compiled tiers use
    ``indptr`` directly.
    """

    __slots__ = ("indptr", "cols", "vals", "rows", "n_rows")

    def __init__(self, major: np.ndarray, minor: np.ndarray, vals: np.ndarray, n: int) -> None:
        order = np.lexsort((minor, major))
        maj = major[order]
        mino = minor[order]
        v = vals[order]
        if maj.size:
            dup = (np.diff(maj) == 0) & (np.diff(mino) == 0)
            if np.any(dup):
                starts = np.flatnonzero(np.concatenate(([True], ~dup)))
                lengths = np.diff(np.append(starts, maj.size))
                merged = v[starts].copy()
                # Sum duplicate runs left to right (plain sequential
                # adds, matching scipy's sum_duplicates) -- runs are rare
                # and short, so a Python loop is fine here, at build time.
                for i in np.flatnonzero(lengths > 1):
                    acc = 0.0
                    for x in v[starts[i]: starts[i] + lengths[i]]:
                        acc += float(x)
                    merged[i] = acc
                maj, mino, v = maj[starts], mino[starts], merged
        self.rows = np.ascontiguousarray(maj, dtype=np.int64)
        self.cols = np.ascontiguousarray(mino, dtype=np.int64)
        self.vals = np.ascontiguousarray(v, dtype=np.float64)
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1)).astype(np.int64)
        self.n_rows = int(n)
        _freeze(self.rows, self.cols, self.vals, self.indptr)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)


class BranchPlan:
    """Sorted CSR-form index arrays for a branch-sum operator.

    ``gather`` applies ``P v`` (row = source state), ``scatter`` applies
    ``P^T x`` (row = destination state).  Memory is O(nnz) -- the same
    order as the branch terms themselves, so nothing is lost relative to
    the operator's own storage.
    """

    __slots__ = ("n", "gather", "scatter")

    def __init__(self, n: int, terms) -> None:
        self.n = int(n)
        idx = np.arange(n, dtype=np.int64)
        rows = np.concatenate([idx] * len(terms))
        cols = np.concatenate([np.asarray(d, dtype=np.int64) for _, d in terms])
        vals = np.concatenate([np.asarray(w, dtype=np.float64) for w, _ in terms])
        live = vals != 0.0
        rows, cols, vals = rows[live], cols[live], vals[live]
        self.gather = CSRArrays(rows, cols, vals, n)
        self.scatter = CSRArrays(cols, rows, vals, n)

    @property
    def nnz(self) -> int:
        return self.gather.nnz

    def __repr__(self) -> str:
        return f"BranchPlan(n={self.n}, nnz={self.nnz})"
