"""Compiled weighted Galerkin aggregation for a fixed partition.

The multigrid solver re-aggregates every coarse level on every V-cycle,
but with a structural coarsening (the paper's phase pairing, any
:class:`~repro.markov.context.CoarseningHierarchy`) the partitions never
change during a solve -- only the Koury-McAllister-Stewart weights do.
A :class:`GalerkinPlan` compiles the value-free part of
:func:`~repro.markov.lumping.lumped_tpm` once, so each re-weighting costs
three array passes instead of a chain of scipy constructors:

1. ``mass = bincount(block, w)``;
2. one weighted ``bincount`` of ``w[row] * data``, gathered in a fixed
   summation order, into a fixed slot map;
3. a scale by ``1 / mass``.

**Layout.**  The coarse values come out as one array::

    [ Jacobi off-diagonal entries, in jacobi._split storage order | diagonal ]

so the smoother's split is a zero-copy CSR view of the first part plus the
inverse of the second (:meth:`GalerkinPlan.split`).  The assembled coarse
matrix -- needed by strategies and the coarsest direct solve -- is one
gather (:meth:`GalerkinPlan.to_csr`).

**Bitwise contract.**  Values, storage orders and summation orders are
those of ``lumped_tpm`` + ``jacobi_split``, so iterates do not move by an
ulp.  Both orders are *derived*, not re-implemented: the compile runs
scipy's own pipeline (coo->csr row placement, ``csr_sort_indices`` --
an unstable sort whose permutation depends only on the keys --,
``diags(1/mass).dot`` and ``jacobi._split``) on 1-based position payloads
(zero payloads would be dropped) and reads the permutations back out of
the resulting ``data`` arrays.  Each level's plan consumes the *unsorted*
storage order ``csr_matmat`` emits for the level above, exactly what
``lumped_tpm`` sees.  The one deliberate difference: an entry whose
weighted sum underflows to exactly zero stays in the plan as an explicit
zero (``lumped_tpm`` drops it); dense values agree and :meth:`to_csr`
eliminates it again.

**Memory.**  int32 maps only: a source index and a slot per input nonzero
(8 B), and per coarse nonzero its off-diagonal index plus the gather map
and column index of the assembled form (12 B).  The compile's transient
peak is about that of one one-shot ``lumped_tpm`` call on the same level,
so planning does not raise a solve's peak memory.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.markov.lumping import Partition, prepare_block_weights
from repro.markov.solvers.jacobi import _inverse_diag, _split

__all__ = ["GalerkinPlan"]

_INDEX = np.int32


def _payload_csr(indices: np.ndarray, indptr: np.ndarray, n: int) -> sp.csr_matrix:
    """A CSR pattern whose values are the 1-based storage positions."""
    data = np.arange(1, indices.size + 1, dtype=float)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _positions(M: sp.csr_matrix) -> np.ndarray:
    """0-based source positions carried through by a payload matrix."""
    pos = M.data.astype(_INDEX)
    pos -= 1
    return pos


class GalerkinPlan:
    """Compiled ``lumped_tpm`` for one fixed partition of one level.

    Parameters
    ----------
    source:
        What the level's operator is: the assembled fine CSR matrix, or
        the :class:`GalerkinPlan` whose output it is (its values then
        arrive in that plan's layout).
    partition:
        The level's partition; held by identity, so a strategy that
        returns a new :class:`~repro.markov.lumping.Partition` can never
        be served by a stale plan.
    """

    __slots__ = (
        "source", "partition", "n_blocks", "n_off",
        "_src", "_slot", "_in_counts", "_in_off_rows",
        "_off_indices", "_off_indptr", "_vmap", "_vindices", "_vindptr",
    )

    def __init__(
        self, source: Union[sp.csr_matrix, "GalerkinPlan"], partition: Partition
    ) -> None:
        if isinstance(source, GalerkinPlan):
            n = source.n_blocks
            indptr, indices = source._vindptr, source._vindices
            in_slot = source._vmap
            self._in_off_rows = source._off_indices
        else:
            if not (sp.issparse(source) and source.format == "csr"):
                raise TypeError("a GalerkinPlan compiles from CSR or a parent plan")
            n = source.shape[0]
            indptr, indices = source.indptr, source.indices
            in_slot = None
            self._in_off_rows = None
        if partition.n_states != n:
            raise ValueError("partition size does not match matrix size")
        self.source = source
        self.partition = partition
        nb = self.n_blocks = partition.n_blocks
        block = partition.block_of.astype(_INDEX)
        row_counts = np.diff(indptr)
        # A CSR source is read in its own storage order, one row at a time.
        self._in_counts = row_counts if in_slot is None else None

        # 1. Summation order.  coo->csr places entries stably by coarse row
        #    (fine rows in (block, row) order, each row's entries in storage
        #    order); sum_duplicates then sorts each coarse row (unstably)
        #    and adds runs of equal columns in order.  Everything nnz-sized
        #    is int32 and built in place: this is the compile's peak.
        row_order = np.argsort(block, kind="stable")
        lengths = row_counts[row_order]
        offsets = np.cumsum(lengths) - lengths
        placed = np.arange(indices.size, dtype=_INDEX)
        placed += np.repeat((indptr[row_order] - offsets).astype(_INDEX), lengths)
        keys = block[indices[placed]]
        placed += 1  # the 1-based payload
        cptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(block, weights=row_counts, minlength=nb).astype(np.int64),
            out=cptr[1:],
        )
        terms = sp.csr_matrix((placed, keys, cptr), shape=(nb, nb))
        del placed, keys
        terms.sort_indices()
        term_src = terms.data
        term_src -= 1
        first = np.empty(term_src.size, dtype=bool)
        first[:1] = True
        np.not_equal(terms.indices[1:], terms.indices[:-1], out=first[1:])
        first[cptr[:-1][np.diff(cptr) > 0]] = True
        entry_of_term = np.cumsum(first, dtype=_INDEX)
        entry_of_term -= 1
        canon_ptr = np.zeros(nb + 1, dtype=np.int64)
        ends = cptr[1:]
        canon_ptr[1:][ends > 0] = entry_of_term[ends[ends > 0] - 1] + 1
        canon = _payload_csr(terms.indices[first], canon_ptr, nb)
        del terms, first

        # 2. Storage order of the coarse TPM: what diags(1/mass).dot emits.
        virt = sp.diags(np.ones(nb)).dot(canon).tocsr()
        del canon
        canon_at_virt = _positions(virt)

        # 3. Storage order of its Jacobi split; diagonal entries go last.
        off, _ = _split(_payload_csr(virt.indices, virt.indptr, nb))
        off_virt = _positions(off)
        vrow = np.repeat(np.arange(nb, dtype=_INDEX), np.diff(virt.indptr))
        diag_virt = np.flatnonzero(virt.indices == vrow)
        if off_virt.size + diag_virt.size != virt.nnz:
            raise AssertionError("Jacobi split lost coarse entries")
        self.n_off = off_virt.size
        vmap = np.empty(virt.nnz, dtype=_INDEX)
        vmap[off_virt] = np.arange(self.n_off, dtype=_INDEX)
        vmap[diag_virt] = self.n_off + vrow[diag_virt]
        del off_virt, diag_virt, vrow
        slot_of_canon = np.empty(virt.nnz, dtype=_INDEX)
        slot_of_canon[canon_at_virt] = vmap
        del canon_at_virt

        self._slot = slot_of_canon[entry_of_term]
        del entry_of_term, slot_of_canon
        self._src = term_src if in_slot is None else in_slot[term_src]
        del term_src
        self._off_indices = np.asarray(off.indices, dtype=_INDEX)
        self._off_indptr = np.asarray(off.indptr, dtype=_INDEX)
        self._vmap = vmap
        self._vindices = np.asarray(virt.indices, dtype=_INDEX)
        self._vindptr = np.asarray(virt.indptr, dtype=_INDEX)
        # The CSR views handed out share these arrays: make in-place sparse
        # operations on them fail loudly instead of corrupting the plan.
        for name in ("_off_indices", "_off_indptr", "_vindices", "_vindptr"):
            getattr(self, name).setflags(write=False)

    # ------------------------------------------------------------------ #

    @property
    def n_values(self) -> int:
        """Length of the coarse value array (off-diagonals + diagonal)."""
        return self.n_off + self.n_blocks

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled maps."""
        return sum(
            getattr(self, name).nbytes
            for name in ("_src", "_slot", "_off_indices", "_off_indptr",
                         "_vmap", "_vindices", "_vindptr")
        )

    def coarse(self, data: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Coarse values ``lumped_tpm(P, partition, weights)`` in plan layout.

        ``data`` is the level operator's values: the fine CSR ``data``, or
        the parent plan's :meth:`coarse` output.
        """
        w, mass = prepare_block_weights(self.partition, weights)
        if self._in_counts is not None:
            prod = np.repeat(w, self._in_counts)
            prod *= data
        else:
            k = self._in_off_rows.size
            prod = np.empty_like(data)
            np.multiply(data[:k], w[self._in_off_rows], out=prod[:k])
            np.multiply(data[k:], w, out=prod[k:])
        prod = prod[self._src]  # summation order
        out = np.bincount(self._slot, weights=prod, minlength=self.n_values)
        inv = 1.0 / mass
        out[: self.n_off] *= inv[self._off_indices]
        out[self.n_off:] *= inv
        return out

    def split(self, values: np.ndarray) -> Tuple[sp.csr_matrix, np.ndarray]:
        """``jacobi_split`` of the coarse TPM: a zero-copy view + inverse diagonal."""
        nb = self.n_blocks
        off = sp.csr_matrix(
            (values[: self.n_off], self._off_indices, self._off_indptr),
            shape=(nb, nb),
        )
        return off, _inverse_diag(values[self.n_off:])

    def to_csr(self, values: np.ndarray) -> sp.csr_matrix:
        """The coarse TPM exactly as ``lumped_tpm`` stores it (one gather)."""
        data = values[self._vmap]
        indices, indptr = self._vindices, self._vindptr
        exact_zeros = not data.all()
        if exact_zeros:
            # eliminate_zeros compacts the index arrays in place
            indices, indptr = indices.copy(), indptr.copy()
        C = sp.csr_matrix(
            (data, indices, indptr), shape=(self.n_blocks, self.n_blocks)
        )
        if exact_zeros:
            C.eliminate_zeros()
        return C

    def __repr__(self) -> str:
        return (
            f"GalerkinPlan({self.partition.n_states}->{self.n_blocks}, "
            f"nnz={self._vindices.size}, {self.nbytes} B)"
        )
