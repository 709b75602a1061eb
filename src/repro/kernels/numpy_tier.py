"""The always-available pure-NumPy kernel tier.

Reference implementation of the two kernel primitives over the plans of
:mod:`repro.kernels.plan`.  Every other tier must be bit-identical to
this one (and all tiers bit-identical to applying the assembled CSR
matrix) -- the equivalence battery in ``tests/kernels`` enforces it.

The roll kernel is a Python loop over plan segments, but each iteration
is three vectorized slice operations on contiguous ranges -- no
``np.roll`` (which allocates and concatenates) and no modular indexing.
The branch kernel uses ``np.bincount`` over pre-sorted entries, whose C
loop accumulates sequentially in element order -- the same order (and
therefore the same floating-point result) as a CSR row sum -- instead of
the far slower ``np.add.at``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

__all__ = ["bind_roll", "bind_csr"]

name = "numpy"


def bind_roll(q: np.ndarray, segs):
    """``(x, out) -> None`` accumulating one roll-plan application.

    ``x`` and ``out`` are ``(n,)`` vectors or C-contiguous ``(n, k)``
    multi-vector blocks (``out`` zero-initialized); ``q`` is the plan's
    ``(n_rows, M)`` weight table.  The segment tuples are unpacked once,
    here, and the bound call holds them and ``q``.
    """
    return partial(_roll_apply, q, segs.rows())


def bind_csr(cs):
    """``(x, out) -> None``: one branch-plan (CSR-form) application."""
    return partial(_csr_apply, cs)


def _roll_apply(q: np.ndarray, rows, x: np.ndarray, out: np.ndarray) -> None:
    M = q.shape[1]
    if x.ndim == 1:
        xb = x.reshape(-1, M)
        ob = out.reshape(-1, M)
        for orow, irow, qrow, scale, a, b, xoff, woff in rows:
            w = q[qrow, a + woff: b + woff] * scale
            w *= xb[irow, a + xoff: b + xoff]
            ob[orow, a:b] += w
    else:
        k = x.shape[1]
        xb = x.reshape(-1, M, k)
        ob = out.reshape(-1, M, k)
        for orow, irow, qrow, scale, a, b, xoff, woff in rows:
            w = q[qrow, a + woff: b + woff] * scale
            ob[orow, a:b, :] += w[:, None] * xb[irow, a + xoff: b + xoff, :]


def _csr_apply(cs, x: np.ndarray, out: np.ndarray) -> None:
    """``np.bincount`` adds the sorted entries sequentially into each bin,
    which is exactly the accumulation order of a CSR row sum.
    """
    if x.ndim == 1:
        out[:] = np.bincount(
            cs.rows, weights=cs.vals * x[cs.cols], minlength=cs.n_rows
        )
    else:
        for j in range(x.shape[1]):
            out[:, j] = np.bincount(
                cs.rows, weights=cs.vals * x[cs.cols, j], minlength=cs.n_rows
            )
