"""The optional numba kernel tier (available when numba is importable).

Same two primitives as the other tiers, expressed as ``@njit`` loops.
``fastmath`` stays off (the default): fast-math licenses reassociation
and FMA contraction, either of which would change the rounding sequence
and break the bit-identity invariant against the NumPy tier and the
assembled CSR matrix.  ``cache=True`` persists the compiled machine code
next to this module, so the JIT cost is paid once per environment.

The repository never installs numba itself -- this tier activates only
when the surrounding environment provides it (the CI ``kernels`` job
runs the equivalence battery both with and without it).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["load_tier", "import_error", "bind_roll", "bind_csr"]

name = "numba"

_compiled = None
_load_attempted = False
#: Why the tier is unavailable (None when loaded or untried).
import_error: Optional[str] = None


def _compile():
    import numba

    @numba.njit(cache=True, fastmath=False)
    def roll_apply_kernel(q, scale, orow, irow, qrow, a, b, xoff, woff,
                          x, out, m_pts, nvec):  # pragma: no cover - jitted
        nseg = orow.shape[0]
        for k in range(nseg):
            s = scale[k]
            wbase = qrow[k] * m_pts + a[k] + woff[k]
            xbase = (irow[k] * m_pts + a[k] + xoff[k]) * nvec
            obase = (orow[k] * m_pts + a[k]) * nvec
            length = b[k] - a[k]
            if nvec == 1:
                for m in range(length):
                    out[obase + m] += (s * q[wbase + m]) * x[xbase + m]
            else:
                for m in range(length):
                    wm = s * q[wbase + m]
                    xr = xbase + m * nvec
                    orr = obase + m * nvec
                    for j in range(nvec):
                        out[orr + j] += wm * x[xr + j]

    @numba.njit(cache=True, fastmath=False)
    def csr_apply_kernel(vals, cols, indptr, x, out, nvec):  # pragma: no cover - jitted
        nrows = indptr.shape[0] - 1
        if nvec == 1:
            for i in range(nrows):
                acc = 0.0
                for jj in range(indptr[i], indptr[i + 1]):
                    acc += vals[jj] * x[cols[jj]]
                out[i] = acc
        else:
            for i in range(nrows):
                obase = i * nvec
                for jj in range(indptr[i], indptr[i + 1]):
                    v = vals[jj]
                    xbase = cols[jj] * nvec
                    for j in range(nvec):
                        out[obase + j] += v * x[xbase + j]

    return roll_apply_kernel, csr_apply_kernel


def load_tier():
    """This module as a kernel tier, or None when numba is missing."""
    global _compiled, _load_attempted, import_error
    if not _load_attempted:
        _load_attempted = True
        try:
            _compiled = _compile()
        except Exception as exc:  # ImportError or jit failure
            import_error = str(exc)
            _compiled = None
    if _compiled is None:
        return None
    import sys

    return sys.modules[__name__]


def bind_roll(q: np.ndarray, segs):
    """``(x, out) -> None`` accumulating one roll-plan application."""
    kernel = _compiled[0]
    fixed = (
        q.ravel(), segs.scale, segs.orow, segs.irow, segs.qrow,
        segs.a, segs.b, segs.xoff, segs.woff,
    )
    m_pts = q.shape[1]

    def apply(x: np.ndarray, out: np.ndarray) -> None:
        nvec = 1 if x.ndim == 1 else x.shape[1]
        kernel(*fixed, x.ravel(), out.reshape(-1), m_pts, nvec)

    return apply


def bind_csr(cs):
    """``(x, out) -> None``: one branch-plan (CSR-form) application."""
    kernel = _compiled[1]
    vals, cols, indptr = cs.vals, cs.cols, cs.indptr

    def apply(x: np.ndarray, out: np.ndarray) -> None:
        nvec = 1 if x.ndim == 1 else x.shape[1]
        kernel(vals, cols, indptr, x.ravel(), out.reshape(-1), nvec)

    return apply
