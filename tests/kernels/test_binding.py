"""Bound kernel calls: fixed plan arguments marshalled once, safely.

Each tier binds a plan's fixed arguments (index arrays, weights, counts)
when the operator is built, so an apply hands the kernel only its input
and output.  These tests pin that contract by counting, not timing:

* after construction, the cext tier's applies make no ``ctypes.cast``
  and no ``data_as`` call;
* a bound call keeps the arrays it points at alive -- it stays bitwise
  equal to the assembled matrix after every other reference to the plan
  is gone and the collector has run;
* plan arrays are read-only, so a bound address cannot go stale through
  an in-place write or a resize.
"""

import ctypes
import gc

import numpy as np
import pytest

from repro.kernels import available_tiers, use_tier
from repro.kernels.plan import BranchPlan, RollPlan

from .test_no_copy import small_cdr_operator

pytestmark = [pytest.mark.operator]

TIERS = available_tiers()


def small_branch_operator():
    from repro.scenarios.operator import BranchSumOperator

    n = 40
    rng = np.random.default_rng(11)
    w = rng.random((3, n))
    w /= w.sum(axis=0)
    return BranchSumOperator(n, [(w[b], rng.integers(0, n, n)) for b in range(3)])


BUILDERS = {"cdr": small_cdr_operator, "branch": small_branch_operator}


def all_applies(op, x, X):
    return [op.rmatvec(x), op.matvec(x), op.rmatmat(X), op.matmat(X)]


@pytest.mark.skipif("cext" not in TIERS, reason="cext tier unavailable")
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_cext_applies_make_no_pointer_casts(kind, monkeypatch):
    with use_tier("cext"):
        op = BUILDERS[kind]()
    rng = np.random.default_rng(0)
    x = rng.random(op.n)
    X = np.ascontiguousarray(rng.random((op.n, 3)))
    frozen = x.copy()
    frozen.flags.writeable = False
    expected = all_applies(op, x, X)

    counts = {"cast": 0, "data_as": 0}
    real_cast = ctypes.cast
    ctypes_helper = type(x.ctypes)
    real_data_as = ctypes_helper.data_as

    def counting_cast(*args, **kwargs):
        counts["cast"] += 1
        return real_cast(*args, **kwargs)

    def counting_data_as(self, *args, **kwargs):
        counts["data_as"] += 1
        return real_data_as(self, *args, **kwargs)

    monkeypatch.setattr(ctypes, "cast", counting_cast)
    monkeypatch.setattr(ctypes_helper, "data_as", counting_data_as)
    got = all_applies(op, x, X)
    got += all_applies(op, frozen, X)  # read-only input, other pointer route
    assert counts == {"cast": 0, "data_as": 0}
    for a, b in zip(got, expected + expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_bound_apply_outlives_every_other_reference(tier, kind):
    with use_tier(tier):
        op = BUILDERS[kind]()
    P = op.to_csr()
    PT = P.T.tocsr()
    n = op.n
    scatter, gather = op._scatter, op._gather
    del op
    gc.collect()
    # Churn the allocator so freed plan memory would be reused and
    # overwritten if a bound call no longer held its arrays.
    junk = [np.full(2**k, np.nan) for k in range(3, 13) for _ in range(8)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.random(n)
        out = np.zeros(n)
        scatter(x, out)
        assert np.array_equal(out, PT @ x)
        out = np.zeros(n)
        gather(x, out)
        assert np.array_equal(out, P @ x)
    del junk


def plan_arrays(plan):
    if isinstance(plan, RollPlan):
        yield from (plan.q, plan.src, plan.dst, plan.shift, plan.qrow, plan.scale)
        for segs in (plan.scatter, plan.gather):
            yield from (segs.orow, segs.irow, segs.qrow, segs.scale,
                        segs.a, segs.b, segs.xoff, segs.woff)
    else:
        assert isinstance(plan, BranchPlan)
        for cs in (plan.gather, plan.scatter):
            yield from (cs.indptr, cs.cols, cs.vals, cs.rows)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_plan_arrays_are_read_only(kind):
    op = BUILDERS[kind]()
    arrays = list(plan_arrays(op._plan))
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
        with pytest.raises(ValueError):
            arr.resize(arr.size + 1)
