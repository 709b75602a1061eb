"""Tests for the Markov-modulated drift builder (correlated / sinusoidal
jitter -- the paper's "correlated or cumulative jitter may also be
specified" and sinusoidal-jitter remarks, implemented with hidden states)."""

import numpy as np
import pytest

from repro.cdr import (
    PhaseGrid,
    build_cdr_chain,
    build_modulated_cdr_chain,
    bursty_drift_source,
    sinusoidal_drift_source,
)
from repro.core.measures import bit_error_rate, cycle_slip_rate
from repro.fsm import MarkovSource
from repro.markov import MarkovChain, solve_direct
from repro.noise import DiscreteDistribution, eye_opening_noise


@pytest.fixture()
def grid():
    return PhaseGrid(32)


@pytest.fixture()
def nw():
    return eye_opening_noise(0.06, n_atoms=7)


@pytest.fixture()
def nr(grid):
    return DiscreteDistribution(
        [-grid.step, 0.0, grid.step], [0.25, 0.5, 0.25]
    )


def trivial_drift():
    return MarkovSource("drift", MarkovChain(np.array([[1.0]])), emit=[0.0])


class TestSinusoidalDriftSource:
    def test_emissions_sum_to_zero_over_period(self):
        src = sinusoidal_drift_source("sj", 0.1, 16, dwell_jitter=0.0)
        assert sum(src.symbols) == pytest.approx(0.0, abs=1e-12)

    def test_accumulated_emissions_trace_sinusoid(self):
        T, A = 32, 0.2
        src = sinusoidal_drift_source("sj", A, T, dwell_jitter=0.0)
        acc = np.cumsum(src.symbols)
        assert acc.max() == pytest.approx(A, rel=1e-6)
        assert acc.min() == pytest.approx(-A, rel=0.1)

    def test_ring_rotates(self):
        src = sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=0.1)
        branches = dict(src.branches(3))
        assert branches[4] == pytest.approx(0.9)
        assert branches[3] == pytest.approx(0.1)

    def test_stationary_uniform_over_ring(self):
        src = sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=0.05)
        eta = solve_direct(src.chain.P).distribution
        np.testing.assert_allclose(eta, 1.0 / 8, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", -0.1, 8)
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", 0.1, 1)
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=1.0)


class TestBurstyDriftSource:
    def test_emissions(self):
        src = bursty_drift_source("b", 0.0, 0.02, 0.01, 0.2)
        assert src.symbols == [0.0, 0.02]

    def test_burst_occupancy(self):
        src = bursty_drift_source("b", 0.0, 0.02, 0.01, 0.2)
        eta = solve_direct(src.chain.P).distribution
        assert eta[1] == pytest.approx(0.01 / 0.21, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_drift_source("b", 0.0, 0.02, 0.0, 0.2)


class TestBuilderEquivalence:
    def test_trivial_modulation_equals_base_model(self, grid, nw, nr):
        base = build_cdr_chain(
            grid=grid, nw=nw, nr=nr, counter_length=2, phase_step_units=2,
            max_run_length=2,
        )
        mod = build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=trivial_drift(), nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )
        assert mod.n_states == base.n_states
        # One term compiler: H = 1 with zero emission multiplies unit
        # factors, so the chains agree bit for bit.
        for A, B in ((base.chain.P, mod.chain.P), (base.slip_matrix, mod.slip_matrix)):
            assert np.array_equal(A.indptr, B.indptr)
            assert np.array_equal(A.indices, B.indices)
            assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))


def enumerated_modulated_chain(grid, nw, drift_source, nr, counter_length, g,
                               data_source):
    """Dense ``(P, E)`` of the modulated chain, enumerated state by state.

    An independent reference for the builder: for every state ``(d, h, c,
    m)`` it walks every ``n_w`` atom (the detector decides on
    ``sgn(phi_m + n_w)``), emission atom, ``n_r`` atom and hidden/data
    branch, and adds the product of their probabilities to the successor.
    """
    M, N = grid.n_points, counter_length
    C, D, H = 2 * N - 1, data_source.n_states, drift_source.n_states
    nr_steps = grid.quantize_to_steps(nr)
    n = D * H * C * M
    P = np.zeros((n, n))
    E = np.zeros((n, n))
    for d in range(D):
        for h in range(H):
            emit = grid.quantize_to_steps(
                DiscreteDistribution.delta(drift_source.symbol(h))
            )
            for c in range(C):
                for m in range(M):
                    i = ((d * H + h) * C + c) * M + m
                    for w, p_w in zip(nw.values, nw.probs):
                        if data_source.symbol(d) == 1:
                            o = int(np.sign(grid.values[m] + w))
                        else:
                            o = 0
                        v = c - (N - 1) + o
                        direction = 1 if v >= N else -1 if v <= -N else 0
                        c_next = (0 if direction else v) + (N - 1)
                        for e, p_e in zip(emit.values, emit.probs):
                            for r, p_r in zip(nr_steps.values, nr_steps.probs):
                                raw = m - g * direction + int(r) + int(e)
                                m_next = raw % M
                                for h_next, p_h in drift_source.branches(h):
                                    for d_next, p_d in data_source.branches(d):
                                        j = ((d_next * H + h_next) * C + c_next) * M + m_next
                                        p = p_w * p_e * p_r * p_h * p_d
                                        P[i, j] += p
                                        if raw != m_next:
                                            E[i, j] += p
    return P, E


class TestEnumeratedReference:
    @pytest.mark.parametrize("source", ["sinusoid", "bursty"])
    def test_matches_state_by_state_enumeration(self, source):
        grid = PhaseGrid(16)
        nw = eye_opening_noise(0.08, n_atoms=5)
        nr = DiscreteDistribution([-grid.step, 0.0, grid.step], [0.3, 0.45, 0.25])
        drift = (
            sinusoidal_drift_source("sj", 0.1, 4, dwell_jitter=0.1)
            if source == "sinusoid"
            else bursty_drift_source("b", 0.0, 0.7 * grid.step, 0.2, 0.3)
        )
        model = build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=drift, nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )
        P, E = enumerated_modulated_chain(
            grid, nw, drift, nr, 2, 2, model.data_source
        )
        assert model.n_drift_states >= 2
        np.testing.assert_allclose(model.chain.P.toarray(), P, rtol=0, atol=1e-15)
        np.testing.assert_allclose(model.slip_matrix.toarray(), E, rtol=0, atol=1e-15)
        assert E.any()


class TestModulatedModel:
    @pytest.fixture()
    def model(self, grid, nw, nr):
        sj = sinusoidal_drift_source("sj", 0.1, 8)
        return build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=sj, nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )

    def test_is_stochastic(self, model):
        np.testing.assert_allclose(model.chain.row_sums(), 1.0, atol=1e-9)

    def test_state_count(self, model):
        assert model.n_states == 2 * 8 * 3 * 32
        assert model.n_drift_states == 8

    def test_state_index_layout(self, model):
        i = model.state_index(1, 3, 0, 5)
        assert i == ((1 * 8 + 3) * 3 + 1) * 32 + 5

    def test_index_validation(self, model):
        with pytest.raises(ValueError):
            model.state_index(0, 99, 0, 0)

    def test_marginals(self, model):
        eta = solve_direct(model.chain.P).distribution
        pm = model.phase_marginal(eta)
        dm = model.drift_marginal(eta)
        assert pm.sum() == pytest.approx(1.0, abs=1e-9)
        assert dm.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(dm, 1.0 / 8, atol=1e-6)

    def test_measures_work_via_duck_typing(self, model):
        eta = solve_direct(model.chain.P).distribution
        assert 0.0 <= bit_error_rate(model, eta) <= 1.0
        assert cycle_slip_rate(model, eta) >= 0.0

    def test_multigrid_partitions(self, model):
        parts = model.phase_pairing_partitions(coarsest_phase_points=8)
        assert parts[0].n_states == model.n_states
        assert parts[0].n_blocks == model.n_states // 2

    def test_multigrid_matches_direct(self, model):
        from repro.markov import solve_multigrid

        ref = solve_direct(model.chain.P).distribution
        res = solve_multigrid(
            model.chain.P, strategy=model.multigrid_strategy(),
            tol=1e-10, nu_pre=4, nu_post=4, coarsest_size=1024,
        )
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-7

    def test_validation(self, grid, nw, nr):
        with pytest.raises(ValueError, match="counter_length"):
            build_modulated_cdr_chain(
                grid=grid, nw=nw, drift_source=trivial_drift(),
                counter_length=0, phase_step_units=1,
            )
        with pytest.raises(ValueError, match="exceed the grid"):
            build_modulated_cdr_chain(
                grid=PhaseGrid(4), nw=nw,
                drift_source=sinusoidal_drift_source("sj", 0.9, 4),
                counter_length=1, phase_step_units=3,
            )


class TestJitterTrackingPhysics:
    """The reason hidden-state modulation matters: the loop tracks slow
    jitter but not fast jitter."""

    def run(self, grid, nw, nr, period):
        sj = sinusoidal_drift_source("sj", 0.12, period)
        model = build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=sj, nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )
        eta = solve_direct(model.chain.P).distribution
        return bit_error_rate(model, eta)

    def test_slow_jitter_tracked_fast_jitter_not(self, grid, nw, nr):
        # max trackable slope here is ~ G * overflow-rate ~ 0.016 UI/symbol;
        # period 64 stays below it (slope 2*pi*A/T ~ 0.012), period 4 is
        # far above (~0.19).
        slow = self.run(grid, nw, nr, period=64)
        fast = self.run(grid, nw, nr, period=4)
        assert fast > 10.0 * slow

    def test_amplitude_monotonicity(self, grid, nw, nr):
        def ber_at(amp):
            sj = sinusoidal_drift_source("sj", amp, 8)
            model = build_modulated_cdr_chain(
                grid=grid, nw=nw, drift_source=sj, nr=nr,
                counter_length=2, phase_step_units=2, max_run_length=2,
            )
            eta = solve_direct(model.chain.P).distribution
            return bit_error_rate(model, eta)

        assert ber_at(0.2) > ber_at(0.05)
