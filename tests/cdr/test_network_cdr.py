"""Cross-validation: the literal Figure-2 FSM network (S12+S14-S17) must
agree exactly with the compiled-plan builder (S18), the one builder of
every CDR chain."""

import numpy as np
import pytest

from repro.cdr import PhaseGrid, build_cdr_chain, build_cdr_network, compile_cdr_network
from repro.markov import (
    solve_direct,
    stationary_event_rate,
)
from repro.noise import DiscreteDistribution


def tiny_params():
    grid = PhaseGrid(16)
    return dict(
        grid=grid,
        nw=DiscreteDistribution([-0.1, 0.0, 0.1], [0.25, 0.5, 0.25]),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.55, 0.25]
        ),
        counter_length=2,
        phase_step_units=3,
        transition_density=0.5,
        max_run_length=2,
    )


@pytest.fixture(scope="module")
def pair():
    params = tiny_params()
    model = build_cdr_chain(**params)
    nc = compile_cdr_network(**params)
    return params, model, nc


def network_phase_marginal(nc, grid):
    """Phase marginal of the network chain from its state labels.

    Label layout: (data_h, nw_h, nr_h, pd_state, counter_state, phase_idx).
    """
    eta = solve_direct(nc.chain.P).distribution
    marg = np.zeros(grid.n_points)
    for i, lab in enumerate(nc.chain.state_labels):
        marg[lab[-1]] += eta[i]
    return marg


class TestAgreement:
    def test_phase_marginals_identical(self, pair):
        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        pdf_model = model.phase_marginal(eta_model)
        pdf_net = network_phase_marginal(nc, params["grid"])
        np.testing.assert_allclose(pdf_net, pdf_model, atol=1e-9)

    def test_slip_rates_identical(self, pair):
        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        rate_model = stationary_event_rate(eta_model, model.slip_matrix)
        eta_net = solve_direct(nc.chain.P).distribution
        rate_net = stationary_event_rate(eta_net, nc.event_matrices["slip"])
        assert rate_net == pytest.approx(rate_model, rel=1e-8, abs=1e-12)

    def test_decision_error_rate_matches_discrete_ber(self, pair):
        from repro.core.measures import bit_error_rate_discrete

        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        ber_model = bit_error_rate_discrete(model, eta_model)
        eta_net = solve_direct(nc.chain.P).distribution
        ber_net = stationary_event_rate(
            eta_net, nc.event_matrices["decision-error"]
        )
        assert ber_net == pytest.approx(ber_model, rel=1e-8, abs=1e-12)

    def test_network_is_bigger_but_equivalent(self, pair):
        """The network carries the noise hidden states explicitly, so its
        state space strictly contains the vectorized model's information."""
        params, model, nc = pair
        assert nc.n_states > model.n_states


def config_params(name):
    """Small configurations that stress different parts of the term
    compiler against the network oracle."""
    grid = PhaseGrid(16)
    params = tiny_params()
    step = grid.step
    if name == "saturating-counter":
        # N = 1: every decision saturates the counter at once, so
        # different decision masses coalesce onto one (src, dst, shift).
        params.update(
            counter_length=1,
            phase_step_units=1,
            nr=DiscreteDistribution([-step, 0.0, step], [0.3, 0.4, 0.3]),
        )
    elif name == "wide-step-wrap":
        # G = 2 with drift on a short grid: many moves wrap (cycle slips).
        params.update(
            grid=PhaseGrid(12),
            phase_step_units=2,
            nr=DiscreteDistribution(
                [-PhaseGrid(12).step, 0.0, PhaseGrid(12).step], [0.3, 0.3, 0.4]
            ),
        )
    elif name == "asymmetric-drift":
        params.update(
            nr=DiscreteDistribution(
                [-step, 0.0, step, 2 * step], [0.1, 0.4, 0.3, 0.2]
            ),
            phase_step_units=2,
        )
    return params


@pytest.mark.parametrize(
    "name", ["saturating-counter", "wide-step-wrap", "asymmetric-drift"]
)
def test_configuration_matches_network(name):
    from repro.core.measures import bit_error_rate_discrete

    params = config_params(name)
    model = build_cdr_chain(**params)
    nc = compile_cdr_network(**params)
    eta_model = solve_direct(model.chain.P).distribution
    eta_net = solve_direct(nc.chain.P).distribution
    np.testing.assert_allclose(
        network_phase_marginal(nc, params["grid"]),
        model.phase_marginal(eta_model),
        atol=1e-9,
    )
    rate_model = stationary_event_rate(eta_model, model.slip_matrix)
    rate_net = stationary_event_rate(eta_net, nc.event_matrices["slip"])
    assert rate_model > 0.0
    assert rate_net == pytest.approx(rate_model, rel=1e-8, abs=1e-12)
    ber_net = stationary_event_rate(eta_net, nc.event_matrices["decision-error"])
    assert ber_net == pytest.approx(
        bit_error_rate_discrete(model, eta_model), rel=1e-8, abs=1e-12
    )


class TestNetworkStructure:
    def test_component_wiring(self):
        net = build_cdr_network(**tiny_params())
        assert net.source_names == ["data", "nw", "nr"]
        assert net.machine_names == ["pd", "counter", "phase"]

    def test_events_registered(self):
        net = build_cdr_network(**tiny_params())
        nc = net.compile()
        assert set(nc.event_matrices) == {"slip", "decision-error"}

    def test_simulation_runs(self):
        rng = np.random.default_rng(0)
        net = build_cdr_network(**tiny_params())
        envs = net.simulate(50, rng)
        assert len(envs) == 50
        assert all("phase" in e and "pd" in e for e in envs)
