"""Heating walk against a direct rate-equation integration, and the
optical-pumping absorbing chain against its fundamental matrix."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from drsc import heating, thermometry
from drsc.cooling import PulseSequence
from drsc.heating import (
    DEFAULT_CHANNEL_RATES,
    Beam,
    PumpingGraph,
    build_pumping_graph,
    default_beams,
    monte_carlo_steps,
    propagate_heating,
    recoil_heating_estimate,
    steps_to_dark,
)
from drsc.manifold import build_coupling_chain, f7_scheme, f8_scheme
from drsc.motional import PhononDistribution, TrapParams, mean_n, thermal_distribution
from drsc.thermometry import PulseTiming, end_to_end_protocol


def rate_equation_reference(dist, rate, duration):
    """Stiff ODE integration of the same ladder rate equations."""
    n_max = dist.n_max
    i = np.arange(n_max + 1, dtype=float)

    def rhs(_t, p):
        dp = np.zeros_like(p)
        dp -= rate * (2 * i + 1) * p
        dp[1:] += rate * i[1:] * p[:-1]
        dp[:-1] += rate * i[1:] * p[1:]
        return dp

    sol = solve_ivp(
        rhs, (0.0, duration), dist.probs, method="Radau", rtol=1e-10, atol=1e-13
    )
    return sol.y[:, -1]


class TestPropagateHeating:
    def test_mean_grows_at_diffusion_rate(self):
        # d<n>/dt = A+ for a diffusive walk, within 1% over one second
        rate = 5.58
        dist = thermal_distribution(1.0, 400)
        out = propagate_heating(dist, rate * 1.0)
        gained = mean_n(out) - mean_n(dist)
        assert gained == pytest.approx(rate, rel=0.01)

    @pytest.mark.parametrize(
        "rate, n_max, duration",
        [(5.58, 150, 0.3), (5.58, 400, 1.0)],
        ids=["diffusive-n150", "diffusive-n400"],
    )
    def test_matches_radau_per_bin(self, rate, n_max, duration):
        dist = thermal_distribution(2.0, n_max)
        out = propagate_heating(dist, rate * duration)
        ref = rate_equation_reference(dist, rate, duration)
        assert np.max(np.abs(out.probs - ref)) <= 1e-9

    def test_hot_protocol_stays_nonnegative_and_never_gains_mass(self, monkeypatch):
        # 150 cycles of F8 from nbar 40 at n_max 400, delay included
        steps = []

        def recorded(dist, dose):
            out = propagate_heating(dist, dose)
            steps.append((float(dist.probs.sum()), out.probs))
            return out

        monkeypatch.setattr(thermometry, "propagate_heating", recorded)
        end_to_end_protocol(
            build_coupling_chain(f8_scheme()),
            TrapParams(eta=0.07),
            PulseSequence(times=(0.645,) * 150, strategy="fixed"),
            thermal_distribution(40.0, 400),
            heating_rates=dict(DEFAULT_CHANNEL_RATES),
            timing=PulseTiming(pre_probe_delay_seconds=0.02),
        )
        assert len(steps) == 150 + 1
        for mass_in, probs in steps:
            assert probs.min() >= 0.0
            assert probs.sum() <= mass_in + 1e-13

    def test_one_eigendecomposition_per_n_max(self):
        heating._unit_diffusion_eigensystem.cache_clear()
        chain = build_coupling_chain(f7_scheme())
        timing = PulseTiming(pre_probe_delay_seconds=0.01)
        for n_max in (60, 80):
            end_to_end_protocol(
                chain,
                TrapParams(eta=0.07),
                PulseSequence(times=(0.2,) * 3, strategy="fixed"),
                thermal_distribution(1.0, n_max),
                heating_rates=dict(DEFAULT_CHANNEL_RATES),
                timing=timing,
            )
        info = heating._unit_diffusion_eigensystem.cache_info()
        # every cycle's dose and the delay's share one decomposition per n_max
        assert info.misses == 2
        assert info.hits == 2 * (3 + 1) - 2

    def test_large_negative_entry_raises(self, monkeypatch):
        lam, vecs = heating._unit_diffusion_eigensystem(50)
        # a generator run backward sharpens the state into large negatives
        monkeypatch.setattr(heating, "_unit_diffusion_eigensystem", lambda n_max: (-lam, vecs))
        with pytest.raises(FloatingPointError, match="heating propagator"):
            propagate_heating(thermal_distribution(2.0, 50), 1.0 * 0.1)

    def test_zero_duration_is_identity(self):
        dist = thermal_distribution(1.0, 50)
        assert propagate_heating(dist, 5.0 * 0.0) is dist
        assert propagate_heating(dist, 0.0 * 1.0) is dist

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="dose"):
            propagate_heating(thermal_distribution(1.0, 50), -1.0 * 0.1)

    def test_leak_appears_as_tail_loss(self):
        dist = PhononDistribution(probs=np.r_[np.zeros(30), 1.0], n_max=30)
        out = propagate_heating(dist, 2.0 * 0.5)
        assert out.tail_loss > 0.0

    @pytest.mark.parametrize("rate, duration", [(5.58, 1e6), (1e300, 0.015)])
    def test_emptied_ladder_is_a_numerical_failure(self, rate, duration):
        with pytest.raises(FloatingPointError, match="tail loss"):
            propagate_heating(thermal_distribution(1.0, 50), rate * duration)

    @pytest.mark.parametrize("n_max", [252, 400])
    def test_matches_tridiagonal_eigensolver(self, n_max):
        # the dense eigh of the generator against LAPACK's tridiagonal solver,
        # at the default rates over a 0.3 pi-time pulse, a repump and a delay
        n = np.arange(n_max + 1, dtype=float)
        lam, vecs = eigh_tridiagonal(-(2.0 * n + 1.0), n[1:])
        rates = DEFAULT_CHANNEL_RATES
        timing = PulseTiming()
        intervals = [
            (rates["raman"] + rates["trap"], 0.3 * timing.t_f_seconds),
            (rates["optical_pumping"] + rates["trap"], timing.repump_seconds),
            (rates["trap"], 0.001),
        ]
        for nbar in (0.05, 6.08, 40.0):
            dist = thermal_distribution(nbar, n_max)
            for rate, duration in intervals:
                ref = vecs @ (np.exp(rate * duration * lam) * (vecs.T @ dist.probs))
                out = propagate_heating(dist, rate * duration)
                assert np.max(np.abs(out.probs - np.maximum(ref, 0.0))) <= 1e-15

    @pytest.mark.parametrize("n_max", [252, 400])
    def test_doses_compose_by_adding(self, n_max):
        # the default pulse (0.3 pi-times) and repump doses, applied in turn
        # and as one summed dose
        rates = DEFAULT_CHANNEL_RATES
        timing = PulseTiming()
        a = (rates["raman"] + rates["trap"]) * (0.3 * timing.t_f_seconds)
        b = (rates["optical_pumping"] + rates["trap"]) * timing.repump_seconds
        for nbar in (0.05, 6.08, 40.0):
            dist = thermal_distribution(nbar, n_max)
            twice = propagate_heating(propagate_heating(dist, a), b)
            once = propagate_heating(dist, a + b)
            assert np.max(np.abs(twice.probs - once.probs)) <= 1e-15


class TestPumpingGraph:
    def test_state_count_and_absorbing(self):
        graph = build_pumping_graph()
        assert len(graph.states) == 13 + 15 + 17
        assert graph.absorbing == (7, 0)
        # the dark state scatters no photons, so its row is empty
        assert graph.step_matrix[graph.index((7, 0))].sum() == 0.0

    def test_rows_stochastic(self):
        graph = build_pumping_graph()
        sums = graph.step_matrix.sum(axis=1)
        dark = graph.index((7, 0))
        keep = np.arange(len(graph.states)) != dark
        np.testing.assert_allclose(sums[keep], 1.0, atol=1e-12)

    def test_uniform_mean_steps(self):
        graph = build_pumping_graph()
        assert steps_to_dark(graph).mean() == pytest.approx(69.2726, abs=1e-3)

    def test_mean_steps_from_neighbors(self):
        graph = build_pumping_graph()
        steps = steps_to_dark(graph)
        assert steps[graph.index((7, 1))] == pytest.approx(41.4598, abs=1e-3)
        assert steps[graph.index((7, -1))] == pytest.approx(
            steps[graph.index((7, 1))], abs=1e-9
        )

    def test_dark_state_needs_no_steps(self):
        graph = build_pumping_graph()
        assert steps_to_dark(graph)[graph.index((7, 0))] == 0.0

    def test_monte_carlo_consistent(self):
        graph = build_pumping_graph()
        exact = steps_to_dark(graph).mean()
        mc_mean, mc_stderr = monte_carlo_steps(graph, 20_000, seed=5)
        assert abs(mc_mean - exact) < 3 * mc_stderr + 1e-9

    def test_monte_carlo_deterministic_per_seed(self):
        graph = build_pumping_graph()
        a = monte_carlo_steps(graph, 5_000, seed=9)
        b = monte_carlo_steps(graph, 5_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("n_trajectories", [0, -1])
    def test_monte_carlo_rejects_an_empty_run(self, n_trajectories):
        with pytest.raises(ValueError, match="n_trajectories"):
            monte_carlo_steps(build_pumping_graph(), n_trajectories)

    def test_monte_carlo_law_across_blocks(self):
        # both transient states enter the dark state with p = 0.02 per step,
        # so absorption times are geometric (mean 50) and run many blocks long
        p = 0.02
        graph = PumpingGraph(
            states=((0, 0), (0, 1), (0, 2)),
            absorbing=(0, 2),
            beams=(),
            step_matrix=np.array([[0.5, 0.48, p], [0.7, 0.28, p], [0.0, 0.0, 0.0]]),
        )
        n = 1_000_000
        moving = n - n // 3  # the dark state is last, so it gets no extra walker
        mean = moving / n / p
        var = moving / n * (2 - p) / p**2 - mean**2
        mc_mean, mc_stderr = monte_carlo_steps(graph, n, seed=1)
        assert abs(mc_mean - mean) < 4 * mc_stderr
        assert mc_stderr == pytest.approx(np.sqrt(var / n), rel=0.02)

    def test_monte_carlo_step_cap(self):
        leak = 1e-6
        graph = PumpingGraph(
            states=((0, 0), (0, 1)),
            absorbing=(0, 1),
            beams=(),
            step_matrix=np.array([[1 - leak, leak], [0.0, 0.0]]),
        )
        with pytest.raises(RuntimeError, match="walkers not absorbed after 100000 steps"):
            monte_carlo_steps(graph, 1000)

    def test_missing_repump_beam_is_detected(self):
        # without the F=6 repump the F=6 manifold cannot reach the dark state
        beams = tuple(b for b in default_beams() if b.f_ground != 6)
        graph = build_pumping_graph(beams)
        with pytest.raises(RuntimeError, match="absorption unreachable"):
            steps_to_dark(graph)

    def test_absorbing_state_must_be_dark(self):
        # a sigma+ beam on F=7 drives (7, 0), so it cannot absorb
        beams = (
            Beam(label="D_sig", f_ground=7, polarization="sigma_plus"),
            Beam(label="D6", f_ground=6, polarization="sigma_pm"),
            Beam(label="D8", f_ground=8, polarization="sigma_pm"),
        )
        with pytest.raises(ValueError):
            build_pumping_graph(beams)

    def test_sigma_pm_weight_split(self):
        comps = Beam(label="x", f_ground=6, polarization="sigma_pm", weight=1.0).components()
        assert sorted(comps) == [(-1, 0.5), (1, 0.5)]


class TestRecoilEstimate:
    def test_optical_pumping_scale(self):
        est = recoil_heating_estimate(41.0, 62.1, 0.07, geometry=1 / 3)
        assert est == pytest.approx(4.159, abs=0.01)

    def test_raman_scale(self):
        est = recoil_heating_estimate(7.35, 62.1, 0.07, geometry=1 / 3)
        assert est == pytest.approx(0.745, abs=0.01)

    def test_default_rates_table(self):
        assert set(DEFAULT_CHANNEL_RATES) == {"optical_pumping", "raman", "trap"}
