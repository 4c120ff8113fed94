"""Pulse evolution against an independent ODE integration, plus the
structural invariants of the banded pulse table."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from drsc.chain_dynamics import ChainEvolver, apply_table, cached_evolver
from drsc.cli import cmd_transfer_matrix
from drsc.config import RunConfig
from drsc.manifold import (
    ChainStep,
    CouplingChain,
    build_coupling_chain,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)
from drsc.motional import TrapParams, fock_coupling, thermal_distribution

F7 = build_coupling_chain(f7_scheme())
F8 = build_coupling_chain(f8_scheme())
TRAP = TrapParams(eta=0.07)


def dense(site_p):
    """W[i, j] = P(i -> j) from the banded table site_p[n, k] = P(n -> n - k)."""
    n_top = site_p.shape[0]
    w = np.zeros((n_top, n_top))
    for k in range(site_p.shape[1]):
        w[np.arange(k, n_top), np.arange(n_top - k)] = site_p[k:, k]
    return w


def apply_pulses(dist, evolver, times):
    p = dist.probs
    for t in times:
        p = evolver.apply_pulse(t, p)
    return p


def ode_site_populations(start_n, chain, eta, t):
    """Integrate the Schroedinger equation directly, couplings rebuilt
    from fock_coupling rather than the recurrence used by the package."""
    g = chain.couplings
    k_sites = min(len(g) + 1, start_n + 1)
    scale = fock_coupling(1, 0, eta)
    off = np.array(
        [
            0.5 * g[k] * fock_coupling(start_n - k, start_n - k - 1, eta) / scale
            for k in range(k_sites - 1)
        ]
    )
    h = np.zeros((k_sites, k_sites))
    for k in range(k_sites - 1):
        h[k, k + 1] = h[k + 1, k] = off[k]

    def rhs(_tau, psi):
        z = psi[:k_sites] + 1j * psi[k_sites:]
        dz = -1j * np.pi * (h @ z)
        return np.concatenate([dz.real, dz.imag])

    psi0 = np.zeros(2 * k_sites)
    psi0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), psi0, method="DOP853", rtol=1e-11, atol=1e-13)
    z = sol.y[:k_sites, -1] + 1j * sol.y[k_sites:, -1]
    return np.abs(z) ** 2


class TestAgainstOde:
    def test_randomized_grid(self):
        rng = np.random.default_rng(3)
        chains = [F7, F8, two_level_chain()]
        for _ in range(10):
            chain = chains[rng.integers(0, 3)]
            start_n = int(rng.integers(1, 61))
            t = float(rng.uniform(0.05, 3.0))
            eta = float(rng.uniform(0.02, 0.15))
            row = ChainEvolver(chain, TrapParams(eta=eta), start_n).site_probabilities(t)[start_n]
            ref = ode_site_populations(start_n, chain, eta, t)
            for k in range(len(ref)):
                assert row[k] == pytest.approx(ref[k], abs=1e-8)

    def test_two_level_closed_form(self):
        # start at n=1: Rabi flop at the bare rate, full transfer at t=1
        row = ChainEvolver(two_level_chain(), TRAP, 1).site_probabilities(1.0)[1]
        assert row[1] == pytest.approx(1.0, abs=1e-12)
        assert row[0] == pytest.approx(0.0, abs=1e-12)

    def test_start_zero_is_stationary(self):
        row = ChainEvolver(F7, TRAP, 0).site_probabilities(1.7)[0]
        assert row.tolist() == [1.0]


class TestTransferMatrixInvariants:
    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(17)
        chains = [F7, F8, two_level_chain()]
        for _ in range(25):
            chain = chains[rng.integers(0, 3)]
            t = float(rng.uniform(0.0, 3.0))
            eta = float(rng.uniform(0.01, 0.15))
            site_p = ChainEvolver(chain, TrapParams(eta=eta), 40).site_probabilities(t)
            np.testing.assert_allclose(site_p.sum(axis=1), 1.0, atol=1e-10)

    def test_band_structure_exact(self):
        # a start at n cannot lose more than n quanta: P(n -> n - k) = 0 for k > n
        site_p = ChainEvolver(F7, TRAP, 30).site_probabilities(0.8)
        assert site_p.shape == (31, F7.bandwidth)
        for n in range(31):
            for k in range(n + 1, F7.bandwidth):
                assert site_p[n, k] == 0.0

    def test_identity_at_zero_time(self):
        site_p = ChainEvolver(F8, TRAP, 25).site_probabilities(0.0)
        assert np.array_equal(dense(site_p), np.eye(26))

    def test_gauge_invariance_under_sign_flips(self):
        # populations cannot depend on coupling signs
        flipped = CouplingChain(
            steps=tuple(
                ChainStep(s.m_from, s.m_to, s.g * (-1.0) ** k)
                for k, s in enumerate(F7.steps)
            ),
        )
        a = ChainEvolver(F7, TRAP, 30).site_probabilities(0.9)
        b = ChainEvolver(flipped, TRAP, 30).site_probabilities(0.9)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ChainEvolver(F7, TRAP, 10).site_probabilities(-0.1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            ChainEvolver(F7, TRAP, -1)

    def test_to_banded_roundtrip(self):
        # the dense CSV and the banded JSON of one pulse hold the same entries
        cfg = RunConfig.from_dict({"transfer_matrix": {"times": [0.6], "n_max": 20}})
        files = cmd_transfer_matrix(cfg)
        w = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in files["transfer_matrix_00.csv"].splitlines()
                if not line.startswith("#")
            ]
        )
        banded = json.loads(files["transfer_matrix_00.json"])
        rebuilt = np.zeros_like(w)
        for k, band in enumerate(banded["bands"]):
            for i, v in enumerate(band):
                rebuilt[i + k, i] = v
        np.testing.assert_array_equal(rebuilt, w)
        np.testing.assert_array_equal(w, dense(ChainEvolver(F7, TRAP, 20).site_probabilities(0.6)))

    def test_cached_evolver_is_shared_and_read_only(self):
        ev = cached_evolver(F7, TRAP, 40)
        assert cached_evolver(F7, TrapParams(eta=0.07), 40) is ev
        assert cached_evolver(F7, TRAP, 41) is not ev
        for arr in (ev.w, ev.C):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        np.testing.assert_array_equal(
            ev.site_probabilities(0.7), ChainEvolver(F7, TRAP, 40).site_probabilities(0.7)
        )


class TestApplySequence:
    def test_pulses_cool_a_thermal_state(self):
        dist = thermal_distribution(5.0, 60)
        out = apply_pulses(dist, ChainEvolver(F7, TRAP, 60), [0.17] * 3)
        n = np.arange(61)
        assert n @ out < n @ dist.probs

    def test_f8_removes_more_than_f7_per_pulse(self):
        # the longer chain strips up to 15 quanta per pulse
        n0 = 20
        start = np.zeros(n0 + 1)
        start[n0] = 1.0
        row7 = ChainEvolver(F7, TRAP, n0).apply_pulse(0.169, start)
        row8 = ChainEvolver(F8, TRAP, n0).apply_pulse(0.644, start)
        n = np.arange(n0 + 1)
        assert n @ row8 < n @ row7

    def test_empty_sequence_is_identity(self):
        # no pulses, or a pulse of zero length, leaves the populations alone
        dist = thermal_distribution(2.0, 30)
        ev = ChainEvolver(F7, TRAP, 30)
        np.testing.assert_array_equal(apply_pulses(dist, ev, []), dist.probs)
        np.testing.assert_array_equal(ev.apply_pulse(0.0, dist.probs), dist.probs)

    def test_mass_is_conserved(self):
        dist = thermal_distribution(8.0, 100)
        out = apply_pulses(dist, ChainEvolver(F8, TRAP, 100), [0.64] * 5)
        assert out.sum() == pytest.approx(dist.probs.sum(), abs=1e-12)


def einsum_reference(evolver, t):
    """P and dP/dt from complex amplitudes, a = sum_j C exp(-i pi w t)."""
    phases = np.exp(-1j * np.pi * evolver.w * t)
    amps = np.einsum("nkj,nj->nk", evolver.C, phases)
    d_amps = np.einsum("nkj,nj->nk", evolver.C, -1j * np.pi * evolver.w * phases)
    return np.abs(amps) ** 2, 2.0 * np.real(np.conj(amps) * d_amps)


class TestRealKernel:
    TIMES = np.linspace(0.0, 2.5, 20)

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_both_tables_agree_bit_for_bit(self, chain):
        ev = ChainEvolver(chain, TRAP, 120)
        for t in self.TIMES:
            p, _ = ev.site_probabilities_with_derivative(t)
            assert np.array_equal(ev.site_probabilities(t), p)

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_matches_complex_reference(self, chain):
        ev = ChainEvolver(chain, TRAP, 120)
        for t in self.TIMES:
            p_ref, dp_ref = einsum_reference(ev, t)
            p, dp = ev.site_probabilities_with_derivative(t)
            np.testing.assert_allclose(ev.site_probabilities(t), p_ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(p, p_ref, rtol=0, atol=1e-14)
            # dP/dt carries a factor pi w, and its rounding with it
            np.testing.assert_allclose(dp, dp_ref, rtol=0, atol=1e-13 * np.max(np.abs(dp_ref)))

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_derivative_matches_central_differences(self, chain):
        ev = ChainEvolver(chain, TRAP, 120)
        h = 1e-6
        for t in self.TIMES[1:]:
            _, dp = ev.site_probabilities_with_derivative(t)
            fd = (ev.site_probabilities(t + h) - ev.site_probabilities(t - h)) / (2 * h)
            assert np.max(np.abs(dp - fd)) <= 1e-7 * np.max(np.abs(dp))

    def test_zero_time_derivative_vanishes(self):
        p, dp = ChainEvolver(F8, TRAP, 25).site_probabilities_with_derivative(0.0)
        assert np.array_equal(dense(p), np.eye(26))
        assert not dp.any()


class TestBatchedTables:
    # 0 included, and a count that is no multiple of the optimizers' chunk
    TIMES = np.concatenate([[0.0], np.linspace(0.02, 1.2, 12), [0.0, 2.5]])

    @pytest.mark.parametrize("chain, n_max", [(F7, 252), (F8, 400)], ids=["F7", "F8"])
    def test_stack_is_the_scalar_tables(self, chain, n_max):
        ev = cached_evolver(chain, TRAP, n_max)
        stack = ev.site_probabilities(self.TIMES)
        assert stack.shape == (len(self.TIMES), n_max + 1, ev.n_sites)
        assert np.array_equal(stack, np.stack([ev.site_probabilities(t) for t in self.TIMES]))
        assert np.array_equal(dense(stack[0]), np.eye(n_max + 1))

    def test_negative_time_in_array_rejected(self):
        with pytest.raises(ValueError, match="pulse time"):
            ChainEvolver(F7, TRAP, 10).site_probabilities(np.array([0.3, 0.0, -1e-9, 0.5]))

    def test_apply_table_broadcasts_leading_axes(self):
        ev = ChainEvolver(F8, TRAP, 60)
        stack = ev.site_probabilities(self.TIMES)
        starts = np.stack([thermal_distribution(nbar, 60).probs for nbar in (0.5, 4.0, 9.0)])
        out = apply_table(stack[:, None], starts)
        assert out.shape == (len(self.TIMES), 3, 61)
        for i, table in enumerate(stack):
            for j, start in enumerate(starts):
                assert np.array_equal(out[i, j], apply_table(table, start))
