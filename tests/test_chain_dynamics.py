"""Pulse evolution against an independent ODE integration and a 30-digit
row exponential, plus the structural invariants of the banded pulse table."""

import hashlib
import json

import mpmath
import numpy as np
import pytest
from reference import apply_pulse, apply_table, ode_site_populations

from drsc.chain_dynamics import (
    ChainEvolver,
    _BandSum,
    _cos_sin,
    _PulseTables,
    cached_evolver,
)
from drsc.cli import cmd_transfer_matrix
from drsc.config import _MAX_PULSE_TIME, RunConfig
from drsc.cooling import (
    _T_GRID_POINTS,
    _T_SEED_POINTS,
    _grid_scan,
    _log_suppression,
    _Workspace,
    asymptotic_window,
)
from drsc.manifold import (
    ChainStep,
    CouplingChain,
    build_coupling_chain,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)
from drsc.motional import TrapParams, sideband_coupling_ratios, thermal_distribution

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


def band_loop_apply(site_p, probs):
    """Reference for one table on one vector, band by band; it reads only
    the entries with k <= n."""
    out = np.zeros_like(probs)
    for k in range(site_p.shape[1]):
        out[: len(probs) - k] += site_p[k:, k] * probs[k:]
    return out


def band_loop_transposed(site_p, lam):
    """Reference for the adjoint's step, out[j] = sum_k site_p[j, k]
    lam[j - k], band by band."""
    out = np.zeros_like(lam)
    for k in range(site_p.shape[1]):
        out[k:] += site_p[k:, k] * lam[: len(lam) - k]
    return out


def lam_bands(lam, n_sites):
    """bands[k, j] = lam[j - k], zero for k > j: the adjoint's window view."""
    bands = np.zeros((n_sites, len(lam)))
    for k in range(n_sites):
        bands[k, k:] = lam[: len(lam) - k]
    return bands


def band_sum_transposed(site_p, lam):
    """_BandSum.transposed of one table on one vector, into a new array."""
    out = np.empty_like(lam)
    _BandSum(*site_p.shape).transposed(site_p, lam_bands(lam, site_p.shape[1]), out)
    return out


def apply_pulses(dist, evolver, times):
    p = dist.probs
    for t in times:
        p = apply_pulse(evolver, t, p)
    return p


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
        row7 = apply_pulse(ChainEvolver(F7, TRAP, n0), 0.169, start)
        row8 = apply_pulse(ChainEvolver(F8, TRAP, n0), 0.644, start)
        n = np.arange(n0 + 1)
        assert n @ row8 < n @ row7

    def test_empty_sequence_is_identity(self):
        # no pulses, or a pulse of zero length, leaves the populations alone
        dist = thermal_distribution(2.0, 30)
        ev = ChainEvolver(F7, TRAP, 30)
        np.testing.assert_array_equal(apply_pulses(dist, ev, []), dist.probs)
        np.testing.assert_array_equal(apply_pulse(ev, 0.0, dist.probs), dist.probs)

    def test_mass_is_conserved(self):
        dist = thermal_distribution(8.0, 100)
        out = apply_pulses(dist, ChainEvolver(F8, TRAP, 100), [0.64] * 5)
        assert out.sum() == pytest.approx(dist.probs.sum(), abs=1e-12)


def einsum_reference(evolver, t):
    """P and dP/dt from complex exponentials of the sublattice modes.

    Each singular triplet of the even-to-odd block gives the two
    eigenmodes +-w of the chain; both enter the even sites with the cos
    weights C[..., :M] and the odd sites, with opposite signs, with the
    sin weights C[..., M:], so a = sum_j C_cos (e^{-ix} + e^{ix}) / 2 +
    C_sin (e^{-ix} - e^{ix}) / 2 with x = pi w t.
    """
    m = evolver.w.shape[1]
    down, up = np.exp(-1j * np.pi * evolver.w * t), np.exp(1j * np.pi * evolver.w * t)
    c_cos, c_sin = evolver.C[..., :m], evolver.C[..., m:]
    amps = np.einsum("nkj,nj->nk", c_cos, (down + up) / 2) + np.einsum(
        "nkj,nj->nk", c_sin, (down - up) / 2
    )
    rate = -1j * np.pi * evolver.w
    d_amps = np.einsum("nkj,nj->nk", c_cos, rate * (down - up) / 2) + np.einsum(
        "nkj,nj->nk", c_sin, rate * (down + up) / 2
    )
    return np.abs(amps) ** 2, 2.0 * np.real(np.conj(amps) * d_amps)


def mpmath_rows(chain, n_max, rows, times):
    """P[n, k] for the given start rows and pulse times from the full k x k
    Hamiltonian, diagonalized by mpmath at 30 digits; one (len(times),
    len(rows), sites) array, zero past each row's chain."""
    g = chain.couplings
    ratios = sideband_coupling_ratios(n_max, TRAP.eta)
    n_sites = min(len(g) + 1, n_max + 1)
    out = np.zeros((len(times), len(rows), n_sites))
    with mpmath.workdps(30):
        for r, n in enumerate(rows):
            k = min(n_sites, n + 1)
            h = mpmath.zeros(k, k)
            for i in range(k - 1):
                h[i, i + 1] = h[i + 1, i] = mpmath.mpf(0.5 * g[i]) * mpmath.mpf(ratios[n - i])
            energies, vecs = mpmath.eigsy(h)
            for s, t in enumerate(times):
                phases = [mpmath.expjpi(-energies[j] * mpmath.mpf(t)) for j in range(k)]
                for site in range(k):
                    amp = mpmath.fsum(vecs[site, j] * vecs[0, j] * phases[j] for j in range(k))
                    out[s, r, site] = float(abs(amp) ** 2)
    return out


# hand-built chains the shipped schemes never reach: odd length, and a
# zero coupling that cuts the chain (degenerate singular values)
FIVE_SITES = CouplingChain(
    steps=tuple(ChainStep(-k, -k - 1, g) for k, g in enumerate([1.0, 1.3, 0.7, 1.9]))
)
CUT = CouplingChain(
    steps=tuple(ChainStep(-k, -k - 1, g) for k, g in enumerate([1.0, 0.8, 0.0, 1.2, 0.5]))
)


def kernel_tables(evolver, times, derivative=True):
    """P and dP/dt (None without derivative) of one _PulseTables batch."""
    return _PulseTables(evolver, len(times), derivative)(np.asarray(times, dtype=float))


class TestRealKernel:
    """The one-time tables and the kernel's derivative against the
    independent complex-exponential and mpmath references."""

    TIMES = np.linspace(0.0, 2.5, 20)

    @pytest.mark.parametrize("n_pulses", [1, 12])
    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_both_tables_agree_bit_for_bit(self, chain, n_pulses):
        # P from the GEMM over C alone and over C stacked on D
        ev = ChainEvolver(chain, TRAP, 120)
        for i in range(0, len(self.TIMES) - n_pulses + 1, n_pulses):
            times = self.TIMES[i : i + n_pulses]
            p, _ = kernel_tables(ev, times, derivative=False)
            assert np.array_equal(kernel_tables(ev, times)[0], p)

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_matches_complex_reference(self, chain):
        ev = ChainEvolver(chain, TRAP, 120)
        for t in self.TIMES:
            p_ref, dp_ref = einsum_reference(ev, t)
            (p,), (dp,) = kernel_tables(ev, [t])
            np.testing.assert_allclose(ev.site_probabilities(t), p_ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(p, p_ref, rtol=0, atol=1e-14)
            # dP/dt carries a factor pi w, and its rounding with it
            np.testing.assert_allclose(dp, dp_ref, rtol=0, atol=1e-13 * np.max(np.abs(dp_ref)))

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_derivative_matches_central_differences(self, chain):
        ev = ChainEvolver(chain, TRAP, 120)
        h = 1e-6
        _, dps = kernel_tables(ev, self.TIMES[1:])
        for t, dp in zip(self.TIMES[1:], dps):
            fd = (ev.site_probabilities(t + h) - ev.site_probabilities(t - h)) / (2 * h)
            assert np.max(np.abs(dp - fd)) <= 1e-7 * np.max(np.abs(dp))

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_matches_mpmath_exponential(self, chain):
        # every third row up to n_max 120, at the optimizers' times and past them
        times = [0.17, 0.65, 1.2, 2.5]
        rows = list(range(0, 121, 3))
        ref = mpmath_rows(chain, 120, rows, times)
        ev = ChainEvolver(chain, TRAP, 120)
        one_time = np.stack([ev.site_probabilities(t) for t in times])
        np.testing.assert_allclose(one_time[:, rows], ref, rtol=0, atol=2e-14)
        np.testing.assert_allclose(kernel_tables(ev, times)[0][:, rows], ref, rtol=0, atol=2e-14)

    @pytest.mark.parametrize(
        "chain",
        [FIVE_SITES, CUT, two_level_chain()],
        ids=["five-sites", "zero-coupling", "two-level"],
    )
    def test_odd_and_degenerate_chains(self, chain):
        times = [0.0, 0.3, 1.1, 2.5]
        ev = ChainEvolver(chain, TRAP, 40)
        ref = mpmath_rows(chain, 40, range(41), times)
        for site_p in (np.stack([ev.site_probabilities(t) for t in times]), kernel_tables(ev, times)[0]):
            np.testing.assert_allclose(site_p, ref, rtol=0, atol=2e-14)
            np.testing.assert_allclose(site_p.sum(axis=-1), 1.0, rtol=0, atol=1e-13)

    def test_zero_time_derivative_vanishes(self):
        (p,), (dp,) = kernel_tables(ChainEvolver(F8, TRAP, 25), [0.0])
        assert np.array_equal(dense(p), np.eye(26))
        assert not dp.any()

    @pytest.mark.parametrize("chain", [F7, F8, two_level_chain()], ids=["F7", "F8", "two-level"])
    def test_curvature_matches_central_differences(self, chain):
        # d^2P/dt^2 of the order-2 call against dP/dt of one-time calls,
        # from the optimizers' lower bound on
        ev = ChainEvolver(chain, TRAP, 120)
        times = np.concatenate([[1e-6, 3e-6], self.TIMES[1:]])
        _, _, d2ps = _PulseTables(ev, len(times))(times, curvature=True)
        h = 1e-6
        for t, d2p in zip(times, d2ps):
            fd = (kernel_tables(ev, [t + h])[1][0] - kernel_tables(ev, [t - h])[1][0]) / (2 * h)
            assert np.max(np.abs(d2p - fd)) <= 1e-7 * np.max(np.abs(d2p))

    @pytest.mark.parametrize("chain", [F7, F8, two_level_chain()], ids=["F7", "F8", "two-level"])
    def test_zero_time_curvature_is_the_true_one(self, chain):
        # P is the identity and dP/dt = 0 there, but d^2P/dt^2 is not: site 0
        # loses what the odd sites gain, against a forward difference of dP/dt
        ev = ChainEvolver(chain, TRAP, 40)
        (p,), (dp,), (d2p,) = _PulseTables(ev, 1)(np.zeros(1), curvature=True)
        assert np.array_equal(dense(p), np.eye(41))
        assert not dp.any()
        assert d2p[1:, 0].max() < 0 and d2p[1:, 1].min() > 0
        np.testing.assert_allclose(d2p.sum(axis=1), 0.0, rtol=0, atol=1e-12)
        h = 1e-5
        fd = kernel_tables(ev, [h])[1][0] / h
        assert np.max(np.abs(d2p - fd)) <= 1e-6 * np.max(np.abs(d2p))


# sha256 of the order-0 and order-1 tables, frozen from the kernel before it
# had an order-2 call, whose weights held C and D alone: order 0's P, then
# order 1's P and dP/dt, at TestBatchedTables.TIMES and then at its fifth
# time alone, n_max 120
PLAIN_TABLE_DIGESTS = {
    "F7": "df33e823bf3b1728a20d376628b4c20efb3af4298c132d2e1aab42bf4ab24e90",
    "F8": "11ef26b18b05564a85e8318a1e667f232f93e131db82cfbc8f9378fcffd12ae3",
    "two_level": "95884ace34a3f0d02b48613087ad349d5a6b8c988b2998fc85b3ec1eb7543f9a",
}


@pytest.mark.parametrize("name", list(PLAIN_TABLE_DIGESTS))
def test_plain_calls_keep_their_bits(name):
    # a derivative kernel, which holds the order-2 weights too, answers
    # the plain call from its first two weight blocks, bit for bit
    chain = {"F7": F7, "F8": F8, "two_level": two_level_chain()}[name]
    ev = ChainEvolver(chain, TRAP, 120)
    digest = hashlib.sha256()
    for times in (TestBatchedTables.TIMES, TestBatchedTables.TIMES[4:5]):
        p, _ = _PulseTables(ev, len(times), derivative=False)(times)
        digest.update(p.tobytes())
        for table in _PulseTables(ev, len(times))(times):
            digest.update(table.tobytes())
    assert digest.hexdigest() == PLAIN_TABLE_DIGESTS[name]


class TestBatchedTables:
    # a batch of 12: 0 included, twice, and a time past the optimizers' grid
    TIMES = np.concatenate([[0.0], np.linspace(0.02, 1.2, 9), [0.0, 2.5]])

    @pytest.mark.parametrize("chain, n_max", [(F7, 252), (F8, 400)], ids=["F7", "F8"])
    def test_batch_is_the_one_time_tables_to_rounding(self, chain, n_max):
        # the GEMM's summation order depends on the batch: F8 reaches 2 ulp
        # of 1 (at t = 0.02), F7 1 ulp
        ev = cached_evolver(chain, TRAP, n_max)
        one_time = np.stack([ev.site_probabilities(t) for t in self.TIMES])
        assert one_time.shape == (len(self.TIMES), n_max + 1, ev.n_sites)
        for derivative in (False, True):
            batch, _ = kernel_tables(ev, self.TIMES, derivative)
            assert np.max(np.abs(batch - one_time)) <= 2 * np.finfo(float).eps
            for table in (batch[0], batch[-2], one_time[0]):
                assert np.array_equal(dense(table), np.eye(n_max + 1))

    @pytest.mark.parametrize(
        "chain, n_max, t",
        [
            (F7, 252, 0.37),
            (F8, 400, 0.61),
            (F8, 5, 0.8),
            (F7, 60, 0.0),
            (two_level_chain(), 300, 0.53),
            (F7, 7, 0.37),
            (F8, 15, 0.61),
            (two_level_chain(), 1, 0.53),
        ],
        ids=["F7", "F8", "short-ladder", "zero-time", "two-level"]
        + ["F7-n_max-K-1", "F8-n_max-K-1", "two-level-n_max-K-1"],
    )
    def test_one_table_is_the_band_loop(self, chain, n_max, t):
        # the one band sum, forward and transposed, on P and on dP/dt
        ev = ChainEvolver(chain, TRAP, n_max)
        (table,), (d_table,) = kernel_tables(ev, [t])
        probs = thermal_distribution(3.0, n_max).probs
        lam = np.arange(n_max + 1) - 2.5
        for site_p in (ev.site_probabilities(t), table, d_table):
            assert np.array_equal(apply_table(site_p, probs), band_loop_apply(site_p, probs))
            back = band_sum_transposed(site_p, lam)
            assert np.array_equal(back, band_loop_transposed(site_p, lam))
        if n_max <= 15:
            assert ev.n_sites == n_max + 1
        if t == 0:
            assert np.array_equal(apply_table(table, probs), probs)

    def test_entries_past_the_ladder_bottom_are_ignored(self):
        # the forward sum never reads them, the transposed one multiplies
        # them by zeros
        for chain in (F7, F8, two_level_chain()):
            for n_max in (len(chain.steps), 30):
                ev = ChainEvolver(chain, TRAP, n_max)
                table = ev.site_probabilities(0.45)
                junk = table.copy()
                n, k = np.indices(junk.shape)
                junk[k > n] = 7.5 + k[k > n]
                probs = thermal_distribution(3.0, n_max).probs
                out = apply_table(junk, probs)
                assert np.array_equal(out, band_loop_apply(table, probs))
                assert np.array_equal(out, apply_table(table, probs))
                lam = probs - 0.01
                back = band_sum_transposed(junk, lam)
                assert np.array_equal(back, band_sum_transposed(table, lam))

    def test_one_band_sum_serves_many_tables(self):
        # one object over three tables, their derivatives and three
        # populations, both directions interleaved, equals fresh objects,
        # and its pad columns stay zero
        ev = ChainEvolver(F8, TRAP, 60)
        tables, d_tables = kernel_tables(ev, [0.2, 0.61, 1.7])
        band_sum = _BandSum(61, ev.n_sites)
        for table, d_table, nbar in zip(tables, d_tables, (2.0, 4.0, 6.0)):
            probs = thermal_distribution(nbar, 60).probs
            lam = probs - 0.01
            for site_p in (table, d_table):
                out = np.empty(61)
                band_sum.transposed(site_p, lam_bands(lam, ev.n_sites), out)
                assert np.array_equal(out, band_sum_transposed(site_p, lam))
                assert np.array_equal(band_sum(site_p, probs), apply_table(site_p, probs))
                assert not band_sum.padded[:, 61:].any()

    @pytest.mark.parametrize("chain, n_max", [(F7, 252), (F8, 400)], ids=["F7", "F8"])
    def test_row_slice_is_the_full_tables_rows(self, chain, n_max):
        ev = cached_evolver(chain, TRAP, n_max)
        lo, hi = 122, 245 + ev.n_sites
        part = ev.rows(lo, hi)
        assert np.shares_memory(part.C, ev.C) and not part.C.flags.writeable
        stack, _ = kernel_tables(part, self.TIMES, derivative=False)
        assert np.array_equal(stack, kernel_tables(ev, self.TIMES, derivative=False)[0][:, lo:hi])
        (p,), (dp,) = kernel_tables(ev, [0.61])
        (q,), (dq,) = kernel_tables(part, [0.61])
        assert np.array_equal(q, p[lo:hi]) and np.array_equal(dq, dp[lo:hi])
        assert np.array_equal(part.site_probabilities(0.61), ev.site_probabilities(0.61)[lo:hi])
        # populations of rows lo..hi-K after a pulse read only rows below hi
        probs = thermal_distribution(20.0, n_max).probs
        top = hi - ev.n_sites + 1
        full = apply_table(p, probs)[lo:top]
        assert np.array_equal(apply_table(q, probs[lo:hi])[: top - lo], full)


GRID_CHAINS = pytest.mark.parametrize(
    "chain",
    [F7, F8, two_level_chain(), FIVE_SITES, CUT],
    ids=["F7", "F8", "two-level", "five-sites", "zero-coupling"],
)
GRID_ETAS = pytest.mark.parametrize("eta", [0.05, 0.07, 0.1])
ONE_AND_NINE = pytest.mark.parametrize("n_starts", [1, 9], ids=["one-start", "nine-starts"])


def grid_starts(n_starts, n_max, nbar_lo):
    """n_starts thermal populations from n-bar nbar_lo upward."""
    nbars = nbar_lo * np.arange(1, n_starts + 1)
    return np.stack([thermal_distribution(nbar, n_max).probs for nbar in nbars])


def per_time_grid(evolver, times, starts):
    """after[i, s]: one table per time, applied to one start at a time."""
    tables = [evolver.site_probabilities(t) for t in times]
    return np.array([[apply_table(table, start) for start in starts] for table in tables])


class TestPulsedGrid:
    """The kernel's grid gather against the one-time tables and apply_table."""

    @GRID_CHAINS
    @GRID_ETAS
    @ONE_AND_NINE
    def test_populations_match_the_per_time_path(self, chain, eta, n_starts):
        ev = ChainEvolver(chain, TrapParams(eta=eta), 90)
        starts = grid_starts(n_starts, 90, 2.0)
        # an odd column count, and times past the optimizers' grid
        times = np.linspace(0.02, 2.5, 13)
        (after,) = _PulseTables(ev, len(times), derivative=False).grid(times, starts)
        assert after.shape == (len(times), n_starts, 91)
        np.testing.assert_allclose(after, per_time_grid(ev, times, starts), rtol=0, atol=1e-14)

    @GRID_CHAINS
    @GRID_ETAS
    @ONE_AND_NINE
    def test_mean_n_argmins_match_the_per_time_path(self, chain, eta, n_starts):
        # optimize_global's one-pulse <n> over the full ladder, on its seed grid
        ev = cached_evolver(chain, TrapParams(eta=eta), 60)
        starts = grid_starts(n_starts, 60, 0.5)
        n = np.arange(61)

        def mean_n(after, _p0):
            return (after @ n) / after.sum(axis=-1)

        ts, vals = _grid_scan(ev, starts, mean_n, _T_SEED_POINTS)
        ref = mean_n(per_time_grid(ev, ts, starts), starts)
        assert np.array_equal(np.argmin(vals, axis=0), np.argmin(ref, axis=0))

    @GRID_CHAINS
    @GRID_ETAS
    @ONE_AND_NINE
    def test_suppression_argmins_match_the_per_time_path(self, chain, eta, n_starts):
        # the single-pulse search's log a, on the window's rows
        n_lo, n_hi = asymptotic_window(eta)
        ev = cached_evolver(chain, TrapParams(eta=eta), n_hi + chain.bandwidth)
        top = n_hi + ev.n_sites
        rows = ev.rows(n_lo, top)
        starts = grid_starts(n_starts, ev.n_max, 5.0)[:, n_lo:top]
        window = (0, n_hi - n_lo)

        def log_a(after, p0):
            return _log_suppression(after, p0, window)

        ts, vals = _grid_scan(rows, starts, log_a, _T_GRID_POINTS)
        ref = log_a(per_time_grid(rows, ts, starts), starts)
        assert np.array_equal(np.argmin(vals, axis=0), np.argmin(ref, axis=0))


def tan_half_cos_sin(phases):
    """_cos_sin of the phases, from contiguous scratch."""
    cos, sin = np.empty_like(phases), np.empty_like(phases)
    scratch = [np.empty_like(phases) for _ in range(2)]
    _cos_sin(0.5 * phases, cos, sin, *scratch)
    return cos, sin


def neighbours(x):
    """Each double of x and the doubles one ulp either side of it."""
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestCosSin:
    """cos and sin from one tan of the half phase, against mpmath."""

    # the pulse-time bound's phase at the built-in chains' largest mode
    # frequency over the window, 200 at eta 0.01 (config's _MAX_PULSE_TIME)
    PHASE_MAX = np.pi * _MAX_PULSE_TIME * 200

    def test_matches_mpmath(self):
        rng = np.random.default_rng(7)
        k = np.concatenate([np.arange(60.0), rng.integers(0, 1e8, 60)])
        phases = np.concatenate(
            [
                np.linspace(0.0, 80.0, 1601),
                rng.uniform(0.0, 80.0, 1000),
                np.geomspace(80.0, self.PHASE_MAX, 1000),
                # half phases at and one ulp either side of tan's poles, where
                # cos is -1, and of cos's zeros, where tan is +-1
                2.0 * neighbours((k + 0.5) * np.pi),
                2.0 * neighbours((k / 2 + 0.25) * np.pi),
                neighbours(np.array([5e-324, 1e-300, 1e-160, 1e-20, 1e-8])),
            ]
        )
        cos, sin = tan_half_cos_sin(phases)
        with mpmath.workdps(40):
            cos_ref = np.array([float(mpmath.cos(mpmath.mpf(x))) for x in phases])
            sin_ref = np.array([float(mpmath.sin(mpmath.mpf(x))) for x in phases])
        assert np.max(np.abs(cos - cos_ref)) <= 4.44e-16
        assert np.max(np.abs(sin - sin_ref)) <= 4.44e-16

    def test_zero_phase_is_exact(self):
        cos, sin = tan_half_cos_sin(np.zeros(3))
        assert np.array_equal(cos, np.ones(3)) and np.array_equal(sin, np.zeros(3))


class TestPulseTables:
    """The batched kernel with derivative against the complex reference."""

    # zeros and repeated times among the optimizers' times, and one past them
    TIMES = np.array([0.61, 0.0, 0.17, 0.61, 1.2, 0.0, 2.5, 0.02, 0.17])

    @pytest.mark.parametrize("chain, n_max", [(F7, 252), (F8, 400)], ids=["F7", "F8"])
    def test_matches_complex_reference(self, chain, n_max):
        ev = cached_evolver(chain, TRAP, n_max)
        p, dp = kernel_tables(ev, self.TIMES)
        assert p.shape == dp.shape == (len(self.TIMES), n_max + 1, ev.n_sites)
        for i, t in enumerate(self.TIMES):
            p_ref, dp_ref = einsum_reference(ev, t)
            np.testing.assert_allclose(p[i], p_ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(dp[i], dp_ref, rtol=0, atol=1e-13 * np.max(np.abs(dp_ref)))
            if t == 0:
                assert np.array_equal(dense(p[i]), np.eye(n_max + 1))
                assert not dp[i].any()

    def test_buffers_are_reused_by_shorter_batches(self):
        ev = ChainEvolver(F8, TRAP, 60)
        tables = _PulseTables(ev, 5)
        p5, dp5 = tables(np.linspace(0.1, 0.9, 5))
        times = np.array([0.3, 0.0, 0.7])
        p3, dp3 = tables(times)
        assert np.shares_memory(p3, p5) and np.shares_memory(dp3, dp5)
        fresh = _PulseTables(ev, 3)(times)
        assert np.array_equal(p3, fresh[0]) and np.array_equal(dp3, fresh[1])


def owned_nbytes(obj, *shared):
    """nbytes of each array attribute of obj outside the arrays shared."""
    return [
        value.nbytes
        for value in vars(obj).values()
        if isinstance(value, np.ndarray)
        and not any(np.may_share_memory(value, other) for other in shared)
    ]


class TestArraySizes:
    """Each class's nbytes is the largest array it allocates, exactly."""

    # K = 2, 5, 6, 8 and 16 sites, and F8's 16 capped at n_max + 1 = 1, 5, 9
    @pytest.mark.parametrize(
        "chain, n_max",
        [
            (two_level_chain(), 30),
            (FIVE_SITES, 40),
            (CUT, 3),
            (CUT, 41),
            (F7, 60),
            (F8, 0),
            (F8, 4),
            (F8, 8),
            (F8, 200),
        ],
        ids=["two-level", "five-sites", "cut-capped", "cut", "F7", "F8-0", "F8-4", "F8-8", "F8"],
    )
    @pytest.mark.parametrize("max_pulses", [1, 7, 12, 40])
    def test_nbytes_is_the_largest_owned_array(self, chain, n_max, max_pulses):
        ev = ChainEvolver(chain, TRAP, n_max)
        n_rows, n_sites = n_max + 1, ev.n_sites
        assert ChainEvolver.nbytes(n_rows, n_sites) == max(owned_nbytes(ev))
        for derivative in (False, True):
            # a plain kernel's weights are the evolver's C, counted above
            tables = _PulseTables(ev, max_pulses, derivative)
            expected = _PulseTables.nbytes(n_rows, n_sites, max_pulses, derivative)
            assert max(owned_nbytes(tables, ev.C, ev.w)) == expected
        # the workspace adds no array larger than its kernel's
        work = _Workspace(ev, max_pulses)
        sizes = owned_nbytes(work) + owned_nbytes(work.band_sum)
        assert max(sizes) <= _PulseTables.nbytes(n_rows, n_sites, max_pulses)

    @pytest.mark.parametrize(
        "chain, n_max, max_pulses, n_starts",
        [
            (F7, 60, 12, 1),
            (F7, 60, 3, 9),
            (F8, 8, 1, 40),
            (F8, 200, 12, 5),
            (two_level_chain(), 30, 7, 2),
        ],
        ids=["F7-1", "F7-9", "F8-8-one-pulse", "F8", "two-level"],
    )
    def test_grid_nbytes_is_its_largest_array(self, chain, n_max, max_pulses, n_starts):
        # its GEMM outputs, the bases of what it yields, over full chunks and
        # a partial one, and its padded starts, K - 1 zero columns wider
        ev = ChainEvolver(chain, TRAP, n_max)
        n_rows, n_sites = n_max + 1, ev.n_sites
        times = np.linspace(0.1, 1.0, 2 * max_pulses + 1)
        starts = grid_starts(n_starts, n_max, 1.0)
        grid = _PulseTables(ev, max_pulses, derivative=False).grid(times, starts)
        outputs = [after.base.nbytes for after in grid]
        assert max(outputs) == n_rows * n_starts * max_pulses * 8
        padded = n_starts * (n_rows + n_sites - 1) * 8
        expected = max(*outputs, padded)
        assert _PulseTables.grid_nbytes(n_rows, n_sites, max_pulses, n_starts) == expected


EV20 = ChainEvolver(F8, TRAP, 20)


@pytest.mark.parametrize(
    "t, error, match",
    [
        (-1e-9, ValueError, "pulse time"),
        (1e308, FloatingPointError, "pulse phase"),
        (np.inf, FloatingPointError, "pulse phase"),
        (np.nan, FloatingPointError, "pulse phase"),
    ],
    ids=["negative", "overflow", "inf", "nan"],
)
@pytest.mark.parametrize(
    "tables_at",
    [
        EV20.site_probabilities,
        lambda t: kernel_tables(EV20, [0.3, t, 0.0], derivative=False),
        lambda t: kernel_tables(EV20, [0.3, t, 0.0]),
        lambda t: list(
            _PulseTables(EV20, 2, derivative=False).grid(np.array([0.3, t]), grid_starts(2, 20, 1.0))
        ),
    ],
    ids=["one-time", "tables", "derivative", "grid"],
)
def test_bad_pulse_time_raises(tables_at, t, error, match):
    with pytest.raises(error, match=match):
        tables_at(t)
