"""Sideband thermometry, dark-state preparation, and the end-to-end protocol."""

import math

import numpy as np
import pytest
from reference import mean_n

from drsc import chain_dynamics, thermometry
from drsc.chain_dynamics import ChainEvolver, _BandSum, _PulseTables
from drsc.cooling import PulseSequence, optimize_global
from drsc.manifold import build_coupling_chain, f7_scheme
from drsc.motional import (
    PhononDistribution,
    TrapParams,
    sideband_coupling_ratios,
    thermal_distribution,
)
from drsc.thermometry import (
    ProtocolReport,
    PulseTiming,
    SidebandProbeResult,
    _probe_ratios,
    _probe_weights,
    default_t_clear,
    end_to_end_protocol,
    rdp_filter,
    sideband_probe,
)

F7 = build_coupling_chain(f7_scheme())
TRAP = TrapParams(eta=0.07)


class TestSidebandProbe:
    def test_cached_ratio_table_gives_identical_bits(self):
        dist = thermal_distribution(6.08, 120)
        ratios = sideband_coupling_ratios(dist.n_max + 1, TRAP.eta)
        red = float(dist.probs @ np.sin(0.5 * np.pi * 0.7 * ratios[:-1]) ** 2)
        blue = float(dist.probs @ np.sin(0.5 * np.pi * 0.7 * ratios[1:]) ** 2)
        for _ in range(2):
            r = sideband_probe(dist, TRAP, 0.7)
            assert (r.p_red, r.p_blue) == (red, blue)

    def test_cached_ratio_table_is_read_only(self):
        table = _probe_ratios(30, TRAP.eta)
        assert table is _probe_ratios(30, TRAP.eta)
        with pytest.raises(ValueError):
            table[0] = 1.0
        red, blue = _probe_weights(30, TRAP.eta, 0.7)
        assert _probe_weights(30, TRAP.eta, 0.7)[0] is red
        for weights in (red, blue):
            with pytest.raises(ValueError):
                weights[0] = 1.0

    @pytest.mark.parametrize("nbar", [0.1, 1.0, 6.08])
    def test_thermal_ratio_identity(self, nbar):
        # for a thermal state P_red/P_blue = nbar/(nbar+1) at any probe time
        dist = thermal_distribution(nbar, 700)
        rng = np.random.default_rng(23)
        for tau in rng.uniform(0.1, 3.0, size=5):
            r = sideband_probe(dist, TRAP, float(tau))
            assert r.p_red / r.p_blue == pytest.approx(nbar / (nbar + 1), abs=1e-12)
            assert r.nbar_sb == pytest.approx(nbar, rel=1e-9)

    def test_ground_state(self):
        dist = thermal_distribution(0.0, 50)
        r = sideband_probe(dist, TRAP, 0.8)
        assert r.p_red == 0.0
        assert r.nbar_sb == 0.0
        assert r.p_blue > 0.0

    def test_vanishing_blue_signal(self):
        dist = PhononDistribution(probs=np.zeros(4), n_max=3)
        with pytest.raises(ValueError, match="blue sideband"):
            sideband_probe(dist, TRAP, 2.0)

    def test_saturated_ratio_gives_infinity(self):
        # all population at n=1 with the red flop at max and blue detuned
        probs = np.zeros(31)
        probs[30] = 1.0
        dist = PhononDistribution(probs=probs, n_max=30)
        r = sideband_probe(dist, TRAP, 1.0)
        if r.p_red >= r.p_blue:
            assert r.nbar_sb == math.inf

    def test_invalid_probe_time(self):
        with pytest.raises(ValueError):
            sideband_probe(thermal_distribution(1.0, 30), TRAP, 0.0)

    def test_overflowing_probe_phase_is_a_numerical_failure(self):
        # a finite time whose phases overflow: no warning, no bogus result
        with pytest.raises(FloatingPointError, match="overflows"):
            sideband_probe(thermal_distribution(1.0, 30), TRAP, 1e308)

    def test_non_finite_populations_are_a_numerical_failure(self):
        dist = PhononDistribution(probs=np.full(31, np.nan), n_max=30)
        with pytest.raises(FloatingPointError, match="not finite"):
            sideband_probe(dist, TRAP, 0.5)

    def test_result_bounds_checked(self):
        with pytest.raises(ValueError):
            SidebandProbeResult(p_red=1.5, p_blue=0.2, probe_time=1.0, nbar_sb=1.0)


class TestRdpFilter:
    def test_ground_state_passes_untouched(self):
        dist = thermal_distribution(0.0, 40)
        conditioned, success = rdp_filter(dist, F7, TRAP, 0.79)
        assert success == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(conditioned.probs, dist.probs, atol=1e-12)

    def test_matches_direct_retention_bookkeeping(self):
        dist = thermal_distribution(0.8, 60)
        t_clear = 0.79
        conditioned, success = rdp_filter(dist, F7, TRAP, t_clear)
        retention = ChainEvolver(F7, TRAP, 60).site_probabilities(t_clear)[:, 0]
        kept = dist.probs * retention
        assert success == pytest.approx(kept.sum(), abs=1e-15)
        np.testing.assert_allclose(conditioned.probs, kept / kept.sum(), atol=1e-15)

    def test_cools_a_warm_state(self):
        dist = thermal_distribution(0.3, 60)
        t_clear = default_t_clear(F7, TRAP)
        conditioned, success = rdp_filter(dist, F7, TRAP, t_clear)
        assert mean_n(conditioned) < mean_n(dist)
        assert 0.0 < success < 1.0

    def test_default_t_clear_value(self):
        assert default_t_clear(F7, TRAP) == pytest.approx(0.792, abs=2e-3)

    def test_default_t_clear_is_found_once(self, monkeypatch):
        # a second call for the same chain and trap runs no optimizer
        calls = []

        def counted(*args):
            calls.append(args)
            return optimize_global(*args)

        default_t_clear.cache_clear()
        monkeypatch.setattr(thermometry, "optimize_global", counted)
        first = default_t_clear(F7, TRAP)
        assert default_t_clear(F7, TRAP) == first
        assert len(calls) == 1

    def test_nothing_kept_is_a_numerical_failure(self):
        empty = PhononDistribution(probs=np.zeros(31), n_max=30)
        with pytest.raises(FloatingPointError, match="removed all population"):
            rdp_filter(empty, F7, TRAP, 0.79)

    def test_invalid_t_clear(self):
        with pytest.raises(ValueError):
            rdp_filter(thermal_distribution(1.0, 30), F7, TRAP, 0.0)


class TestPulseTiming:
    def test_defaults(self):
        timing = PulseTiming()
        assert timing.t_f_seconds == pytest.approx(100e-6)
        assert timing.repump_seconds == pytest.approx(15e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseTiming(t_f_seconds=0.0)
        with pytest.raises(ValueError):
            PulseTiming(repump_seconds=-1.0)


class TestEndToEndProtocol:
    def run(self, n_pulses=3, heating=False, rdp=False, timing=None):
        init = thermal_distribution(1.0, 80)
        seq = PulseSequence(times=(0.17,) * n_pulses, strategy="fixed")
        return end_to_end_protocol(
            F7,
            TRAP,
            seq,
            init,
            heating_rates={} if heating else None,
            timing=timing,
            rdp=rdp,
        )

    def test_history_lengths(self):
        report = self.run(n_pulses=3)
        assert len(report.nbar_history) == 4
        assert len(report.nbar_sb_history) == 4
        # one read-only row per state
        assert report.history.shape == (4, 81)
        assert report.history.flags.c_contiguous and not report.history.flags.writeable
        assert report.t_clear is None
        assert report.success_probability == 1.0

    def test_empty_state_is_refused(self):
        # no row holds any population, so no row has a mean
        empty = PhononDistribution(probs=np.zeros(81), n_max=80)
        seq = PulseSequence(times=(0.17,), strategy="fixed")
        with pytest.raises(ValueError, match="^distribution has zero total mass$"):
            end_to_end_protocol(F7, TRAP, seq, empty)

    def test_cooling_without_heating_is_monotone(self):
        report = self.run(n_pulses=4)
        nb = report.nbar_history
        assert all(b < a for a, b in zip(nb, nb[1:]))

    def test_heating_raises_final_occupation(self):
        cold = self.run(n_pulses=3, heating=False)
        warm = self.run(n_pulses=3, heating=True)
        assert warm.nbar_history[-1] > cold.nbar_history[-1]

    def test_rdp_appends_conditioned_state(self):
        report = self.run(n_pulses=3, rdp=True)
        assert len(report.nbar_history) == 5
        assert len(report.history) == 5
        assert report.t_clear is not None
        assert 0.0 < report.success_probability <= 1.0
        assert report.nbar_history[-1] < report.nbar_history[-2]

    @staticmethod
    def count_kernel_calls(monkeypatch):
        """The times of every _PulseTables call, one list per call."""
        calls = []

        class CountingTables(_PulseTables):
            def __call__(self, times, curvature=False):
                calls.append(times.tolist())
                return super().__call__(times, curvature)

        monkeypatch.setattr(chain_dynamics, "_PulseTables", CountingTables)
        monkeypatch.setattr(thermometry, "_PulseTables", CountingTables)
        return calls

    def test_one_table_per_distinct_pulse_time(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        report = self.run(n_pulses=20)
        assert calls == [[0.17]]
        assert len(report.history) == 21
        # with one distinct time, the batch is the one-time table, bit for bit
        table = ChainEvolver(F7, TRAP, 80).site_probabilities(0.17)
        first = _BandSum(*table.shape)(table, report.history[0])
        np.testing.assert_array_equal(report.history[1], first)

    def test_distinct_times_share_one_kernel_call(self, monkeypatch):
        # the tables of every distinct time, in order of first use, from one
        # batch, each applied wherever its time recurs
        times = (0.3, 0.5, 0.3, 0.9, 0.5)
        calls = self.count_kernel_calls(monkeypatch)
        init = thermal_distribution(1.0, 80)
        seq = PulseSequence(times=times, strategy="global_opt")
        report = end_to_end_protocol(F7, TRAP, seq, init)
        distinct = [0.3, 0.5, 0.9]
        assert calls == [distinct]
        ev = ChainEvolver(F7, TRAP, 80)
        tables, _ = _PulseTables(ev, 3, derivative=False)(np.array(distinct))
        table = dict(zip(distinct, tables))
        probs = init.probs
        for t, row in zip(times, report.history[1:], strict=True):
            probs = _BandSum(81, 8)(table[t], probs)
            np.testing.assert_array_equal(row, probs)

    @pytest.mark.parametrize("rdp", [False, True])
    def test_pre_probe_delay_keeps_history_and_snapshots_aligned(self, rdp):
        delayed = self.run(
            n_pulses=3, heating=True, rdp=rdp, timing=PulseTiming(pre_probe_delay_seconds=0.02)
        )
        for k, row in enumerate(delayed.history):
            assert mean_n(PhononDistribution(probs=row, n_max=80)) == delayed.nbar_history[k]
        undelayed = self.run(n_pulses=3, heating=True, rdp=rdp)
        np.testing.assert_array_equal(delayed.history[3], undelayed.history[3])
        # the last row is what the probe reads: without dark preparation the
        # delay appends its heated state, with it the conditioned row
        # already follows the delay
        assert len(delayed.history) == len(undelayed.history) + (not rdp)
        if not rdp:
            assert delayed.nbar_history[-1] > undelayed.nbar_history[-1]

    @pytest.mark.parametrize("delay", [0.0, 0.02], ids=["no-delay", "delay"])
    @pytest.mark.parametrize("rdp", [False, True], ids=["plain", "rdp"])
    def test_heating_off_is_zero_rates(self, monkeypatch, delay, rdp):
        # every dose is zero, so no cycle and no delay forms a propagator
        def never(n_max):
            raise AssertionError("a heating propagator was formed")

        monkeypatch.setattr(thermometry, "_unit_diffusion_eigensystem", never)
        timing = PulseTiming(pre_probe_delay_seconds=delay)
        off = self.run(n_pulses=3, rdp=rdp, timing=timing)
        zero = end_to_end_protocol(
            F7,
            TRAP,
            PulseSequence(times=(0.17,) * 3, strategy="fixed"),
            thermal_distribution(1.0, 80),
            heating_rates={"raman": 0.0, "trap": 0.0, "optical_pumping": 0.0},
            timing=timing,
            rdp=rdp,
        )
        assert len(off.history) == len(zero.history) == 4 + rdp
        np.testing.assert_array_equal(off.history, zero.history)
        assert off.nbar_history == zero.nbar_history
        assert off.nbar_sb_history == zero.nbar_sb_history
        assert (off.success_probability, off.t_clear) == (zero.success_probability, zero.t_clear)
