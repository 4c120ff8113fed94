"""Suppression-factor extraction, pulse-time optimization, and the
two-component decomposition of fixed-pulse histories."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from drsc import cooling
from drsc.chain_dynamics import ChainEvolver, cached_evolver
from drsc.cooling import (
    PulseSequence,
    SuppressionFit,
    _mean_and_gradient,
    _single_pulse_seed,
    asymptotic_window,
    dual_thermal_decompose,
    heuristic_sequence,
    optimize_fixed_pulse,
    optimize_fixed_pulses,
    optimize_global,
    suppression_factor,
)
from drsc.manifold import build_coupling_chain, f7_scheme, f8_scheme, two_level_chain
from drsc.motional import (
    PhononDistribution,
    TrapParams,
    default_n_max,
    mean_n,
    thermal_distribution,
    thermal_state,
)

F7 = build_coupling_chain(f7_scheme())
F8 = build_coupling_chain(f8_scheme())
TRAP = TrapParams(eta=0.07)
WINDOW = asymptotic_window(0.07)


def deep_thermal(nbar, chain):
    return thermal_distribution(nbar, WINDOW[1] + len(chain.steps))


def cli_thermal(nbar, chain):
    """The initial state `drsc cool` builds: thermal, truncated to cover the window."""
    return thermal_distribution(nbar, max(default_n_max(nbar), WINDOW[1] + len(chain.steps)))


# Nelder-Mead optimum per pulse count, frozen from the simplex search that
# the gradient optimizer replaced (F7, nbar 6.08, 10 pulses)
NELDER_MEAD_F7_TRACE = (
    3.40859144491883,
    1.8565410526782005,
    1.014777056057326,
    0.5627452688043734,
    0.3144472224672739,
    0.1742852554650064,
    0.09526356194399567,
    0.0518994010850697,
    0.02852421802080631,
    0.015854372087131172,
)
# its final objective on F8, nbar 15.87, 15 pulses
NELDER_MEAD_F8_FINAL = 0.0005485482927587203


class TestAsymptoticWindow:
    def test_standard_eta(self):
        assert WINDOW == (122, 245)

    def test_scales_inversely_with_eta_squared(self):
        lo, hi = asymptotic_window(0.14)
        assert lo == pytest.approx(122 / 4, abs=1)
        assert hi == pytest.approx(245 / 4, abs=1)


class TestSuppressionFactor:
    def test_zero_time_gives_unity(self):
        init = deep_thermal(15.0, F7)
        assert suppression_factor(F7, TRAP, 0.0, init) == pytest.approx(1.0, abs=1e-12)

    def test_pulse_suppresses_tail(self):
        init = deep_thermal(15.0, F7)
        a = suppression_factor(F7, TRAP, 0.17, init)
        assert 0.0 < a < 1.0

    def test_window_needs_headroom(self):
        # n_max must cover the window plus the chain reach
        with pytest.raises(ValueError):
            suppression_factor(F7, TRAP, 0.17, thermal_state(6.08))

    def test_window_rejects_zero_entries(self):
        init = thermal_distribution(0.0, WINDOW[1] + len(F7.steps))
        with pytest.raises(ValueError):
            suppression_factor(F7, TRAP, 0.17, init)


class TestOptimizeFixedPulse:
    def test_f7_shallow_thermal(self):
        t, a = optimize_fixed_pulse(F7, TRAP, deep_thermal(10.0, F7))
        assert t == pytest.approx(0.173, abs=0.01)
        assert a == pytest.approx(0.633, abs=0.03)

    def test_f8_deep_thermal(self):
        t, a = optimize_fixed_pulse(F8, TRAP, deep_thermal(40.0, F8))
        assert t == pytest.approx(0.645, abs=0.01)
        assert a == pytest.approx(0.754, abs=0.03)

    def test_two_level_pulse_time_near_pi_time(self):
        t, a = optimize_fixed_pulse(two_level_chain(), TRAP, deep_thermal(15.0, two_level_chain()))
        assert 0.05 < t < 0.3
        assert a > 0.9


def grid_loop_then_brent(f):
    """The single-pulse search as a loop of scalar objective calls: the
    reference the chunked grid must reproduce bit for bit."""
    ts = np.linspace(cooling._T_GRID_LO, cooling._T_GRID_HI, cooling._T_GRID_POINTS)
    vals = np.array([f(t) for t in ts])
    i = int(np.argmin(vals))
    assert 0 < i < len(ts) - 1
    res = minimize_scalar(f, bracket=(ts[i - 1], ts[i], ts[i + 1]), method="brent")
    if res.fun < vals[i]:
        return float(res.x), float(res.fun)
    return float(ts[i]), float(vals[i])


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSharedGridScan:
    NBARS = (5.0, 20.0, 40.0)

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_equals_one_call_per_init(self, chain):
        inits = [deep_thermal(nbar, chain) for nbar in self.NBARS]
        singles = [optimize_fixed_pulse(chain, TRAP, init) for init in inits]
        assert optimize_fixed_pulses(chain, TRAP, inits) == singles

    @pytest.mark.parametrize("chain", [F7, F8], ids=["F7", "F8"])
    def test_equals_a_per_time_loop(self, chain):
        init = deep_thermal(20.0, chain)
        expected = grid_loop_then_brent(lambda t: suppression_factor(chain, TRAP, t, init))
        assert optimize_fixed_pulse(chain, TRAP, init) == expected

    def test_mean_n_seed_equals_a_per_time_loop(self):
        init = thermal_state(1.0)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        n = np.arange(init.n_max + 1)

        def mean_after(t):
            p = ev.apply_pulse(t, init.probs)
            return float(n @ p) / p.sum()

        assert _single_pulse_seed(ev, init.probs) == grid_loop_then_brent(mean_after)[0]

    def test_inits_must_share_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            optimize_fixed_pulses(F7, TRAP, [deep_thermal(10.0, F7), deep_thermal(10.0, F8)])
        with pytest.raises(ValueError, match="n_max"):
            optimize_fixed_pulses(F7, TRAP, [])

    # evolvers are built before tracing, so the bound is on the search's own
    # arrays, which the grid chunk length keeps small
    def test_nine_nbar_scan_memory(self):
        inits = [thermal_distribution(nbar, 260) for nbar in (5, 10, 15, 20, 25, 30, 35, 40, 50)]
        cached_evolver(F8, TRAP, 260)
        assert traced_peak_bytes(lambda: optimize_fixed_pulses(F8, TRAP, inits)) <= 4e6

    def test_single_scan_memory_at_n_max_400(self):
        init = thermal_distribution(40.0, 400)
        cached_evolver(F8, TRAP, 400)
        assert traced_peak_bytes(lambda: optimize_fixed_pulse(F8, TRAP, init)) <= 4e6


class TestOptimizeGlobal:
    def test_trace_monotone_and_converged(self):
        init = thermal_state(1.0)
        trace = []
        seq = optimize_global(F7, TRAP, init, 4, trace=trace)
        assert seq.converged
        assert len(seq.times) == 4
        objs = [obj for _k, obj in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_single_pulse_cools(self):
        init = thermal_state(0.5)
        seq = optimize_global(F7, TRAP, init, 1)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        out = ev.apply_pulse(seq.times[0], init.probs)
        n = np.arange(init.n_max + 1)
        assert n @ out < mean_n(init) * init.probs.sum()

    def test_ground_state_has_nothing_to_cool(self):
        # <n> = 0 has no log; the search must still end, at <n> = 0
        trace = []
        seq = optimize_global(F7, TRAP, thermal_distribution(0.0, 30), 2, trace=trace)
        assert [obj for _k, obj in trace] == [0.0, 0.0]
        assert seq.converged

    def test_strategy_label(self):
        seq = optimize_global(F7, TRAP, thermal_state(0.5), 2)
        assert seq.strategy == "global_opt"
        assert all(t > 0 for t in seq.times)

    @pytest.mark.parametrize(
        "chain, nbar, times",
        [
            (F7, 6.08, (0.15, 0.3, 0.5, 0.7, 0.2)),
            (F8, 15.87, (0.6, 0.4, 0.65, 0.3, 0.5)),
        ],
    )
    def test_gradient_matches_central_differences(self, chain, nbar, times):
        init = cli_thermal(nbar, chain)
        ev = ChainEvolver(chain, TRAP, init.n_max)
        x = np.array(times)
        f, grad = _mean_and_gradient(x, ev, init.probs)
        p = init.probs
        for t in x:
            p = ev.apply_pulse(t, p)
        assert f == float(np.arange(init.n_max + 1) @ p) / float(p.sum())
        h = 1e-6
        fd = np.array(
            [
                (
                    _mean_and_gradient(x + h * e, ev, init.probs)[0]
                    - _mean_and_gradient(x - h * e, ev, init.probs)[0]
                )
                / (2 * h)
                for e in np.eye(len(x))
            ]
        )
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))

    def test_f7_no_worse_than_nelder_mead_at_every_count(self):
        trace = []
        seq = optimize_global(F7, TRAP, cli_thermal(6.08, F7), 10, trace=trace)
        assert [k for k, _ in trace] == list(range(1, 11))
        objs = [obj for _k, obj in trace]
        for obj, ref in zip(objs, NELDER_MEAD_F7_TRACE):
            assert obj <= ref * (1 + 1e-9)
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert seq.converged
        assert len(seq.n_evals) == 10
        assert all(n > 0 for n in seq.n_evals)
        # two starts per pulse count spent 418 evaluations here
        assert sum(seq.n_evals) <= 250

    def test_f8_no_worse_than_nelder_mead(self):
        trace = []
        seq = optimize_global(F8, TRAP, cli_thermal(15.87, F8), 15, trace=trace)
        assert trace[-1][1] <= NELDER_MEAD_F8_FINAL * (1 + 1e-9)
        # two starts per pulse count spent 389 evaluations here
        assert sum(seq.n_evals) <= 220

    def test_one_warm_start_per_pulse_count(self, monkeypatch):
        calls = []
        real_minimize = cooling.minimize

        def counting(fun, x0, *args, **kwargs):
            res = real_minimize(fun, x0, *args, **kwargs)
            calls.append((np.array(x0), res.x.copy()))
            return res

        monkeypatch.setattr(cooling, "minimize", counting)
        trace = []
        seq = optimize_global(F7, TRAP, thermal_state(1.0), 4, trace=trace)
        assert [len(x0) for x0, _ in calls] == [1, 2, 3, 4]
        for (_, prev), (x0, _) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(x0, np.append(prev, prev[-1]))
        assert seq.times == tuple(calls[-1][1])
        assert len(seq.n_evals) == len(trace) == 4


class TestHeuristicSequence:
    def test_f7_count_from_deep_thermal(self):
        init = deep_thermal(15.0, F7)
        seq = heuristic_sequence(F7, TRAP, init, tail_target=0.01, n_final=5)
        # a_opt ~ 0.73 gives ceil(ln 0.01 / ln a) = 15 fixed pulses
        assert len(seq.times) == 15 + 5
        assert len(set(seq.times[:15])) == 1
        assert seq.strategy == "heuristic"

    def test_f8_count_from_deep_thermal(self):
        init = deep_thermal(15.0, F8)
        seq = heuristic_sequence(F8, TRAP, init, tail_target=0.01, n_final=5)
        assert len(seq.times) == 7 + 5

    def test_two_level_count(self):
        chain = two_level_chain()
        init = deep_thermal(15.0, chain)
        seq = heuristic_sequence(chain, TRAP, init, tail_target=0.01, n_final=5)
        assert len(seq.times) == 72 + 5


class TestDualThermalDecompose:
    def test_recovers_synthetic_mixture(self):
        a = 0.7
        n_max = WINDOW[1] + len(F7.steps)
        hot = thermal_distribution(15.0, n_max)
        cold = thermal_distribution(0.1, n_max)
        history = []
        for k in range(8):
            probs = a**k * hot.probs + (1 - a**k) * cold.probs
            history.append(PhononDistribution(probs=probs, n_max=n_max))
        fit = dual_thermal_decompose(history, eta=0.07)
        assert fit.a == pytest.approx(a, abs=1e-6)
        assert fit.r_squared > 0.999999
        # subtraction noise at the 1e-18 level swamps the deep tail, so
        # the comparison needs a small absolute floor
        ref = cold.probs / cold.probs.sum()
        np.testing.assert_allclose(
            fit.residual.probs[:30], ref[:30], rtol=1e-6, atol=1e-15
        )

    def test_fitted_a_matches_suppression_factor(self):
        init = deep_thermal(15.0, F7)
        t_opt, a_opt = optimize_fixed_pulse(F7, TRAP, init)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        history = [init]
        p = init.probs
        for _ in range(10):
            p = ev.apply_pulse(t_opt, p)
            history.append(PhononDistribution(probs=p, n_max=init.n_max))
        fit = dual_thermal_decompose(history, eta=0.07)
        assert fit.a == pytest.approx(a_opt, rel=0.05)

    def test_rejects_non_geometric_tail(self):
        n_max = WINDOW[1] + 10
        history = [
            thermal_distribution(nb, n_max) for nb in (15.0, 14.0, 15.0, 13.0, 15.0)
        ]
        with pytest.raises(ValueError, match="not geometric"):
            dual_thermal_decompose(history, eta=0.07)

    def test_rejects_short_history(self):
        n_max = WINDOW[1] + 10
        history = [thermal_distribution(15.0, n_max)] * 3
        with pytest.raises(ValueError):
            dual_thermal_decompose(history, eta=0.07)

    def test_needs_window_or_eta(self):
        history = [thermal_distribution(15.0, 300)] * 5
        with pytest.raises(ValueError):
            dual_thermal_decompose(history)


class TestDataclasses:
    def test_pulse_sequence_validation(self):
        with pytest.raises(ValueError):
            PulseSequence(times=(0.1, -0.2), strategy="fixed")
        with pytest.raises(ValueError):
            PulseSequence(times=(0.1,), strategy="annealed")

    def test_suppression_fit_bounds(self):
        res = PhononDistribution(probs=np.array([1.0]), n_max=0)
        with pytest.raises(ValueError):
            SuppressionFit(a=1.5, fit_window=(10, 20), residual=res)
