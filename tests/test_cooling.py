"""Suppression-factor extraction, pulse-time optimization, and the
two-component decomposition of fixed-pulse histories."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from reference import apply_pulse, apply_table, mean_n
from scipy.optimize import minimize_scalar

from drsc import chain_dynamics, cooling
from drsc.chain_dynamics import ChainEvolver, _PulseTables, cached_evolver
from drsc.cli import cmd_table1
from drsc.config import RunConfig
from drsc.cooling import (
    PulseSequence,
    SuppressionFit,
    _log_suppression,
    _mean_and_gradient,
    asymptotic_window,
    dual_thermal_decompose,
    heuristic_sequence,
    optimize_fixed_pulse,
    optimize_fixed_pulses,
    optimize_global,
)
from drsc.manifold import build_coupling_chain, f7_scheme, f8_scheme, two_level_chain
from drsc.motional import (
    PhononDistribution,
    TrapParams,
    default_n_max,
    thermal_distribution,
    thermal_state,
)

F7 = build_coupling_chain(f7_scheme())
F8 = build_coupling_chain(f8_scheme())
CHAINS = {"F7": F7, "F8": F8, "two_level": two_level_chain()}
TRAP = TrapParams(eta=0.07)
WINDOW = asymptotic_window(0.07)


def deep_thermal(nbar, chain):
    return thermal_distribution(nbar, WINDOW[1] + len(chain.steps))


def suppression(chain, t, init):
    """The tail suppression a of one pulse of duration t on init's full
    ladder: the window mean of the per-bin log ratios, exponentiated."""
    after = apply_pulse(cached_evolver(chain, TRAP, init.n_max), t, init.probs)
    return float(np.exp(_log_suppression(after, init.probs, WINDOW)))


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

# scipy's L-BFGS-B on the same objective, which the numpy L-BFGS replaced:
# (scheme, nbar, pulses) -> (<n> at every pulse count, total evaluations)
LBFGSB_RUNS = {
    ("F7", 6.08, 10): (
        (
            3.40859144481899, 1.8565410523346402, 1.014777055513959, 0.562745268403549,
            0.31444722225643296, 0.17428525521423144, 0.09526356086442686,
            0.051899399443461974, 0.028524217521242266, 0.015854369523272592,
        ),
        185,
    ),
    ("F8", 15.87, 15): (
        (
            8.832835812485888, 4.649575257406653, 2.386437328653379, 1.209209803358976,
            0.608260648931254, 0.30458904218739097, 0.15206405911104573,
            0.07575350035378253, 0.03767581275942773, 0.01871205279367844,
            0.009281185426886388, 0.004596504476656538, 0.002271750297044006,
            0.0011192360463581229, 0.0005485482806871256,
        ),
        161,
    ),
    ("F7", 15.87, 21): (
        (
            12.913510723825244, 10.328143200719648, 8.021884470725315, 6.184818431486788,
            4.75117194774333, 3.641448442550298, 2.787104294524532, 2.131663603823077,
            1.629719559598235, 1.2453003605357256, 0.9500948328633405, 0.7225584082652531,
            0.5479747907685126, 0.4148441875625219, 0.31366563243731505, 0.2369854853772175,
            0.17901414440892074, 0.1352572867047214, 0.10225350236189394,
            0.07735909444823381, 0.05856651632838336,
        ),
        531,
    ),
    ("F8", 40.0, 40): (
        (
            31.175710374681202, 23.929225204512605, 18.210352198308538, 13.79208347783829,
            10.41575518949758, 7.8513110762087965, 5.910609654454097, 4.445330508638803,
            3.3407035333634494, 2.508842151987921, 1.8828674727267927, 1.4120889709536486,
            1.0581868106044685, 0.792244627479524, 0.5924691840343213, 0.44245025254568077,
            0.329838883086718, 0.245346607801874, 0.18198930541622724, 0.13451680002207841,
            0.09898305280996275, 0.07242255860269022, 0.05260685135611327,
            0.03786136904938728, 0.02692776022636007, 0.018860379857758323,
            0.012948495230491776, 0.008657815615706303, 0.005586534517107931,
            0.0034322496331103476, 0.0019669776982842438, 0.0010180027447731963,
            0.0004522385326161688, 0.0001606384406892478, 4.234504224501304e-05,
            7.790474590275917e-06, 9.555891749456682e-07, 7.613593208395299e-08,
            3.922564240487031e-09, 1.3348208663900609e-10,
        ),
        493,
    ),
}

# optimize_global's evaluations, each pulse count's L-BFGS started from the
# exact Hessian diagonal; the tests allow 10% more, since last-bit changes
# of the pulse tables have moved these counts by up to 8%
EVALS = {
    ("F7", 6.08, 10): 86,
    ("F8", 15.87, 15): 71,
    ("F7", 15.87, 21): 171,
    ("F8", 40.0, 40): 213,
    ("two_level", 0.5, 25): 158,
}


def eval_bound(case):
    return round(1.1 * EVALS[case])


# optimize_global's one-pulse optimum (t, <n>) from the state `drsc cool`
# builds, frozen from the search seeded by the 240-point grid
ONE_PULSE_OPTIMA = {
    ("F7", 1.0): (0.7922765659332878, 0.13192907699153814),
    ("F7", 6.08): (0.5906392369022813, 3.4085914448189896),
    ("F7", 15.87): (0.3814737533731862, 12.913510723825244),
    ("F7", 40.0): (0.24468919499270964, 36.73657784449924),
    ("F8", 1.0): (1.0721650201894992, 0.03731701723778873),
    ("F8", 6.08): (1.2312218853565093, 1.6771502210104394),
    ("F8", 15.87): (1.1695597939566438, 8.832835812485886),
    ("F8", 40.0): (0.9525199163547751, 31.17571037468121),
    ("two_level", 1.0): (0.7215925207674756, 0.590200489743261),
    ("two_level", 6.08): (0.37257359190024947, 5.477793639985818),
    ("two_level", 15.87): (0.24247131700498678, 15.217277694318176),
    ("two_level", 40.0): (0.17039172169638675, 39.25864892893332),
}


# _mean_and_gradient's (f, df/dt) as float.hex at the times of
# test_gradient_matches_central_differences, frozen from the kernel that
# forms cos and sin from one tan of the half phase
FROZEN_MEAN_AND_GRADIENT = {
    "F7": (
        "0x1.aebbf3e4074adp-1",
        (
            "-0x1.09f67d9f3e5b3p+1", "-0x1.d9c044be3e74ep+0", "0x1.842183b1f7546p-1",
            "-0x1.ef7d914d442c6p-3", "-0x1.21b448ce2595ep+0",
        ),
    ),
    "F8": (
        "0x1.5fa8358f064e2p+1",
        (
            "-0x1.d36dc8af1242ap+0", "-0x1.80d97431e0268p+1", "-0x1.3fb3d6bcacf8bp+1",
            "-0x1.7d188d385ea5bp+1", "-0x1.c534609a8a4a3p+1",
        ),
    ),
}

# the same, frozen from the kernel that called libm's cos and sin (and
# from the passes that gathered lambda over band-target indices and summed
# by bincount): the reference the tan kernel's rounding is held to
LIBM_MEAN_AND_GRADIENT = {
    "F7": (
        "0x1.aebbf3e4074adp-1",
        (
            "-0x1.09f67d9f3e5b1p+1", "-0x1.d9c044be3e74cp+0", "0x1.842183b1f7545p-1",
            "-0x1.ef7d914d442cep-3", "-0x1.21b448ce25964p+0",
        ),
    ),
    "F8": (
        "0x1.5fa8358f064e2p+1",
        (
            "-0x1.d36dc8af12429p+0", "-0x1.80d97431e0264p+1", "-0x1.3fb3d6bcacf84p+1",
            "-0x1.7d188d385ea5fp+1", "-0x1.c534609a8a4a2p+1",
        ),
    ),
}


def band_loop_mean_and_gradient(times, evolver, p0):
    """Reference adjoint: the forward pass and the step back each loop over
    the bands, one numpy call per band k, on the batched kernel's tables."""
    inputs, tables, p = [], [], p0
    for site_p, d_site_p in zip(*_PulseTables(evolver, len(times))(np.array(times))):
        inputs.append(p)
        tables.append((site_p, d_site_p))
        after = np.zeros_like(p)
        for k in range(site_p.shape[-1]):
            after[: len(p) - k] += site_p[k:, k] * p[k:]
        p = after
    n = np.arange(len(p))
    total = p.sum()
    f = float(n @ p) / total
    lam = (n - f) / total
    grad = np.zeros(len(tables))
    for i in range(len(tables) - 1, -1, -1):
        site_p, d_site_p = tables[i]
        p_i, lam_next = inputs[i], np.zeros_like(lam)
        for k in range(site_p.shape[-1]):
            shifted = lam[: len(lam) - k]
            lam_next[k:] += site_p[k:, k] * shifted
            grad[i] += (d_site_p[k:, k] * p_i[k:]) @ shifted
        lam = lam_next
    return f, grad


# the optimizer internals as imported: global_run's cache holds runs made with these
OPTIMIZER_INTERNALS = {
    name: getattr(cooling, name) for name in ("_lbfgs", "_two_loop", "_mean_and_gradient")
}


def global_run(scheme, nbar, n_pulses):
    """optimize_global from the state `drsc cool` builds, once per case;
    returns the sequence and <n> at every pulse count.  Raises while any
    optimizer internal is patched, whose effect the cache would hide."""
    patched = [name for name, f in OPTIMIZER_INTERNALS.items() if getattr(cooling, name) is not f]
    if patched:
        raise RuntimeError(f"global_run returns cached unpatched runs; patched: {patched}")
    return cached_global_run(scheme, nbar, n_pulses)


@functools.cache
def cached_global_run(scheme, nbar, n_pulses):
    chain = CHAINS[scheme]
    trace = []
    seq = optimize_global(chain, TRAP, cli_thermal(nbar, chain), n_pulses, trace=trace)
    assert [k for k, _ in trace] == list(range(1, n_pulses + 1))
    return seq, [obj for _k, obj in trace]


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
        assert suppression(F7, 0.0, init) == pytest.approx(1.0, abs=1e-12)

    def test_pulse_suppresses_tail(self):
        init = deep_thermal(15.0, F7)
        a = suppression(F7, 0.17, init)
        assert 0.0 < a < 1.0

    def test_window_needs_headroom(self):
        # n_max must cover the window plus the chain reach
        with pytest.raises(ValueError, match="exceeds n_max"):
            optimize_fixed_pulse(F7, TRAP, thermal_state(6.08))

    def test_window_rejects_zero_entries(self):
        init = thermal_distribution(0.0, WINDOW[1] + len(F7.steps))
        with pytest.raises(ValueError, match="zero-probability"):
            optimize_fixed_pulse(F7, TRAP, init)


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
    """The single-pulse search as a loop of scalar objective calls refined
    by scipy's Brent minimizer: an oracle independent of the batched grid
    and its derivative-based refinement."""
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
    def test_matches_brent_oracle(self, chain):
        init = deep_thermal(20.0, chain)
        t_ref, a_ref = grid_loop_then_brent(lambda t: suppression(chain, t, init))
        t, a = optimize_fixed_pulse(chain, TRAP, init)
        assert abs(t - t_ref) <= 1e-8
        assert a <= a_ref + 1e-15
        assert a == suppression(chain, t, init)

    def test_mean_n_seed_matches_brent_oracle(self):
        init = thermal_state(1.0)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        n = np.arange(init.n_max + 1)

        def mean_after(t):
            p = apply_pulse(ev, t, init.probs)
            return float(n @ p) / p.sum()

        t_ref, f_ref = grid_loop_then_brent(mean_after)
        t = optimize_global(F7, TRAP, init, 1).times[0]
        assert abs(t - t_ref) <= 1e-8
        assert mean_after(t) <= f_ref + 1e-15

    def test_table1_f7_kernel_calls(self, monkeypatch):
        # two kernels: one 240-point grid for all nine nbar cells,
        # _GRID_COLUMNS pulse times per chunk, and one for every cell's
        # L-BFGS, one pulse time per table; both compute only the window's
        # rows and the pulse reach above them
        nbars = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0]
        cfg = RunConfig.from_dict({"table1": {"schemes": ["F7"], "nbars": nbars}})
        kernels = []

        class CountingTables(_PulseTables):
            def __init__(self, evolver, max_pulses, derivative=True):
                super().__init__(evolver, max_pulses, derivative)
                self.rows, self.derivative = len(evolver.w), derivative
                self.grid_chunks, self.table_calls = [], []
                kernels.append(self)

            def grid(self, times, starts):
                for after in super().grid(times, starts):
                    self.grid_chunks.append(after.shape[:2])
                    yield after

            def __call__(self, times):
                self.table_calls.append(len(times))
                return super().__call__(times)

        monkeypatch.setattr(chain_dynamics, "_PulseTables", CountingTables)
        monkeypatch.setattr(cooling, "_PulseTables", CountingTables)
        cmd_table1(cfg)
        n_lo, n_hi = asymptotic_window(TRAP.eta)
        window_rows = n_hi + F7.bandwidth - n_lo
        grid, refine = kernels
        assert (grid.derivative, refine.derivative) == (False, True)
        assert grid.rows == refine.rows == window_rows
        assert not grid.table_calls and not refine.grid_chunks
        assert len(grid.grid_chunks) <= math.ceil(cooling._T_GRID_POINTS / cooling._GRID_COLUMNS)
        assert max(n_times for n_times, _ in grid.grid_chunks) <= cooling._GRID_COLUMNS
        assert sum(n_times for n_times, _ in grid.grid_chunks) == cooling._T_GRID_POINTS
        assert {starts for _, starts in grid.grid_chunks} == {len(nbars)}
        assert set(refine.table_calls) == {1}
        assert len(refine.table_calls) <= 72

    def test_inits_must_share_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            optimize_fixed_pulses(F7, TRAP, [deep_thermal(10.0, F7), deep_thermal(10.0, F8)])
        with pytest.raises(ValueError, match="n_max"):
            optimize_fixed_pulses(F7, TRAP, [])

    # evolvers are built before tracing, so the bound is on the search's own
    # arrays, which the grid's column count keeps small
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
        out = apply_pulse(ev, seq.times[0], init.probs)
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
        # f is the forward pass over the batched kernel's tables, bit for
        # bit, and over the one-time tables up to the GEMM's rounding
        n = np.arange(init.n_max + 1)
        p, q = init.probs, init.probs
        for t, table in zip(x, _PulseTables(ev, len(x))(x)[0]):
            p, q = apply_table(table, p), apply_pulse(ev, t, q)
        assert f == float(n @ p) / float(p.sum())
        assert f == pytest.approx(float(n @ q) / float(q.sum()), rel=1e-14, abs=0)
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

    @pytest.mark.parametrize("scheme, nbar", [("F7", 6.08), ("F8", 15.87), ("two_level", 6.08)])
    def test_hessian_diagonal_matches_central_differences(self, scheme, nbar):
        # ten random times, two of them at and near the 1e-6 bound
        chain = CHAINS[scheme]
        init = cli_thermal(nbar, chain)
        ev = cached_evolver(chain, TRAP, init.n_max)
        x = np.random.default_rng(11).uniform(cooling._T_GRID_LO, cooling._T_GRID_HI, 10)
        x[[2, 7]] = 1e-6, 3e-6
        f, grad, diag = _mean_and_gradient(x, ev, init.probs, curvature=True)
        # the order-2 call's f and gradient are the plain call's to rounding
        f_plain, grad_plain = _mean_and_gradient(x, ev, init.probs)
        assert f == pytest.approx(f_plain, rel=1e-15, abs=0)
        assert np.max(np.abs(grad - grad_plain)) <= 1e-14 * np.max(np.abs(grad_plain))
        h = 1e-6
        fd = np.array(
            [
                (
                    _mean_and_gradient(x + h * e, ev, init.probs)[1][i]
                    - _mean_and_gradient(x - h * e, ev, init.probs)[1][i]
                )
                / (2 * h)
                for i, e in enumerate(np.eye(len(x)))
            ]
        )
        assert np.max(np.abs(diag - fd)) <= 1e-7 * np.max(np.abs(diag))

    @pytest.mark.parametrize(
        "scheme, nbar, times",
        [("F7", 6.08, (0.15, 0.3, 0.5, 0.7, 0.2)), ("F8", 15.87, (0.6, 0.4, 0.65, 0.3, 0.5))],
    )
    def test_matches_the_frozen_bits(self, scheme, nbar, times):
        chain = CHAINS[scheme]
        init = cli_thermal(nbar, chain)
        f, grad = _mean_and_gradient(
            np.array(times), ChainEvolver(chain, TRAP, init.n_max), init.probs
        )
        assert (f.hex(), tuple(map(float.hex, grad))) == FROZEN_MEAN_AND_GRADIENT[scheme]
        f_libm, grad_libm = LIBM_MEAN_AND_GRADIENT[scheme]
        grad_libm = np.array([float.fromhex(g) for g in grad_libm])
        assert f == float.fromhex(f_libm)
        assert np.max(np.abs(grad - grad_libm)) <= 2e-15 * np.max(np.abs(grad_libm))

    @pytest.mark.parametrize(
        "chain, init, times",
        [
            (F7, cli_thermal(6.08, F7), (0.15, 0.3, 0.5, 0.7, 0.2)),
            (F8, cli_thermal(15.87, F8), (0.6, 0.4, 0.65, 0.3, 0.5)),
            # the ladder is shorter than the chain: 6 of F8's 16 sites
            (F8, thermal_distribution(2.0, 5), (0.4, 0.9, 0.25)),
            (F7, cli_thermal(6.08, F7), (0.3, 0.0, 0.55, 0.0)),
        ],
        ids=["F7", "F8", "F8-n_max-5", "F7-zero-times"],
    )
    def test_gather_matches_the_band_loop(self, chain, init, times):
        ev = ChainEvolver(chain, TRAP, init.n_max)
        f, grad = _mean_and_gradient(np.array(times), ev, init.probs)
        f_ref, grad_ref = band_loop_mean_and_gradient(times, ev, init.probs)
        assert f == f_ref
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))

    def test_f7_no_worse_than_nelder_mead_at_every_count(self):
        seq, objs = global_run("F7", 6.08, 10)
        for obj, ref in zip(objs, NELDER_MEAD_F7_TRACE):
            assert obj <= ref * (1 + 1e-9)
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert seq.converged
        assert len(seq.n_evals) == 10
        assert all(n > 0 for n in seq.n_evals)
        # two starts per pulse count spent 418 evaluations here, and the
        # scalar-scaled L-BFGS 143
        assert sum(seq.n_evals) <= eval_bound(("F7", 6.08, 10))

    def test_f8_no_worse_than_nelder_mead(self):
        seq, objs = global_run("F8", 15.87, 15)
        assert objs[-1] <= NELDER_MEAD_F8_FINAL * (1 + 1e-9)
        # two starts per pulse count spent 389 evaluations here, and the
        # scalar-scaled L-BFGS 128
        assert sum(seq.n_evals) <= eval_bound(("F8", 15.87, 15))

    def test_converged_on_the_long_f7_sequence(self):
        # the acceptance-10 case: with ftol at 1e-15 the line search stalled
        # at the ~1e-14 rounding floor of log <n> and reported converged False
        seq, _ = global_run("F7", 15.87, 21)
        assert seq.converged is True
        assert sum(seq.n_evals) <= eval_bound(("F7", 15.87, 21))

    @pytest.mark.parametrize("case", list(LBFGSB_RUNS), ids=lambda case: "-".join(map(str, case)))
    def test_no_worse_than_scipy_lbfgsb(self, case):
        ref_objs, ref_evals = LBFGSB_RUNS[case]
        seq, objs = global_run(*case)
        assert seq.converged is True
        assert sum(seq.n_evals) <= eval_bound(case) < ref_evals
        for obj, ref in zip(objs, ref_objs, strict=True):
            assert obj <= ref * (1 + 1e-12)
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_floor_ends_deep_cooling(self):
        # F8 from nbar 1: the sixth pulse takes <n> below the 1e-12 floor,
        # so k = 6..25 each start below it and end after one evaluation,
        # their start's; without the floor this run took 3051 evaluations,
        # and with the scalar-scaled L-BFGS 128
        seq, objs = global_run("F8", 1.0, 25)
        assert seq.converged is True
        assert sum(seq.n_evals) == 77
        assert seq.n_evals[5:] == (1,) * 20
        assert objs[5] < 1e-12
        # <n> above 1e-9, frozen from the search without the floor
        unfloored = (
            0.03731701723778873, 0.000491778958758679, 3.6954510343553283e-06,
            1.4165231429598209e-08,
        )
        for obj, ref in zip(objs, unfloored):
            assert obj == pytest.approx(ref, rel=1e-10, abs=0)
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_two_level_converges_near_the_floor(self):
        # from a repeated last pulse this run ground on <n> ~ 1e-12 and
        # ended unconverged after 5187 evaluations, and the scalar-scaled
        # L-BFGS took 1137 from the prepended start
        seq, objs = global_run("two_level", 0.5, 25)
        assert seq.converged is True
        assert sum(seq.n_evals) <= eval_bound(("two_level", 0.5, 25))
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize(
        "case",
        [("F7", 6.08, 10), ("F8", 15.87, 15), ("two_level", 0.5, 25)],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_decrement_stop_skips_only_invisible_steps(self, monkeypatch, case):
        # a search that ends on the decrement, before a line search, ends at
        # the x where it formed its last direction d: the full step x + d
        # it skipped would have lowered log <n> by at most 1e-13 relative
        directions, skipped = [], []
        real_lbfgs, real_two_loop = cooling._lbfgs, cooling._two_loop

        def recording_two_loop(g, *args):
            d = real_two_loop(g, *args)
            directions.append((g.copy(), d.copy()))
            return d

        def recording_lbfgs(fun, x0, lower, h0=None):
            directions.clear()
            x, f, n_evals, converged = real_lbfgs(fun, x0, lower, h0)
            if converged and directions and np.array_equal(directions[-1][0], fun(x)[1]):
                f_step = fun(np.maximum(x + directions[-1][1], lower))[0]
                skipped.append((f - f_step) / max(abs(f), 1.0))
            return x, f, n_evals, converged

        monkeypatch.setattr(cooling, "_two_loop", recording_two_loop)
        monkeypatch.setattr(cooling, "_lbfgs", recording_lbfgs)
        scheme, nbar, n_pulses = case
        chain = CHAINS[scheme]
        seq = optimize_global(chain, TRAP, cli_thermal(nbar, chain), n_pulses)
        assert seq.converged
        assert skipped
        assert max(skipped) <= 1e-13

    @pytest.mark.parametrize(
        "case", list(ONE_PULSE_OPTIMA), ids=lambda case: "-".join(map(str, case))
    )
    def test_coarse_seed_keeps_the_one_pulse_optimum(self, case):
        t_ref, mean_ref = ONE_PULSE_OPTIMA[case]
        seq, objs = global_run(*case, 1)
        assert seq.times[0] == pytest.approx(t_ref, rel=1e-6, abs=0)
        assert objs[0] == pytest.approx(mean_ref, rel=1e-7, abs=0)

    @pytest.mark.parametrize("name", list(OPTIMIZER_INTERNALS))
    def test_global_run_refuses_patched_internals(self, monkeypatch, name):
        # a cached run would hide the patch: global_run raises instead of
        # returning the unpatched sequence
        global_run("F7", 6.08, 10)
        monkeypatch.setattr(cooling, name, lambda *args, **kwargs: None)
        with pytest.raises(RuntimeError, match=f"patched: \\['{name}'\\]"):
            global_run("F7", 6.08, 10)

    def test_evaluations_reuse_one_workspace(self):
        # F8 at n_max 400, 20 pulses: the tables and their derivatives are
        # 2 MB, and an evaluation with the workspace allocates none of them
        init = thermal_distribution(15.87, 400)
        ev = cached_evolver(F8, TRAP, init.n_max)
        times = np.linspace(0.1, 0.9, 20)
        work = cooling._Workspace(ev, len(times))
        first = _mean_and_gradient(times, ev, init.probs, work)
        tracemalloc.start()
        again = _mean_and_gradient(times, ev, init.probs, work)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert again[0] == first[0] and np.array_equal(again[1], first[1])
        assert peak < 0.2 * 2 * len(times) * (init.n_max + 1) * ev.n_sites * 8
        fresh = _mean_and_gradient(times, ev, init.probs)
        assert fresh[0] == first[0] and np.array_equal(fresh[1], first[1])

    def test_workspace_reused_at_fewer_pulses(self):
        # stale tables, inputs and lambdas past a shorter batch change
        # nothing, and no evaluation writes the zero pads
        init = cli_thermal(6.08, F7)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        work = cooling._Workspace(ev, 10)
        for times in (np.linspace(0.05, 1.15, 10), [0.4, 0.0, 0.9], np.linspace(0.9, 0.1, 7)):
            f, grad = _mean_and_gradient(np.array(times), ev, init.probs, work)
            fresh = _mean_and_gradient(np.array(times), ev, init.probs)
            assert f == fresh[0] and np.array_equal(grad, fresh[1])
            assert not work.band_sum.padded[:, init.n_max + 1 :].any()
            assert not work.lams[:, : ev.n_sites - 1].any()

    @staticmethod
    def recorded_run(monkeypatch, chain, init, n_pulses, penalty=0.0):
        """optimize_global with every L-BFGS start and optimum, and every
        kernel evaluation, recorded; penalty is added to <n> at each
        (k-1)-optimum's prepended start for k >= 3."""
        searches, evaluated = [], []
        real_lbfgs, real_mean = cooling._lbfgs, cooling._mean_and_gradient

        def recording_lbfgs(fun, x0, *args, **kwargs):
            x, f, n_evals, converged = real_lbfgs(fun, x0, *args, **kwargs)
            searches.append((np.array(x0), x.copy(), n_evals))
            return x, f, n_evals, converged

        def recording_mean(times, *args):
            f, *derivatives = real_mean(times, *args)
            prev = searches[-1][1] if searches else None
            if len(times) >= 3 and np.array_equal(times, np.insert(prev, 0, prev[0])):
                f += penalty
            evaluated.append((times.copy(), f))
            return f, *derivatives

        monkeypatch.setattr(cooling, "_lbfgs", recording_lbfgs)
        monkeypatch.setattr(cooling, "_mean_and_gradient", recording_mean)
        trace = []
        seq = optimize_global(chain, TRAP, init, n_pulses, trace=trace)
        return seq, [obj for _k, obj in trace], searches, evaluated

    def test_start_rule(self, monkeypatch):
        init = cli_thermal(6.08, F7)
        seq, objs, searches, evaluated = self.recorded_run(monkeypatch, F7, init, 10)
        assert [len(x0) for x0, _, _ in searches] == list(range(1, 11))
        # k = 1 starts at the seed grid time with the lowest one-pulse <n>
        ev = ChainEvolver(F7, TRAP, init.n_max)
        grid = np.linspace(cooling._T_GRID_LO, cooling._T_GRID_HI, cooling._T_SEED_POINTS)
        n = np.arange(init.n_max + 1)
        means = [n @ p / p.sum() for p in (apply_pulse(ev, t, init.probs) for t in grid)]
        np.testing.assert_array_equal(searches[0][0], [grid[np.argmin(means)]])
        # k > 1 starts from the (k-1)-optimum with its first time repeated
        # in front when that start's true <n> is no higher, otherwise with
        # its last time repeated at the end; the kept start's evaluation
        # is the search's first, so every k's evaluations are its L-BFGS's
        # plus the probe of a rejected start
        probes = {times.tobytes(): f for times, f in evaluated}
        fallbacks = []
        for (_, prev, _), (x0, _, _), prev_obj in zip(searches, searches[1:], objs):
            prepended = np.insert(prev, 0, prev[0])
            fallbacks.append(probes[prepended.tobytes()] > prev_obj)
            expected = np.append(prev, prev[-1]) if fallbacks[-1] else prepended
            np.testing.assert_array_equal(x0, expected)
        assert not any(fallbacks)
        assert list(seq.n_evals) == [n_evals for _, _, n_evals in searches]
        assert sum(seq.n_evals) == len(evaluated)
        assert seq.times == tuple(searches[-1][1])

    def test_each_start_hands_its_hessian_diagonal_to_the_search(self, monkeypatch):
        # the k = 1 seed, then each kept prepended start: L-BFGS gets the
        # diagonal of the Hessian of log <n> at its start
        init = cli_thermal(6.08, F7)
        ev = cached_evolver(F7, TRAP, init.n_max)
        starts, real_lbfgs = [], cooling._lbfgs

        def recording_lbfgs(fun, x0, lower, h0=None):
            starts.append((x0.copy(), h0))
            return real_lbfgs(fun, x0, lower, h0)

        monkeypatch.setattr(cooling, "_lbfgs", recording_lbfgs)
        optimize_global(F7, TRAP, init, 4)
        assert [len(x0) for x0, _ in starts] == [1, 2, 3, 4]
        for x0, h0 in starts:
            f, grad, diag = _mean_and_gradient(x0, ev, init.probs, curvature=True)
            np.testing.assert_array_equal(h0, np.abs(diag / f - (grad / f) ** 2))

    def test_rejected_prepended_start_falls_back(self, monkeypatch):
        # every prepended start from k = 3 on reads 1 quantum higher: the
        # search starts from the appended one, and its probe counts at k
        init = thermal_state(1.0)
        seq, objs, searches, evaluated = self.recorded_run(monkeypatch, F7, init, 5, penalty=1.0)
        for (_, prev, _), (x0, _, _) in zip(searches[1:], searches[2:]):
            np.testing.assert_array_equal(x0, np.append(prev, prev[-1]))
        assert list(seq.n_evals[2:]) == [n_evals + 1 for _, _, n_evals in searches[2:]]
        assert sum(seq.n_evals) == len(evaluated)
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert seq.converged


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


class TestLbfgs:
    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [-1.2, 1.0] * 5], ids=["2-D", "10-D"])
    def test_rosenbrock_reaches_its_minimum(self, x0):
        x, f, n_evals, converged = cooling._lbfgs(rosenbrock, np.array(x0), -np.inf)
        assert converged
        assert f == rosenbrock(x)[0]
        np.testing.assert_allclose(x, 1.0, rtol=0, atol=1e-7)
        assert n_evals <= 100

    def test_iterates_respect_the_bound(self):
        seen = []

        def linear(t):
            seen.append(float(t[0]))
            return float(t[0]), np.ones(1)

        x, _, _, converged = cooling._lbfgs(linear, np.array([1.0]), 1e-6)
        assert min(seen) >= 1e-6
        assert x[0] == pytest.approx(1e-6, rel=1e-9)
        assert converged

    def test_direction_blocked_by_the_bound_is_not_converged(self):
        # t0 sits on the bound and the first direction, -gradient, points
        # below it: the step cap is 0 although the projected gradient is ~3
        seen = []

        def corner(t):
            seen.append(float(t.min()))
            return float(t[0] + (t[1] - 1.0) ** 2), np.array([1.0, 2.0 * (t[1] - 1.0)])

        _, _, _, converged = cooling._lbfgs(corner, np.array([1e-6, 3.0]), 1e-6)
        assert min(seen) >= 1e-6
        assert not converged


    def test_separable_quadratic_with_its_diagonal_takes_one_step(self):
        # with H0 the exact inverse Hessian, the first trial step 1 lands on
        # the minimum: the start's evaluation and that step's
        a, c = np.array([0.5, 4.0, 30.0]), np.array([0.3, -1.0, 2.0])

        def quadratic(x):
            return float(0.5 * a @ (x - c) ** 2), a * (x - c)

        x, f, n_evals, converged = cooling._lbfgs(quadratic, np.zeros(3), -np.inf, h0=a)
        assert converged and n_evals == 2
        np.testing.assert_allclose(x, c, rtol=0, atol=1e-15)
        # the scalar scaling needs more
        assert cooling._lbfgs(quadratic, np.zeros(3), -np.inf)[2] > 2

    @pytest.mark.parametrize("n_pairs", [1, 3, 10])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["scalar", "h0"])
    def test_two_loop_matches_the_pairwise_recursion(self, n_pairs, diagonal):
        # Liu & Nocedal's loops, one inner product with d per pair and loop
        rng = np.random.default_rng(n_pairs)
        a = rng.normal(size=(12, 12))
        hessian = a @ a.T + 12 * np.eye(12)
        s = rng.normal(size=(n_pairs, 12))
        y = s @ hessian
        g = rng.normal(size=12)
        h0 = rng.uniform(1.0, 5.0, size=12) if diagonal else None
        rhos = [1.0 / float(si @ yi) for si, yi in zip(s, y)]
        d, alphas = -g, []
        for si, yi, rho in zip(s[::-1], y[::-1], rhos[::-1]):
            alphas.append(rho * (si @ d))
            d = d - alphas[-1] * yi
        d = d / h0 if diagonal else d * float(s[-1] @ y[-1]) / float(y[-1] @ y[-1])
        for si, yi, rho, alpha in zip(s, y, rhos, alphas[::-1]):
            d = d + (alpha - rho * (yi @ d)) * si
        cross = [[float(s[i] @ y[j]) for j in range(i + 1, n_pairs)] for i in range(n_pairs)]
        np.testing.assert_allclose(
            cooling._two_loop(g, s, y, rhos, cross, h0), d, rtol=1e-13, atol=1e-15
        )

    @pytest.mark.parametrize(
        "h0",
        [[1.0, 0.0], [1.0, -2.0], [np.nan, 1.0], [np.inf, 1.0]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_unusable_diagonal_takes_the_scalar_path(self, h0):
        def search(h0):
            seen = []

            def recorded(x):
                seen.append(x.copy())
                return rosenbrock(x)

            x, f, n_evals, converged = cooling._lbfgs(recorded, np.array([-1.2, 1.0]), -np.inf, h0)
            return x, f, n_evals, converged, np.array(seen)

        with_h0, without = search(np.array(h0)), search(None)
        assert all(np.array_equal(a, b) for a, b in zip(with_h0, without))


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

    # heating-free final <n> of the two-stage design, whose cleanup pulses
    # were tuned for a separate thermal nbar 5 state on its own n_max 50
    TWO_STAGE_FINAL = {
        ("F7", 6.08): 0.04483,
        ("F7", 15.87): 0.1541,
        ("F8", 6.08): 2.003e-5,
        ("F8", 15.87): 0.004888,
        ("two_level", 6.08): 0.6365,
        ("two_level", 15.87): 0.6513,
    }

    @pytest.mark.parametrize(
        "case", list(TWO_STAGE_FINAL), ids=lambda case: "-".join(map(str, case))
    )
    def test_no_worse_than_the_two_stage_design(self, case):
        scheme, nbar = case
        chain = CHAINS[scheme]
        init = cli_thermal(nbar, chain)
        ev = cached_evolver(chain, TRAP, init.n_max)
        p = init.probs
        for t in heuristic_sequence(chain, TRAP, init).times:
            p = apply_pulse(ev, t, p)
        assert mean_n(PhononDistribution(probs=p, n_max=init.n_max)) <= self.TWO_STAGE_FINAL[case]

    @pytest.mark.parametrize("chain", [F7, F8, two_level_chain()], ids=["F7", "F8", "two-level"])
    def test_cleanup_is_optimize_global_on_the_reached_state(self, chain):
        init = cli_thermal(6.08, chain)
        seq = heuristic_sequence(chain, TRAP, init, n_final=3)
        t_opt, a_opt = optimize_fixed_pulse(chain, TRAP, init)
        n_fixed = math.ceil(math.log(0.01) / math.log(a_opt))
        assert seq.times[:n_fixed] == (t_opt,) * n_fixed
        ev = cached_evolver(chain, TRAP, init.n_max)
        p = init.probs
        for _ in range(n_fixed):
            p = apply_pulse(ev, t_opt, p)
        reached = PhononDistribution(probs=p, n_max=init.n_max)
        assert seq.times[n_fixed:] == optimize_global(chain, TRAP, reached, 3).times


class TestDualThermalDecompose:
    def test_recovers_synthetic_mixture(self):
        a = 0.7
        n_max = WINDOW[1] + len(F7.steps)
        hot = thermal_distribution(15.0, n_max)
        cold = thermal_distribution(0.1, n_max)
        history = np.stack([a**k * hot.probs + (1 - a**k) * cold.probs for k in range(8)])
        fit = dual_thermal_decompose(history, eta=0.07)
        assert fit.a == pytest.approx(a, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_fitted_a_matches_suppression_factor(self):
        init = deep_thermal(15.0, F7)
        t_opt, a_opt = optimize_fixed_pulse(F7, TRAP, init)
        ev = ChainEvolver(F7, TRAP, init.n_max)
        history = [init.probs]
        for _ in range(10):
            history.append(apply_pulse(ev, t_opt, history[-1]))
        fit = dual_thermal_decompose(np.stack(history), eta=0.07)
        assert fit.a == pytest.approx(a_opt, rel=0.05)

    def test_rejects_non_geometric_tail(self):
        n_max = WINDOW[1] + 10
        history = np.stack(
            [thermal_distribution(nb, n_max).probs for nb in (15.0, 14.0, 15.0, 13.0, 15.0)]
        )
        with pytest.raises(ValueError, match="not geometric"):
            dual_thermal_decompose(history, eta=0.07)

    def test_rejects_tail_at_rounding_floor(self):
        # a thermal state at nbar 1 holds ~2^-122 in the window n = 122..245
        history = np.stack([thermal_distribution(1.0, 250).probs] * 4)
        with pytest.raises(ValueError, match=r"falls to 1\.88e-37 after 0 pulses"):
            dual_thermal_decompose(history, eta=0.07)

    def test_rejects_short_history(self):
        n_max = WINDOW[1] + 10
        history = np.stack([thermal_distribution(15.0, n_max).probs] * 3)
        with pytest.raises(ValueError):
            dual_thermal_decompose(history, eta=0.07)


class TestDataclasses:
    def test_pulse_sequence_validation(self):
        with pytest.raises(ValueError):
            PulseSequence(times=(0.1, -0.2), strategy="fixed")
        with pytest.raises(ValueError):
            PulseSequence(times=(0.1,), strategy="annealed")

    def test_suppression_fit_bounds(self):
        with pytest.raises(ValueError):
            SuppressionFit(a=1.5, fit_window=(10, 20))
