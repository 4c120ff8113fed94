"""Shipping gate: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Criteria 2, 5, and 10 are expected to fail; the chain-coupling monotonicity,
the [20, 60] offset-constancy window, and the 20% heuristic-vs-global bound
do not hold for the model as specified (see notes in the repo history).
"""

import math
import time

import numpy as np
from reference import apply_pulse, fock_coupling, mpmath_coupling, ode_site_populations
from scipy.integrate import solve_ivp

from drsc.chain_dynamics import ChainEvolver
from drsc.cli import REFERENCE_OPTIMA, cmd_table1
from drsc.config import RunConfig
from drsc.cooling import (
    asymptotic_window,
    heuristic_sequence,
    optimize_fixed_pulse,
    optimize_global,
)
from drsc.heating import (
    build_pumping_graph,
    monte_carlo_steps,
    propagate_heating,
    steps_to_dark,
)
from drsc.manifold import (
    _step_amplitude,
    build_coupling_chain,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)
from drsc.motional import (
    TrapParams,
    default_n_max,
    mean_n,
    thermal_distribution,
)
from drsc.thermometry import end_to_end_protocol, sideband_probe

F7 = build_coupling_chain(f7_scheme())
F8 = build_coupling_chain(f8_scheme())
TWO_LEVEL = two_level_chain()
TRAP = TrapParams(eta=0.07)
WINDOW = asymptotic_window(0.07)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def deep_thermal(nbar, chain):
    return thermal_distribution(nbar, WINDOW[1] + len(chain.steps))


def test_01_table_one_reproduction():
    t0 = time.monotonic()
    files = cmd_table1(RunConfig.from_dict({}))
    elapsed = time.monotonic() - t0
    rows = [
        line.split(",")
        for line in files["table1.csv"].splitlines()
        if line and not line.startswith("#")
    ][1:]
    assert len(rows) == 8
    worst_dt = worst_da = 0.0
    for scheme, nbar, t_opt, a_opt, *_ in rows:
        t_ref, a_ref = REFERENCE_OPTIMA[(scheme, float(nbar))]
        worst_dt = max(worst_dt, abs(float(t_opt) - t_ref))
        worst_da = max(worst_da, abs(float(a_opt) - a_ref))
    ok = worst_dt <= 0.01 and worst_da <= 0.03 and elapsed < 120.0
    verdict(
        1,
        "table-one reproduction",
        ok,
        f"8 cells, max |dt| = {worst_dt:.4f} (<= 0.01), "
        f"max |da| = {worst_da:.4f} (<= 0.03), runtime {elapsed:.1f}s (< 120s)",
    )


def test_02_chain_coupling_structure():
    zero = _step_amplitude(f7_scheme(start_m=1), 1, 0)
    exact_zero = zero == 0.0
    g7, g8 = F7.couplings, F8.couplings
    f7_increasing = bool(np.all(np.diff(g7) > 0))
    f8_decreasing = bool(np.all(np.diff(g8) < 0))
    ok = exact_zero and f7_increasing and f8_decreasing
    verdict(
        2,
        "selection rule and chain monotonicity",
        ok,
        f"m=1->0 coupling exactly zero: {exact_zero}; "
        f"F=7 strictly increasing: {f7_increasing} (last step {g7[-2]:.3f} -> {g7[-1]:.3f}); "
        f"F=8 strictly decreasing: {f8_decreasing} (first steps {g8[0]:.3f} -> {g8[1]:.3f} -> {g8[2]:.3f})",
    )


def test_03_thermal_sideband_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for nbar in (0.1, 1.0, 6.08, 15.87):
        dist = thermal_distribution(nbar, 700)
        expected = nbar / (nbar + 1.0)
        for tau in rng.uniform(0.1, 3.0, size=20):
            r = sideband_probe(dist, TRAP, float(tau))
            worst = max(worst, abs(r.p_red / r.p_blue - expected))
    ok = worst <= 1e-12
    verdict(
        3,
        "thermal sideband identity",
        ok,
        f"4 nbar values x 20 probe times, max |ratio - nbar/(nbar+1)| = {worst:.2e} (<= 1e-12)",
    )


def test_04_transfer_matrix_properties():
    rng = np.random.default_rng(202)
    chains = [F7, F8, TWO_LEVEL]
    worst_sum = 0.0
    band_ok = True
    for _ in range(100):
        chain = chains[rng.integers(0, 3)]
        t = float(rng.uniform(0.0, 3.0))
        eta = float(rng.uniform(0.01, 0.15))
        # site_p[n, k] = P(n -> n - k) for k < bandwidth: the banded form itself
        site_p = ChainEvolver(chain, TrapParams(eta=eta), 40).site_probabilities(t)
        worst_sum = max(worst_sum, float(np.max(np.abs(site_p.sum(axis=1) - 1.0))))
        n, k = np.indices(site_p.shape)
        band_ok = band_ok and site_p.shape[1] == chain.bandwidth and not np.any(site_p[k > n])
    identity_ok = True
    for c in chains:
        site_p = ChainEvolver(c, TRAP, 30).site_probabilities(0.0)
        identity_ok = identity_ok and np.array_equal(site_p[:, 0], np.ones(31)) and not np.any(site_p[:, 1:])
    ok = worst_sum <= 1e-10 and band_ok and identity_ok
    verdict(
        4,
        "transfer-matrix properties",
        ok,
        f"100 randomized cases: max |row sum - 1| = {worst_sum:.2e} (<= 1e-10), "
        f"banded with the scheme's bandwidth: {band_ok}, W(0) = I exactly: {identity_ok}",
    )


def test_05_fixed_pulse_tail_structure():
    specs = [("F=7", F7, 15), ("F=8", F8, 7), ("two-level", TWO_LEVEL, 72)]
    counts_ok = True
    offsets_ok = True
    details = []
    for label, chain, expected_n in specs:
        init = deep_thermal(15.0, chain)
        t_opt, a_opt = optimize_fixed_pulse(chain, TRAP, init)
        n_pulses = math.ceil(math.log(0.01) / math.log(a_opt))
        counts_ok = counts_ok and abs(n_pulses - expected_n) <= 2
        ev = ChainEvolver(chain, TRAP, init.n_max)
        p = init.probs
        history = [p]
        for _ in range(n_pulses):
            p = apply_pulse(ev, t_opt, p)
            history.append(p)
        sl = slice(20, 61)
        offsets = [
            float(np.mean(np.log(a[sl]) - np.log(b[sl])))
            for a, b in zip(history, history[1:])
        ]
        spread = (max(offsets) - min(offsets)) / np.mean(offsets)
        offsets_ok = offsets_ok and spread <= 0.10
        details.append(f"{label}: {n_pulses} pulses (want {expected_n}+-2), offset spread {spread:.1%}")
    ok = counts_ok and offsets_ok
    verdict(
        5,
        "fixed-pulse tail structure",
        ok,
        f"counts within +-2: {counts_ok}; offsets constant within 10% over [20, 60]: "
        f"{offsets_ok} ({'; '.join(details)})",
    )


def test_06_oracle_equivalence():
    rng = np.random.default_rng(303)
    chains = [F7, F8, TWO_LEVEL]
    worst_ode = 0.0
    for _ in range(15):
        chain = chains[rng.integers(0, 3)]
        start_n = int(rng.integers(1, 61))
        t = float(rng.uniform(0.05, 3.0))
        eta = float(rng.uniform(0.02, 0.15))
        row = ChainEvolver(chain, TrapParams(eta=eta), start_n).site_probabilities(t)[start_n]
        ref = ode_site_populations(start_n, chain, eta, t)
        for k in range(len(ref)):
            worst_ode = max(worst_ode, abs(row[k] - ref[k]))

    worst_rel = 0.0
    pairs = [(n, n - 1) for n in range(1, 301, 13)]
    pairs += [(0, 0), (50, 43), (200, 195), (10, 17), (300, 284), (300, 299)]
    for n, n_prime in pairs:
        ref = mpmath_coupling(n, n_prime, 0.07)
        val = fock_coupling(n, n_prime, 0.07)
        worst_rel = max(worst_rel, abs(val - ref) / abs(ref))
    ok = worst_ode <= 1e-8 and worst_rel <= 1e-10
    verdict(
        6,
        "oracle equivalence",
        ok,
        f"15 randomized pulses: max |P - ODE| = {worst_ode:.2e} (<= 1e-8); "
        f"{len(pairs)} couplings to n = 300: max rel err = {worst_rel:.2e} (<= 1e-10)",
    )


def test_07_heating_propagator():
    rate = 5.58
    dist = thermal_distribution(1.0, 400)
    heated = propagate_heating(dist, rate * 1.0)
    slope = mean_n(heated) - mean_n(dist)
    slope_ok = abs(slope - rate) / rate <= 0.01

    # per-bin comparison against a stiff integration of the rate equations
    fine = propagate_heating(dist, rate * 1.0)
    i = np.arange(dist.n_max + 1, dtype=float)

    def rhs(_t, p):
        dp = -rate * (2 * i + 1) * p
        dp[1:] += rate * i[1:] * p[:-1]
        dp[:-1] += rate * i[1:] * p[1:]
        return dp

    sol = solve_ivp(rhs, (0.0, 1.0), dist.probs, method="Radau", rtol=1e-10, atol=1e-13)
    per_bin = float(np.max(np.abs(fine.probs - sol.y[:, -1])))
    bins_ok = per_bin <= 1e-6
    ok = slope_ok and bins_ok
    verdict(
        7,
        "heating propagator",
        ok,
        f"<n> slope over 1 s = {slope:.4f} vs A = {rate} ({abs(slope - rate) / rate:.2%} <= 1%); "
        f"max per-bin error vs ODE = {per_bin:.2e} (<= 1e-6)",
    )


def test_08_pumping_markov_chain():
    graph = build_pumping_graph()
    steps = steps_to_dark(graph)
    uniform = float(steps.mean())
    neighbor = float(steps[graph.index((7, 1))])
    uniform_ok = abs(uniform - 62.1) / 62.1 <= 0.15
    neighbor_ok = abs(neighbor - 41.4) / 41.4 <= 0.15
    mc_mean, mc_stderr = monte_carlo_steps(graph, 1_000_000, seed=404)
    z = (mc_mean - uniform) / mc_stderr
    mc_ok = abs(z) <= 3.0
    ok = uniform_ok and neighbor_ok and mc_ok
    verdict(
        8,
        "pumping Markov chain",
        ok,
        f"uniform mean steps = {uniform:.2f} vs 62.1 ({(uniform - 62.1) / 62.1:+.1%}, within 15%); "
        f"|7,+-1> = {neighbor:.2f} vs 41.4 ({(neighbor - 41.4) / 41.4:+.1%}); "
        f"1e6-trajectory MC = {mc_mean:.3f} +- {mc_stderr:.3f} (z = {z:+.2f}, within 3 sigma)",
    )


def test_09_end_to_end_plausibility():
    init = thermal_distribution(6.08, max(default_n_max(6.08), WINDOW[1] + len(F7.steps)))
    seq = optimize_global(F7, TRAP, init, 10)
    heated = end_to_end_protocol(F7, TRAP, seq, init, heating_rates={})
    nbar_sb = heated.nbar_sb_history[-1]
    bracket_ok = 0.05 <= nbar_sb <= 0.25

    with_rdp = end_to_end_protocol(F7, TRAP, seq, init, heating_rates={}, rdp=True)
    rdp_nbar = mean_n(with_rdp.history[-1])
    rdp_ok = rdp_nbar < mean_n(heated.history[-1]) and rdp_nbar < 0.05
    ok = bracket_ok and rdp_ok
    verdict(
        9,
        "end-to-end plausibility",
        ok,
        f"10 optimized pulses, heating on: nbar_sb = {nbar_sb:.4f} (in [0.05, 0.25]); "
        f"with dark preparation: nbar = {rdp_nbar:.4f} "
        f"(< {mean_n(heated.history[-1]):.4f} and < 0.05), success = {with_rdp.success_probability:.3f}",
    )


def test_10_heuristic_vs_global():
    results = []
    all_ok = True
    for nbar in (6.08, 15.87):
        init = thermal_distribution(
            nbar, max(default_n_max(nbar), WINDOW[1] + len(F7.steps))
        )
        ev = ChainEvolver(F7, TRAP, init.n_max)

        heur = heuristic_sequence(F7, TRAP, init)
        p = init.probs
        for t in heur.times:
            p = apply_pulse(ev, t, p)
        n = np.arange(init.n_max + 1, dtype=float)
        heur_nbar = float(n @ p) / float(p.sum())

        glob = optimize_global(F7, TRAP, init, len(heur.times))
        p = init.probs
        for t in glob.times:
            p = apply_pulse(ev, t, p)
        glob_nbar = float(n @ p) / float(p.sum())

        rel = abs(heur_nbar - glob_nbar) / glob_nbar
        all_ok = all_ok and rel <= 0.20
        results.append(
            f"nbar_i = {nbar}: heuristic {heur_nbar:.4f} vs global {glob_nbar:.4f} "
            f"at {len(heur.times)} pulses (off by {rel:.0%})"
        )
    verdict(10, "heuristic vs global", all_ok, "; ".join(results))
