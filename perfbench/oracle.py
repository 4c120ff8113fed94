"""Reference computations the benchmark checks drsc's artifacts against.

Nothing here imports drsc.  Each quantity is computed by a different
method from the one the program uses:

- chain couplings from sympy's exact Clebsch-Gordan coefficients;
- sideband couplings from ``scipy.special.eval_genlaguerre``;
- a pulse by ``scipy.linalg.expm`` of the tridiagonal chain Hamiltonian,
  one matrix per starting phonon number (the program diagonalizes);
- heating by ``scipy.sparse.linalg.expm_multiply`` of the birth-death
  rate generator (the program takes Euler substeps).

``self_test`` compares the pulse and heating oracles with ``solve_ivp``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_genlaguerre
from sympy.physics.wigner import clebsch_gordan

# ground F, intermediate F', direction of the m walk, first m
SCHEMES = {"F7": (7, 7, -1, 0), "F8": (8, 7, +1, -8)}


def chain_couplings(scheme: str) -> np.ndarray:
    """Relative two-photon couplings along the chain, normalized to the first.

    Each step m -> m + d sums the products of the two single-photon
    Clebsch-Gordan coefficients over the (absorb, emit) polarization
    orders through F'.  The walk stops at the manifold edge or at the
    first step whose coupling is exactly zero.
    """
    f, fe, d, m = SCHEMES[scheme]
    steps = []
    while abs(m + d) <= f:
        amp = 0
        for q_abs, q_emit in ((0, d), (d, 0)):
            m_mid = m + q_abs
            if m_mid - q_emit == m + d and abs(m_mid) <= fe:
                amp += clebsch_gordan(f, 1, fe, m, q_abs, m_mid) * clebsch_gordan(
                    f, 1, fe, m + d, q_emit, m_mid
                )
        if amp == 0:
            break
        steps.append(abs(float(amp)))
        m += d
    return np.array(steps) / steps[0]


def sideband_ratio(n: int, eta: float) -> float:
    """Red-sideband coupling n -> n-1 relative to 1 -> 0: L^1_{n-1}(eta^2)/sqrt(n)."""
    if n == 0:
        return 0.0
    return float(eval_genlaguerre(n - 1, 1, eta * eta)) / math.sqrt(n)


def probe_nbar(p: np.ndarray, eta: float, probe_time: float) -> float:
    """Occupation inferred from the red/blue first-sideband excitation ratio R
    after a probe of probe_time (1 -> 0 pi-times): R / (1 - R)."""
    n = np.arange(1, len(p) + 1)
    r = np.concatenate([[0.0], eval_genlaguerre(n - 1, 1, eta * eta) / np.sqrt(n)])
    red = p @ np.sin(0.5 * np.pi * probe_time * r[:-1]) ** 2
    blue = p @ np.sin(0.5 * np.pi * probe_time * r[1:]) ** 2
    return float(red / (blue - red))


def chain_hamiltonian(g: np.ndarray, eta: float, n: int) -> np.ndarray:
    """Pulse Hamiltonian for a start at phonon n, in units of the 1 -> 0 coupling.

    Site k is |m_k, n - k>; sites are coupled by g_k R(n - k) / 2 with
    zero detuning.
    """
    k_sites = min(len(g) + 1, n + 1)
    h = np.zeros((k_sites, k_sites))
    for k in range(k_sites - 1):
        h[k, k + 1] = h[k + 1, k] = 0.5 * g[k] * sideband_ratio(n - k, eta)
    return h


def site_row(g: np.ndarray, eta: float, n: int, t: float) -> np.ndarray:
    """Probability that a pulse of duration t takes phonon n to n - k, per k."""
    u = expm(-1j * np.pi * t * chain_hamiltonian(g, eta, n))
    return np.abs(u[:, 0]) ** 2


class Pulses:
    """Pulse propagation for one chain and trap, tabulated once per duration."""

    def __init__(self, g: np.ndarray, eta: float, n_max: int):
        self.g, self.eta, self.n_max = g, eta, n_max
        self._tables: dict[float, list[np.ndarray]] = {}

    def table(self, t: float) -> list[np.ndarray]:
        if t not in self._tables:
            self._tables[t] = [site_row(self.g, self.eta, n, t) for n in range(self.n_max + 1)]
        return self._tables[t]

    def apply(self, t: float, p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        for n, row in enumerate(self.table(t)):
            out[n - np.arange(len(row))] += row * p[n]
        return out


def heating_generator(rate: float, n_max: int):
    """dp/dt = Q p for the diffusive walk: up a(n+1), down a n.

    The up-rate out of n_max leaves the ladder, so mass lost to
    truncation shows as a total below 1.
    """
    n = np.arange(n_max + 1, dtype=float)
    return diags(
        [rate * n[1:], -rate * (2 * n + 1), rate * n[1:]], [-1, 0, 1], format="csc"
    )


@functools.lru_cache(maxsize=32)
def heating_propagator(rate: float, duration: float, n_max: int) -> np.ndarray:
    """exp(Q duration) as a dense matrix: expm_multiply applied to the identity.

    Built once per interval kind, since a protocol repeats the same
    repump interval every cycle.
    """
    return expm_multiply(heating_generator(rate, n_max) * duration, np.eye(n_max + 1))


def heat(p: np.ndarray, rate: float, duration: float) -> np.ndarray:
    if duration == 0 or rate == 0:
        return p
    return heating_propagator(rate, duration, len(p) - 1) @ p


def thermal(nbar: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return np.exp(n * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))


def mean_n(p: np.ndarray) -> float:
    return float(np.arange(len(p)) @ p) / float(p.sum())


def protocol(pulses: Pulses, p0: np.ndarray, times, heating: dict | None, timing: dict):
    """Histories of the cooling protocol: pulse, then heating over the pulse
    (raman + trap) and the repump (optical_pumping + trap).

    Returns the state after each cycle and the state after the pre-probe
    delay (trap rate), which is what dark preparation acts on.
    """
    states = [p0]
    p = p0
    for t in times:
        p = pulses.apply(t, p)
        if heating is not None:
            p = heat(p, heating["raman"] + heating["trap"], t * timing["t_f_seconds"])
            p = heat(p, heating["optical_pumping"] + heating["trap"], timing["repump_seconds"])
        states.append(p)
    if heating is not None:
        p = heat(p, heating["trap"], timing["pre_probe_delay_seconds"])
    return states, p


def suppression(pulses: Pulses, t: float, p0: np.ndarray, window: tuple[int, int]) -> float:
    """Geometric mean over the window of the per-bin ratio after one pulse."""
    lo, hi = window
    after = pulses.apply(t, p0)
    return float(np.exp(np.mean(np.log(after[lo : hi + 1] / p0[lo : hi + 1]))))


def self_test(seed: int = 0) -> list[str]:
    """Compare the pulse and heating oracles with ODE integration at small n.

    Returns one line per failed comparison; an empty list is a pass.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(12):
        scheme = ("F7", "F8")[rng.integers(0, 2)]
        g = chain_couplings(scheme)
        n = int(rng.integers(1, 25))
        t = float(rng.uniform(0.05, 3.0))
        eta = float(rng.uniform(0.02, 0.15))
        h = chain_hamiltonian(g, eta, n)
        k_sites = len(h)

        def rhs(_tau, y, h=h, k_sites=k_sites):
            z = y[:k_sites] + 1j * y[k_sites:]
            dz = -1j * np.pi * (h @ z)
            return np.concatenate([dz.real, dz.imag])

        y0 = np.zeros(2 * k_sites)
        y0[0] = 1.0
        sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-11, atol=1e-13)
        z = sol.y[:k_sites, -1] + 1j * sol.y[k_sites:, -1]
        err = float(np.max(np.abs(site_row(g, eta, n, t) - np.abs(z) ** 2)))
        if err > 1e-8:
            failures.append(f"pulse {scheme} n={n} t={t:.3f} eta={eta:.3f}: |P - ODE| = {err:.2e}")

    rate, n_max, duration = 5.58, 40, 0.05
    p0 = thermal(1.0, n_max)
    q = heating_generator(rate, n_max).toarray()
    sol = solve_ivp(lambda _t, p: q @ p, (0.0, duration), p0, method="Radau", rtol=1e-11, atol=1e-14)
    err = float(np.max(np.abs(heat(p0, rate, duration) - sol.y[:, -1])))
    if err > 1e-9:
        failures.append(f"heating n_max={n_max}: |p - ODE| = {err:.2e}")
    slope = (mean_n(heat(p0, rate, duration)) - mean_n(p0)) / duration
    if abs(slope - rate) / rate > 0.01:
        failures.append(f"heating: <n> slope {slope:.4f} vs rate {rate}")
    return failures
