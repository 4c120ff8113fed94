"""Coherent pulse evolution on the coupled (m, n) ladder and the banded
table of transfer probabilities it induces.

One Raman pulse couples |m_k, n-k> sites along the chain; repumping after
the pulse destroys coherence, so only populations propagate between
pulses.  Each pulse is therefore summarized by a banded table
P[n, k] = P(n -> n - k): a pulse removes between zero and the chain
length quanta, never adds any.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .manifold import CouplingChain
from .motional import TrapParams, sideband_coupling_ratios


class ChainEvolver:
    """Precomputed pulse dynamics for every starting phonon number.

    For start phonon n the pulse Hamiltonian is K x K real symmetric
    tridiagonal with zero diagonal (exact Zeeman degeneracy) and
    off-diagonal elements g_k * R(n - k) / 2, where R(n) is the
    red-sideband coupling ratio and K = min(chain length + 1, n + 1).
    Evolution for duration t (units of the reference pi-time) is
    U = exp(-i pi H t), done by eigendecomposition since the same chain
    is queried at many pulse times.  H is real, so the pulse tables are
    computed in real arithmetic from cos and sin of the eigenphases.
    """

    def __init__(self, chain: CouplingChain, trap: TrapParams, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        g = chain.couplings
        ratios = sideband_coupling_ratios(n_max, trap.eta)
        n_sites = min(len(g) + 1, n_max + 1)
        self.chain = chain
        self.trap = trap
        self.n_max = n_max
        self.n_sites = n_sites
        # C[n, k, j] = V_kj * V_0j so the site-k amplitude after time t is
        # sum_j C[n, k, j] exp(-i pi w[n, j] t)
        self.w = np.zeros((n_max + 1, n_sites))
        self.C = np.zeros((n_max + 1, n_sites, n_sites))
        self.C[0, 0, 0] = 1.0
        for n in range(1, n_max + 1):
            k = min(len(g) + 1, n + 1)
            off = 0.5 * g[: k - 1] * ratios[n - np.arange(k - 1)]
            vals, vecs = eigh_tridiagonal(np.zeros(k), off)
            self.w[n, :k] = vals
            self.C[n, :k, :k] = vecs * vecs[0, :]

    def site_probabilities(self, t: float | np.ndarray) -> np.ndarray:
        """P[n, k] = probability that a start at phonon n ends k quanta lower.

        For an array of pulse times the tables are stacked along leading
        axes of the same shape, each bit for bit the table of its own
        scalar call.
        """
        return self._tables(t, derivative=False)[0]

    def site_probabilities_with_derivative(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The table P of site_probabilities(t), bit for bit, together with dP/dt."""
        return self._tables(t, derivative=True)

    def _tables(
        self, t: float | np.ndarray, derivative: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """P and, if asked, dP/dt from real batched products on cos and sin.

        The site amplitude sum_j C e^{-i pi w t} is re - i im with
        re = C cos(pi w t) and im = C sin(pi w t), so P = re^2 + im^2 and
        dP/dt = -2 pi (re C(w sin) - im C(w cos)).  P is computed the same
        way whether or not dP/dt is asked for, and the axes of t lead the
        table axes; tables at t = 0 are the exact identity.
        """
        t = np.asarray(t, dtype=float)
        t_min = t.min(initial=np.inf)
        if t_min < 0:
            raise ValueError(f"pulse time must be >= 0, got {t_min}")
        phase = np.pi * t[..., None, None] * self.w
        cos, sin = np.cos(phase), np.sin(phase)
        amps = self.C @ np.stack([cos, sin], axis=-1)
        re, im = amps[..., 0], amps[..., 1]
        p = re * re + im * im
        # all times > 0 is the common case; a NaN minimum could hide a zero
        any_zero = not t_min > 0
        if any_zero:
            p[t == 0] = np.arange(self.n_sites) == 0
        if not derivative:
            return p, None
        d_amps = self.C @ np.stack([self.w * sin, self.w * cos], axis=-1)
        dp = -2.0 * np.pi * (re * d_amps[..., 0] - im * d_amps[..., 1])
        if any_zero:
            dp[t == 0] = 0.0
        return p, dp

    def apply_pulse(self, t: float, probs: np.ndarray) -> np.ndarray:
        """Propagate a population vector through one pulse of duration t."""
        return apply_table(self.site_probabilities(t), probs)


def apply_table(site_p: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Populations after a pulse whose table is site_p[..., n, k] = P(n -> n - k).

    Leading axes of site_p and probs broadcast, so one call applies a stack
    of tables, or one table to a stack of population vectors.
    """
    out = np.zeros(np.broadcast(site_p[..., 0], probs).shape)
    n_top = probs.shape[-1]
    for k in range(site_p.shape[-1]):
        out[..., : n_top - k] += site_p[..., k:, k] * probs[..., k:]
    return out


@functools.lru_cache(maxsize=8)
def cached_evolver(chain: CouplingChain, trap: TrapParams, n_max: int) -> ChainEvolver:
    """The ChainEvolver for (chain, trap, n_max), built once per process and
    shared by every caller; its w and C arrays are read-only."""
    evolver = ChainEvolver(chain, trap, n_max)
    evolver.w.setflags(write=False)
    evolver.C.setflags(write=False)
    return evolver
