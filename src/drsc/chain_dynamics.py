"""Coherent pulse evolution on the coupled (m, n) ladder and the
population transfer matrix it induces.

One Raman pulse couples |m_k, n-k> sites along the chain; repumping after
the pulse destroys coherence, so only populations propagate between
pulses.  Each pulse is therefore summarized by a banded matrix of
transfer probabilities a_ij(t) = P(n=i -> n=j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .manifold import CouplingChain
from .motional import PhononDistribution, TrapParams, sideband_coupling_ratios


@dataclass(frozen=True)
class TransferMatrix:
    """Single-pulse transfer probabilities, entries[i, j] = P(n=i -> n=j).

    Nonzero only for 0 <= i - j <= bandwidth - 1: a pulse removes between
    zero and bandwidth-1 quanta, never adds any.
    """

    entries: np.ndarray
    bandwidth: int
    pulse_time: float

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    def to_banded(self) -> dict:
        """Banded export: bands[k][i - k] = P(i -> i - k) for i = k..n_max."""
        n = self.n_max
        bands = [np.diagonal(self.entries, offset=-k)[: n + 1 - k].tolist() for k in range(self.bandwidth)]
        # diagonal(offset=-k)[i] = entries[i + k, i], which is P(i+k -> i+k-k)
        return {"n_max": n, "bandwidth": self.bandwidth, "bands": bands}


class ChainEvolver:
    """Precomputed pulse dynamics for every starting phonon number.

    For start phonon n the pulse Hamiltonian is K x K real symmetric
    tridiagonal with zero diagonal (exact Zeeman degeneracy) and
    off-diagonal elements g_k * R(n - k) / 2, where R(n) is the
    red-sideband coupling ratio and K = min(chain length + 1, n + 1).
    Evolution for duration t (units of the reference pi-time) is
    U = exp(-i pi H t), done by eigendecomposition since the same chain
    is queried at many pulse times.
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

    def site_probabilities(self, t: float) -> np.ndarray:
        """P[n, k] = probability that a start at phonon n ends k quanta lower."""
        if t < 0:
            raise ValueError(f"pulse time must be >= 0, got {t}")
        if t == 0:
            p = np.zeros((self.n_max + 1, self.n_sites))
            p[:, 0] = 1.0
            return p
        phases = np.exp(-1j * np.pi * self.w * t)
        amps = np.einsum("nkj,nj->nk", self.C, phases)
        return np.abs(amps) ** 2

    def site_probabilities_with_derivative(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The table P of site_probabilities(t) together with dP/dt.

        With amplitudes a = sum_j C e^{-i pi w t}, da/dt = sum_j C (-i pi w)
        e^{-i pi w t} and dP/dt = 2 Re(conj(a) da/dt).
        """
        phases = np.exp(-1j * np.pi * self.w * t)
        amps = np.einsum("nkj,nj->nk", self.C, phases)
        d_amps = np.einsum("nkj,nj->nk", self.C, -1j * np.pi * self.w * phases)
        return np.abs(amps) ** 2, 2.0 * np.real(np.conj(amps) * d_amps)

    def apply_pulse(self, t: float, probs: np.ndarray) -> np.ndarray:
        """Propagate a population vector through one pulse of duration t."""
        return apply_table(self.site_probabilities(t), probs)

    def transfer_matrix(self, t: float) -> TransferMatrix:
        site_p = self.site_probabilities(t)
        n_top = self.n_max + 1
        entries = np.zeros((n_top, n_top))
        for k in range(self.n_sites):
            rows = np.arange(k, n_top)
            entries[rows, rows - k] = site_p[k:, k]
        return TransferMatrix(entries=entries, bandwidth=self.chain.bandwidth, pulse_time=float(t))


def apply_table(site_p: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Populations after a pulse whose table is site_p[n, k] = P(n -> n - k)."""
    out = np.zeros_like(probs)
    n_top = len(probs)
    for k in range(site_p.shape[1]):
        out[: n_top - k] += site_p[k:, k] * probs[k:]
    return out


def evolve_chain(
    start_n: int, chain: CouplingChain, trap: TrapParams, t: float
) -> np.ndarray:
    """Transfer probabilities a_{start_n, j}(t) for j = 0..start_n.

    Element j is the probability of ending with j phonons; the pulse can
    lower n by at most the chain length, so most entries vanish.
    """
    if start_n < 0:
        raise ValueError(f"start_n must be >= 0, got {start_n}")
    evolver = ChainEvolver(chain, trap, start_n)
    site_p = evolver.site_probabilities(t)[start_n]
    row = np.zeros(start_n + 1)
    for k in range(min(evolver.n_sites, start_n + 1)):
        row[start_n - k] = site_p[k]
    return row


def build_transfer_matrix(
    chain: CouplingChain, trap: TrapParams, t: float, n_max: int
) -> TransferMatrix:
    """Assemble the full pulse matrix for start phonon numbers 0..n_max."""
    return ChainEvolver(chain, trap, n_max).transfer_matrix(t)


def apply_sequence(
    dist: PhononDistribution, matrices: list[TransferMatrix]
) -> PhononDistribution:
    """Propagate populations through pulses in order (first pulse first)."""
    p = dist.probs
    for w in matrices:
        if w.entries.shape[0] != len(p):
            raise ValueError(
                f"transfer matrix size {w.entries.shape[0]} does not match "
                f"distribution length {len(p)}"
            )
        p = p @ w.entries
    return PhononDistribution(probs=p, n_max=dist.n_max)
