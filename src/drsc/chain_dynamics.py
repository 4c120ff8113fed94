"""Coherent pulse evolution on the coupled (m, n) ladder and the banded
table of transfer probabilities it induces.

One Raman pulse couples |m_k, n-k> sites along the chain; repumping after
the pulse destroys coherence, so only populations propagate between
pulses.  Each pulse is therefore summarized by a banded table
P[n, k] = P(n -> n - k): a pulse removes between zero and the chain
length quanta, never adds any.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .manifold import CouplingChain
from .motional import TrapParams, sideband_coupling_ratios


class ChainEvolver:
    """Precomputed pulse dynamics for every starting phonon number.

    For start phonon n the pulse Hamiltonian is K x K real symmetric
    tridiagonal with zero diagonal (exact Zeeman degeneracy) and
    off-diagonal elements g_k * R(n - k) / 2, where R(n) is the
    red-sideband coupling ratio and K = min(chain length + 1, n + 1).
    Evolution for duration t (units of the reference pi-time) is
    U = exp(-i pi H t).  The zero diagonal makes the chain bipartite:
    H couples even sites only to odd ones through the block B, so its
    eigenvalues are the pairs +-sigma of the singular values of
    B = U S W^T (Jordan-Wielandt).  From the even start site 0, the
    amplitude on even site 2a is sum_j U_aj U_0j cos(pi sigma_j t), and on
    odd site 2b + 1 it is -i sum_j W_bj U_0j sin(pi sigma_j t): real
    weights on ceil(K/2) mode frequencies, which _PulseTables turns into
    tables.
    """

    def __init__(self, chain: CouplingChain, trap: TrapParams, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        g = chain.couplings
        ratios = sideband_coupling_ratios(n_max, trap.eta)
        n_sites = min(len(g) + 1, n_max + 1)
        n_odd, n_modes = n_sites // 2, (n_sites + 1) // 2
        self.n_max = n_max
        self.n_sites = n_sites
        # row n's chain ends at site n, where g_n R(0) = 0, so every row is
        # diagonalized at full length in one batched SVD
        n = np.arange(n_max + 1)[:, None]
        i = np.arange(n_sites - 1)
        ham = np.zeros((n_max + 1, n_sites, n_sites))
        ham[:, i, i + 1] = ham[:, i + 1, i] = 0.5 * g[i] * ratios[np.maximum(n - i, 0)]
        u, sigma, wt = np.linalg.svd(ham[:, 0::2, 1::2], full_matrices=True)
        # w[n, j] = sigma_j, zero-padded; for odd n_sites, B has one row more
        # than columns, and the padding carries its null mode as cos(0) = 1.
        # The site-k amplitude after time t is sum_j C[n, k, j]
        # [cos(pi w t), sin(pi w t)]_j up to a phase: even sites read cos
        # against U_aj U_0j, odd sites sin against W_bj U_0j
        self.w = np.zeros((n_max + 1, n_modes))
        self.w[:, :n_odd] = sigma
        self.C = np.zeros((n_max + 1, n_sites, 2 * n_modes))
        self.C[:, 0::2, :n_modes] = u * u[:, :1, :]
        self.C[:, 1::2, n_modes : n_modes + n_odd] = wt.transpose(0, 2, 1) * u[:, :1, :n_odd]

    @staticmethod
    def nbytes(n_rows: int, n_sites: int) -> int:
        """Bytes of C, the largest array __init__ allocates, at (n_rows, n_sites)."""
        return n_rows * n_sites * 2 * ((n_sites + 1) // 2) * 8

    def rows(self, lo: int, hi: int) -> ChainEvolver:
        """The evolver of start rows lo..hi-1 alone, on views of this one's
        w and C: its row i is row lo + i here, bit for bit.  Population a
        pulse moves below row lo leaves its ladder."""
        view = copy.copy(self)
        view.n_max, view.w, view.C = hi - lo - 1, self.w[lo:hi], self.C[lo:hi]
        return view

    def site_probabilities(self, t: float) -> np.ndarray:
        """P[n, k] = probability that a start at phonon n ends k quanta lower
        after one pulse of duration t: _PulseTables' one-time table, in a
        C-contiguous array of its own."""
        return _PulseTables(self, 1, derivative=False)(np.array([t], dtype=float))[0][0]


class _BandSum:
    """Applies banded tables site_p[n, k] = P(n -> n - k) of one shape
    (rows, K), forward and transposed, through one buffer allocated once.

    products is the (K, rows) band-major view of padded, which has K - 1
    zero columns more; its skew view shifted[k, m] = padded[k, m + k] is
    what band k moves into row m, zero past the ladder.  Both directions
    add each output row's terms in ascending k, and nothing writes the
    pads.  Entries with k > n, past the ladder bottom, the forward sum
    never reads, and the transposed one multiplies by bands' zeros.
    """

    def __init__(self, n_rows: int, n_sites: int):
        self.padded = np.zeros((n_sites, n_rows + n_sites - 1))
        self.products = self.padded[:, :n_rows]
        row, col = self.padded.strides
        self.shifted = as_strided(self.padded, (n_sites, n_rows), (row + col, col), writeable=False)

    def __call__(
        self, site_p: np.ndarray, probs: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """out[m] = sum_k site_p[m + k, k] probs[m + k]: the populations
        after the pulse, in out or in a new array."""
        np.multiply(site_p.T, probs, out=self.products)
        return np.add.reduce(self.shifted, axis=0, out=out)

    def transposed(self, site_p: np.ndarray, bands: np.ndarray, out: np.ndarray) -> None:
        """out[j] = sum_k site_p[j, k] bands[k, j]: with bands[k, j] =
        lam[j - k], zero for k > j, the adjoint's step back through the
        pulse."""
        np.multiply(site_p.T, bands, out=self.products)
        np.add.reduce(self.products, axis=0, out=out)


class _PulseTables:
    """The pulse kernel: the tables P[i] = P(n -> n - k) at up to
    max_pulses pulse times, with derivative their dP[i]/dt, and from a
    derivative kernel's order-2 call their d^2P[i]/dt^2 too, from one
    GEMM per ladder row into buffers allocated once and overwritten by
    every call.

    Row n's amplitudes at all pulses are C[n] [cos; sin](pi t w[n]), and
    P = amp^2.  With derivative the weights stack C over
    D = [C_sin w, -C_cos w] over E = -w^2 C, so that d_amp = D [cos; sin]
    and e_amp = E [cos; sin] read the same trig as amp.  The plain call
    reads C and D alone, for dP/dt = (2 pi amp) d_amp; the order-2 call's
    GEMM runs over all three blocks, for d^2P/dt^2 =
    2 pi^2 (d_amp^2 + amp e_amp), and its P and dP/dt may differ from the
    plain call's by rounding.  cos and sin come from u = tan of the half
    phases w (0.5 (pi t)) as (1 - u)(1 + u) / (1 + u^2) and
    2u / (1 + u^2) (_cos_sin, within 2.2e-16 of the exact ones).  The
    GEMM's summation order depends on the batch size, so one time's
    table differs between batch sizes by rounding.  The half phases,
    their two scratch arrays and trig have time as the last axis, each a
    contiguous view of its buffer's first elements.  Every GEMM output
    has unit stride along pulses, which keeps the BLAS call: with
    derivative, each row's (2K or 3K, pulses) block goes through a
    transposed view of one (3K, rows, pulses) buffer, and P, dP/dt and
    d^2P/dt^2 are stored band-major, (pulses, K, rows), so that P[i].T is
    contiguous; without, P is squared in place in the (rows, K, pulses)
    amplitudes, so that a one-time table is C-contiguous.  All return
    (pulses, rows, K) views.  Tables at t = 0 are the exact identity with
    dP/dt = 0, and d^2P/dt^2 there is the true
    2 pi^2 ((D [1; 0])^2 + delta_0 (E [1; 0])), non-zero on site 0 and the
    odd sites.  A negative time raises ValueError, a time whose largest
    phase is not finite FloatingPointError, before any phase is formed.
    """

    def __init__(self, evolver: ChainEvolver, max_pulses: int, derivative: bool = True):
        c, w = evolver.C, evolver.w
        n_rows, n_sites, n_trig = c.shape
        self._n_rows, self._n_sites, self._max_pulses = n_rows, n_sites, max_pulses
        self._w, self._w_max = w.reshape(-1, 1), float(w.max())
        self._half, self._u, self._v = (np.empty(w.size * max_pulses) for _ in range(3))
        self._trig = np.empty(2 * self._half.size)
        if not derivative:
            self._weights, self._dp = c, None
            # room for grid's K - 1 zero rows past the top
            self._amps = np.empty((n_rows + n_sites - 1) * n_sites * max_pulses)
            return
        n_modes = n_trig // 2
        self._weights = np.empty((n_rows, 3 * n_sites, n_trig))
        self._weights[:, :n_sites] = c
        d = self._weights[:, n_sites : 2 * n_sites]
        np.multiply(c[:, :, n_modes:], w[:, None], out=d[:, :, :n_modes])
        np.multiply(c[:, :, :n_modes], -w[:, None], out=d[:, :, n_modes:])
        w2 = np.concatenate([w, w], axis=1)[:, None]
        np.multiply(c, -(w2 * w2), out=self._weights[:, 2 * n_sites :])
        self._amps = np.empty(n_rows * 3 * n_sites * max_pulses)
        self._p, self._dp, self._d2p = (np.empty((max_pulses, n_sites, n_rows)) for _ in range(3))

    @staticmethod
    def nbytes(n_rows: int, n_sites: int, max_pulses: int, derivative: bool = True) -> int:
        """Bytes of the largest array __init__ allocates on an evolver of
        n_rows rows of n_sites sites; a plain kernel's weights are its C."""
        n_trig = 2 * ((n_sites + 1) // 2)
        if derivative:
            return n_rows * 3 * n_sites * max(n_trig, max_pulses) * 8
        return max(n_rows * n_trig, (n_rows + n_sites - 1) * n_sites) * max_pulses * 8

    def __call__(self, times: np.ndarray, curvature: bool = False) -> tuple:
        """(P, dP/dt) at every time; dP/dt is None without derivative.  With
        curvature, the order-2 call of a derivative kernel,
        (P, dP/dt, d^2P/dt^2)."""
        n_rows, n_sites, n_pulses = self._n_rows, self._n_sites, len(times)
        if self._dp is None:
            p = _leading(self._amps, n_rows, n_sites, n_pulses)
            self._amplitudes(times, p)
            p *= p
            return p.transpose(2, 0, 1), None
        n_blocks = 3 if curvature else 2
        amps = _leading(self._amps, n_blocks * n_sites, n_rows, n_pulses)
        self._amplitudes(times, amps.transpose(1, 0, 2), curvature)
        amps = amps.transpose(2, 0, 1)
        amp, d_amp = amps[:, :n_sites], amps[:, n_sites : 2 * n_sites]
        p, dp = self._p[:n_pulses], self._dp[:n_pulses]
        np.square(amp, out=p)
        np.multiply(amp, 2.0 * np.pi, out=dp)
        dp *= d_amp
        if not curvature:
            return p.transpose(0, 2, 1), dp.transpose(0, 2, 1)
        d2p, e_amp = self._d2p[:n_pulses], amps[:, 2 * n_sites :]
        e_amp *= amp
        np.square(d_amp, out=d2p)
        d2p += e_amp
        d2p *= 2.0 * np.pi**2
        return p.transpose(0, 2, 1), dp.transpose(0, 2, 1), d2p.transpose(0, 2, 1)

    def grid(self, times: np.ndarray, starts: np.ndarray) -> Iterator[np.ndarray]:
        """after[i, s] = the populations after a pulse of duration times[i]
        from starts[s], as _BandSum gives them from the one-time table up
        to rounding, for a kernel without derivative, yielded for
        max_pulses times at a time.  Target row m gathers
        sum_k starts[s, m + k] P[m + k, k, t], one GEMM per row between
        each start's K-wide window of populations and the diagonal
        P[m + k, k, :]; both are zero-padded K - 1 rows past the top."""
        n_rows, n_sites = self._n_rows, self._n_sites
        padded = np.concatenate([starts, np.zeros((len(starts), n_sites - 1))], axis=1)
        windows = sliding_window_view(padded, n_sites, axis=1)
        for lo in range(0, len(times), self._max_pulses):
            chunk = times[lo : lo + self._max_pulses]
            p = _leading(self._amps, n_rows + n_sites - 1, n_sites, len(chunk))
            self._amplitudes(chunk, p[:n_rows])
            p[n_rows:] = 0.0
            p *= p
            row, band, col = p.strides
            diagonals = as_strided(
                p, (n_rows, n_sites, len(chunk)), (row, row + band, col), writeable=False
            )
            yield (windows.transpose(1, 0, 2) @ diagonals).transpose(2, 1, 0)

    def _amplitudes(self, times: np.ndarray, out: np.ndarray, curvature: bool = False) -> None:
        """out[n, :, i] = the first out.shape[1] rows of the kernel's weights
        of row n times its trig at times[i]; out is (rows, sites, pulses)
        with unit stride along pulses.  At t = 0 the amplitudes are exactly
        site 0 alone and the rest of out zero, except that a curvature call
        keeps its D and E blocks, whose products with the exact trig (1, 0)
        there are the true values."""
        t_min, t_max = times.min(), float(times.max())
        if t_min < 0:
            raise ValueError(f"pulse time must be >= 0, got {t_min}")
        # the largest phase in Python floats: when it is finite, so is every
        # other phase, and a NaN time fails the test too
        if not math.isfinite(self._w_max * (math.pi * t_max)):
            raise FloatingPointError(f"pulse phase overflows at pulse time {t_max}")
        n_rows, n_pulses, n_modes = self._n_rows, len(times), self._weights.shape[2] // 2
        half, u, v = (
            _leading(buffer, n_rows, n_modes, n_pulses) for buffer in (self._half, self._u, self._v)
        )
        np.multiply(self._w, 0.5 * (np.pi * times), out=half.reshape(-1, n_pulses))
        trig = _leading(self._trig, n_rows, 2 * n_modes, n_pulses)
        _cos_sin(half, trig[:, :n_modes], trig[:, n_modes:], u, v)
        np.matmul(self._weights[:, : out.shape[1]], trig, out=out)
        # all times > 0 is the common case; a NaN would have raised above
        if not t_min > 0:
            zero = times == 0
            out[:, : self._n_sites if curvature else out.shape[1], zero] = 0.0
            out[:, 0, zero] = 1.0


def _cos_sin(
    half: np.ndarray, cos: np.ndarray, sin: np.ndarray, u: np.ndarray, v: np.ndarray
) -> None:
    """cos and sin of the phases 2 half, from one tan of the half phases:
    with u = tan(half), cos = (1 - u)(1 + u) / (1 + u^2) and
    sin = 2u / (1 + u^2).  numpy's AVX-512 tan is SIMD, ~1.1 ns per
    element against 6-7 ns for each of its cos and sin; where tan is
    scalar libm, one call still replaces two.  Both measure within
    2.2e-16 of the exact values, and a zero phase gives exactly (1, 0); the
    cheaper cos = 2 / (1 + u^2) - 1 errs by up to 3.3e-16.  |tan| of a
    double stays below ~2e18, so u^2 never overflows.  half, u and v are
    contiguous scratch of one shape, all overwritten; cos and sin may be
    strided, and only the last two divides write them.
    """
    np.tan(half, out=u)
    np.subtract(1.0, u, out=half)
    np.add(u, 1.0, out=v)
    half *= v
    np.multiply(u, u, out=v)
    v += 1.0
    u += u
    np.divide(half, v, out=cos)
    np.divide(u, v, out=sin)


def _leading(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The contiguous view of a flat buffer's first elements as shape."""
    return buffer[: math.prod(shape)].reshape(shape)


@functools.lru_cache(maxsize=8)
def cached_evolver(chain: CouplingChain, trap: TrapParams, n_max: int) -> ChainEvolver:
    """The ChainEvolver for (chain, trap, n_max), built once per process and
    shared by every caller; its w and C arrays are read-only."""
    evolver = ChainEvolver(chain, trap, n_max)
    evolver.w.setflags(write=False)
    evolver.C.setflags(write=False)
    return evolver
