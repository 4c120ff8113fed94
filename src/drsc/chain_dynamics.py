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

import numpy as np

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
    odd site 2b + 1 it is -i sum_j W_bj U_0j sin(pi sigma_j t): one real
    matvec per row, on ceil(K/2) mode frequencies.
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

    def rows(self, lo: int, hi: int) -> ChainEvolver:
        """The evolver of start rows lo..hi-1 alone, on views of this one's
        w and C: its row i is row lo + i here, bit for bit.  Population a
        pulse moves below row lo leaves its ladder."""
        view = copy.copy(self)
        view.n_max, view.w, view.C = hi - lo - 1, self.w[lo:hi], self.C[lo:hi]
        return view

    def site_probabilities(self, t: float | np.ndarray) -> np.ndarray:
        """P[n, k] = probability that a start at phonon n ends k quanta lower.

        For an array of pulse times the tables are stacked along leading
        axes of the same shape, each bit for bit the table of its own
        scalar call.
        """
        return self._tables(t, derivative=False)[0]

    def site_probabilities_with_derivative(
        self, t: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The tables P of site_probabilities(t), bit for bit, together with dP/dt."""
        return self._tables(t, derivative=True)

    def _tables(
        self, t: float | np.ndarray, derivative: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """P and, if asked, dP/dt from real batched matvecs on cos and sin.

        The site amplitude is amp = C [cos(pi w t); sin(pi w t)], so
        P = amp^2 and dP/dt = 2 pi amp C [-w sin; w cos].  P is computed
        the same way whether or not dP/dt is asked for, and the axes of t
        lead the table axes; tables at t = 0 are the exact identity.  A
        pulse time whose largest phase is not finite raises
        FloatingPointError before any phase is formed.
        """
        t = np.asarray(t, dtype=float)
        t_min = t.min(initial=np.inf)
        if t_min < 0:
            raise ValueError(f"pulse time must be >= 0, got {t_min}")
        _check_phases(float(self.w.max()), t)
        phase = np.pi * t[..., None, None] * self.w
        cos, sin = np.cos(phase), np.sin(phase)
        amp = (self.C @ np.concatenate([cos, sin], axis=-1)[..., None])[..., 0]
        p = amp * amp
        # all times > 0 is the common case; a NaN minimum could hide a zero
        any_zero = not t_min > 0
        if any_zero:
            p[t == 0] = np.arange(self.n_sites) == 0
        if not derivative:
            return p, None
        d_arg = np.concatenate([-self.w * sin, self.w * cos], axis=-1)
        d_amp = (self.C @ d_arg[..., None])[..., 0]
        dp = 2.0 * np.pi * amp * d_amp
        if any_zero:
            dp[t == 0] = 0.0
        return p, dp

    def apply_pulse(self, t: float, probs: np.ndarray) -> np.ndarray:
        """Propagate a population vector through one pulse of duration t."""
        return apply_table(self.site_probabilities(t), probs)


def apply_table(site_p: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Populations after a pulse whose table is site_p[n, k] = P(n -> n - k):
    one bincount over _band_targets, which adds each row's terms in
    ascending k."""
    weights = (site_p * probs[:, None]).ravel()
    return np.bincount(_band_targets(*site_p.shape).ravel(), weights)[: len(probs)]


def _pulsed_grid(evolver: ChainEvolver, times: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """after[i, s] = apply_table(evolver.site_probabilities(times[i]), starts[s])
    up to rounding, for times > 0, with time the last axis of every product.

    Row n's amplitudes at all times are one GEMM, C[n] [cos; sin](pi w[n] t),
    and squared they give P[n, k, t]; cos and sin come from one tan of the
    half phases w (0.5 (pi t)) (_cos_sin, within 2.2e-16 of the exact ones).
    Target row m then gathers sum_k starts[s, m + k] P[m + k, k, t], a
    second GEMM per row between each start's K-wide window of populations
    and the diagonal P[m + k, k, :]; both are zero-padded K - 1 rows past
    the top.  The tan identity and the GEMM's summation order make values
    differ from the per-time path by rounding.  A time whose largest phase
    is not finite raises FloatingPointError before any phase is formed.
    """
    n_rows, n_sites = evolver.C.shape[:2]
    n_modes = evolver.w.shape[1]
    _check_phases(float(evolver.w.max()), times)
    half = evolver.w[:, :, None] * (0.5 * (np.pi * times))
    trig = np.empty((n_rows, 2 * n_modes, len(times)))
    _cos_sin(half, trig[:, :n_modes], trig[:, n_modes:], np.empty_like(half), np.empty_like(half))
    p = np.zeros((n_rows + n_sites - 1, n_sites, len(times)))
    np.matmul(evolver.C, trig, out=p[:n_rows])
    p *= p
    row, band, col = p.strides
    diagonals = np.lib.stride_tricks.as_strided(
        p, (n_rows, n_sites, len(times)), (row, row + band, col), writeable=False
    )
    padded = np.concatenate([starts, np.zeros((len(starts), n_sites - 1))], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_sites, axis=1)
    return (windows.transpose(1, 0, 2) @ diagonals).transpose(2, 1, 0)


class _PulseTables:
    """The tables P[i] = site_probabilities(times[i]) and dP[i]/dt of up
    to max_pulses pulses, up to rounding, from one GEMM per ladder row into
    buffers allocated once and overwritten by every call.

    Row n's amplitudes and their time derivatives at all pulses are
    CD[n] [cos; sin](pi t w[n]), with CD the stack of C over
    D = [C_sin w, -C_cos w], so that d_amp = D [cos; sin] reads the same
    trig as amp.  cos and sin come from u = tan of the half phases
    w (0.5 (pi t)) as (1 - u)(1 + u) / (1 + u^2) and 2u / (1 + u^2)
    (_cos_sin, within 2.2e-16 of the exact ones); P = amp^2 and
    dP/dt = (2 pi amp) d_amp are formed as
    site_probabilities_with_derivative forms them.  The tan identity and
    the GEMM's summation order make values differ from its by rounding.
    The half phases, their two scratch arrays and trig have time as the
    last axis, each a contiguous view of its buffer's first elements.
    The GEMM writes each row's (2K, pulses) block through a transposed
    view of a (2K, rows, pulses) buffer, the same BLAS call as into a
    contiguous output; P and dP/dt are stored band-major, (pulses, K,
    rows), so that P[i].T is contiguous, and returned as (pulses, rows,
    K) views.  Tables at t = 0 are the exact
    identity with dP/dt = 0.  A negative time raises ValueError, a time
    whose largest phase is not finite FloatingPointError, before any
    phase is formed.
    """

    def __init__(self, evolver: ChainEvolver, max_pulses: int):
        n_rows, n_sites = evolver.C.shape[:2]
        self._w, self._cd = evolver.w.reshape(-1, 1), _stacked_weights(evolver)
        self._w_max = float(self._w.max())
        self._half, self._u, self._v = (np.empty(self._w.size * max_pulses) for _ in range(3))
        self._trig = np.empty(2 * self._half.size)
        self._amps = np.empty(n_rows * 2 * n_sites * max_pulses)
        self._p = np.empty((max_pulses, n_sites, n_rows))
        self._dp = np.empty((max_pulses, n_sites, n_rows))

    def __call__(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_min = times.min()
        if t_min < 0:
            raise ValueError(f"pulse time must be >= 0, got {t_min}")
        _check_phases(self._w_max, times)
        n_rows, two_sites, two_modes = self._cd.shape
        n_pulses, n_modes, n_sites = len(times), two_modes // 2, two_sites // 2
        half, u, v = (
            _leading(buffer, n_rows, n_modes, n_pulses) for buffer in (self._half, self._u, self._v)
        )
        np.multiply(self._w, 0.5 * (np.pi * times), out=half.reshape(-1, n_pulses))
        trig = _leading(self._trig, n_rows, two_modes, n_pulses)
        _cos_sin(half, trig[:, :n_modes], trig[:, n_modes:], u, v)
        amps = _leading(self._amps, two_sites, n_rows, n_pulses)
        np.matmul(self._cd, trig, out=amps.transpose(1, 0, 2))
        amps = amps.transpose(2, 0, 1)
        p, dp = self._p[:n_pulses], self._dp[:n_pulses]
        np.square(amps[:, :n_sites], out=p)
        np.multiply(amps[:, :n_sites], 2.0 * np.pi, out=dp)
        dp *= amps[:, n_sites:]
        p, dp = p.transpose(0, 2, 1), dp.transpose(0, 2, 1)
        # all times > 0 is the common case; a NaN minimum could hide a zero
        if not t_min > 0:
            zero = times == 0
            p[zero] = np.arange(n_sites) == 0
            dp[zero] = 0.0
        return p, dp


def _check_phases(w_max: float, times: np.ndarray) -> None:
    """Raise FloatingPointError unless the largest phase w_max (pi t_max),
    in Python floats, is finite: every other phase is then finite too, so
    the check runs before any phase is formed."""
    t_max = float(times.max(initial=0.0))
    if not math.isfinite(w_max * (math.pi * t_max)):
        raise FloatingPointError(f"pulse phase overflows at pulse time {t_max}")


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
def _stacked_weights(evolver: ChainEvolver) -> np.ndarray:
    """The read-only CD of _PulseTables, built once per evolver:
    CD[n] = [[C_cos, C_sin], [C_sin w, -C_cos w]], of shape (rows, 2K, 2M)."""
    c, w = evolver.C, evolver.w[:, None, :]
    n_rows, n_sites, n_trig = c.shape
    n_modes = n_trig // 2
    cd = np.empty((n_rows, 2 * n_sites, n_trig))
    cd[:, :n_sites] = c
    np.multiply(c[:, :, n_modes:], w, out=cd[:, n_sites:, :n_modes])
    np.multiply(c[:, :, :n_modes], -w, out=cd[:, n_sites:, n_modes:])
    cd.setflags(write=False)
    return cd


@functools.lru_cache(maxsize=8)
def _band_targets(n_rows: int, n_bands: int) -> np.ndarray:
    """Read-only target[n, k] = n - k, the row band k moves row n to; entries
    with k > n point at the sentinel row n_rows, past the ladder."""
    n, k = np.ogrid[:n_rows, :n_bands]
    target = np.where(k <= n, n - k, n_rows)
    target.setflags(write=False)
    return target


@functools.lru_cache(maxsize=8)
def cached_evolver(chain: CouplingChain, trap: TrapParams, n_max: int) -> ChainEvolver:
    """The ChainEvolver for (chain, trap, n_max), built once per process and
    shared by every caller; its w and C arrays are read-only."""
    evolver = ChainEvolver(chain, trap, n_max)
    evolver.w.setflags(write=False)
    evolver.C.setflags(write=False)
    return evolver
