"""Pulse-sequence strategies and the geometric tail-suppression analysis.

A fixed-duration pulse train multiplies the thermal tail by a factor a < 1
per pulse; the sequence strategies below either exploit that directly
(fixed, heuristic) or minimize the final mean occupation outright
(global optimization).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain_dynamics import ChainEvolver, _BandSum, _PulseTables, cached_evolver
from .manifold import CouplingChain
from .motional import PhononDistribution, TrapParams

_T_GRID_LO = 0.02
_T_GRID_HI = 1.2
_T_GRID_POINTS = 240
# optimize_global's k = 1 seed grid: from F7, F8 and the two-level chain
# at nbar 1 to 40, its L-BFGS ends within 1.4e-8 in t and 2.2e-16 in <n>
# of where it ends from the 240-point grid
_T_SEED_POINTS = 24
# pulse times per grid chunk: a scan's traced peak is then 1.16 MB, the
# kernel's buffers and the objective's temporaries, for table1's nine F8
# starts on the 139 window rows (K = 16); 6 columns measured twice as
# slow, and 24 doubles the peak for no measured gain
_GRID_COLUMNS = 12
_MIN_PULSE_TIME = 1e-6
_EPS = float(np.finfo(float).eps)
# optimize_global's objective stops at this <n>, far below what a
# sideband probe resolves
_MEAN_FLOOR = 1e-12
# dual_thermal_decompose refuses a window whose tail mass falls below this:
# heating's absolute rounding over the default 124-entry window is ~2.7e-14
_MIN_TAIL_MASS = 1e-12


@dataclass(frozen=True)
class PulseSequence:
    """An ordered list of pulse durations in units of the reference pi-time.

    For global_opt, n_evals[k - 1] counts the objective evaluations spent
    on the k-pulse problem.
    """

    times: tuple[float, ...]
    strategy: str
    converged: bool = True
    n_evals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in ("fixed", "global_opt", "heuristic"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if any(t <= 0 for t in self.times):
            raise ValueError("pulse durations must be > 0")


@dataclass(frozen=True)
class SuppressionFit:
    """Result of fitting the two-component (suppressed thermal + residual)
    model: the per-pulse suppression a of the thermal tail, over fit_window."""

    a: float
    fit_window: tuple[int, int]
    r_squared: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.a < 1:
            raise ValueError(f"suppression factor must lie in (0, 1), got {self.a}")


def asymptotic_window(eta: float) -> tuple[int, int]:
    """Phonon index range [n_lo, n_hi] where per-pulse tail ratios are flat.

    The per-bin ratio (W p)(n)/p(n) of a thermal state settles to its
    asymptote only well above the band edge; empirically the plateau sits
    around the first-sideband coupling maximum, bracketed here by
    0.6/eta^2 and 1.2/eta^2.  An eta whose square overflows raises
    FloatingPointError, one too small for finite bounds ValueError.
    """
    try:
        eta2 = eta**2
    except OverflowError as exc:
        raise FloatingPointError(f"asymptotic window is not finite at eta {eta}") from exc
    if not (eta2 > 0 and math.isfinite(1.2 / eta2)):
        raise ValueError(f"asymptotic window at eta {eta} has no finite bound")
    return (int(0.6 / eta2), math.ceil(1.2 / eta2))


def _checked_window(eta: float, probs: np.ndarray, reach: int) -> tuple[int, int]:
    """asymptotic_window(eta), which with the pulse reach above it must fit
    in the truncation of the populations probs and hold no zero entries."""
    window = n_lo, n_hi = asymptotic_window(eta)
    if n_hi + reach > len(probs) - 1:
        raise ValueError(
            f"window {window} plus pulse reach {reach} exceeds n_max = {len(probs) - 1}; "
            "build the initial distribution with a larger truncation"
        )
    if np.any(probs[n_lo : n_hi + 1] <= 0):
        raise ValueError(f"window {window} contains zero-probability entries")
    return window


def _log_suppression(after: np.ndarray, p0: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """log of the tail suppression of the populations `after` one pulse
    from p0: the mean over the window of the per-bin log ratios.  Leading
    axes of after and p0 broadcast; the last axis is the phonon number."""
    n_lo, n_hi = window
    return np.mean(np.log(after[..., n_lo : n_hi + 1] / p0[..., n_lo : n_hi + 1]), axis=-1)


def _grid_scan(
    evolver: ChainEvolver,
    p0s: np.ndarray,
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """objective(populations after one pulse, p0) at n_points pulse times
    spaced evenly over [_T_GRID_LO, _T_GRID_HI], for each start p0 in the
    rows of p0s: (ts, vals), vals[i, s] at ts[i] from start s.  One
    _PulseTables' grid pulses every start at _GRID_COLUMNS times at a time;
    its rounding differs from the one-time tables', and the values only
    pick each search's start.  objective takes broadcasting leading axes
    and returns one value per population vector.
    """
    ts = np.linspace(_T_GRID_LO, _T_GRID_HI, n_points)
    grid = _PulseTables(evolver, _GRID_COLUMNS, derivative=False).grid(ts, p0s)
    return ts, np.concatenate([objective(after, p0s) for after in grid])


def _minimize_suppression(
    evolver: ChainEvolver, p0s: np.ndarray, window: tuple[int, int]
) -> list[tuple[float, float]]:
    """Minimize the tail suppression a over the pulse time, for each start
    p0 in the rows of p0s; one (t, a) per start.

    A pulse moves population only downward, by fewer than K = n_sites
    quanta, so the window's populations after it read only rows
    n_lo .. n_hi + K - 1: the search runs on those rows alone, through
    evolver.rows, whose tables are the full ladder's rows bit for bit.
    One grid scan serves every start.  L-BFGS (t >= 1e-6) then refines
    log a from each start's lowest grid point, with the exact slope
    d(log a)/dt, the window mean of d(after)/dt / after, on one-time
    tables from one _PulseTables and one _BandSum shared by every start.
    log a is the mean that _log_suppression takes over the band sum's
    populations, and the kernel's P does not depend on its derivative or
    on the row range, so a is bit for bit the full ladder's a from
    site_probabilities(t), and a start's result does not depend on the
    other starts.
    """
    n_lo, n_hi = window
    top = n_hi + evolver.n_sites
    evolver, p0s, window = evolver.rows(n_lo, top), p0s[:, n_lo:top], (0, n_hi - n_lo)
    n_window = n_hi - n_lo + 1
    ts, vals = _grid_scan(
        evolver, p0s, lambda after, p0: _log_suppression(after, p0, window), _T_GRID_POINTS
    )
    tables, band_sum = _PulseTables(evolver, 1), _BandSum(*evolver.C.shape[:2])
    results = []
    for p0, i in zip(p0s, np.argmin(vals, axis=0)):

        def log_suppression_and_slope(t):
            (site_p,), (d_site_p,) = tables(t)
            after = band_sum(site_p, p0)
            slope = np.mean(band_sum(d_site_p, p0)[:n_window] / after[:n_window])
            return _log_suppression(after, p0, window), np.array([slope])

        t, log_a, _, _ = _lbfgs(log_suppression_and_slope, ts[i : i + 1], _MIN_PULSE_TIME)
        results.append((float(t[0]), float(np.exp(log_a))))
    return results


def optimize_fixed_pulses(
    chain: CouplingChain,
    trap: TrapParams,
    inits: list[PhononDistribution],
) -> list[tuple[float, float]]:
    """optimize_fixed_pulse for every distribution in inits, which share
    one n_max: a single grid scan's tables serve them all.  Returns one
    (t_opt, a_opt) per init."""
    if len({init.n_max for init in inits}) != 1:
        raise ValueError("inits must be a non-empty list sharing one n_max")
    window = [_checked_window(trap.eta, init.probs, len(chain.steps)) for init in inits][0]
    evolver = cached_evolver(chain, trap, inits[0].n_max)
    return _minimize_suppression(evolver, np.stack([init.probs for init in inits]), window)


def optimize_fixed_pulse(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
) -> tuple[float, float]:
    """Duration minimizing the tail suppression factor; returns (t_opt, a_opt)."""
    return optimize_fixed_pulses(chain, trap, [init])[0]


def _mean_and_gradient(
    times: np.ndarray,
    evolver: ChainEvolver,
    p0: np.ndarray,
    work: _Workspace | None = None,
    curvature: bool = False,
) -> tuple:
    """Final mean occupation f after the pulses, and df/dt for every pulse;
    with curvature also the Hessian's diagonal d^2f/dt^2.

    One batched kernel call builds every pulse's table S_i and dS_i/dt
    (_PulseTables: one GEMM per ladder row, whose sums depend on the
    batch, so f and df/dt differ from a forward pass over one-time tables
    by rounding).  The forward
    pass keeps each pulse's input populations p_i.  The adjoint starts at
    lambda_L = (n - f) / sum(p_L) and steps back through the transposed
    bands, lambda_i[j] = sum_k S_i[j, k] lambda_{i+1}[j - k], so
    df/dt_i = sum_{j,k} dS_i[j, k]/dt p_i[j] lambda_{i+1}[j - k] (the GRAPE
    construction).  Both passes are the workspace's _BandSum, which sums
    over the bands in ascending k: the forward pass applies S_i to p_i,
    the adjoint applies S_i transposed to the window view of
    lambda_{i+1}.  The gradient is one einsum over all pulses after the
    adjoint loop, on a contiguous copy of the window views: einsum's
    summation order follows its operands' strides, and on the views
    themselves it rounds differently for some ladders (the two-level
    chain, or 3000 rows).  With curvature the kernel's order-2 call also
    gives d^2S_i/dt^2, and H_ii = sum_{j,k} d^2S_i[j, k]/dt^2 p_i[j]
    lambda_{i+1}[j - k] is the same einsum over it: f = N / Z is
    nonlinear in p_L only through Z = sum(p_L), which no pulse changes,
    so the quotient adds no term.  Its f and df/dt come from the order-2
    call's tables and may differ from the plain call's by rounding.  work
    holds the buffers, for at least len(times) pulses; without one, a new
    one is made.
    """
    n_pulses, n_rows = len(times), len(p0)
    if work is None:
        work = _Workspace(evolver, n_pulses)
    site_p, *derivatives = work.tables(times, curvature)
    inputs, band_sum = work.inputs[: n_pulses + 1], work.band_sum
    inputs[0] = p0
    for i in range(n_pulses):
        band_sum(site_p[i], inputs[i], out=inputs[i + 1])
    p, n = inputs[-1], work.n
    total = p.sum()
    f = float(n @ p) / total
    lams, bands = work.lams[:n_pulses, -n_rows:], work.bands[:n_pulses]
    np.subtract(n, f, out=lams[-1])
    lams[-1] /= total
    for i in range(n_pulses - 1, 0, -1):
        band_sum.transposed(site_p[i], bands[i], out=lams[i - 1])
    band_copy = work.band_copy[:n_pulses]
    np.copyto(band_copy, bands)
    return f, *(np.einsum("ink,ikn,in->i", d, band_copy, inputs[:-1]) for d in derivatives)


class _Workspace:
    """Buffers for objective evaluations of up to max_pulses pulses,
    allocated once and reused by every evaluation: the batched kernel's,
    the forward inputs, the band sum's, the adjoint lambdas, the
    gradient's copy of their bands, and the phonon numbers n.

    Row i of lams holds lambda_{i+1} after K - 1 zeros, and
    bands[i, k, j] = lambda_{i+1}[j - k], zero for k > j, is its reversed
    window view.  Nothing writes the pads."""

    def __init__(self, evolver: ChainEvolver, max_pulses: int):
        n_rows, n_sites = evolver.C.shape[:2]
        self.tables = _PulseTables(evolver, max_pulses)
        self.inputs = np.empty((max_pulses + 1, n_rows))
        self.band_sum = _BandSum(n_rows, n_sites)
        self.lams = np.zeros((max_pulses, n_rows + n_sites - 1))
        self.bands = sliding_window_view(self.lams, n_rows, axis=1)[:, ::-1]
        self.band_copy = np.empty((max_pulses, n_sites, n_rows))
        self.n = np.arange(n_rows)


def _line_search(phi, f0, g0, stp):
    """Backtracking line search along a descent direction, where
    phi(step) = (f, f'): the first step with sufficient decrease
    f <= f0 + 1e-3 step g0, within 20 evaluations.  After a rejected step
    the next is step r, r clipped to [0.1, 0.5], where r step minimizes
    the cubic through (0, f0, g0) and (step, f, f') (Nocedal & Wright,
    Numerical Optimization, sec. 3.5), or r = 0.5 when that cubic has no
    finite minimizer.  None when stp <= 0, g0 >= 0 or no step is found."""
    if not (stp > 0 and g0 < 0):
        return None
    for _ in range(20):
        f, g = phi(stp)
        if f <= f0 + 1e-3 * stp * g0:
            return stp
        d1 = g0 + g - 3.0 * (f - f0) / stp
        disc = d1 * d1 - g0 * g
        denom = g - g0 + 2.0 * math.sqrt(disc) if disc >= 0 else 0.0
        r = 1.0 - (g + math.sqrt(disc) - d1) / denom if denom != 0 else 0.5
        stp *= max(0.1, min(0.5, r))
    return None


def _two_loop(g, pair_s, pair_y, rhos, cross, h0):
    """d = -H g by the two-loop recursion over the m = len(rhos) pairs in
    the rows of pair_s and pair_y, oldest first, rhos[i] = 1 / s_i.y_i,
    with H0 = diag(h0)^-1, or s.y / y.y of the newest pair (the identity
    without pairs).  As in the compact form of Byrd, Nocedal & Schnabel
    (Math. Prog. 63, 129 (1994)), each loop takes its inner products with
    d from one matrix-vector product and the kept cross[i][j - i - 1] =
    s_i.y_j (i < j), so d is the pairwise loops' up to rounding."""
    d = -g
    if not rhos:
        return d if h0 is None else d / h0
    alphas = (pair_s @ d).tolist()
    for i in reversed(range(len(rhos))):
        for alpha, c in zip(alphas[i + 1 :], cross[i]):
            alphas[i] -= alpha * c
        alphas[i] *= rhos[i]
    d -= np.dot(alphas, pair_y)
    d /= h0 if h0 is not None else rhos[-1] * float(pair_y[-1] @ pair_y[-1])
    # z_i = alpha_i - beta_i, beta_i = rho_i y_i.(d + sum_{j<i} z_j s_j)
    z = (pair_y @ d).tolist()
    for i in range(len(rhos)):
        for j in range(i):
            z[i] += z[j] * cross[j][i - j - 1]
        z[i] = alphas[i] - rhos[i] * z[i]
    d += np.dot(z, pair_s)
    return d


def _lbfgs(fun, x, lower, h0=None):
    """Minimize fun(x) -> (f, gradient) over x >= lower by L-BFGS (Liu &
    Nocedal, Math. Prog. 45, 503 (1989)) with L-BFGS-B's memory of 10
    pairs, scaling, curvature skip and stopping tests; the bound only caps
    each step's length.  h0, a positive estimate of the Hessian's
    diagonal at x, makes diag(h0)^-1 the fixed initial matrix of every
    step's two-loop recursion, in place of the scalar s.y / y.y of the
    newest pair, and the first trial step 1; an h0 with any entry that is
    not both finite and > 0 is ignored.  Converged when the relative
    decrease is <= 1e-13, when the projected gradient's largest entry is
    <= 1e-10, or, before a line search, when the quasi-Newton decrement
    -g.d / 2 of the new direction d is <= 1e-14 max(|f|, 1) (Nocedal &
    Wright, Numerical Optimization, sec. 6.1) and the quadratic model is
    trusted: the last step took the full trial step 1 and decreased f by
    0.5 to 2 times the -g.d / 2 that the model predicted for it.  A failed
    line search clears the memory, and h0 with it, and retries; a failure
    with the memory and h0 already empty, or 1000 steps, end the search
    unconverged.  Returns (x, fun(x)[0], evaluations, converged)."""
    if h0 is not None and not np.all((h0 > 0) & (h0 < np.inf)):
        h0 = None
    f, g = fun(x)
    n_evals, nit, model_ok = 1, 0, False
    # the newest pairs (s, y), oldest first, their 1 / s.y and their s_i.y_j, i < j
    pair_s, pair_y = np.empty((10, x.size)), np.empty((10, x.size))
    rhos: list[float] = []
    cross: list[list[float]] = []
    trial: list = []

    def phi(stp):
        nonlocal n_evals
        x_t = np.maximum(x + stp * d, lower)
        f_t, g_t = fun(x_t)
        n_evals += 1
        trial[:] = x_t, f_t, g_t
        return f_t, float(g_t @ d)

    while True:
        # x >= lower, so where g > 0 this is min(x - lower, g), elsewhere g
        if np.abs(np.minimum(g, x - lower)).max() <= 1e-10:
            return x, f, n_evals, True
        if nit == 1000:
            return x, f, n_evals, False
        m = len(rhos)
        d = _two_loop(g, pair_s[:m], pair_y[:m], rhos, cross, h0)
        gd = float(g @ d)
        if model_ok and -0.5 * gd <= 1e-14 * max(abs(f), 1.0):
            return x, f, n_evals, True
        # the first trial step is 1 (1/|d| on the first iteration without
        # h0), capped where the first variable would cross the bound
        stp = min(1.0 / np.linalg.norm(d), 1.0) if nit == 0 and h0 is None else 1.0
        if (x + stp * d).min() < lower:
            falling = d < 0
            stp = min(stp, float(np.min((x[falling] - lower) / -d[falling])))
        stp = _line_search(phi, f, gd, stp)
        if stp is None:
            if not rhos and h0 is None:
                return x, f, n_evals, False
            rhos.clear()
            cross.clear()
            h0, model_ok = None, False
            continue
        nit += 1
        x_new, f_new, g_new = trial
        s, y, scale = x_new - x, g_new - g, max(abs(f), abs(f_new), 1.0)
        x, f, g, decrease = x_new, f_new, g_new, f - f_new
        if decrease <= 1e-13 * scale:
            return x, f, n_evals, True
        # the full step's quadratic model predicts a decrease of -gd / 2
        model_ok = stp == 1.0 and -0.25 * gd <= decrease <= -gd
        sy = float(s @ y)
        # L-BFGS-B's curvature test: skip pairs that would spoil H's definiteness
        if sy > _EPS * -gd * stp:
            if m == 10:
                pair_s[:-1], pair_y[:-1] = pair_s[1:], pair_y[1:]
                del rhos[0], cross[0]
                m = 9
            for row, c in zip(cross, (pair_s[:m] @ y).tolist()):
                row.append(c)
            pair_s[m], pair_y[m] = s, y
            rhos.append(1.0 / sy)
            cross.append([])


def optimize_global(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
    n_pulses: int,
    trace: list | None = None,
) -> PulseSequence:
    """Minimize the final mean occupation over all pulse durations.

    L-BFGS (t >= 1e-6) on log <n>, with the exact adjoint gradient
    divided by <n>, so the gradient tolerance means the same at every
    depth of cooling.  Below an absolute floor, <n> < 1e-12, the objective
    is log 1e-12 with a zero gradient, which ends the search at that pulse
    count instead of polishing <n> far below anything a sideband probe
    resolves.  One search per pulse count.  k = 1 starts from the lowest
    point of a _T_SEED_POINTS-point pulse-time grid of one-pulse <n>.
    k + 1 starts from the k-pulse optimum with its first duration repeated
    at the front, which reaches the same optima in fewer evaluations than
    a repeated last one, but may raise <n>: the start is evaluated first,
    and kept only when its true <n> is at most the k-optimum's; otherwise
    the search starts from the optimum extended by its last duration.  A
    pulse moves population only downward, so that extension cannot raise
    <n>.  Either start is then no higher than the k-optimum, no step of
    the search raises its objective, and a search that starts below the
    floor does not move, so the final true <n> is non-increasing in pulse
    count, below the floor too.  Every start (the seed, the prepended
    probe, the appended fallback) is evaluated with curvature, and the
    search's initial matrix is the inverse of the absolute Hessian
    diagonal of log <n> there, |H_ll / <n> - (g_l / <n>)^2|, which cuts
    the evaluations (143 to 93 on the default F7 nbar 6.08, 10 pulses);
    a start below the floor has none.  Each search also ends, before a
    line search, on _lbfgs's quasi-Newton decrement: a next step that
    would lower log <n> by about 1e-14 or less is not taken (93 to 86).  The kept start's evaluation is
    the search's first, through a one-entry memo.  Each trace entry is
    (k, <n>), the true <n> even below the floor; n_evals[k - 1] counts the
    kernel evaluations at k, its start's curvature evaluation as one.  All
    pulse counts share one _Workspace.  Deterministic; no randomness
    enters the search.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    evolver = cached_evolver(chain, trap, init.n_max)
    p0 = init.probs

    # <n> of every evaluated point: the trace reports it, not exp(log <n>)
    means: dict[bytes, float] = {}
    # the last evaluation's times.tobytes(), (f, gradient) and h0, which a
    # start's evaluation hands to its search; kernel_evals counts the real ones
    memo: tuple = (None, None, None)
    kernel_evals = 0

    def log_mean_and_gradient(times: np.ndarray, curvature: bool = False):
        nonlocal memo, kernel_evals
        key = times.tobytes()
        if key == memo[0]:
            return memo[1]
        f, grad, *diag = _mean_and_gradient(times, evolver, p0, work, curvature)
        kernel_evals += 1
        means[key] = float(f)
        if f < _MEAN_FLOOR:
            memo = key, (math.log(_MEAN_FLOOR), np.zeros_like(grad)), None
        else:
            g = grad / f
            # h0: the absolute diagonal of the Hessian of log <n>
            memo = key, (math.log(f), g), np.abs(diag[0] / f - g * g) if diag else None
        return memo[1]

    # k = 1 starts at the seed grid time with the lowest one-pulse <n>
    n = np.arange(init.n_max + 1)
    ts, vals = _grid_scan(
        evolver, p0[None], lambda after, _p0: (after @ n) / after.sum(axis=-1), _T_SEED_POINTS
    )
    x = np.array([ts[np.argmin(vals[:, 0])]])
    converged = True
    n_evals = []
    # built after the scan, so that its buffers can reuse the memory the
    # scan frees: built before it, on fresh pages, a default cool measured
    # about 1.4 ms slower
    work = _Workspace(evolver, n_pulses)
    for k in range(1, n_pulses + 1):
        log_mean_and_gradient(x, curvature=True)
        x, _, _, ok = _lbfgs(log_mean_and_gradient, x, _MIN_PULSE_TIME, h0=memo[2])
        converged = converged and ok
        n_evals.append(kernel_evals - sum(n_evals))
        mean = means[x.tobytes()]
        if trace is not None:
            trace.append((k, mean))
        if k < n_pulses:
            start = np.insert(x, 0, x[0])
            log_mean_and_gradient(start, curvature=True)
            x = start if means[start.tobytes()] <= mean else np.append(x, x[-1])
    return PulseSequence(
        times=tuple(float(t) for t in x),
        strategy="global_opt",
        converged=converged,
        n_evals=tuple(n_evals),
    )


def heuristic_sequence(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
    tail_target: float = 0.01,
    n_final: int = 5,
) -> PulseSequence:
    """Fixed pulses until the tail factor drops below target, then n_final
    pulses that optimize_global tunes for the state the fixed ones reach
    from init, without heating, on init's ladder."""
    if not 0 < tail_target < 1:
        raise ValueError(f"tail_target must be in (0, 1), got {tail_target}")
    if n_final < 0:
        raise ValueError(f"n_final must be >= 0, got {n_final}")
    t_opt, a_opt = optimize_fixed_pulse(chain, trap, init)
    n_fixed = math.ceil(math.log(tail_target) / math.log(a_opt))
    times = [t_opt] * n_fixed
    if n_final > 0:
        evolver = cached_evolver(chain, trap, init.n_max)
        site_p, band_sum = evolver.site_probabilities(t_opt), _BandSum(*evolver.C.shape[:2])
        probs = init.probs
        for _ in range(n_fixed):
            probs = band_sum(site_p, probs)
        reached = PhononDistribution(probs=probs, n_max=init.n_max)
        times += optimize_global(chain, trap, reached, n_final).times
    return PulseSequence(times=tuple(times), strategy="heuristic")


def dual_thermal_decompose(history: np.ndarray, eta: float) -> SuppressionFit:
    """Fit the two-component model to a fixed-duration pulse history.

    history[k] is the row of populations after k pulses (history[0] the
    initial state).  The tail mass over the asymptotic window of eta
    should decay geometrically, with R^2 >= 0.99; a is recovered by
    log-linear regression.
    """
    if len(history) < 4:
        raise ValueError("need the initial state plus at least 3 pulses")
    window = n_lo, n_hi = _checked_window(eta, history[0], 0)

    tail_mass = history[:, n_lo : n_hi + 1].sum(axis=1)
    k_min = int(np.argmin(tail_mass))
    if tail_mass[k_min] < _MIN_TAIL_MASS:
        raise ValueError(
            f"tail mass in window {window} falls to {tail_mass[k_min]:.3g} after {k_min} "
            f"pulses, below {_MIN_TAIL_MASS:g}; the fit would follow rounding noise"
        )
    k = np.arange(len(history), dtype=float)
    y = np.log(tail_mass)
    slope, intercept = np.polyfit(k, y, 1)
    fit = slope * k + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.99:
        raise ValueError(
            f"tail decay is not geometric (R^2 = {r2:.4f} < 0.99); "
            "dual-thermal model does not apply"
        )
    a = float(np.exp(slope))
    if not 0 < a < 1:
        raise ValueError(f"fitted suppression factor {a} outside (0, 1)")
    return SuppressionFit(a=a, fit_window=window, r_squared=r2)
