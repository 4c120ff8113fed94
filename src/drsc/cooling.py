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
from scipy.optimize import minimize, minimize_scalar

from .chain_dynamics import ChainEvolver, apply_table, cached_evolver
from .manifold import CouplingChain, ManifoldScheme
from .motional import PhononDistribution, TrapParams, thermal_state

_T_GRID_LO = 0.02
_T_GRID_HI = 1.2
_T_GRID_POINTS = 240
# pulse times per grid kernel call: each (6, n_max+1, K, 2) temporary is
# 0.62 MB at F8/n_max 400 (K = 16); longer chunks outgrow the cache and
# measured slower
_GRID_CHUNK = 6
_MIN_PULSE_TIME = 1e-6


@dataclass(frozen=True)
class PulseSequence:
    """An ordered list of pulse durations in units of the reference pi-time.

    For global_opt, n_evals[k - 1] counts the objective evaluations spent
    on the k-pulse problem.
    """

    times: tuple[float, ...]
    strategy: str
    scheme: ManifoldScheme | None = None
    converged: bool = True
    n_evals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in ("fixed", "global_opt", "heuristic"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if any(t <= 0 for t in self.times):
            raise ValueError("pulse durations must be > 0")


@dataclass(frozen=True)
class SuppressionFit:
    """Result of fitting the two-component (suppressed thermal + residual) model."""

    a: float
    fit_window: tuple[int, int]
    residual: PhononDistribution
    r_squared: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.a < 1:
            raise ValueError(f"suppression factor must lie in (0, 1), got {self.a}")


def asymptotic_window(eta: float) -> tuple[int, int]:
    """Phonon index range [n_lo, n_hi] where per-pulse tail ratios are flat.

    The per-bin ratio (W p)(n)/p(n) of a thermal state settles to its
    asymptote only well above the band edge; empirically the plateau sits
    around the first-sideband coupling maximum, bracketed here by
    0.6/eta^2 and 1.2/eta^2.
    """
    return (int(0.6 / eta**2), math.ceil(1.2 / eta**2))


def _check_window(
    window: tuple[int, int], init: PhononDistribution, reach: int
) -> tuple[int, int]:
    n_lo, n_hi = int(window[0]), int(window[1])
    if not 0 <= n_lo <= n_hi:
        raise ValueError(f"bad window {window}")
    if n_hi + reach > init.n_max:
        raise ValueError(
            f"window {window} plus pulse reach {reach} exceeds n_max = {init.n_max}; "
            "build the initial distribution with a larger truncation"
        )
    if np.any(init.probs[n_lo : n_hi + 1] <= 0):
        raise ValueError(f"window {window} contains zero-probability entries")
    return n_lo, n_hi


def _suppression(after: np.ndarray, p0: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Tail suppression of the populations `after` one pulse from p0: the
    geometric mean over the window of the per-bin ratios.  Leading axes of
    after and p0 broadcast; the last axis is the phonon number."""
    n_lo, n_hi = window
    ratios = after[..., n_lo : n_hi + 1] / p0[..., n_lo : n_hi + 1]
    return np.exp(np.mean(np.log(ratios), axis=-1))


def suppression_factor(
    chain: CouplingChain,
    trap: TrapParams,
    t: float,
    init: PhononDistribution,
    window: tuple[int, int] | None = None,
) -> float:
    """Per-pulse geometric tail suppression a.

    a is the geometric mean over the window of the per-bin population
    ratio after one pulse of duration t.  The default window is the
    asymptotic plateau; the initial distribution must be truncated high
    enough to cover it plus the pulse band.
    """
    if window is None:
        window = asymptotic_window(trap.eta)
    window = _check_window(window, init, len(chain.steps))
    evolver = cached_evolver(chain, trap, init.n_max)
    return float(_suppression(evolver.apply_pulse(t, init.probs), init.probs, window))


def _grid_then_brent(
    evolver: ChainEvolver,
    p0s: np.ndarray,
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[tuple[float, float]]:
    """Minimize objective(populations after one pulse, p0) over the pulse
    time, for each start p0 in the rows of p0s; one (t, value) per start.

    A coarse grid scan, whose tables are computed _GRID_CHUNK pulse times
    per kernel call and applied to every start at once, is refined by
    bracketed Brent minimization on single pulses.  The objective takes
    broadcasting leading axes and returns one value per population vector.
    """
    ts = np.linspace(_T_GRID_LO, _T_GRID_HI, _T_GRID_POINTS)
    vals = np.concatenate(
        [
            objective(apply_table(evolver.site_probabilities(chunk)[:, None], p0s), p0s)
            for chunk in np.split(ts, range(_GRID_CHUNK, len(ts), _GRID_CHUNK))
        ]
    )
    results = []
    for p0, col in zip(p0s, vals.T):
        i = int(np.argmin(col))
        t_best, f_best = float(ts[i]), float(col[i])
        if 0 < i < len(ts) - 1:
            res = minimize_scalar(
                lambda t: float(objective(evolver.apply_pulse(t, p0), p0)),
                bracket=(ts[i - 1], ts[i], ts[i + 1]),
                method="brent",
            )
            if res.fun < f_best:
                t_best, f_best = float(res.x), float(res.fun)
        results.append((t_best, f_best))
    return results


def optimize_fixed_pulses(
    chain: CouplingChain,
    trap: TrapParams,
    inits: list[PhononDistribution],
    window: tuple[int, int] | None = None,
) -> list[tuple[float, float]]:
    """optimize_fixed_pulse for every distribution in inits, which share
    one n_max: a single grid scan's tables serve them all.  Returns one
    (t_opt, a_opt) per init."""
    if len({init.n_max for init in inits}) != 1:
        raise ValueError("inits must be a non-empty list sharing one n_max")
    if window is None:
        window = asymptotic_window(trap.eta)
    window = [_check_window(window, init, len(chain.steps)) for init in inits][0]
    evolver = cached_evolver(chain, trap, inits[0].n_max)
    return _grid_then_brent(
        evolver,
        np.stack([init.probs for init in inits]),
        lambda after, p0: _suppression(after, p0, window),
    )


def optimize_fixed_pulse(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
    window: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Duration minimizing the tail suppression factor; returns (t_opt, a_opt)."""
    return optimize_fixed_pulses(chain, trap, [init], window)[0]


def _mean_and_gradient(
    times: np.ndarray, evolver: ChainEvolver, p0: np.ndarray
) -> tuple[float, np.ndarray]:
    """Final mean occupation f after the pulses, and df/dt for every pulse.

    One forward pass keeps each pulse's input populations p_i and table
    S_i.  The adjoint starts at lambda_L = (n - f) / sum(p_L) and steps back
    through the transposed bands, lambda_i[j] = sum_k S_i[j, k]
    lambda_{i+1}[j - k], so df/dt_i = sum_{j,k} dS_i[j, k]/dt p_i[j]
    lambda_{i+1}[j - k] (the GRAPE construction).
    """
    inputs = []
    tables = []
    p = p0
    for t in times:
        site_p, d_site_p = evolver.site_probabilities_with_derivative(t)
        inputs.append(p)
        tables.append((site_p, d_site_p))
        p = apply_table(site_p, p)
    n = np.arange(len(p))
    total = p.sum()
    f = float(n @ p) / total
    lam = (n - f) / total
    pad = np.zeros(evolver.n_sites - 1)
    grad = np.empty(len(tables))
    for i in range(len(tables) - 1, -1, -1):
        site_p, d_site_p = tables[i]
        # shifted[j, k] = lambda_{i+1}[j - k], zero where j < k
        shifted = sliding_window_view(np.concatenate([pad, lam]), evolver.n_sites)[:, ::-1]
        grad[i] = inputs[i] @ np.sum(d_site_p * shifted, axis=1)
        lam = np.sum(site_p * shifted, axis=1)
    return f, grad


def _single_pulse_seed(evolver: ChainEvolver, p0: np.ndarray) -> float:
    n = np.arange(len(p0))
    # row by row, so a grid value is bit for bit the objective Brent sees
    mean_after = np.vectorize(lambda p: float(n @ p) / p.sum(), signature="(n)->()")
    ((t, _),) = _grid_then_brent(evolver, p0[None], lambda after, _p0: mean_after(after))
    return t


def optimize_global(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
    n_pulses: int,
    scheme: ManifoldScheme | None = None,
    trace: list | None = None,
) -> PulseSequence:
    """Minimize the final mean occupation over all pulse durations.

    Bounded L-BFGS-B (t >= 1e-6) on log <n>, with the exact adjoint
    gradient divided by <n>, so the gradient tolerance means the same at
    every depth of cooling.  One start per pulse count: k = 1 starts from
    the uniform seed, every k > 1 from the (k-1)-pulse optimum extended by
    its last duration.  Appending a pulse cannot raise <n> and L-BFGS-B
    never returns a point worse than its start, so the final mean
    occupation is non-increasing in pulse count.  The seed is the
    tail-suppression optimum when the distribution covers the asymptotic
    window, otherwise the single-pulse mean-n optimum.  Each trace entry
    is (k, <n>); the returned sequence carries the objective evaluations
    spent at each k.  Deterministic; no randomness enters the search.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    evolver = cached_evolver(chain, trap, init.n_max)
    p0 = init.probs

    try:
        t_seed, _ = optimize_fixed_pulse(chain, trap, init)
    except ValueError:
        t_seed = _single_pulse_seed(evolver, p0)

    # <n> of every evaluated point: the trace reports it, not exp(log <n>)
    means: dict[bytes, float] = {}

    def log_mean_and_gradient(times: np.ndarray) -> tuple[float, np.ndarray]:
        f, grad = _mean_and_gradient(times, evolver, p0)
        means[times.tobytes()] = float(f)
        # tiny keeps the log finite when no population is above the ground state
        f_pos = f + np.finfo(float).tiny
        return math.log(f_pos), grad / f_pos

    x0 = np.array([t_seed])
    converged = True
    n_evals = []
    for k in range(1, n_pulses + 1):
        res = minimize(
            log_mean_and_gradient,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(_MIN_PULSE_TIME, None)] * k,
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 1000},
        )
        converged = converged and bool(res.success)
        n_evals.append(res.nfev)
        if trace is not None:
            trace.append((k, means[res.x.tobytes()]))
        x0 = np.append(res.x, res.x[-1])
    return PulseSequence(
        times=tuple(float(t) for t in res.x),
        strategy="global_opt",
        scheme=scheme,
        converged=converged,
        n_evals=tuple(n_evals),
    )


def heuristic_sequence(
    chain: CouplingChain,
    trap: TrapParams,
    init: PhononDistribution,
    tail_target: float = 0.01,
    n_final: int = 5,
    final_nbar: float = 5.0,
    scheme: ManifoldScheme | None = None,
) -> PulseSequence:
    """Fixed pulses until the tail factor drops below target, then a short
    globally optimized stage tuned for a moderate thermal remnant.
    """
    if not 0 < tail_target < 1:
        raise ValueError(f"tail_target must be in (0, 1), got {tail_target}")
    if n_final < 0:
        raise ValueError(f"n_final must be >= 0, got {n_final}")
    t_opt, a_opt = optimize_fixed_pulse(chain, trap, init)
    n_fixed = math.ceil(math.log(tail_target) / math.log(a_opt))
    times = [t_opt] * n_fixed
    if n_final > 0:
        tail = optimize_global(chain, trap, thermal_state(final_nbar), n_final, scheme)
        times.extend(tail.times)
    return PulseSequence(times=tuple(times), strategy="heuristic", scheme=scheme)


def dual_thermal_decompose(
    history: list[PhononDistribution],
    window: tuple[int, int] | None = None,
    eta: float | None = None,
    r2_threshold: float = 0.99,
) -> SuppressionFit:
    """Fit the two-component model to a fixed-duration pulse history.

    history[k] is the distribution after k pulses (history[0] the initial
    state).  The tail mass over the window should decay geometrically;
    a is recovered by log-linear regression and the residual component
    from the final distribution.
    """
    if len(history) < 4:
        raise ValueError("need the initial state plus at least 3 pulses")
    if window is None:
        if eta is None:
            raise ValueError("either window or eta must be given")
        window = asymptotic_window(eta)
    n_lo, n_hi = int(window[0]), int(window[1])
    init = history[0]
    if n_hi > init.n_max:
        raise ValueError(f"window {window} exceeds n_max = {init.n_max}")
    if np.any(init.probs[n_lo : n_hi + 1] <= 0):
        raise ValueError(f"window {window} contains zero-probability entries")

    tail_mass = np.array([float(h.probs[n_lo : n_hi + 1].sum()) for h in history])
    if np.any(tail_mass <= 0):
        raise ValueError("tail mass vanished inside the fit window")
    k = np.arange(len(history), dtype=float)
    y = np.log(tail_mass)
    slope, intercept = np.polyfit(k, y, 1)
    fit = slope * k + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < r2_threshold:
        raise ValueError(
            f"tail decay is not geometric (R^2 = {r2:.4f} < {r2_threshold}); "
            "dual-thermal model does not apply"
        )
    a = float(np.exp(slope))
    if not 0 < a < 1:
        raise ValueError(f"fitted suppression factor {a} outside (0, 1)")

    n_pulses = len(history) - 1
    a_n = a**n_pulses
    residual = (history[-1].probs - a_n * init.probs) / (1.0 - a_n)
    residual = np.clip(residual, 0.0, None)
    total = float(residual.sum())
    if total <= 0:
        raise ValueError("residual component has no mass")
    residual /= total
    return SuppressionFit(
        a=a,
        fit_window=(n_lo, n_hi),
        residual=PhononDistribution(probs=residual, n_max=init.n_max),
        r_squared=r2,
    )
