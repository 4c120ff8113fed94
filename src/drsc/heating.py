"""Motional heating propagation and the optical-pumping scattering walk.

Heating is modeled as a diffusive nearest-neighbor random walk on the
phonon ladder with up/down rates A(n+1) and A*n: one unit generator
scaled by a dose (rate times duration, in quanta), so intervals compose
by adding doses.  Optical pumping is an absorbing Markov chain over the
45 ground-manifold Zeeman sublevels with |7,0> as the dark state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .manifold import cg_signed_square, decay_branching
from .motional import PhononDistribution

DEFAULT_CHANNEL_RATES = {
    "optical_pumping": 5.58,
    "raman": 2.078,
    "trap": 0.553,
}

# entries of exp(dose * G1) p below 0 by at most this much are rounding; lower is a fault
_NEGATIVE_TOLERANCE = 1e-12


@functools.lru_cache(maxsize=8)
def _unit_diffusion_eigensystem(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the unit-rate diffusive
    generator on n = 0..n_max: diagonal -(2n+1), off-diagonal n between
    n-1 and n.  The top row keeps its upward leak out of the ladder."""
    n = np.arange(n_max + 1, dtype=float)
    generator = np.diag(-(2.0 * n + 1.0))
    up = np.arange(n_max)
    generator[up, up + 1] = generator[up + 1, up] = n[1:]
    lam, vecs = np.linalg.eigh(generator)
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return lam, vecs


def propagate_heating(dist: PhononDistribution, dose: float) -> PhononDistribution:
    """Evolve a distribution under diffusive heating of `dose` quanta: the
    rate in quanta/s times the seconds it acts.

    Applies the exact propagator exp(dose * G1), with G1 the symmetric
    tridiagonal unit-rate generator, so one cached eigendecomposition per
    n_max serves every dose, and heating intervals driven by any rates
    compose by adding their doses.  A zero dose returns `dist` itself.
    Probability leaking past n_max shows up as tail loss.
    """
    if dose < 0:
        raise ValueError(f"heating dose must be >= 0, got {dose}")
    if dose == 0:
        return dist
    lam, vecs = _unit_diffusion_eigensystem(dist.n_max)
    p = vecs @ (np.exp(dose * lam) * (vecs.T @ dist.probs))
    # exp(dose * G1) is entrywise >= 0; only rounding may dip below zero
    lowest = float(p.min())
    if lowest < -_NEGATIVE_TOLERANCE:
        raise FloatingPointError(
            f"heating propagator gave a probability of {lowest:.3e} < -{_NEGATIVE_TOLERANCE:g}"
        )
    np.maximum(p, 0.0, out=p)
    if not p.sum() > 0:
        raise FloatingPointError(
            f"a heating dose of {dose:g} quanta left no population on "
            f"n = 0..{dist.n_max}: the tail loss went from {dist.tail_loss:.3g} to 1"
        )
    return PhononDistribution(probs=p, n_max=dist.n_max)


# ---------------------------------------------------------------------------
# optical pumping as an absorbing Markov chain
# ---------------------------------------------------------------------------

# the ground levels that the F' = 7 level decays to: the pumping walk's
# states are their sublevels, and a beam repumps one of them
GROUND_LEVELS = (6, 7, 8)


@dataclass(frozen=True)
class Beam:
    """One repump beam: drives ground level F = f_ground to the F'=7 level.

    polarization 'sigma_pm' splits the weight equally between sigma+ and
    sigma- components.
    """

    label: str
    f_ground: int
    polarization: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.f_ground not in GROUND_LEVELS:
            raise ValueError(
                f"f_ground must be one of {list(GROUND_LEVELS)}, got {self.f_ground}"
            )
        self.components()

    def components(self) -> list[tuple[int, float]]:
        if self.polarization == "pi":
            return [(0, self.weight)]
        if self.polarization == "sigma_plus":
            return [(+1, self.weight)]
        if self.polarization == "sigma_minus":
            return [(-1, self.weight)]
        if self.polarization == "sigma_pm":
            return [(+1, self.weight / 2), (-1, self.weight / 2)]
        raise ValueError(f"unknown polarization {self.polarization!r}")


def default_beams() -> tuple[Beam, ...]:
    return (
        Beam("D_pi", f_ground=7, polarization="pi"),
        Beam("D6", f_ground=6, polarization="sigma_pm"),
        Beam("D8", f_ground=8, polarization="sigma_pm"),
    )


@dataclass(frozen=True)
class PumpingGraph:
    """Scattering-event walk over the ground Zeeman sublevels."""

    states: tuple[tuple[int, int], ...]
    absorbing: tuple[int, int]
    beams: tuple[Beam, ...]
    step_matrix: np.ndarray

    def index(self, state: tuple[int, int]) -> int:
        return self.states.index(tuple(state))


def build_pumping_graph(beams: tuple[Beam, ...] | None = None) -> PumpingGraph:
    """One-scattering-event stochastic matrix over the 45 sublevels.

    Per event: an excitation channel is chosen among beam components with
    probability proportional to weight times the squared excitation CG,
    then the F' = 7 excited state decays with squared-CG branching over
    F in {6, 7, 8}.  The absorbing state |F=7, m=0> must be dark under the
    beams.
    """
    if beams is None:
        beams = default_beams()
    f_excited, absorbing = 7, (7, 0)
    states = tuple((f, m) for f in GROUND_LEVELS for m in range(-f, f + 1))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    # (target index, probability) of one decay from each excited m: exact
    # Fraction arithmetic, so made once per m and shared by its channels
    decays = {
        m_exc: [(index[s], float(b)) for s, b in decay_branching(m_exc, f_excited).items()]
        for m_exc in range(-f_excited, f_excited + 1)
    }

    matrix = np.zeros((n, n))
    for (f, m) in states:
        channels = []
        for beam in beams:
            if beam.f_ground != f:
                continue
            for q, w in beam.components():
                m_exc = m + q
                if abs(m_exc) > f_excited:
                    continue
                strength = abs(cg_signed_square(f, m, 1, q, f_excited, m_exc))
                if strength != 0:
                    channels.append((m_exc, w * float(strength)))
        total = sum(w for _, w in channels)
        if total == 0:
            continue
        row = index[(f, m)]
        for m_exc, w in channels:
            for col, b in decays[m_exc]:
                matrix[row, col] += (w / total) * b

    if matrix[index[absorbing]].sum() > 0:
        raise ValueError(
            f"beams drive the absorbing state {absorbing}; it must stay dark"
        )
    return PumpingGraph(states=states, absorbing=absorbing, beams=tuple(beams), step_matrix=matrix)


def _check_reachable(graph: PumpingGraph) -> None:
    # backward breadth-first search from the absorbing state
    n = len(graph.states)
    reach = {graph.index(graph.absorbing)}
    frontier = list(reach)
    incoming = [np.nonzero(graph.step_matrix[:, j] > 0)[0] for j in range(n)]
    while frontier:
        j = frontier.pop()
        for i in incoming[j]:
            if i not in reach:
                reach.add(int(i))
                frontier.append(int(i))
    stuck = [graph.states[i] for i in range(n) if i not in reach]
    if stuck:
        raise RuntimeError(
            f"absorption unreachable from {len(stuck)} states, e.g. {stuck[:3]}; "
            "check the beam set"
        )


def _transient_block(graph: PumpingGraph) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Indices of the transient states, the step matrix among them (Q) and
    each one's probability of entering the dark state in one step (r)."""
    idx_abs = graph.index(graph.absorbing)
    transient = [i for i in range(len(graph.states)) if i != idx_abs]
    q = graph.step_matrix[np.ix_(transient, transient)]
    return transient, q, graph.step_matrix[transient, idx_abs]


def steps_to_dark(graph: PumpingGraph) -> np.ndarray:
    """Expected scattering events before reaching the dark state, from
    each sublevel in graph.states order (the dark state counting 0)."""
    _check_reachable(graph)
    transient, q, _ = _transient_block(graph)
    try:
        x = np.linalg.solve(np.eye(len(transient)) - q, np.ones(len(transient)))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("absorption unreachable: singular fundamental matrix") from exc
    steps = np.zeros(len(graph.states))
    steps[transient] = x
    return steps


# scattering events the Monte Carlo advances per multinomial draw, and the
# events after which walkers still transient raise (a multiple of _BLOCK)
_BLOCK = 100
_MAX_STEPS = 100_000


def monte_carlo_steps(
    graph: PumpingGraph, n_trajectories: int, seed: int = 0
) -> tuple[float, float]:
    """Direct simulation of the scattering walk from a uniform start over
    the sublevels; returns (mean, stderr).

    Walkers that start dark count 0 events.  The rest are kept as counts
    over the transient sublevels and advanced _BLOCK = 100 events per
    multinomial draw.  Over one block a walker in transient state i is
    absorbed at its event s = 1..100 with probability (Q^(s-1) r)_i, or
    ends it in transient state j with probability (Q^100)_ij; Q is the
    step matrix among the transient states and r its column into the dark
    state.  Walkers are independent, so this is the exact law of 100
    single steps, and the estimator keeps its distribution.  Walkers left
    after 100000 events raise RuntimeError; n_trajectories < 1 raises
    ValueError.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    _check_reachable(graph)
    rng = np.random.default_rng(seed)
    transient, q, r = _transient_block(graph)
    # block law: column s-1 holds absorption at event s, then Q^_BLOCK
    law = np.empty((len(transient), _BLOCK + len(transient)))
    absorb = r
    for s in range(_BLOCK):
        law[:, s] = absorb
        absorb = q @ absorb
    law[:, _BLOCK:] = np.linalg.matrix_power(q, _BLOCK)

    base, extra = divmod(n_trajectories, len(graph.states))
    counts = np.full(len(graph.states), base, dtype=np.int64)
    counts[:extra] += 1
    absorbed_at = [int(counts[graph.index(graph.absorbing)])]  # step 0
    counts = counts[transient]
    for _ in range(_MAX_STEPS // _BLOCK):
        occupied = np.nonzero(counts)[0]
        if occupied.size == 0:
            break
        drawn = rng.multinomial(counts[occupied], law[occupied]).sum(axis=0)
        absorbed_at.extend(drawn[:_BLOCK].tolist())
        counts = drawn[_BLOCK:]
    if counts.any():
        raise RuntimeError(f"walkers not absorbed after {_MAX_STEPS} steps")

    k = np.arange(len(absorbed_at), dtype=float)
    w = np.array(absorbed_at, dtype=float)
    total = w.sum()
    mean = float(k @ w / total)
    var = float((k - mean) ** 2 @ w / total)
    stderr = math.sqrt(var / total)
    return mean, stderr


def recoil_heating_estimate(
    scatter_rate: float, mean_steps: float, eta: float, geometry: float = 1.0 / 3.0
) -> float:
    """Recoil heating rate: scatter_rate * mean_steps * eta^2 * geometry.

    The geometry factor absorbs emission-pattern and beam-angle averaging;
    the default 1/3 is a fitted projection factor.
    """
    if scatter_rate < 0 or mean_steps < 0 or eta < 0 or geometry < 0:
        raise ValueError("all inputs must be >= 0")
    return scatter_rate * mean_steps * eta**2 * geometry
