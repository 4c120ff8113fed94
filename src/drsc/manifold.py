"""Zeeman-sublevel coupling chains and optical-pumping level structure.

Relative Raman couplings between adjacent m states are products of two
single-photon Clebsch-Gordan factors through a single intermediate level.
All angular-momentum algebra is done in exact rational arithmetic so that
selection-rule zeros are exact zeros, not small floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

# ground_F -> excited_F pairs are all integer here (nuclear spin 7 with J=0/1),
# so plain integer factorials suffice in the Racah sum.


def cg_signed_square(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> Fraction:
    """Signed square of a Clebsch-Gordan coefficient, exact.

    Returns sign(<j1 m1; j2 m2 | j m>) * <...>^2 as a Fraction.  Exact
    zero means the coupling is forbidden, not merely small.  Integer
    angular momenta only.
    """
    if m1 + m2 != m or abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return Fraction(0)
    if j < abs(j1 - j2) or j > j1 + j2:
        return Fraction(0)
    prefactor = (
        (2 * j + 1)
        * factorial(j + j1 - j2)
        * factorial(j - j1 + j2)
        * factorial(j1 + j2 - j)
        * factorial(j + m)
        * factorial(j - m)
        * factorial(j1 + m1)
        * factorial(j1 - m1)
        * factorial(j2 + m2)
        * factorial(j2 - m2)
    )
    k_lo = max(0, j2 - j - m1, j1 + m2 - j)
    k_hi = min(j1 + j2 - j, j1 - m1, j2 + m2)
    # the Racah series over one integer denominator: each term's factorials
    # divide the same factorials at their largest arguments over k, which
    # the triangle and |m| checks above keep non-negative
    common = (
        factorial(k_hi)
        * factorial(j1 + j2 - j - k_lo)
        * factorial(j1 - m1 - k_lo)
        * factorial(j2 + m2 - k_lo)
        * factorial(j - j2 + m1 + k_hi)
        * factorial(j - j1 - m2 + k_hi)
    )
    total = 0
    for k in range(k_lo, k_hi + 1):
        denom = (
            factorial(k)
            * factorial(j1 + j2 - j - k)
            * factorial(j1 - m1 - k)
            * factorial(j2 + m2 - k)
            * factorial(j - j2 + m1 + k)
            * factorial(j - j1 - m2 + k)
        )
        total += (-1) ** k * (common // denom)
    return Fraction(prefactor * total * abs(total), factorial(j1 + j2 + j + 1) * common * common)


@dataclass(frozen=True)
class ManifoldScheme:
    """Hyperfine scheme driven by a pi beam plus one sigma beam.

    f: total angular momentum of the ground manifold.
    f_excited: intermediate level for the two-photon transition.
    polarization_pair: 'pi_sigma_minus' walks m downward, 'pi_sigma_plus'
        walks m upward.
    start_m: Zeeman index the chain starts from.
    """

    f: int
    f_excited: int
    polarization_pair: str
    start_m: int

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"F must be >= 1, got {self.f}")
        if abs(self.start_m) > self.f:
            raise ValueError(f"|start_m| = {abs(self.start_m)} exceeds F = {self.f}")
        if self.f_excited not in (self.f - 1, self.f, self.f + 1):
            raise ValueError(
                f"F_excited = {self.f_excited} not dipole-coupled to F = {self.f}"
            )
        if self.polarization_pair not in ("pi_sigma_minus", "pi_sigma_plus"):
            raise ValueError(f"unknown polarization pair {self.polarization_pair!r}")

    @property
    def step_direction(self) -> int:
        return -1 if self.polarization_pair == "pi_sigma_minus" else +1

    @property
    def max_steps(self) -> int:
        """Bound on the chain's length, known without walking it: the walk
        moves m by step_direction per step and stops at the manifold edge."""
        return self.f - self.step_direction * self.start_m


@dataclass(frozen=True)
class ChainStep:
    m_from: int
    m_to: int
    g: float


@dataclass(frozen=True)
class CouplingChain:
    """Ordered relative couplings along one traversal of the manifold."""

    steps: tuple[ChainStep, ...]

    @property
    def couplings(self) -> np.ndarray:
        return np.array([s.g for s in self.steps], dtype=float)

    @property
    def bandwidth(self) -> int:
        # a pulse can move population at most len(steps) quanta down,
        # so the transfer matrix couples n to n - len(steps) .. n
        return len(self.steps) + 1


def _step_paths(
    scheme: ManifoldScheme, m_from: int, m_to: int
) -> list[tuple[Fraction, Fraction]]:
    """Exact squared CG factors for every two-photon path m_from -> m_to.

    The (absorb, emit) assignment of the two beam polarizations is summed
    over intermediate Zeeman indices allowed by both legs.  Absorbing a
    photon of polarization q shifts m by +q; stimulated emission into a
    beam of polarization q shifts m by -q.
    """
    f, fe = scheme.f, scheme.f_excited
    q_sigma = scheme.step_direction
    paths = []
    for q_abs, q_emit in ((0, q_sigma), (q_sigma, 0)):
        m_mid = m_from + q_abs
        if m_mid - q_emit != m_to or abs(m_mid) > fe:
            continue
        leg1 = cg_signed_square(f, m_from, 1, q_abs, fe, m_mid)
        leg2 = cg_signed_square(f, m_to, 1, q_emit, fe, m_mid)
        if leg1 != 0 and leg2 != 0:
            paths.append((leg1, leg2))
    return paths


def _step_amplitude(scheme: ManifoldScheme, m_from: int, m_to: int) -> float:
    amp = 0.0
    for leg1, leg2 in _step_paths(scheme, m_from, m_to):
        s1 = sqrt(abs(leg1)) * (1 if leg1 > 0 else -1)
        s2 = sqrt(abs(leg2)) * (1 if leg2 > 0 else -1)
        amp += s1 * s2
    return amp


@functools.lru_cache(maxsize=16)
def build_coupling_chain(scheme: ManifoldScheme) -> CouplingChain:
    """Walk the manifold from start_m, collecting relative couplings.

    The walk stops at the manifold edge or at the first exactly-forbidden
    step.  Couplings are magnitudes normalized to the first step.  The
    chain is immutable and cached per scheme, so the CLI's array-size
    check and the command it guards share one walk.
    """
    d = scheme.step_direction
    raw: list[ChainStep] = []
    m = scheme.start_m
    while abs(m + d) <= scheme.f:
        m_to = m + d
        if not _step_paths(scheme, m, m_to):
            break
        g = abs(_step_amplitude(scheme, m, m_to))
        raw.append(ChainStep(m, m_to, g))
        m = m_to
    if not raw:
        raise ValueError(
            f"no cooling chain from m={scheme.start_m}: first coupling vanishes"
        )
    scale = raw[0].g
    steps = tuple(ChainStep(s.m_from, s.m_to, s.g / scale) for s in raw)
    return CouplingChain(steps=steps)


def f7_scheme(start_m: int = 0) -> ManifoldScheme:
    return ManifoldScheme(f=7, f_excited=7, polarization_pair="pi_sigma_minus", start_m=start_m)


def f8_scheme(start_m: int = -8) -> ManifoldScheme:
    return ManifoldScheme(f=8, f_excited=7, polarization_pair="pi_sigma_plus", start_m=start_m)


def two_level_chain() -> CouplingChain:
    """Single-step chain, the conventional sideband-cooling baseline."""
    return CouplingChain(steps=(ChainStep(0, -1, 1.0),))


# ---------------------------------------------------------------------------
# spontaneous decay branching out of the F'=7 intermediate level
# ---------------------------------------------------------------------------

def decay_branching(m_excited: int, f_excited: int = 7) -> dict[tuple[int, int], Fraction]:
    """Branching probabilities for one spontaneous decay out of |F', m'>.

    The excited level has zero electronic angular momentum, so the decay
    populates the electronic J=1 states uniformly (1/3 per photon
    polarization) while the nuclear projection is a spectator; projecting
    the product state onto the hyperfine basis gives
    b(F, m) = (1/3) <1, m - m'; F', m' | F, m>^2.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for f_final in (f_excited - 1, f_excited, f_excited + 1):
        for q in (-1, 0, 1):
            m_final = m_excited + q
            if abs(m_final) > f_final:
                continue
            w = cg_signed_square(1, q, f_excited, m_excited, f_final, m_final)
            if w != 0:
                out[(f_final, m_final)] = out.get((f_final, m_final), Fraction(0)) + abs(w) / 3
    return out
