"""Fock-state couplings, thermal distributions, and Lamb-Dicke utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESCALE = 1e250


@dataclass(frozen=True)
class TrapParams:
    """Trap parameters.

    eta: Lamb-Dicke parameter along the cooled mode.
    """

    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")


@dataclass(frozen=True)
class PhononDistribution:
    """Phonon-number populations on n = 0..n_max.

    Truncation may lose tail mass; that loss is tracked, never silently
    renormalized away.
    """

    probs: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) != self.n_max + 1:
            raise ValueError(f"probs must have length n_max + 1 = {self.n_max + 1}")
        if np.any(p < -1e-12):
            raise ValueError("negative probability entry")
        if p.sum() > 1 + 1e-9:
            raise ValueError(f"total probability {p.sum()} exceeds 1")
        object.__setattr__(self, "probs", p)

    @property
    def tail_loss(self) -> float:
        return max(0.0, 1.0 - float(self.probs.sum()))


def default_n_max(nbar: float, coverage: float = 0.9999) -> int:
    """Smallest truncation keeping `coverage` of a thermal state, with floors."""
    if not 0 < coverage < 1:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    floor = max(50, math.ceil(10 * nbar))
    if nbar == 0:
        return floor
    r = nbar / (nbar + 1.0)
    if r == 1.0:
        raise ValueError(f"nbar {nbar} is too large for any finite truncation")
    # retained mass 1 - r^(n_max+1) >= coverage
    n_cov = math.ceil(math.log(1.0 - coverage) / math.log(r) - 1.0)
    return max(floor, n_cov)


def thermal_distribution(nbar: float, n_max: int) -> PhononDistribution:
    """p(n) = nbar^n / (nbar+1)^(n+1), evaluated in log space."""
    if nbar < 0 or n_max < 0:
        raise ValueError("nbar and n_max must be non-negative")
    if nbar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return PhononDistribution(probs=p, n_max=n_max)
    n = np.arange(n_max + 1)
    logp = n * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0)
    return PhononDistribution(probs=np.exp(logp), n_max=n_max)


def thermal_state(nbar: float, coverage: float = 0.9999) -> PhononDistribution:
    """Thermal distribution truncated by the default coverage rule."""
    return thermal_distribution(nbar, default_n_max(nbar, coverage))


def mean_n(dist: PhononDistribution) -> float:
    """Mean occupation over the retained mass."""
    total = float(dist.probs.sum())
    if total <= 0:
        raise ValueError("distribution has zero total mass")
    n = np.arange(dist.n_max + 1)
    return float(n @ dist.probs) / total


def fock_coupling(n: int, n_prime: int, eta: float) -> float:
    """Relative Rabi frequency between Fock states n and n'.

    exp(-eta^2/2) * sqrt(n_<! / n_>!) * eta^|dn| * L_{n_<}^{|dn|}(eta^2),
    with the Laguerre polynomial evaluated by a rescaled three-term
    recurrence and the factorial ratio in log space, stable to n = 1e4.
    """
    if n < 0 or n_prime < 0:
        raise ValueError(f"Fock indices must be >= 0, got ({n}, {n_prime})")
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    lo, hi = min(n, n_prime), max(n, n_prime)
    dn = hi - lo
    x = eta * eta
    log_pref = -0.5 * x + dn * math.log(eta) + 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))
    # L_k^dn(x) for k = 0..lo with overflow rescaling
    log_scale = 0.0
    prev, cur = 1.0, 1.0 + dn - x
    if lo == 0:
        cur = 1.0
    else:
        for k in range(2, lo + 1):
            prev, cur = cur, ((2 * k - 1 + dn - x) * cur - (k - 1 + dn) * prev) / k
            if abs(cur) > _RESCALE:
                prev /= _RESCALE
                cur /= _RESCALE
                log_scale += math.log(_RESCALE)
    if cur == 0.0:
        return 0.0
    sign = 1.0 if cur > 0 else -1.0
    return sign * math.exp(log_pref + log_scale + math.log(abs(cur)))


def sideband_coupling_ratios(n_max: int, eta: float) -> np.ndarray:
    """R[n] = coupling(n, n-1) / coupling(1, 0) for n = 0..n_max; R[0] = 0.

    Reduces to L^1_{n-1}(eta^2)/sqrt(n); one recurrence pass over n.  An
    eta whose ratios are not finite raises FloatingPointError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = eta * eta
    lag = np.empty(max(n_max, 1), dtype=float)
    lag[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n_max >= 2:
            lag[1] = 2.0 - x
            for k in range(2, n_max):
                lag[k] = ((2 * k - x) * lag[k - 1] - k * lag[k - 2]) / k
    if not np.isfinite(lag).all():
        raise FloatingPointError(f"sideband coupling ratios overflow at eta {eta}")
    out = np.zeros(n_max + 1)
    if n_max >= 1:
        out[1:] = lag[: n_max] / np.sqrt(np.arange(1, n_max + 1))
    return out
