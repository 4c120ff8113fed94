"""The tests' shared references, each computed once here.

- fock_coupling: the Fock-state coupling in closed form, the independent
  reference for drsc's sideband coupling ratios and chain Hamiltonian,
  itself checked against mpmath_coupling (40 digits) in test_motional.py;
- ode_site_populations: one pulse by direct integration of the
  Schroedinger equation on couplings rebuilt from fock_coupling;
- apply_table and apply_pulse: populations after a pulse through drsc's
  band sum, the one-shot form of what the protocol and optimizer apply.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from drsc.chain_dynamics import _BandSum

_RESCALE = 1e250


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


def mpmath_coupling(n, n_prime, eta):
    """fock_coupling's closed form in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lo, hi = min(n, n_prime), max(n, n_prime)
        dn = hi - lo
        x = mpmath.mpf(eta) ** 2
        pref = mpmath.exp(-x / 2) * mpmath.mpf(eta) ** dn
        pref *= mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
        return float(pref * mpmath.laguerre(lo, dn, x))


def ode_site_populations(start_n, chain, eta, t):
    """Integrate the Schroedinger equation directly, couplings rebuilt
    from fock_coupling rather than the recurrence used by the package."""
    g = chain.couplings
    k_sites = min(len(g) + 1, start_n + 1)
    scale = fock_coupling(1, 0, eta)
    off = np.array(
        [
            0.5 * g[k] * fock_coupling(start_n - k, start_n - k - 1, eta) / scale
            for k in range(k_sites - 1)
        ]
    )
    h = np.zeros((k_sites, k_sites))
    for k in range(k_sites - 1):
        h[k, k + 1] = h[k + 1, k] = off[k]

    def rhs(_tau, psi):
        z = psi[:k_sites] + 1j * psi[k_sites:]
        dz = -1j * np.pi * (h @ z)
        return np.concatenate([dz.real, dz.imag])

    psi0 = np.zeros(2 * k_sites)
    psi0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), psi0, method="DOP853", rtol=1e-11, atol=1e-13)
    z = sol.y[:k_sites, -1] + 1j * sol.y[k_sites:, -1]
    return np.abs(z) ** 2


def apply_table(site_p, probs):
    """Populations after a pulse whose table is site_p[n, k] = P(n -> n - k),
    through a band sum of the table's shape."""
    return _BandSum(*site_p.shape)(site_p, probs)


def apply_pulse(evolver, t, probs):
    """Populations after one pulse of duration t."""
    return apply_table(evolver.site_probabilities(t), probs)
