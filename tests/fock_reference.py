"""The Fock-state coupling in closed form: the tests' independent reference
for drsc's sideband coupling ratios and chain Hamiltonian, itself checked
against 40-digit mpmath in test_motional.py."""

import math

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
