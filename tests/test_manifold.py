"""Coupling chains, branching ratios, and depump return probabilities.

Reference chain couplings were computed independently with sympy's exact
Clebsch-Gordan machinery (see the closed forms checked below) and frozen
here to 17 digits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from drsc import heating, manifold
from drsc.heating import Beam
from drsc.manifold import (
    ManifoldScheme,
    build_coupling_chain,
    cg_signed_square,
    decay_branching,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)

# relative couplings along the F=7 (pi, sigma-) chain m = 0 -> -7
F7_COUPLINGS = [
    1.0,
    1.9639610121239314,
    2.8347335475692042,
    3.5456210417116733,
    4.0089186286863658,
    4.0883108632154814,
    3.5,
]

# relative couplings along the F=8 (pi, sigma+) chain m = -8 -> +7
F8_COUPLINGS = [
    1.0,
    1.2780193008453876,
    1.4041604846550364,
    1.4422205101855957,
    1.4200938936093862,
    1.3540064007726601,
    1.2549900398011133,
    1.1313708498984760,
    0.98994949366116653,
    0.83666002653407555,
    0.67700320038633003,
    0.51639777949432225,
    0.36055512754639893,
    0.21602468994692867,
    0.091287092917527686,
]


class TestClebschGordan:
    def test_exact_rational_squares(self):
        # <1 0; 1 0 | 2 0>^2 = 2/3, <1 1; 1 -1 | 0 0>^2 = 1/3
        assert cg_signed_square(1, 0, 1, 0, 2, 0) == Fraction(2, 3)
        assert abs(cg_signed_square(1, 1, 1, -1, 0, 0)) == Fraction(1, 3)

    def test_selection_rules(self):
        assert cg_signed_square(7, 0, 1, 0, 7, 1) == 0
        assert cg_signed_square(7, 7, 1, 1, 7, 8) == 0

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.cg import CG

        rng = np.random.default_rng(11)
        for _ in range(40):
            j1 = int(rng.integers(1, 9))
            j2 = 1
            j = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
            m1 = int(rng.integers(-j1, j1 + 1))
            m2 = int(rng.integers(-j2, j2 + 1))
            m = m1 + m2
            if abs(m) > j:
                continue
            ref = float(CG(j1, m1, j2, m2, j, m).doit())
            val = cg_signed_square(j1, m1, j2, m2, j, m)
            assert float(val) == pytest.approx(math.copysign(ref**2, ref), abs=1e-14)

    def test_signed_square_sign_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.cg import CG

        ref = float(CG(7, 3, 1, 0, 7, 3).doit())
        val = cg_signed_square(7, 3, 1, 0, 7, 3)
        assert (val > 0) == (ref > 0)
        assert abs(val) == pytest.approx(ref**2, abs=1e-14)

    def test_every_call_of_the_chains_and_pumping_is_exact(self, monkeypatch):
        # the F7 and F8 chain walks, decay_branching (j1 = 1, j2 = 7) and the
        # pumping graph: each distinct call against sympy's exact square
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.cg import CG

        calls = {}

        def recorded(*args):
            calls[args] = cg_signed_square(*args)
            return calls[args]

        monkeypatch.setattr(manifold, "cg_signed_square", recorded)
        monkeypatch.setattr(heating, "cg_signed_square", recorded)
        for scheme in (f7_scheme(), f8_scheme()):
            build_coupling_chain.__wrapped__(scheme)
        heating.build_pumping_graph()
        assert any(args[:4:2] == (1, 7) for args in calls)
        assert len(calls) > 200
        for args, val in calls.items():
            amp = CG(*args).doit()
            ref = sympy.nsimplify(amp**2) * (-1 if amp < 0 else 1)
            assert val == Fraction(int(ref.p), int(ref.q)), args


class TestSchemes:
    def test_step_directions(self):
        assert f7_scheme().step_direction == -1
        assert f8_scheme().step_direction == +1

    def test_invalid_polarization_pair(self):
        with pytest.raises(ValueError):
            ManifoldScheme(f=7, f_excited=7, polarization_pair="sigma_sigma", start_m=0)

    def test_start_m_outside_manifold(self):
        with pytest.raises(ValueError):
            ManifoldScheme(f=7, f_excited=7, polarization_pair="pi_sigma_minus", start_m=8)

    def test_uncoupled_excited_level(self):
        with pytest.raises(ValueError):
            ManifoldScheme(f=7, f_excited=5, polarization_pair="pi_sigma_minus", start_m=0)


class TestCouplingChains:
    def test_f7_chain_values(self):
        chain = build_coupling_chain(f7_scheme())
        np.testing.assert_allclose(chain.couplings, F7_COUPLINGS, rtol=1e-14)

    def test_f7_chain_closed_form(self):
        # |g(m -> m-1)| ~ sqrt((7+m)(8-m)) * |m-1| for the F=7 scheme
        chain = build_coupling_chain(f7_scheme())
        ref = []
        for step in chain.steps:
            m = step.m_from
            ref.append(math.sqrt((7 + m) * (8 - m)) * abs(m - 1))
        ref = np.array(ref) / ref[0]
        np.testing.assert_allclose(chain.couplings, ref, rtol=1e-13)

    def test_f8_chain_values(self):
        chain = build_coupling_chain(f8_scheme())
        np.testing.assert_allclose(chain.couplings, F8_COUPLINGS, rtol=1e-14)

    def test_f8_chain_closed_form(self):
        # |g(m -> m+1)| ~ (7-m) sqrt((8-m)(9+m)) for the F=8 scheme
        chain = build_coupling_chain(f8_scheme())
        ref = []
        for step in chain.steps:
            m = step.m_from
            ref.append((7 - m) * math.sqrt((8 - m) * (9 + m)))
        ref = np.array(ref) / ref[0]
        np.testing.assert_allclose(chain.couplings, ref, rtol=1e-13)

    def test_f7_m_labels(self):
        chain = build_coupling_chain(f7_scheme())
        assert [s.m_from for s in chain.steps] == [0, -1, -2, -3, -4, -5, -6]
        assert chain.steps[-1].m_to == -7
        assert chain.bandwidth == 8

    def test_f8_m_labels(self):
        chain = build_coupling_chain(f8_scheme())
        assert chain.steps[0].m_from == -8
        assert chain.steps[-1].m_to == 7
        assert chain.bandwidth == 16

    def test_f7_step_into_zero_is_exactly_forbidden(self):
        # the m = 1 -> 0 coupling vanishes identically, not just numerically,
        # so a chain started at m = 1 has no first step
        with pytest.raises(ValueError, match="first coupling vanishes"):
            build_coupling_chain(f7_scheme(start_m=1))

    def test_f8_terminates_before_edge_zero(self):
        # m = 7 -> 8 has an exact zero, so the chain ends at m = 7
        assert build_coupling_chain(f8_scheme()).steps[-1].m_to == 7
        with pytest.raises(ValueError, match="first coupling vanishes"):
            build_coupling_chain(f8_scheme(start_m=7))

    def test_normalization_site(self):
        chain = build_coupling_chain(f7_scheme())
        assert chain.couplings[0] == 1.0

    def test_two_level_chain(self):
        chain = two_level_chain()
        assert chain.bandwidth == 2
        assert chain.couplings.tolist() == [1.0]


class TestDecayBranching:
    @pytest.mark.parametrize("m_exc", range(-7, 8))
    def test_total_probability_exact(self, m_exc):
        total = sum(decay_branching(m_exc).values(), Fraction(0))
        assert total == 1

    def test_f_resolved_average(self):
        # averaged over the 15 excited sublevels the decay populates the
        # three ground manifolds with weights 13/45, 1/3, 17/45
        acc = {6: Fraction(0), 7: Fraction(0), 8: Fraction(0)}
        for m_exc in range(-7, 8):
            for (f, _m), w in decay_branching(m_exc).items():
                acc[f] += w
        assert acc[6] / 15 == Fraction(13, 45)
        assert acc[7] / 15 == Fraction(1, 3)
        assert acc[8] / 15 == Fraction(17, 45)

    def test_stretched_state_reaches_only_allowed_m(self):
        branches = decay_branching(7)
        assert all(abs(m) <= f for (f, m) in branches)
        assert (6, 8) not in branches


def depump_return(level, q):
    """One excitation-decay cycle out of the ground level (F, m) with a
    polarization-q photon to F' = 7: the probability of landing back."""
    f, m = level
    branches = decay_branching(m + q)
    return branches.get((f, m), Fraction(0)) / sum(branches.values(), Fraction(0))


class TestDepump:
    def test_clock_state_sigma(self):
        assert depump_return((7, 0), +1) == Fraction(1, 6)
        assert depump_return((7, 0), -1) == Fraction(1, 6)

    def test_near_clock_pi(self):
        assert depump_return((7, -1), 0) == Fraction(1, 168)

    def test_stretched_sigma_plus(self):
        assert depump_return((7, -7), +1) == Fraction(1, 24)

    def test_forbidden_excitation(self):
        # pi excitation out of (7, 0) hits the vanishing <7,0;1,0|7,0>
        assert cg_signed_square(7, 0, 1, 0, 7, 0) == 0

    def test_unknown_polarization(self):
        with pytest.raises(ValueError):
            Beam("left", f_ground=7, polarization="left").components()
