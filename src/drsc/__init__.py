"""Degenerate Raman sideband cooling: chains, pulses, heating, thermometry."""

__version__ = "0.1.0"

from .chain_dynamics import ChainEvolver
from .config import ConfigError, RunConfig
from .cooling import (
    PulseSequence,
    heuristic_sequence,
    optimize_fixed_pulse,
    optimize_fixed_pulses,
    optimize_global,
)
from .heating import build_pumping_graph, propagate_heating
from .manifold import CouplingChain, ManifoldScheme, build_coupling_chain, f7_scheme, f8_scheme
from .motional import PhononDistribution, TrapParams, fock_coupling, mean_n, thermal_state
from .thermometry import ProtocolReport, end_to_end_protocol, rdp_filter, sideband_probe

__all__ = [
    "__version__",
    "ChainEvolver",
    "ConfigError",
    "RunConfig",
    "PulseSequence",
    "heuristic_sequence",
    "optimize_fixed_pulse",
    "optimize_fixed_pulses",
    "optimize_global",
    "build_pumping_graph",
    "propagate_heating",
    "CouplingChain",
    "ManifoldScheme",
    "build_coupling_chain",
    "f7_scheme",
    "f8_scheme",
    "PhononDistribution",
    "TrapParams",
    "fock_coupling",
    "mean_n",
    "thermal_state",
    "ProtocolReport",
    "end_to_end_protocol",
    "rdp_filter",
    "sideband_probe",
]
