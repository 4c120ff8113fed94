"""Sideband-ratio thermometry, the dark-preparation filter, and the
end-to-end cooling protocol driver.

The sideband ratio infers a mean occupation that equals the true mean
only for thermal states; both numbers are tracked so the difference
stays visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain_dynamics import _BandSum, _PulseTables, cached_evolver
from .cooling import PulseSequence, optimize_global
from .heating import DEFAULT_CHANNEL_RATES, propagate_heating
from .manifold import CouplingChain
from .motional import (
    PhononDistribution,
    TrapParams,
    mean_n,
    sideband_coupling_ratios,
    thermal_state,
)

DEFAULT_PROBE_TIME = 1.0


@functools.lru_cache(maxsize=8)
def _probe_ratios(n_max: int, eta: float) -> np.ndarray:
    """Read-only R[n] for n = 0..n_max + 1, shared by every probe of that size."""
    ratios = sideband_coupling_ratios(n_max + 1, eta)
    ratios.setflags(write=False)
    return ratios


@functools.lru_cache(maxsize=8)
def _probe_weights(n_max: int, eta: float, probe_time: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin^2(pi t R(n) / 2) for n = 0..n_max and the same with
    R(n + 1): the red and blue excitation of each Fock state, shared by
    every probe of that size and time.  Phases that are not finite raise
    FloatingPointError."""
    ratios = _probe_ratios(n_max, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * np.pi * probe_time * ratios
    if not np.isfinite(phase).all():
        raise FloatingPointError(f"sideband probe phase overflows at probe_time {probe_time}")
    red, blue = np.sin(phase[: n_max + 1]) ** 2, np.sin(phase[1:]) ** 2
    red.setflags(write=False)
    blue.setflags(write=False)
    return red, blue


@dataclass(frozen=True)
class SidebandProbeResult:
    """Red/blue sideband excitation at one probe time.

    nbar_sb is the occupation inferred from the ratio; it matches the true
    mean only for thermal states.
    """

    p_red: float
    p_blue: float
    probe_time: float
    nbar_sb: float

    def __post_init__(self) -> None:
        eps = 1e-9
        if not (-eps <= self.p_red <= 1 + eps and -eps <= self.p_blue <= 1 + eps):
            raise ValueError("sideband excitations must lie in [0, 1]")


def sideband_probe(
    dist: PhononDistribution, trap: TrapParams, probe_time: float = DEFAULT_PROBE_TIME
) -> SidebandProbeResult:
    """Probe both first sidebands for `probe_time` (units of the n=1->0 pi-time).

    P_red = sum_n p(n) sin^2(pi t R(n) / 2) and P_blue the same with
    R(n+1), where R(n) is the red-sideband coupling ratio.  The inferred
    occupation is R/(1-R) with R = P_red/P_blue.  A probe time whose
    phases or excitations are not finite raises FloatingPointError.
    """
    if probe_time <= 0:
        raise ValueError(f"probe_time must be > 0, got {probe_time}")
    red_amp, blue_amp = _probe_weights(dist.n_max, trap.eta, probe_time)
    p_red = float(dist.probs @ red_amp)
    p_blue = float(dist.probs @ blue_amp)
    if not (math.isfinite(p_red) and math.isfinite(p_blue)):
        raise FloatingPointError("sideband excitations are not finite")
    if p_blue == 0:
        raise ValueError("blue sideband signal vanishes; cannot form the ratio")
    ratio = p_red / p_blue
    nbar_sb = math.inf if ratio >= 1 else ratio / (1.0 - ratio)
    return SidebandProbeResult(
        p_red=p_red, p_blue=p_blue, probe_time=float(probe_time), nbar_sb=nbar_sb
    )


def rdp_filter(
    dist: PhononDistribution, chain: CouplingChain, trap: TrapParams, t_clear: float
) -> tuple[PhononDistribution, float]:
    """Conditional dark preparation: one clearing pulse, keep what stayed put.

    Population that responded to the pulse left the start sublevel and is
    discarded; what remains is renormalized.  n = 0 is dark to the pulse
    and survives with probability 1.  If nothing survives there is nothing
    to renormalize, and FloatingPointError is raised.
    """
    if t_clear <= 0:
        raise ValueError(f"t_clear must be > 0, got {t_clear}")
    evolver = cached_evolver(chain, trap, dist.n_max)
    retention = evolver.site_probabilities(t_clear)[:, 0]
    kept = dist.probs * retention
    success = float(kept.sum())
    if success <= 0:
        raise FloatingPointError("clearing pulse removed all population")
    conditioned = PhononDistribution(probs=kept / success, n_max=dist.n_max)
    return conditioned, success


@functools.lru_cache(maxsize=8)
def default_t_clear(chain: CouplingChain, trap: TrapParams) -> float:
    """Clearing-pulse duration: the single-pulse optimum for a warm remnant."""
    seq = optimize_global(chain, trap, thermal_state(1.0), 1)
    return seq.times[0]


@dataclass(frozen=True)
class PulseTiming:
    """Wall-clock durations for converting pulse units into heating time.

    t_f_seconds: the reference pi-time in seconds.
    repump_seconds: optical-pumping interval after each Raman pulse.
    pre_probe_delay_seconds: idle time before the probe.
    """

    t_f_seconds: float = 100e-6
    repump_seconds: float = 15e-3
    pre_probe_delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.t_f_seconds <= 0:
            raise ValueError("t_f_seconds must be > 0")
        if self.repump_seconds < 0 or self.pre_probe_delay_seconds < 0:
            raise ValueError("durations must be >= 0")


@dataclass(frozen=True)
class ProtocolReport:
    """Per-pulse histories of one protocol run.

    history[k] is the distribution after k cycles (history[0] the initial
    state), so nbar_history[k] is its mean.  One more state is appended
    when a pre-probe delay heats or dark preparation conditions the last
    cycle's state, so history[-1] is always the state the probe reads.
    """

    nbar_history: tuple[float, ...]
    nbar_sb_history: tuple[float, ...]
    history: tuple[PhononDistribution, ...]
    success_probability: float
    t_clear: float | None


def end_to_end_protocol(
    chain: CouplingChain,
    trap: TrapParams,
    sequence: PulseSequence,
    init: PhononDistribution,
    heating_rates: dict | None = None,
    timing: PulseTiming | None = None,
    probe_time: float = DEFAULT_PROBE_TIME,
    rdp: bool = False,
    t_clear: float | None = None,
) -> ProtocolReport:
    """Run the full cooling protocol and record n-bar both ways per pulse.

    heating_rates maps channel names to quanta/s; None is all-zero rates.
    Each cycle is one Raman pulse (raman + trap channels heat for the
    pulse duration) followed by a repump interval (optical_pumping + trap
    channels); all channels scale one heating generator, so the cycle
    heats by one summed dose, and a pre-probe delay by one trap dose.
    Index k of the histories is the state after k cycles; the optional
    dark-preparation filter is applied after the last cycle and any
    pre-probe delay, and their result is appended as one more entry.
    One kernel call forms the tables of every distinct pulse time, in
    order of first use; with one distinct time it is the one-time table of
    site_probabilities bit for bit, and with several each table may differ
    from the one-time one by rounding.
    """
    if timing is None:
        timing = PulseTiming()
    if heating_rates is None:
        heating_rates = dict.fromkeys(DEFAULT_CHANNEL_RATES, 0.0)
    rates = dict(DEFAULT_CHANNEL_RATES, **heating_rates)
    pulse_rate = rates["raman"] + rates["trap"]
    repump_dose = (rates["optical_pumping"] + rates["trap"]) * timing.repump_seconds

    evolver = cached_evolver(chain, trap, init.n_max)
    distinct = list(dict.fromkeys(sequence.times))
    tables, _ = _PulseTables(evolver, len(distinct), derivative=False)(np.array(distinct))
    cycles = {
        t: (table, pulse_rate * (t * timing.t_f_seconds) + repump_dose)
        for t, table in zip(distinct, tables)
    }
    band_sum = _BandSum(*evolver.C.shape[:2])
    state = init
    snapshots = [state]
    for t in sequence.times:
        table, dose = cycles[t]
        pulsed = PhononDistribution(probs=band_sum(table, state.probs), n_max=state.n_max)
        state = propagate_heating(pulsed, dose)
        snapshots.append(state)
    state = propagate_heating(state, rates["trap"] * timing.pre_probe_delay_seconds)

    success = 1.0
    used_t_clear = None
    if rdp:
        used_t_clear = default_t_clear(chain, trap) if t_clear is None else t_clear
        state, success = rdp_filter(state, chain, trap, used_t_clear)
    # the delayed or conditioned state, when either ran, is what the probe reads
    if state is not snapshots[-1]:
        snapshots.append(state)

    return ProtocolReport(
        nbar_history=tuple(mean_n(s) for s in snapshots),
        nbar_sb_history=tuple(sideband_probe(s, trap, probe_time).nbar_sb for s in snapshots),
        history=tuple(snapshots),
        success_probability=success,
        t_clear=used_t_clear,
    )
