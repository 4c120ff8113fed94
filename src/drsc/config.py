"""Run configuration: schema validation, defaults, and hashing.

A run is described by one declarative JSON file.  Unknown keys are
rejected everywhere so typos fail loudly instead of silently running
with defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

from .heating import DEFAULT_CHANNEL_RATES, Beam, default_beams
from .manifold import (
    CouplingChain,
    ManifoldScheme,
    build_coupling_chain,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)
from .thermometry import DEFAULT_PROBE_TIME, PulseTiming

ENV_OUT_DIR = "DRSC_OUT"
ENV_SEED = "DRSC_SEED"

_SCHEME_SHORTHAND = ("F7", "F8", "two_level")

DEFAULT_SCATTER_RATES = {"raman": 7.35, "optical_pumping": 41.0}


class ConfigError(ValueError):
    """Configuration rejected before any computation or file I/O."""


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _is_finite_number(value) -> bool:
    """True for an int or float that is finite as a float.

    Python's json reads NaN and Infinity, and integers too large for a
    float; none of them is a usable physical parameter.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(section: dict, key: str, default, where: str, minimum=None, positive=False):
    value = section.get(key, default)
    if value is None:
        return None
    if not _is_finite_number(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}.{key} must be > 0, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value}")
    return float(value)


def _integer(section: dict, key: str, default, where: str, minimum=None):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    f: int = 7
    f_excited: int = 7
    polarization_pair: str = "pi_sigma_minus"
    start_m: int = 0

    @classmethod
    def parse(cls, raw) -> "SchemeConfig":
        if isinstance(raw, str):
            if raw not in _SCHEME_SHORTHAND:
                raise ConfigError(
                    f"scheme shorthand must be one of {_SCHEME_SHORTHAND}, got {raw!r}"
                )
            return cls(kind=raw)
        if not isinstance(raw, dict):
            raise ConfigError(f"scheme must be a string or an object, got {raw!r}")
        _require_keys(raw, {"f", "f_excited", "polarization_pair", "start_m"}, "scheme")
        f = _integer(raw, "f", 7, "scheme", minimum=1)
        fe = _integer(raw, "f_excited", 7, "scheme")
        pol = raw.get("polarization_pair", "pi_sigma_minus")
        start_m = _integer(raw, "start_m", 0, "scheme")
        return cls(kind="custom", f=f, f_excited=fe, polarization_pair=pol, start_m=start_m)

    def build(self) -> tuple[CouplingChain, ManifoldScheme | None]:
        try:
            if self.kind == "F7":
                scheme = f7_scheme()
            elif self.kind == "F8":
                scheme = f8_scheme()
            elif self.kind == "two_level":
                return two_level_chain(), None
            else:
                scheme = ManifoldScheme(
                    f=self.f,
                    f_excited=self.f_excited,
                    polarization_pair=self.polarization_pair,
                    start_m=self.start_m,
                )
            return build_coupling_chain(scheme), scheme
        except ValueError as exc:
            raise ConfigError(f"invalid scheme: {exc}") from exc

    def describe(self) -> dict:
        return asdict(self) if self.kind == "custom" else {"kind": self.kind}


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "global_opt"
    n_pulses: int = 10
    fixed_time: float | None = None
    tail_target: float = 0.01
    n_final: int = 5
    final_nbar: float = 5.0

    @classmethod
    def parse(cls, raw: dict) -> "StrategyConfig":
        _require_keys(
            raw,
            {"kind", "n_pulses", "fixed_time", "tail_target", "n_final", "final_nbar"},
            "strategy",
        )
        kind = raw.get("kind", "global_opt")
        if kind not in ("fixed", "global_opt", "heuristic"):
            raise ConfigError(f"strategy.kind must be fixed/global_opt/heuristic, got {kind!r}")
        return cls(
            kind=kind,
            n_pulses=_integer(raw, "n_pulses", 10, "strategy", minimum=1),
            fixed_time=_number(raw, "fixed_time", None, "strategy", positive=True),
            tail_target=_number(raw, "tail_target", 0.01, "strategy", positive=True),
            n_final=_integer(raw, "n_final", 5, "strategy", minimum=0),
            final_nbar=_number(raw, "final_nbar", 5.0, "strategy", positive=True),
        )


@dataclass(frozen=True)
class HeatingConfig:
    enabled: bool = True
    rates: dict = field(default_factory=lambda: dict(DEFAULT_CHANNEL_RATES))

    @classmethod
    def parse(cls, raw: dict) -> "HeatingConfig":
        _require_keys(raw, {"enabled", "rates"}, "heating")
        enabled = raw.get("enabled", True)
        if not isinstance(enabled, bool):
            raise ConfigError(f"heating.enabled must be a boolean, got {enabled!r}")
        rates = dict(DEFAULT_CHANNEL_RATES)
        override = raw.get("rates", {})
        if not isinstance(override, dict):
            raise ConfigError("heating.rates must be an object")
        _require_keys(override, set(DEFAULT_CHANNEL_RATES), "heating.rates")
        for name in override:
            rates[name] = _number(override, name, None, "heating.rates", minimum=0.0)
        return cls(enabled=enabled, rates=rates)


@dataclass(frozen=True)
class RdpConfig:
    enabled: bool = False
    t_clear: float | None = None

    @classmethod
    def parse(cls, raw: dict) -> "RdpConfig":
        _require_keys(raw, {"enabled", "t_clear"}, "rdp")
        enabled = raw.get("enabled", False)
        if not isinstance(enabled, bool):
            raise ConfigError(f"rdp.enabled must be a boolean, got {enabled!r}")
        return cls(enabled=enabled, t_clear=_number(raw, "t_clear", None, "rdp", positive=True))


@dataclass(frozen=True)
class PumpingConfig:
    beams: tuple[Beam, ...] = field(default_factory=default_beams)
    scatter_rates: dict = field(default_factory=lambda: dict(DEFAULT_SCATTER_RATES))
    geometry: float = 1.0 / 3.0
    monte_carlo_trajectories: int = 0

    @classmethod
    def parse(cls, raw: dict) -> "PumpingConfig":
        _require_keys(
            raw, {"beams", "scatter_rates", "geometry", "monte_carlo_trajectories"}, "pumping"
        )
        beams = default_beams()
        if "beams" in raw:
            if not isinstance(raw["beams"], list) or not raw["beams"]:
                raise ConfigError("pumping.beams must be a non-empty list")
            parsed = []
            for i, b in enumerate(raw["beams"]):
                where = f"pumping.beams[{i}]"
                if not isinstance(b, dict):
                    raise ConfigError(f"{where} must be an object")
                _require_keys(b, {"label", "f_ground", "polarization", "weight"}, where)
                try:
                    beam = Beam(
                        label=str(b.get("label", f"beam{i}")),
                        f_ground=_integer(b, "f_ground", None, where),
                        polarization=b.get("polarization", "pi"),
                        weight=_number(b, "weight", 1.0, where, positive=True),
                    )
                    beam.components()
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"invalid {where}: {exc}") from exc
                parsed.append(beam)
            beams = tuple(parsed)
        rates = dict(DEFAULT_SCATTER_RATES)
        override = raw.get("scatter_rates", {})
        if not isinstance(override, dict):
            raise ConfigError("pumping.scatter_rates must be an object")
        _require_keys(override, set(DEFAULT_SCATTER_RATES), "pumping.scatter_rates")
        for name in override:
            rates[name] = _number(override, name, None, "pumping.scatter_rates", minimum=0.0)
        return cls(
            beams=beams,
            scatter_rates=rates,
            geometry=_number(raw, "geometry", 1.0 / 3.0, "pumping", minimum=0.0),
            monte_carlo_trajectories=_integer(raw, "monte_carlo_trajectories", 0, "pumping", minimum=0),
        )


@dataclass(frozen=True)
class TransferMatrixConfig:
    times: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    n_max: int = 49

    @classmethod
    def parse(cls, raw: dict) -> "TransferMatrixConfig":
        _require_keys(raw, {"times", "n_max"}, "transfer_matrix")
        times = raw.get("times", [0.2, 0.4, 0.6, 0.8])
        if not isinstance(times, list) or not times:
            raise ConfigError("transfer_matrix.times must be a non-empty list")
        parsed = []
        for i, t in enumerate(times):
            if not _is_finite_number(t) or t < 0:
                raise ConfigError(f"transfer_matrix.times[{i}] must be a finite number >= 0")
            parsed.append(float(t))
        return cls(
            times=tuple(parsed),
            n_max=_integer(raw, "n_max", 49, "transfer_matrix", minimum=0),
        )


@dataclass(frozen=True)
class Table1Config:
    nbars: tuple[float, ...] = (10.0, 20.0, 30.0, 40.0)
    schemes: tuple[str, ...] = ("F7", "F8")

    @classmethod
    def parse(cls, raw: dict) -> "Table1Config":
        _require_keys(raw, {"nbars", "schemes"}, "table1")
        nbars = raw.get("nbars", [10.0, 20.0, 30.0, 40.0])
        schemes = raw.get("schemes", ["F7", "F8"])
        if not isinstance(nbars, list) or not nbars:
            raise ConfigError("table1.nbars must be a non-empty list")
        for n in nbars:
            if not _is_finite_number(n) or n <= 0:
                raise ConfigError("table1.nbars entries must be finite positive numbers")
        if not isinstance(schemes, list) or not schemes:
            raise ConfigError("table1.schemes must be a non-empty list")
        for s in schemes:
            if s not in ("F7", "F8"):
                raise ConfigError(f"table1.schemes entries must be F7 or F8, got {s!r}")
        return cls(nbars=tuple(float(n) for n in nbars), schemes=tuple(schemes))


@dataclass(frozen=True)
class ProbeConfig:
    times: tuple[float, ...] = tuple(round(0.1 * k, 10) for k in range(1, 31))

    @classmethod
    def parse(cls, raw: dict) -> "ProbeConfig":
        _require_keys(raw, {"times"}, "probe")
        times = raw.get("times")
        if times is None:
            return cls()
        if not isinstance(times, list) or not times:
            raise ConfigError("probe.times must be a non-empty list")
        for t in times:
            if not _is_finite_number(t) or t <= 0:
                raise ConfigError("probe.times entries must be finite positive numbers")
        return cls(times=tuple(float(t) for t in times))


_TOP_LEVEL_KEYS = {
    "scheme",
    "trap",
    "initial_nbar",
    "coverage",
    "strategy",
    "heating",
    "timing",
    "rdp",
    "probe_time",
    "transfer_matrix",
    "table1",
    "probe",
    "pumping",
    "seed",
    "out_dir",
}


@dataclass(frozen=True)
class RunConfig:
    scheme: SchemeConfig = field(default_factory=lambda: SchemeConfig(kind="F7"))
    eta: float = 0.07
    initial_nbar: float = 6.08
    coverage: float = 0.9999
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    heating: HeatingConfig = field(default_factory=HeatingConfig)
    timing: PulseTiming = field(default_factory=PulseTiming)
    rdp: RdpConfig = field(default_factory=RdpConfig)
    probe_time: float = DEFAULT_PROBE_TIME
    transfer_matrix: TransferMatrixConfig = field(default_factory=TransferMatrixConfig)
    table1: Table1Config = field(default_factory=Table1Config)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    pumping: PumpingConfig = field(default_factory=PumpingConfig)
    seed: int = 0
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _require_keys(raw, _TOP_LEVEL_KEYS, "config")

        trap_raw = raw.get("trap", {})
        if not isinstance(trap_raw, dict):
            raise ConfigError("trap must be an object")
        _require_keys(trap_raw, {"eta"}, "trap")
        eta = _number(trap_raw, "eta", 0.07, "trap", positive=True)

        timing_raw = raw.get("timing", {})
        if not isinstance(timing_raw, dict):
            raise ConfigError("timing must be an object")
        _require_keys(
            timing_raw,
            {"t_f_seconds", "repump_seconds", "pre_probe_delay_seconds"},
            "timing",
        )
        try:
            timing = PulseTiming(
                t_f_seconds=_number(timing_raw, "t_f_seconds", 100e-6, "timing", positive=True),
                repump_seconds=_number(timing_raw, "repump_seconds", 15e-3, "timing", minimum=0.0),
                pre_probe_delay_seconds=_number(
                    timing_raw, "pre_probe_delay_seconds", 0.0, "timing", minimum=0.0
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid timing: {exc}") from exc

        for name in ("strategy", "heating", "rdp", "transfer_matrix", "table1", "probe", "pumping"):
            if name in raw and not isinstance(raw[name], dict):
                raise ConfigError(f"{name} must be an object")

        coverage = _number(raw, "coverage", 0.9999, "config", positive=True)
        if not coverage < 1:
            raise ConfigError(f"coverage must be < 1, got {coverage}")

        return cls(
            scheme=SchemeConfig.parse(raw.get("scheme", "F7")),
            eta=eta,
            initial_nbar=_number(raw, "initial_nbar", 6.08, "config", minimum=0.0),
            coverage=coverage,
            strategy=StrategyConfig.parse(raw.get("strategy", {})),
            heating=HeatingConfig.parse(raw.get("heating", {})),
            timing=timing,
            rdp=RdpConfig.parse(raw.get("rdp", {})),
            probe_time=_number(raw, "probe_time", DEFAULT_PROBE_TIME, "config", positive=True),
            transfer_matrix=TransferMatrixConfig.parse(raw.get("transfer_matrix", {})),
            table1=Table1Config.parse(raw.get("table1", {})),
            probe=ProbeConfig.parse(raw.get("probe", {})),
            pumping=PumpingConfig.parse(raw.get("pumping", {})),
            seed=_integer(raw, "seed", 0, "config", minimum=0),
            out_dir=str(raw.get("out_dir", "out")),
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def with_overrides(
        self,
        seed: int | None = None,
        out_dir: str | None = None,
        heating_enabled: bool | None = None,
        rdp_enabled: bool | None = None,
    ) -> "RunConfig":
        """Apply environment and command-line overrides, flags winning."""
        changes: dict = {}
        env_seed = os.environ.get(ENV_SEED)
        if env_seed is not None:
            try:
                changes["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from exc
        if ENV_OUT_DIR in os.environ:
            changes["out_dir"] = os.environ[ENV_OUT_DIR]
        if seed is not None:
            changes["seed"] = seed
        if out_dir is not None:
            changes["out_dir"] = out_dir
        if heating_enabled is not None:
            changes["heating"] = replace(self.heating, enabled=heating_enabled)
        if rdp_enabled is not None:
            changes["rdp"] = replace(self.rdp, enabled=rdp_enabled)
        return replace(self, **changes)

    def resolved(self) -> dict:
        """Canonical fully-resolved form, the basis of the config hash."""
        out = asdict(self)
        del out["out_dir"]
        out["scheme"] = self.scheme.describe()
        out["trap"] = {"eta": out.pop("eta")}
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
