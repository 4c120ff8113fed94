"""Run configuration: one schema for parsing, defaults and hashing.

A run is described by one declarative JSON object, and the dataclasses
below are its schema.  A section's fields are its allowed keys, so
unknown keys are rejected everywhere and typos fail loudly.  An absent
key keeps the field's default.  A present value goes through the field's
check, kept in its metadata or, without one, chosen by the type of the
default; a dataclass default is a nested section.  `null` is accepted
only where the default is None.  Dataclasses from other modules
(`TrapParams`, `PulseTiming`, `Beam`) keep their own `__post_init__`
checks, and the `ValueError` they raise becomes a `ConfigError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .heating import DEFAULT_CHANNEL_RATES, GROUND_LEVELS, Beam, default_beams
from .manifold import (
    CouplingChain,
    ManifoldScheme,
    build_coupling_chain,
    f7_scheme,
    f8_scheme,
    two_level_chain,
)
from .motional import TrapParams
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


# A check takes a JSON value and its dotted path, and returns the parsed
# value or raises ConfigError.

def _number(positive=False, minimum=None, below=None, maximum=None):
    def check(value, where):
        if not _is_finite_number(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        if positive and not value > 0:
            raise ConfigError(f"{where} must be > 0, got {value}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        if below is not None and not value < below:
            raise ConfigError(f"{where} must be < {below}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{where} must be <= {maximum:g}, got {value}")
        return float(value)

    return check


# Pulse times are in reference pi-times, and a pulse's phases are pi t w.
# Over the asymptotic window the built-in chains' largest w is 28 at
# eta 0.07 and 200 at eta 0.01 (F7), so at this bound a phase stays below
# 6.3e8 rad, one ulp of which is 1.2e-7 rad.  From about 1e15 on, one ulp
# passes a radian, and cos and sin of the phase carry no information about
# the time (Goldberg, ACM Comput. Surv. 23, 5 (1991)).
_MAX_PULSE_TIME = 1e6
_pulse_time = _number(positive=True, maximum=_MAX_PULSE_TIME)


def _integer(minimum=None, maximum=None):
    def check(value, where):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{where} must be <= {maximum}, got {value}")
        return value

    return check


def _instance(kind: type, name: str):
    def check(value, where):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {name}, got {value!r}")
        return value

    return check


def _choice(*options):
    def check(value, where):
        if value not in options:
            raise ConfigError(f"{where} must be one of {list(options)}, got {value!r}")
        return value

    return check


def _list_of(item):
    def check(value, where):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))

    return check


def _rates(defaults: dict):
    """Check for a channel-rate map: known channels, each rate >= 0."""
    rate = _number(minimum=0.0)

    def check(value, where):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        _require_keys(value, set(defaults), where)
        return {**defaults, **{k: rate(v, f"{where}.{k}") for k, v in value.items()}}

    return check


def _beams(value, where: str) -> tuple[Beam, ...]:
    beams = []
    for i, entry in enumerate(_list_of(_instance(dict, "an object"))(value, where)):
        at = f"{where}[{i}]"
        if "f_ground" not in entry:
            raise ConfigError(f"{at}.f_ground must be given")
        template = Beam(label=f"beam{i}", f_ground=GROUND_LEVELS[0], polarization="pi")
        beams.append(_parse(template, entry, at))
    return tuple(beams)


# checks for fields without metadata, by the type of their default
_BY_TYPE = {
    bool: _instance(bool, "a boolean"),
    int: _integer(),
    float: _number(),
    str: _instance(str, "a string"),
}


def _checked(check, **kwargs):
    """A dataclass field whose present JSON values go through `check`."""
    return field(metadata={"check": check}, **kwargs)


def _parse(default, raw, where: str):
    """The dataclass `default` with the JSON object `raw` checked and applied."""
    label = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be an object")
    known = {f.name: f for f in fields(default)}
    _require_keys(raw, set(known), label)
    changes = {}
    for name, value in raw.items():
        current, at = getattr(default, name), f"{where}.{name}".lstrip(".")
        if value is None and current is None:
            changes[name] = None
        elif "check" in known[name].metadata:
            changes[name] = known[name].metadata["check"](value, at)
        elif is_dataclass(current):
            changes[name] = _parse(current, value, at)
        else:
            changes[name] = _BY_TYPE[type(current)](value, at)
    try:
        return replace(default, **changes)
    except ValueError as exc:
        raise ConfigError(f"invalid {label}: {exc}") from exc


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    f: int = _checked(_integer(minimum=1), default=7)
    f_excited: int = 7
    polarization_pair: str = "pi_sigma_minus"
    start_m: int = 0

    @classmethod
    def parse(cls, raw, where: str = "scheme") -> "SchemeConfig":
        """A shorthand name, or an object holding a custom chain's fields."""
        if isinstance(raw, str):
            if raw not in _SCHEME_SHORTHAND:
                raise ConfigError(
                    f"scheme shorthand must be one of {_SCHEME_SHORTHAND}, got {raw!r}"
                )
            return cls(kind=raw)
        if not isinstance(raw, dict):
            raise ConfigError(f"scheme must be a string or an object, got {raw!r}")
        _require_keys(raw, {f.name for f in fields(cls)} - {"kind"}, where)
        return _parse(cls(kind="custom"), raw, where)

    def _manifold(self) -> ManifoldScheme | None:
        """The validated scheme build() walks; None for the two-level chain."""
        try:
            if self.kind == "F7":
                return f7_scheme()
            if self.kind == "F8":
                return f8_scheme()
            if self.kind == "two_level":
                return None
            return ManifoldScheme(
                f=self.f,
                f_excited=self.f_excited,
                polarization_pair=self.polarization_pair,
                start_m=self.start_m,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid scheme: {exc}") from exc

    def build(self) -> CouplingChain:
        scheme = self._manifold()
        if scheme is None:
            return two_level_chain()
        try:
            return build_coupling_chain(scheme)
        except ValueError as exc:
            raise ConfigError(f"invalid scheme: {exc}") from exc

    def max_steps(self) -> int:
        """An upper bound on len(build().steps) that needs no walk, which
        takes over a minute at f 3000."""
        scheme = self._manifold()
        return 1 if scheme is None else scheme.max_steps

    def describe(self) -> dict:
        return asdict(self) if self.kind == "custom" else {"kind": self.kind}


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = _checked(_choice("fixed", "global_opt", "heuristic"), default="global_opt")
    n_pulses: int = _checked(_integer(minimum=1), default=10)
    fixed_time: float | None = _checked(_pulse_time, default=None)
    tail_target: float = _checked(_number(positive=True), default=0.01)
    n_final: int = _checked(_integer(minimum=0), default=5)


@dataclass(frozen=True)
class HeatingConfig:
    enabled: bool = True
    rates: dict = _checked(
        _rates(DEFAULT_CHANNEL_RATES), default_factory=lambda: dict(DEFAULT_CHANNEL_RATES)
    )


@dataclass(frozen=True)
class RdpConfig:
    enabled: bool = False
    t_clear: float | None = _checked(_pulse_time, default=None)


@dataclass(frozen=True)
class PumpingConfig:
    beams: tuple[Beam, ...] = _checked(_beams, default_factory=default_beams)
    scatter_rates: dict = _checked(
        _rates(DEFAULT_SCATTER_RATES), default_factory=lambda: dict(DEFAULT_SCATTER_RATES)
    )
    geometry: float = _checked(_number(minimum=0.0), default=1.0 / 3.0)
    # walker counts are int64
    monte_carlo_trajectories: int = _checked(_integer(minimum=0, maximum=2**63 - 1), default=0)


@dataclass(frozen=True)
class TransferMatrixConfig:
    times: tuple[float, ...] = _checked(
        _list_of(_number(minimum=0.0, maximum=_MAX_PULSE_TIME)), default=(0.2, 0.4, 0.6, 0.8)
    )
    n_max: int = _checked(_integer(minimum=0), default=49)


@dataclass(frozen=True)
class Table1Config:
    nbars: tuple[float, ...] = _checked(
        _list_of(_number(positive=True)), default=(10.0, 20.0, 30.0, 40.0)
    )
    schemes: tuple[str, ...] = _checked(_list_of(_choice("F7", "F8")), default=("F7", "F8"))


@dataclass(frozen=True)
class ProbeConfig:
    times: tuple[float, ...] = _checked(
        _list_of(_pulse_time),
        default=tuple(round(0.1 * k, 10) for k in range(1, 31)),
    )


@dataclass(frozen=True)
class RunConfig:
    scheme: SchemeConfig = _checked(
        SchemeConfig.parse, default_factory=lambda: SchemeConfig(kind="F7")
    )
    trap: TrapParams = field(default_factory=lambda: TrapParams(eta=0.07))
    initial_nbar: float = _checked(_number(minimum=0.0), default=6.08)
    coverage: float = _checked(_number(positive=True, below=1.0), default=0.9999)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    heating: HeatingConfig = field(default_factory=HeatingConfig)
    timing: PulseTiming = field(default_factory=PulseTiming)
    rdp: RdpConfig = field(default_factory=RdpConfig)
    probe_time: float = _checked(_pulse_time, default=DEFAULT_PROBE_TIME)
    transfer_matrix: TransferMatrixConfig = field(default_factory=TransferMatrixConfig)
    table1: Table1Config = field(default_factory=Table1Config)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    pumping: PumpingConfig = field(default_factory=PumpingConfig)
    seed: int = _checked(_integer(minimum=0), default=0)
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return _parse(cls(), raw, "")

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
        """Apply environment and command-line overrides, flags winning; each
        goes through the same checks as a config file's value."""
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
            changes["heating"] = {"enabled": heating_enabled}
        if rdp_enabled is not None:
            changes["rdp"] = {"enabled": rdp_enabled}
        return _parse(self, changes, "")

    def resolved(self) -> dict:
        """Canonical fully-resolved form, the basis of the config hash."""
        out = asdict(self)
        del out["out_dir"]
        out["scheme"] = self.scheme.describe()
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
