"""Config parsing: strict key checking, type validation, overrides, hashing."""

import json
import re
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsc.config import (
    DEFAULT_SCATTER_RATES,
    ENV_OUT_DIR,
    ENV_SEED,
    ConfigError,
    RunConfig,
    SchemeConfig,
)
from drsc.manifold import CouplingChain


class TestDefaults:
    def test_empty_config(self):
        cfg = RunConfig.from_dict({})
        assert cfg.trap.eta == 0.07
        assert cfg.initial_nbar == 6.08
        assert cfg.scheme.kind == "F7"
        assert cfg.strategy.kind == "global_opt"
        assert cfg.strategy.n_pulses == 10
        assert cfg.heating.enabled
        assert not cfg.rdp.enabled
        assert cfg.seed == 0
        assert cfg.out_dir == "out"
        assert cfg.pumping.scatter_rates == DEFAULT_SCATTER_RATES

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict([1, 2])


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "raw",
        [
            {"bogus": 1},
            {"trap": {"eta": 0.07, "omega": 1.0}},
            {"strategy": {"kind": "fixed", "anneal": True}},
            {"heating": {"enabled": True, "extra": 1}},
            {"rdp": {"enabled": True, "time": 0.5}},
            {"transfer_matrix": {"dt": 0.1}},
            {"table1": {"etas": [0.07]}},
            {"probe": {"taus": [0.1]}},
            {"pumping": {"lasers": []}},
            {"scheme": {"kind": "F7", "eta": 0.07}},
            {"timing": {"wait": 1.0}},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_dict(raw)


class TestTypeValidation:
    def test_negative_eta(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"trap": {"eta": -0.07}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"trap": {"eta": True}})

    def test_zero_pulses(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"strategy": {"n_pulses": 0}})

    def test_unknown_strategy_kind(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"strategy": {"kind": "genetic"}})

    def test_coverage_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"coverage": 1.0})

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"seed": -1})

    def test_negative_probe_times(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"probe": {"times": [0.1, -0.2]}})

    def test_unknown_table_scheme(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"table1": {"schemes": ["F9"]}})

    @pytest.mark.parametrize(
        "raw",
        [
            {"initial_nbar": float("inf")},
            {"initial_nbar": 10**400},
            {"trap": {"eta": float("nan")}},
            {"timing": {"pre_probe_delay_seconds": float("nan")}},
            {"heating": {"rates": {"trap": float("inf")}}},
            {"transfer_matrix": {"times": [0.2, float("nan")]}},
            {"probe": {"times": [float("inf")]}},
            {"table1": {"nbars": [float("nan")]}},
        ],
    )
    def test_non_finite_numbers(self, raw):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"trap": {"eta": None}},
            {"coverage": None},
            {"initial_nbar": None},
            {"probe_time": None},
            {"timing": {"t_f_seconds": None}},
            {"strategy": {"tail_target": None}},
            {"pumping": {"geometry": None}},
            {"heating": {"rates": {"trap": None}}},
            {"pumping": {"scatter_rates": {"raman": None}}},
            {"pumping": {"beams": [{"f_ground": 7, "weight": None}]}},
        ],
    )
    def test_null_where_default_is_a_value(self, raw):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "beam",
        [{"f_ground": 7, "weight": 0}, {"f_ground": 7, "polarization": "left"}, {"label": "x"}],
        ids=["zero-weight", "unknown-polarization", "no-f_ground"],
    )
    def test_invalid_beam(self, beam):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"pumping": {"beams": [beam]}})

    def test_null_where_default_is_none(self):
        cfg = RunConfig.from_dict({"strategy": {"fixed_time": None}, "rdp": {"t_clear": None}})
        assert cfg.strategy.fixed_time is None
        assert cfg.rdp.t_clear is None


class TestSchemes:
    @pytest.mark.parametrize("name,bandwidth", [("F7", 8), ("F8", 16), ("two_level", 2)])
    def test_shorthand(self, name, bandwidth):
        chain = SchemeConfig.parse(name).build()
        assert chain.bandwidth == bandwidth

    def test_dict_form_is_custom(self):
        cfg = SchemeConfig.parse(
            {"f": 7, "f_excited": 7, "polarization_pair": "pi_sigma_minus", "start_m": 0}
        )
        assert cfg.kind == "custom"
        chain = cfg.build()
        assert chain.bandwidth == 8
        assert chain.steps[0].m_from == 0

    def test_unbuildable_chain_is_config_error(self):
        cfg = SchemeConfig.parse(
            {"f": 7, "f_excited": 7, "polarization_pair": "pi_sigma_minus", "start_m": 1}
        )
        with pytest.raises(ConfigError):
            cfg.build()

    def test_unknown_shorthand(self):
        with pytest.raises(ConfigError):
            SchemeConfig.parse("F9")


class TestOverrides:
    def test_env_seed_and_out(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "42")
        monkeypatch.setenv(ENV_OUT_DIR, "/tmp/env_out")
        cfg = RunConfig.from_dict({}).with_overrides()
        assert cfg.seed == 42
        assert cfg.out_dir == "/tmp/env_out"

    def test_flags_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "42")
        monkeypatch.setenv(ENV_OUT_DIR, "/tmp/env_out")
        cfg = RunConfig.from_dict({}).with_overrides(seed=7, out_dir="/tmp/flag_out")
        assert cfg.seed == 7
        assert cfg.out_dir == "/tmp/flag_out"

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "not-a-number")
        with pytest.raises(ConfigError):
            RunConfig.from_dict({}).with_overrides()

    def test_heating_and_rdp_toggles(self):
        cfg = RunConfig.from_dict({}).with_overrides(heating_enabled=False, rdp_enabled=True)
        assert not cfg.heating.enabled
        assert cfg.rdp.enabled


class TestHashing:
    def test_hash_stable(self):
        a = RunConfig.from_dict({"trap": {"eta": 0.07}})
        b = RunConfig.from_dict({})
        assert a.config_hash() == b.config_hash()

    def test_hash_ignores_out_dir(self):
        a = RunConfig.from_dict({"out_dir": "x"})
        b = RunConfig.from_dict({"out_dir": "y"})
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_physics(self):
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({"trap": {"eta": 0.08}})
        assert a.config_hash() != b.config_hash()

    def test_resolved_is_json_serializable(self):
        json.dumps(RunConfig.from_dict({}).resolved())

    def test_empty_dict_is_field_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()

    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {
                "scheme": {"f": 7, "f_excited": 7, "polarization_pair": "pi_sigma_minus", "start_m": -2},
                "initial_nbar": 1.0,
                "strategy": {"kind": "fixed", "n_pulses": 3, "fixed_time": 0.2},
                "pumping": {
                    "beams": [
                        {"label": "D_pi", "f_ground": 7, "polarization": "pi"},
                        {"label": "D6", "f_ground": 6, "polarization": "sigma_pm", "weight": 2.0},
                        {"label": "D8", "f_ground": 8, "polarization": "sigma_pm"},
                    ]
                },
                "timing": {"pre_probe_delay_seconds": 0.001},
                "rdp": {"enabled": True},
            },
        ],
        ids=["default", "cool-custom-rdp"],
    )
    def test_resolved_form_parses_back(self, raw):
        # the hashed form and the field defaults are one schema
        cfg = RunConfig.from_dict(raw)
        resolved = json.loads(json.dumps(cfg.resolved()))
        del resolved["scheme"]
        assert replace(RunConfig.from_dict(resolved), scheme=cfg.scheme) == cfg


class TestFromFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_file(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_file(str(p))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"scheme": "F8", "seed": 3}))
        cfg = RunConfig.from_file(str(p))
        assert cfg.scheme.kind == "F8"
        assert cfg.seed == 3


# words the schema gives meaning to, so generated values reach past the type checks
_SCHEMA_WORDS = (
    "F7", "F8", "two_level", "custom", "fixed", "global_opt", "heuristic",
    "pi", "sigma_plus", "sigma_minus", "sigma_pm", "pi_sigma_minus", "pi_sigma_plus",
)
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-3, max_value=10),
        st.floats(),
        st.floats(min_value=0.0, max_value=2.0),
        st.text(max_size=6),
        st.sampled_from(_SCHEMA_WORDS),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def _shaped_like(default):
    """The default's own value, arbitrary JSON, or for a section, beam list
    or rate map an object or list holding values shaped the same way."""
    if is_dataclass(default):
        keys = {f.name: _shaped_like(getattr(default, f.name)) for f in fields(default)}
        shaped = st.fixed_dictionaries({}, optional=keys)
    elif isinstance(default, dict):
        shaped = st.fixed_dictionaries({}, optional=dict.fromkeys(default, _JSON))
    elif isinstance(default, tuple) and default and is_dataclass(default[0]):
        shaped = st.lists(_shaped_like(default[0]), max_size=3)
    else:
        shaped = st.just(list(default) if isinstance(default, tuple) else default)
    return st.one_of(shaped, _JSON)


class TestFromDictTotality:
    @given(raw=_shaped_like(RunConfig()))
    @settings(max_examples=100, deadline=None)
    def test_parses_or_raises_config_error(self, raw):
        # every JSON value ends as a usable config or a ConfigError (exit 2)
        try:
            cfg = RunConfig.from_dict(raw)
        except ConfigError:
            return
        try:
            assert isinstance(cfg.scheme.build(), CouplingChain)
        except ConfigError:
            pass
        assert re.fullmatch("[0-9a-f]{64}", cfg.config_hash())
