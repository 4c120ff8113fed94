"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

import hashlib
import json
import os

import pytest

from drsc.chain_dynamics import cached_evolver
from drsc.cli import cmd_cool, cmd_table1, main
from drsc.config import RunConfig


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_meta_lines(path):
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].partition(": ")
            meta[key] = value.strip()
    return meta


@pytest.fixture
def fast_cool_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "scheme": "F7",
            "initial_nbar": 1.0,
            "strategy": {"kind": "fixed", "n_pulses": 3, "fixed_time": 0.2},
        },
    )


class TestProbe:
    def test_writes_csv_with_metadata(self, tmp_path, fast_cool_config):
        out = tmp_path / "out"
        assert main(["probe", "--config", fast_cool_config, "--out", str(out)]) == 0
        meta = read_meta_lines(out / "probe.csv")
        assert len(meta["config_sha256"]) == 64
        assert meta["artifact_version"] == "0.1.0"
        assert "thermal_ratio" in meta

    def test_byte_identical_across_runs(self, tmp_path, fast_cool_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["probe", "--config", fast_cool_config, "--out", str(a)])
        main(["probe", "--config", fast_cool_config, "--out", str(b)])
        assert (a / "probe.csv").read_bytes() == (b / "probe.csv").read_bytes()


class TestTransferMatrix:
    def test_zero_time_is_identity(self, tmp_path):
        cfg = write_config(
            tmp_path, {"transfer_matrix": {"times": [0.0], "n_max": 4}}
        )
        out = tmp_path / "out"
        assert main(["transfer-matrix", "--config", cfg, "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "transfer_matrix_00.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        for i, row in enumerate(rows):
            assert [float(v) for v in row] == [float(i == j) for j in range(5)]

    def test_banded_json_and_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path, {"transfer_matrix": {"times": [0.3, 0.6], "n_max": 20}}
        )
        out = tmp_path / "out"
        assert main(["transfer-matrix", "--config", cfg, "--out", str(out)]) == 0
        banded = json.loads((out / "transfer_matrix_01.json").read_text())
        assert banded["n_max"] == 20
        assert len(banded["bands"]) == banded["bandwidth"] == 8
        manifest = json.loads((out / "transfer_matrix_manifest.json").read_text())
        assert len(manifest["matrices"]) == 2


class TestCool:
    def test_history_and_snapshots(self, tmp_path, fast_cool_config):
        out = tmp_path / "out"
        assert main(["cool", "--config", fast_cool_config, "--out", str(out)]) == 0
        lines = [
            line
            for line in (out / "cool_history.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "pulse,nbar,nbar_sb,success_probability"
        assert len(lines) == 1 + 4  # header + initial + 3 pulses
        seq = json.loads((out / "cool_sequence.json").read_text())
        assert seq["strategy"] == "fixed"
        assert seq["times"] == [0.2, 0.2, 0.2]

    def test_no_heating_flag(self, tmp_path, fast_cool_config):
        out = tmp_path / "out"
        main(["cool", "--config", fast_cool_config, "--out", str(out), "--no-heating"])
        meta = read_meta_lines(out / "cool_history.csv")
        assert meta["heating_on"] == "False"

    def test_rdp_flag_appends_row(self, tmp_path, fast_cool_config):
        out = tmp_path / "out"
        main(["cool", "--config", fast_cool_config, "--out", str(out), "--rdp"])
        lines = [
            line
            for line in (out / "cool_history.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 1 + 5  # header + initial + 3 pulses + conditioned
        last = lines[-1].split(",")
        assert float(last[-1]) < 1.0  # dark preparation postselects


# Artifacts pinned byte for byte: (id, argv, config payload or None, sha256 per file)
DIGEST_CASES = [
    (
        "cool-no-heating",
        ["cool", "--no-heating"],
        None,
        {
            "cool_history.csv": "c5eb4c1aae17cfc77ba6223bb837079a2306d6c52f9f3e2a1d3b31c3405cbc45",
            "cool_sequence.json": "2c99d83e104a821aa91fdd1f5ebde83b61eed4c44ad9704c7d248f8727330ea5",
            "cool_snapshots.csv": "39ac541785cb088031dfcb3dbcafc2de0197a342407e19e8665cd94d3f8f94db",
            "cool_suppression_fit.json": "2db8dd38cf6cbb7cfcf8b414993772a463d4b590c9c8d9055d831ee76399b4f4",
        },
    ),
    (
        "cool",
        ["cool"],
        None,
        {
            "cool_history.csv": "7a7c374f049ba6a55b30882734e66586a1dc579dc5b357132579ca0878f07ecb",
            "cool_sequence.json": "ea3ec25addbee20ac19c36606f5234d20c5a54be191b1c35dd39dac01c38c12b",
            "cool_snapshots.csv": "72c98c17e88ba162ed927b818fe0cc774e7a4b57db192e21b2c3248d354f9c9d",
            "cool_suppression_fit.json": "7b7dca8326ccd8a2d46cb8086aed17eb8b04de4912125c90b1fb4b797f4d5db9",
        },
    ),
    (
        # custom scheme, fixed strategy, dark preparation, pre-probe delay, weighted beams
        "cool-custom-rdp",
        ["cool", "--rdp"],
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
        },
        {
            "cool_history.csv": "e4b3eaa4c6ec6ac8c698909e1e639d6c0598a4f0f6bd6f3054fc785cd6bebf53",
            "cool_sequence.json": "d698890da6d89a6aa3f14e104f641c9de0724e0af91549f8daead0a1e654e9df",
            "cool_snapshots.csv": "1e5a23be8b3a45eeaae847baf09e3a4d9c118b26846ce27f375b78c72b83f13f",
            "cool_suppression_fit.json": "73607695f31c793145433b42230a9db1d875234e7571fbcd1b1e322be66b9ce2",
        },
    ),
    (
        # F7's bandwidth 8 exceeds n_max + 1 = 5, so the top bands are empty
        "transfer-matrix-f7",
        ["transfer-matrix"],
        {"transfer_matrix": {"times": [0.0, 0.3], "n_max": 4}},
        {
            "transfer_matrix_00.csv": "42531de38d4d8e3d9f634ae3dbf31427caaf31d7c1b3fce4bd71d143a0979ab7",
            "transfer_matrix_00.json": "1c4cb86129ed92a72bd75f5ce18edeea244517f7f54ab200b02d50f012f5ef61",
            "transfer_matrix_01.csv": "609efbce07e369b4eb6195aaca11e3a1a5d3d35d4f667d58a9b4080f021da828",
            "transfer_matrix_01.json": "8f7de731e282595405d0142f632d40ce9930e3aa31215e9d6722cf8031401028",
            "transfer_matrix_manifest.json": "e6809421052928d1263df47e92c88951c45337834e6ae822977df251af96dfc0",
        },
    ),
    (
        "transfer-matrix-f8",
        ["transfer-matrix"],
        {"scheme": "F8", "transfer_matrix": {"times": [0.5], "n_max": 20}},
        {
            "transfer_matrix_00.csv": "ae0a22882ceba092abf7832c3c413813fbfa710032d89a37648453d09ef53ff6",
            "transfer_matrix_00.json": "1ce0218ead03803cc7f95ce5bf9a91b96f8b8e75882313bd3cdd65bd1c0b9b82",
            "transfer_matrix_manifest.json": "ae56c55a34d3ce8b111e7aadf790d2b35627e00eeaa5418d4618b579b9f84402",
        },
    ),
    (
        "probe",
        ["probe"],
        None,
        {"probe.csv": "880b0b7898c4d4ba6bf181e42b51d08d9fc16adead4a6c686fe06afff74f241f"},
    ),
    (
        "table1-f7",
        ["table1"],
        {"table1": {"schemes": ["F7"], "nbars": [10.0]}},
        {"table1.csv": "ca3b70c8a8f2ccce651b1bfe2ba8d069362c481702cfd53d877c443b10bd5199"},
    ),
    (
        "pumping",
        ["pumping", "--seed", "3"],
        {"pumping": {"monte_carlo_trajectories": 2000}},
        {
            "pumping_steps.csv": "b891c227ce858ef00ae7e3db2ccaf2a474b5abd0a859b47a5ccf09f885b15438",
            "pumping_summary.json": "dd3f959c6dbb9257a10a67d638f99c9c5a7063e1ee2a61765da963def466a5b7",
        },
    ),
    (
        "optimize",
        ["optimize"],
        {"strategy": {"n_pulses": 2}},
        {
            "optimize_sequence.json": "c6cdf88c21ee9b5a234694b45232de2723ad51d241421567afdce46d4a89442d",
            "optimize_trace.csv": "2cad38ddaf1cf956e7d0a5e9898d756a0487b3da3aa8ead1b3cd26ba2fb11a0e",
        },
    ),
]


class TestDigests:
    @pytest.mark.parametrize(
        "argv, payload, expected",
        [case[1:] for case in DIGEST_CASES],
        ids=[case[0] for case in DIGEST_CASES],
    )
    def test_artifact_digests(self, tmp_path, monkeypatch, argv, payload, expected):
        monkeypatch.delenv("DRSC_SEED", raising=False)
        out = tmp_path / "out"
        config = [] if payload is None else ["--config", write_config(tmp_path, payload)]
        assert main(argv[:1] + config + argv[1:] + ["--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }
        assert digests == expected


class TestEvolverCache:
    def test_table1_builds_one_evolver_per_scheme(self):
        # n_max does not depend on nbar, so each scheme's cells share one
        # grid scan and look their evolver up once
        cached_evolver.cache_clear()
        cmd_table1(RunConfig.from_dict({"table1": {"nbars": [10.0, 20.0]}}))
        info = cached_evolver.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    def test_fixed_rdp_cool_builds_one_evolver(self):
        # optimize_fixed_pulse, end_to_end_protocol and rdp_filter share it
        cached_evolver.cache_clear()
        cmd_cool(
            RunConfig.from_dict(
                {
                    "strategy": {"kind": "fixed", "n_pulses": 3},
                    "rdp": {"enabled": True, "t_clear": 0.5},
                }
            )
        )
        info = cached_evolver.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestTable1:
    def test_single_cell_matches_reference(self, tmp_path):
        cfg = write_config(
            tmp_path, {"table1": {"schemes": ["F7"], "nbars": [10.0]}}
        )
        out = tmp_path / "out"
        assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "table1.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0][:4] == ["scheme", "nbar_initial", "t_opt", "a_opt"]
        scheme, _nbar, t_opt, a_opt = rows[1][:4]
        assert scheme == "F7"
        assert abs(float(t_opt) - 0.173) <= 0.01
        assert abs(float(a_opt) - 0.633) <= 0.03


class TestPumping:
    def test_steps_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"pumping": {"monte_carlo_trajectories": 2000}})
        out = tmp_path / "out"
        assert main(["pumping", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        lines = [
            line
            for line in (out / "pumping_steps.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 1 + 45
        summary = json.loads((out / "pumping_summary.json").read_text())
        assert summary["uniform_mean_steps"] == pytest.approx(69.27, abs=0.01)
        assert summary["mean_steps_from_7_plus1"] == pytest.approx(41.46, abs=0.01)
        assert summary["monte_carlo"]["n_trajectories"] == 2000
        assert set(summary["recoil_heating_quanta_per_s"]) == {"raman", "optical_pumping"}

    def test_unreachable_dark_state_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "pumping": {
                    "beams": [
                        {"label": "D_pi", "f_ground": 7, "polarization": "pi"},
                        {"label": "D8", "f_ground": 8, "polarization": "sigma_pm"},
                    ]
                }
            },
        )
        out = tmp_path / "out"
        assert main(["pumping", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()


class TestOptimize:
    def test_global_emits_sequence_and_trace(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"initial_nbar": 0.5, "strategy": {"kind": "global_opt", "n_pulses": 2}},
        )
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        seq = json.loads((out / "optimize_sequence.json").read_text())
        assert seq["strategy"] == "global_opt"
        assert len(seq["times"]) == 2
        assert seq["converged"] is True
        trace_lines = [
            line
            for line in (out / "optimize_trace.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(trace_lines) == 1 + 2
        assert trace_lines[0] == "iteration,objective,n_evals"
        n_evals = seq["details"]["n_evals"]
        assert [int(line.split(",")[2]) for line in trace_lines[1:]] == n_evals
        assert len(n_evals) == 2 and all(n > 0 for n in n_evals)

    def test_fixed_has_no_trace(self, tmp_path, fast_cool_config):
        out = tmp_path / "out"
        assert main(["optimize", "--config", fast_cool_config, "--out", str(out)]) == 0
        assert not (out / "optimize_trace.csv").exists()


class TestErrorPaths:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": 1})
        out = tmp_path / "out"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["probe", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("cool", {"initial_nbar": float("inf")}),
            ("transfer-matrix", {"transfer_matrix": {"times": [float("nan")], "n_max": 50}}),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("probe", {"probe": {"times": [1e308]}}),
            ("cool", {"probe_time": 1e308, "strategy": {"kind": "fixed", "fixed_time": 0.2}}),
        ],
    )
    def test_overflowing_probe_exits_3(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_invalid_scheme_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scheme": "F9"})
        assert main(["cool", "--config", cfg]) == 2

    def test_null_eta_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"trap": {"eta": None}})
        out = tmp_path / "out"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_out_naming_a_file_exits_2(self, tmp_path, monkeypatch, via_env):
        target = tmp_path / "taken"
        target.write_bytes(b"keep me\n")
        if via_env:
            monkeypatch.setenv("DRSC_OUT", str(target))
            argv = ["probe"]
        else:
            argv = ["probe", "--out", str(target)]
        assert main(argv) == 2
        assert target.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_out_below_a_file_exits_2(self, tmp_path, monkeypatch, via_env):
        target = tmp_path / "taken"
        target.write_bytes(b"keep me\n")
        out_dir = target / "sub" / "deeper"
        if via_env:
            monkeypatch.setenv("DRSC_OUT", str(out_dir))
            argv = ["probe"]
        else:
            argv = ["probe", "--out", str(out_dir)]
        assert main(argv) == 2
        assert target.read_bytes() == b"keep me\n"


class TestEnvironment:
    def test_env_out_dir(self, tmp_path, fast_cool_config, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("DRSC_OUT", str(env_dir))
        assert main(["probe", "--config", fast_cool_config]) == 0
        assert (env_dir / "probe.csv").exists()

    def test_flag_beats_env(self, tmp_path, fast_cool_config, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("DRSC_OUT", str(env_dir))
        assert main(["probe", "--config", fast_cool_config, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "probe.csv").exists()
        assert not env_dir.exists()

    def test_default_config_hash(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DRSC_SEED", raising=False)
        out = tmp_path / "out"
        assert main(["probe", "--out", str(out)]) == 0
        assert read_meta_lines(out / "probe.csv")["config_sha256"] == (
            "7e14c7084dd2a0423851d3872c0f27a01176cc646951a40eda5ef034c6abbc52"
        )

    def test_seed_changes_config_hash(self, tmp_path, fast_cool_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["probe", "--config", fast_cool_config, "--out", str(a), "--seed", "1"])
        main(["probe", "--config", fast_cool_config, "--out", str(b), "--seed", "2"])
        ha = read_meta_lines(a / "probe.csv")["config_sha256"]
        hb = read_meta_lines(b / "probe.csv")["config_sha256"]
        assert ha != hb
