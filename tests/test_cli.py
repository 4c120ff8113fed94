"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from drsc import cli
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

    def test_hot_thermal_state_reads_its_nbar(self, tmp_path):
        # a truncation that drops 1e-4 of the mass at nbar 40 biased the
        # sideband ratio by 5.7e-6 relative
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"initial_nbar": 40.0, "probe": {"times": [0.5, 1.0, 2.0]}})
        assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "probe.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[-1]) == pytest.approx(40.0, rel=1e-9)


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

    def test_pre_probe_delay_appends_row(self, tmp_path):
        payload = {
            "initial_nbar": 1.0,
            "strategy": {"kind": "fixed", "n_pulses": 3, "fixed_time": 0.2},
            "timing": {"pre_probe_delay_seconds": 1.0},
        }
        out = tmp_path / "out"
        assert main(["cool", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in (out / "cool_history.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]
        assert len(rows) == 5  # initial + 3 pulses + delayed
        # the probe reads the last row, heated by the delay
        assert float(rows[-1][1]) > float(rows[-2][1])
        assert rows[-1][3] == "1.0"


# Artifacts pinned byte for byte: (id, argv, config payload or None, sha256 per file)
DIGEST_CASES = [
    (
        "cool-no-heating",
        ["cool", "--no-heating"],
        None,
        {
            "cool_history.csv": "8f673ab151a03ee60ffbc93267d1cb05486275ea004523a6c76da8104f78b96f",
            "cool_sequence.json": "b591de3342cdceaa236b0bf463a104b04cb3fd9faf75d8349535cd1c0fd759c1",
            "cool_snapshots.csv": "9706a1a25fab58521ddaa0d612ac25f71b2c2339886dec942250b6d1cdad993e",
            "cool_suppression_fit.json": "2db8dd38cf6cbb7cfcf8b414993772a463d4b590c9c8d9055d831ee76399b4f4",
        },
    ),
    (
        "cool",
        ["cool"],
        None,
        {
            "cool_history.csv": "d2cf61c213009bcdfd6781b75a60ec863b7ed467950999c7eef272e814e34541",
            "cool_sequence.json": "23a0bbe5c15d4128a67ebdfcb7434420296d6d1bc50e57f620fdc8909f1c0a78",
            "cool_snapshots.csv": "e7abecfc9308a389abaadf20dd99889c81d45b97f94506af948b0dddea030ca6",
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
            "cool_history.csv": "3785584a58fbc2dc0ffd71f6cf0f1a5d95cc71a593ad6908bb1df70be4e171d3",
            "cool_sequence.json": "865e8f08f0eba12932d4a8dde56112706b2a2392b3d5a32a6faaadb1b9d5c083",
            "cool_snapshots.csv": "03351113785a03bb1c81a0ba03f03fdf17927d144e3bec253da067fccb2475ba",
            "cool_suppression_fit.json": "a801d8f91393719925b52be298e13e1b93f767607b8738662e21c1c5a42326c6",
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
            "transfer_matrix_01.csv": "256588c04986d132fcde2fa17e80724315ddc8fda33e269675eec4384d9438b3",
            "transfer_matrix_01.json": "29213f9b548cdbe20a473d0313afee77f8e0eb4b4214da7d46516f9cd2108631",
            "transfer_matrix_manifest.json": "e6809421052928d1263df47e92c88951c45337834e6ae822977df251af96dfc0",
        },
    ),
    (
        "transfer-matrix-f8",
        ["transfer-matrix"],
        {"scheme": "F8", "transfer_matrix": {"times": [0.5], "n_max": 20}},
        {
            "transfer_matrix_00.csv": "a5f7659ea30877073450bd4e582d65f0d15706f495eb03405d8e8f0f223a9f5c",
            "transfer_matrix_00.json": "c909e4125b73b1c81adf6c3c399e6eb91a37c95e54ca0fb0377c888414872577",
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
        {"table1.csv": "5471cfc1c1e6b30046e45cf3ce8b86579448988dc7c821520b3bb1f11c459472"},
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
            "optimize_sequence.json": "9e0f5cd3fe18ef5cf67c7c4ce43a3b782d56362b942e4ff3d29c9481670830e0",
            "optimize_trace.csv": "da2460deb6df1364614f27f8873873261146118abbe078ba1328a05a5a58bc56",
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

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("transfer-matrix", {"transfer_matrix": {"n_max": 20, "times": [1e308]}}),
            (
                "cool",
                {
                    "rdp": {"enabled": True, "t_clear": 1e308},
                    "strategy": {"kind": "fixed", "fixed_time": 0.2},
                },
            ),
        ],
    )
    def test_overflowing_pulse_exits_3(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    # 1e155 overflows eta^2 in the asymptotic window, 1e100 the coupling ratios
    @pytest.mark.parametrize("eta", [1e155, 1e100])
    @pytest.mark.parametrize("command", ["transfer-matrix", "cool", "table1", "probe", "optimize"])
    def test_overflowing_eta_exits_3(self, tmp_path, capsys, command, eta):
        cfg = write_config(tmp_path, {"trap": {"eta": eta}})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            # an 8 TB dense matrix
            ("transfer-matrix", {"transfer_matrix": {"n_max": 1000000}}),
            # n_max 10^6: 8 TB of heating eigenvectors, a 512 MB evolver
            ("cool", {"initial_nbar": 1e5}),
            ("optimize", {"initial_nbar": 1e5}),
            # the asymptotic window at eta 1e-4 reaches n = 1.2e8
            ("table1", {"trap": {"eta": 1e-4}}),
            # no finite truncation holds 0.9999 of this state
            ("probe", {"initial_nbar": 1e17}),
            # at eta 1e-100 it reaches 1.2e200: the byte count passes float's range
            ("cool", {"trap": {"eta": 1e-100}}),
            # at eta 1e-160 and 1e-200 its bounds are not finite
            *[
                (command, {"trap": {"eta": eta}})
                for eta in (1e-160, 1e-200)
                for command in ("cool", "optimize", "table1")
            ],
        ],
    )
    def test_oversized_arrays_exit_2(self, tmp_path, monkeypatch, command, payload):
        def never(cfg):
            raise AssertionError(f"{command} started computing")

        monkeypatch.setitem(cli._COMMANDS, command, never)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            # an 86 MB sequence file
            ("optimize", {"strategy": {"kind": "fixed", "n_pulses": 10000000, "fixed_time": 0.3}}),
            # 2.5e7 snapshot rows
            ("cool", {"strategy": {"kind": "fixed", "n_pulses": 100000, "fixed_time": 0.3}}),
            # ten dense 2001 x 2001 matrices, each within the array budget
            ("transfer-matrix", {"transfer_matrix": {"n_max": 2000, "times": [0.3] * 10}}),
        ],
    )
    def test_oversized_output_exits_2(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [{"timing": {"repump_seconds": 1e6}}, {"heating": {"rates": {"trap": 1e300}}}],
        ids=["long-repump", "huge-rate"],
    )
    def test_heating_that_empties_the_ladder_exits_3(self, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["cool", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0.5,nan\n", '{"a": NaN}\n', "1,-inf\n", '{"b": [Infinity]}\n'])
    def test_non_finite_artifact_exits_3(self, tmp_path, monkeypatch, text):
        monkeypatch.setitem(cli._COMMANDS, "probe", lambda cfg: {"probe.csv": "# ok\n" + text})
        out = tmp_path / "out"
        assert main(["probe", "--out", str(out)]) == 3
        assert not out.exists()

    def test_words_holding_nan_or_inf_are_not_numbers(self, tmp_path, monkeypatch):
        text = '{"labels": ["info", "banana", "Infinity_beam", "D_inf2"], "x": 1.5e-300}\n'
        monkeypatch.setitem(cli._COMMANDS, "probe", lambda cfg: {"probe.json": text})
        out = tmp_path / "out"
        assert main(["probe", "--out", str(out)]) == 0
        assert (out / "probe.json").read_text() == text

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

    # overrides get the seed >= 0 check that a config file's seed gets
    @pytest.mark.parametrize("command", ["probe", "pumping"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, command, via_env):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if via_env:
            monkeypatch.setenv("DRSC_SEED", "-1")
        else:
            monkeypatch.delenv("DRSC_SEED", raising=False)
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


# Runs in a fresh interpreter whose imports of scipy fail: drsc must import
# without it and every command must run without it, heated and optimizing
# runs included.
SCIPY_FREE_SCRIPT = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
import drsc
import drsc.cli

config, out = sys.argv[1], sys.argv[2]
runs = [
    ["table1"], ["pumping"], ["transfer-matrix"], ["probe"], ["cool"], ["cool", "--rdp"], ["optimize"]
]
for argv in runs:
    assert drsc.cli.main(argv + ["--config", config, "--out", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestScipyFree:
    def test_six_commands_run_without_scipy(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial_nbar": 1.0,
                "strategy": {"kind": "global_opt", "n_pulses": 2},
                "table1": {"schemes": ["F7", "F8"], "nbars": [10.0]},
                "pumping": {"monte_carlo_trajectories": 1000},
                "transfer_matrix": {"n_max": 20, "times": [0.3]},
                "probe": {"times": [1.0]},
            },
        )
        out = tmp_path / "out"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", SCIPY_FREE_SCRIPT, cfg, str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        written = sorted(os.listdir(out))
        for name in ("table1.csv", "cool_history.csv", "optimize_trace.csv", "probe.csv"):
            assert name in written
