"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsc import cli, cooling
from drsc.chain_dynamics import ChainEvolver, cached_evolver
from drsc.cli import cmd_cool, cmd_table1, main
from drsc.config import RunConfig
from drsc.motional import thermal_state


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_band_entry_exits_3(self, tmp_path, monkeypatch, capsys, bad):
        real = ChainEvolver.site_probabilities

        def spoiled(self, t):
            table = real(self, t).copy()
            table[3, 1] = bad
            return table

        monkeypatch.setattr(ChainEvolver, "site_probabilities", spoiled)
        cfg = write_config(tmp_path, {"transfer_matrix": {"times": [0.3], "n_max": 20}})
        out = tmp_path / "out"
        assert main(["transfer-matrix", "--config", cfg, "--out", str(out)]) == 3
        assert "transfer_matrix_00.json" in capsys.readouterr().err
        assert not out.exists()


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
            "cool_history.csv": "9df4a896e747b68b7e1b65dd79938825d6d08329eaa01daf4e0a945e45ff3839",
            "cool_sequence.json": "a4b0c1f9d8da920eaea60c569afc6f9d681e86cd35a7c3315f20dc36ae053726",
            "cool_snapshots.csv": "8705010ce6e5792a978ad02e5284c6c1674111c6573ae0185253c10544bf85e4",
            "cool_suppression_fit.json": "2db8dd38cf6cbb7cfcf8b414993772a463d4b590c9c8d9055d831ee76399b4f4",
        },
    ),
    (
        "cool",
        ["cool"],
        None,
        {
            "cool_history.csv": "2fd2577dfcc0cefe84ace8a959a6479b7bb19937c7a0a3a187e49d7147202714",
            "cool_sequence.json": "a513ab2977a91052322aa8aabe5998a11ca187e911919e184b4b87e55bed1d7e",
            "cool_snapshots.csv": "eef1a665d864ff8148d8bc2b06d8c921e707f956da43503a4674711627d89b7a",
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
            "cool_history.csv": "3d67e6020f2fbab0ecdc486e74fa45e30aba43d37efbf3e90ec9a8084d63507f",
            "cool_sequence.json": "5871fa117cfde6e7411194290bc0827fe40a6e989dfbb5a572f897601054cf46",
            "cool_snapshots.csv": "84c7ced6e65fc27252bdee62e283beb45c23e2ada1a60cbbe11355ae410f72c3",
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
            "transfer_matrix_01.csv": "b10fe04f607e87582b1ada4e0bc67746655ccacf3a1de556e883947a2869d132",
            "transfer_matrix_01.json": "8ca1f767895f182fd6323997a2deec45fa10206b124caa9982f696afe5409650",
            "transfer_matrix_manifest.json": "e6809421052928d1263df47e92c88951c45337834e6ae822977df251af96dfc0",
        },
    ),
    (
        "transfer-matrix-f8",
        ["transfer-matrix"],
        {"scheme": "F8", "transfer_matrix": {"times": [0.5], "n_max": 20}},
        {
            "transfer_matrix_00.csv": "0e28700edd97851c2a3c361cb4f02a14cb58068d319599ac84a339831d5aa302",
            "transfer_matrix_00.json": "0469381e0f4db162f8a1696eb7b25809154bd254060ee3c814bef9bc9dd0e1c8",
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
        "table1-f7-grid",
        ["table1"],
        {"table1": {"schemes": ["F7"], "nbars": [5.0, 20.0, 50.0]}},
        {"table1.csv": "7ac2c966cec5aea8c59b1f378dcd3d4a8af33e2ab30b04af9742b24691cf7e1a"},
    ),
    (
        "table1-f8-grid",
        ["table1"],
        {"table1": {"schemes": ["F8"], "nbars": [5.0, 20.0, 50.0]}},
        {"table1.csv": "c49d9581ad0616aaf2b179f0372e93f1d2a47f338a8e31230aa40bac828ba64b"},
    ),
    (
        # the optimized pulse time at n_max 400, where the suppression
        # search reads the window's rows plus the pulse reach above it
        "cool-f8-fixed-hot",
        ["cool", "--no-heating"],
        {"scheme": "F8", "initial_nbar": 40.0, "strategy": {"kind": "fixed", "n_pulses": 5}},
        {
            "cool_history.csv": "fb918fbf4550880cb1602f937f81438744cdffa6dae2051138dda2d78c1f7d65",
            "cool_sequence.json": "0183523a9f613eefbd3a80f72ed43f7a8176a173dc0e7f5807a0fad2c047ffa2",
            "cool_snapshots.csv": "ebaf7a8344406cc1ce5c8946af6e67475fab770969216e4feb82c501bdb3d5d9",
            "cool_suppression_fit.json": "90456e1df7a5c6449a297fbd9c3649a168e0d972dcf207199e5aba76d43f8fa7",
        },
    ),
    (
        "pumping",
        ["pumping", "--seed", "3"],
        {"pumping": {"monte_carlo_trajectories": 2000}},
        {
            "pumping_steps.csv": "b891c227ce858ef00ae7e3db2ccaf2a474b5abd0a859b47a5ccf09f885b15438",
            "pumping_summary.json": "80863efbf00f8b471890588fe4880837f6be00f3f8228e661916d87c18b68233",
        },
    ),
    (
        "optimize",
        ["optimize"],
        {"strategy": {"n_pulses": 2}},
        {
            "optimize_sequence.json": "8fbe1a0e5291a5726e02cfc05205179c69f59e1f5592a328f19a590bc88005b4",
            "optimize_trace.csv": "fc944ee915b2e647748bfeb437e7b68b8851a7f196cd8d592ca7426aebf8f5fd",
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

    def test_trajectory_cap_runs(self, tmp_path):
        n = 2**63 - 1
        cfg = write_config(tmp_path, {"pumping": {"monte_carlo_trajectories": n}})
        out = tmp_path / "out"
        assert main(["pumping", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "pumping_summary.json").read_text())
        mc = summary["monte_carlo"]
        assert mc["n_trajectories"] == n
        assert abs(mc["mean_steps"] - summary["uniform_mean_steps"]) < 4 * mc["stderr"]

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

    # a pulse time past 1e6 pi-times, whose phases' cos and sin would be
    # noise (1e18, 1e300) or overflow (1e308), is refused before computing
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("probe", {"probe": {"times": [1e18]}}, "probe.times[0]"),
            ("probe", {"probe": {"times": [0.5, 1e308]}}, "probe.times[1]"),
            (
                "cool",
                {"probe_time": 1e308, "strategy": {"kind": "fixed", "fixed_time": 0.2}},
                "probe_time",
            ),
            (
                "transfer-matrix",
                {"transfer_matrix": {"n_max": 10, "times": [1e300]}},
                "transfer_matrix.times[0]",
            ),
            (
                "transfer-matrix",
                {"transfer_matrix": {"n_max": 20, "times": [1e308]}},
                "transfer_matrix.times[0]",
            ),
            (
                "cool",
                {
                    "rdp": {"enabled": True, "t_clear": 1e300},
                    "strategy": {"kind": "fixed", "fixed_time": 0.2},
                },
                "rdp.t_clear",
            ),
            ("cool", {"strategy": {"kind": "fixed", "fixed_time": 1e300}}, "strategy.fixed_time"),
        ],
    )
    def test_pulse_time_past_the_phase_bound_exits_2(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{key} must be <= 1e+06" in capsys.readouterr().err
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
            # a 3000-step chain, refused by the walk's length bound: the
            # exact Clebsch-Gordan walk itself would run for minutes
            *[
                (command, {"scheme": {"f": 3000, "f_excited": 3000}})
                for command in ("cool", "optimize", "transfer-matrix")
            ],
            # walker counts past int64
            ("pumping", {"pumping": {"monte_carlo_trajectories": 2**63}}),
            ("pumping", {"pumping": {"monte_carlo_trajectories": 10**21}}),
            # the global optimizer's batched amplitudes with d^2P/dt^2: 668 MB
            # for 5000 F8 pulses at n_max 260, 1306 MB for a 50000-pulse
            # final stage at n_max 50; each evolver alone fits
            ("optimize", {"scheme": "F8", "strategy": {"n_pulses": 5000}}),
            ("cool", {"scheme": "F8", "strategy": {"n_pulses": 5000}}),
            ("optimize", {"scheme": "F8", "strategy": {"kind": "heuristic", "n_final": 50000}}),
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

    @pytest.mark.parametrize("scheme", ["F7", "F8", "two_level"])
    @pytest.mark.parametrize(
        "strategy",
        [
            {"kind": "global_opt", "n_pulses": 1},
            {"kind": "global_opt", "n_pulses": 4},
            {"kind": "global_opt", "n_pulses": 25},
            {"kind": "heuristic", "n_final": 2},
            {"kind": "heuristic", "n_final": 12},
        ],
        ids=["global-1", "global-4", "global-25", "heuristic-2", "heuristic-12"],
    )
    def test_array_budget_covers_the_optimizer(self, scheme, strategy):
        # every array of the optimizer's workspace and its kernel, which
        # holds the order-2 weights and amplitudes
        cfg = RunConfig.from_dict({"scheme": scheme, "strategy": strategy})
        chain = cfg.scheme.build()
        if strategy["kind"] == "global_opt":
            n_max, n_pulses = cli._initial_n_max(cfg, len(chain.steps)), strategy["n_pulses"]
        else:
            n_max, n_pulses = thermal_state(cfg.strategy.final_nbar).n_max, strategy["n_final"]
        work = cooling._Workspace(cached_evolver(chain, cfg.trap, n_max), n_pulses)
        sizes = [
            value.nbytes
            for part in (work, work.tables, work.band_sum)
            for value in vars(part).values()
            if isinstance(value, np.ndarray)
        ]
        assert max(sizes) <= cli._largest_array_bytes("optimize", cfg)

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

    # two-level at eta 0.07: the heuristic's 5-pulse final stage is sized
    # at 1280 bytes of sequence text (optimize) and 56608 with snapshots
    # (cool); its 31 fixed pulses more raise them to 9216 and 309568
    @pytest.mark.parametrize("command, budget", [("optimize", 5000), ("cool", 100_000)])
    def test_heuristic_fixed_stage_over_budget_exits_2(
        self, tmp_path, monkeypatch, capsys, command, budget
    ):
        def never(*args, **kwargs):
            raise AssertionError("the protocol ran")

        payload = {"scheme": "two_level", "strategy": {"kind": "heuristic"}}
        assert cli._output_bytes(command, RunConfig.from_dict(payload)) < budget
        monkeypatch.setattr(cli, "_OUTPUT_BUDGET_BYTES", budget)
        monkeypatch.setattr(cli, "end_to_end_protocol", never)
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "MiB of text, over the" in capsys.readouterr().err
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


# non-finite, negative and boundary values for any number in a fuzzed config
_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300])


def _number_in(lo, hi):
    # an edge value one time in three
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), _EDGES)


def _count_to(hi):
    return st.one_of(st.integers(0, hi), st.integers(0, hi), st.sampled_from([-1, 2**63]))


def _section(**keys):
    return st.fixed_dictionaries({}, optional=keys)


def _time_in(lo, hi):
    # a pulse time, or one anywhere up to 1e300, mostly past the phase bound
    return st.one_of(_number_in(lo, hi), st.floats(lo, 1e300))


# small configs: nbar <= 5, at most 4 pulses, transfer-matrix n_max <= 40,
# eta in [0.07, 0.5], each value possibly replaced by an edge value, and
# pulse times drawn up to 1e300
_SMALL_CONFIGS = _section(
    scheme=st.sampled_from(["F7", "F8", "two_level"]),
    trap=_section(eta=_number_in(0.07, 0.5)),
    initial_nbar=_number_in(0.0, 5.0),
    strategy=st.one_of(
        _section(kind=st.just("global_opt"), n_pulses=_count_to(4)),
        _section(kind=st.just("fixed"), n_pulses=_count_to(4), fixed_time=_time_in(0.0, 2.0)),
        _section(kind=st.just("heuristic"), n_final=_count_to(4), final_nbar=_number_in(0.0, 5.0)),
    ),
    heating=_section(enabled=st.booleans()),
    rdp=_section(enabled=st.booleans(), t_clear=_time_in(0.0, 2.0)),
    probe_time=_time_in(0.0, 2.0),
    transfer_matrix=_section(
        n_max=_count_to(40), times=st.lists(_time_in(0.0, 2.0), min_size=1, max_size=3)
    ),
    table1=_section(
        nbars=st.lists(_number_in(0.0, 5.0), min_size=1, max_size=2),
        schemes=st.sampled_from([["F7"], ["F8"]]),
    ),
    probe=_section(times=st.lists(_time_in(0.0, 2.0), min_size=1, max_size=3)),
    pumping=_section(monte_carlo_trajectories=_count_to(1000)),
)


def _non_finite_numbers(path):
    """The numbers in one artifact that are not finite: every JSON number,
    and every CSV cell or metadata value that parses as a float."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        values, numbers = [json.loads(text, parse_constant=float)], []
        while values:
            value = values.pop()
            if isinstance(value, dict):
                values.extend(value.values())
            elif isinstance(value, list):
                values.extend(value)
            elif isinstance(value, float):
                numbers.append(value)
    else:
        numbers = []
        for line in text.splitlines():
            for cell in [line.partition(": ")[2]] if line.startswith("# ") else line.split(","):
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
    return [x for x in numbers if not math.isfinite(x)]


class TestCommandFuzz:
    @given(command=st.sampled_from(sorted(cli._COMMANDS)), payload=_SMALL_CONFIGS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    # a pulse time past the phase bound (exit 2) and a numerical failure
    # (exit 3), which the generated examples miss
    @example(command="cool", payload={"strategy": {"kind": "fixed", "fixed_time": 1e300}})
    @example(command="table1", payload={"trap": {"eta": 1e300}})
    def test_exit_codes_and_artifacts(self, command, payload):
        # exit 0 with only finite numbers written, or 2 or 3 with nothing written
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(payload, fh)
            out = os.path.join(tmp, "out")
            argv = [command, "--config", config, "--out", out, "--seed", "1"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3)
            if code != 0:
                assert not os.path.exists(out)
                return
            for name in os.listdir(out):
                assert not _non_finite_numbers(os.path.join(out, name)), name


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
