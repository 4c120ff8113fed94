"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

import contextlib
import dataclasses
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

from drsc import cli, cooling, heating, thermometry
from drsc.chain_dynamics import ChainEvolver, _PulseTables, cached_evolver
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


def _repr_list(x):
    return list(map(repr, x.tolist()))


class TestReprs:
    """cli._reprs writes what repr writes, string for string: the artifacts'
    bytes depend on it, so an orjson release with another layout fails here."""

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_floats(self, values):
        x = np.array(values, dtype=np.float64)
        assert cli._reprs(x) == _repr_list(x)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(30).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        x = bits.view(np.float64)
        assert cli._reprs(x) == _repr_list(x)

    @pytest.mark.parametrize("edge", [1e-9, 1e-5, 1e-4, 1e16])
    def test_band_edges(self, edge):
        # the 20 doubles on each side of the edge, and the edge itself
        below, above = [edge], [edge]
        for _ in range(20):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        x = np.array(below[::-1] + above[1:])
        x = np.concatenate([x, -x])
        assert cli._reprs(x) == _repr_list(x)

    def test_zeros_subnormals_and_extremes(self):
        tiny = np.finfo(np.float64).smallest_normal
        top = np.finfo(np.float64).max
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny, top, -top])
        assert cli._reprs(x) == _repr_list(x)

    def test_empty(self):
        assert cli._reprs(np.array([], dtype=np.float64)) == []

    def test_every_entry_mended(self):
        # 1e-9 <= |x| < 1e-4 is outside the bands where orjson writes repr's layout
        x = np.geomspace(1e-9, 1e-4, 2000, endpoint=False)
        x = np.concatenate([x, -x])
        assert cli._reprs(x) == _repr_list(x)

    @pytest.mark.parametrize("value", [0.5, 1e-7, -1.25e-5, 1e16, float("nan"), float("-inf")])
    def test_one_value(self, value):
        x = np.array([value])
        assert cli._reprs(x) == _repr_list(x)


def _edge_neighbours(edge, steps=20):
    """The `steps` doubles on each side of edge, and edge itself."""
    below, above = [edge], [edge]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


class TestSnapshotLines:
    """cli._snapshot_lines writes each state's lines as f"{k},{n},{p!r}"."""

    @staticmethod
    def _expected(history):
        return [f"{k},{n},{p!r}" for k, row in enumerate(history.tolist()) for n, p in enumerate(row)]

    @staticmethod
    def _values():
        edges = [x for edge in (1e-9, 1e-5, 1e-4, 1e16) for x in _edge_neighbours(edge)]
        tiny = np.finfo(np.float64).smallest_normal
        special = [0.0, 5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny]
        exponents = [1.2345 * 10.0**e for e in range(10, 100)]
        exponents += [1.2345 * 10.0**-e for e in range(10, 100)]
        x = np.array(edges + special + exponents)
        return np.concatenate([x, -x, [np.nan, np.inf, -np.inf]])

    @pytest.mark.parametrize("states", [1, 3])
    def test_lines_are_repr_lines(self, states):
        x = self._values()
        history = np.stack([np.roll(x, 7 * k) for k in range(states)])
        texts = cli._snapshot_lines(history)
        assert len(texts) == states
        assert "\n".join(texts).split("\n") == self._expected(history)

    def test_one_row_ladder(self):
        history = np.array([[1.0], [0.999], [1e-7]])
        assert cli._snapshot_lines(history) == self._expected(history)


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

    @pytest.mark.parametrize(
        "strategy",
        [{"kind": "global_opt", "n_pulses": 2}, {"kind": "heuristic", "n_final": 1}],
        ids=["global_opt", "heuristic"],
    )
    def test_suppression_fit_runs_only_on_fixed_sequences(self, tmp_path, monkeypatch, strategy):
        # the fixed cases are pinned by the cool-custom-rdp and
        # cool-f8-fixed-hot digests
        def never(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "dual_thermal_decompose", never)
        payload = {"initial_nbar": 1.0, "strategy": strategy}
        out = tmp_path / "out"
        assert main(["cool", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        fit = json.loads((out / "cool_suppression_fit.json").read_text())
        assert set(fit) == {"metadata", "error"}
        assert fit["error"] == f"not run: the fit needs a fixed sequence, not {strategy['kind']}"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_snapshot_exits_3(self, tmp_path, monkeypatch, capsys, fast_cool_config, bad):
        # the conditioned state appended by --rdp is written to the snapshots
        # alone: the fit and the history rows are made without it
        real = cli.end_to_end_protocol

        def spoiled(*args, **kwargs):
            report = real(*args, **kwargs)
            history = report.history.copy()
            history[-1, 2] = bad
            return dataclasses.replace(report, history=history)

        monkeypatch.setattr(cli, "end_to_end_protocol", spoiled)
        out = tmp_path / "out"
        assert main(["cool", "--config", fast_cool_config, "--out", str(out), "--rdp"]) == 3
        assert "non-finite number in cool_snapshots.csv\n" in capsys.readouterr().err
        assert not out.exists()

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
            "cool_history.csv": "5a4dce2aee0dce00fc4af3ee26ac880c7940fddc57950328b23bbd76a00f69a7",
            "cool_sequence.json": "d02a5b8bd88c708ad373dc3f8099153101728153e9e4599c4469b7b4fb9ddaa0",
            "cool_snapshots.csv": "a542e011de4e594dbe16c7b605efac02e7a0d1d1350e48f8ada1820d41912734",
            "cool_suppression_fit.json": "7bf293dbf8f12f96de1e1f97f4042bf60bf2fbb37a3fc2c4302fc1ce170004cb",
        },
    ),
    (
        "cool",
        ["cool"],
        None,
        {
            "cool_history.csv": "35112bd305804f6815b125bbebc5f96e45bf8e846d80339dc2676e578e765771",
            "cool_sequence.json": "3381cf3122d8afd3c66388e73295194cb07a91af5cce6e268309d49d6d952094",
            "cool_snapshots.csv": "241e08f64a9175e434f517356d2c82154e89dabb6671e3f7b58cbb757bae877f",
            "cool_suppression_fit.json": "dd86fc8146a4757236cfb8ca0054ab3ecc3676e66aa87365f5451c5aae031a52",
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
            "cool_history.csv": "fdaf34ca6c47a49248dd79c43903e77aedffd7070588974507b098f6ef482786",
            "cool_sequence.json": "61a0f8321f62b32f1922e0cc6c18753ae125556b5d924efa55987f6ad02b2448",
            "cool_snapshots.csv": "03cdaff547b8fe913ee250cccbca01c1693af3624d243cc74f65a69e46105495",
            "cool_suppression_fit.json": "46cabab24ffec263c60cf7d9293368dcd4622af431d66ddbe23c0c870f4e4276",
        },
    ),
    (
        # F7's bandwidth 8 exceeds n_max + 1 = 5, so the top bands are empty
        "transfer-matrix-f7",
        ["transfer-matrix"],
        {"transfer_matrix": {"times": [0.0, 0.3], "n_max": 4}},
        {
            "transfer_matrix_00.csv": "1a8ea27906c9f21b0dfb31466af682431983d048c57c79c168eaa7dfb6f05e8c",
            "transfer_matrix_00.json": "3fc34e49e6d026690e6736ff6b54f66200fa2c2449d362342608e63e0dd6e43d",
            "transfer_matrix_01.csv": "910fd9024fc4141e4766914e447fb9c97e384e5c7051eb0d2e3ffaa0a5ca65b2",
            "transfer_matrix_01.json": "43473174d4e5d0f0d4f119705ae9bc85ecc161603cacbf0676ed091e8ab3c59b",
            "transfer_matrix_manifest.json": "3daecd7967bd1751ae3da5aa73e0abc34ed9c7be0a4eee08f938dbac7a2ae108",
        },
    ),
    (
        "transfer-matrix-f8",
        ["transfer-matrix"],
        {"scheme": "F8", "transfer_matrix": {"times": [0.5], "n_max": 20}},
        {
            "transfer_matrix_00.csv": "3ad88683374908bba1d70da6302d1fcf59378bb5fa584729ba67347ed02578aa",
            "transfer_matrix_00.json": "bb5bf785e2ec98f5b30d09c157f6326795ef90fea0aff6b23eb79ac7aea30286",
            "transfer_matrix_manifest.json": "abf4d4c1234a2ca80d4923816d095ab85921adf31d30425b38fae0dea2399e57",
        },
    ),
    (
        "probe",
        ["probe"],
        None,
        {"probe.csv": "c4443dd503a37fb6be08605c5dea582d4f4ec2e72f5d05810ba10d048c29228c"},
    ),
    (
        "table1-f7",
        ["table1"],
        {"table1": {"schemes": ["F7"], "nbars": [10.0]}},
        {"table1.csv": "18508f6dc054e61389b0f7ecf3a548ccb3c51f2debf4854fa2c9e238cb28a389"},
    ),
    (
        "table1-f7-grid",
        ["table1"],
        {"table1": {"schemes": ["F7"], "nbars": [5.0, 20.0, 50.0]}},
        {"table1.csv": "c74b09e128119b6ab2a1fe2f3f759ae7737f2209a928131b24516a88b012578a"},
    ),
    (
        "table1-f8-grid",
        ["table1"],
        {"table1": {"schemes": ["F8"], "nbars": [5.0, 20.0, 50.0]}},
        {"table1.csv": "a6760be69d69cd84e8e4984a8b7f120e0c9785a8f53a88da00dab1a2de131640"},
    ),
    (
        # the optimized pulse time at n_max 400, where the suppression
        # search reads the window's rows plus the pulse reach above it
        "cool-f8-fixed-hot",
        ["cool", "--no-heating"],
        {"scheme": "F8", "initial_nbar": 40.0, "strategy": {"kind": "fixed", "n_pulses": 5}},
        {
            "cool_history.csv": "724bffcc4313abe0e79ac93d6054ef7d65df3bc8283a22675beae3c71181c64b",
            "cool_sequence.json": "f0819925e4c5be32c131317c92ec470995de6f2101eb9e6a5c6c45d2f9f16d1c",
            "cool_snapshots.csv": "7d849df440fd5f0715e0a96a0f4c3d391fbba0ff3c901b41a8fbaebee52557e6",
            "cool_suppression_fit.json": "8c787eccd8c28b2aabecd5ae6f078f649196d80e86e3cb8d19913806952e7c4b",
        },
    ),
    (
        # the benchmark's cool_fixed_hot: 150 heated cycles at n_max 400, a
        # pre-probe delay and dark preparation
        "cool-f8-fixed-hot-heated",
        ["cool"],
        {
            "scheme": "F8",
            "trap": {"eta": 0.07},
            "initial_nbar": 40.0,
            "strategy": {"kind": "fixed", "n_pulses": 150},
            "heating": {
                "enabled": True,
                "rates": {"optical_pumping": 5.58, "raman": 2.078, "trap": 0.553},
            },
            "timing": {
                "t_f_seconds": 100e-6,
                "repump_seconds": 15e-3,
                "pre_probe_delay_seconds": 0.02,
            },
            "rdp": {"enabled": True},
            "probe_time": 1.0,
        },
        {
            "cool_history.csv": "140cd51cd857ca1abc197cba98ce3de924b8348ab56b76ae89e636aaae51c939",
            "cool_sequence.json": "96c68f3e1c66789b6c12a363806cc4af4de1dce533729c789989553400b4fb6a",
            "cool_snapshots.csv": "205e3096da8b0c4fa03484103c4c40fb909c0a3af924b55a0e644322e16ba774",
            "cool_suppression_fit.json": "8b4567ffb330bf53bafac3ed6a56f5134cd70d552f41c2cff273707c3d232471",
        },
    ),
    (
        # repeated fixed pulses, then distinct cleanup times, heated
        "cool-heuristic",
        ["cool"],
        {"strategy": {"kind": "heuristic"}},
        {
            "cool_history.csv": "abb0e80d840dd6d10ca712e651de4c74d09bc28f5606aa3dda976ffb5d99f084",
            "cool_sequence.json": "aaca0773b8d33a09b95a5b60749173023f06e4abf9dbc0a118efb16c74678182",
            "cool_snapshots.csv": "d4450d56c35ab830eb194286e7394045caec224d5644948e7ceaceb2d54c1101",
            "cool_suppression_fit.json": "3b537cdb31b7ab85764ada82dee7cd277da1b88057055396583ae08c8a7c9c20",
        },
    ),
    (
        "pumping",
        ["pumping", "--seed", "3"],
        {"pumping": {"monte_carlo_trajectories": 2000}},
        {
            "pumping_steps.csv": "6b5e667a3fe443580a00c9ab060e4fd487b107db86f4af26e8319446ebbbb60c",
            "pumping_summary.json": "b1a45b59eb496857b9a866e43819d3c57fcd1e3fb1408b385523a2ad0dc9fa4f",
        },
    ),
    (
        "optimize",
        ["optimize"],
        {"strategy": {"n_pulses": 2}},
        {
            "optimize_sequence.json": "db6e3c975796d51ad4556be7c16476f6daae568d9433f5aa858490eb7f5cde69",
            "optimize_trace.csv": "e92b2872570ab5f85ba55f99b926adce4306c5a3d66288cc4616dac0b7876fad",
        },
    ),
]


def _digests(out):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }


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
        assert _digests(out) == expected

    def test_default_cool_is_thread_invariant(self, tmp_path):
        # the digests hold for one BLAS thread count; the default heated
        # cool (253 rows) must give them at one thread too, as perfbench
        # runs it, while eigh's bits differ between thread counts at ~400 rows
        (expected,) = [case[3] for case in DIGEST_CASES if case[0] == "cool"]
        out = tmp_path / "out"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if k not in ("DRSC_SEED", "DRSC_OUT")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env["OPENBLAS_NUM_THREADS"] = "1"
        script = "import sys, drsc.cli; sys.exit(drsc.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", script, "cool", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert _digests(out) == expected


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

    def test_heuristic_cool_builds_one_evolver(self):
        # the fixed-pulse search, the cleanup stage on the state the fixed
        # pulses reach, and the protocol all run on the initial ladder
        cached_evolver.cache_clear()
        cmd_cool(RunConfig.from_dict({"strategy": {"kind": "heuristic"}}))
        assert cached_evolver.cache_info().misses == 1


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

    def test_beam_on_a_missing_level_exits_2(self, tmp_path, capsys):
        # F = 9 is no ground level: its beam would match no state and be dropped
        beam = {"label": "ghost", "f_ground": 9, "polarization": "pi"}
        cfg = write_config(tmp_path, {"pumping": {"beams": [beam]}})
        out = tmp_path / "out"
        assert main(["pumping", "--config", cfg, "--out", str(out)]) == 2
        assert "f_ground must be one of [6, 7, 8], got 9" in capsys.readouterr().err
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
            # a 512 MB evolver
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
            # the global optimizer's batched amplitudes, 3K per row and
            # pulse, sized at F8's 16-step bound: 510 MiB for 5000 pulses at
            # n_max 261, and 5097 MiB for a 50000-pulse final stage there;
            # the evolver alone fits
            ("optimize", {"scheme": "F8", "strategy": {"n_pulses": 5000}}),
            ("cool", {"scheme": "F8", "strategy": {"n_pulses": 5000}}),
            ("optimize", {"scheme": "F8", "strategy": {"kind": "heuristic", "n_final": 50000}}),
            # an odd site count: C's K + 1 trig columns make it 257.1 MiB,
            # where K^2 columns would read 254.6 MiB
            (
                "transfer-matrix",
                {
                    "scheme": {"f": 100, "f_excited": 100},
                    "transfer_matrix": {"n_max": 3270, "times": [0.3]},
                },
            ),
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
        # at the initial n_max, where a heuristic's final stage runs too
        cfg = RunConfig.from_dict({"scheme": scheme, "strategy": strategy})
        chain = cfg.scheme.build()
        n_max = cli._initial_n_max(cfg, len(chain.steps))
        n_pulses = strategy.get("n_pulses", strategy.get("n_final"))
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
            *[
                ("table1", {"trap": {"eta": eta}, "table1": {"schemes": [scheme], "nbars": [nbar]}})
                for scheme in ("F7", "F8")
                for eta, nbar in ((0.07, 10.0), (0.01, 2000.0))
            ],
            *[
                ("optimize", {"scheme": scheme, "strategy": {"kind": "fixed"}})
                for scheme in ("F7", "F8", "two_level")
            ],
        ],
        ids=[
            "table1-F7-eta-0.07", "table1-F7-eta-0.01", "table1-F8-eta-0.07",
            "table1-F8-eta-0.01", "fixed-F7", "fixed-F8", "fixed-two-level",
        ],
    )
    def test_array_budget_covers_the_pulse_time_search(self, monkeypatch, command, payload):
        # every array of the single-pulse search's kernels on the window's
        # rows: the grid scan's, and the derivative kernel's, which holds
        # the order-2 weights; at eta 0.01 the window is n = 5999..12000,
        # where a thermal nbar 2000 holds no zero entry
        kernels = []

        class RecordingTables(_PulseTables):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernels.append(self)

        monkeypatch.setattr(cooling, "_PulseTables", RecordingTables)
        cfg = RunConfig.from_dict(payload)
        cli._COMMANDS[command](cfg)
        assert len(kernels) == 2
        sizes = [
            value.nbytes
            for kernel in kernels
            for value in vars(kernel).values()
            if isinstance(value, np.ndarray)
        ]
        assert max(sizes) <= cli._largest_array_bytes(command, cfg)

    @pytest.mark.parametrize("scheme", ["F7", "F8", "two_level"])
    @pytest.mark.parametrize(
        "strategy, n_times",
        [
            ({"kind": "fixed", "n_pulses": 30, "fixed_time": 0.3}, 1),
            ({"kind": "global_opt", "n_pulses": 25}, 25),
            ({"kind": "heuristic", "n_final": 40}, 41),
        ],
        ids=["fixed", "global-25", "heuristic-40"],
    )
    def test_array_budget_covers_the_protocol_tables(self, scheme, strategy, n_times):
        # cool's one kernel call over its distinct pulse times, with heating
        # off so that the dense heating propagator does not set the bound
        cfg = RunConfig.from_dict(
            {"scheme": scheme, "strategy": strategy, "heating": {"enabled": False}}
        )
        chain = cfg.scheme.build()
        n_max = cli._initial_n_max(cfg, len(chain.steps))
        tables = _PulseTables(cached_evolver(chain, cfg.trap, n_max), n_times, derivative=False)
        sizes = [value.nbytes for value in vars(tables).values() if isinstance(value, np.ndarray)]
        assert max(sizes) <= cli._largest_array_bytes("cool", cfg)

    def test_table1_is_sized_by_its_starts(self, tmp_path, monkeypatch, capsys):
        # F8's window at eta 0.01 takes 6017 rows, so the grid's GEMM output
        # for 20000 starts is 12 x 6017 x 20000 doubles; every
        # start-independent array fits the budget
        def never(cfg):
            raise AssertionError("table1 started computing")

        monkeypatch.setitem(cli._COMMANDS, "table1", never)
        nbars = [float(k) for k in range(1, 20001)]
        payload = {"trap": {"eta": 0.01}, "table1": {"schemes": ["F8"], "nbars": nbars}}
        out = tmp_path / "out"
        assert main(["table1", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: table1 would allocate an array of about 1.102e+4 MiB, "
            "over the 256 MiB budget\n"
        )
        assert not out.exists()

    def test_inverse_hessian_is_sized(self, tmp_path, monkeypatch, capsys):
        # 6000 two-level pulses: the optimizer's dense inverse Hessian is
        # 274.7 MiB, while its pulse tables take 67.8 MiB
        def never(*args, **kwargs):
            raise AssertionError("optimize_global ran")

        monkeypatch.setattr(cli, "optimize_global", never)
        payload = {"scheme": "two_level", "strategy": {"n_pulses": 6000}}
        assert cli._largest_array_bytes("optimize", RunConfig.from_dict(payload)) > 2**28
        out = tmp_path / "out"
        assert main(["optimize", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: optimize would allocate an array of about 274.7 MiB, "
            "over the 256 MiB budget\n"
        )
        assert not out.exists()

    def test_benchmark_table1_fits_the_budget(self, tmp_path):
        # the analysis_sweep workload's table1 grid: 18 cells
        nbars = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0]
        payload = {"trap": {"eta": 0.07}, "table1": {"schemes": ["F7", "F8"], "nbars": nbars}}
        assert cli._largest_array_bytes("table1", RunConfig.from_dict(payload)) < 2**20
        out = tmp_path / "out"
        assert main(["table1", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert len((out / "table1.csv").read_text().splitlines()) == 3 + 1 + 18

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

    @pytest.mark.parametrize("fault", ["emptied-by-the-delay", "backward-generator"])
    def test_heating_fault_after_formed_rows_exits_3(
        self, tmp_path, monkeypatch, capsys, fast_cool_config, fault
    ):
        # three cycles form their rows before the fault: a pre-probe delay of
        # 0.553e9 quanta empties the ladder, or a generator run backward
        # gives the first heated row large negative entries
        config, message = fast_cool_config, "heating propagator gave a probability of -"
        if fault == "emptied-by-the-delay":
            payload = json.loads(open(fast_cool_config).read())
            payload["timing"] = {"pre_probe_delay_seconds": 1e9}
            config = write_config(tmp_path, payload, name="delayed.json")
            message = "a heating dose of 5.53e+08 quanta left no population on n = 0.."
        else:

            def backward(n_max):
                lam, vecs = heating._unit_diffusion_eigensystem(n_max)
                return -lam, vecs

            monkeypatch.setattr(thermometry, "_unit_diffusion_eigensystem", backward)
        out = tmp_path / "out"
        assert main(["cool", "--config", config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert "Traceback" not in err
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
        _section(kind=st.just("heuristic"), n_final=_count_to(4)),
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
            "1982630180169a0e86843c20e2b4863711e7a856823844e856027a63c07676bf"
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
