"""drsc benchmark: three workloads through drsc.cli, checked against an oracle.

Run from the root of a drsc checkout:

    python3 perfbench/run.py --workload cool_default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke     # each workload once, every check, no timing

One worker process runs the workload's commands in-process, round after
round, for --seconds; --trace 1 adds one traced round.  Times are reported
at reference host speed (perfbench/hostspeed.py).  Artifacts are then
checked here, against perfbench/oracle.py.  The last line of stdout is
the JSON result; the metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools capped before numpy loads; children inherit the cap
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7  # fresh processes per run, started after the worker
SETUP_LOOPS = 3  # calibration loops before and after each probe
PROCESS_TIMEOUT = 170

HEATING_RATES = {"optical_pumping": 5.58, "raman": 2.078, "trap": 0.553}

# What `drsc cool` runs without --config; the oracle checks against these.
BUILT_IN_COOL = {
    "scheme": "F7",
    "trap": {"eta": 0.07},
    "initial_nbar": 6.08,
    "strategy": {"kind": "global_opt", "n_pulses": 10},
    "heating": {"enabled": True, "rates": HEATING_RATES},
    "timing": {"t_f_seconds": 100e-6, "repump_seconds": 15e-3, "pre_probe_delay_seconds": 0.0},
    "rdp": {"enabled": False},
    "probe_time": 1.0,
}


def workload_ops(name: str) -> list[dict]:
    """The workload's commands, one operation each, with the configs they run.

    A config of None runs the command on its built-in defaults.
    """
    if name == "cool_default":
        return [{"command": "cool", "config": None}]
    if name == "cool_fixed_hot":
        cfg = {
            "scheme": "F8",
            "trap": {"eta": 0.07},
            "initial_nbar": 40.0,
            "strategy": {"kind": "fixed", "n_pulses": 150},
            "heating": {"enabled": True, "rates": HEATING_RATES},
            "timing": {"t_f_seconds": 100e-6, "repump_seconds": 15e-3, "pre_probe_delay_seconds": 0.02},
            "rdp": {"enabled": True},
            "probe_time": 1.0,
        }
        return [{"command": "cool", "config": cfg}]
    if name == "analysis_sweep":
        configs = [
            ("table1", {"trap": {"eta": 0.07}, "table1": {"schemes": ["F7", "F8"], "nbars": [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0]}}),
            ("pumping", {"trap": {"eta": 0.07}, "pumping": {"monte_carlo_trajectories": 1_000_000}}),
            ("transfer-matrix", {"scheme": "F8", "trap": {"eta": 0.07}, "transfer_matrix": {"n_max": 200, "times": [0.15, 0.3, 0.5, 0.7, 0.9, 1.2]}}),
            ("probe", {"trap": {"eta": 0.07}, "initial_nbar": 6.08, "probe": {"times": [round(0.1 * k, 10) for k in range(1, 31)]}}),
        ]
        return [{"command": c, "config": cfg} for c, cfg in configs]
    raise ValueError(name)


WORKLOADS = ("cool_default", "cool_fixed_hot", "analysis_sweep")


def final_nbar(name: str, op_outs: list[str]) -> float:
    """<n> the workload ends with: the last cool_history.csv row for the
    cool workloads, the probe's inferred <n> at probe time 1 otherwise."""
    if name == "analysis_sweep":
        rows = checks.read_csv(os.path.join(op_outs[-1], "probe.csv"))
        return next(float(r[4]) for r in rows if float(r[0]) == 1.0)
    rows = checks.read_csv(os.path.join(op_outs[0], "cool_history.csv"))
    return float(rows[-1][1])


def _spawn(mode: str, plan_path: Path, capture: bool) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(plan_path)],
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=PROCESS_TIMEOUT,
        check=False,
    )


def measure_setup(plan_path: Path) -> list[tuple[float, float]]:
    """(seconds, seconds at reference host speed) from spawning a fresh
    process to the first command starting to compute, per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        loops = [hostspeed.loop() for _ in range(SETUP_LOOPS)]
        begin = time.monotonic()
        proc = _spawn("setup", plan_path, capture=True)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        seconds = float(proc.stdout.strip().splitlines()[-1]) - begin
        loops += [hostspeed.loop() for _ in range(SETUP_LOOPS)]
        samples.append((seconds, hostspeed.scale(seconds, loops)))
    return samples


def run_worker(name: str, seed: int, seconds: float, trace: bool, setup: bool) -> dict:
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workload_ops(name)
    plan_ops = []
    for i, op in enumerate(ops):
        path = None
        if op["config"] is not None:
            path = out / f"config_{i}_{op['command']}.json"
            path.write_text(json.dumps(op["config"]))
        plan_ops.append({"command": op["command"], "config": path and str(path)})
    plan = {
        "src": str(SRC),
        "ops": plan_ops,
        "cli_seed": seed % 2**31,
        "seconds": seconds,
        "trace": trace,
        "out": str(out),
        "result": str(out / "result.json"),
    }
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = _spawn("run", plan_path, capture=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = measure_setup(plan_path) if setup else []
    result["commands"] = [op["command"] for op in ops]
    # what the checks assume each command ran
    result["expect"] = [BUILT_IN_COOL if op["config"] is None else op["config"] for op in ops]
    return result


def check_rounds(result: dict, seed: int) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problem lines) over every operation run.

    Rounds repeat the same inputs, so artifacts with a digest already
    checked reuse that verdict.
    """
    attempted = failed = 0
    correct = True
    lines: list[str] = []
    verdicts: dict[str, list] = {}
    rounds = result["rounds"] + ([result["traced"]] if "traced" in result else [])
    for rnd in rounds:
        for op, expect, spec in zip(rnd["ops"], result["expect"], result["commands"]):
            attempted += 1
            if op["error"] is not None:
                failed += 1
                lines.append(f"{spec}: {op['error']}")
                continue
            digest = hashlib.sha256()
            for f in sorted(os.listdir(op["out"])):
                digest.update(f.encode() + b"\0" + Path(op["out"], f).read_bytes())
            key = digest.hexdigest()
            if key not in verdicts:
                verdicts[key] = checks.CHECKS[spec](expect, op["out"], seed)
                lines += [f"{spec} [{kind}]: {msg}" for kind, msg in verdicts[key]]
            problems = verdicts[key]
            failed += any(kind == "fault" for kind, _ in problems)
            correct = correct and not any(kind == "wrong" for kind, _ in problems)
    return attempted, failed, correct, lines


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_worker(name, seed, seconds, trace, setup=not trace)
    attempted, failed, correct, lines = check_rounds(result, seed)
    for line in lines:
        print(line, file=sys.stderr)
    if trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        last = result["rounds"][-1]["ops"]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in result["setup_s"]),
            "wall_s": statistics.median(r["scaled_s"] for r in result["rounds"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "final_nbar": final_nbar(name, [op["out"] for op in last]),
        }
        wanted = spec["end_to_end"]
    print(
        f"{name}: {len(result['rounds'])} timed rounds, round wall_s as measured / at reference host speed "
        + ", ".join(f"{r['wall_s']:.3f}/{r['scaled_s']:.3f}" for r in result["rounds"]),
        file=sys.stderr,
    )
    if result["setup_s"]:
        print(
            "setup_s as measured / at reference host speed "
            + ", ".join(f"{raw:.3f}/{scaled:.3f}" for raw, scaled in result["setup_s"]),
            file=sys.stderr,
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def smoke(seed: int) -> int:
    """Every workload once with every check and no timing; 0 when all hold."""
    status = 0
    failures = oracle.self_test(seed)
    print(f"oracle self-test against solve_ivp: {'ok' if not failures else 'FAILED'}")
    for line in failures:
        print(f"  {line}")
        status = 1
    for name in WORKLOADS:
        result = run_worker(name, seed, 0, trace=False, setup=False)
        attempted, failed, correct, lines = check_rounds(result, seed)
        errors = sum(op["error"] is not None for op in result["rounds"][0]["ops"])
        print(f"{name}: {attempted} operations, {failed} failed, checks {'hold' if correct else 'FAILED'}")
        for line in lines:
            print(f"  {line}")
        if errors or not correct:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once, checks only")
    args = parser.parse_args()
    if not (SRC / "drsc" / "cli.py").is_file():
        print(f"no drsc sources under {SRC}; run from the root of a drsc checkout", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required unless --smoke is given")
    print(json.dumps(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
