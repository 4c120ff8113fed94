"""Runs one workload's drsc commands in this process, as ``drsc.cli.main`` does.

Started by run.py with a plan file; never imports the oracle, so the
resident memory it reports is drsc's own.

    worker.py setup PLAN   print the monotonic clock when the first command
                           would start computing, after imports and config parse
    worker.py run PLAN     timed rounds until PLAN["seconds"] have passed, then
                           one traced round if PLAN["trace"]; results go to
                           PLAN["result"]
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback


def _argv(op: dict, plan: dict, out: str) -> list[str]:
    argv = [op["command"]]
    if op["config"] is not None:
        argv += ["--config", op["config"]]
    return argv + ["--seed", str(plan["cli_seed"]), "--out", out]


def setup(plan: dict) -> None:
    import drsc.cli as cli

    op = plan["ops"][0]
    ready = []

    def mark(cfg):
        ready.append(time.monotonic())
        return {}

    cli._COMMANDS[op["command"]] = mark
    cli.main(_argv(op, plan, os.path.join(plan["out"], "setup")))
    print(repr(ready[0]))


def peak_rss_mb() -> float:
    """High-water resident memory of this process image (VmHWM).

    ru_maxrss is not used: on Linux it also counts the parent's pages at
    fork, before exec replaced them.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(cli, plan: dict, out: str, commands: dict, sampler=None) -> dict:
    """Every op once; per op the seconds from computing start to last file written.

    With a hostspeed.Sampler, the calibration loop runs before, during and
    after the round; its time is taken out of each op's, and the round's
    `scaled_s` is its `wall_s` at reference host speed.
    """
    marks = {}

    def timed(fn):
        def command(cfg):
            marks["start"] = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                marks["end"] = time.perf_counter()

        return command

    for name, fn in commands.items():
        cli._COMMANDS[name] = timed(fn)
    if sampler is not None:
        sampler.sample()
        sampler.start()
    ops = []
    for i, op in enumerate(plan["ops"]):
        op_out = os.path.join(out, f"{i}_{op['command']}")
        marks.clear()
        try:
            rc = cli.main(_argv(op, plan, op_out))
            error = None if rc == 0 else f"exit code {rc}"
        except Exception:  # one failed command must not stop the round
            error = traceback.format_exc()
        done = time.perf_counter()
        busy = sampler.busy_s if sampler is not None else lambda begin, end: 0.0
        ops.append(
            {
                "out": op_out,
                "error": error,
                "wall_s": done - marks["start"] - busy(marks["start"], done) if "start" in marks else None,
                "write_s": done - marks["end"] - busy(marks["end"], done) if "end" in marks else 0.0,
            }
        )
    rnd = {"ops": ops, "wall_s": sum(op["wall_s"] or 0.0 for op in ops)}
    if sampler is not None:
        sampler.stop()
        sampler.sample()
        rnd["loop_s"] = sampler.loop_s
        rnd["scaled_s"] = sampler.scale(rnd["wall_s"])
    return rnd


def run(plan: dict) -> dict:
    import drsc.cli as cli
    import hostspeed

    commands = dict(cli._COMMANDS)
    rounds = []
    begin = time.perf_counter()
    while True:
        out = os.path.join(plan["out"], f"r{len(rounds):03d}")
        rounds.append(run_round(cli, plan, out, commands, hostspeed.Sampler()))
        if time.perf_counter() - begin >= plan["seconds"]:
            break
    result = {"rounds": rounds, "peak_rss_mb": peak_rss_mb()}

    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install(spans.drsc_modules())
        traced_commands = {
            name: tracer.wrap(f"cli.{fn.__name__}", fn) for name, fn in commands.items()
        }
        out = os.path.join(plan["out"], "traced")
        traced = run_round(cli, plan, out, traced_commands)
        tracer.write(os.path.join(plan["out"], "spans.csv"))
        output_bytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files
        )
        untraced = statistics.median(r["wall_s"] for r in rounds)
        result["traced"] = traced
        result["layers"] = spans.layer_metrics(
            tracer,
            traced["wall_s"],
            untraced,
            sum(op["write_s"] for op in traced["ops"]),
            output_bytes,
        )
    return result


def main() -> None:
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    if mode == "setup":
        setup(plan)
        return
    result = run(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
