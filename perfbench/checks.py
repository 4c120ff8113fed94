"""Checks of each command's artifacts against the oracle or against
properties the method must have.

Every check returns a list of (kind, message) problems.  Kind "fault" is a
miss of the exact-heating comparison by more than 1e-5 relative but less
than 5e-3: drsc's Euler heating stepper misses it by 2e-5 to 5e-4 today,
so the operation counts as failed.  Kind "wrong" is anything else, and
makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

HEATING_TOL = 1e-5
HEATING_WRONG = 5e-3

# single-pulse optima (t, a) of the paper's Table 1 at eta = 0.07
PAPER_TABLE1 = {
    ("F7", 10.0): (0.173, 0.633),
    ("F7", 20.0): (0.169, 0.787),
    ("F7", 30.0): (0.167, 0.850),
    ("F7", 40.0): (0.166, 0.884),
    ("F8", 10.0): (0.639, 0.348),
    ("F8", 20.0): (0.644, 0.577),
    ("F8", 30.0): (0.645, 0.689),
    ("F8", 40.0): (0.645, 0.754),
}

PUMPING_PAPER_MEAN = 62.1


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a drsc CSV artifact, without its metadata and header lines."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    return rows[1:]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _json_numbers(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for v in node.values():
            yield from _json_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _json_numbers(v)


def _heating_agreement(problems: list, what: str, worst: float) -> None:
    if worst > HEATING_WRONG:
        problems.append(("wrong", f"{what} off the exact-heating oracle by {worst:.2e} relative"))
    elif worst > HEATING_TOL:
        problems.append(("fault", f"{what} off the exact-heating oracle by {worst:.2e} relative (> {HEATING_TOL:g})"))


def check_cool(cfg: dict, out: str, seed: int) -> list:
    problems = []
    hist = read_csv(os.path.join(out, "cool_history.csv"))
    snaps = read_csv(os.path.join(out, "cool_snapshots.csv"))
    seq = read_json(os.path.join(out, "cool_sequence.json"))
    fit = read_json(os.path.join(out, "cool_suppression_fit.json"))
    hist_v = np.array(hist, dtype=float)
    snap_v = np.array(snaps, dtype=float)
    if not (_all_finite(hist_v) and _all_finite(snap_v) and _all_finite(list(_json_numbers([seq, fit])))):
        problems.append(("wrong", "a non-finite number in the cool artifacts"))
        return problems
    pulses = snap_v[:, 0].astype(int)
    totals = np.bincount(pulses, weights=snap_v[:, 2])
    if np.any(totals > 1 + 1e-12) or np.any(snap_v[:, 2] < 0):
        problems.append(("wrong", f"snapshot total probability up to {totals.max()!r}, or a negative entry"))

    nbar0, eta = cfg["initial_nbar"], cfg["trap"]["eta"]
    p0 = snap_v[pulses == 0, 2]
    n_max = len(p0) - 1
    thermal = oracle.thermal(nbar0, n_max)
    if np.max(np.abs(p0 - thermal) / thermal) > 1e-12:
        problems.append(("wrong", "initial snapshot is not the thermal state"))
    # the sideband ratio is exactly nbar/(nbar+1) only for an untruncated thermal state
    if 1.0 - float(thermal.sum()) < 1e-12 and _rel(hist_v[0, 2], nbar0) > 1e-9:
        problems.append(("wrong", f"row-0 nbar_sb {hist_v[0, 2]!r} != initial nbar {nbar0}"))

    times = seq["times"]
    pulses_oracle = oracle.Pulses(oracle.chain_couplings(cfg["scheme"]), eta, n_max)

    if cfg["strategy"]["kind"] == "global_opt":
        trace = [obj for _, obj in seq["details"]["trace"]]
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append(("wrong", "optimizer trace increases"))
        p = p0
        for t in times:
            p = pulses_oracle.apply(t, p)
        if _rel(trace[-1], oracle.mean_n(p)) > 1e-9:
            problems.append(("wrong", f"last objective {trace[-1]!r} != oracle {oracle.mean_n(p)!r}"))
    elif len(set(times)) != 1 or times[0] != seq["details"]["pulse_time"] or len(times) != cfg["strategy"]["n_pulses"]:
        problems.append(("wrong", "fixed train does not repeat the reported pulse time n_pulses times"))

    heating = cfg["heating"]["rates"] if cfg["heating"]["enabled"] else None
    states, before_probe = oracle.protocol(pulses_oracle, p0, times, heating, cfg["timing"])
    if cfg["rdp"]["enabled"]:
        kept = before_probe * np.array([row[0] for row in pulses_oracle.table(seq["t_clear"])])
        states.append(kept)
        if len(hist_v) == len(states):
            _heating_agreement(problems, "dark-preparation success", _rel(hist_v[-1, 3], float(kept.sum())))
    if len(hist_v) != len(states):
        problems.append(("wrong", f"{len(hist_v)} history rows for {len(times)} pulses"))
        return problems
    worst = max(
        max(_rel(row[1], oracle.mean_n(p)), _rel(row[2], oracle.probe_nbar(p, eta, cfg["probe_time"])))
        for row, p in zip(hist_v, states)
    )
    if _rel(hist_v[0, 2], oracle.probe_nbar(p0, eta, cfg["probe_time"])) > 1e-9:
        problems.append(("wrong", "row-0 nbar_sb is not the sideband probe of the initial state"))
    if heating is None and worst > 1e-9:
        problems.append(("wrong", f"history <n> off the oracle by {worst:.2e} relative"))
    else:
        _heating_agreement(problems, "history <n> and nbar_sb", worst)
    return problems


def check_table1(cfg: dict, out: str, seed: int) -> list:
    problems = []
    rows = read_csv(os.path.join(out, "table1.csv"))
    eta = cfg["trap"]["eta"]
    window = (int(0.6 / eta**2), math.ceil(1.2 / eta**2))
    cells = {(r[0], float(r[1])): (float(r[2]), float(r[3])) for r in rows}
    expected = {(s, float(n)) for s in cfg["table1"]["schemes"] for n in cfg["table1"]["nbars"]}
    if set(cells) != expected or len(rows) != len(expected):
        problems.append(("wrong", "table1 rows do not cover the configured grid"))
        return problems
    for key, (t_ref, a_ref) in PAPER_TABLE1.items():
        if key in cells:
            t, a = cells[key]
            if abs(t - t_ref) > 0.01 or abs(a - a_ref) > 0.03:
                problems.append(("wrong", f"table1 {key}: (t, a) = ({t:.4f}, {a:.4f}) vs paper ({t_ref}, {a_ref})"))
    for (scheme, nbar), (t, a) in cells.items():
        g = oracle.chain_couplings(scheme)
        pulses = oracle.Pulses(g, eta, window[1] + len(g))
        p0 = oracle.thermal(nbar, pulses.n_max)
        a_oracle = oracle.suppression(pulses, t, p0, window)
        if _rel(a, a_oracle) > 1e-9:
            problems.append(("wrong", f"table1 {scheme} {nbar}: a = {a!r}, oracle a(t_opt) = {a_oracle!r}"))
        if min(oracle.suppression(pulses, t + dt, p0, window) for dt in (-0.005, 0.005)) < a_oracle:
            problems.append(("wrong", f"table1 {scheme} {nbar}: t_opt = {t!r} is not a local minimum of a(t)"))
    return problems


def check_pumping(cfg: dict, out: str, seed: int) -> list:
    problems = []
    summary = read_json(os.path.join(out, "pumping_summary.json"))
    rows = read_csv(os.path.join(out, "pumping_steps.csv"))
    steps = {(int(f), int(m)): float(s) for f, m, s in rows}
    uniform = summary["uniform_mean_steps"]
    if len(steps) != 45 or steps.get((7, 0)) != 0.0 or not all(
        0 < s < math.inf for k, s in steps.items() if k != (7, 0)
    ):
        problems.append(("wrong", "pumping steps: not 45 levels, dark state not 0, or a non-positive mean"))
    elif _rel(float(np.mean(list(steps.values()))), uniform) > 1e-12:
        problems.append(("wrong", "uniform mean steps is not the mean over levels"))
    if _rel(uniform, PUMPING_PAPER_MEAN) > 0.15:
        problems.append(("wrong", f"uniform mean steps {uniform:.3f} not within 15% of {PUMPING_PAPER_MEAN}"))
    mc = summary["monte_carlo"]
    if mc["n_trajectories"] != cfg["pumping"]["monte_carlo_trajectories"] or not mc["stderr"] > 0:
        problems.append(("wrong", "Monte Carlo summary malformed"))
    elif abs(mc["mean_steps"] - uniform) > 4 * mc["stderr"]:
        problems.append(("wrong", f"Monte Carlo {mc['mean_steps']:.4f} +- {mc['stderr']:.4f} vs exact {uniform:.4f}"))
    return problems


def check_transfer_matrix(cfg: dict, out: str, seed: int) -> list:
    problems = []
    manifest = read_json(os.path.join(out, "transfer_matrix_manifest.json"))
    tm = cfg["transfer_matrix"]
    eta = cfg["trap"]["eta"]
    g = oracle.chain_couplings(cfg["scheme"])
    if manifest["bandwidth"] != len(g) + 1 or [m["pulse_time"] for m in manifest["matrices"]] != tm["times"]:
        problems.append(("wrong", "transfer-matrix manifest does not match the configuration"))
        return problems
    rng = np.random.default_rng(seed)
    sampled = rng.choice(tm["n_max"] + 1, size=8, replace=False)
    for entry in manifest["matrices"]:
        t = entry["pulse_time"]
        with open(os.path.join(out, entry["csv"])) as fh:
            w = np.array([line.split(",") for line in fh if not line.startswith("#")], dtype=float)
        if w.shape != (tm["n_max"] + 1,) * 2:
            problems.append(("wrong", f"W({t}) has shape {w.shape}"))
            continue
        worst_sum = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
        if worst_sum > 1e-10:
            problems.append(("wrong", f"W({t}) row sum off 1 by {worst_sum:.2e}"))
        i, j = np.indices(w.shape)
        if np.any(w[(i - j < 0) | (i - j > len(g))]):
            problems.append(("wrong", f"W({t}) has entries outside its band"))
        for n in sampled:
            row = oracle.site_row(g, eta, int(n), t)
            err = float(np.max(np.abs(w[n, n - np.arange(len(row))] - row)))
            if err > 1e-8:
                problems.append(("wrong", f"W({t}) row {n} off the oracle by {err:.2e}"))
    return problems


def check_probe(cfg: dict, out: str, seed: int) -> list:
    problems = []
    rows = read_csv(os.path.join(out, "probe.csv"))
    v = np.array(rows, dtype=float)
    nbar = cfg["initial_nbar"]
    if not _all_finite(v) or len(v) != len(cfg["probe"]["times"]):
        problems.append(("wrong", "probe rows missing or not finite"))
        return problems
    worst = float(np.max(np.abs(v[:, 3] - nbar / (nbar + 1.0))))
    if worst > 1e-12:
        problems.append(("wrong", f"probe ratio off nbar/(nbar+1) by {worst:.2e}"))
    return problems


CHECKS = {
    "cool": check_cool,
    "table1": check_table1,
    "pumping": check_pumping,
    "transfer-matrix": check_transfer_matrix,
    "probe": check_probe,
}
