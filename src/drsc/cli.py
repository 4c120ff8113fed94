"""Command-line front end: reproducible runs emitting CSV/JSON datasets.

Every subcommand validates its configuration first, computes everything
in memory, and only then writes files, so a failing run leaves no
partial outputs.  Outputs carry the config hash and artifact version and
contain no timestamps; identical config and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from decimal import Decimal
from itertools import repeat

import numpy as np

from . import __version__
from .chain_dynamics import ChainEvolver, _PulseTables, cached_evolver
from .config import ConfigError, RunConfig
from .cooling import (
    _GRID_COLUMNS,
    PulseSequence,
    asymptotic_window,
    dual_thermal_decompose,
    heuristic_sequence,
    optimize_fixed_pulse,
    optimize_fixed_pulses,
    optimize_global,
)
from .heating import (
    build_pumping_graph,
    monte_carlo_steps,
    recoil_heating_estimate,
    steps_to_dark,
)
from .motional import default_n_max, thermal_distribution
from .thermometry import end_to_end_protocol, sideband_probe

# single-pulse optima (t, a) quoted for comparison in the table output
REFERENCE_OPTIMA = {
    ("F7", 10.0): (0.173, 0.633),
    ("F7", 20.0): (0.169, 0.787),
    ("F7", 30.0): (0.167, 0.850),
    ("F7", 40.0): (0.166, 0.884),
    ("F8", 10.0): (0.639, 0.348),
    ("F8", 20.0): (0.644, 0.577),
    ("F8", 30.0): (0.645, 0.689),
    ("F8", 40.0): (0.645, 0.754),
}


def _fmt(x) -> str:
    return repr(float(x))


def _reprs(values: np.ndarray) -> list[str]:
    """list(map(repr, values.tolist())) for a 1-D float64 array, string for
    string, in about a quarter of the time.  orjson writes the same
    shortest round-trip digits as repr; its layout differs in three
    magnitude bands, each mended on its own dump.  Comparing |x| with the
    doubles 1e-9, 1e-5, 1e-4 and 1e16 puts every value in its band, since
    a double below the double nearest 10^k has a shortest form below 10^k."""
    # imported on first use: its ~3 ms and 0.8 MB stay out of start-up, and
    # probe, pumping, table1 and optimize never pay them
    import orjson

    size = np.abs(values)
    finite = size <= sys.float_info.max
    bands = (
        # the layouts agree: 0.0, 5e-324, 1e-10, 0.000125, 123.0
        ((size < 1e-9) | (1e-4 <= size) & (size < 1e16), lambda text: text),
        # orjson writes 1e-7 where repr writes 1e-07
        ((1e-9 <= size) & (size < 1e-5), lambda text: text.replace("e-", "e-0")),
        # orjson writes 1e16 where repr writes 1e+16
        ((1e16 <= size) & finite, lambda text: text.replace("e", "e+")),
    )
    texts = np.empty(len(values), dtype=object)
    for band, mend in bands:
        if band.any():
            dump = orjson.dumps(values[band], option=orjson.OPT_SERIALIZE_NUMPY)
            texts[band] = mend(dump[1:-1].decode()).split(",")
    # orjson writes 0.0000125 where repr writes 1.25e-05, and null for a nan
    # or an infinity, which the finite-artifact check would not see
    rest = ~finite | (1e-5 <= size) & (size < 1e-4)
    if rest.any():
        texts[rest] = list(map(repr, values[rest].tolist()))
    return texts.tolist()


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {"config_sha256": cfg.config_hash(), "artifact_version": __version__}
    meta.update(extra)
    return meta


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def _csv(meta: dict, columns: list[str], rows: list[list]) -> str:
    return _csv_lines(meta, columns, [",".join(_cell(cell) for cell in row) for row in rows])


def _csv_lines(meta: dict, columns: list[str], lines: list[str]) -> str:
    """CSV text from data lines that are already formatted."""
    header = [f"# {k}: {v}" for k, v in meta.items()]
    return "\n".join(header + [",".join(columns)] + lines) + "\n"


def _json(meta: dict, payload: dict) -> str:
    return json.dumps({"metadata": meta, **payload}, sort_keys=True, indent=2) + "\n"


def _banded_json(meta: dict, payload: dict, bands: list[list[str]]) -> str:
    """_json(meta, {**payload, "bands": bands}), byte for byte, from bands
    whose floats are already written by repr, as json.dumps writes them;
    the lists are joined by hand because indent sends json.dumps to its
    pure-Python encoder, which takes twice as long.  A non-finite float
    reads nan or inf, not NaN or Infinity, and either spelling fails the
    finite-artifact check."""
    lists = ",\n".join(
        "    [\n      " + ",\n      ".join(band) + "\n    ]" if band else "    []"
        for band in bands
    )
    # "bands" sorts first among the keys, so the first match is its own
    text = _json(meta, {**payload, "bands": None})
    return text.replace('"bands": null', '"bands": [\n' + lists + "\n  ]", 1)


def _window_n_max(cfg: RunConfig, n_steps: int) -> int:
    """Truncation covering the suppression window plus the band of a chain
    of n_steps steps."""
    return asymptotic_window(cfg.trap.eta)[1] + n_steps


def _initial_n_max(cfg: RunConfig, n_steps: int) -> int:
    return max(default_n_max(cfg.initial_nbar, cfg.coverage), _window_n_max(cfg, n_steps))


def _probe_n_max(cfg: RunConfig) -> int:
    # retaining all but 1e-12 of the thermal mass keeps the sideband ratio's
    # truncation bias below 1e-12 relative (n_max 1119 at nbar 40)
    nbar = cfg.initial_nbar
    return max(default_n_max(nbar, cfg.coverage), default_n_max(nbar, 1 - 1e-12), 400)


def _initial_state(cfg: RunConfig, chain):
    """Thermal start truncated to cover the suppression window plus band."""
    return thermal_distribution(cfg.initial_nbar, _initial_n_max(cfg, len(chain.steps)))


# no single array a command allocates may exceed this; the largest in the
# benchmark workloads is 1.3 MB, cool_fixed_hot's heating eigenvectors
_ARRAY_BUDGET_BYTES = 2**28


def _largest_array_bytes(command: str, cfg: RunConfig) -> int:
    """Bytes of the largest array the command allocates: the largest
    ChainEvolver.nbytes, _PulseTables.nbytes or _PulseTables.grid_nbytes
    over its plan (a _Workspace holds none larger than its kernel),
    table1's stacked starts, cool's dense heating eigenvectors, or the
    probe's populations.  A chain is sized at its length bound,
    cfg.scheme.max_steps(), uncapped by n_max: one too long for the budget
    is refused without its walk, which takes over a minute at f 3000.
    cool's state array is a quarter of its snapshot text, which the output
    budget holds below 64 MiB."""

    def window_search(n_sites, n_starts=1):
        n_lo, n_hi = asymptotic_window(cfg.trap.eta)
        n_rows = n_hi - n_lo + n_sites
        return [
            _PulseTables.nbytes(n_rows, n_sites, 1),
            _PulseTables.nbytes(n_rows, n_sites, _GRID_COLUMNS, derivative=False),
            _PulseTables.grid_nbytes(n_rows, n_sites, _GRID_COLUMNS, n_starts),
        ]

    if command == "table1":
        n_starts = len(cfg.table1.nbars)
        steps = [len(type(cfg.scheme).parse(name).build().steps) for name in cfg.table1.schemes]
        return max(
            max(
                ChainEvolver.nbytes(_window_n_max(cfg, n) + 1, n + 1),
                # cmd_table1's thermal states, stacked for the search
                n_starts * (_window_n_max(cfg, n) + 1) * 8,
                *window_search(n + 1, n_starts),
            )
            for n in steps
        )
    if command == "probe":
        return (_probe_n_max(cfg) + 2) * 8
    if command == "pumping":
        return 0
    n_sites = cfg.scheme.max_steps() + 1
    if command == "transfer-matrix":
        # its one-time kernels hold less than the evolver's C
        return ChainEvolver.nbytes(cfg.transfer_matrix.n_max + 1, n_sites)
    n_rows, strategy = _initial_n_max(cfg, n_sites - 1) + 1, cfg.strategy
    sizes = [ChainEvolver.nbytes(n_rows, n_sites)]
    # optimize_global's pulses, at the heuristic's initial n_max too
    n_global = {"global_opt": strategy.n_pulses, "heuristic": strategy.n_final}.get(strategy.kind)
    if n_global:
        sizes.append(_PulseTables.nbytes(n_rows, n_sites, n_global))
        sizes.append(_PulseTables.nbytes(n_rows, n_sites, _GRID_COLUMNS, derivative=False))
    if strategy.kind == "heuristic" or strategy.kind == "fixed" and strategy.fixed_time is None:
        sizes += window_search(n_sites)
    if command == "cool":
        # the tables of the distinct pulse times; a heuristic's fixed pulses share one
        n_times = 1 if n_global is None else n_global + (strategy.kind == "heuristic")
        sizes.append(_PulseTables.nbytes(n_rows, n_sites, n_times, derivative=False))
        sizes.append(n_rows**2 * 8 if cfg.heating.enabled else 0)
    return max(sizes)


# no command may write more text than this; the largest benchmark output,
# the snapshot CSV of 150 pulses at n_max 400, is 1.6 MB
_OUTPUT_BUDGET_BYTES = 2**26
# a written line or list entry holding one float: up to 24 characters of
# repr plus indices, separators and indentation
_LINE_BYTES = 32


def _output_bytes(command: str, cfg: RunConfig) -> int:
    """Estimated bytes of the text that grows with the config: that of
    _sequence_bytes, and at least 4 bytes ("0.0,") per dense
    transfer-matrix entry.  A heuristic sequence is sized by its final
    stage alone, because its fixed stage's length is known only once its
    pulse time is optimized; cool and optimize size it again when built."""
    if command in ("cool", "optimize"):
        strategy = cfg.strategy
        n_pulses = strategy.n_final if strategy.kind == "heuristic" else strategy.n_pulses
        n_max = _initial_n_max(cfg, len(cfg.scheme.build().steps))
        return _sequence_bytes(command, n_pulses, n_max)
    if command == "transfer-matrix":
        return len(cfg.transfer_matrix.times) * (cfg.transfer_matrix.n_max + 1) ** 2 * 4
    return 0


def _sequence_bytes(command: str, n_pulses: int, n_max: int) -> int:
    """Bytes of cool's and optimize's text for n_pulses pulses: up to 8
    lines per pulse of pulse times, history, trace and evaluation counts,
    and cool's snapshot rows, one per phonon number after each pulse."""
    lines = 8 * n_pulses
    if command == "cool":
        lines += (n_pulses + 2) * (n_max + 1)
    return lines * _LINE_BYTES


def _check_output_bytes(command: str, size: int) -> None:
    """ConfigError when size is over the output budget; the size is an
    exact int beyond float's range, so it is formatted as a Decimal."""
    if size > _OUTPUT_BUDGET_BYTES:
        raise ConfigError(
            f"{command} would write about {Decimal(size) / 2**20:.4g} MiB of text, "
            f"over the {_OUTPUT_BUDGET_BYTES / 2**20:.4g} MiB budget"
        )


# what repr and json write for a nan or an infinity, as a whole word
_NON_FINITE = re.compile(r"(?<![\w.])(?:nan|inf|NaN|Infinity)(?![\w.])")


def _has_non_finite(text: str) -> bool:
    # the regex is tried only where str.find sees a word's first letter:
    # 0.3 ms on a 1.6 MB snapshot CSV, where a regex search takes 60 ms
    for first in "niNI":
        i = text.find(first)
        while i >= 0:
            if _NON_FINITE.match(text, i):
                return True
            i = text.find(first, i + 1)
    return False


def _build_sequence(cfg: RunConfig, chain, init) -> tuple[PulseSequence, dict]:
    """Sequence per the configured strategy, plus details for the manifest."""
    kind = cfg.strategy.kind
    details: dict = {"strategy": kind}
    if kind == "fixed":
        if cfg.strategy.fixed_time is not None:
            t = cfg.strategy.fixed_time
        else:
            t, a = optimize_fixed_pulse(chain, cfg.trap, init)
            details["a_opt"] = a
        details["pulse_time"] = t
        seq = PulseSequence(times=(t,) * cfg.strategy.n_pulses, strategy="fixed")
    elif kind == "global_opt":
        trace: list = []
        seq = optimize_global(chain, cfg.trap, init, cfg.strategy.n_pulses, trace=trace)
        details["trace"] = trace
        details["n_evals"] = list(seq.n_evals)
        details["converged"] = seq.converged
    else:
        seq = heuristic_sequence(
            chain,
            cfg.trap,
            init,
            tail_target=cfg.strategy.tail_target,
            n_final=cfg.strategy.n_final,
        )
        details["tail_target"] = cfg.strategy.tail_target
        details["n_final"] = cfg.strategy.n_final
    return seq, details


def _transfer_matrix_texts(meta: dict, site_p: np.ndarray, bandwidth: int) -> tuple[str, str]:
    """One pulse's table as a dense CSV, W[i, j] = P(i -> j), and as banded
    JSON, bands[k][i - k] = P(i -> i - k), with every entry written once by
    _reprs as repr writes it; the strings die with the call, so one matrix's
    are alive at a time."""
    n_max, n_sites = site_p.shape[0] - 1, site_p.shape[1]
    flat = _reprs(site_p.ravel())
    reprs = [flat[i : i + n_sites] for i in range(0, len(flat), n_sites)]
    # bands[k] holds rows k.. of column k; bands past n_max are empty when
    # the chain is longer than the ladder
    bands = [column[k:] for k, column in enumerate(zip(*reprs))]
    bands += [[]] * (bandwidth - n_sites)
    # dense row i holds W[i, j] = site_p[i, i - j], nonzero only for j in
    # [lo, i]: its band reversed, between runs of "0.0"
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    for i, row in enumerate(reprs):
        lo = max(0, i - n_sites + 1)
        lines.append("0.0," * lo + ",".join(row[i - lo :: -1]) + ",0.0" * (n_max - i))
    banded = _banded_json(meta, {"n_max": n_max, "bandwidth": bandwidth}, bands)
    return "\n".join(lines) + "\n", banded


def cmd_transfer_matrix(cfg: RunConfig) -> dict[str, str]:
    """Each pulse as a dense matrix and as its bands, both read off the
    banded table."""
    chain = cfg.scheme.build()
    n_max = cfg.transfer_matrix.n_max
    evolver = cached_evolver(chain, cfg.trap, n_max)
    files: dict[str, str] = {}
    manifest_entries = []
    base_meta = _meta(cfg)
    for idx, t in enumerate(cfg.transfer_matrix.times):
        name = f"transfer_matrix_{idx:02d}"
        meta = {**base_meta, "pulse_time": _fmt(t), "bandwidth": chain.bandwidth}
        files[f"{name}.csv"], files[f"{name}.json"] = _transfer_matrix_texts(
            meta, evolver.site_probabilities(t), chain.bandwidth
        )
        manifest_entries.append({"pulse_time": t, "csv": f"{name}.csv", "banded": f"{name}.json"})
    files["transfer_matrix_manifest.json"] = _json(
        base_meta,
        {
            "n_max": n_max,
            "bandwidth": chain.bandwidth,
            "matrices": manifest_entries,
        },
    )
    return files


def cmd_cool(cfg: RunConfig) -> dict[str, str]:
    chain = cfg.scheme.build()
    init = _initial_state(cfg, chain)
    seq, details = _build_sequence(cfg, chain, init)
    _check_output_bytes("cool", _sequence_bytes("cool", len(seq.times), init.n_max))
    report = end_to_end_protocol(
        chain,
        cfg.trap,
        seq,
        init,
        heating_rates=cfg.heating.rates if cfg.heating.enabled else None,
        timing=cfg.timing,
        probe_time=cfg.probe_time,
        rdp=cfg.rdp.enabled,
        t_clear=cfg.rdp.t_clear,
    )

    history_rows = []
    for k, (nb, nsb) in enumerate(zip(report.nbar_history, report.nbar_sb_history)):
        success = report.success_probability if (cfg.rdp.enabled and k == len(report.nbar_history) - 1) else 1.0
        history_rows.append([k, nb, nsb, success])
    # formatted as _csv would: each pulse's rows joined at C level from its
    # index, the ",n," middles built once, and its probabilities as repr
    # writes them, one _reprs call per pulse (one call on all pulses
    # stacked is no faster and peaks 4.4 MB higher); every state is on
    # init's ladder
    middles = [f",{n}," for n in range(init.n_max + 1)]
    snapshot_lines = [
        "\n".join(map("".join, zip(repeat(str(k)), middles, _reprs(row))))
        for k, row in enumerate(report.history)
    ]

    # the model's geometric tail decay is that of one repeated pulse
    fit_payload: dict = {"error": f"not run: the fit needs a fixed sequence, not {seq.strategy}"}
    if seq.strategy == "fixed":
        try:
            fit_payload = asdict(
                dual_thermal_decompose(report.history[: len(seq.times) + 1], cfg.trap.eta)
            )
        except ValueError as exc:
            fit_payload = {"error": str(exc)}

    meta = _meta(cfg, heating_on=cfg.heating.enabled, rdp_applied=cfg.rdp.enabled)
    return {
        "cool_history.csv": _csv(
            meta, ["pulse", "nbar", "nbar_sb", "success_probability"], history_rows
        ),
        "cool_snapshots.csv": _csv_lines(meta, ["pulse", "n", "prob"], snapshot_lines),
        "cool_sequence.json": _json(
            meta,
            {
                "strategy": seq.strategy,
                "times": list(seq.times),
                "scheme": cfg.scheme.describe(),
                "t_clear": report.t_clear,
                "details": details,
            },
        ),
        "cool_suppression_fit.json": _json(meta, fit_payload),
    }


def cmd_table1(cfg: RunConfig) -> dict[str, str]:
    rows = []
    for scheme_name in cfg.table1.schemes:
        chain = type(cfg.scheme).parse(scheme_name).build()
        n_max = _window_n_max(cfg, len(chain.steps))
        inits = [thermal_distribution(nbar, n_max) for nbar in cfg.table1.nbars]
        optima = optimize_fixed_pulses(chain, cfg.trap, inits)
        for nbar, (t_opt, a_opt) in zip(cfg.table1.nbars, optima):
            ref = REFERENCE_OPTIMA.get((scheme_name, nbar))
            if ref is not None:
                t_ref, a_ref = ref
                rows.append(
                    [scheme_name, nbar, t_opt, a_opt, t_ref, a_ref, t_opt - t_ref, a_opt - a_ref]
                )
            else:
                rows.append([scheme_name, nbar, t_opt, a_opt, "", "", "", ""])
    return {
        "table1.csv": _csv(
            _meta(cfg, eta=_fmt(cfg.trap.eta)),
            ["scheme", "nbar_initial", "t_opt", "a_opt", "t_ref", "a_ref", "delta_t", "delta_a"],
            rows,
        )
    }


def cmd_pumping(cfg: RunConfig) -> dict[str, str]:
    graph = build_pumping_graph(cfg.pumping.beams)
    steps = steps_to_dark(graph)
    per_state_rows = [[str(f), str(m), x] for (f, m), x in zip(graph.states, steps.tolist())]
    uniform = float(steps.mean())
    from_7p1 = float(steps[graph.index((7, 1))])
    from_7m1 = float(steps[graph.index((7, -1))])
    recoil = {
        channel: recoil_heating_estimate(rate, uniform, cfg.trap.eta, cfg.pumping.geometry)
        for channel, rate in cfg.pumping.scatter_rates.items()
    }
    summary: dict = {
        "uniform_mean_steps": uniform,
        "mean_steps_from_7_plus1": from_7p1,
        "mean_steps_from_7_minus1": from_7m1,
        "recoil_heating_quanta_per_s": recoil,
        "beams": [b.label for b in graph.beams],
    }
    if cfg.pumping.monte_carlo_trajectories > 0:
        mc_mean, mc_stderr = monte_carlo_steps(
            graph, cfg.pumping.monte_carlo_trajectories, seed=cfg.seed
        )
        summary["monte_carlo"] = {
            "n_trajectories": cfg.pumping.monte_carlo_trajectories,
            "mean_steps": mc_mean,
            "stderr": mc_stderr,
        }
    meta = _meta(cfg)
    return {
        "pumping_steps.csv": _csv(meta, ["f", "m", "mean_steps"], per_state_rows),
        "pumping_summary.json": _json(meta, summary),
    }


def cmd_probe(cfg: RunConfig) -> dict[str, str]:
    dist = thermal_distribution(cfg.initial_nbar, _probe_n_max(cfg))
    rows = []
    for tau in cfg.probe.times:
        r = sideband_probe(dist, cfg.trap, tau)
        rows.append([tau, r.p_red, r.p_blue, r.p_red / r.p_blue, r.nbar_sb])
    expected = cfg.initial_nbar / (cfg.initial_nbar + 1.0)
    meta = _meta(cfg, nbar=_fmt(cfg.initial_nbar), thermal_ratio=_fmt(expected))
    return {
        "probe.csv": _csv(meta, ["probe_time", "p_red", "p_blue", "ratio", "nbar_sb"], rows)
    }


def cmd_optimize(cfg: RunConfig) -> dict[str, str]:
    chain = cfg.scheme.build()
    init = _initial_state(cfg, chain)
    seq, details = _build_sequence(cfg, chain, init)
    _check_output_bytes("optimize", _sequence_bytes("optimize", len(seq.times), init.n_max))
    meta = _meta(cfg)
    files = {
        "optimize_sequence.json": _json(
            meta,
            {
                "strategy": seq.strategy,
                "times": list(seq.times),
                "scheme": cfg.scheme.describe(),
                "converged": seq.converged,
                "details": {k: v for k, v in details.items() if k != "trace"},
            },
        )
    }
    if "trace" in details:
        files["optimize_trace.csv"] = _csv(
            meta,
            ["iteration", "objective", "n_evals"],
            [[k, v, n] for (k, v), n in zip(details["trace"], details["n_evals"])],
        )
    return files


_COMMANDS = {
    "transfer-matrix": cmd_transfer_matrix,
    "cool": cmd_cool,
    "table1": cmd_table1,
    "pumping": cmd_pumping,
    "probe": cmd_probe,
    "optimize": cmd_optimize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsc",
        description="Degenerate Raman sideband cooling simulator and optimizer",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "transfer-matrix": "emit single-pulse transfer matrices W(t)",
        "cool": "run a cooling protocol and emit histories and snapshots",
        "table1": "sweep single-pulse optima over schemes and initial nbar",
        "pumping": "analyze the optical-pumping scattering walk",
        "probe": "sideband-ratio thermometry of a thermal state",
        "optimize": "compute a pulse sequence without running the protocol",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the random seed")
        sp.add_argument("--out", metavar="DIR", help="override the output directory")
        sp.add_argument("--no-heating", action="store_true", help="disable heating channels")
        sp.add_argument("--rdp", action="store_true", help="enable dark-preparation filtering")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict({})
        cfg = cfg.with_overrides(
            seed=args.seed,
            out_dir=args.out,
            heating_enabled=False if args.no_heating else None,
            rdp_enabled=True if args.rdp else None,
        )
        # makedirs needs the nearest existing part of the path to be a directory
        existing = os.path.abspath(cfg.out_dir)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"output directory {cfg.out_dir!r}: {existing!r} is not a directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        # the sizes are exact ints beyond float's range; format them as Decimals
        size = _largest_array_bytes(args.command, cfg)
        if size > _ARRAY_BUDGET_BYTES:
            raise ConfigError(
                f"{args.command} would allocate an array of about {Decimal(size) / 2**20:.4g} MiB, "
                f"over the {_ARRAY_BUDGET_BYTES / 2**20:.4g} MiB budget"
            )
        _check_output_bytes(args.command, _output_bytes(args.command, cfg))
        files = _COMMANDS[args.command](cfg)
        non_finite = [name for name, content in files.items() if _has_non_finite(content)]
        if non_finite:
            raise FloatingPointError(f"non-finite number in {', '.join(non_finite)}")
    # before ValueError, which LinAlgError subclasses
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(cfg.out_dir, name)
        with open(path, "w") as fh:
            fh.write(content)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
