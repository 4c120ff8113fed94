"""Span tracing of drsc's public functions, installed from outside the package.

Every wrapped call records one span: name, start, end and the span that
was open when it began.  Spans live in flat arrays while the traced round
runs and are written out once, after it.  Self time is a span's duration
less the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path); a class attribute path wraps the
# method on the class, a function is wrapped in every drsc module that
# holds it, so names imported with ``from .x import f`` are traced too.
TARGETS = (
    ("manifold.build_coupling_chain", "manifold", "build_coupling_chain"),
    ("motional.sideband_coupling_ratios", "motional", "sideband_coupling_ratios"),
    ("chain_dynamics.ChainEvolver", "chain_dynamics", "ChainEvolver.__init__"),
    ("chain_dynamics.site_probabilities", "chain_dynamics", "ChainEvolver.site_probabilities"),
    ("chain_dynamics.apply_pulse", "chain_dynamics", "ChainEvolver.apply_pulse"),
    ("chain_dynamics.transfer_matrix", "chain_dynamics", "ChainEvolver.transfer_matrix"),
    ("cooling.optimize_global", "cooling", "optimize_global"),
    ("cooling.optimize_fixed_pulse", "cooling", "optimize_fixed_pulse"),
    ("cooling.dual_thermal_decompose", "cooling", "dual_thermal_decompose"),
    ("heating.propagate_heating", "heating", "propagate_heating"),
    ("heating.build_pumping_graph", "heating", "build_pumping_graph"),
    ("heating.mean_steps_to_dark", "heating", "mean_steps_to_dark"),
    ("heating.monte_carlo_steps", "heating", "monte_carlo_steps"),
    ("thermometry.end_to_end_protocol", "thermometry", "end_to_end_protocol"),
    ("thermometry.sideband_probe", "thermometry", "sideband_probe"),
    ("thermometry.rdp_filter", "thermometry", "rdp_filter"),
    ("thermometry.default_t_clear", "thermometry", "default_t_clear"),
    ("config.RunConfig.from_dict", "config", "RunConfig.from_dict"),
    ("config.RunConfig.config_hash", "config", "RunConfig.config_hash"),
)

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.pulses_returned = 0  # pulse durations returned by optimize_global
        self.kernel_bytes = 0  # eigen-coefficient bytes read by site_probabilities
        self.trajectories = 0  # Monte Carlo trajectories requested

    def wrap(self, name: str, fn, after=None):
        """fn wrapped to record spans called ``name`` (one name per wrap);
        after(args, kwargs, result) runs on each return."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every target found in ``modules`` (name -> module); absent ones are skipped."""
        for span, mod_name, path in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(span, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(span, raw, self._after(span, raw)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(span, fn, self._after(span, fn))
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def _after(self, span: str, fn):
        if span == "cooling.optimize_global":
            def count_pulses(args, kwargs, seq):
                self.pulses_returned += len(seq.times)
            return count_pulses
        if span == "chain_dynamics.site_probabilities":
            def count_bytes(args, kwargs, result):
                evolver = args[0]
                coeffs = getattr(evolver, "C", None)
                self.kernel_bytes += (
                    coeffs.nbytes
                    if isinstance(coeffs, np.ndarray)
                    else (evolver.n_max + 1) * evolver.n_sites**2 * 8
                )
            return count_bytes
        if span == "heating.monte_carlo_steps":
            signature = inspect.signature(fn)

            def count_trajectories(args, kwargs, result):
                self.trajectories += signature.bind(*args, **kwargs).arguments["n_trajectories"]
            return count_trajectories
        return None

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return (
            np.frombuffer(self.name_of, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            start,
            end,
        )

    def write(self, path) -> None:
        """All spans as CSV: index, name, parent index (-1 at the top), start, end."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            rows = zip(self.name_of, self.parent, self.start, self.end)
            for i, (nid, parent, start, end) in enumerate(rows):
                fh.write(f"{i},{self.names[nid]},{parent},{start!r},{end!r}\n")

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name_of, parent, start, end = self.arrays()
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            name: {
                "calls": int((name_of == nid).sum()),
                "s": float(dur[name_of == nid].sum()),
                "self_s": float((dur - covered)[name_of == nid].sum()),
            }
            for nid, name in enumerate(self.names)
        }

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        name_of, parent, _, _ = self.arrays()
        if name not in self.names or ancestor not in self.names:
            return 0
        target, top = self.names.index(name), self.names.index(ancestor)
        under = np.zeros(len(name_of), dtype=bool)
        for i, p in enumerate(parent.tolist()):
            under[i] = p >= 0 and (name_of[p] == top or under[p])
        return int(((name_of == target) & under).sum())


def drsc_modules() -> dict:
    """Loaded drsc submodules by short name, plus the package itself."""
    mods = {name.rpartition(".")[2]: m for name, m in sys.modules.items() if name.startswith("drsc.")}
    mods["drsc"] = sys.modules["drsc"]
    return mods


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, write_s: float, output_bytes: int) -> dict:
    """``<span>.calls``, ``.s`` (inclusive) and ``.self_s`` for every target,
    plus the derived layer metrics; a target never called reads 0."""
    stats = tracer.stats()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {
        f"{span}.{stat}": value
        for span, _, _ in TARGETS
        for stat, value in stats.get(span, empty).items()
    }
    og = stats.get("cooling.optimize_global", empty)
    mc = stats.get("heating.monte_carlo_steps", empty)
    kernel_in_og = tracer.calls_under("chain_dynamics.apply_pulse", "cooling.optimize_global")
    out["chain_dynamics.site_probabilities.bytes"] = tracer.kernel_bytes
    out["cooling.kernel_calls_per_pulse"] = (
        kernel_in_og / tracer.pulses_returned if tracer.pulses_returned else 0.0
    )
    out["cooling.optimize_global.wall_share"] = og["s"] / traced_wall
    out["heating.mc_trajectories_per_s"] = tracer.trajectories / mc["s"] if mc["s"] else 0.0
    out["cli.format_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith("cli.cmd_"))
    out["cli.write_s"] = write_s
    out["cli.output_bytes"] = output_bytes
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
