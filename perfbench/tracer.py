"""In-memory spans around the public functions of the gravibar layers.

`Tracer.install` replaces every public function of the layer modules, and
`fock.DisplacementCache.matrix`, with a wrapper that records a span: name,
parent span, start and end. The wrapper goes into the defining module and
into every gravibar module that imported the function by name, so a caller
that switches modules stays traced. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
import tracemalloc

LAYERS = ("measurement", "fock", "waveform", "dynamics", "lattice",
          "sensitivity", "cli")

# Span fields, kept as lists for cheap appends on hot paths.
NAME, PARENT, ROOT, START, END, ATTRS = range(6)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ensemble_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg = a["cfg"]
    duration = cfg.t_meas if a["duration"] is None else a["duration"]
    n_traj = a.get("n_traj", 1)
    return {"traj_steps": n_traj * int(round(duration / cfg.dt)),
            "driven": a["signal"] is not None}


def _strain_attrs(fn, args, kwargs, result):
    return {"samples": int(result[0].size)}


def _chain_attrs(max_stable_timestep):
    def attrs(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        dt = a["dt"] if a["dt"] is not None else max_stable_timestep(a["chain"])
        t0, t1 = a["window"]
        return {"steps": int(math.ceil((t1 - t0) / dt))}
    return attrs


def _curve_attrs(fn, args, kwargs, result):
    return {"points": len(result)}


class Tracer:
    """Records spans while installed; `remove` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        stack = self._stack
        span = [name, stack[-1] if stack else -1, stack[0] if stack else sid,
                time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        stack.append(sid)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around benchmark code, such as one pass of a workload."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, attrs=None, memory: bool = False):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_(name)
            started = False
            if memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                close(span)
            extra = attrs(fn, args, kwargs, result) if attrs else None
            if memory:
                extra = dict(extra or {}, peak_bytes=peak)
            span[ATTRS] = extra
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        modules = {layer: importlib.import_module(f"gravibar.{layer}")
                   for layer in LAYERS}
        lattice = modules["lattice"]
        special = {
            "measurement.run_ensemble": (_ensemble_attrs, False),
            "measurement.run_trajectory": (_ensemble_attrs, False),
            "waveform.strain_samples": (_strain_attrs, False),
            "lattice.evolve_chain": (_chain_attrs(lattice.max_stable_timestep), False),
            "sensitivity.sensitivity_curve": (_curve_attrs, False),
            "dynamics.chi_quadrature": (None, True),
        }
        targets = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets.append((f"{layer}.{attr}", obj))
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gravibar" or n.startswith("gravibar."))]
        for name, fn in targets:
            attrs, memory = special.get(name, (None, False))
            traced = self._wrap(name, fn, attrs, memory)
            for holder in holders:
                for attr, obj in list(vars(holder).items()):
                    if obj is fn:
                        self._patches.append((holder, attr, obj))
                        setattr(holder, attr, traced)
        cache = modules["fock"].DisplacementCache
        self._patches.append((cache, "matrix", cache.matrix))
        cache.matrix = self._wrap("fock.DisplacementCache.matrix", cache.matrix)

    def remove(self) -> None:
        for holder, attr, obj in reversed(self._patches):
            setattr(holder, attr, obj)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "parent": s[PARENT],
                    "start_ns": s[START], "end_ns": s[END], "attrs": s[ATTRS],
                }) + "\n")


# -- per-layer metrics -----------------------------------------------------

class _Group:
    """Totals of the spans below one root span (the set-up or one pass)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.attrs: dict[tuple[str, str], float] = {}
        self.quiet = [0.0, 0]    # self seconds and trajectory-steps, drive off
        self.driven = [0.0, 0]   # the same with a drive
        self.quad_samples = 0
        self.quad_peak = 0

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def sec(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def self_sec(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get((name, key), 0)


def _groups(spans: list[list]) -> dict[int, _Group]:
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    groups: dict[int, _Group] = {}
    for sid, s in enumerate(spans):
        name = s[NAME]
        if s[PARENT] < 0:
            groups[sid] = _Group()
            continue
        g = groups[s[ROOT]]
        dur = (s[END] - s[START]) * 1e-9
        own = dur - child_ns[sid] * 1e-9
        g.calls[name] = g.calls.get(name, 0) + 1
        g.seconds[name] = g.seconds.get(name, 0.0) + dur
        g.self_seconds[name] = g.self_seconds.get(name, 0.0) + own
        attrs = s[ATTRS] or {}
        for key, value in attrs.items():
            if not isinstance(value, bool):
                g.attrs[(name, key)] = g.attrs.get((name, key), 0) + value
        if name in ("measurement.run_ensemble", "measurement.run_trajectory"):
            bucket = g.driven if attrs["driven"] else g.quiet
            bucket[0] += own
            bucket[1] += attrs["traj_steps"]
        elif name == "dynamics.chi_quadrature":
            g.quad_peak = max(g.quad_peak, attrs["peak_bytes"])
        elif name == "waveform.strain_samples":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != "dynamics.chi_quadrature":
                p = spans[p][PARENT]
            if p >= 0:
                g.quad_samples += attrs["samples"]
    return groups


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], active_step_frac: float) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass.

    Counts are those of the set-up plus one pass (every pass does the same
    work). Times are the set-up's plus the median over the traced passes.
    Self time is a span's time minus that of its child spans.
    """
    groups = _groups(spans)
    setup = [g for sid, g in groups.items() if spans[sid][NAME] == "setup"]
    passes = [g for sid, g in groups.items() if spans[sid][NAME] == "pass"]
    if not passes:
        raise ValueError("no traced pass")
    base = setup[0] if setup else _Group()

    def count(fn):
        return fn(base) + fn(passes[0])

    def seconds(fn):
        return fn(base) + statistics.median([fn(g) for g in passes])

    quiet_s = seconds(lambda g: g.quiet[0])
    quiet_steps = count(lambda g: g.quiet[1])
    driven_s = seconds(lambda g: g.driven[0])
    driven_steps = count(lambda g: g.driven[1])
    quiet_us = 1e6 * _ratio(quiet_s, quiet_steps)
    driven_us = 1e6 * _ratio(driven_s, driven_steps)
    # A driven step costs quiet_us outside the drive window, so
    # driven_us = (1 - f) * quiet_us + f * drive_on_us with f the active share.
    drive_on_us = 0.0
    if driven_steps and active_step_frac > 0.0:
        drive_on_us = (driven_us - (1.0 - active_step_frac) * quiet_us) / active_step_frac

    m: dict[str, float] = {
        "measurement.traj_steps": quiet_steps + driven_steps,
        "measurement.us_per_traj_step": 1e6 * _ratio(quiet_s + driven_s,
                                                     quiet_steps + driven_steps),
        "measurement.quiet_us_per_traj_step": quiet_us,
        "measurement.drive_on_us_per_traj_step": drive_on_us,
        "measurement.active_step_frac": active_step_frac,
    }
    for name in ("measurement.run_ensemble", "measurement.run_trajectory",
                 "measurement.detect_jump"):
        m[f"{name}.calls"] = count(lambda g: g.count(name))
        m[f"{name}.s"] = seconds(lambda g: g.sec(name))

    name = "fock.DisplacementCache.matrix"
    m[f"{name}.calls"] = count(lambda g: g.count(name))
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))
    m[f"{name}.us_per_call"] = 1e6 * _ratio(m[f"{name}.s"], m[f"{name}.calls"])

    name = "waveform.strain_samples"
    m[f"{name}.calls"] = count(lambda g: g.count(name))
    m[f"{name}.samples"] = count(lambda g: g.attr(name, "samples"))
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))

    name = "dynamics.chi_quadrature"
    m[f"{name}.calls"] = count(lambda g: g.count(name))
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))
    m[f"{name}.samples"] = count(lambda g: g.quad_samples)
    m[f"{name}.peak_mb"] = max(g.quad_peak for g in [base, *passes]) / 2**20
    name = "dynamics.displacement_beta"
    m[f"{name}.calls"] = count(lambda g: g.count(name))
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))

    name = "lattice.evolve_chain"
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))
    m[f"{name}.steps"] = count(lambda g: g.attr(name, "steps"))
    m[f"{name}.steps_per_s"] = _ratio(m[f"{name}.steps"], m[f"{name}.s"])
    m["lattice.normal_mode_frequencies.s"] = seconds(
        lambda g: g.sec("lattice.normal_mode_frequencies"))

    name = "sensitivity.sensitivity_curve"
    m[f"{name}.s"] = seconds(lambda g: g.sec(name))
    m[f"{name}.points_per_s"] = _ratio(count(lambda g: g.attr(name, "points")),
                                       m[f"{name}.s"])

    for cmd in ("cli.parse_config", "cli.cmd_chi", "cli.cmd_lattice_verify",
                "cli.cmd_sensitivity"):
        m[f"{cmd}.s"] = seconds(lambda g: g.sec(cmd))
    m["cli.cmd_simulate.self_s"] = seconds(lambda g: g.self_sec("cli.cmd_simulate"))
    return m
