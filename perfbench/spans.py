"""Span tracing of the bosegas modules, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: name (``module.function``),
start, end, parent span and the benchmark operation it belongs to.  The
package itself is not changed.  Spans stay in memory until ``dump``.

Private helpers (leading underscore), class methods and constructors are not
wrapped, so their time counts as self time of the public function that
called them.  ``quadrature`` is left unwrapped for the same reason: it is
reached only through the other modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# module name -> layer whose self time it counts towards
LAYER_OF = {
    "cli": "cli", "config": "cli", "onedim": "onedim", "flows": "flows",
    "meanfield": "meanfield", "scattering": "scattering",
    "charged": "charged", "oracles": "oracles",
    "homogeneous": "homogeneous", "verify": "verify",
}
KINDS_1D = ("full", "gp1d", "tf1d", "ll_no_grad", "gt")


def _solve_steps(args, kwargs) -> int:
    """Grid points a scattering solve integrates: n on the base grid plus
    2n on the refinement grid, from its GridSpec.  3D hard cores are solved
    in closed form and integrate none."""
    v = args[0] if args else kwargs["v"]
    spec = args[2] if len(args) > 2 else kwargs.get("grid_spec")
    n = spec.n if spec is not None else 4096
    if v.dimension == 3 and v.kind == "hard_core":
        return 0
    return 3 * n


def _attrs(name, args, kwargs, result) -> dict | None:
    if name == "onedim.minimize_1d":
        return {"kind": args[0] if args else kwargs["kind"]}
    if name == "flows.minimize_flow" and result is not None:
        return {"iterations": int(result.iterations)}
    if name == "scattering.solve_zero_energy":
        return {"steps": _solve_steps(args, kwargs)}
    return None


class Tracer:
    def __init__(self, id_prefix: str = ""):
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._prefix = id_prefix
        self.op = None
        self._originals: list[tuple] = []

    # --- recording -----------------------------------------------------
    def begin(self, name: str) -> dict:
        span = {"id": f"{self._prefix}{len(self.spans)}", "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span.update(attrs)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(span, _attrs(name, args, kwargs, result))
        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module, and rebind the
        names other bosegas modules imported with ``from .x import f``."""
        modules = {m: importlib.import_module(f"bosegas.{m}") for m in LAYER_OF}
        swap = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                swap[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and swap[id(value)][0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, swap[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def dump(self, path, extra=()) -> None:
        with open(path, "w") as fh:
            for span in list(extra) + self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the time covered by its direct children
    (calls are single-threaded, so children never overlap)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child.get(s["id"], 0.0)
            for s in spans}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counters and self times from a finished span list.  Spans
    whose name is not ``module.function`` of a traced module (benchmark
    operation spans) contribute nothing here."""
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in sorted(set(LAYER_OF.values()))
         if layer != "cli"}
    m["cli.main.self_s"] = 0.0
    m["cli.import_total_s"] = 0.0
    fn = {}
    builds = set()
    for s in spans:
        if s["name"] == "onedim.build_ll_curve":
            builds.add(s["parent"])
    for s in spans:
        name = s["name"]
        if name == "cli.import":
            m["cli.import_total_s"] += s["end"] - s["start"]
            continue
        module = name.split(".", 1)[0]
        if module not in LAYER_OF:
            continue
        layer = LAYER_OF[module]
        st = selfs[s["id"]]
        m["cli.main.self_s" if layer == "cli" else f"{layer}.self_s"] += st
        key = name
        if name == "onedim.minimize_1d":
            key = f"{name}.{s.get('kind')}"
        rec = fn.setdefault(key, {"calls": 0, "self_s": 0.0, "s": 0.0,
                                  "iterations": 0, "steps": 0, "builds": 0})
        rec["calls"] += 1
        rec["self_s"] += st
        rec["s"] += s["end"] - s["start"]
        rec["iterations"] += s.get("iterations", 0)
        rec["steps"] += s.get("steps", 0)
        rec["builds"] += s["id"] in builds

    def get(key, field):
        return fn.get(key, {}).get(field, 0.0 if field in ("s", "self_s") else 0)

    m["onedim.solve_ba_density.calls"] = get("onedim.solve_ba_density", "calls")
    m["onedim.solve_ba_density.self_s"] = get("onedim.solve_ba_density", "self_s")
    m["onedim.default_curve.s"] = get("onedim.default_curve", "s")
    m["onedim.default_curve.builds"] = get("onedim.default_curve", "builds")
    for kind in KINDS_1D:
        m[f"onedim.minimize_1d.{kind}.self_s"] = get(f"onedim.minimize_1d.{kind}", "self_s")
    calls = get("flows.minimize_flow", "calls")
    iters = get("flows.minimize_flow", "iterations")
    flow_s = get("flows.minimize_flow", "self_s")
    m["flows.minimize_flow.calls"] = calls
    m["flows.minimize_flow.iterations"] = iters
    m["flows.minimize_flow.self_s"] = flow_s
    m["flows.minimize_flow.ms_per_iter"] = 1e3 * flow_s / iters if iters else 0.0
    for key in ("meanfield.gp_minimize", "meanfield.tf_solve",
                "charged.dyson_functional_minimize", "scattering.load_potential",
                "scattering.energy_identity_residual", "oracles.poincare_check",
                "oracles.random_field", "oracles.exact_diag_delta_gas_1d"):
        m[f"{key}.self_s"] = get(key, "self_s")
    for key in ("oracles.fock_quadratic_ground", "oracles.localize_band_matrix"):
        m[f"{key}.calls"] = get(key, "calls")
        m[f"{key}.self_s"] = get(key, "self_s")
    steps = get("scattering.solve_zero_energy", "steps")
    solve_s = get("scattering.solve_zero_energy", "self_s")
    m["scattering.solve_zero_energy.calls"] = get("scattering.solve_zero_energy", "calls")
    m["scattering.solve_zero_energy.self_s"] = solve_s
    m["scattering.solve_zero_energy.steps"] = steps
    m["scattering.solve_zero_energy.us_per_step"] = 1e6 * solve_s / steps if steps else 0.0
    return m
