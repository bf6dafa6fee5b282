"""Run configuration, validation diagnostics, and result persistence.

Config files are flat sectioned key=value text (diff-friendly, no nesting):

    [bounds]
    dim = 3
    rho = 1e-4
    a = 0.1
    sweep = Y=1e-9:1e-4:50

JSON records (``record_json``) and the ``bounds`` sweep CSV (``write_csv``)
carry the schema version.  JSON floats use shortest round-trip decimals
(bit-exact reload), CSV numbers are written with repr for the same reason.
"""

from __future__ import annotations

import json
import math
import time

from . import SCHEMA_VERSION


class ConfigError(ValueError):
    pass


EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def parse_sweep(text: str) -> tuple[str, float, float, int]:
    """(name, lo, hi, n) of a ``NAME=lo:hi:n`` log-spaced sweep."""
    if "=" not in text:
        raise ConfigError(f"sweep spec {text!r} must look like Y=lo:hi:n")
    name, rest = text.split("=", 1)
    parts = rest.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep spec {text!r} must look like Y=lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"sweep spec {text!r} needs numbers lo:hi:n") from None
    if not (lo < hi):
        raise ConfigError(f"sweep bounds must be ordered: {text!r}")
    if n < 1:
        raise ConfigError("sweep needs at least one point")
    if lo <= 0:
        raise ConfigError("log sweep needs positive bounds")
    return name.strip(), lo, hi, n


def parse_config_file(path) -> dict:
    """Sectioned key=value text -> {section: {key: raw string}}."""
    sections: dict = {}
    current = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, val = (s.strip() for s in line.split("=", 1))
            # n-grid and n_grid name one option: either may appear once
            name = key.replace("-", "_")
            if any(k.replace("-", "_") == name for k in sections[current]):
                raise ConfigError(f"{path}:{lineno}: {current}.{name} is set twice")
            sections[current][key] = val
    return sections


# the coarsest grid any solver accepts (scattering.GridSpec enforces it too)
N_GRID_MIN = 16

_POSITIVE = {"rho", "a", "mu", "N", "L", "r", "R0", "s", "ell", "nu", "side"}
_NONNEGATIVE = {"coupling", "v0", "t",   # zero is physical (ideal gas etc.)
                "A", "B_plus", "B_minus", "seed"}
# keys that must be positive in one section only: TF has no zero-coupling limit
_SECTION_POSITIVE = {"tf": {"coupling"}}


def validate_params(section: str, params: dict) -> list[str]:
    """Return every violated range constraint of the parsed option values
    ``params`` (keys spelled with ``-`` or ``_``) as named field paths,
    without running anything."""
    problems = []
    positive = _POSITIVE | _SECTION_POSITIVE.get(section, set())
    for key, val in params.items():
        name = key.replace("-", "_")
        if name == "sweep":
            try:
                swept = parse_sweep(val)[0]
                if section == "bounds" and swept != "Y":
                    raise ConfigError(f"bounds sweeps Y only, got {swept!r}")
            except ConfigError as exc:
                problems.append(f"{section}.{key}: {exc}")
        elif name == "n_grid":
            if val < N_GRID_MIN:
                problems.append(f"{section}.{key}: must be an integer "
                                f">= {N_GRID_MIN}, got {val}")
        elif name in _POSITIVE or name in _NONNEGATIVE:
            if not math.isfinite(val):
                problems.append(f"{section}.{key}: must be finite, got {val}")
            elif name in positive and val <= 0:
                problems.append(f"{section}.{key}: must be positive, got {val}")
            elif val < 0:
                problems.append(f"{section}.{key}: must be nonnegative, got {val}")
    # ll --emit-curve copies the table and writes no record
    names = {key.replace("-", "_"): key for key in params}
    if section == "ll" and "emit_curve" in names:
        problems += [f"ll.{names[k]}: emit-curve writes the curve only, no "
                     f"record" for k in ("t", "out") if k in names]
    # the sweep runs Y at a = 1 in 3D only
    if section == "bounds" and params.get("sweep") and params.get("dim", 3) == 2:
        problems.append("bounds.dim: the Y sweep is 3D only, got dim = 2")
    if section == "bounds" and not problems:
        problems += _bounds_domain(params)
    # E0(N) ~ N^(7/5) E_star holds for N >= 1 (charged.two_component_energy)
    if section == "charged" and params.get("mode") == "dyson" \
            and 0 < params.get("N", 1.0) < 1:
        problems.append(f"charged.N: dyson needs N >= 1, got {params['N']}")
    # in 2D a zero potential leaves psi constant: no logarithmic asymptote,
    # no scattering length (scattering.solve_zero_energy)
    if section == "scatter" and params.get("kind", "soft_sphere") == "soft_sphere" \
            and params.get("dim", 3) == 2 and params.get("v0") == 0:
        problems.append(f"scatter.v0: a 2D soft sphere needs v0 > 0, "
                        f"got {params['v0']}")
    return problems


def _bounds_domain(params: dict) -> list[str]:
    """What ``homogeneous.bounds_3d``/``bounds_2d`` refuse of the given
    state, or of both ends of a sweep (Y at a = 1, 3D).  Checked once
    ``rho`` and ``a`` are both given; ``dim`` and ``mu`` take the parser's
    defaults."""
    from . import homogeneous
    mu = params.get("mu", 1.0)
    if params.get("sweep"):
        _, lo, hi, _ = parse_sweep(params["sweep"])
        states = [(3.0 * Y / (4.0 * math.pi), 1.0, mu) for Y in (lo, hi)]
        bounds = homogeneous.bounds_3d
    elif "rho" in params and "a" in params:
        states = [(params["rho"], params["a"], mu)]
        bounds = homogeneous.bounds_2d if params.get("dim", 3) == 2 \
            else homogeneous.bounds_3d
    else:
        return []
    problems = []
    for state in states:
        try:
            bounds(*state)
        except ValueError as exc:
            problems.append(f"bounds: {exc}")
    return problems


def record_json(subcommand: str, inputs: dict, outputs: dict,
                provenance: dict) -> str:
    """The JSON record of one run: inputs echo, outputs and provenance,
    stamped with the schema version and the time; a float that is not
    finite raises ValueError rather than write invalid JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": provenance,
        "timestamp": time.time(),
    }
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)


def write_csv(path, header: list[str], rows) -> None:
    """Rows of Python numbers, each cell written as its repr."""
    with open(path, "w") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
