"""Command-line front end.

Subcommands: scatter, bounds, gp, tf, ll, regimes, charged, verify, validate.
Scalar results go to JSON records, curves and profiles to CSV.  All
outputs are deterministic for a fixed (config, seed); the only run-dependent
field is the timestamp.  Exit codes: 0 ok, 1 numeric failure, 2 config
error, 3 IO error.

Each subcommand imports the library module it runs inside its ``cmd_*``
function, so a query pays only for its own imports (numpy is the bulk of
import time, and no query's flows solve enough to load scipy); importing
this module loads only ``config``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import LL_TABLE, SCHEMA_VERSION, __version__
from .config import (ConfigError, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                     parse_config_file, parse_sweep, record_json,
                     validate_params, write_csv)

if TYPE_CHECKING:
    from .meanfield import TrapPotential
    from .scattering import RadialPotential


class NumericError(RuntimeError):
    """A result that is not finite; main() turns it into exit code 1."""


def _nonfinite_keys(outputs: dict) -> list[str]:
    bad = []
    for key, value in outputs.items():
        if isinstance(value, dict):
            bad += [f"{key}.{sub}" for sub in _nonfinite_keys(value)]
        elif isinstance(value, float) and not math.isfinite(value):
            bad.append(key)
    return bad


def _emit_record(args, outputs: dict, profile=None, **provenance) -> int:
    """Write ``profile`` to --profile-out (when given), then the JSON record;
    nothing is written when an output is not finite."""
    bad = _nonfinite_keys(outputs)
    if bad:
        raise NumericError(f"{args.subcommand}: non-finite {', '.join(bad)}")
    if profile is not None and args.profile_out:
        profile.export_csv(args.profile_out)
    provenance.update(package_version=__version__, schema_version=SCHEMA_VERSION)
    text = record_json(args.subcommand, _args_echo(args), outputs, provenance)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# --- subcommand implementations -------------------------------------------

def _potential_from_args(args) -> RadialPotential:
    from . import scattering
    if args.kind == "hard_core":
        return scattering.hard_core(args.R0, args.dim)
    if args.kind == "soft_sphere":
        if args.v0 is None:
            raise ConfigError("soft_sphere needs --v0")
        return scattering.soft_sphere(args.R0, args.v0, args.dim)
    if args.potential_file is None:
        raise ConfigError("tabulated potential needs --potential-file")
    try:
        v = scattering.load_potential(args.potential_file)
    except ValueError as exc:
        raise ConfigError(f"{args.potential_file}: {exc}") from None
    # the file's headers, not --dim and --R0, set what the solve uses: echo them
    args.dim, args.R0 = v.dimension, v.core_radius
    return v


def cmd_scatter(args) -> int:
    from . import scattering
    v = _potential_from_args(args)
    sol = scattering.solve_zero_energy(v, args.mu,
                                       scattering.GridSpec(args.n_grid))
    outputs = {"a": sol.a, "a_refined": sol.a_refined,
               "dimension": sol.dimension}
    if sol.dimension == 3 and sol.a > 0:
        outputs["s"] = sol.s
        # the identity's residual is the same at R = 2, 4 and 8 R0
        res = scattering.energy_identity_residual(sol, v, 2.0 * v.core_radius)["residual"]
        outputs["identity_residuals"] = dict.fromkeys(("2", "4", "8"), res)
    return _emit_record(args, outputs, sol, n_grid=args.n_grid)


def cmd_bounds(args) -> int:
    from . import homogeneous
    if args.sweep:
        import numpy as np
        _, lo, hi, n = parse_sweep(args.sweep)
        rows = []
        # Python floats, so that every cell is a float's repr; a = 1
        for Y in np.geomspace(lo, hi, n).tolist():
            out = homogeneous.bounds_3d(homogeneous.GasState3D(
                3.0 * Y / (4.0 * math.pi), 1.0, args.mu))
            rows.append((Y, out["lower"], out["lhy"], out["upper"]))
        bad = [row[0] for row in rows if not all(map(math.isfinite, row))]
        if bad:
            raise NumericError(f"bounds: non-finite row at Y={bad[0]!r}")
        write_csv(args.out or "bounds.csv", ["Y", "lower", "lhy", "upper"], rows)
        return EXIT_OK
    if args.dim == 3:
        st = homogeneous.GasState3D(args.rho, args.a, args.mu)
        return _emit_record(args, homogeneous.bounds_3d(st))
    st2 = homogeneous.GasState2D(args.rho, args.a, args.mu)
    return _emit_record(args, homogeneous.bounds_2d(st2))


def _trap_from_args(args) -> TrapPotential:
    from . import meanfield
    if args.trap == "harmonic":
        return meanfield.TrapPotential("harmonic")
    if args.trap == "box":
        return meanfield.TrapPotential("box", side=args.side)
    return meanfield.TrapPotential("homogeneous_power", exponent=args.s)


def cmd_gp(args) -> int:
    from . import meanfield
    trap = _trap_from_args(args)
    prob = meanfield.GPProblem(args.dim, args.N, args.coupling, args.mu, trap,
                               args.n_grid)
    prof, rep = meanfield.gp_minimize(prob)
    return _emit_record(args, {**rep.as_dict(), **rep.solve._asdict()},
                        prof, n_grid=args.n_grid)


def cmd_tf(args) -> int:
    from . import meanfield
    trap = _trap_from_args(args)
    prof, rep, mu_tf = meanfield.tf_solve(args.dim, args.N, args.coupling,
                                          trap, args.mu)
    outputs = rep.as_dict()
    outputs["mu_TF"] = mu_tf
    return _emit_record(args, outputs, prof)


def cmd_ll(args) -> int:
    if args.emit_curve:
        # the curve's CSV is the shipped table's t,e columns, header included
        with open(LL_TABLE) as src, open(args.emit_curve, "w") as dst:
            dst.writelines(line.rsplit(",", 1)[0] + "\n" for line in src)
        return EXIT_OK
    if args.t is None:
        raise ConfigError("ll needs --t or --emit-curve")
    from . import onedim
    curve = onedim.default_curve()
    return _emit_record(args, {"t": args.t, "e": curve.e(args.t),
                               "e_source": curve.e_source(args.t),
                               "e_table_mesh_error": curve.mesh_error})


def cmd_regimes(args) -> int:
    from . import onedim
    trap = onedim.ElongatedTrap(args.N, args.L, args.r, args.a, args.s,
                                args.transverse)
    return _emit_record(args, onedim.regime_classify(trap))


def cmd_charged(args) -> int:
    from . import charged
    if args.mode == "foldy":
        fc = charged.foldy_constant(args.mu)
        outputs = {"energy_per_particle": charged.foldy_law(args.rho, args.mu),
                   "I0": fc.i0, "x_integral": fc.x_integral,
                   "x_integral_quadrature": fc.x_integral_quadrature,
                   "note": charged.INFINITE_MASS_NOTE}
    elif args.mode == "dyson":
        tc = charged.two_component_energy(args.N, args.mu)
        outputs = {"energy": tc.energy, "E_star": tc.e_star,
                   "virial_residual": tc.virial_residual,
                   "length_scale": tc.length_scale,
                   "correlation_length": tc.correlation_length}
    elif args.mode == "local":
        le = charged.local_energy_integral(args.nu, args.ell, args.mu)
        outputs = {"value": le.value, "closed_form": le.closed_form,
                   "rel_deviation": le.rel_deviation}
    else:
        outputs = {"bound": charged.bogolubov_bound(args.A, args.B_plus,
                                                    args.B_minus)}
    return _emit_record(args, outputs)


def cmd_verify(args) -> int:
    if "numpy" not in sys.modules:
        # before BLAS loads: both of verify's workers then run one thread
        # each (two pools of two contend on two cores), and the scorecard's
        # bits do not depend on the thread count.  A caller that has loaded
        # numpy keeps its own pool
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    from . import verify
    t0 = time.perf_counter()
    card, timings = verify.run_all(args.seed)
    total = time.perf_counter() - t0
    text = json.dumps(card, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.timings_out:
        # a section's max_rss_mb is its own process's peak, and the two
        # processes overlap, so total is the suite's wall time, not the
        # sections' sum
        sidecar = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
                   "unit": "s", "total": total, **timings}
        with open(args.timings_out, "w") as fh:
            fh.write(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    return EXIT_OK if card["all_passed"] else EXIT_NUMERIC


def cmd_validate(args) -> int:
    sections = parse_config_file(args.config)
    parser = build_parser()
    problems = []
    for section, params in sections.items():
        problems += _section_values(parser, section, params)[1]
    if not sections:
        print("empty config; defaults apply")
    for p in problems:
        print(p)
    return EXIT_OK if not problems else EXIT_CONFIG


def _args_echo(args) -> dict:
    skip = {"config", "out", "profile_out"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None and not callable(v)}


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bosegas",
                                description="dilute/charged Bose gas numerics")
    p.add_argument("--config", help="sectioned key=value config file")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sc = sub.add_parser("scatter", help="zero-energy scattering solve")
    sc.add_argument("--kind", default="soft_sphere",
                    choices=["hard_core", "soft_sphere", "tabulated"])
    sc.add_argument("--R0", type=float, default=1.0)
    sc.add_argument("--v0", type=float)
    sc.add_argument("--dim", type=int, default=3, choices=[2, 3])
    sc.add_argument("--mu", type=float, default=1.0)
    sc.add_argument("--n-grid", type=int, default=4096)
    sc.add_argument("--potential-file")
    sc.add_argument("--profile-out")
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_scatter)

    b = sub.add_parser("bounds", help="homogeneous-gas energy bounds")
    b.add_argument("--dim", type=int, default=3, choices=[2, 3])
    b.add_argument("--rho", type=float, default=1e-4)
    b.add_argument("--a", type=float, default=1.0)
    b.add_argument("--mu", type=float, default=1.0)
    b.add_argument("--sweep", help="Y=lo:hi:n (3D sweep at a=1)")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    for name, fn in (("gp", cmd_gp), ("tf", cmd_tf)):
        # TF needs a homogeneous trap and no grid: only gp takes the box,
        # its side and --n-grid
        gp = name == "gp"
        g = sub.add_parser(name, help=f"{name.upper()} minimization")
        g.add_argument("--dim", type=int, default=3, choices=[2, 3])
        g.add_argument("--N", type=float, default=1.0)
        g.add_argument("--coupling", type=float, required=True,
                       help="a in 3D, alpha in 2D")
        g.add_argument("--mu", type=float, default=1.0)
        g.add_argument("--trap", default="harmonic",
                       choices=["harmonic", "homogeneous_power"]
                       + (["box"] if gp else []))
        g.add_argument("--s", type=float, default=2.0)
        if gp:
            g.add_argument("--side", type=float, default=1.0)
            g.add_argument("--n-grid", type=int, default=4096)
        g.add_argument("--profile-out")
        g.add_argument("--out")
        g.set_defaults(func=fn)

    ll = sub.add_parser("ll", help="Lieb-Liniger energy density")
    ll.add_argument("--t", type=float)
    ll.add_argument("--emit-curve", help="write the 200-node curve CSV here")
    ll.add_argument("--out")
    ll.set_defaults(func=cmd_ll)

    rg = sub.add_parser("regimes", help="classify an elongated trap")
    rg.add_argument("--N", type=float, required=True)
    rg.add_argument("--L", type=float, required=True)
    rg.add_argument("--r", type=float, required=True)
    rg.add_argument("--a", type=float, required=True)
    rg.add_argument("--s", type=float, default=2.0)
    rg.add_argument("--transverse", default="harmonic",
                    choices=["harmonic", "hard_wall"])
    rg.add_argument("--out")
    rg.set_defaults(func=cmd_regimes)

    cg = sub.add_parser("charged", help="charged-gas formulas")
    cg.add_argument("mode", choices=["foldy", "dyson", "local", "bogolubov"])
    cg.add_argument("--rho", type=float, default=1.0)
    cg.add_argument("--mu", type=float, default=1.0)
    cg.add_argument("--N", type=float, default=100.0)
    cg.add_argument("--nu", type=float, default=100.0)
    cg.add_argument("--ell", type=float, default=1.0)
    cg.add_argument("--A", type=float, default=1.0)
    cg.add_argument("--B-plus", type=float, default=0.5)
    cg.add_argument("--B-minus", type=float, default=0.0)
    cg.add_argument("--out")
    cg.set_defaults(func=cmd_charged)

    vf = sub.add_parser("verify", help="run the invariant suite")
    vf.add_argument("--seed", type=int, default=20240)
    vf.add_argument("--out")
    vf.add_argument("--timings-out",
                    help="write to this JSON file the wall seconds and "
                         "peak RSS of each section, the sections each worker "
                         "process ran, and the seconds of each check")
    vf.set_defaults(func=cmd_verify)

    vl = sub.add_parser("validate", help="check a config file without running")
    vl.add_argument("config")
    vl.set_defaults(func=cmd_validate)
    return p


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return parser._subparsers._group_actions[0].choices


def _section_values(parser: argparse.ArgumentParser, section: str,
                    params: dict) -> tuple[dict, list[str]]:
    """Parse the raw config values of ``[section]`` with the options of
    subcommand ``section``: each key (``n-grid`` or ``n_grid``) is converted
    by its option's own ``type`` and checked against its ``choices``, then
    range-checked.  Returns (values by option dest, problems)."""
    sub = _subparsers(parser).get(section)
    if sub is None:
        return {}, [f"{section}: unknown section"]
    actions = {action.dest: action for action in sub._actions
               if action.dest != "help"}
    parsed, problems = {}, []
    for key, raw in params.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            problems.append(f"{section}.{key}: unknown option")
            continue
        try:
            value = action.type(raw) if action.type else raw
        except (TypeError, ValueError):
            problems.append(f"{section}.{key}: invalid "
                            f"{action.type.__name__} value: {raw!r}")
            continue
        if action.choices is not None and value not in action.choices:
            problems.append(f"{section}.{key}: {raw!r} not one of "
                            f"{action.choices}")
            continue
        parsed[key] = value
    problems += validate_params(section, parsed)
    return ({key.replace("-", "_"): value for key, value in parsed.items()},
            problems)


def _apply_config(parser: argparse.ArgumentParser, path) -> None:
    """Check every section of config file ``path``, then make each one its
    subcommand's defaults: flags override them, and they fill required options."""
    problems, values = [], {}
    for section, params in parse_config_file(path).items():
        values[section], found = _section_values(parser, section, params)
        problems += found
    if problems:
        raise ConfigError("; ".join(problems))
    for section, parsed in values.items():
        sub = _subparsers(parser)[section]
        sub.set_defaults(**parsed)
        for action in sub._actions:
            if action.dest in parsed:
                action.required = False


def main(argv=None) -> int:
    program = argv is None
    argv = sys.argv[1:] if program else argv
    parser = build_parser()
    # --config is read first, so that its values can stand in for required
    # options; as a main-parser option it precedes the subcommand
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    config = pre.parse_known_args(argv)[0].config
    try:
        if config:
            _apply_config(parser, config)
        args = parser.parse_args(argv)
        # every option that is set, also those the record does not echo
        problems = validate_params(args.subcommand, {
            k: v for k, v in vars(args).items() if v is not None})
        if problems:
            raise ConfigError("; ".join(problems))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        # the program ends here: frozen objects skip the shutdown collection
        # (10-20 ms over numpy's objects; 60-110 ms once a flow past
        # flows._SCIPY_AFTER rows has loaded scipy too).  No output waits on
        # a collector: every file is closed by its ``with``, verify's pool
        # is joined
        if program:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
