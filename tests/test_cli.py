import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bosegas import SCHEMA_VERSION, cli
from bosegas.config import (_NONNEGATIVE, _POSITIVE, _SECTION_POSITIVE,
                            ConfigError, parse_config_file, parse_sweep,
                            record_json, validate_params, write_csv)


def run_cli(*argv):
    return cli.main(list(argv))


def same_major(version) -> bool:
    """Whether a schema version has this package's major version."""
    return str(version).split(".", 1)[0] == SCHEMA_VERSION.split(".", 1)[0]


def read_record(path) -> dict:
    """The JSON record at ``path``, whose schema major version must be ours."""
    record = json.loads(Path(path).read_text())
    assert same_major(record["schema_version"]), record["schema_version"]
    return record


def read_csv(path):
    """Header and float rows of a CSV that ``write_csv`` wrote; a file
    without a supported schema_version line is a ConfigError."""
    with open(path) as fh:
        first = fh.readline().strip()
        if not (first.startswith("# schema_version=")
                and same_major(first.split("=", 1)[1])):
            raise ConfigError(f"{path}: no supported schema_version header")
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, rows


def test_sweep_spec_parsing():
    assert parse_sweep(" Y =1e-9:1e-4:50") == ("Y", 1e-9, 1e-4, 50)
    with pytest.raises(ConfigError, match="must be ordered"):
        parse_sweep("Y=5:1:10")
    with pytest.raises(ConfigError, match="must look like"):
        parse_sweep("Y=1:2")
    with pytest.raises(ConfigError, match="needs numbers"):
        parse_sweep("Y=a:1e-4:3")
    with pytest.raises(ConfigError, match="at least one point"):
        parse_sweep("Y=1e-9:1e-4:0")
    # every sweep is log-spaced: no scale suffix, and no bound at or below 0
    for spec in ("Y=1e-9:1e-4:3:log", "Y=1e-9:1e-4:3:lin", "Y=-1:1e-4:5"):
        with pytest.raises(ConfigError):
            parse_sweep(spec)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
       lo=st.floats(1e-100, 1e100), ratio=st.floats(1.0 + 1e-6, 1e6),
       n=st.integers(1, 500))
def test_sweep_spec_values_and_round_trip(name, lo, ratio, n):
    # the points bounds --sweep runs: n Python floats from lo to hi
    hi = lo * ratio
    assert parse_sweep(f"{name}={lo!r}:{hi!r}:{n}") == (name, lo, hi, n)
    v = np.geomspace(lo, hi, n).tolist()
    assert len(v) == n and v[0] == lo and type(v[0]) is float
    if n >= 2:
        assert v[-1] == hi
        assert np.all(np.diff(v) > 0)


def test_linear_sweep_is_config_error(tmp_path, capsys):
    # a Y sweep spans decades, and a bound at or below 0 has no log spacing
    out = tmp_path / "sweep.csv"
    assert run_cli("bounds", "--sweep", "Y=-1:1e-4:5:lin", "--out", str(out)) == 2
    assert "bounds.sweep" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "sweep.cfg"
    for spec in ("Y=-1:1e-4:5:lin", "Y=1e-9:1e-4:5:lin", "Y=0:1e-4:5"):
        cfg.write_text(f"[bounds]\nsweep = {spec}\n")
        assert run_cli("validate", str(cfg)) == 2
        assert "bounds.sweep" in capsys.readouterr().out


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n[bounds]\nrho = 1e-4\na = 0.1\n\n[gp]\nN = 5\n")
    sections = parse_config_file(path)
    assert sections["bounds"]["rho"] == "1e-4"
    assert sections["gp"]["N"] == "5"
    bad = tmp_path / "bad.cfg"
    bad.write_text("rho = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


# valid values for the options a run of each subcommand requires
_REQUIRED = {"gp": ["--coupling=0.01"], "tf": ["--coupling=0.01"],
             "regimes": ["--N=30", "--L=100", "--r=0.5", "--a=1e-4"],
             "charged": ["foldy"]}


def _range_checked_options() -> dict:
    """{subcommand: [(dest, flag, must be positive, type)]} for every option
    whose dest has a sign check."""
    cases = {}
    for name, sub in cli._subparsers(cli.build_parser()).items():
        positive = _POSITIVE | _SECTION_POSITIVE.get(name, set())
        options = [(a.dest, a.option_strings[0], a.dest in positive, a.type)
                   for a in sub._actions if a.dest in _POSITIVE | _NONNEGATIVE]
        if options:
            cases[name] = options
    return cases


_RANGE_CHECKED = _range_checked_options()


def _bad_value(positive: bool, kind: type):
    """nan, +-inf, or a finite value of the wrong sign (zero and -0.0
    included when the option must be positive); an integer option gets a
    negative integer."""
    if kind is int:
        return st.integers(max_value=0 if positive else -1)
    sign = st.floats(max_value=0.0 if positive else -math.ulp(0.0),
                     allow_nan=False, allow_infinity=False)
    return st.sampled_from([math.nan, math.inf, -math.inf]) | sign


def _range_message(path: str, value: str, positive: bool) -> str:
    kind = ("finite" if not math.isfinite(float(value))
            else "positive" if positive else "nonnegative")
    return f"{path}: must be {kind}, got {value}"


@settings(derandomize=True, max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_range_checks_reject_nonfinite_and_wrong_sign(data, tmp_path, capsys):
    # each value is rejected as a flag and as a config key in both
    # spellings, by validate and by a run alike
    assert set(_RANGE_CHECKED) == {"scatter", "bounds", "gp", "tf", "ll",
                                   "regimes", "charged", "verify"}
    cfg = tmp_path / "bad.cfg"
    for sub, options in _RANGE_CHECKED.items():
        values = {dest: repr(data.draw(_bad_value(positive, kind),
                                       label=f"{sub}.{dest}"))
                  for dest, _, positive, kind in options}
        run = [sub, *_REQUIRED.get(sub, [])]
        assert run_cli(*run, *(f"{flag}={values[dest]}"
                               for dest, flag, _, _ in options)) == 2
        err = capsys.readouterr().err
        for dest, _, positive, _ in options:
            assert _range_message(f"{sub}.{dest}", values[dest], positive) in err
        for spell in (lambda dest, flag: flag[2:], lambda dest, flag: dest):
            keys = {dest: spell(dest, flag) for dest, flag, _, _ in options}
            cfg.write_text(f"[{sub}]\n" + "".join(
                f"{keys[dest]} = {values[dest]}\n" for dest, _, _, _ in options))
            assert run_cli("validate", str(cfg)) == 2
            out = capsys.readouterr().out
            assert run_cli("--config", str(cfg), *run) == 2
            err = capsys.readouterr().err
            for dest, _, positive, _ in options:
                message = _range_message(f"{sub}.{keys[dest]}", values[dest],
                                         positive)
                assert message in out and message in err


def test_result_record_round_trip():
    text = record_json("gp", {"N": 5.0}, {"E": 1.2345678901234567e-7},
                       {"package_version": "x"})
    back = json.loads(text)
    assert back["outputs"]["E"] == 1.2345678901234567e-7   # lossless float
    assert back["subcommand"] == "gp"
    assert back["schema_version"] == SCHEMA_VERSION
    with pytest.raises(ValueError):                     # never invalid JSON
        record_json("gp", {}, {"E": float("nan")}, {})
    with pytest.raises(ValueError):
        record_json("gp", {}, {"E": {"F": -math.inf}}, {})


# a record's bytes as the format has always written them: sorted keys, a
# one-space indent and shortest round-trip floats, nested dicts included
_GOLDEN_RECORD = (
    '{\n "inputs": {\n  "R0": 1.0,\n  "kind": "hard_core",\n  "n_grid": 4096\n },'
    '\n "outputs": {\n  "a": 1.0000000000000002,\n  "dimension": 3,'
    '\n  "identity_residuals": {\n   "2": 1e-300,\n   "8": -0.0\n  },'
    '\n  "note": "x",\n  "s": 0.1\n },\n "provenance": {\n  "n_grid": 4096,'
    '\n  "package_version": "0.1.0",\n  "schema_version": "1.0"\n },'
    '\n "schema_version": "1.0",\n "subcommand": "scatter",'
    '\n "timestamp": 1792500000.25\n}')


def test_record_json_golden_bytes(monkeypatch):
    import time
    monkeypatch.setattr(time, "time", lambda: 1792500000.25)
    text = record_json(
        "scatter", {"R0": 1.0, "kind": "hard_core", "n_grid": 4096},
        {"a": 1.0000000000000002, "s": 0.1, "dimension": 3,
         "identity_residuals": {"2": 1e-300, "8": -0.0}, "note": "x"},
        {"package_version": "0.1.0", "schema_version": "1.0", "n_grid": 4096})
    assert text == _GOLDEN_RECORD


def test_schema_version_rejection(tmp_path):
    # a reader compares the major version: 1.x is ours, 2.0 is not
    assert same_major("1.9") and not same_major("2.0")
    out = tmp_path / "tf.json"
    assert run_cli("tf", "--coupling", "0.05", "--out", str(out)) == 0
    assert read_record(out)["schema_version"] == SCHEMA_VERSION
    future = tmp_path / "future.csv"
    future.write_text("# schema_version=2.0\nx\n1.0\n")
    with pytest.raises(ConfigError):
        read_csv(future)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1, 1.0 / 3.0), (0.2, 2.0 / 3.0)]
    write_csv(path, ["x", "y"], rows)
    header, back = read_csv(path)
    assert header == ["x", "y"]
    assert back[0][1] == rows[0][1]   # bit-exact reload
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ConfigError):
        read_csv(bad)


def test_scatter_subcommand(tmp_path, capsys):
    out = tmp_path / "scatter.json"
    code = run_cli("scatter", "--kind", "hard_core", "--R0", "1.0",
                   "--out", str(out))
    assert code == 0
    rec = read_record(out)["outputs"]
    assert rec["a"] == pytest.approx(1.0)


def test_scatter_stiff_disc_exits_numeric(tmp_path, capsys):
    out = tmp_path / "scatter.json"
    assert run_cli("scatter", "--dim", "2", "--v0", "1e16", "--out", str(out)) == 1
    assert "interior solution is not finite at R0" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def nan_scatter(monkeypatch):
    """scattering.solve_zero_energy returning NaN a and a_refined."""
    from bosegas import scattering
    solve = scattering.solve_zero_energy
    monkeypatch.setattr(
        scattering, "solve_zero_energy",
        lambda *args, **kw: dataclasses.replace(solve(*args, **kw), a=math.nan,
                                                a_refined=math.nan))


def test_scatter_nonfinite_result_exits_numeric(nan_scatter, capsys):
    assert run_cli("scatter", "--v0", "1e12") == 1
    out, err = capsys.readouterr()
    assert "NaN" not in out and out == ""
    assert "numeric failure" in err and "a_refined" in err


def test_nonfinite_keys_name_nested_outputs_by_path():
    from bosegas import cli
    outputs = {"a": 1.0, "b": {"c": math.nan, "d": {"e": math.inf, "x": 2.0}},
               "f": -math.inf, "g": [math.nan], "h": "nan"}
    assert cli._nonfinite_keys(outputs) == ["b.c", "b.d.e", "f"]


def test_scatter_nonfinite_result_writes_no_files(nan_scatter, tmp_path, capsys):
    prof = tmp_path / "p.csv"
    out = tmp_path / "scatter.json"
    assert run_cli("scatter", "--v0", "1e12", "--profile-out", str(prof),
                   "--out", str(out)) == 1
    assert "numeric failure" in capsys.readouterr().err
    assert not prof.exists() and not out.exists()


@pytest.mark.parametrize("flag,value", [("--A", "-1"), ("--A", "inf"),
                                        ("--B-plus", "nan"),
                                        ("--B-minus", "nan"),
                                        ("--B-minus", "-0.5")])
def test_bogolubov_bad_input_is_config_error(flag, value, capsys):
    assert run_cli("charged", "bogolubov", flag, value) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_bogolubov_config_spelling(tmp_path, capsys):
    cfg = tmp_path / "charged.cfg"
    cfg.write_text("[charged]\nA = nan\nB-plus = -1\nB-minus = inf\n")
    assert run_cli("validate", str(cfg)) == 2
    out = capsys.readouterr().out
    assert "charged.A" in out and "charged.B-plus" in out
    assert "charged.B-minus" in out
    cfg.write_text("[charged]\nA = 0\nB-plus = 0.5\nB-minus = 0\n")
    assert run_cli("validate", str(cfg)) == 0


_IMPORT_PROBE = """
import json
import sys
import bosegas.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "bosegas", "numpy"))

def run(*argv):
    assert bosegas.cli.main([*argv, "--out", f"{sys.argv[1]}/{argv[0]}.json"]) == 0

print(json.dumps(loaded()))
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
run("charged", "foldy")
run("charged", "local")
run("charged", "bogolubov")
run("charged", "dyson")
print(json.dumps(loaded()))
run("bounds", "--rho", "1e-4")
run("bounds", "--dim", "2", "--rho", "1e-3")
print(json.dumps(loaded()))
run("tf", "--N", "100", "--coupling", "0.01")
run("tf", "--dim", "2", "--trap", "homogeneous_power", "--s", "3",
    "--coupling", "0.5")
assert bosegas.cli.main(["ll", "--emit-curve", f"{sys.argv[1]}/curve.csv"]) == 0
print(json.dumps(loaded()))
run("tf", "--N", "100", "--coupling", "0.01",
    "--profile-out", f"{sys.argv[1]}/tf.csv")
print(json.dumps(loaded()))
run("scatter", "--v0", "1e8")
print(json.dumps(loaded()))
import bosegas.onedim, bosegas.meanfield, bosegas.flows, bosegas.oracles
print(json.dumps(loaded()))
run("ll", "--t", "1.0")
assert bosegas.cli.main(["ll", "--emit-curve", f"{sys.argv[1]}/curve.csv"]) == 0
run("tf", "--N", "100", "--coupling", "0.01")
print(json.dumps(loaded()))
run("gp", "--N", "10", "--coupling", "0.1", "--n-grid", "256")
print(json.dumps(loaded()))
run("regimes", "--N", "30", "--L", "100", "--r", "0.5", "--a", "1e-4")
run("regimes", "--N", "30", "--L", "100", "--r", "0.5", "--a", "1e-4",
    "--transverse", "hard_wall")
print(json.dumps(loaded()))
run("verify", "--seed", "7")
print(json.dumps(loaded()))
"""


def _fresh_python(script, *argv):
    """The stdout lines of ``script``, run with ``argv`` in a fresh
    interpreter with ``src`` on its path, each parsed as JSON."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _scipy(modules, *packages):
    """The modules under scipy (or under the given scipy packages)."""
    packages = packages or ("scipy",)
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def _emitted_curve(curve):
    """What ``ll --emit-curve`` writes: a ``t,e`` header and the repr of
    each table node's t and e."""
    return "t,e\n" + "".join(f"{t!r},{e!r}\n" for t, e in
                             zip(curve.nodes_t.tolist(), curve.nodes_e.tolist()))


def test_cli_import_loads_only_config(tmp_path, ll_curve):
    from bosegas import meanfield as mf
    (after_import, stdlib_after_import, after_foldy, after_bounds, after_closed,
     after_profile, after_scatter, after_modules, after_tables, after_gp,
     after_flows, after_verify) = _fresh_python(_IMPORT_PROBE, str(tmp_path))
    assert after_import == ["bosegas", "bosegas.cli", "bosegas.config"]
    # nor dataclasses, nor the inspect it imports: only a query that imports
    # a library module pays for them
    assert stdlib_after_import == []
    # the closed-form charged queries (Dyson's from its stored constants)
    # and the scalar bounds compute with math alone: no numpy, let alone scipy
    assert after_foldy == ["bosegas", "bosegas.charged", "bosegas.cli",
                           "bosegas.config", "bosegas.quadrature"]
    # the closed-form bounds need no scattering solver
    assert "bosegas.homogeneous" in after_bounds
    assert "bosegas.scattering" not in after_bounds
    assert not [m for m in after_bounds if m.split(".")[0] != "bosegas"]
    # TF without a profile is closed-form, and --emit-curve writes the t,e
    # columns of the shipped table: neither loads numpy, a flow or the e(t)
    # machinery
    assert "bosegas.meanfield" in after_closed
    for module in ("numpy", "bosegas.flows", "bosegas.onedim"):
        assert module not in after_closed
    assert (tmp_path / "curve.csv").read_text() == _emitted_curve(ll_curve)
    # the profile is sampled with numpy when --profile-out asks for it, as
    # the DensityProfile that tf_solve used to build
    assert "numpy" in after_profile
    assert "bosegas.flows" not in after_profile
    N, coupling, s = 100.0, 0.01, 2.0
    mu_tf = json.loads((tmp_path / "tf.json").read_text())["outputs"]["mu_TF"]
    r = np.linspace(0.0, 1.05 * mu_tf ** (1.0 / s), 20000)
    rho = np.maximum(mu_tf - r**s, 0.0) / (8.0 * math.pi * 1.0 * coupling)
    mf.DensityProfile(r, np.sqrt(rho), rho).export_csv(tmp_path / "ref.csv")
    assert (tmp_path / "tf.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert "numpy" in after_scatter
    assert "bosegas.scattering" in after_scatter
    assert not _scipy(after_scatter)
    # the table queries and TF load no scipy, and neither do the oracles
    assert {"bosegas.onedim", "bosegas.meanfield", "bosegas.flows",
            "bosegas.oracles"} <= set(after_modules)
    assert not _scipy(after_modules)
    assert not _scipy(after_tables)
    # a CLI call's flows solve their tridiagonals with the dgtsv replica,
    # well below the count at which flows._solve turns to scipy, and the
    # hard-wall transverse mode is two constants: no scipy at all
    for loaded in (after_gp, after_flows):
        assert "bosegas.flows" in loaded
        assert not _scipy(loaded)
    # verify's caller runs no section, and its workers' modules import no
    # scipy (the delta gases are solved dense in the zero-momentum sector,
    # no scipy.sparse, no ARPACK): no scipy either
    assert "bosegas.verify" in after_verify
    assert not _scipy(after_verify)


_BOUNDS_PROBE = """
import json
import sys
import bosegas.cli

cfg = f"{sys.argv[1]}/bounds.cfg"
with open(cfg, "w") as fh:
    fh.write("[bounds]\\nrho = 1e-4\\na = 0.5\\nmu = 1.3\\nsweep = Y=1e-9:1e-4:3\\n")
for argv in (["bounds", "--rho", "1e-4", "--a", "0.5"],
             ["bounds", "--dim", "2", "--rho", "1e-4", "--a", "0.5"]):
    assert bosegas.cli.main([*argv, "--out", f"{sys.argv[1]}/b.json"]) == 0
assert bosegas.cli.main(["validate", cfg]) == 0
print(json.dumps(sorted({"numpy", "dataclasses", "inspect"} & set(sys.modules))))
"""


def test_bounds_domain_check_loads_no_dataclasses(tmp_path):
    # validate evaluates the bounds formulas themselves, so config imports
    # homogeneous: that import, and a scalar bounds run, load neither numpy
    # nor dataclasses (nor the inspect it imports)
    assert _fresh_python(_BOUNDS_PROBE, str(tmp_path)) == [[]]


def test_bounds_sweep_contract(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli("bounds", "--sweep", "Y=1e-9:1e-4:50", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["Y", "lower", "lhy", "upper"]
    assert len(rows) == 50
    for Y, lower, lhy, upper in rows:
        assert lower <= lhy <= upper


def test_bounds_sweep_matches_scalar_rows(tmp_path):
    from bosegas import homogeneous as hg
    out = tmp_path / "sweep.csv"
    ref = tmp_path / "ref.csv"
    assert run_cli("bounds", "--sweep", "Y=1e-9:1e-6:10", "--mu", "0.5",
                   "--out", str(out)) == 0
    rows = []
    for Y in np.geomspace(1e-9, 1e-6, 10).tolist():
        out3 = hg.bounds_3d(3.0 * Y / (4.0 * np.pi), 1.0, 0.5)
        rows.append((Y, out3["lower"], out3["lhy"], out3["upper"]))
    write_csv(ref, ["Y", "lower", "lhy", "upper"], rows)
    assert out.read_bytes() == ref.read_bytes()


def test_bounds_workers_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--sweep", "Y=1e-9:1e-6:10", "--workers", "4")
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_bounds_sweep_nonfinite_row_writes_nothing(tmp_path, monkeypatch,
                                                   capsys):
    from bosegas import homogeneous as hg
    real = hg.bounds_3d
    monkeypatch.setattr(hg, "bounds_3d",
                        lambda *state: {**real(*state), "lhy": float("nan")})
    out = tmp_path / "sweep.csv"
    assert run_cli("bounds", "--sweep", "Y=1e-9:1e-6:10",
                   "--out", str(out)) == 1
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_sweep_of_another_parameter_is_config_error(tmp_path, capsys):
    # the rows are computed as if the swept values were Y
    out = tmp_path / "sweep.csv"
    assert run_cli("bounds", "--sweep", "rho=1e-6:1e-3:3",
                   "--out", str(out)) == 2
    assert "bounds.sweep" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "sweep.cfg"
    # validate agrees with a run: a spec without its name fails both
    for spec in ("rho=1e-6:1e-3:3", "1e-6:1e-3:3"):
        cfg.write_text(f"[bounds]\nsweep = {spec}\n")
        assert run_cli("validate", str(cfg)) == 2
        assert "bounds.sweep" in capsys.readouterr().out
    cfg.write_text("[bounds]\nsweep = Y=1e-6:1e-3:3\n")
    assert run_cli("validate", str(cfg)) == 0


def test_bounds_2d_sweep_is_config_error(tmp_path, capsys):
    # the sweep runs Y at a = 1 in 3D: a 2D request gets no 3D rows
    out = tmp_path / "sweep.csv"
    assert run_cli("bounds", "--dim", "2", "--sweep", "Y=1e-9:1e-4:3",
                   "--out", str(out)) == 2
    assert "bounds.dim" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[bounds]\ndim = 2\nsweep = Y=1e-9:1e-4:3\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == [
        "bounds.dim: the Y sweep is 3D only, got dim = 2"]
    # rho and a beside a 3D sweep stay accepted
    cfg.write_text("[bounds]\ndim = 3\nrho = 1e-4\na = 0.5\nsweep = Y=1e-9:1e-4:3\n")
    assert run_cli("validate", str(cfg)) == 0


def test_ll_emit_curve_contract(tmp_path, ll_curve):
    out = tmp_path / "curve.csv"
    code = run_cli("ll", "--emit-curve", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 201 and lines[0] == "t,e"
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    es = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    assert all(e2 > e1 for e1, e2 in zip(es, es[1:]))
    # the curve written is the shipped table's t and e, bit for bit
    assert out.read_text() == _emitted_curve(ll_curve)


def test_ll_emit_curve_takes_no_record_options(tmp_path, capsys):
    # --emit-curve writes the curve only: --t or --out beside it is refused
    # before anything is written, at a run and in validate
    curve, rec = tmp_path / "curve.csv", tmp_path / "r.json"
    rule = "emit-curve writes the curve only, no record"
    for extra, message in ((["--t", "1.0"], f"ll.t: {rule}"),
                           (["--out", str(rec)], f"ll.out: {rule}"),
                           (["--t", "1.0", "--out", str(rec)],
                            f"ll.t: {rule}; ll.out: {rule}")):
        assert run_cli("ll", "--emit-curve", str(curve), *extra) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not curve.exists() and not rec.exists()
    cfg = tmp_path / "ll.cfg"
    cfg.write_text(f"[ll]\nt = 1.0\nemit-curve = {curve}\nout = {rec}\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == [
        "ll.t: emit-curve writes the curve only, no record",
        "ll.out: emit-curve writes the curve only, no record"]
    assert run_cli("--config", str(cfg), "ll") == 2
    assert not curve.exists() and not rec.exists()
    cfg.write_text(f"[ll]\nemit_curve = {curve}\n")
    assert run_cli("validate", str(cfg)) == 0
    cfg.write_text("[ll]\nt = 1.0\n")
    assert run_cli("validate", str(cfg)) == 0


def test_tf_takes_no_box_trap(tmp_path, capsys):
    # TF needs a homogeneous trap: box and --side are gp's alone
    for extra in (["--trap", "box"], ["--side", "2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli("tf", "--coupling", "1", *extra)
        assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "tf.cfg"
    cfg.write_text("[tf]\ntrap = box\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == [
        "tf.trap: 'box' not one of ['harmonic', 'homogeneous_power']"]
    assert run_cli("--config", str(cfg), "tf", "--coupling", "1") == 2
    assert "tf.trap" in capsys.readouterr().err
    cfg.write_text("[tf]\nside = 2\n")
    assert run_cli("validate", str(cfg)) == 2
    assert "tf.side: unknown option" in capsys.readouterr().out


def test_tf_takes_no_n_grid(tmp_path, capsys):
    # the closed-form TF solve has no grid to size
    with pytest.raises(SystemExit) as exc:
        run_cli("tf", "--coupling", "0.01", "--n-grid", "64")
    assert exc.value.code == 2
    assert "--n-grid" in capsys.readouterr().err
    cfg = tmp_path / "tf.cfg"
    cfg.write_text("[tf]\nn_grid = 64\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == ["tf.n_grid: unknown option"]
    assert run_cli("--config", str(cfg), "tf", "--coupling", "1") == 2


@pytest.mark.parametrize("argv,message", [
    (("--dim", "2", "--rho", "0.1", "--a", "1"), "2D needs rho a^2 below 1/(2 pi e)"),
    (("--dim", "2", "--rho", "2", "--a", "1"), "2D needs rho a^2 below 1/(2 pi e)"),
    (("--rho", "1", "--a", "1"), "3D needs Y = 4 pi rho a^3/3 below 1"),
    (("--rho", "0.1", "--a", "2"), "3D needs Y = 4 pi rho a^3/3 below 1"),
    (("--sweep", "Y=0.5:2:3"), "3D needs Y = 4 pi rho a^3/3 below 1"),
    (("--rho", "1e300", "--a", "1e300"), "overflow the 3D bounds"),
    (("--rho", "1e-300", "--a", "1e-10"), "rho a^3 underflows to 0"),
    (("--dim", "2", "--rho", "1e-300", "--a", "1e-30"), "rho a^2 underflows to 0"),
    # 4 pi mu overflows: every output but the clamped lower bound is infinite
    (("--rho", "1", "--a", "0.5", "--mu", "1e308"),
     "non-finite lhy, upper, dyson_classic"),
    (("--dim", "2", "--rho", "1e-3", "--a", "1", "--mu", "1e308"),
     "non-finite upper, lower"),
])
def test_bounds_outside_their_domain_are_config_errors(argv, message, tmp_path,
                                                       capsys):
    assert run_cli("bounds", *argv) == 2
    assert message in capsys.readouterr().err
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("[bounds]\n" + "".join(
        f"{flag[2:]} = {value}\n" for flag, value in zip(argv[::2], argv[1::2])))
    assert run_cli("validate", str(cfg)) == 2
    assert message in capsys.readouterr().out


def test_bounds_inside_their_domain_run(tmp_path, capsys):
    # just inside each edge: 2 pi e rho a^2 < 1 in 2D, Y < 1 in 3D
    for argv in (("--dim", "2", "--rho", "0.058", "--a", "1"),
                 ("--rho", "0.238", "--a", "1"),
                 ("--sweep", "Y=0.5:0.99:3", "--out", str(tmp_path / "b.csv"))):
        assert run_cli("bounds", *argv) == 0
    capsys.readouterr()


def _bounds_refused(dim, rho, a, mu) -> bool:
    """Whether the formulas behind a ``bounds`` record refuse (rho, a, mu):
    they raise, or give a record that a run would not write."""
    from bosegas import homogeneous as hg
    try:
        out = (hg.bounds_3d if dim == 3 else hg.bounds_2d)(rho, a, mu)
    except (ValueError, ArithmeticError):
        return True
    return bool(cli._nonfinite_keys(out))


@pytest.mark.parametrize("dim", [3, 2])
def test_bounds_validate_refuses_what_the_formulas_refuse(dim):
    # a 125 x 125 log grid of (rho, a) at three mu: over part of it rho a^dim
    # underflows to 0, whose logarithm the lower bound (2D) or the LHY series
    # (3D) takes, and at mu = 1e308 4 pi mu overflows, so that no record in
    # the domain is finite
    grid = np.geomspace(1e-320, 1e300, 125).tolist()
    mismatched, underflows, overflows = [], 0, 0
    for mu in (1e-300, 1.0, 1e308):
        for rho in grid:
            for a in grid:
                problems = validate_params("bounds", {"dim": dim, "rho": rho,
                                                      "a": a, "mu": mu})
                underflows += any("underflows to 0" in p for p in problems)
                overflows += any("non-finite" in p for p in problems)
                if bool(problems) != _bounds_refused(dim, rho, a, mu):
                    mismatched.append((rho, a, mu))
    assert not mismatched, f"{len(mismatched)} states, e.g. {mismatched[:3]}"
    assert underflows > 3000 and overflows > 100


_SWEEP_ENDS = [
    (5e-324, 1e-300, 1.0), (1e-323, 1e-300, 1.0), (2e-323, 1e-300, 1.0),
    (1e-320, 1e-300, 1.0), (1e-9, 0.99, 1.0), (1e-9, 1.0, 1.0),
    (1e-9, 8.0, 1.0), (1e-9, 1e-4, 1e308)]


@pytest.mark.parametrize("lo,hi,mu", _SWEEP_ENDS, ids=[
    f"{lo}-{hi}" + ("" if mu == 1.0 else f"-mu={mu}") for lo, hi, mu in _SWEEP_ENDS])
def test_bounds_sweep_ends_are_checked(lo, hi, mu, tmp_path, capsys):
    # the sweep's rho = 3 Y/(4 pi) at a = 1 rounds to 0 at its lowest Y and
    # leaves the 3D domain at Y >= 1, and at mu = 1e308 4 pi mu overflows
    # before rho enters: each refuses the run with exit 2
    spec = f"Y={lo!r}:{hi!r}:3"
    refused = any(_bounds_refused(3, 3.0 * Y / (4.0 * math.pi), 1.0, mu)
                  for Y in np.geomspace(lo, hi, 3).tolist())
    assert refused == (lo < 2e-323 or hi >= 1.0 or mu > 1e307)
    assert bool(validate_params("bounds", {"sweep": spec, "mu": mu})) == refused
    out = tmp_path / "sweep.csv"
    assert run_cli("bounds", "--sweep", spec, "--mu", repr(mu),
                   "--out", str(out)) == (2 if refused else 0)
    assert out.exists() != refused
    err = capsys.readouterr().err
    assert ("underflows to 0" in err) == (lo < 2e-323)
    assert ("non-finite" in err) == (mu > 1e307)


def test_tf_nonpositive_coupling_is_config_error(tmp_path, capsys):
    assert run_cli("tf", "--N", "100", "--coupling", "0") == 2
    assert "tf.coupling: must be positive" in capsys.readouterr().err
    cfg = tmp_path / "tf.cfg"
    cfg.write_text("[tf]\ncoupling = -0.5\n[gp]\ncoupling = 0\n")
    assert run_cli("validate", str(cfg)) == 2
    out = capsys.readouterr().out
    assert "tf.coupling" in out and "gp.coupling" not in out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_nonfinite_value_is_reported_as_not_finite(value, capsys):
    assert run_cli("ll", f"--t={value}") == 2
    assert f"ll.t: must be finite, got {value}" in capsys.readouterr().err


def test_ll_reports_table_mesh_error(capsys, ll_curve):
    from bosegas import onedim
    assert run_cli("ll", "--t", "1.0") == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["e_table_mesh_error"] == onedim._TABLE_MESH_ERROR
    assert outputs["e"] == ll_curve.e(1.0)
    assert outputs["e_source"] == "table"


def test_gp_subcommand_energy_report(tmp_path):
    out = tmp_path / "gp.json"
    prof = tmp_path / "gp.csv"
    code = run_cli("gp", "--coupling", "0.0", "--N", "1", "--out", str(out),
                   "--profile-out", str(prof), "--n-grid", "1024")
    assert code == 0
    rec = read_record(out)
    assert rec["outputs"]["E_total"] == pytest.approx(3.0, abs=1e-3)
    # grids 256, 512, 1024: E_1024 - E_512 over 3 is the h^2 correction
    disc = {k: rec["outputs"][k] for k in ("E_coarse", "E_discretization_error",
                                           "discretization_note")}
    assert disc["discretization_note"] is None
    assert disc["E_discretization_error"] == \
        (rec["outputs"]["E_total"] - disc["E_coarse"]) / 3.0
    assert abs(rec["outputs"]["E_total"] + disc["E_discretization_error"] - 3.0) \
        < 0.1 * abs(rec["outputs"]["E_total"] - 3.0)
    assert rec["schema_version"] == "1.0"
    assert prof.read_text().startswith("r,phi,rho")


def test_tf_subcommand(tmp_path):
    out = tmp_path / "tf.json"
    code = run_cli("tf", "--coupling", "0.05", "--N", "100", "--out", str(out))
    assert code == 0
    rec = read_record(out)["outputs"]
    assert rec["mu_TF"] == pytest.approx((15 * 0.05 * 100) ** 0.4, rel=1e-10)


def test_charged_subcommands(tmp_path):
    out = tmp_path / "foldy.json"
    assert run_cli("charged", "foldy", "--rho", "100", "--out", str(out)) == 0
    rec = read_record(out)["outputs"]
    assert rec["energy_per_particle"] < 0
    out2 = tmp_path / "dyson.json"
    assert run_cli("charged", "dyson", "--N", "100", "--out", str(out2)) == 0
    rec2 = read_record(out2)["outputs"]
    assert rec2["energy"] < 0
    assert rec2["virial_residual"] < 1e-13
    from bosegas import charged
    tc = charged.two_component_energy(100.0)
    assert rec2 == {"energy": tc.energy, "E_star": tc.e_star,
                    "virial_residual": tc.virial_residual,
                    "length_scale": tc.length_scale,
                    "correlation_length": tc.correlation_length}


def test_charged_dyson_runs_no_flow(monkeypatch, tmp_path):
    # the record is read from the stored minimizer at mu = 1
    from bosegas import charged

    def no_flow(*args):
        raise AssertionError("the Dyson flow ran")
    monkeypatch.setattr(charged, "_dyson_flow", no_flow)
    out = tmp_path / "dyson.json"
    assert run_cli("charged", "dyson", "--mu", "0.5", "--out", str(out)) == 0
    assert read_record(out)["outputs"]["E_star"] \
        == charged.two_component_energy(1.0).e_star / 0.5


def test_charged_dyson_below_one_particle_is_config_error(monkeypatch,
                                                         tmp_path, capsys):
    # E0(N) ~ N^(7/5) E_star needs N >= 1: refused before the subcommand runs
    from bosegas import charged

    def not_run(*args):
        raise AssertionError("the two-component energy was computed")
    monkeypatch.setattr(charged, "two_component_energy", not_run)
    assert run_cli("charged", "dyson", "--N", "0.5") == 2
    assert "charged.N: dyson needs N >= 1, got 0.5" in capsys.readouterr().err
    cfg = tmp_path / "charged.cfg"
    cfg.write_text("[charged]\nmode = dyson\nN = 0.5\n")
    assert run_cli("validate", str(cfg)) == 2
    assert "charged.N: dyson needs N >= 1, got 0.5" in capsys.readouterr().out
    # N below 1 is fine for the other modes, and N = 1 for Dyson's
    cfg.write_text("[charged]\nmode = foldy\nN = 0.5\n")
    assert run_cli("validate", str(cfg)) == 0
    assert run_cli("charged", "foldy", "--N", "0.5") == 0
    cfg.write_text("[charged]\nmode = dyson\nN = 1\n")
    assert run_cli("validate", str(cfg)) == 0


def test_scatter_2d_zero_soft_sphere_is_config_error(tmp_path, capsys):
    # psi stays constant in 2D at v0 = 0: no scattering length to solve for
    assert run_cli("scatter", "--dim", "2", "--v0", "0") == 2
    assert "scatter.v0: a 2D soft sphere needs v0 > 0, got 0.0" \
        in capsys.readouterr().err
    cfg = tmp_path / "scatter.cfg"
    cfg.write_text("[scatter]\ndim = 2\nv0 = 0\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() \
        == ["scatter.v0: a 2D soft sphere needs v0 > 0, got 0.0"]
    # v0 = 0 is a free particle in 3D (a = 0), and a 2D hard core needs none
    for text in ("dim = 3\nv0 = 0\n", "dim = 2\nkind = hard_core\nv0 = 0\n",
                 "dim = 2\nv0 = 1\n"):
        cfg.write_text("[scatter]\n" + text)
        assert run_cli("validate", str(cfg)) == 0
    assert run_cli("scatter", "--v0", "0", "--out", str(tmp_path / "s.json")) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mu", ["1e8", "1e-6"])
def test_charged_dyson_far_from_unit_mu(tmp_path, mu):
    # the mu = 1 minimizer dilated: E* scales as 1/mu, lengths as mu
    from bosegas import charged
    out = tmp_path / "dyson.json"
    assert run_cli("charged", "dyson", "--N", "100", "--mu", mu,
                   "--out", str(out)) == 0
    rec = read_record(out)["outputs"]
    e_one = charged.two_component_energy(1.0).e_star
    assert float(mu) * rec["E_star"] == pytest.approx(e_one, rel=1e-15)
    assert rec["virial_residual"] <= 1e-13
    assert rec["length_scale"] == pytest.approx(float(mu) * 100.0**-0.2,
                                                rel=1e-15)


def test_regimes_subcommand(tmp_path):
    out = tmp_path / "reg.json"
    code = run_cli("regimes", "--N", "30", "--L", "100", "--r", "0.5",
                   "--a", "1e-4", "--out", str(out))
    assert code == 0
    rec = read_record(out)["outputs"]
    assert "region" in rec and "valid" in rec
    # flow counters of the full solve and of the Region 2 (gp1d) solve
    counters = [rec[k] for k in ("iterations", "rejected_steps",
                                 "newton_steps")]
    assert all(len(c) == 2 and all(isinstance(v, int) for v in c)
               for c in counters)
    assert min(counters[0]) > 0 and min(counters[2]) > 0
    # and the coarse grids' energies and error estimates of both solves
    for key in ("E_coarse", "E_discretization_error"):
        assert len(rec[key]) == 2
        assert all(isinstance(v, float) for v in rec[key])
    assert rec["discretization_note"] == [None, None]


def test_regimes_strong_coupling_converges(tmp_path):
    # N = 1000, g = 4000: the full-kind flow used to stall in its
    # inverse-iteration endgame (residual 4.2e-5, exit 1)
    out = tmp_path / "reg.json"
    code = run_cli("regimes", "--N", "1000", "--L", "1", "--r", "0.01",
                   "--a", "0.1", "--out", str(out))
    assert code == 0
    rec = read_record(out)["outputs"]
    assert rec["g"] == 4000.0
    # the full solve runs the flow, the Region 5 (GT) solve is pointwise:
    # its iterations are the normalization's 2 density sweeps
    assert rec["iterations"][0] > 0 and rec["newton_steps"][0] > 0
    assert [rec[k][1] for k in ("iterations", "rejected_steps",
                                "newton_steps")] == [2, 0, 0]
    # neither solve has an h^2 estimate: the full energies on three grids
    # are not second order, and GT is solved pointwise
    assert rec["E_discretization_error"] == [None, None]
    assert "25 % of 4" in rec["discretization_note"][0]
    assert rec["E_coarse"][1] is None


def test_records_carry_the_solve_record(tmp_path):
    # gp carries each field of the flows.Solve record, regimes each field
    # as a list over its two solves, tf only the three counters, all zero,
    # and charged dyson, which runs no flow, none
    from bosegas import flows, meanfield, onedim
    fields = flows.Solve._fields

    def outputs(*argv):
        out = tmp_path / "rec.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        return read_record(out)["outputs"]

    gp = outputs("gp", "--dim", "2", "--N", "5", "--coupling", "0.1",
                 "--n-grid", "1024")
    _, rep = meanfield.gp_minimize(meanfield.GPProblem(2, 5.0, 0.1, n_grid=1024))
    assert gp.keys() == rep.as_dict().keys() | set(fields)
    assert {k: gp[k] for k in fields} == rep.solve._asdict()

    dyson = outputs("charged", "dyson", "--mu", "2")
    assert dyson.keys() == {"energy", "E_star", "virial_residual",
                            "length_scale", "correlation_length"}

    reg = outputs("regimes", "--N", "30", "--L", "100", "--r", "0.5",
                  "--a", "1e-4")
    report = onedim.regime_classify(onedim.ElongatedTrap(30.0, 100.0, 0.5, 1e-4))
    assert reg.keys() == report.keys() >= set(fields)
    assert all(len(reg[k]) == 2 for k in fields)
    full = onedim.minimize_1d("full", 30.0, 100.0, report["g"])[0].solve
    assert {k: reg[k][0] for k in fields} == full._asdict()

    tf = outputs("tf", "--coupling", "0.05", "--N", "100")
    assert {k: tf[k] for k in tf.keys() & set(fields)} \
        == {"iterations": 0, "rejected_steps": 0, "newton_steps": 0}


def test_validate_subcommand(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[bounds]\nrho = -1\n")
    assert run_cli("validate", str(cfg)) == 2
    assert "bounds.rho" in capsys.readouterr().out
    good = tmp_path / "good.cfg"
    good.write_text("[bounds]\nrho = 1e-4\n")
    assert run_cli("validate", str(good)) == 0
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert run_cli("validate", str(empty)) == 0
    assert "defaults" in capsys.readouterr().out


def test_unknown_config_key_fails_validate_and_run_alike(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[gp]\nfoo = 1\ncoupling = 0.01\n[tf]\nN = 10\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == ["gp.foo: unknown option"]
    assert run_cli("--config", str(cfg), "gp", "--coupling", "0.01") == 2
    assert "gp.foo: unknown option" in capsys.readouterr().err
    # every option of the subcommand is a key, in either spelling
    cfg.write_text("[gp]\nn-grid = 64\nprofile_out = p.csv\ncoupling = 0.01\n"
                   "[charged]\nmode = foldy\nB-plus = 0.5\n")
    assert run_cli("validate", str(cfg)) == 0


def test_unknown_section_fails_validate_and_run_alike(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    for section in ("gpp", "foo"):
        cfg.write_text(f"[{section}]\nN = 7\n")
        assert run_cli("validate", str(cfg)) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{section}: unknown section"]
        assert run_cli("--config", str(cfg), "gp", "--coupling", "0.01") == 2
        assert f"{section}: unknown section" in capsys.readouterr().err
    # b is an option of no subcommand
    cfg.write_text("[bounds]\nrho = 1e-4\na = 0.1\nb = 0.05\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == ["bounds.b: unknown option"]
    # a section of another subcommand is checked, not applied
    cfg.write_text("[tf]\nN = 10\n")
    out = tmp_path / "foldy.json"
    assert run_cli("--config", str(cfg), "charged", "foldy",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["inputs"]["N"] == 100.0


def test_config_values_parse_with_option_types(tmp_path, monkeypatch, capsys,
                                               ll_curve):
    from bosegas import onedim
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[scatter]\nv0 = 9\n")
    assert run_cli("--config", str(cfg), "scatter") == 0
    from_config = json.loads(capsys.readouterr().out)
    assert run_cli("scatter", "--v0", "9") == 0
    from_flag = json.loads(capsys.readouterr().out)
    assert from_config["outputs"] == from_flag["outputs"]
    assert from_config["inputs"] == from_flag["inputs"]

    monkeypatch.setattr(onedim, "_DEFAULT_CURVE", ll_curve)
    cfg.write_text("[ll]\nt = 0.5\n")
    assert run_cli("--config", str(cfg), "ll") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["inputs"]["t"] == 0.5 and record["outputs"]["t"] == 0.5
    assert record["outputs"]["e"] == ll_curve.e(0.5)
    assert run_cli("--config", str(cfg), "ll", "--t", "2") == 0   # flag wins
    assert json.loads(capsys.readouterr().out)["inputs"]["t"] == 2.0

    cfg.write_text("[gp]\nn_grid = 64.5\n")
    assert run_cli("validate", str(cfg)) == 2
    assert "gp.n_grid" in capsys.readouterr().out
    assert run_cli("--config", str(cfg), "gp", "--coupling", "0.01") == 2
    assert "gp.n_grid" in capsys.readouterr().err

    cfg.write_text("[gp]\ntrap = boxx\n[scatter]\ndim = 4\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == [
        "gp.trap: 'boxx' not one of ['harmonic', 'homogeneous_power', 'box']",
        "scatter.dim: '4' not one of [2, 3]"]
    assert run_cli("--config", str(cfg), "scatter", "--v0", "9") == 2
    assert "scatter.dim" in capsys.readouterr().err

    cfg.write_text("[bounds]\nsweep = Y=a:1e-4:3\n")
    assert run_cli("validate", str(cfg)) == 2
    assert "bounds.sweep: sweep spec" in capsys.readouterr().out


def test_config_file_defaults_flow(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[tf]\ncoupling = 0.05\nN = 100\n")
    out = tmp_path / "tf.json"
    code = run_cli("--config", str(cfg), "tf", "--coupling", "0.05",
                   "--out", str(out))
    assert code == 0
    rec = read_record(out)
    assert rec["inputs"]["N"] == 100.0


def test_required_options_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[gp]\ncoupling = 0.01\nn_grid = 256\n")
    assert run_cli("--config", str(cfg), "gp") == 0
    from_config = json.loads(capsys.readouterr().out)
    assert run_cli("gp", "--coupling", "0.01", "--n-grid", "256") == 0
    from_flag = json.loads(capsys.readouterr().out)
    assert from_config["outputs"] == from_flag["outputs"]
    assert from_config["inputs"] == from_flag["inputs"]
    assert run_cli("--config", str(cfg), "gp", "--coupling", "0.02") == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["coupling"] == 0.02
    # without the config the option is still required
    with pytest.raises(SystemExit) as exc:
        run_cli("gp")
    assert exc.value.code == 2
    capsys.readouterr()

    cfg.write_text("[tf]\ncoupling = 0.05\n[charged]\nmode = bogolubov\n"
                   "[regimes]\nN = 30\nL = 100\nr = 0.5\na = 1e-4\n")
    assert run_cli("--config", str(cfg), "tf") == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["coupling"] == 0.05
    assert run_cli("--config", str(cfg), "charged") == 0
    assert "bound" in json.loads(capsys.readouterr().out)["outputs"]
    assert run_cli("--config", str(cfg), "charged", "foldy") == 0   # flag wins
    assert "I0" in json.loads(capsys.readouterr().out)["outputs"]
    parser = cli.build_parser()
    cli._apply_config(parser, cfg)
    args = parser.parse_args(["regimes"])
    assert (args.N, args.L, args.r, args.a) == (30.0, 100.0, 0.5, 1e-4)


@pytest.mark.parametrize("text", ["[gp]\nn-grid = 64\nn_grid = 32\n",
                                  "[gp]\nn_grid = 64\nn_grid = 64\n",
                                  "[gp]\nn_grid = 64\n[gp]\nn-grid = 32\n"])
def test_repeated_config_key_fails_validate_and_run_alike(tmp_path, capsys,
                                                          text):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    assert run_cli("validate", str(cfg)) == 2
    assert "gp.n_grid is set twice" in capsys.readouterr().err
    assert run_cli("--config", str(cfg), "gp", "--coupling", "0.01") == 2
    assert "gp.n_grid is set twice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gp", "--coupling", "0.01", "--n-grid", "3"),
    ("gp", "--coupling", "0.01", "--n-grid", "15"),
    ("gp", "--coupling", "0.01", "--n-grid", "0"),
    ("scatter", "--kind", "hard_core", "--n-grid", "8"),
])
def test_n_grid_below_floor_is_config_error(argv, capsys):
    assert run_cli(*argv) == 2
    assert "n_grid: must be an integer >= 16" in capsys.readouterr().err


def test_verify_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "card.json"
    assert run_cli("verify", "--seed", "-5", "--out", str(out)) == 2
    assert "verify.seed: must be nonnegative, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_validate_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[verify]\nseed = -5\n")
    assert run_cli("validate", str(cfg)) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verify.seed: must be nonnegative, got -5"]
    cfg.write_text("[verify]\nseed = 0\n")
    assert run_cli("validate", str(cfg)) == 0


def test_validate_n_grid_floor(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("[gp]\nn-grid = 15\n[scatter]\nn_grid = many\n")
    assert run_cli("validate", str(cfg)) == 2
    out = capsys.readouterr().out
    assert "gp.n-grid" in out and "scatter.n_grid" in out
    cfg.write_text("[gp]\nn-grid = 16\n[scatter]\nn_grid = 4096\n")
    assert run_cli("validate", str(cfg)) == 0


def test_verify_timings_sidecar(tmp_path, ll_curve):
    plain, timed, sidecar = (tmp_path / name for name in
                             ("plain.json", "timed.json", "timings.json"))
    assert run_cli("verify", "--seed", "7", "--out", str(plain)) == 0
    assert run_cli("verify", "--seed", "7", "--out", str(timed),
                   "--timings-out", str(sidecar)) == 0
    assert timed.read_bytes() == plain.read_bytes()
    timings = json.loads(sidecar.read_text())
    assert set(timings) == {"schema_version", "seed", "unit", "total",
                            "sections", "max_rss_mb", "processes", "checks",
                            "caller_max_rss_mb"}
    sections = timings["sections"]
    assert set(sections) == {"scattering", "homogeneous", "meanfield",
                             "onedim", "charged", "oracles"}
    assert all(s > 0.0 for s in sections.values())
    # the two workers overlap: the suite's wall time is below the sum
    assert 0.0 < timings["total"] <= sum(sections.values())
    assert timings["seed"] == 7 and timings["unit"] == "s"
    # each worker's sections in the order it ran them, with the peak
    # resident set of that process after each
    assert timings["processes"] == {
        "corpora": ["scattering", "homogeneous", "oracles"],
        "flows": ["meanfield", "onedim", "charged"]}
    assert set(timings["max_rss_mb"]) == set(sections)
    for order in timings["processes"].values():
        peaks = [timings["max_rss_mb"][name] for name in order]
        assert all(p > 0.0 for p in peaks)
        assert peaks == sorted(peaks)
    assert "max_rss_mb" not in timed.read_text()
    # the calling process's own peak, once the workers are joined
    assert timings["caller_max_rss_mb"] > 0.0
    # every check's seconds since the one before it in its section: each
    # scorecard name has one, and a section's add up to no more than it
    card = json.loads(timed.read_text())
    per_check = timings["checks"]
    assert set(per_check) == set(sections)
    assert sorted(name for times in per_check.values() for name in times) \
        == sorted(c["name"] for c in card["checks"])
    for section, times in per_check.items():
        assert all(t >= 0.0 for t in times.values())
        assert sum(times.values()) <= sections[section]


def _in_process_scorecard(seed):
    """The scorecard of the six sections run in this process, in order."""
    from bosegas import SCHEMA_VERSION, verify
    checks = (verify._scattering_checks() + verify._homogeneous_checks(seed)
              + verify._meanfield_checks() + verify._onedim_checks()
              + verify._charged_checks(seed + 10)
              + verify._oracle_checks(seed + 20))
    n_pass = sum(1 for c in checks if c["passed"])
    return {"schema_version": SCHEMA_VERSION, "seed": seed, "checks": checks,
            "n_checks": len(checks), "n_passed": n_pass,
            "all_passed": n_pass == len(checks)}


@pytest.mark.parametrize("seed", [7, 1])
def test_verify_split_scorecard_equals_in_process(seed, ll_curve):
    from bosegas import verify
    card, _ = verify.run_all(seed)
    assert not multiprocessing.active_children()
    assert card["all_passed"]
    assert (json.dumps(card, sort_keys=True, indent=1)
            == json.dumps(_in_process_scorecard(seed), sort_keys=True, indent=1))


# worker sections for the tests below: sent to the worker by reference, so
# they live at module level
def _no_checks(*args):
    return []


def _value_error(*args):
    raise ValueError("worker section failed")


def _os_error(*args):
    raise OSError("worker section could not read")


def _dead_worker(*args):
    os._exit(7)


def _corpus_error(*args):
    raise ValueError("corpus section failed")


def _pid_check(*args):
    return [{"name": "pid", "value": float(os.getpid()), "passed": True}]


@pytest.mark.parametrize("section,code,message", [
    pytest.param(_value_error, 1, "numeric failure: worker section failed",
                 id="value-error"),
    pytest.param(_os_error, 3, "io error: worker section could not read",
                 id="os-error"),
    pytest.param(_dead_worker, 1, "numeric failure: A process in the process "
                 "pool was terminated abruptly", id="dead-worker"),
])
def test_verify_worker_failure_exit_code(monkeypatch, capsys, tmp_path,
                                         section, code, message):
    from bosegas import verify
    for name in ("_scattering_checks", "_homogeneous_checks", "_oracle_checks",
                 "_meanfield_checks", "_onedim_checks"):
        monkeypatch.setattr(verify, name, _no_checks)
    monkeypatch.setattr(verify, "_charged_checks", section)
    out = tmp_path / "card.json"
    assert run_cli("verify", "--seed", "7", "--out", str(out)) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
    assert not multiprocessing.active_children()


def test_only_the_program_freezes_its_objects_at_exit(monkeypatch, tmp_path):
    # main() as the program (argv None) freezes the gc before it returns,
    # sparing the shutdown collection; an in-process main(argv) does not
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    out = tmp_path / "foldy.json"
    assert run_cli("charged", "foldy", "--out", str(out)) == 0
    assert frozen == []
    monkeypatch.setattr(sys, "argv", ["bosegas", "charged", "foldy", "--out",
                                      str(out)])
    assert cli.main() == 0
    assert frozen == [True]
    # a failing call freezes too
    monkeypatch.setattr(sys, "argv", ["bosegas", "charged", "foldy", "--mu", "-1"])
    assert cli.main() == 2
    assert frozen == [True, True]


def test_verify_joins_workers_when_a_corpus_section_raises(monkeypatch):
    from bosegas import verify
    for name in ("_meanfield_checks", "_onedim_checks", "_charged_checks",
                 "_homogeneous_checks", "_oracle_checks"):
        monkeypatch.setattr(verify, name, _no_checks)
    monkeypatch.setattr(verify, "_scattering_checks", _corpus_error)
    with pytest.raises(ValueError, match="corpus section failed"):
        verify.run_all(7)
    assert not multiprocessing.active_children()


def test_verify_runs_no_section_in_the_calling_process(monkeypatch):
    from bosegas import verify
    for name in ("_scattering_checks", "_homogeneous_checks",
                 "_meanfield_checks", "_onedim_checks", "_charged_checks",
                 "_oracle_checks"):
        monkeypatch.setattr(verify, name, _pid_check)
    card, _ = verify.run_all(7)
    pids = [c["value"] for c in card["checks"]]
    assert len(pids) == 6
    assert float(os.getpid()) not in pids
    assert not multiprocessing.active_children()


def test_cli_verify_bytes_do_not_depend_on_the_blas_thread_count():
    # the program pins one BLAS thread before numpy loads, so the scorecard
    # at OPENBLAS_NUM_THREADS=2 is the one-thread scorecard
    src = str(Path(__file__).resolve().parents[1] / "src")
    cards = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "bosegas.cli", "verify",
                               "--seed", "7"], env=env, capture_output=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        cards.append(proc.stdout)
    assert cards[0] == cards[1]


_SECTION_IMPORTS = """
import json
import sys
from bosegas import verify

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

verify._scattering_checks()
verify._homogeneous_checks(7)
verify._oracle_checks(27)
print(json.dumps(loaded()))
verify._meanfield_checks()
verify._onedim_checks()
verify._charged_checks(17)
print(json.dumps(loaded()))
"""


def test_verify_sections_import_boundary():
    # the corpus worker's sections need numpy alone, and so do the flow
    # worker's: their flows stay below the count at which flows._solve turns
    # to scipy
    after_corpora, after_flow = _fresh_python(_SECTION_IMPORTS)
    assert after_corpora == []
    assert after_flow == []


_SECTION_MODULES = {"bosegas.charged", "bosegas.flows", "bosegas.homogeneous",
                    "bosegas.meanfield", "bosegas.onedim", "bosegas.oracles",
                    "bosegas.scattering"}

_LOADED = """
import json
import sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy.random" or m.startswith("bosegas."))
"""


def test_verify_caller_loads_numpy_random_and_no_section():
    # numpy.random loads before the pool forks, so both workers share its
    # pages; the section modules load only in the workers that run them
    [caller] = _fresh_python(_LOADED + "import bosegas.verify\n"
                             "print(json.dumps(loaded()))\n")
    assert "numpy.random" in caller
    assert not _SECTION_MODULES & set(caller)


_WORKER_IMPORTS = _LOADED + """
from bosegas import verify

corpora_last, flows_last = verify._oracle_checks, verify._charged_checks

# each worker's last section reports the modules its process has loaded
def corpora_report(seed):
    return corpora_last(seed) + [{"name": "corpora", "passed": True,
                                  "modules": loaded()}]

def flows_report(seed):
    return flows_last(seed) + [{"name": "flows", "passed": True,
                                "modules": loaded()}]

verify._oracle_checks, verify._charged_checks = corpora_report, flows_report
card, _ = verify.run_all(7)
print(json.dumps({c["name"]: c["modules"] for c in card["checks"]
                  if "modules" in c}))
print(json.dumps(loaded()))
"""


def test_verify_workers_load_only_their_sections_modules():
    # a fresh interpreter: forked workers would inherit pytest's modules.
    # The corpus worker loads no flow and the flow worker no scattering
    # solver, and the caller still loads no section module after the run
    workers, caller = _fresh_python(_WORKER_IMPORTS)
    assert not _SECTION_MODULES & set(caller)
    assert set(workers) == {"corpora", "flows"}
    corpora, flows = (set(workers[name]) for name in ("corpora", "flows"))
    assert {"bosegas.scattering", "bosegas.homogeneous",
            "bosegas.oracles"} <= corpora
    assert not corpora & {"bosegas.flows", "bosegas.meanfield",
                          "bosegas.onedim", "bosegas.charged"}
    assert {"bosegas.meanfield", "bosegas.onedim", "bosegas.charged",
            "bosegas.flows", "bosegas.oracles"} <= flows
    assert not flows & {"bosegas.scattering", "bosegas.homogeneous"}


_PAST_THE_SWITCH = """
import json
import sys
from bosegas import cli, flows

flows._rows_solved = flows._SCIPY_AFTER
assert cli.main(["gp", "--N", "10", "--coupling", "0.1", "--n-grid", "256",
                 "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_flows_past_the_switch_load_scipy_linalg_alone(tmp_path):
    # a process that has solved more than flows._SCIPY_AFTER rows pays for
    # scipy's dgtsv once, and that import brings no other scipy package
    [loaded] = _fresh_python(_PAST_THE_SWITCH, str(tmp_path / "gp.json"))
    assert "scipy.linalg" in loaded
    assert not _scipy(loaded, "scipy.optimize", "scipy.interpolate",
                      "scipy.special", "scipy.sparse")


def _rows_solved(monkeypatch, run, *args):
    """The rows times right-hand sides that ``run(*args)`` hands to
    ``flows._solve``."""
    from bosegas import flows
    with monkeypatch.context() as patch:
        patch.setattr(flows, "_rows_solved", 0)
        run(*args)
        return flows._rows_solved


def test_cli_sized_flows_stay_below_the_scipy_switch(monkeypatch, tmp_path):
    # verify's flow worker and the one-shot gp and regimes calls load no
    # scipy while their flows solve at most flows._SCIPY_AFTER rows; a new
    # check or a finer default grid that comes within 2x of it fails here
    # before it brings the ~27 MB import back into those processes
    from bosegas import flows, verify
    worker = sum(_rows_solved(monkeypatch, run, *args) for run, args in (
        (verify._meanfield_checks, ()), (verify._onedim_checks, ()),
        (verify._charged_checks, (17,))))
    out = str(tmp_path / "out.json")
    calls = [("gp", "--coupling", "0.1"),
             ("gp", "--dim", "2", "--N", "50", "--coupling", "10"),
             ("regimes", "--N", "30", "--L", "100", "--r", "0.5", "--a", "1e-4"),
             ("regimes", "--N", "30", "--L", "100", "--r", "0.5", "--a", "1e-4",
              "--transverse", "hard_wall")]
    counts = [_rows_solved(monkeypatch, run_cli, *argv, "--out", out)
              for argv in calls]
    for count in (worker, *counts):
        assert 0 < count < flows._SCIPY_AFTER // 2


def test_exit_codes(tmp_path):
    assert run_cli("gp", "--coupling", "-1") == 2          # config error
    assert run_cli("scatter", "--kind", "soft_sphere", "--R0", "-1") == 2
    code = run_cli("scatter", "--kind", "tabulated",
                   "--potential-file", str(tmp_path / "missing.txt"))
    assert code in (2, 3)                                   # unreadable input
    assert run_cli("bounds", "--dim", "2", "--rho", "1e-4", "--a", "1e-3") == 0


@pytest.mark.parametrize("text,where", [
    pytest.param("# dimension=3\n# R0=1\n0 5\n0.5\n1 0\n", "line 4", id="one-column"),
    pytest.param("# dimension=3\n# R0=1\n0 5 1\n1 0\n", "line 3", id="three-columns"),
    pytest.param("# dimension=3\n# R0=abc\n0 5\n1 0\n", "line 2", id="bad-R0"),
    pytest.param("# dimension=three\n# R0=1\n0 5\n1 0\n", "line 1", id="bad-dimension"),
    pytest.param("# dimension=3\n# R0=1\n0 nan\n1 0\n", "line 3", id="nan-v"),
    pytest.param("# dimension=3\n# R0=1\n0 5\ninf 0\n", "line 4", id="inf-r"),
    pytest.param("# dimension=3\n# R0=1\n0 5 # note\n1 0\n", "line 3",
                 id="trailing-comment"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n0.5 4\n1 0\n1.5 0 0\n", "line 6",
                 id="three-columns-after-block"),
    pytest.param("# dimension=4\n# R0=1\n0 5\n1 0\n", "dimension must be 2 or 3",
                 id="dimension-4"),
    pytest.param("# dimension=3\n# R0=inf\n0 5\n1 0\n", "must be finite", id="inf-R0"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n1 -1\n", "nonnegative", id="negative-v"),
    pytest.param("# dimension=3\n# R0=1\n-1 5\n1 0\n", ">= 0", id="negative-r"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n0 0\n", "increasing", id="repeated-r"),
    pytest.param("# dimension=3\n# R0=1\n0 5\n", "at least 2 samples", id="one-sample"),
    pytest.param("# dimension=3\n# R0=1\n", "at least 2 samples", id="no-samples"),
    pytest.param("# R0=1\n0 5\n1 0\n", "headers", id="no-dimension"),
])
def test_malformed_potential_file_is_config_error(tmp_path, capsys, text, where):
    path = tmp_path / "pot.txt"
    path.write_text(text)
    assert run_cli("scatter", "--kind", "tabulated",
                   "--potential-file", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err and where in err


def test_tabulated_scatter_echoes_the_file_dimension_and_R0(tmp_path):
    # the file's headers set the dimension and R0 of the solve, so the
    # record echoes them; --dim and --R0 change nothing
    pot = tmp_path / "pot2d.txt"
    pot.write_text("# dimension=2\n# R0=1.5\n0 4\n0.75 4\n1.5 0\n")
    records = []
    for extra in ((), ("--dim", "3", "--R0", "7")):
        out = tmp_path / "rec.json"
        assert run_cli("scatter", "--kind", "tabulated", "--potential-file",
                       str(pot), *extra, "--out", str(out)) == 0
        records.append(json.loads(out.read_text()))
    for record in records:
        assert record["outputs"]["dimension"] == 2
        assert record["inputs"]["dim"] == 2 and record["inputs"]["R0"] == 1.5
    assert records[0]["outputs"] == records[1]["outputs"]


def test_json_determinism_modulo_timestamp(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("bounds", "--dim", "3", "--rho", "1e-4", "--a", "0.5",
            "--out", str(a))
    run_cli("bounds", "--dim", "3", "--rho", "1e-4", "--a", "0.5",
            "--out", str(b))
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("timestamp")
    db.pop("timestamp")
    assert da == db
