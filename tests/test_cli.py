import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bosegas import cli
from bosegas.config import (ConfigError, ResultRecord, SweepSpec, check_schema,
                            parse_config_file, read_csv, validate_params,
                            write_csv)


def run_cli(*argv):
    return cli.main(list(argv))


def test_sweep_spec_parsing():
    sp = SweepSpec.parse("Y=1e-9:1e-4:50")
    assert sp.name == "Y" and sp.n == 50 and sp.log
    vals = sp.values()
    assert len(vals) == 50
    assert vals[0] == pytest.approx(1e-9) and vals[-1] == pytest.approx(1e-4)
    with pytest.raises(ConfigError):
        SweepSpec.parse("Y=5:1:10")
    with pytest.raises(ConfigError):
        SweepSpec.parse("Y=1:2")
    lin = SweepSpec.parse("x=0.5:1.5:3:lin")
    assert np.allclose(lin.values(), [0.5, 1.0, 1.5])


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


def test_validate_params_diagnostics():
    probs = validate_params("bounds", {"rho": "-2", "a": "0.1", "b": "0.05"})
    assert any("bounds.rho" in p for p in probs)
    assert any("b > a" in p for p in probs)
    assert validate_params("bounds", {"rho": "1e-4"}) == []


def test_result_record_round_trip():
    rec = ResultRecord("gp", {"N": 5.0}, {"E": 1.2345678901234567e-7},
                       {"package_version": "x"})
    back = ResultRecord.from_json(rec.to_json())
    assert back.outputs["E"] == rec.outputs["E"]   # lossless float
    assert back.subcommand == "gp"
    nan = ResultRecord("gp", {}, {"E": float("nan")}, {})
    with pytest.raises(ValueError):
        nan.to_json()                              # never invalid JSON


def test_schema_version_rejection():
    with pytest.raises(ConfigError):
        check_schema("2.0")
    check_schema("1.9")   # same major accepted


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
    rec = ResultRecord.from_json(out.read_text())
    assert rec.outputs["a"] == pytest.approx(1.0)


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
                  if m.split(".")[0] in ("scipy", "bosegas"))

def run(*argv):
    assert bosegas.cli.main([*argv, "--out", f"{sys.argv[1]}/{argv[0]}.json"]) == 0

print(json.dumps(loaded()))
run("charged", "foldy")
print(json.dumps(loaded()))
run("scatter", "--v0", "1e8")
print(json.dumps(loaded()))
import bosegas.onedim, bosegas.meanfield, bosegas.flows
print(json.dumps(loaded()))
run("ll", "--t", "1.0")
assert bosegas.cli.main(["ll", "--emit-curve", f"{sys.argv[1]}/curve.csv"]) == 0
run("tf", "--N", "100", "--coupling", "0.01")
print(json.dumps(loaded()))
run("gp", "--N", "10", "--coupling", "0.1", "--n-grid", "256")
print(json.dumps(loaded()))
run("regimes", "--N", "30", "--L", "100", "--r", "0.5", "--a", "1e-4")
run("charged", "dyson")
print(json.dumps(loaded()))
"""


def _scipy(modules, *packages):
    """The modules under scipy (or under the given scipy packages)."""
    packages = packages or ("scipy",)
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_cli_import_loads_only_config(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("BOSEGAS_CACHE_DIR", None)       # the e(t) table is built cold
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (after_import, after_foldy, after_scatter, after_modules, after_tables,
     after_gp, after_flows) = map(json.loads, proc.stdout.splitlines())
    assert after_import == ["bosegas", "bosegas.cli", "bosegas.config"]
    assert not _scipy(after_foldy)
    assert "bosegas.scattering" in after_scatter
    assert not _scipy(after_scatter)
    # the table queries, the cold table build and TF load no scipy
    assert {"bosegas.onedim", "bosegas.meanfield", "bosegas.flows"} \
        <= set(after_modules)
    assert not _scipy(after_modules)
    assert not _scipy(after_tables)
    # a flow step loads scipy.linalg for its banded solve, and nothing else
    for loaded in (after_gp, after_flows):
        assert "scipy.linalg" in loaded
        assert not _scipy(loaded, "scipy.optimize", "scipy.interpolate",
                          "scipy.special")


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
    for Y in SweepSpec.parse("Y=1e-9:1e-6:10").values():
        st = hg.GasState3D(3.0 * Y / (4.0 * np.pi), 1.0, 0.5)
        rows.append((Y, hg.lower_bound_3d(st).value, hg.lhy_reference(st),
                     hg.upper_bound_3d(st)))
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
    monkeypatch.setattr(hg, "lhy_reference", lambda st: float("nan"))
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


def test_ll_emit_curve_contract(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli("ll", "--emit-curve", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 201
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    es = [float(l.split(",")[1]) for l in lines[1:]]
    assert ts[0] == min(ts)
    assert all(e2 > e1 for e1, e2 in zip(es, es[1:]))


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


def test_records_report_e_table_cache(tmp_path, monkeypatch, capsys, ll_curve):
    from bosegas import onedim
    monkeypatch.setenv("BOSEGAS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(onedim, "build_ll_curve", lambda: onedim.LLCurve(
        ll_curve.nodes_t, ll_curve.nodes_e, ll_curve.mesh_error))

    def records(*argv):
        monkeypatch.setattr(onedim, "_DEFAULT_CURVE", None)
        assert run_cli(*argv) == 0
        first = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(onedim, "_DEFAULT_CURVE", None)
        assert run_cli(*argv) == 0
        return first, json.loads(capsys.readouterr().out)

    # no cached file, then a valid one, then a file that fails its checks
    built, hit = records("ll", "--t", "1.0")
    (tmp_path / onedim.curve_cache_name()).write_bytes(b"not a table")
    rebuilt, _ = records("ll", "--t", "1.0")
    assert [r["provenance"]["e_table_cache"] for r in (built, hit, rebuilt)] \
        == ["built", "hit", "rebuilt"]
    for record in (built, hit, rebuilt):
        assert record["outputs"] == built["outputs"]
    regimes = records("regimes", "--N", "30", "--L", "100", "--r", "0.5",
                      "--a", "1e-4")
    for record in regimes:
        assert record["provenance"]["e_table_cache"] == "hit"
        record.pop("timestamp")
    assert regimes[0] == regimes[1]


def test_ll_reports_table_mesh_error(monkeypatch, capsys, ll_curve):
    from bosegas import onedim
    monkeypatch.setattr(onedim, "_DEFAULT_CURVE", ll_curve)
    assert run_cli("ll", "--t", "1.0") == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["e_table_mesh_error"] == ll_curve.mesh_error
    # a table built without the spot check omits the key, never emits NaN
    bare = onedim.LLCurve(ll_curve.nodes_t, ll_curve.nodes_e)
    monkeypatch.setattr(onedim, "_DEFAULT_CURVE", bare)
    assert run_cli("ll", "--t", "1.0") == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert "e_table_mesh_error" not in outputs
    assert outputs["e"] == ll_curve.e(1.0)


def test_gp_subcommand_energy_report(tmp_path):
    out = tmp_path / "gp.json"
    prof = tmp_path / "gp.csv"
    code = run_cli("gp", "--coupling", "0.0", "--N", "1", "--out", str(out),
                   "--profile-out", str(prof), "--n-grid", "1024")
    assert code == 0
    rec = ResultRecord.from_json(out.read_text())
    assert rec.outputs["E_total"] == pytest.approx(3.0, abs=1e-3)
    assert rec.schema_version == "1.0"
    assert prof.read_text().startswith("r,phi,rho")


def test_tf_subcommand(tmp_path):
    out = tmp_path / "tf.json"
    code = run_cli("tf", "--coupling", "0.05", "--N", "100", "--out", str(out))
    assert code == 0
    rec = ResultRecord.from_json(out.read_text())
    assert rec.outputs["mu_TF"] == pytest.approx((15 * 0.05 * 100) ** 0.4,
                                                 rel=1e-10)


def test_charged_subcommands(tmp_path):
    out = tmp_path / "foldy.json"
    assert run_cli("charged", "foldy", "--rho", "100", "--out", str(out)) == 0
    rec = ResultRecord.from_json(out.read_text())
    assert rec.outputs["energy_per_particle"] < 0
    out2 = tmp_path / "dyson.json"
    assert run_cli("charged", "dyson", "--N", "100", "--out", str(out2)) == 0
    rec2 = ResultRecord.from_json(out2.read_text())
    assert rec2.outputs["energy"] < 0
    assert rec2.outputs["virial_residual"] < 1e-3


def test_regimes_subcommand(tmp_path):
    out = tmp_path / "reg.json"
    code = run_cli("regimes", "--N", "30", "--L", "100", "--r", "0.5",
                   "--a", "1e-4", "--out", str(out))
    assert code == 0
    rec = ResultRecord.from_json(out.read_text())
    assert "region" in rec.outputs and "valid" in rec.outputs


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


def test_config_file_defaults_flow(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[tf]\ncoupling = 0.05\nN = 100\n")
    out = tmp_path / "tf.json"
    code = run_cli("--config", str(cfg), "tf", "--coupling", "0.05",
                   "--out", str(out))
    assert code == 0
    rec = ResultRecord.from_json(out.read_text())
    assert rec.inputs["N"] == 100.0


@pytest.mark.parametrize("argv", [
    ("gp", "--coupling", "0.01", "--n-grid", "3"),
    ("tf", "--coupling", "0.01", "--n-grid", "3"),
    ("gp", "--coupling", "0.01", "--n-grid", "0"),
    ("scatter", "--kind", "hard_core", "--n-grid", "8"),
])
def test_n_grid_below_floor_is_config_error(argv, capsys):
    assert run_cli(*argv) == 2
    assert "n_grid: must be an integer >= 16" in capsys.readouterr().err


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
    sections = timings["sections"]
    assert set(sections) == {"scattering", "homogeneous", "meanfield",
                             "onedim", "charged", "oracles"}
    assert all(s > 0.0 for s in sections.values())
    assert timings["total"] == pytest.approx(sum(sections.values()))
    assert timings["seed"] == 7 and timings["unit"] == "s"


def test_exit_codes(tmp_path):
    assert run_cli("gp", "--coupling", "-1") == 2          # config error
    assert run_cli("scatter", "--kind", "soft_sphere", "--R0", "-1") == 2
    code = run_cli("scatter", "--kind", "tabulated",
                   "--potential-file", str(tmp_path / "missing.txt"))
    assert code in (2, 3)                                   # unreadable input
    assert run_cli("bounds", "--dim", "2", "--rho", "1e-4", "--a", "1e-3") == 0


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
