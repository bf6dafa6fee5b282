"""The three benchmark workloads: seeded inputs, operations and their gates.

Each workload is a closed loop with one client: one operation at a time,
the next one issued when the previous one has returned.  Inputs come only
from the workload seed and the pass number.  Continuous parameters are drawn
stratified (one draw per equal-probability stratum), the strata of the
parameters that set an operation's cost are paired the same way for every
seed, and the seed shuffles the order of operations.  A pass covers each range evenly and its cost
barely depends on the seed.

Every operation ends in a correctness gate.  An operation fails when the
program raises, exits non-zero, returns a non-finite number, or misses the
invariant its module certifies.  Failures are counted, never skipped.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

PI2_3 = math.pi ** 2 / 3.0
WORKLOAD_INDEX = {"cli-session": 0, "trap-batch": 1, "scatter-batch": 2}
CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 5
# Parameters that set the cost of the slowest operations (the sample count
# of a tabulated potential, the 1D couplings, the CLI query arguments) are
# drawn from the middle quarter of their stratum: drawn over whole strata
# they swung op_p90_s by 10-15 % between seeds.  Seeds still move them.
NARROW = 0.25


class GateFailure(Exception):
    """An output missed its correctness gate."""


def require(cond: bool, why: str) -> None:
    if not cond:
        raise GateFailure(why)


def require_finite(**values) -> None:
    for name, x in values.items():
        if not np.all(np.isfinite(x)):
            raise GateFailure(f"non-finite {name}")


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def require_record_finite(record: dict) -> None:
    require(all(math.isfinite(x) for x in _numbers(record["outputs"])),
            "non-finite number in the record outputs")


def stratified(rng, k: int, lo: float, hi: float, log: bool = False,
               order=None, jitter: float = 1.0) -> np.ndarray:
    """k draws, one from the middle ``jitter`` share of each of k
    equal-probability strata of [lo, hi], in stratum order or in the order
    of strata ``order`` gives."""
    u = (np.arange(k) + 0.5 + jitter * (rng.random(k) - 0.5)) / k
    if order is not None:
        u = u[order]
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def pairing(k: int, j: int) -> np.ndarray:
    """A fixed permutation of k strata, the same for every seed.  Pairing
    the strata of several parameters this way keeps the set of parameter
    combinations, and so a pass's cost, nearly independent of the seed."""
    return np.random.default_rng([k, j]).permutation(k)


# --------------------------------------------------------------------------
# run context and operations
# --------------------------------------------------------------------------

@dataclass
class Op:
    label: str
    fn: Callable[[], None]
    warm: bool = True          # counted in op_p50_s / op_p90_s


@dataclass
class OpResult:
    label: str
    start: float
    seconds: float
    ok: bool
    why: str = ""
    warm: bool = True
    scale: float = 1.0          # to the reference machine speed (calib.py)


@dataclass
class Context:
    root: Path
    work: Path                  # scratch space of this run, removed at exit
    env: dict                   # environment of every child process
    refs: Path                  # reference outputs kept across runs
    code_id: str                # digest of the bosegas sources under test
    tracer: object = None       # spans.Tracer while a traced pass runs
    op_seq: int = 0
    child_spans: list = field(default_factory=list)
    dirs: int = 0

    def fresh_dir(self, name: str) -> Path:
        self.dirs += 1
        path = self.work / f"{name}-{self.dirs}"
        path.mkdir(parents=True)
        return path

    def python(self, args: list[str], cache_dir: Path | None = None):
        env = dict(self.env)
        if cache_dir is not None:
            env["BOSEGAS_CACHE_DIR"] = str(cache_dir)
        return subprocess.run([sys.executable] + args, cwd=self.root, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def cli(self, argv: list[str], cache_dir: Path):
        """Run ``bosegas`` as a user's script does; traced through
        cli_child.py while a traced pass runs."""
        argv = [str(a) for a in argv]
        if self.tracer is None:
            return self.python(["-m", "bosegas.cli"] + argv, cache_dir)
        op = self.tracer.op
        path = self.work / f"spans-{op}.jsonl"
        proc = self.python([str(self.root / "perfbench" / "cli_child.py"),
                            "trace", str(path), str(op), "--"] + argv, cache_dir)
        if path.exists():
            from spans import load_spans
            self.child_spans.extend(load_spans(path))
        return proc


class Workload:
    name = ""
    min_passes = 1
    PASS_S = 1.0        # nominal raw time of one pass on the reference machine

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: as many as fit at the nominal
        pass time, at least ``min_passes``.  Fixed by ``seconds`` alone, so
        runs of one seed attempt the same operations however fast they go."""
        return max(self.min_passes, int(seconds // self.PASS_S))


def run_op(ctx: Context, op: Op) -> OpResult:
    span = None
    if ctx.tracer is not None:
        ctx.tracer.op = f"op{ctx.op_seq}"
        span = ctx.tracer.begin(f"op.{op.label}")
    ctx.op_seq += 1
    t0 = time.perf_counter()
    ok, why = True, ""
    try:
        op.fn()
    except GateFailure as exc:
        ok, why = False, str(exc)
    except Exception as exc:  # the program's own error: record, count, go on
        ok, why = False, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if span is not None:
        ctx.tracer.end(span)
        ctx.tracer.op = None
        for s in ctx.child_spans:           # spans from a traced CLI child
            if s["parent"] is None:
                s["parent"] = span["id"]
        ctx.tracer.spans.extend(ctx.child_spans)
        ctx.child_spans.clear()
    return OpResult(op.label, t0, seconds, ok, why, op.warm)


def probe_setup(ctx: Context, table_cache: Path | None = None) -> dict:
    """Start SETUP_PROBES fresh interpreters (after one untimed start that
    compiles the bytecode) that import bosegas.cli and, given a table cache,
    load the warm e(t) table.  ``setup_s`` is the median time from process
    start to the end of that set-up, scaled to the reference machine speed;
    ``import_s`` the median import time."""
    from calib import Speed
    args = [str(ctx.root / "perfbench" / "cli_child.py"), "probe"]
    if table_cache is not None:
        args.append("--load-table")
    out = []
    speed = Speed()
    for _ in range(1 + SETUP_PROBES):
        speed.tick()
        t0 = time.perf_counter()
        proc = ctx.python(args, table_cache)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((t0, rec["import_done"] - t0 + rec.get("load_s", 0.0),
                    rec["import_s"]))
    speed.tick()
    raw = [x for _, x, _ in out[1:]]
    scaled = [x * speed.factor(t0, t0 + x) for t0, x, _ in out[1:]]
    return {"setup_s": statistics.median(scaled),
            "setup_raw_s": statistics.median(raw),
            "import_s": statistics.median(x for _, _, x in out[1:])}


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------

def _record(proc) -> dict:
    require(proc.returncode == 0,
            f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def _ll_point(cli, t: float) -> None:
    rec = _record(cli(["ll", "--t", repr(t)]))
    require_record_finite(rec)
    e = rec["outputs"]["e"]
    require(0.0 < e < PI2_3, f"e({t}) = {e} outside (0, pi^2/3)")


def _read_csv(path: Path) -> list[list[float]]:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [[float(x) for x in r] for r in rows[1:]]


class CliSession(Workload):
    name = "cli-session"
    min_passes = 1
    PASS_S = 50.0
    WARM_ROUNDS = 2         # 24 warm queries for op_p50_s / op_p90_s

    def setup(self, ctx: Context) -> dict:
        return probe_setup(ctx)

    def make_pass(self, ctx: Context, seed: int, p: int, tiny: bool,
                  repeat: int = 0) -> list[Op]:
        rng = np.random.default_rng([seed, WORKLOAD_INDEX[self.name], p])
        cache = ctx.fresh_dir(f"cache-{p}")       # empty: the first ll builds
        cli = lambda argv: ctx.cli(argv, cache)
        t_cold = math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
        ops = [Op("ll-cold", lambda: _ll_point(cli, t_cold), warm=False)]
        for r in range(self.WARM_ROUNDS):
            ops += self._warm_queries(rng, cli, ctx.fresh_dir(f"files-{p}"), r)
        files = ctx.fresh_dir(f"files-{p}")
        card = files / "scorecard.json"
        ref = ctx.refs / f"verify-seed{seed}-{ctx.code_id[:16]}.json"

        def verify():
            proc = cli(["verify", "--seed", seed, "--out", str(card)])
            require(proc.returncode == 0, f"verify exit {proc.returncode}")
            require(json.loads(card.read_text())["all_passed"] is True,
                    "verify: all_passed is false")
            if ref.exists():                      # same seed, same sources
                require(ref.read_bytes() == card.read_bytes(),
                        "verify scorecard differs from an earlier run")
            else:
                tmp = ref.with_suffix(f".{os.getpid()}.tmp")
                shutil.copyfile(card, tmp)
                os.replace(tmp, ref)
        ops.append(Op("verify", verify, warm=False))
        return ops

    def _warm_queries(self, rng, cli, files: Path, r: int) -> list[Op]:
        """One warm query of every subcommand but verify.  Round r draws
        each argument from the r-th of WARM_ROUNDS strata of its range."""
        k = self.WARM_ROUNDS
        u = lambda lo, hi: float(stratified(rng, k, lo, hi, jitter=NARROW)[r])
        lu = lambda lo, hi: float(stratified(rng, k, lo, hi, log=True,
                                             jitter=NARROW)[r])
        ops = []
        R0, v0 = u(0.5, 2.0), lu(1.0, 1e4)

        def scatter():
            rec = _record(cli(["scatter", "--R0", repr(R0), "--v0", repr(v0)]))
            require_record_finite(rec)
            out = rec["outputs"]
            kappa = math.sqrt(v0 / 2.0)
            exact = R0 - math.tanh(kappa * R0) / kappa
            require(abs(out["a"] - exact) <= 1e-6 * exact, "soft-sphere closed form")
            require(abs(out["a"] - out["a_refined"]) <= 1e-6 * abs(out["a"]),
                    "2x refinement disagrees")
            worst = max(out["identity_residuals"].values())
            require(worst <= 1e-5, f"energy identity residual {worst:.3e}")
        ops.append(Op("scatter", scatter))

        lo, hi, n = lu(1e-9, 1e-7), lu(1e-5, 1e-4), round(u(20.0, 200.0))
        bounds_csv = files / "bounds.csv"

        def bounds():
            proc = cli(["bounds", "--sweep", f"Y={lo!r}:{hi!r}:{n}",
                        "--out", str(bounds_csv)])
            require(proc.returncode == 0, f"exit {proc.returncode}")
            rows = np.array(_read_csv(bounds_csv))
            require(rows.shape == (n, 4), f"bounds sweep has shape {rows.shape}")
            require_finite(bounds=rows)
            require(bool(np.all((rows[:, 1] <= rows[:, 2]) & (rows[:, 2] <= rows[:, 3]))),
                    "lower <= lhy <= upper violated")
        ops.append(Op("bounds-sweep", bounds))

        gp_dim, gp_N = 2 + r % 2, lu(1.0, 100.0)
        gp_c = lu(1e-2, 1e3) / gp_N

        def gp():
            rec = _record(cli(["gp", "--dim", gp_dim, "--N", repr(gp_N),
                               "--coupling", repr(gp_c)]))
            require_record_finite(rec)
            _virial_gate(rec["outputs"], gp_N, gp_c)
        ops.append(Op("gp", gp))

        tf_N, tf_c = lu(1.0, 1e3), lu(1e-3, 1.0)

        def tf():
            rec = _record(cli(["tf", "--N", repr(tf_N), "--coupling", repr(tf_c)]))
            require_record_finite(rec)
            _tf_gate(rec["outputs"]["mu_TF"], tf_N, tf_c)
        ops.append(Op("tf", tf))

        t_warm = lu(1e-3, 1e5)
        ops.append(Op("ll-warm", lambda: _ll_point(cli, t_warm)))
        curve_csv = files / "e_of_t.csv"

        def emit_curve():
            proc = cli(["ll", "--emit-curve", str(curve_csv)])
            require(proc.returncode == 0, f"exit {proc.returncode}")
            rows = np.array(_read_csv(curve_csv))
            require(rows.shape == (200, 2), f"curve has shape {rows.shape}")
            require_finite(curve=rows)
            require(bool(np.all(np.diff(rows[:, 0]) > 0) and np.all(np.diff(rows[:, 1]) > 0)),
                    "e(t) table not increasing")
        ops.append(Op("ll-emit-curve", emit_curve))

        reg = [lu(10.0, 200.0), lu(50.0, 500.0), u(0.2, 1.0), lu(1e-5, 1e-3)]

        def regimes():
            rec = _record(cli(["regimes", "--N", repr(reg[0]), "--L", repr(reg[1]),
                               "--r", repr(reg[2]), "--a", repr(reg[3])]))
            require_record_finite(rec)
        ops.append(Op("regimes", regimes))

        charged_args = {
            "foldy": ["--rho", repr(lu(0.1, 100.0))],
            "dyson": ["--N", repr(lu(10.0, 1e4))],
            "local": ["--nu", repr(lu(10.0, 1e3)), "--ell", repr(u(0.5, 4.0))],
        }
        A = u(0.5, 3.0)
        charged_args["bogolubov"] = ["--A", repr(A), "--B-plus", repr(u(0.0, 0.45 * A)),
                                     "--B-minus", repr(u(0.0, 0.45 * A))]
        for mode, extra in charged_args.items():
            def charged(mode=mode, extra=extra):
                rec = _record(cli(["charged", mode] + extra))
                require_record_finite(rec)
                if mode == "dyson":
                    vr = rec["outputs"]["virial_residual"]
                    require(vr <= 1e-3, f"Dyson virial residual {vr:.3e}")
            ops.append(Op(f"charged-{mode}", charged))

        cfg = files / "run.cfg"
        cfg.write_text(
            "[bounds]\n"
            f"rho = {lu(1e-6, 1e-2)!r}\na = {lu(0.1, 2.0)!r}\n"
            f"sweep = Y={lo!r}:{hi!r}:{n}\n"
            "[gp]\n"
            f"dim = {gp_dim}\nN = {gp_N!r}\ncoupling = {gp_c!r}\n")

        def validate():
            proc = cli(["validate", str(cfg)])
            require(proc.returncode == 0 and not proc.stdout.strip(),
                    f"validate: exit {proc.returncode}: {proc.stdout.strip()[:200]}")
        ops.append(Op("validate", validate))

        return ops


# --------------------------------------------------------------------------
# trap-batch
# --------------------------------------------------------------------------

def _virial_gate(rep: dict, N: float, c: float) -> None:
    """mu N = E + 4 pi mu c int phi^4 (mu = 1), the GP Euler-Lagrange
    equation integrated against the minimizer."""
    lhs = rep["mu_chem"] * N
    virial = abs(lhs - rep["E_total"] - 4.0 * math.pi * c * rep["quartic_integral"])
    require(virial <= 1e-6 * abs(lhs), f"GP virial identity {virial / abs(lhs):.3e}")


def _tf_gate(mu_tf: float, N: float, c: float) -> None:
    """Harmonic 3D Thomas-Fermi: mu_TF = (15 mu c N)^(2/5) with mu = 1."""
    exact = (15.0 * c * N) ** 0.4
    require(abs(mu_tf - exact) <= 1e-10 * exact, "harmonic 3D TF chemical potential")


class TrapBatch(Workload):
    name = "trap-batch"
    min_passes = 4                  # at least 200 ops for op_p90_s
    PASS_S = 3.0
    # ops per GP (dimension, grid) cell, per TF dimension, and Dyson ops:
    # with the 1D ops below, 24 GP, 20 1D, 4 TF and 2 Dyson make a pass of
    # 50.  ll_no_grad, the slowest kind, gets 6 of the 20 1D ops, so that
    # op_p90_s falls inside its cluster of times; at 4 it sat on the edge of
    # that cluster and swung by 10-20 % between seeds.
    PASS = (3, 2, 2)
    TINY = (1, 1, 1)
    KINDS = {"full": 4, "gp1d": 4, "tf1d": 3, "ll_no_grad": 6, "gt": 3}

    def setup(self, ctx: Context) -> dict:
        from bosegas import onedim
        cache = ctx.fresh_dir("cache")
        t0 = time.perf_counter()                  # cold build, never traced
        proc = ctx.python(["-m", "bosegas.cli", "ll", "--t", "1.0"], cache)
        cold = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"e(t) table pre-warm failed: {proc.stderr[-500:]}")
        setup = probe_setup(ctx, cache)
        os.environ["BOSEGAS_CACHE_DIR"] = str(cache)
        span = ctx.tracer.begin("setup.load_table") if ctx.tracer else None
        onedim.default_curve()                    # this process's warm load
        if span is not None:
            ctx.tracer.end(span)
        return dict(setup, cold_table_s=cold)

    def make_pass(self, ctx: Context, seed: int, p: int, tiny: bool,
                  repeat: int = 0) -> list[Op]:
        from bosegas import charged, meanfield, onedim
        rng = np.random.default_rng([seed, WORKLOAD_INDEX[self.name], p])
        n_gp, n_tf, n_dy = self.TINY if tiny else self.PASS
        ops = []

        # every (dimension, grid) cell gets the whole N*coupling range
        for dim in (2, 3):
            for n_grid in (1024, 2048, 4096, 8192):
                # N pairs with g at random: the cost follows g = N*coupling,
                # but convergence also depends on N
                g = stratified(rng, n_gp, 1e-2, 1e3, log=True)
                N = stratified(rng, n_gp, 1.0, 1e3, log=True,
                               order=rng.permutation(n_gp))
                for gi, Ni in zip(g, N):
                    prob = meanfield.GPProblem(dim, float(Ni), float(gi / Ni),
                                               n_grid=n_grid)

                    def gp(prob=prob):
                        _, rep = meanfield.gp_minimize(prob)
                        d = rep.as_dict()
                        require_finite(**d)
                        _virial_gate(d, prob.N, prob.coupling)
                    ops.append(Op("gp_minimize", gp))

        for kind, n_1d in self.KINDS.items():
            n_1d = 1 if tiny else n_1d
            N = stratified(rng, n_1d, 1.0, 100.0, log=True, jitter=NARROW)
            L = stratified(rng, n_1d, 1.0, 10.0, order=pairing(n_1d, 1),
                           jitter=NARROW)
            g = stratified(rng, n_1d, 1e-2, 10.0, log=True, order=pairing(n_1d, 2),
                           jitter=NARROW)
            for args in zip([kind] * len(N), N.tolist(), L.tolist(), g.tolist()):
                def one_d(args=args):
                    prof, energy, rho_bar = onedim.minimize_1d(*args, 2.0)
                    require_finite(energy=energy, rho_bar=rho_bar, rho=prof.rho)
                ops.append(Op(f"minimize_1d.{kind}", one_d))

        for dim in (2, 3):
            g = stratified(rng, n_tf, 1e-2, 1e3, log=True)
            N = stratified(rng, n_tf, 1.0, 1e3, log=True, order=pairing(n_tf, 1))
            for args in zip([dim] * len(N), N.tolist(), (g / N).tolist()):
                def tf(args=args):
                    _, rep, mu_tf = meanfield.tf_solve(*args)
                    require_finite(mu_tf=mu_tf, **rep.as_dict())
                    if args[0] == 3:
                        _tf_gate(mu_tf, args[1], args[2])
                ops.append(Op("tf_solve", tf))

        # distinct mu per call, so the minimizer's lru_cache never hits; a
        # repeat of the same pass moves each mu by one part in 1e9
        for mu in stratified(rng, n_dy, 0.5, 2.0, log=True):
            def dyson(mu=float(mu) * (1.0 + 1e-9 * repeat)):
                dm = charged.dyson_functional_minimize(mu)
                require_finite(energy=dm.energy, virial=dm.virial_residual)
                require(dm.energy < 0.0, "Dyson energy not negative")
                require(dm.virial_residual <= 1e-3,
                        f"Dyson virial residual {dm.virial_residual:.3e}")
            ops.append(Op("dyson_functional_minimize", dyson))

        rng.shuffle(ops)
        return ops


# --------------------------------------------------------------------------
# scatter-batch
# --------------------------------------------------------------------------

def _write_potential(path: Path, dim: int, R0: float, height: float,
                     samples: int) -> None:
    r = np.linspace(0.0, R0, samples)
    v = height * (1.0 - (r / R0) ** 2) ** 2
    with open(path, "w") as fh:
        fh.write(f"# dimension={dim}\n# R0={R0!r}\n")
        for ri, vi in zip(r, v):
            fh.write(f"{float(ri)!r} {float(vi)!r}\n")


class ScatterBatch(Workload):
    name = "scatter-batch"
    min_passes = 4                  # at least 100 ops for op_p90_s
    PASS_S = 5.0
    PASS_OPS = {"soft": 12, "hard": 4, "tabulated": 10}
    TINY_OPS = {"soft": 4, "hard": 2, "tabulated": 2}

    def setup(self, ctx: Context) -> dict:
        return probe_setup(ctx)

    def make_pass(self, ctx: Context, seed: int, p: int, tiny: bool,
                  repeat: int = 0) -> list[Op]:
        from bosegas import scattering
        rng = np.random.default_rng([seed, WORKLOAD_INDEX[self.name], p])
        counts = self.TINY_OPS if tiny else self.PASS_OPS
        files = ctx.fresh_dir(f"potentials-{p}")
        ops = []

        def solve(v, closed_form=None):
            sol = scattering.solve_zero_energy(v, 1.0)
            residuals = []
            if v.dimension == 3 and not sol.a <= 0.0:    # a NaN a is checked too
                residuals = [scattering.energy_identity_residual(
                    sol, v, k * v.core_radius)["residual"] for k in (2, 4, 8)]
            require_finite(a=sol.a, a_refined=sol.a_refined, identity=residuals)
            if closed_form is not None:
                require(abs(sol.a - closed_form) <= 1e-6 * closed_form,
                        f"closed form: a = {sol.a!r}, expected {closed_form!r}")
            require(abs(sol.a - sol.a_refined) <= 1e-6 * abs(sol.a),
                    "2x refinement disagrees")
            if residuals:
                require(max(residuals) <= 1e-5,
                        f"energy identity residual {max(residuals):.3e}")

        k = counts["soft"]
        v0s = np.concatenate([stratified(rng, k // 2, 1.0, 1e8, log=True)
                              for _ in (2, 3)])
        R0s = stratified(rng, k, 0.5, 2.0, order=pairing(k, 1))
        for i in range(k):
            dim, v0, R0 = 2 if i < k // 2 else 3, float(v0s[i]), float(R0s[i])
            v = scattering.soft_sphere(R0, v0, dim)
            kappa = math.sqrt(v0 / 2.0)
            exact = R0 - math.tanh(kappa * R0) / kappa if dim == 3 else None
            ops.append(Op(f"soft_sphere.{dim}d", lambda v=v, e=exact: solve(v, e)))

        k = counts["hard"]
        for i, R0 in enumerate(stratified(rng, k, 0.5, 2.0, order=pairing(k, 1))):
            dim = 2 if i < k // 2 else 3
            v = scattering.hard_core(float(R0), dim)
            exact = float(R0) if dim == 3 else None
            ops.append(Op(f"hard_core.{dim}d", lambda v=v, e=exact: solve(v, e)))

        k = counts["tabulated"]
        samples = np.rint(stratified(rng, k, 64, 1024, log=True,
                                     jitter=NARROW)).astype(int)
        heights = stratified(rng, k, 1.0, 1e3, log=True, order=pairing(k, 1))
        R0s = stratified(rng, k, 0.5, 2.0, order=pairing(k, 2))
        dims = np.where(pairing(k, 3) < k // 2, 2, 3)
        for i in range(k):
            path = files / f"v{i}.txt"
            _write_potential(path, int(dims[i]), float(R0s[i]), float(heights[i]),
                             int(samples[i]))

            def tabulated(path=path):
                solve(scattering.load_potential(path))
            ops.append(Op(f"tabulated.{dims[i]}d", tabulated))

        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (CliSession(), TrapBatch(), ScatterBatch())}
