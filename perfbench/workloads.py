"""The three benchmark workloads as fixed, seeded operation lists.

Each builder takes the workload seed and a scratch directory, generates
every input up front (this is part of set-up) and returns the operations of
one round.  An operation calls into ``choreo`` -- always through module
attributes, so the tracer's wrappers are seen -- times only those calls,
and checks the outcome with ``oracles``.  Operations that fail because of
a known fault of the program are marked ``known_fault``; their inputs do
not depend on the seed, so they fail identically in every round.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracles

loops = importlib.import_module("choreo.loops")
optimize = importlib.import_module("choreo.optimize")
mp = importlib.import_module("choreo.mountain_pass")
spectral = importlib.import_module("choreo.spectral")
bounds = importlib.import_module("choreo.bounds")
verify = importlib.import_module("choreo.verify")
cli = importlib.import_module("choreo.cli")

SystemParams = loops.SystemParams
FourierLoop = loops.FourierLoop

# Context for checks that call back into choreo (Hessians, samples); a
# traced run sets it to Tracer.pause so the checks leave no spans.
quiet = contextlib.nullcontext


@dataclass
class Outcome:
    fails: list
    iters: int = 0
    # (kind, seconds) of every timed choreo call: "op" is the workload's
    # main library operation, "cli" an in-process command, "aux" the rest
    timings: list = field(default_factory=list)
    sweeps: int = 0
    refine_iters: int = 0
    artifact_bytes: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    known_fault: bool = False


def timed(call):
    t0 = perf_counter()
    out = call()
    return perf_counter() - t0, out


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    """``choreo`` in-process; returns (seconds, exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        dt, code = timed(lambda: cli.main(argv))
    return dt, code, err.getvalue()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


def noisy_circle(rng, R, m, d, K, noise) -> FourierLoop:
    """Circle R (cos mt, sin mt) plus uniform coefficient noise on K harmonics."""
    cos = np.zeros((K, d))
    sin = np.zeros((K, d))
    cos[abs(m) - 1, 0] = R
    sin[abs(m) - 1, 1] = math.copysign(R, m)
    cos += rng.uniform(-noise, noise, (K, d))
    sin += rng.uniform(-noise, noise, (K, d))
    return FourierLoop(np.zeros(d), cos, sin)


def quiet_call(fn, *args):
    with quiet():
        return fn(*args)


def draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# descent


def descent(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []

    def minimize_op(name, p, init, cfg, check, known_fault=False):
        def run():
            dt, res = timed(lambda: optimize.minimize(p, init, cfg))
            return Outcome(check(res), res.iters, [("op", dt)])

        ops.append(Op(name, run, known_fault))

    # inertial circles across (n, alpha), d = 3
    for n in (2, 3, 5, 8):
        for alpha in (1.0, 2.0):
            p = SystemParams(n=n, d=3, alpha=alpha)
            R, _ = oracles.circle_optimum(n, alpha, 0.0, 1)
            init = noisy_circle(rng, R, 1, 3, 6, 0.05)
            minimize_op(
                f"inertial n={n} alpha={alpha:g}",
                p,
                init,
                optimize.DescentConfig(cutoff=6),
                lambda r, n=n, a=alpha: oracles.check_circle(r, n, a, 0.0, 1, 1e-8, False),
            )

    # rotating circles, both tied windings at omega = 1.5
    for n, omega, m in ((3, 0.5, -1), (3, 1.5, -1), (3, 1.5, -2), (5, 2.1, -2)):
        p = SystemParams(n=n, alpha=1.0, omega=omega)
        R, _ = oracles.circle_optimum(n, 1.0, omega, m)
        init = noisy_circle(rng, R, m, 2, 6, 0.05)
        minimize_op(
            f"rotating ({n}, 1, {omega:g}) winding {m}",
            p,
            init,
            optimize.DescentConfig(cutoff=6),
            lambda r, n=n, w=omega, m=m: oracles.check_circle(r, n, 1.0, w, m, 1e-8, True),
        )

    # non-attainment: the minimizing sequence escapes to infinity
    escapes = ((5, 3.0, -3, 1.2, 0.05, 4, 40), (6, 2.0, -2, 1.0, 0.08, 5, 48))
    for n, omega, m, R, noise, K, M in escapes:
        p = SystemParams(n=n, alpha=1.0, omega=omega)
        init = noisy_circle(rng, R, m, 2, K, noise)
        start = oracles.action(init.mean, init.cos_coeffs, init.sin_coeffs, n, 1.0, omega)
        minimize_op(
            f"escape ({n}, 1, {omega:g})",
            p,
            init,
            optimize.DescentConfig(cutoff=K, grid_size=M, escape_factor=10.0),
            lambda r, a0=start: oracles.check_escape(r, a0),
        )

    # non-rigid winding-2 minimizer with 3 clusters of 2.  Fixed start
    # (seed 0): over starts its iteration count ranges from 7k to 50k, as
    # descents settle in alternate non-rigid minima with a nearly flat mode,
    # which would swamp every seeded comparison of the round's totals.
    p = SystemParams(n=6, alpha=1.0, omega=1.8)
    minimize_op(
        "non-rigid (6, 1, 1.8) (seed 0)",
        p,
        noisy_circle(np.random.default_rng(0), 1.0, -2, 2, 12, 0.08),
        optimize.DescentConfig(cutoff=12, grad_tol=1e-4),
        lambda r: quiet_call(oracles.check_clusters, r, 6, 1e-4, 2, (3, 2)),
    )

    # non-planar n = 12: known to exhaust its budget on a saddle plateau.
    # Fixed input (start seed 0), independent of the workload seed.
    p = SystemParams(n=12, d=3, alpha=1.0, omega=6.55)
    R, _ = oracles.circle_optimum(12, 1.0, 6.55, -7)

    def must_converge(r):
        if r.converged and r.grad_norm < 1e-6:
            return []
        return [f"not converged: grad {r.grad_norm:.2e}, {r.abort_reason}"]

    minimize_op(
        "non-planar n=12 (seed 0)",
        p,
        noisy_circle(np.random.default_rng(0), R, -7, 3, 12, 0.12),
        optimize.DescentConfig(cutoff=12, grid_size=96, grad_tol=1e-6, max_iters=40_000),
        must_converge,
        known_fault=True,
    )

    # CLI multistart with every artifact, and a determinism pair
    def cli_args(n, alpha, omega, K, starts, s, out):
        return [
            "minimize", "--n", str(n), "--alpha", repr(alpha), "--omega", repr(omega),
            "--harmonics", str(K), "--starts", str(starts), "--seed", str(s),
            "--out", str(out), "--svg", "--csv",
        ]  # fmt: skip

    def check_cli_run(code, out: Path, n, alpha, omega, K):
        if code != 0:
            return [f"exit code {code}"], 0
        doc = json.loads((out / "orbit.json").read_text())
        res = doc["result"]
        fails = []
        A, m, R = oracles.best_circles(n, alpha, omega)[0]
        g = oracles.geometry(doc["mean"], doc["cos"], doc["sin"], n)
        if not (res["converged"] and res["grad_norm"] < 1e-8):
            fails.append(f"not converged: grad {res['grad_norm']:.2e}")
        if g["winding"] != m or abs(g["radius"] - R) >= 1e-4:
            fails.append(f"winding {g['winding']} radius {g['radius']:.8f} vs {m}, {R:.8f}")
        if oracles.rel_err(res["action"]["total"], A) >= 1e-6:
            fails.append(f"action {res['action']['total']} vs {A}")
        rows = (out / "iterations.csv").read_text().splitlines()
        acts = [float(r.split(",")[1]) for r in rows[1:]]
        if rows[0] != "iter,action,grad_norm,step" or any(
            b > a + 1e-12 * abs(a) for a, b in zip(acts, acts[1:])
        ):
            fails.append("iterations.csv is not a nonincreasing action log")
        samples = (out / "samples.csv").read_text().splitlines()
        cols = samples[0].split(",")
        if len(cols) != 1 + 2 * n or (len(samples) - 1) % n or len(samples) - 1 < 4 * K:
            fails.append(f"samples.csv shape {len(samples) - 1} x {len(cols)}")
        svg = (out / "orbit.svg").read_text()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            fails.append("orbit.svg is not an svg document")
        return fails, res["iters"]

    n, alpha, omega, K = 4, 1.0, 0.5, 8
    s_cli = draw_seed(rng) % 100_000
    out_a = work / "cli-minimize"

    def cli_op():
        dt, code, _ = run_cli(cli_args(n, alpha, omega, K, 6, s_cli, out_a))
        fails, iters = check_cli_run(code, out_a, n, alpha, omega, K)
        return Outcome(fails, iters, [("cli", dt)], artifact_bytes=dir_bytes(out_a))

    ops.append(Op("cli minimize --starts 6", cli_op))

    s_det = draw_seed(rng) % 100_000
    det_dirs = (work / "determinism-a", work / "determinism-b")
    artifacts = ("orbit.json", "iterations.csv", "samples.csv", "orbit.svg")

    def determinism_op():
        timings, codes = [], []
        for out in det_dirs:
            dt, code, _ = run_cli(cli_args(4, 2.0, 0.6, 8, 3, s_det, out))
            timings.append(("cli", dt))
            codes.append(code)
        fails, iters = check_cli_run(codes[0], det_dirs[0], 4, 2.0, 0.6, 8)
        if codes[1] != codes[0]:
            fails.append(f"exit codes differ: {codes}")
        for name in artifacts:
            a, b = ((d / name).read_bytes() for d in det_dirs)
            if a != b:
                fails.append(f"{name} differs between identical runs")
        size = sum(dir_bytes(d) for d in det_dirs)
        return Outcome(fails, iters, timings, artifact_bytes=size)

    ops.append(Op("cli minimize twice, byte-identical artifacts", determinism_op))
    # The CLI calls are short: spread them through the round, so that one
    # burst of load on a shared host does not hit all of them.
    return [ops[16], *ops[:12], ops[17], *ops[12:16]]


# ---------------------------------------------------------------------------
# saddle


def saddle(seed: int, work: Path) -> list[Op]:
    """Both criterion-7 saddles.  The seed picks an exact symmetry image of
    each problem (sign flips of coordinates, which IEEE arithmetic carries
    through bit for bit), so every seed does the same work."""
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []

    # tied-circle saddle at (3, 1, 1.5): library call; rotation by pi
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    K = 16
    R1, A1 = oracles.circle_optimum(3, 1.0, 1.5, -1)
    R2, _ = oracles.circle_optimum(3, 1.0, 1.5, -2)
    sign = -1.0 if rng.integers(0, 2) else 1.0
    end_a = FourierLoop.circle(R1, -1, dim=2, cutoff=K).scaled(sign)
    end_b = FourierLoop.circle(R2, -2, dim=2, cutoff=K).scaled(sign)
    bulge = FourierLoop.circle(1.0, 1, dim=2, cutoff=K).shift(math.pi / 2).scaled(sign)
    cfg = mp.MountainPassConfig(
        nodes=21, cutoff=K, saddle_tol=1e-6, bulge=bulge, bulge_amplitude=0.35, max_sweeps=800
    )

    def tied_op():
        dt, res = timed(lambda: mp.mountain_pass(end_a, end_b, p, cfg))
        obj = optimize.Objective(p, cutoff=K)
        fails, g = quiet_call(
            oracles.check_saddle,
            obj, obj.pack(res.loop), res.loop, res.converged, res.grad_norm,
            res.action.total, A1, 3,
        )  # fmt: skip
        if g["radius_spread"] <= 1e-2:
            fails.append("saddle is a circle")
        return Outcome(
            fails, res.sweeps + res.refine_iters, [("op", dt)],
            sweeps=res.sweeps, refine_iters=res.refine_iters,
        )  # fmt: skip

    ops.append(Op("tied saddle (3, 1, 1.5)", tied_op))

    # symmetric figure-eight saddle, d = 3, through `choreo mpa --config`;
    # optional reflections of x2 and x3
    K8 = 20
    p8 = SystemParams(n=3, d=3, alpha=1.0)
    R, A8 = oracles.circle_optimum(3, 1.0, 0.0, 1)
    flip = np.array([1.0, *(-1.0 if rng.integers(0, 2) else 1.0 for _ in range(2))])
    ends = []
    for x3 in (R, -R):
        cos = np.zeros((K8, 3))
        sin = np.zeros((K8, 3))
        sin[0, 1] = R
        cos[0, 2] = x3
        ends.append((cos * flip, sin * flip))
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (cos, sin) in enumerate(ends):
        doc = {
            "params": {"n": 3, "d": 3, "alpha": 1.0, "omega": 0.0},
            "cutoff": K8,
            "mean": [0.0, 0.0, 0.0],
            "cos": cos.tolist(),
            "sin": sin.tolist(),
        }
        path = work / f"eight-end-{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    out8 = work / "eight"
    config = work / "eight-mpa.json"
    config.write_text(
        json.dumps(
            {
                "n": 3, "dim": 3, "alpha": 1.0, "omega": 0.0, "harmonics": K8,
                "nodes": 21, "saddle_tol": 1e-6, "max_sweeps": 800,
                "symmetry": "eight3d",
                "endpoints": [{"orbit": str(paths[0])}, {"orbit": str(paths[1])}],
                "bulge": {"amplitude": 0.5 * R, "component": 0, "harmonic": 2, "kind": "sin"},
                "out": str(out8), "svg": True,
            }  # fmt: skip
        )
    )

    def eight_op():
        dt, code, err = run_cli(["mpa", "--config", str(config)])
        if code != 0:
            return Outcome([f"exit code {code}: {err.strip()[-200:]}"], 0, [("cli", dt)])
        doc = json.loads((out8 / "saddle.json").read_text())
        res = doc["result"]
        loop = FourierLoop(np.asarray(doc["mean"]), np.asarray(doc["cos"]), np.asarray(doc["sin"]))
        obj = optimize.Objective(p8, cutoff=K8, symmetry=loops.EIGHT3D)
        fails, g = quiet_call(
            oracles.check_saddle,
            obj, obj.pack(loop), loop, res["converged"], res["grad_norm"],
            res["action"]["total"], A8, 3,
        )  # fmt: skip
        X = oracles.sample(loop.mean, loop.cos_coeffs, loop.sin_coeffs, 192)
        x1 = X[:, 0]
        signs = np.sign(x1[np.abs(x1) > 1e-9])
        changes = int(np.sum(signs != np.roll(signs, 1)))
        if float(np.max(np.abs(X[:, 2]))) >= 1e-3:
            fails.append(f"not planar: sup|x3| = {float(np.max(np.abs(X[:, 2]))):.2e}")
        if changes != 4 or float(np.max(np.abs(x1))) <= 0.1:
            fails.append(f"{changes} sign changes of x1, not a figure eight")
        if g["min_separation"] <= 0.05:
            fails.append(f"min separation {g['min_separation']:.3f}")
        if not (out8 / "saddle.svg").read_text().rstrip().endswith("</svg>"):
            fails.append("saddle.svg is not an svg document")
        return Outcome(
            fails, res["sweeps"] + res["refine_iters"], [("cli", dt)],
            sweeps=res["sweeps"], refine_iters=res["refine_iters"],
            artifact_bytes=dir_bytes(out8),
        )  # fmt: skip

    ops.append(Op("figure-eight saddle via choreo mpa", eight_op))
    return ops


# ---------------------------------------------------------------------------
# certify


def certify(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops: list[Op] = []

    def suite_op(name, call, count):
        def run():
            dt, outcomes = timed(call)
            fails = [f"{o.name}: {o.detail}" for o in outcomes if not o.passed]
            if len(outcomes) != count:
                fails.append(f"{len(outcomes)} checks, expected {count}")
            return Outcome(fails, 0, [("aux", dt)])

        ops.append(Op(name, run))

    s_ineq, s_chain = draw_seed(rng), draw_seed(rng)
    suite_op("verify spectral", lambda: verify.suite_spectral(), 7)
    suite_op("verify inequalities", lambda: verify.suite_inequalities(seeds=200, seed=s_ineq), 6)
    suite_op("verify chain", lambda: verify.suite_chain(seeds=200, seed=s_chain), 4)

    def classify_op(n, alpha, omega, kind="op", known_fault=False):
        def run():
            t0 = perf_counter()
            try:
                rep = spectral.classify(n, alpha, omega)
            except ValueError:
                return Outcome([], 0, [(kind, perf_counter() - t0)])  # a valid refusal
            dt = perf_counter() - t0
            return Outcome(oracles.check_regime(n, alpha, omega, rep.as_dict()), 0, [(kind, dt)])

        ops.append(Op(f"classify ({n}, {alpha:g}, {omega:.6g})", run, known_fault))

    # regime sweep: n 3..8, alpha 1 and 2, omega stratified over [0, n)
    for n in range(3, 9):
        for alpha in (1.0, 2.0):
            for j, u in enumerate(rng.uniform(0.0, 1.0, 8)):
                classify_op(n, alpha, (j + u) * n / 8.0)
    # known fault: omega_bar is rounding noise here, yet a certificate is issued
    classify_op(3, 1.0, 1e300, kind="aux", known_fault=True)

    alpha_s = float(rng.uniform(0.5, 3.0))
    for n in range(2, 51):

        def spectrum_op(n=n):
            dt, spec = timed(lambda: spectral.circulant_spectrum(n, alpha_s))
            fails = oracles.check_spectrum(n, spec.mu_bar, spec.deltas, spec.multiplicities)
            return Outcome(fails, 0, [("aux", dt)])

        ops.append(Op(f"spectrum n={n}", spectrum_op))

    # Fixed problems (seed 0): whether a problem runs to the 200-iteration
    # cap depends on rounding (30-80% of random problems do), so seeded
    # problems would make the iteration count jump between seeds.
    fixed = np.random.default_rng(0)
    for _ in range(24):
        mu = fixed.uniform(0.2, 2.0, int(fixed.integers(1, 8)))
        beta = float(fixed.uniform(0.3, 2.5))

        def power_op(mu=mu, beta=beta):
            dt, res = timed(lambda: bounds.constrained_power_min(mu, beta))
            return Outcome(oracles.check_power_min(mu, beta, res), res.iters, [("aux", dt)])

        ops.append(Op(f"power-sum minimum K={mu.size}", power_op))

    # the same layers through the command line
    work.mkdir(parents=True, exist_ok=True)
    for n in (3, 4, 6, 7):
        alpha = float(rng.choice([1.0, 2.0]))
        omega = float(rng.uniform(0.0, n))
        out = work / f"classify-{n}.json"

        def cli_classify(n=n, alpha=alpha, omega=omega, out=out):
            argv = ["classify", "--n", str(n), "--alpha", repr(alpha), "--omega", repr(omega)]
            dt, code, _ = run_cli(argv + ["--out", str(out)])
            if code != 0:
                return Outcome([f"exit code {code}"], 0, [("cli", dt)])
            doc = json.loads(out.read_text())
            return Outcome(
                oracles.check_regime(n, alpha, omega, doc), 0, [("cli", dt)],
                artifact_bytes=out.stat().st_size,
            )  # fmt: skip

        ops.append(Op(f"cli classify n={n}", cli_classify))
    for n in (int(rng.integers(5, 30)), int(rng.integers(30, 51))):
        out = work / f"spectrum-{n}.json"

        def cli_spectrum(n=n, out=out):
            argv = ["spectrum", "--n", str(n), "--alpha", repr(alpha_s), "--out", str(out)]
            dt, code, _ = run_cli(argv)
            if code != 0:
                return Outcome([f"exit code {code}"], 0, [("cli", dt)])
            doc = json.loads(out.read_text())
            fails = oracles.check_spectrum(n, doc["mu_bar"], doc["deltas"], doc["multiplicities"])
            return Outcome(fails, 0, [("cli", dt)], artifact_bytes=out.stat().st_size)

        ops.append(Op(f"cli spectrum n={n}", cli_spectrum))
    out_v = work / "verify.json"

    def cli_verify():
        dt, code, _ = run_cli(["verify", "--suite", "chain", "--seeds", "24", "--out", str(out_v)])
        doc = json.loads(out_v.read_text()) if code == 0 else {}
        ok = doc.get("passed") and len(doc.get("checks", ())) == 4
        fails = [] if ok else [f"exit code {code}, passed {doc.get('passed')}"]
        return Outcome(fails, 0, [("cli", dt)], artifact_bytes=out_v.stat().st_size)

    ops.append(Op("cli verify chain", cli_verify))
    return ops


WORKLOADS = {"descent": descent, "saddle": saddle, "certify": certify}


def warm(ops_name: str) -> None:
    """Fill the lazy caches the first operation would otherwise pay for."""
    if ops_name == "certify":
        spectral.classify(5, 1.0, 2.3)
        return
    points = ((3, 2, 6, 48, 0.5), (6, 2, 12, 96, 1.8), (12, 3, 12, 96, 6.55), (3, 2, 16, 66, 1.5))
    for n, d, K, M, omega in points:
        obj = optimize.Objective(SystemParams(n=n, d=d, omega=omega), cutoff=K, grid_size=M)
        obj.value_and_grad(obj.pack(FourierLoop.circle(1.0, 1, dim=d, cutoff=K)))
