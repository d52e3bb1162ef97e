"""Command line front end.

Subcommands: minimize, classify, spectrum, verify, mpa.  Exit codes:

* 0 -- success (for minimize: the descent converged);
* 2 -- mathematical non-attainment (the minimizing sequence escaped to
       infinity), which is a correct answer in the regimes where no minimum
       exists;
* 1 -- operational failure (bad arguments, collisions, non-convergence,
       a saddle search that ends no higher than its distinct endpoints).

Artifacts are deterministic: JSON is emitted with sorted keys, every file
embeds the fully resolved configuration, and no timestamps are written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, spectral, verify
from .action import CollisionError
from .loops import (
    EIGHT3D,
    FourierLoop,
    SystemParams,
    loop_from_json,
    samples_csv,
    to_json_dict,
)
from .mountain_pass import MountainPassConfig, MountainPassError, mountain_pass
from .optimize import DescentConfig, StartSpec, multistart
from .svgplot import orbit_svg, saddle_svg

_GROUPS = {"none": None, "eight3d": EIGHT3D}


def _dump_json(doc: dict, path: Path | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _iterations_csv(history) -> str:
    lines = ["iter,action,grad_norm,step"]
    for it, act, gn, step in history:
        lines.append(f"{it},{act!r},{gn!r},{step!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minimize


def _add_minimize(sub) -> None:
    p = sub.add_parser("minimize", help="descend the action from a seeded circle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--harmonics", type=int, default=8, help="Fourier cutoff K")
    p.add_argument("--grid", type=int, default=None, help="sample count M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--winding",
        type=int,
        default=None,
        help="initial circle winding; default: the best restricted circle",
    )
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--starts", type=int, default=1, help="seeded starts to run")
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--symmetry", choices=sorted(_GROUPS), default="none")
    p.add_argument("--pin-mean", action="store_true")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--csv", action="store_true", help="write body samples as CSV")


def _default_winding(params: SystemParams) -> int:
    pred = spectral.predicted_circle(params.n, params.alpha, params.omega)
    if pred is not None:
        return pred.winding
    # non-attainment at integer frame speed: descend the slow branch anyway
    return -max(int(round(params.omega)), 1)


def cmd_minimize(args) -> int:
    params = SystemParams(n=args.n, d=args.dim, alpha=args.alpha, omega=args.omega)
    cfg = DescentConfig(
        cutoff=args.harmonics,
        grid_size=args.grid,
        grad_tol=args.grad_tol,
        max_iters=args.max_iters,
        symmetry=_GROUPS[args.symmetry],
        pin_mean=args.pin_mean,
        log_every=1,
    )
    winding = args.winding if args.winding is not None else _default_winding(params)
    specs = [
        StartSpec(winding=winding, radius=args.radius, noise=args.noise, seed=args.seed + i)
        for i in range(args.starts)
    ]
    result = multistart(params, cfg, specs).best

    config_doc = {
        "command": "minimize",
        "n": args.n,
        "alpha": args.alpha,
        "omega": args.omega,
        "dim": args.dim,
        "harmonics": args.harmonics,
        "grid": args.grid,
        "seed": args.seed,
        "winding": winding,
        "radius": args.radius,
        "noise": args.noise,
        "starts": args.starts,
        "grad_tol": args.grad_tol,
        "max_iters": args.max_iters,
        "symmetry": args.symmetry,
        "pin_mean": args.pin_mean,
        "version": __version__,
    }
    doc = to_json_dict(
        result.loop,
        params,
        result.diagnostics,
        extra={"result": result.as_dict(), "config": config_doc},
    )
    out = args.out
    if out is not None:
        _dump_json(doc, out / "orbit.json")
        (out / "iterations.csv").write_text(_iterations_csv(result.history))
        if args.csv:
            (out / "samples.csv").write_text(samples_csv(result.loop, params))
        if args.svg:
            (out / "orbit.svg").write_text(orbit_svg(result.loop, params))
    else:
        _dump_json(doc, None)

    if result.escaped_to_infinity:
        print(
            "non-attainment: loop escaped to infinity "
            f"(rms norm {result.diagnostics.radius:.3g}, action "
            f"{result.action.total:.6f} still decreasing)",
            file=sys.stderr,
        )
        return 2
    if result.converged:
        return 0
    print(f"descent did not converge: {result.abort_reason}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# classify / spectrum


def _add_classify(sub) -> None:
    p = sub.add_parser("classify", help="regime of (n, alpha, omega)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--out", type=Path, default=None)


def cmd_classify(args) -> int:
    report = spectral.classify(args.n, args.alpha, args.omega)
    doc = report.as_dict()
    doc["config"] = {
        "command": "classify",
        "n": args.n,
        "alpha": args.alpha,
        "omega": args.omega,
        "version": __version__,
    }
    _dump_json(doc, args.out)
    return 0


def _add_spectrum(sub) -> None:
    p = sub.add_parser("spectrum", help="circulant spectrum for (n, alpha)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--variant", type=int, default=1, help="winding variant k")
    p.add_argument("--out", type=Path, default=None)


def cmd_spectrum(args) -> int:
    spec = spectral.circulant_spectrum(args.n, args.alpha, k=args.variant)
    doc = spec.as_dict()
    doc["config"] = {
        "command": "spectrum",
        "n": args.n,
        "alpha": args.alpha,
        "variant": args.variant,
        "version": __version__,
    }
    _dump_json(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the certification suites")
    p.add_argument(
        "--suite",
        choices=["inequalities", "spectral", "chain", "all"],
        default="all",
    )
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--out", type=Path, default=None)


def cmd_verify(args) -> int:
    results, ok = verify.run_suites([args.suite], seeds=args.seeds)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.name}: {r.detail}")
    doc = {
        "passed": ok,
        "checks": [r.as_dict() for r in results],
        "config": {
            "command": "verify",
            "suite": args.suite,
            "seeds": args.seeds,
            "version": __version__,
        },
    }
    if args.out is not None:
        _dump_json(doc, args.out)
    if not ok:
        failed = ", ".join(f"{r.suite}/{r.name}" for r in results if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# mountain pass


_MPA_KEYS = {
    "n",
    "alpha",
    "omega",
    "dim",
    "harmonics",
    "grid",
    "nodes",
    "saddle_tol",
    "max_sweeps",
    "symmetry",
    "endpoints",
    "bulge",
    "out",
    "svg",
}
_ENDPOINT_KEYS = {"winding", "radius", "orbit", "plane"}
_BULGE_KEYS = {"amplitude", "winding", "shift", "component", "harmonic", "kind"}


def _add_mpa(sub) -> None:
    p = sub.add_parser("mpa", help="mountain-pass saddle search")
    p.add_argument("--config", type=Path, required=True)


def _load_endpoint(entry: dict, params: SystemParams, cutoff: int) -> FourierLoop:
    unknown = set(entry) - _ENDPOINT_KEYS
    if unknown:
        raise ValueError(f"unknown endpoint fields: {sorted(unknown)}")
    if "orbit" in entry:
        loop, _ = loop_from_json(json.loads(Path(entry["orbit"]).read_text()))
        return loop
    winding = int(entry["winding"])
    radius = entry.get("radius")
    if radius is None:
        radius = spectral.circle_radius_for_winding(
            params.n, params.alpha, params.omega, winding
        )
    plane = tuple(entry.get("plane", (0, 1)))
    return FourierLoop.circle(
        float(radius), winding, dim=params.d, cutoff=cutoff, plane=plane
    )


def _load_bulge(entry: dict, params: SystemParams, cutoff: int):
    """Transverse bulge shape: a (shifted) circle or a single harmonic."""
    unknown = set(entry) - _BULGE_KEYS
    if unknown:
        raise ValueError(f"unknown bulge fields: {sorted(unknown)}")
    amplitude = float(entry.get("amplitude", 0.0))
    if amplitude <= 0.0:
        return None, 0.0
    if "winding" in entry:
        loop = FourierLoop.circle(1.0, int(entry["winding"]), dim=params.d, cutoff=cutoff)
        if "shift" in entry:
            loop = loop.shift(float(entry["shift"]))
        return loop, amplitude
    comp = int(entry["component"])
    harmonic = int(entry["harmonic"])
    kind = entry.get("kind", "sin")
    cos = np.zeros((cutoff, params.d))
    sin = np.zeros((cutoff, params.d))
    (cos if kind == "cos" else sin)[harmonic - 1, comp] = 1.0
    return FourierLoop(np.zeros(params.d), cos, sin), amplitude


def cmd_mpa(args) -> int:
    raw = json.loads(args.config.read_text())
    unknown = set(raw) - _MPA_KEYS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "endpoints" not in raw or len(raw["endpoints"]) != 2:
        raise ValueError("config must list exactly two endpoints")
    params = SystemParams(
        n=int(raw["n"]),
        d=int(raw.get("dim", 2)),
        alpha=float(raw.get("alpha", 1.0)),
        omega=float(raw.get("omega", 0.0)),
    )
    cutoff = int(raw.get("harmonics", 12))
    group = _GROUPS[raw.get("symmetry", "none")]
    bulge, bulge_amp = (None, 0.0)
    if "bulge" in raw:
        bulge, bulge_amp = _load_bulge(raw["bulge"], params, cutoff)
        if bulge is not None and group is not None:
            from .loops import project_symmetry

            bulge = project_symmetry(bulge, group)
    cfg = MountainPassConfig(
        nodes=int(raw.get("nodes", 21)),
        cutoff=cutoff,
        grid_size=raw.get("grid"),
        max_sweeps=int(raw.get("max_sweeps", 4000)),
        saddle_tol=float(raw.get("saddle_tol", 1e-6)),
        symmetry=group,
        bulge=bulge,
        bulge_amplitude=bulge_amp,
    )
    end_a = _load_endpoint(raw["endpoints"][0], params, cutoff)
    end_b = _load_endpoint(raw["endpoints"][1], params, cutoff)
    result = mountain_pass(end_a, end_b, params, cfg)

    config_doc = dict(raw)
    config_doc["command"] = "mpa"
    config_doc["version"] = __version__
    doc = to_json_dict(
        result.loop,
        params,
        result.diagnostics,
        extra={"result": result.as_dict(), "config": config_doc},
    )
    out = Path(raw["out"]) if "out" in raw else None
    if out is not None:
        _dump_json(doc, out / "saddle.json")
        path_doc = {
            "config": config_doc,
            "nodes": [
                to_json_dict(loop, params) for loop in result.path.to_loops()
            ],
            "actions": list(result.path.actions),
        }
        _dump_json(path_doc, out / "path.json")
        if raw.get("svg"):
            (out / "saddle.svg").write_text(
                saddle_svg(result.loop, (end_a, end_b), params)
            )
    else:
        _dump_json(doc, None)
    if not result.converged:
        print(
            f"saddle search stopped at gradient norm {result.grad_norm:.3e} "
            f"(tolerance {cfg.saddle_tol:.1e})",
            file=sys.stderr,
        )
        return 1
    if result.path_stop is not None and not result.above_endpoints:
        print(
            f"saddle search ended at action {result.action.total:.10g}, not above "
            f"the endpoints ({max(result.endpoint_actions):.10g})",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choreo",
        description="n-body choreography action minimization and certification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_minimize(sub)
    _add_classify(sub)
    _add_spectrum(sub)
    _add_verify(sub)
    _add_mpa(sub)
    return parser


_HANDLERS = {
    "minimize": cmd_minimize,
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "mpa": cmd_mpa,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the CLI contract reserves 2 for
        # mathematical non-attainment, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, CollisionError, MountainPassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
