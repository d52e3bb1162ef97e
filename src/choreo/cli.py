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

``choreo mpa`` reads its JSON configuration, each endpoint and the bulge
against one field table each (``_CONFIG``, ``_ENDPOINT``, ``_BULGE``: every
field's JSON type and default).  An unknown or missing field, a value of the
wrong type and a non-finite number are refused with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
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
    unpack_coefficients,
)
from .mountain_pass import MountainPassConfig, MountainPassError, mountain_pass
from .optimize import MAX_STARTS, DescentConfig, StartSpec, multistart
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


def _config(args, **resolved) -> dict:
    """The configuration an artifact embeds: every parsed argument but the
    output flags, the values resolved from them, and the version."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "svg", "csv")}
    return {**config, **resolved, "version": __version__}


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
    p.add_argument(
        "--starts", type=int, default=1, help=f"seeded starts to run, at most {MAX_STARTS}"
    )
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
    if not 1 <= args.starts <= MAX_STARTS:
        raise ValueError(f"--starts must be in 1..{MAX_STARTS}, got {args.starts}")
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

    doc = to_json_dict(
        result.loop,
        params,
        result.diagnostics,
        extra={"result": result.as_dict(), "config": _config(args, winding=winding)},
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
    doc["config"] = _config(args)
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
    doc["config"] = _config(args)
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
    checks = [r.as_dict() for r in results]
    doc = {"passed": ok, "checks": checks, "config": _config(args)}
    if args.out is not None:
        _dump_json(doc, args.out)
    if not ok:
        failed = ", ".join(f"{r.suite}/{r.name}" for r in results if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# mountain pass


# The fields of the three mpa input documents, name -> (JSON type, default).
# A number field (float) also takes a JSON integer, a field whose default is
# None also takes null, and a field whose default is ... is required.
_CONFIG = {
    "n": (int, ...), "alpha": (float, 1.0), "omega": (float, 0.0), "dim": (int, 2),
    "harmonics": (int, 12), "grid": (int, None), "nodes": (int, 21),
    "max_sweeps": (int, 4000), "saddle_tol": (float, 1e-6), "symmetry": (str, "none"),
    "endpoints": (list, ...), "bulge": (dict, {}), "out": (str, None), "svg": (bool, False),
}  # fmt: skip
_ENDPOINT = {
    "winding": (int, None), "radius": (float, None), "orbit": (str, None),
    "plane": (list, [0, 1]),
}  # fmt: skip
_BULGE = {
    "amplitude": (float, 0.0), "winding": (int, None), "shift": (float, None),
    "component": (int, None), "harmonic": (int, None), "kind": (str, "sin"),
}  # fmt: skip
_JSON_TYPES = {
    int: "an integer", float: "a number", str: "a string", bool: "true or false",
    list: "an array", dict: "an object",
}  # fmt: skip


def _add_mpa(sub) -> None:
    p = sub.add_parser("mpa", help="mountain-pass saddle search")
    p.add_argument("--config", type=Path, required=True)


def _read(entry, fields: dict, what: str) -> dict:
    """Every field of the JSON object ``entry``, given or defaulted, checked
    against its type in ``fields``; a number is read as a finite float."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object, not {json.dumps(entry)}")
    unknown = set(entry) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}; known: {sorted(fields)}")
    record = {}
    for name, (kind, default) in fields.items():
        if name not in entry:
            if default is ...:
                raise ValueError(f"{what} needs the field {name!r}")
            record[name] = default
            continue
        value = entry[name]
        if kind is float and type(value) is int:
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if type(value) is not kind and not (value is None and default is None):
            null = " or null" if default is None else ""
            raise ValueError(
                f"{what} field {name!r} must be {_JSON_TYPES[kind]}{null}, "
                f"not {json.dumps(value)}"
            )
        if kind is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{what} field {name!r} must be finite, not {value}")
        record[name] = value
    return record


def _load_endpoint(entry, params: SystemParams, cutoff: int):
    """(loop, entry with its defaults: a circle's computed radius and plane)."""
    end = _read(entry, _ENDPOINT, "endpoint")
    if end["orbit"] is not None:
        loop, _ = loop_from_json(json.loads(Path(end["orbit"]).read_text()))
        return loop, dict(entry)
    winding, radius, plane = end["winding"], end["radius"], list(end["plane"])
    if winding is None:
        raise ValueError("an endpoint needs a 'winding' or an 'orbit' field")
    if not (
        len(plane) == 2
        and plane[0] != plane[1]
        and all(type(c) is int and 0 <= c < params.d for c in plane)
    ):
        raise ValueError(
            f"endpoint field 'plane' must be two distinct coordinates in "
            f"0..{params.d - 1}, not {json.dumps(plane)}"
        )
    if radius is None:
        radius = spectral.circle_radius_for_winding(
            params.n, params.alpha, params.omega, winding
        )
    loop = FourierLoop.circle(radius, winding, dim=params.d, cutoff=cutoff, plane=plane)
    return loop, {"winding": winding, "radius": radius, "plane": plane}


def _load_bulge(entry, params: SystemParams, cutoff: int):
    """(shape, amplitude, entry with its defaults) of the transverse bulge: a
    (shifted) circle or a single harmonic, None if the amplitude is not > 0."""
    bulge = _read(entry, _BULGE, "bulge")
    amplitude = bulge["amplitude"]
    resolved = {**entry, "amplitude": amplitude}
    if amplitude <= 0.0:
        return None, 0.0, resolved
    if bulge["winding"] is not None:
        loop = FourierLoop.circle(1.0, bulge["winding"], dim=params.d, cutoff=cutoff)
        if bulge["shift"] is not None:
            loop = loop.shift(bulge["shift"])
        return loop, amplitude, resolved
    comp, harmonic, kind = bulge["component"], bulge["harmonic"], bulge["kind"]
    if not (
        comp in range(params.d) and harmonic in range(1, cutoff + 1) and kind in ("cos", "sin")
    ):
        raise ValueError(
            f"a bulge needs a 'winding', or a 'component' in 0..{params.d - 1} and a "
            f"'harmonic' in 1..{cutoff} (and 'kind' 'cos' or 'sin'): {json.dumps(entry)}"
        )
    cos = np.zeros((cutoff, params.d))
    sin = np.zeros((cutoff, params.d))
    (cos if kind == "cos" else sin)[harmonic - 1, comp] = 1.0
    return FourierLoop(np.zeros(params.d), cos, sin), amplitude, {**resolved, "kind": kind}


def cmd_mpa(args) -> int:
    config = _read(json.loads(args.config.read_text()), _CONFIG, "config")
    if len(config["endpoints"]) != 2:
        raise ValueError("config must list exactly two endpoints")
    if config["symmetry"] not in _GROUPS:
        raise ValueError(
            f"unknown symmetry {config['symmetry']!r}; choose from {sorted(_GROUPS)}"
        )
    params = SystemParams(
        n=config["n"], d=config["dim"], alpha=config["alpha"], omega=config["omega"]
    )
    cutoff = config["harmonics"]
    bulge, bulge_amp, bulge_doc = _load_bulge(config["bulge"], params, cutoff)
    cfg = MountainPassConfig(
        nodes=config["nodes"],
        cutoff=cutoff,
        grid_size=config["grid"],
        max_sweeps=config["max_sweeps"],
        saddle_tol=config["saddle_tol"],
        symmetry=_GROUPS[config["symmetry"]],
        bulge=bulge,
        bulge_amplitude=bulge_amp,
    )
    (end_a, doc_a), (end_b, doc_b) = (
        _load_endpoint(entry, params, cutoff) for entry in config["endpoints"]
    )
    result = mountain_pass(end_a, end_b, params, cfg)

    # every value the search used, defaults included: the config runs again
    # as it stands once "command" and "version" are dropped
    config_doc = {
        **config, "command": "mpa", "version": __version__,
        "grid": result.action.grid_size, "endpoints": [doc_a, doc_b], "bulge": bulge_doc,
    }  # fmt: skip
    doc = to_json_dict(
        result.loop,
        params,
        result.diagnostics,
        extra={"result": result.as_dict(), "config": config_doc},
    )
    if config["out"] is not None:
        out = Path(config["out"])
        _dump_json(doc, out / "saddle.json")
        path_doc = {
            "config": config_doc,
            "nodes": [
                to_json_dict(unpack_coefficients(vec, params.d, result.loop.cutoff), params)
                for vec in result.path
            ],
            "actions": list(result.profile),
        }
        _dump_json(path_doc, out / "path.json")
        if config["svg"]:
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each call gets a fresh namespace of defaults."""
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
    try:
        args = build_parser().parse_args(argv)
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
