import json
import math
from pathlib import Path

import numpy as np
import pytest

from choreo import cli
from choreo.verify import CheckOutcome


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    """An artifact parsed as strict JSON: the NaN and Infinity tokens that
    json.loads accepts are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


# ---------------------------------------------------------------------------
# the package


def test_every_exported_name_resolves():
    import choreo

    assert len(set(choreo.__all__)) == len(choreo.__all__)
    for name in choreo.__all__:
        assert getattr(choreo, name) is not None, name
    namespace = {}
    exec("from choreo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(choreo.__all__)


# ---------------------------------------------------------------------------
# classify / spectrum


def test_classify_stdout_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "5", "--alpha", "1", "--omega", "2.1")
    assert code == 0
    doc = strict_json(out)
    assert doc["regime"] == "ROTATING_CIRCLE"
    assert doc["predicted_winding"] == 2
    assert doc["config"]["command"] == "classify"


def test_classify_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--n", "6", "--omega", "1.8")
    _, out2, _ = run(capsys, "classify", "--n", "6", "--omega", "1.8")
    assert out1 == out2


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_classify_refuses_fewer_than_two_bodies(capsys, n):
    code, out, err = run(capsys, "classify", "--n", n, "--omega", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n >= 2" in err
    assert len(err.strip().splitlines()) == 1


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--alpha", "1")
    assert code == 0
    doc = strict_json(out)
    assert abs(doc["deltas"][1] - 1.0 / (2 * math.pi)) < 1e-14
    assert doc["multiplicities"] == [1, 2]


def test_spectrum_variant_requires_coprime(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "6", "--variant", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "20000", "--alpha", "1"),
        ("--n", "5", "--alpha", "nan"),
        ("--n", "5", "--alpha", "inf"),
    ],
)
def test_spectrum_refuses_unaffordable_or_non_finite_input(capsys, argv):
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_spectrum_beyond_dense_check_cap_runs():
    from choreo import spectral

    n = spectral.DENSE_CHECK_MAX_N + 1
    spec = spectral.circulant_spectrum(n, 1.0)
    assert abs(spec.deltas[1] - 1.0 / (2 * math.pi)) < 1e-12


def test_malformed_flag_exits_one(capsys):
    code, _, _ = run(capsys, "classify", "--n", "3", "--omega")
    assert code == 1


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# ---------------------------------------------------------------------------
# minimize


def test_minimize_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(
        capsys,
        "minimize",
        "--n", "3", "--alpha", "1", "--omega", "0",
        "--seed", "7", "--harmonics", "6", "--noise", "0.05",
        "--out", str(out), "--svg", "--csv",
    )
    assert code == 0
    doc = strict_json((out / "orbit.json").read_text())
    assert doc["result"]["converged"] is True
    assert abs(doc["diagnostics"]["radius"] - 3.0 ** (-1.0 / 6.0)) < 1e-4
    # one gradient at the start and one per accepted step; every further
    # value evaluation is a line-search trial
    result = doc["result"]
    assert result["grad_evals"] == result["iters"]
    assert result["value_evals"] > result["grad_evals"]
    assert result["collision_rejects"] == 0
    assert doc["config"]["seed"] == 7
    csv = (out / "iterations.csv").read_text().splitlines()
    assert csv[0] == "iter,action,grad_norm,step"
    assert len(csv) > 2
    svg = (out / "orbit.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert (out / "samples.csv").exists()


def test_minimize_deterministic_artifacts(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "minimize",
            "--n", "3", "--omega", "0", "--seed", "3",
            "--harmonics", "4", "--out", str(out),
        )
        assert code == 0
        outs.append((out / "orbit.json").read_bytes())
    assert outs[0] == outs[1]


def test_minimize_escape_exit_code_two(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "minimize",
        "--n", "2", "--alpha", "1", "--omega", "1",
        "--harmonics", "4", "--grid", "16", "--seed", "0",
        "--out", str(tmp_path / "esc"),
    )
    assert code == 2
    assert "non-attainment" in err


def test_minimize_budget_exhausted_exits_one(tmp_path, capsys):
    out = tmp_path / "short"
    code, _, err = run(
        capsys,
        "minimize",
        "--n", "3", "--omega", "0.5", "--harmonics", "6",
        "--max-iters", "2", "--out", str(out),
    )
    assert code == 1
    assert err == "descent did not converge: iteration budget exhausted\n"
    result = strict_json((out / "orbit.json").read_text())["result"]
    assert result["converged"] is False and result["iters"] == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--harmonics", "100000000"),
        ("--grid", "100000000"),
        ("--winding", "100000000"),
    ],
)
def test_minimize_refuses_unaffordable_discretisation(tmp_path, capsys, flags):
    code, _, err = run(
        capsys,
        "minimize",
        "--n", "3", "--alpha", "1", "--omega", "0",
        *flags, "--out", str(tmp_path / "big"),
    )
    assert code == 1
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize(
    "flags",
    [("--noise", "inf"), ("--noise", "nan"), ("--noise", "-0.1"), ("--grad-tol", "nan")],
)
def test_minimize_refuses_non_finite_or_negative_noise_and_nan_tolerance(
    tmp_path, capsys, flags
):
    code, _, err = run(
        capsys,
        "minimize",
        "--n", "3", "--harmonics", "4", *flags, "--out", str(tmp_path / "run"),
    )
    assert code == 1
    assert err.startswith("error: ") and flags[0][2:].replace("-", "_") in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("noise", ["1e308", "1e200"])
def test_minimize_refuses_noise_beyond_the_radius_cap(tmp_path, capsys, noise):
    # 1e308 overflowed numpy's uniform draw and 1e200 the action, each
    # ending in a traceback or an eigensolver error
    code, out, err = run(
        capsys,
        "minimize",
        "--n", "3", "--noise", noise, "--out", str(tmp_path / "run"),
    )
    assert code == 1
    assert err.startswith("error: noise ") and "radius" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("radius", ["1e200", "inf", "nan", "1e7"])
def test_minimize_refuses_a_radius_beyond_the_cap(tmp_path, capsys, radius):
    # 1e200 overflowed the action (warnings, then an eigensolver error), and
    # inf was reported as non-finite cos coefficients
    code, out, err = run(
        capsys,
        "minimize",
        "--n", "3", "--radius", radius, "--out", str(tmp_path / "run"),
    )  # fmt: skip
    assert code == 1
    assert err.startswith("error: radius must be finite with |radius| <= 1e+06")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("starts", ["1000000000", "10001", "0", "-3"])
def test_minimize_refuses_starts_beyond_the_cap_before_any_start(
    tmp_path, capsys, monkeypatch, starts
):
    # --starts 1000000000 built 10^9 StartSpecs before any check
    made = []
    monkeypatch.setattr(cli, "StartSpec", lambda *a, **k: made.append(1))
    code, out, err = run(
        capsys, "minimize", "--n", "3", "--starts", starts, "--out", str(tmp_path / "run")
    )
    assert code == 1 and not out
    assert err.startswith(f"error: --starts must be in 1..{cli.MAX_STARTS}, got {starts}")
    assert len(err.strip().splitlines()) == 1
    assert not made and not (tmp_path / "run").exists()


def _artifacts(path: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_cached_parser_gives_each_call_fresh_defaults(tmp_path, capsys):
    # main builds its parser once per process; a call after others with
    # other subcommands and flags parses as with a parser of its own
    calls = [
        ("minimize", "--n", "3", "--omega", "0.5", "--harmonics", "5", "--starts", "2",
         "--seed", "4", "--svg", "--csv", "--pin-mean"),
        ("classify", "--n", "4", "--omega", "1.2"),
        ("minimize", "--n", "3", "--harmonics", "4"),
        ("spectrum", "--n", "5", "--variant", "2"),
        ("minimize", "--n", "4", "--alpha", "2", "--omega", "0.6", "--starts", "3", "--csv"),
    ]  # fmt: skip
    written = {}
    for fresh in (False, True):
        for k, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}"
            if argv[0] == "minimize":
                assert run(capsys, *argv, "--out", str(out))[0] == 0
                written[fresh, k] = _artifacts(out)
            else:
                assert run(capsys, *argv, "--out", str(out / "doc.json"))[0] == 0
                written[fresh, k] = _artifacts(out)
    for k in range(len(calls)):
        assert written[False, k] == written[True, k]
    # the flags of the first call do not leak into the third
    config = strict_json(written[False, 2]["orbit.json"].decode())["config"]
    assert (config["omega"], config["starts"], config["pin_mean"]) == (0.0, 1, False)
    assert set(written[False, 2]) == {"orbit.json", "iterations.csv"}
    assert cli.build_parser() is cli.build_parser()


def test_minimize_orbit_schema_round_trips(tmp_path, capsys):
    out = tmp_path / "run"
    run(
        capsys,
        "minimize",
        "--n", "3", "--omega", "0", "--seed", "1",
        "--harmonics", "4", "--out", str(out),
    )
    from choreo.loops import loop_from_json

    loop, params = loop_from_json(strict_json((out / "orbit.json").read_text()))
    assert params.n == 3
    assert loop.cutoff == 4


# ---------------------------------------------------------------------------
# verify


def test_verify_inequalities_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inequalities", "--seeds", "40")
    assert code == 0
    assert "[PASS] inequalities/poincare" in out
    assert "jensen" in out
    assert "trig" in out


def test_verify_routing(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chain", "--seeds", "24")
    assert code == 0
    assert "spectral/" not in out
    assert "chain/" in out


def test_verify_injected_fault_names_invariant(monkeypatch, capsys):
    # harness contract: corrupting delta_1 must fail with the invariant named
    import choreo.spectral as spectral
    import choreo.verify as verify

    true_spectrum = spectral.circulant_spectrum

    def corrupted(n, alpha, k=1, cross_validate=True):
        spec = true_spectrum(n, alpha, k=k, cross_validate=False)
        deltas = spec.deltas.copy()
        deltas[1] *= 1.5  # flip delta_1 away from 1/(2 pi)
        object.__setattr__(spec, "deltas", deltas)
        return spec

    monkeypatch.setattr(spectral, "circulant_spectrum", corrupted)
    code = cli.main(["verify", "--suite", "spectral"])
    out = capsys.readouterr()
    assert code == 1
    assert "delta1_value" in out.out
    assert "delta1_value" in out.err or "failed" in out.err


def test_verify_wrong_multiplicities_fail_the_pattern_check(monkeypatch):
    # a multiplicity pattern with the right total but the wrong shape: the
    # check counts the eigenvectors itself, so it must not pass
    import choreo.spectral as spectral
    import choreo.verify as verify

    true_multiplicities = spectral._multiplicities
    monkeypatch.setattr(
        spectral, "_multiplicities", lambda n: tuple(reversed(true_multiplicities(n)))
    )
    checks = {c.name: c for c in verify.suite_spectral()}
    assert len(checks) == 7
    assert checks["multiplicity_pattern"].passed is False


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_refuses_runs_without_draws(capsys, seeds):
    # a check over no random loops would report a pass on nothing
    code, out, err = run(capsys, "verify", "--suite", "inequalities", "--seeds", seeds)
    assert code == 1
    assert "PASS" not in out
    assert err.startswith("error: ") and "seeds" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "inequalities", "--seeds", "24",
        "--out", str(report),
    )
    assert code == 0
    doc = strict_json(report.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_spectral_report_file(tmp_path, capsys):
    # the spectral checks compare numpy scalars: the report must still be
    # plain JSON booleans
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "spectral", "--out", str(report))
    assert code == 0, err
    doc = strict_json(report.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] is True for c in doc["checks"])


# ---------------------------------------------------------------------------
# mountain pass


def test_mpa_config_runs_and_writes(tmp_path, capsys):
    config = {
        "n": 3,
        "alpha": 1.0,
        "omega": 1.5,
        "harmonics": 12,
        "nodes": 15,
        "max_sweeps": 300,
        "saddle_tol": 1e-6,
        "endpoints": [{"winding": -1}, {"winding": -2}],
        "bulge": {"amplitude": 0.35, "winding": 1, "shift": math.pi / 2},
        "out": str(tmp_path / "mpa"),
        "svg": True,
    }
    path = tmp_path / "mpa.json"
    path.write_text(json.dumps(config))
    code, _, _ = run(capsys, "mpa", "--config", str(path))
    assert code == 0
    doc = strict_json((tmp_path / "mpa" / "saddle.json").read_text())
    assert doc["result"]["converged"] is True
    assert doc["result"]["above_endpoints"] is True
    # why the path phase stopped and how much the search evaluated
    result = doc["result"]
    assert result["path_stop"] in ("max_sweeps", "refine_trigger", "stagnation")
    for key in ("value_evals", "kernel_calls", "grad_evals"):
        assert isinstance(result[key], int) and result[key] > 0
    assert result["value_evals"] > result["kernel_calls"]
    assert (tmp_path / "mpa" / "path.json").exists()
    assert (tmp_path / "mpa" / "saddle.svg").exists()


def test_mpa_artifacts_embed_the_resolved_config(tmp_path, capsys):
    # a minimal config: every default the search used is written out, and
    # the embedded config, run again as it stands, gives the same document
    minimal = {"n": 2, "endpoints": [{"winding": 1}, {"winding": -1}]}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(minimal))
    code, out, _ = run(capsys, "mpa", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    config = doc["config"]
    assert config["command"] == "mpa"
    for key in ("dim", "alpha", "omega", "harmonics", "grid", "nodes",
                "max_sweeps", "saddle_tol", "symmetry", "bulge", "out", "svg"):  # fmt: skip
        assert key in config, key
    assert config["grid"] == doc["result"]["action"]["grid_size"]
    for end in config["endpoints"]:
        assert end["radius"] > 0.0 and end["plane"] == [0, 1]

    rerun = {k: v for k, v in config.items() if k not in ("command", "version")}
    path.write_text(json.dumps(rerun))
    code, out, _ = run(capsys, "mpa", "--config", str(path))
    assert code == 0
    again = strict_json(out)
    assert again["result"] == doc["result"]
    for key in ("mean", "cos", "sin"):
        assert again[key] == doc[key]
    assert again == doc


def _two_body_mpa(tmp_path, **fields) -> Path:
    """An mpa config between the winding +-1 circles of n = 2 at K = 4."""
    config = {
        "n": 2,
        "harmonics": 4,
        "nodes": 3,
        "endpoints": [{"winding": 1}, {"winding": -1}],
        **fields,
    }
    path = tmp_path / "mpa.json"
    path.write_text(json.dumps(config))
    return path


def test_mpa_deterministic_artifacts(tmp_path, capsys):
    # the same config twice into the same directory (saddle.json embeds it)
    # writes the same bytes; each run's files are removed once read
    out = tmp_path / "mpa"
    path = _two_body_mpa(tmp_path, out=str(out), svg=True)
    files = [out / name for name in ("saddle.json", "path.json", "saddle.svg")]
    runs = []
    for _ in range(2):
        code, _, _ = run(capsys, "mpa", "--config", str(path))
        assert code == 0
        runs.append([f.read_bytes() for f in files])
        for f in files:
            f.unlink()
    assert runs[0] == runs[1]


def test_mpa_unreachable_tolerance_exits_one(tmp_path, capsys):
    path = _two_body_mpa(tmp_path, saddle_tol=1e-300, out=str(tmp_path / "mpa"))
    code, _, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert err.startswith("saddle search stopped at gradient norm")
    assert "(tolerance 1.0e-300)" in err
    result = strict_json((tmp_path / "mpa" / "saddle.json").read_text())["result"]
    assert result["converged"] is False


def _minimized_endpoints(tmp_path, capsys) -> list:
    """mpa endpoints: the orbit.json files of `choreo minimize --out` for the
    winding +-1 circles of n = 2 at K = 4."""
    ends = []
    for winding in ("1", "-1"):
        out = tmp_path / f"end{winding}"
        code, _, _ = run(
            capsys,
            "minimize",
            "--n", "2", "--harmonics", "4", "--winding", winding, "--out", str(out),
        )
        assert code == 0
        ends.append({"orbit": str(out / "orbit.json")})
    return ends


def test_mpa_orbit_endpoints_from_minimize_with_harmonic_bulge(tmp_path, capsys):
    # the endpoints are orbit.json files written by `choreo minimize --out`;
    # the bulge is one harmonic of one component
    ends = _minimized_endpoints(tmp_path, capsys)
    bulge = {"amplitude": 0.3, "component": 1, "harmonic": 1, "kind": "sin"}
    path = _two_body_mpa(tmp_path, endpoints=ends, bulge=bulge, out=str(tmp_path / "mpa"))
    code, _, _ = run(capsys, "mpa", "--config", str(path))
    assert code == 0
    doc = strict_json((tmp_path / "mpa" / "saddle.json").read_text())
    assert doc["result"]["converged"] is True
    assert doc["result"]["above_endpoints"] is True
    assert doc["config"]["endpoints"] == ends


def test_mpa_drained_to_endpoint_level_exits_one(tmp_path, capsys):
    # with these endpoints and bulge the search converges at the endpoints'
    # own action, a critical point but no saddle above them
    ends = _minimized_endpoints(tmp_path, capsys)
    bulge = {"amplitude": 0.3, "component": 0, "harmonic": 2, "kind": "sin"}
    path = _two_body_mpa(tmp_path, endpoints=ends, bulge=bulge, out=str(tmp_path / "mpa"))
    code, _, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert err.startswith("saddle search ended at action")
    assert len(err.strip().splitlines()) == 1
    result = strict_json((tmp_path / "mpa" / "saddle.json").read_text())["result"]
    assert result["converged"] is True
    assert result["above_endpoints"] is False
    assert result["path_stop"] is not None


def test_mpa_colliding_endpoint_exits_one(tmp_path, capsys):
    # winding 3 at n = 3 puts all bodies on one point
    config = {
        "n": 3,
        "omega": 0.5,
        "harmonics": 6,
        "endpoints": [{"winding": -1}, {"winding": 3, "radius": 1.0}],
    }
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert err.startswith("error: near-collision")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_mpa_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "endpoints": [], "bogus": 1}))
    code, _, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert "bogus" in err


def test_mpa_requires_two_endpoints(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "endpoints": [{"winding": -1}]}))
    code, _, _ = run(capsys, "mpa", "--config", str(path))
    assert code == 1


_CIRCLES = [{"winding": -1}, {"winding": 1}]
# a quick two-body search, so that a malformed field accepted by mistake runs fast
_SMALL = {"n": 2, "harmonics": 4, "nodes": 3, "endpoints": [{"winding": 1}, _CIRCLES[0]]}


@pytest.mark.parametrize(
    "config, field",
    [
        ({"n": 3, "symmetry": "bogus", "endpoints": _CIRCLES}, "symmetry"),
        ({"n": 3, "endpoints": [{"winding": -1}, {"radius": 1.0}]}, "winding"),
        ({"endpoints": _CIRCLES}, "'n'"),
        ({"n": 3, "endpoints": [{"winding": -1}, 7]}, "endpoint"),
        ({"n": 3, "endpoints": {"a": 1, "b": 2}}, "endpoints"),
        ({"n": 3, "endpoints": _CIRCLES, "bulge": {"amplitude": 0.3}}, "component"),
        (
            {"n": 3, "endpoints": _CIRCLES,
             "bulge": {"amplitude": 0.3, "component": 2, "harmonic": 1}},
            "component",
        ),
        ([1, 2], "JSON object"),
        ({**_SMALL, "n": None}, "'n'"),
        ({**_SMALL, "n": True}, "'n'"),
        ({**_SMALL, "n": 3.7}, "'n'"),
        ({**_SMALL, "harmonics": None}, "'harmonics'"),
        ({**_SMALL, "nodes": "21"}, "'nodes'"),
        ({**_SMALL, "grid": "x"}, "'grid'"),
        ({**_SMALL, "saddle_tol": math.nan}, "'saddle_tol'"),
        ({**_SMALL, "svg": 1}, "'svg'"),
        ({**_SMALL, "endpoints": [{"winding": 1, "plane": 5}, _CIRCLES[0]]}, "'plane'"),
        ({**_SMALL, "endpoints": [{"winding": 1, "plane": [0, 5]}, _CIRCLES[0]]}, "'plane'"),
        ({**_SMALL, "endpoints": [{"orbit": 5}, _CIRCLES[0]]}, "'orbit'"),
    ],
    ids=[
        "unknown-symmetry", "no-winding", "no-n", "endpoint-not-object",
        "endpoints-not-list", "bulge-without-shape", "bulge-component-out-of-range",
        "config-not-object", "n-null", "n-boolean", "n-fraction", "harmonics-null",
        "nodes-string", "grid-string", "saddle-tol-nan", "svg-integer", "plane-integer",
        "plane-out-of-range", "orbit-integer",
    ],
)  # fmt: skip
def test_mpa_malformed_config_is_one_error_line(tmp_path, capsys, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "orbit, field",
    [({}, "'params'"), ({"params": {"n": 2, "alpha": 1.0, "omega": 0.0}}, "'params.d'")],
    ids=["empty", "params-without-d"],
)
def test_mpa_malformed_orbit_file_is_one_error_line(tmp_path, capsys, orbit, field):
    (tmp_path / "o.json").write_text(json.dumps(orbit))
    ends = [{"orbit": str(tmp_path / "o.json")}, {"winding": -1}]
    path = _two_body_mpa(tmp_path, endpoints=ends)
    code, out, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert len(err.strip().splitlines()) == 1
