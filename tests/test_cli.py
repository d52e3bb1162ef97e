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


# ---------------------------------------------------------------------------
# classify / spectrum


def test_classify_stdout_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "5", "--alpha", "1", "--omega", "2.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "ROTATING_CIRCLE"
    assert doc["predicted_winding"] == 2
    assert doc["config"]["command"] == "classify"


def test_classify_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--n", "6", "--omega", "1.8")
    _, out2, _ = run(capsys, "classify", "--n", "6", "--omega", "1.8")
    assert out1 == out2


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--alpha", "1")
    assert code == 0
    doc = json.loads(out)
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
    doc = json.loads((out / "orbit.json").read_text())
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
    result = json.loads((out / "orbit.json").read_text())["result"]
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


def test_minimize_orbit_schema_round_trips(tmp_path, capsys):
    out = tmp_path / "run"
    run(
        capsys,
        "minimize",
        "--n", "3", "--omega", "0", "--seed", "1",
        "--harmonics", "4", "--out", str(out),
    )
    from choreo.loops import loop_from_json

    loop, params = loop_from_json(json.loads((out / "orbit.json").read_text()))
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


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "inequalities", "--seeds", "24",
        "--out", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_spectral_report_file(tmp_path, capsys):
    # the spectral checks compare numpy scalars: the report must still be
    # plain JSON booleans
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "spectral", "--out", str(report))
    assert code == 0, err
    doc = json.loads(report.read_text())
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
    doc = json.loads((tmp_path / "mpa" / "saddle.json").read_text())
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


def test_mpa_unreachable_tolerance_exits_one(tmp_path, capsys):
    path = _two_body_mpa(tmp_path, saddle_tol=1e-300, out=str(tmp_path / "mpa"))
    code, _, err = run(capsys, "mpa", "--config", str(path))
    assert code == 1
    assert err.startswith("saddle search stopped at gradient norm")
    assert "(tolerance 1.0e-300)" in err
    result = json.loads((tmp_path / "mpa" / "saddle.json").read_text())["result"]
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
    doc = json.loads((tmp_path / "mpa" / "saddle.json").read_text())
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
    result = json.loads((tmp_path / "mpa" / "saddle.json").read_text())["result"]
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
