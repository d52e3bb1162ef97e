"""End-to-end acceptance gates.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run with ``-s`` to
see them live) and asserts its criteria at the stated tolerances.

Gate 5 carries a clause (certified half-width exactly 1/2 for every coprime
winding when 4 <= n <= 9) that the computed spectra contradict: the largest
eigenvalue of the cycle operator strictly exceeds 1/(2 pi) for n >= 4, which
shrinks the certified window below 1/2, and the exact branch-minimality
condition genuinely fails near the window edge.  The clause is asserted as
stated and is expected to fail; the printed table shows the computed widths.
"""

import json
import math
import time
from collections import Counter
from math import gcd

import numpy as np
import pytest

from choreo import cli
from choreo.action import choreography_action
from choreo.bounds import (
    bound_chain,
    bound_chain_minimum,
    constrained_power_min,
    jensen_gap,
    poincare_ratio,
    rayleigh_quotient,
)
from choreo.loops import EIGHT3D, FourierLoop, SystemParams
from choreo.mountain_pass import MountainPassConfig, mountain_pass
from choreo.optimize import DescentConfig, init_circle, kepler_minimize, minimize
from choreo.spectral import (
    INF_NOT_ATTAINED_CLUSTER,
    NO_MINIMUM_COPRIME_INT,
    NONRIGID_WINDING_K,
    ROTATING_CIRCLE,
    circle_radius_for_winding,
    circulant_spectrum,
    classify,
    dense_operator,
    kepler_circle,
    min2_check,
    omega_star,
    predicted_circle,
)
from choreo.verify import random_loop

TWO_PI = 2.0 * math.pi


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def signatures(results) -> str:
    """How many results have each Morse index and zero-mode count, as
    "index/zero modes x count"."""
    tally = Counter((r.morse_index, r.zero_modes) for r in results)
    return "index/zero modes " + ", ".join(
        f"{i}/{z} x{c}" for (i, z), c in sorted(tally.items())
    )


# ---------------------------------------------------------------------------
# 1. spectral exactness


def test_criterion_1_spectral_exactness():
    t0 = time.time()
    worst_delta1 = 0.0
    worst_dense = 0.0
    ok = True
    for n in range(2, 51):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            spec = circulant_spectrum(n, alpha, cross_validate=False)
            ok &= spec.deltas[0] == 0.0
            worst_delta1 = max(worst_delta1, abs(spec.deltas[1] - 1.0 / TWO_PI))
            for l in range(2, n // 2 + 1):
                ok &= spec.deltas[l] < l * l / TWO_PI
            dense = np.sort(np.linalg.eigvalsh(dense_operator(spec.mu_bar, n)))
            closed = np.sort(np.repeat(spec.deltas, spec.multiplicities))
            worst_dense = max(worst_dense, float(np.max(np.abs(dense - closed))))
            expected_mult = [1] + [2] * (n // 2)
            if n % 2 == 0:
                expected_mult[-1] = 1
            ok &= list(spec.multiplicities) == expected_mult
    elapsed = time.time() - t0
    ok &= worst_delta1 < 1e-12 and worst_dense < 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"n=2..50, 4 exponents: max |delta_1 - 1/(2pi)| = {worst_delta1:.2e}, "
        f"max dense deviation = {worst_dense:.2e}, elapsed {elapsed:.2f}s",
    )
    assert worst_delta1 < 1e-12
    assert worst_dense < 1e-10
    assert ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Kepler anchor


def test_criterion_2_kepler_anchor():
    t0 = time.time()
    kc = kepler_circle(1.0)
    radius_err = abs(kc["radius"] - 1.0)
    s_min_err = abs(kc["norm_integral"] - TWO_PI)
    runs_ok = True
    worst_r = worst_a = 0.0
    rng = np.random.default_rng(2)
    for seed in range(5):
        q0 = FourierLoop.circle(float(rng.uniform(0.6, 1.6)), 1, cutoff=6)
        q0 = FourierLoop(
            q0.mean,
            q0.cos_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
            q0.sin_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
        )
        res = kepler_minimize(1.0, q0, DescentConfig(cutoff=6, grad_tol=1e-8))
        runs_ok &= res.converged
        worst_r = max(worst_r, abs(res.diagnostics.radius - 1.0))
        worst_a = max(worst_a, abs(res.action.total - 3 * math.pi))
    elapsed = time.time() - t0
    ok = (
        radius_err < 1e-10
        and s_min_err < 1e-10
        and runs_ok
        and worst_r < 1e-4
        and worst_a < 1e-5
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"radius err {radius_err:.1e}, norm-integral err {s_min_err:.1e}, "
        f"5 noisy descents: worst radius err {worst_r:.2e}, worst action err "
        f"{worst_a:.2e}, elapsed {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. inertial n-body circles


def test_criterion_3_inertial_circles():
    t0 = time.time()
    failures = []
    logged = []
    for n in (2, 3, 4, 5, 8):
        for alpha in (1.0, 2.0):
            p = SystemParams(n=n, d=3, alpha=alpha)
            ref = bound_chain_minimum(n, alpha)
            pred = predicted_circle(n, alpha, 0.0)
            logged.append(
                (n, alpha, ref["radius"], pred.legacy_constants["radius_inertial"])
            )
            for seed in range(10):
                init = init_circle(p, 1, ref["radius"], noise=0.05, seed=seed, cutoff=6)
                res = minimize(p, init, DescentConfig(cutoff=6, grad_tol=1e-8))
                d = res.diagnostics
                checks = [
                    res.converged and res.grad_norm < 1e-8,
                    d.planarity < 1e-6,
                    abs(d.winding) == 1,
                    abs(d.radius - ref["radius"]) < 1e-4,
                    abs(res.action.total - ref["value"]) < 1e-6 * ref["value"],
                ]
                rep = bound_chain(res.loop, p)
                checks.append(abs(rep.slack_first) < 1e-8)
                checks.append(abs(rep.slack_second) < 1e-8)
                if not all(checks):
                    failures.append((n, alpha, seed, checks))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(
        3,
        ok,
        f"100 seeded descents (d=3) over (n, alpha) grid: {len(failures)} failures, "
        f"elapsed {elapsed:.0f}s; oracle vs uncalibrated radii logged for "
        f"{len(logged)} cases (e.g. n=3 alpha=1: {logged[2][2]:.6f} vs "
        f"{logged[2][3]:.6f}, not reproduced by design)",
    )
    assert not failures, failures[:3]
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. rotating-frame regimes


def _circle_case(n, alpha, omega, winding, seed, grad_tol=1e-8):
    p = SystemParams(n=n, alpha=alpha, omega=omega)
    R = circle_radius_for_winding(n, alpha, omega, winding)
    init = init_circle(p, winding, R, noise=0.05, seed=seed, cutoff=6)
    res = minimize(p, init, DescentConfig(cutoff=6, grad_tol=grad_tol))
    d = res.diagnostics
    return (
        res.converged
        and abs(d.winding) == abs(winding)
        and abs(d.radius - R) < 1e-4
        and d.radius_rms < 1e-6
    ), res


def test_criterion_4_rotating_regimes():
    t0 = time.time()
    seeds = range(20)
    summary = []
    all_ok = True

    # (3, 1, 0.5): circle of period 2 pi
    r = classify(3, 1.0, 0.5)
    runs = [_circle_case(3, 1.0, 0.5, -1, s) for s in seeds]
    good = sum(ok for ok, _ in runs)
    case_ok = r.regime == ROTATING_CIRCLE and r.predicted_winding == 1 and good >= 19
    summary.append(f"(3,1,0.5) circle 2pi: {good}/20, {signatures(r for _, r in runs)}")
    all_ok &= case_ok

    # (3, 1, 1.5): tied families, periods 2 pi and pi
    r = classify(3, 1.0, 1.5)
    tie_ok = r.regime == ROTATING_CIRCLE and r.tied_windings is not None
    pred = predicted_circle(3, 1.0, 1.5)
    good = 0
    results = []
    for s in seeds:
        ok1, res1 = _circle_case(3, 1.0, 1.5, -1, s)
        ok2, res2 = _circle_case(3, 1.0, 1.5, -2, 1000 + s)
        equal = abs(res1.action.total - res2.action.total) < 1e-6 * pred.action
        match = abs(res1.action.total - pred.action) < 1e-6 * pred.action
        good += ok1 and ok2 and equal and match
        results += [res1, res2]
    case_ok = tie_ok and good >= 19
    summary.append(f"(3,1,1.5) tied circles: {good}/20, {signatures(results)}")
    all_ok &= case_ok

    # (5, 1, 2.1): winding-2 circle
    r = classify(5, 1.0, 2.1)
    runs = [_circle_case(5, 1.0, 2.1, -2, s) for s in seeds]
    good = sum(ok for ok, _ in runs)
    case_ok = r.regime == ROTATING_CIRCLE and r.predicted_winding == 2 and good >= 19
    summary.append(
        f"(5,1,2.1) winding-2 circle: {good}/20, {signatures(r for _, r in runs)}"
    )
    all_ok &= case_ok

    # (5, 1, 3.0): non-attainment, escape
    r = classify(5, 1.0, 3.0)
    good = 0
    results = []
    for s in seeds:
        p = SystemParams(n=5, alpha=1.0, omega=3.0)
        init = init_circle(p, -3, 1.2, noise=0.05, seed=s, cutoff=4)
        res = minimize(
            p, init, DescentConfig(cutoff=4, grid_size=40, escape_factor=10.0)
        )
        good += res.escaped_to_infinity and not res.converged
        results.append(res)
    case_ok = r.regime == NO_MINIMUM_COPRIME_INT and good >= 19
    summary.append(f"(5,1,3.0) escape: {good}/20, {signatures(results)}")
    all_ok &= case_ok

    # (6, 1, 2.0): non-attainment with clusters
    r = classify(6, 1.0, 2.0)
    good = 0
    results = []
    for s in seeds:
        p = SystemParams(n=6, alpha=1.0, omega=2.0)
        init = init_circle(p, -2, 1.0, noise=0.08, seed=s, cutoff=5)
        res = minimize(
            p, init, DescentConfig(cutoff=5, grid_size=48, escape_factor=10.0)
        )
        good += res.escaped_to_infinity and not res.converged
        results.append(res)
    case_ok = (
        r.regime == INF_NOT_ATTAINED_CLUSTER
        and r.cluster_shape == (3, 2)
        and good >= 19
    )
    summary.append(f"(6,1,2.0) escape: {good}/20, {signatures(results)}")
    all_ok &= case_ok

    # escape runs surface as exit code 2 through the CLI
    code = cli.main(
        ["minimize", "--n", "5", "--alpha", "1", "--omega", "3",
         "--harmonics", "4", "--grid", "40", "--seed", "0"]
    )
    all_ok &= code == 2
    summary.append(f"CLI exit code for non-attainment: {code}")

    # (6, 1, 1.8): non-rigid winding-2 minimizer with 3 clusters of 2.
    # The case's claims are structural (non-rigidity, winding, partition);
    # some seeds land in alternate non-rigid local minima whose
    # cluster-separation mode is nearly flat, so the gradient tolerance is
    # the qualitative 1e-4 -- every structural diagnostic is settled there.
    r = classify(6, 1.0, 1.8)
    good = 0
    results = []
    for s in seeds:
        p = SystemParams(n=6, alpha=1.0, omega=1.8)
        init = init_circle(p, -2, 1.0, noise=0.08, seed=s, cutoff=12)
        res = minimize(p, init, DescentConfig(cutoff=12, grad_tol=1e-4))
        results.append(res)
        d = res.diagnostics
        cl = res.clusters
        good += (
            res.converged
            and abs(d.winding) == 2
            and d.radius_rms > 1e-2
            and cl is not None
            and (cl.count, cl.size) == (3, 2)
            and cl.assignment == (0, 1, 2, 0, 1, 2)
        )
    case_ok = (
        r.regime == NONRIGID_WINDING_K
        and r.predicted_winding == 2
        and r.cluster_shape == (3, 2)
        and good >= 19
    )
    summary.append(f"(6,1,1.8) non-rigid clusters: {good}/20, {signatures(results)}")
    all_ok &= case_ok

    elapsed = time.time() - t0
    all_ok &= elapsed < 900.0
    report(4, all_ok, "; ".join(summary) + f"; elapsed {elapsed:.0f}s")
    assert all_ok, summary


# ---------------------------------------------------------------------------
# 5. min2 / omega* certificates (one clause expected to fail; see module doc)


def test_criterion_5_min2_certificates():
    t0 = time.time()
    star_ok = abs(omega_star() - 4.0 / 3.0) < 1e-15
    three_ok = abs(min2_check(3, 1.0, 2).epsilon - 0.5) < 1e-14
    rows = []
    uniform_ok = True
    for n in range(4, 10):
        for alpha in (0.5, 1.0, 2.0):
            for k in range(2, n):
                if gcd(k, n) != 1:
                    continue
                eps = min2_check(n, alpha, k).epsilon
                rows.append((n, alpha, k, eps))
                if abs(eps - 0.5) > 1e-12:
                    uniform_ok = False
    elapsed = time.time() - t0
    ok = star_ok and three_ok and uniform_ok and elapsed < 1.0
    widths = sorted({round(r[3], 4) for r in rows})
    report(
        5,
        ok,
        f"omega* = 4/3: {star_ok}; n=3 width 1/2: {three_ok}; "
        f"uniform width 1/2 for n=4..9: {uniform_ok} "
        f"(computed widths range {widths[0]}..{widths[-1]}); elapsed {elapsed:.2f}s",
    )
    assert star_ok
    assert three_ok
    assert elapsed < 1.0
    # Expected to fail: delta_max > 1/(2 pi) for n >= 4 shrinks every window
    # below 1/2, and the exact branch-minimality condition also fails near
    # the window edge (e.g. n=4, alpha=1, k=3 at omega = 2.51).
    assert uniform_ok, (
        "certified half-widths below 1/2 for n=4..9: "
        + ", ".join(f"(n={n},a={a},k={k}): {e:.4f}" for n, a, k, e in rows[:6])
        + ", ..."
    )


# ---------------------------------------------------------------------------
# 6. inequality property suite


def test_criterion_6_inequality_suite():
    t0 = time.time()
    rng = np.random.default_rng(6)

    worst_poincare = math.inf
    for _ in range(1000):
        q = random_loop(rng, SystemParams(n=3), zero_mean=True)
        worst_poincare = min(worst_poincare, poincare_ratio(q))

    worst_jensen = math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        p = SystemParams(n=n, alpha=alpha)
        x = random_loop(rng, p)
        worst_jensen = min(worst_jensen, jensen_gap(x, p, int(rng.integers(1, n))).gap)

    xs = np.arange(0.01, TWO_PI - 0.005, 0.01)
    worst_trig = min(
        float(np.min(k * k * (1 - np.cos(xs)) - (1 - np.cos(k * xs))))
        for k in range(2, 13)
    )

    worst_stat = 0.0
    for _ in range(200):
        mu = rng.uniform(0.1, 3.0, int(rng.integers(1, 9)))
        beta = float(rng.uniform(0.2, 3.0))
        worst_stat = max(worst_stat, constrained_power_min(mu, beta).stationarity_residual)

    worst_rayleigh = math.inf
    worst_slack = math.inf
    per_config = 1000 // 12 + 1
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, alpha=alpha)
            for _ in range(per_config):
                x = random_loop(rng, p)
                worst_rayleigh = min(
                    worst_rayleigh, rayleigh_quotient(x, p) - math.pi / n
                )
                rep = bound_chain(x, p)
                worst_slack = min(worst_slack, rep.slack_first, rep.slack_second)

    worst_circle_eq = 0.0
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, alpha=alpha)
            for R in (bound_chain_minimum(n, alpha)["radius"], 1.0, 1.6):
                circle = FourierLoop.circle(R, 1, cutoff=4)
                rep = bound_chain(circle, p)
                worst_circle_eq = max(
                    worst_circle_eq, abs(rep.slack_first), abs(rep.slack_second)
                )
                worst_circle_eq = max(
                    worst_circle_eq, abs(jensen_gap(circle, p, 1).gap)
                )
                worst_circle_eq = max(
                    worst_circle_eq, abs(rayleigh_quotient(circle, p) - math.pi / n)
                )

    elapsed = time.time() - t0
    ok = (
        worst_poincare >= 1.0 - 1e-12
        and worst_jensen >= -1e-10
        and worst_trig > 0.0
        and worst_stat < 1e-10
        and worst_rayleigh >= -1e-10
        and worst_slack >= -1e-10
        and worst_circle_eq < 1e-9
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"Poincare min {worst_poincare:.12f}; Jensen min gap {worst_jensen:.1e}; "
        f"trig min margin {worst_trig:.1e}; power-min stationarity {worst_stat:.1e}; "
        f"Rayleigh slack {worst_rayleigh:.1e}; chain slack {worst_slack:.1e}; "
        f"circle equality {worst_circle_eq:.1e}; elapsed {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. mountain pass


def test_criterion_7_mountain_pass():
    t0 = time.time()

    # non-circular saddle between the tied circles at (3, 1, 1.5)
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    R1 = circle_radius_for_winding(3, 1.0, 1.5, -1)
    R2 = circle_radius_for_winding(3, 1.0, 1.5, -2)
    end_a = FourierLoop.circle(R1, -1, dim=2, cutoff=16)
    end_b = FourierLoop.circle(R2, -2, dim=2, cutoff=16)
    bulge = FourierLoop.circle(1.0, 1, dim=2, cutoff=16).shift(math.pi / 2)
    cfg = MountainPassConfig(
        nodes=21, cutoff=16, saddle_tol=1e-6, bulge=bulge,
        bulge_amplitude=0.35, max_sweeps=800,
    )
    res = mountain_pass(end_a, end_b, p, cfg)
    d = res.diagnostics
    case1_ok = (
        res.converged
        and res.grad_norm < 1e-6
        and res.above_endpoints
        and d.min_separation > 0.05
        and d.radius_rms > 1e-2
    )
    # regression constant recorded at first build (cutoff 16, default grid)
    case1_ok &= abs(res.action.total - 6.2784495435) < 1e-5
    case1_ok &= res.morse_index == 1

    # the planar eight as a saddle of the symmetric three-dimensional search
    K = 20
    p8 = SystemParams(n=3, d=3, alpha=1.0, omega=0.0)
    R = bound_chain_minimum(3, 1.0)["radius"]
    cos = np.zeros((K, 3))
    sin = np.zeros((K, 3))
    sin[0, 1] = R
    cos[0, 2] = R
    e_a = FourierLoop(np.zeros(3), cos, sin)
    cos2 = cos.copy()
    cos2[0, 2] = -R
    e_b = FourierLoop(np.zeros(3), cos2, sin)
    bs = np.zeros((K, 3))
    bs[1, 0] = 1.0
    bulge8 = FourierLoop(np.zeros(3), np.zeros((K, 3)), bs)
    cfg8 = MountainPassConfig(
        nodes=21, cutoff=K, saddle_tol=1e-6, symmetry=EIGHT3D,
        bulge=bulge8, bulge_amplitude=0.5 * R, max_sweeps=800,
    )
    res8 = mountain_pass(e_a, e_b, p8, cfg8)
    X = res8.loop.sample(192)
    x1 = X[:, 0]
    signs = np.sign(x1[np.abs(x1) > 1e-9])
    lobe_changes = int(np.sum(signs != np.roll(signs, 1)))
    eight_ok = (
        res8.converged
        and res8.grad_norm < 1e-6
        and res8.above_endpoints
        and float(np.max(np.abs(X[:, 2]))) < 1e-3
        and np.max(np.abs(x1)) > 0.1
        and lobe_changes == 4
        and res8.diagnostics.min_separation > 0.05
    )
    # regression constant recorded at first build (cutoff 20, default grid)
    eight_ok &= abs(res8.action.total - 8.1239754945) < 1e-5
    eight_ok &= res8.morse_index == 1

    elapsed = time.time() - t0
    ok = case1_ok and eight_ok and elapsed < 600.0
    report(
        7,
        ok,
        f"(3,1,1.5) saddle: grad {res.grad_norm:.1e}, action {res.action.total:.6f} "
        f"(endpoints {res.endpoint_actions[0]:.6f}), min sep "
        f"{d.min_separation:.3f}, {signatures([res])}; eight: grad "
        f"{res8.grad_norm:.1e}, action {res8.action.total:.6f}, sup|x3| "
        f"{float(np.max(np.abs(X[:, 2]))):.1e}, lobe sign changes {lobe_changes}, "
        f"{signatures([res8])}; elapsed {elapsed:.0f}s",
    )
    assert case1_ok
    assert eight_ok
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. non-planar smoke run


def test_criterion_8_nonplanar_smoke():
    t0 = time.time()
    p = SystemParams(n=12, d=3, alpha=1.0, omega=6.55)
    R = circle_radius_for_winding(12, 1.0, 6.55, -7)
    results = []
    for seed in range(10):
        init = init_circle(p, -7, R, noise=0.12, seed=seed, cutoff=12)
        res = minimize(
            p, init, DescentConfig(cutoff=12, grid_size=96, grad_tol=1e-6,
                                   max_iters=40_000)
        )
        results.append(res)
    best = min(results, key=lambda r: r.action.total)
    planarity = best.diagnostics.planarity
    converged = sum(r.converged and r.grad_norm < 1e-6 for r in results)
    iters = [r.iters for r in results]
    elapsed = time.time() - t0
    ok = planarity > 0.05 and converged == len(results)
    report(
        8,
        ok,
        f"best of 10 starts: action {best.action.total:.6f}, planarity "
        f"{planarity:.4f} (> 0.05 required; empirical, not certified); "
        f"{converged}/10 converged to 1e-6 in {min(iters)}..{max(iters)} "
        f"iterations, {signatures(results)}; elapsed {elapsed:.0f}s",
    )
    assert ok
