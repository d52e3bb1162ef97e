import json
import math

import numpy as np
import pytest

from choreo import cli, loops
from choreo.action import CollisionError, Evaluation, kinetic_gradient
from choreo.loops import (
    EIGHT3D,
    FourierLoop,
    SystemParams,
    lag_distances,
    pack_coefficients,
    resolve_grid_size,
)
from choreo.optimize import (
    MAX_RADIUS,
    MAX_RELATIVE_NOISE,
    DescentConfig,
    Objective,
    StartSpec,
    descend,
    detect_clusters,
    init_circle,
    kepler_minimize,
    minimize,
    multistart,
)
from choreo.mountain_pass import MountainPassConfig, mountain_pass
from choreo.spectral import (
    circle_radius_for_winding,
    predicted_circle,
    restricted_circle_action,
)

TWO_PI = 2.0 * math.pi


def noisy_circle(params, winding, seed, noise=0.06, cutoff=6, radius=None):
    if radius is None:
        radius = circle_radius_for_winding(
            params.n, params.alpha, params.omega, winding
        )
    return init_circle(params, winding, radius, noise=noise, seed=seed, cutoff=cutoff)


# ---------------------------------------------------------------------------
# init_circle


def test_init_circle_chord_formula():
    p = SystemParams(n=5)
    loop = init_circle(p, 1, 1.0, noise=0.0)
    from choreo.loops import min_separation

    assert abs(min_separation(loop, p) - 2 * math.sin(math.pi / 5)) < 1e-12


def test_init_circle_rejects_shared_factor_at_zero_noise():
    p = SystemParams(n=4)
    with pytest.raises(ValueError):
        init_circle(p, 2, 1.0, noise=0.0)
    with pytest.raises(ValueError):
        init_circle(p, 4, 1.0, noise=0.1)  # divisible by n: always rejected
    init_circle(p, 2, 1.0, noise=0.1)  # lifted by noise


def test_init_circle_caps_the_noise_relative_to_the_radius():
    # a noise far beyond the radius leaves no circle in the start, and one
    # near the float range overflowed the draw or the action
    p = SystemParams(n=3)
    init_circle(p, 1, 1.0, noise=MAX_RELATIVE_NOISE, seed=1)
    init_circle(p, 1, 3.0, noise=3.0 * MAX_RELATIVE_NOISE, seed=1)
    init_circle(p, 1, 0.2, noise=MAX_RELATIVE_NOISE, seed=1)  # radii below 1 count as 1
    for radius, noise in ((1.0, 10.5), (3.0, 30.5), (1.0, 1e200), (1.0, 1e308)):
        with pytest.raises(ValueError, match="noise"):
            init_circle(p, 1, radius, noise=noise)


def test_init_circle_refuses_a_non_finite_or_oversized_radius():
    # a radius near the float range overflowed the action and its Hessian
    p = SystemParams(n=3)
    init_circle(p, 1, MAX_RADIUS, noise=0.05, seed=1)
    init_circle(p, 1, -MAX_RADIUS, noise=0.0)
    too_big = float(np.nextafter(MAX_RADIUS, math.inf))
    for radius in (too_big, -too_big, 1e200, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite"):
            init_circle(p, 1, radius, noise=0.05)


def test_tolerances_refuse_nan():
    # NaN is not positive: a NaN gradient tolerance would run the whole
    # iteration budget, and no saddle search could ever meet one
    with pytest.raises(ValueError, match="grad_tol"):
        DescentConfig(grad_tol=math.nan)
    with pytest.raises(ValueError, match="saddle_tol"):
        MountainPassConfig(saddle_tol=math.nan)


def test_init_circle_deterministic():
    p = SystemParams(n=3)
    a = init_circle(p, -1, 1.0, noise=0.1, seed=42)
    b = init_circle(p, -1, 1.0, noise=0.1, seed=42)
    assert np.array_equal(pack_coefficients(a), pack_coefficients(b))


# ---------------------------------------------------------------------------
# minimize: inertial circle


def test_minimize_three_body_inertial():
    p = SystemParams(n=3, alpha=1.0)
    cfg = DescentConfig(cutoff=6, grad_tol=1e-8, log_every=10)
    res = minimize(p, noisy_circle(p, -1, seed=7), cfg)
    assert res.converged and not res.escaped_to_infinity
    assert res.grad_norm < 1e-8
    # force-balance oracle: R = 3^{-1/6}, action 3^{2/3} pi
    assert abs(res.diagnostics.radius - 3.0 ** (-1.0 / 6.0)) < 1e-4
    assert abs(res.action.total - 3.0 ** (2.0 / 3.0) * math.pi) < 1e-5
    assert res.newton_residual < 1e-6
    assert abs(res.diagnostics.winding) == 1
    assert res.history  # log_every produced a trace


def test_minimize_descent_monotone():
    p = SystemParams(n=3, alpha=1.0)
    cfg = DescentConfig(cutoff=6, log_every=1)
    res = minimize(p, noisy_circle(p, -1, seed=3), cfg)
    actions = [h[1] for h in res.history]
    for a, b in zip(actions, actions[1:]):
        assert b <= a + 1e-12


def test_minimize_gauge_invariance():
    # rotated/translated starts reach the same minimum value
    p = SystemParams(n=3, alpha=1.0)
    cfg = DescentConfig(cutoff=6)
    base = minimize(p, noisy_circle(p, -1, seed=1), cfg)
    start = noisy_circle(p, -1, seed=1)
    theta = 0.6
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    moved = FourierLoop(
        start.mean @ R.T + np.array([0.05, -0.02]),
        start.cos_coeffs @ R.T,
        start.sin_coeffs @ R.T,
    )
    other = minimize(p, moved, cfg)
    assert abs(base.action.total - other.action.total) < 1e-8


def test_minimize_criticality_consistency():
    # converged => the force residual co-vanishes (within 100x of grad tol)
    p = SystemParams(n=5, alpha=2.0)
    cfg = DescentConfig(cutoff=6, grad_tol=1e-8)
    res = minimize(p, noisy_circle(p, 1, seed=2), cfg)
    assert res.converged
    assert res.newton_residual < 1e-6


def test_minimize_kepler():
    cfg = DescentConfig(cutoff=6, grad_tol=1e-8)
    rng = np.random.default_rng(11)
    q0 = FourierLoop.circle(1.4, 1, cutoff=6)
    q0 = FourierLoop(
        q0.mean,
        q0.cos_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
        q0.sin_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
    )
    res = kepler_minimize(1.0, q0, cfg)
    assert res.converged
    assert abs(res.diagnostics.radius - 1.0) < 1e-4
    assert abs(res.action.total - 3 * math.pi) < 1e-5


def test_kepler_result_reports_distance_to_center():
    # the Kepler guard tests |q(t)|, the distance to the fixed center, not
    # the distance |q(t) - q(t + pi)| of two bodies: 1, not 2, on the unit
    # circle, the converged loop of alpha = 1
    q0 = FourierLoop.circle(1.0, 1, cutoff=4)
    res = kepler_minimize(1.0, q0, DescentConfig(cutoff=4))
    assert res.converged
    assert abs(res.diagnostics.min_separation - 1.0) < 1e-12
    samples = res.loop.sample(res.action.grid_size)
    assert res.diagnostics.min_separation == math.sqrt(np.min(np.sum(samples**2, axis=1)))


def _one_sampling_case(case):
    """(result, objective of its final evaluation's grid) of a search."""
    if case == "kepler":
        q0 = FourierLoop.circle(1.2, 1, cutoff=4)
        res = kepler_minimize(1.0, q0, DescentConfig(cutoff=4))
        return res, Objective(None, res.loop.cutoff, alpha=1.0, dim=2)
    if case == "mountain_pass":
        p = SystemParams(n=3, alpha=1.0, omega=1.5)
        R = circle_radius_for_winding(3, 1.0, 1.5, -1)
        end = FourierLoop.circle(R, -1, cutoff=8)
        res = mountain_pass(end, end, p, MountainPassConfig(cutoff=8))
        return res, Objective(p, res.loop.cutoff)
    if case == "clustered":
        p = SystemParams(n=6, alpha=1.0, omega=1.8)
        init = init_circle(p, -2, 1.0, noise=0.08, seed=5, cutoff=12)
        res = minimize(p, init, DescentConfig(cutoff=12, grad_tol=1e-6))
        assert res.clusters.count == 3
    else:
        p = SystemParams(n=3, alpha=1.0)
        res = minimize(p, noisy_circle(p, 1, seed=3), DescentConfig(cutoff=6))
        assert res.clusters.count == 1
    return res, Objective(p, res.loop.cutoff)


@pytest.mark.parametrize("case", ["clustered", "unclustered", "kepler", "mountain_pass"])
def test_result_is_finished_from_its_final_evaluation(monkeypatch, case):
    # the diagnostics and the cluster report read the final evaluation's
    # samples, separation and squared distances: no loop is sampled again
    # and no lag differences are formed beyond the kernel's one per call
    calls = {"sample": 0, "lag_differences": 0}
    sample, lag_differences = FourierLoop.sample, loops.lag_differences

    def counted_sample(self, grid_size):
        calls["sample"] += 1
        return sample(self, grid_size)

    def counted_lag_differences(X, n, lag=None):
        calls["lag_differences"] += 1
        return lag_differences(X, n, lag)

    monkeypatch.setattr(FourierLoop, "sample", counted_sample)
    monkeypatch.setattr(loops, "lag_differences", counted_lag_differences)
    res, obj = _one_sampling_case(case)
    assert res.converged
    kernel_calls = getattr(res, "kernel_calls", res.value_evals)  # descent: one row a call
    assert calls == {
        "sample": 0,
        "lag_differences": 0 if case == "kepler" else kernel_calls,
    }
    final = obj.evaluate(obj.pack(res.loop))
    assert res.diagnostics.min_separation == final.separation


def _count_forces(monkeypatch) -> dict:
    """Record every evaluation whose force array is asked for; each is one
    force stage, since an evaluation computes its force once.  The dict
    keeps the evaluations alive, so their ids stay distinct."""
    forced = {}
    force = Evaluation.force

    def counted_force(ev):
        forced[id(ev)] = ev
        return force(ev)

    monkeypatch.setattr(Evaluation, "force", counted_force)
    return forced


class _Counted:
    """Objective wrapper counting value stages, force stages and collision
    rejections; the value / value_and_grad wrappers must not be used."""

    def __init__(self, obj, monkeypatch):
        self.evals, self.collisions = 0, 0
        self.forced = _count_forces(monkeypatch)
        evaluate = obj.evaluate

        def counted_evaluate(vec):
            self.evals += 1
            try:
                return evaluate(vec)
            except CollisionError:
                self.collisions += 1
                raise

        def forbidden(vec):
            raise AssertionError("descend evaluated outside its trials")

        obj.evaluate = counted_evaluate
        obj.value = obj.value_and_grad = forbidden

    @property
    def forces(self) -> int:
        return len(self.forced)


@pytest.mark.parametrize("max_iters", [200_000, 5])
def test_descend_one_force_stage_per_accepted_step(monkeypatch, max_iters):
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    cfg = DescentConfig(cutoff=6, max_iters=max_iters)
    obj = Objective(p, cutoff=6)
    counted = _Counted(obj, monkeypatch)
    out = descend(obj, obj.pack(noisy_circle(p, -1, seed=4)), cfg)
    # every iteration but a converged last one accepts a step
    accepted = out.iters - 1 if out.converged else out.iters
    assert out.converged == (max_iters > 5)
    assert counted.forces == obj.counts.grad_evals == accepted + 1
    assert counted.evals == obj.counts.value_evals
    assert counted.collisions == obj.counts.collisions
    assert obj.counts.value_evals >= accepted + 1


@pytest.mark.parametrize("n, omega, winding", [(3, 0.5, -1), (5, 2.1, -2)])
def test_minimize_runs_no_extra_force_stage(monkeypatch, n, omega, winding):
    # the Newton residual of the result reuses the force array of the last
    # accepted evaluation: one force stage per completed gradient, no more
    forces = _count_forces(monkeypatch)
    p = SystemParams(n=n, alpha=1.0, omega=omega)
    res = minimize(p, noisy_circle(p, winding, seed=0), DescentConfig(cutoff=6))
    assert res.converged and res.newton_residual < 1e-5
    assert len(forces) == res.grad_evals


@pytest.mark.parametrize("n, omega, winding", [(3, 0.5, -1), (5, 2.1, -2)])
def test_minimize_evaluates_each_vector_once(monkeypatch, n, omega, winding):
    # the reported action is the descent's last accepted trial, not a
    # second evaluation of the final vector
    seen, repeats = set(), []
    evaluate = Objective.evaluate

    def counted(self, vec):
        key = vec.tobytes()
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return evaluate(self, vec)

    monkeypatch.setattr(Objective, "evaluate", counted)
    p = SystemParams(n=n, alpha=1.0, omega=omega)
    res = minimize(p, noisy_circle(p, winding, seed=0), DescentConfig(cutoff=6))
    assert res.converged
    assert len(seen) == res.value_evals
    assert not repeats


# ---------------------------------------------------------------------------
# the H^1 metric step


def _objectives():
    p3 = SystemParams(n=3, d=3, alpha=1.0, omega=1.7)
    return [
        Objective(SystemParams(n=3, alpha=1.0, omega=0.5), cutoff=6),
        Objective(p3, cutoff=5, symmetry=EIGHT3D),
        Objective(None, cutoff=4, alpha=1.0, dim=2),  # Kepler: mean pinned
    ]


def _kinetic_hessian(obj):
    """Columns of the kinetic Hessian from the (linear) kinetic gradient."""
    cols = []
    for e in np.eye(obj.mask.size):
        q = obj.unpack(e)
        parts = kinetic_gradient(q.mean, q.cos_coeffs, q.sin_coeffs, obj.omega)
        cols.append(np.concatenate([np.ravel(a) for a in parts]))
    return np.array(cols).T


@pytest.mark.parametrize("case", range(3))
def test_metric_direction_solves_masked_kinetic_metric(case):
    obj = _objectives()[case]
    idx = np.flatnonzero(obj.mask)
    P = (_kinetic_hessian(obj) + np.eye(obj.mask.size))[np.ix_(idx, idx)]
    rng = np.random.default_rng(case)
    for _ in range(3):
        g = np.where(obj.mask, rng.standard_normal(obj.mask.size), 0.0)
        direction, slope = obj.metric_direction(g)
        assert np.all(direction[~obj.mask] == 0.0)
        want = np.linalg.solve(P, g[idx])
        assert np.allclose(direction[idx], want, rtol=1e-12, atol=1e-14)
        assert slope > 0.0
        assert abs(slope - float(g[idx] @ want)) < 1e-12 * slope


def _assert_trials_stay_masked(obj):
    evaluate = obj.evaluate

    def checked(vec):
        assert np.all(vec[~obj.mask] == 0.0)
        return evaluate(vec)

    obj.evaluate = checked


def test_kepler_descent_keeps_mean_exactly_zero():
    rng = np.random.default_rng(3)
    q0 = FourierLoop.circle(1.3, 1, cutoff=6)
    q0 = FourierLoop(
        np.array([0.2, -0.1]),  # packing drops the mean: it is pinned
        q0.cos_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
        q0.sin_coeffs + rng.uniform(-0.08, 0.08, (6, 2)),
    )
    res = kepler_minimize(1.0, q0, DescentConfig(cutoff=6))
    assert res.converged
    assert np.all(res.loop.mean == 0.0)
    obj = Objective(None, cutoff=6, alpha=1.0, dim=2)
    _assert_trials_stay_masked(obj)
    out = descend(obj, obj.pack(q0), DescentConfig(cutoff=6))
    assert out.converged and np.all(out.vec[:2] == 0.0)


def test_symmetric_descent_keeps_masked_coefficients_exactly_zero():
    p = SystemParams(n=3, d=3, alpha=1.0)
    K = 5
    rng = np.random.default_rng(8)
    cos = rng.uniform(-0.05, 0.05, (K, 3))
    sin = rng.uniform(-0.05, 0.05, (K, 3))
    sin[0, 1] += 0.8
    cos[0, 2] += 0.8
    init = FourierLoop(rng.uniform(-0.1, 0.1, 3), cos, sin)
    cfg = DescentConfig(cutoff=K, symmetry=EIGHT3D)
    res = minimize(p, init, cfg)
    assert res.converged
    obj = Objective(p, cutoff=K, symmetry=EIGHT3D)
    assert np.all(pack_coefficients(res.loop)[~obj.mask] == 0.0)
    _assert_trials_stay_masked(obj)
    out = descend(obj, obj.pack(init), cfg)
    assert out.converged
    assert np.array_equal(out.vec, pack_coefficients(res.loop))


@pytest.mark.parametrize("seed", range(5))
def test_rotating_circle_converges_in_tens_of_iterations(seed):
    # plain steepest descent took 656-683 iterations on these starts
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    init = noisy_circle(p, -1, seed=seed, noise=0.05)
    res = minimize(p, init, DescentConfig(cutoff=6))
    R = circle_radius_for_winding(3, 1.0, 0.5, -1)
    exact = restricted_circle_action(3, 1.0, 0.5, -1, R)
    assert res.converged and res.iters < 60
    assert abs(res.action.total - exact) < 1e-12 * exact


def test_winding_two_circle_step_stays_in_the_contracting_range():
    # plain steepest descent took 15 122 iterations; with the step along
    # -P^-1 g unbounded, doubling settles on t = 2, where the kinetic-dominated
    # harmonics stop contracting, and the run took 1 548
    p = SystemParams(n=5, alpha=1.0, omega=2.1)
    init = noisy_circle(p, -2, seed=0, noise=0.05)
    res = minimize(p, init, DescentConfig(cutoff=6, log_every=1))
    assert res.converged and res.iters < 200
    assert max(step for *_, step in res.history) == 1.0


def test_newton_finish_converges_quadratically():
    # without the Newton finish this run takes 133 iterations, most of them
    # in the linear tail of the metric descent; the Newton step is tried
    # from iteration 8 and must halve the gradient norm each time
    p = SystemParams(n=5, alpha=1.0, omega=2.1)
    init = noisy_circle(p, -2, seed=0, noise=0.05)
    res = minimize(p, init, DescentConfig(cutoff=6, log_every=1))
    assert res.converged and res.iters <= 12 and res.newton_steps == 2
    tail = [gnorm for it, _, gnorm, _ in res.history if it >= 8]
    assert tail[-1] < 1e-10 and all(b <= 0.5 * a for a, b in zip(tail, tail[1:]))
    # a minimum, with the zero mode of the rotation / time shift
    assert (res.morse_index, res.zero_modes) == (0, 1)
    doc = res.as_dict()
    assert (doc["newton_steps"], doc["morse_index"], doc["zero_modes"]) == (2, 0, 1)
    assert doc["zero_threshold"] == res.zero_threshold > 0.0


def test_nonplanar_twelve_body_descent_converges():
    # criterion 8, seed 4: plain descent ran out of its 40 000 iterations,
    # and so did the metric step when its step growth required a decrease
    # scaled by the Armijo factor (stalled at gradient 1.4e-5)
    p = SystemParams(n=12, d=3, alpha=1.0, omega=6.55)
    R = circle_radius_for_winding(12, 1.0, 6.55, -7)
    init = init_circle(p, -7, R, noise=0.12, seed=4, cutoff=12)
    cfg = DescentConfig(cutoff=12, grid_size=96, grad_tol=1e-6, max_iters=40_000)
    res = minimize(p, init, cfg)
    assert res.converged and res.grad_norm < 1e-6
    assert res.iters < 2_000
    assert abs(res.action.total - 16.122238) < 1e-6
    assert res.diagnostics.planarity > 0.05


# ---------------------------------------------------------------------------
# escape


def test_minimize_escape_at_coprime_integer():
    p = SystemParams(n=5, alpha=1.0, omega=3.0)
    cfg = DescentConfig(cutoff=4, grid_size=40, escape_factor=8.0)
    res = minimize(p, init_circle(p, -3, 1.2, noise=0.05, seed=1, cutoff=4), cfg)
    assert res.escaped_to_infinity
    assert not res.converged


# the two escape runs of the benchmark's descent workload:
# (n, omega, winding, radius, noise, cutoff, grid)
WORKLOAD_ESCAPES = [(5, 3.0, -3, 1.2, 0.05, 4, 40), (6, 2.0, -2, 1.0, 0.08, 5, 48)]


def test_escapes_survive_the_newton_finish(tmp_path):
    # a Newton step is taken only if it halves the gradient norm; without
    # that test these runs settle on a bounded state and never escape
    for n, omega, winding, radius, noise, K, M in WORKLOAD_ESCAPES:
        p = SystemParams(n=n, alpha=1.0, omega=omega)
        cfg = DescentConfig(cutoff=K, grid_size=M, escape_factor=10.0)
        for seed in range(5):
            init = init_circle(p, winding, radius, noise=noise, seed=seed, cutoff=K)
            res = minimize(p, init, cfg)
            assert res.escaped_to_infinity and not res.converged, (n, seed)
    # the command line's non-attainment exit
    argv = ["minimize", "--n", "5", "--alpha", "1", "--omega", "3", "--harmonics", "4",
            "--grid", "40", "--seed", "0", "--out", str(tmp_path)]  # fmt: skip
    assert cli.main(argv) == 2
    res = json.loads((tmp_path / "orbit.json").read_text())["result"]
    assert res["escaped_to_infinity"] and not res["converged"]
    assert res["newton_steps"] >= 0


def test_newton_finish_keeps_the_flow_s_minimizer():
    # seed 13 of the (6, 1, 1.8) K=12 starts: the metric flow reaches the
    # 6.793 state; a Newton step taken at gradient 8.5, where tau = |g|
    # leaves four soft modes out, lands in the basin of the 10.746 state.
    # The gradient must be at most half the smallest inverted eigenvalue
    p = SystemParams(n=6, alpha=1.0, omega=1.8)
    init = init_circle(p, -2, 1.0, noise=0.08, seed=13, cutoff=12)
    res = minimize(p, init, DescentConfig(cutoff=12, grad_tol=1e-4))
    assert res.converged and abs(res.action.total - 6.792955) < 1e-5
    assert (res.morse_index, res.zero_modes) == (0, 2)


def test_escape_and_converged_mutually_exclusive():
    p = SystemParams(n=3, alpha=1.0)
    res = minimize(p, noisy_circle(p, -1, seed=5), DescentConfig(cutoff=6))
    assert res.converged != res.escaped_to_infinity


# ---------------------------------------------------------------------------
# clusters


def loop_clusters(loop, p):
    """The cluster report of ``loop`` from its samples on the default grid
    and their squared lag distances, the kernel's arrays (bodies may
    collide here, which the kernel's guard would refuse)."""
    M = resolve_grid_size(loop.cutoff, p.n, None)
    X = loop.sample(M)
    return detect_clusters(X, loop.mean, lag_distances(X, p.n)[1])


def test_clusters_single_for_circle():
    p = SystemParams(n=6, alpha=1.0)
    rep = loop_clusters(FourierLoop.circle(1.0, 1, cutoff=4), p)
    assert rep.count == 1
    assert rep.size == 6
    assert rep.matches_arithmetic_rule


def test_clusters_synthetic_pairs():
    # three far-apart pairs: bodies i and i+3 travel together
    p = SystemParams(n=6, alpha=1.0)
    m = -2
    base = FourierLoop.circle(0.2, m, cutoff=8)
    # add a large slow component of winding 2 (cluster centres far apart)
    cos = base.cos_coeffs.copy()
    sin = base.sin_coeffs.copy()
    cos[1, 0] += 5.0
    sin[1, 1] -= 5.0
    loop = FourierLoop(base.mean, cos, sin)
    rep = loop_clusters(loop, p)
    assert (rep.count, rep.size) == (3, 2)
    assert rep.assignment == (0, 1, 2, 0, 1, 2)
    assert rep.intra_lags == (3,)
    assert rep.matches_arithmetic_rule
    assert min(rep.drift) > 1.0


def test_clusters_nonrigid_minimizer_case():
    p = SystemParams(n=6, alpha=1.0, omega=1.8)
    cfg = DescentConfig(cutoff=12, grad_tol=1e-6)
    res = minimize(p, init_circle(p, -2, 1.0, noise=0.08, seed=5, cutoff=12), cfg)
    assert res.converged
    assert res.clusters is not None
    assert (res.clusters.count, res.clusters.size) == (3, 2)
    assert res.clusters.assignment == (0, 1, 2, 0, 1, 2)
    assert abs(res.diagnostics.winding) == 2
    assert res.diagnostics.radius_rms > 1e-2  # decisively non-rigid


# ---------------------------------------------------------------------------
# multistart


def test_multistart_single_start():
    p = SystemParams(n=3, alpha=1.0)
    cfg = DescentConfig(cutoff=6)
    out = multistart(p, cfg, [StartSpec(winding=-1, seed=0)])
    assert len(out.results) == 1
    assert out.best is out.results[0]


def test_multistart_tie_at_half_integer():
    # both winding classes carry minima of equal action at omega = 1.5
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    cfg = DescentConfig(cutoff=6)
    out = multistart(
        p, cfg, [StartSpec(winding=-1, seed=1), StartSpec(winding=-2, seed=2)]
    )
    a, b = (r.action.total for r in out.results)
    assert abs(a - b) < 1e-6
    windings = sorted(abs(r.diagnostics.winding) for r in out.results)
    assert windings == [1, 2]


def test_multistart_results_match_separate_minimize_calls():
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    cfg = DescentConfig(cutoff=4)
    starts = [StartSpec(winding=-1, seed=s) for s in range(3)]
    out = multistart(p, cfg, starts)
    for spec, got in zip(starts, out.results):
        init = noisy_circle(p, spec.winding, spec.seed, noise=spec.noise, cutoff=4)
        alone = minimize(p, init, cfg)
        assert (got.iters, got.action, got.grad_norm) == (
            alone.iters,
            alone.action,
            alone.grad_norm,
        )
        assert np.array_equal(pack_coefficients(got.loop), pack_coefficients(alone.loop))
