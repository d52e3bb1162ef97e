import json
import math
from collections.abc import Sequence

import numpy as np
import pytest

from choreo import action, cli, loops, optimize
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
    MAX_STARTS,
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


def test_descent_config_refuses_a_non_finite_gradient_tolerance():
    # an infinite tolerance declared any start converged at iteration 1
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="grad_tol must be finite and positive"):
            DescentConfig(grad_tol=tol)


def test_descent_config_refuses_an_escape_factor_at_most_one():
    # the escape threshold is escape_factor times max(1, initial rms): at or
    # below the start's own size, or NaN, it cannot signal a divergence
    for factor in (math.nan, math.inf, 0.0, -1.0, 1.0):
        with pytest.raises(ValueError, match="escape_factor must be finite and greater than 1"):
            DescentConfig(escape_factor=factor)
    assert DescentConfig(escape_factor=1.5).escape_factor == 1.5


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "5"])
def test_descent_config_refuses_a_non_integer_iteration_budget(max_iters):
    # 2.5 was accepted, and minimize then died in range() with a TypeError
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        DescentConfig(max_iters=max_iters)
    assert DescentConfig(max_iters=np.int64(7)).max_iters == 7


@pytest.mark.parametrize("log_every", [-3, -1, 1.5, True])
def test_descent_config_refuses_a_negative_or_non_integer_log_interval(log_every):
    # -3 silently logged every third iteration
    with pytest.raises(ValueError, match="log_every must be"):
        DescentConfig(log_every=log_every)
    assert DescentConfig(log_every=0).log_every == 0


def test_mountain_pass_config_refuses_non_integer_counts():
    # MountainPassConfig(nodes=3.5, max_sweeps=2.5) was accepted
    with pytest.raises(ValueError, match="nodes must be an integer, got 3.5"):
        MountainPassConfig(nodes=3.5)
    with pytest.raises(ValueError, match="max_sweeps must be an integer, got 2.5"):
        MountainPassConfig(max_sweeps=2.5)
    with pytest.raises(ValueError, match="nodes must be an integer"):
        MountainPassConfig(nodes=True)
    with pytest.raises(ValueError, match="nodes must be at least 3, got 2"):
        MountainPassConfig(nodes=2)
    assert MountainPassConfig(nodes=3, max_sweeps=1).nodes == 3


def test_init_circle_deterministic():
    p = SystemParams(n=3)
    a = init_circle(p, -1, 1.0, noise=0.1, seed=42)
    b = init_circle(p, -1, 1.0, noise=0.1, seed=42)
    assert np.array_equal(pack_coefficients(a), pack_coefficients(b))


def init_circle_in_three_loops(params, winding, radius, noise, seed, cutoff):
    """The construction init_circle replaced: the circle, built from a zero
    loop, then a noisy copy of it."""
    K = max(cutoff, abs(winding))
    loop = FourierLoop.circle(radius, winding, dim=params.d, cutoff=K)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        cos = loop.cos_coeffs + rng.uniform(-noise, noise, size=(K, params.d))
        sin = loop.sin_coeffs + rng.uniform(-noise, noise, size=(K, params.d))
        loop = FourierLoop(loop.mean, cos, sin)
    return loop


def test_init_circle_equals_the_three_loop_construction(rng):
    # init_circle builds one loop from the circle's coefficients and the
    # same draws in the same order: every start is the same bit for bit
    cases = [(3, -1, 1.0, 0.0, 0, 6), (4, 2, -0.7, 0.3, 5, 1), (5, -7, 2.5, 0.0, 0, 4)]
    for _ in range(40):
        n = int(rng.integers(2, 13))
        winding = int(rng.choice([-1, 1]) * rng.integers(1, 3 * n))
        if winding % n == 0:
            winding += 1
        radius = float(rng.choice([-1, 1]) * rng.uniform(1e-3, 5.0))
        noise = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
        if noise == 0.0 and math.gcd(abs(winding), n) != 1:
            noise = 0.01
        seed, cutoff = int(rng.integers(0, 1000)), int(rng.integers(1, 13))
        cases.append((n, winding, radius, noise, seed, cutoff))
    for n, winding, radius, noise, seed, cutoff in cases:
        for d in (2, 3):
            p = SystemParams(n=n, d=d)
            got = init_circle(p, winding, radius, noise, seed, cutoff)
            want = init_circle_in_three_loops(p, winding, radius, noise, seed, cutoff)
            for a, b in zip(
                (got.mean, got.cos_coeffs, got.sin_coeffs),
                (want.mean, want.cos_coeffs, want.sin_coeffs),
            ):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("max_iters", [0, -5])
def test_descent_config_refuses_a_non_positive_iteration_budget(max_iters):
    # -5 was written to the artifact as "iters": -5, and 0 reported an
    # exhausted budget of 0 steps
    with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
        DescentConfig(max_iters=max_iters)
    assert DescentConfig(max_iters=1).max_iters == 1


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
    (out,) = descend(obj, obj.pack(noisy_circle(p, -1, seed=4))[None], cfg)
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
    (out,) = descend(obj, obj.pack(q0)[None], DescentConfig(cutoff=6))
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
    (out,) = descend(obj, obj.pack(init)[None], cfg)
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


# the gate-8 start of seed ``seed`` and its run's configuration, logging
# every iteration
GATE8 = SystemParams(n=12, d=3, alpha=1.0, omega=6.55)
GATE8_CFG = DescentConfig(cutoff=12, grid_size=96, grad_tol=1e-6, max_iters=40_000, log_every=1)


def gate8_start(seed):
    R = circle_radius_for_winding(12, 1.0, 6.55, -7)
    return init_circle(GATE8, -7, R, noise=0.12, seed=seed, cutoff=12)


def newton_tries(monkeypatch, res_of):
    """The run ``res_of()``, with each of its Newton tries as (iteration,
    gradient norm, outcome): "taken", "trial" (refused after its trial was
    evaluated) or "spectral" (refused before any trial: the spectral guards
    or the cap).  The iteration is read from the run's history."""
    tries = []
    newton = optimize._newton

    def spy(obj, x, ev, g, gnorm, cap, noise, tol, counts):
        evaluated = counts.value_evals
        out = yield from newton(obj, x, ev, g, gnorm, cap, noise, tol, counts)
        if out is not None:
            kind = "taken"
        else:
            kind = "trial" if counts.value_evals > evaluated else "spectral"
        tries.append((gnorm, kind))
        return out

    monkeypatch.setattr(optimize, "_newton", spy)
    res = res_of()
    iteration = {gnorm: it for it, _, gnorm, _ in res.history}
    assert res.newton_attempts == len(tries)
    assert res.newton_steps == sum(kind == "taken" for _, kind in tries)
    return res, [(iteration[gnorm], gnorm, kind) for gnorm, kind in tries]


@pytest.mark.parametrize("seed", [0, 1])
def test_newton_retries_once_the_gradient_halves_after_a_refused_trial(monkeypatch, seed):
    # a try refused at its trial was retried only at the next power of two:
    # seed 0 was refused at iteration 256 (gradient 1.7e-3), halved its
    # gradient about every 32 iterations and took 513 iterations, its
    # Newton step converging at 512
    res, tries = newton_tries(monkeypatch, lambda: minimize(GATE8, gate8_start(seed), GATE8_CFG))
    gnorms = {it: gnorm for it, _, gnorm, _ in res.history}
    refused = [i for i, (*_, kind) in enumerate(tries) if kind == "trial"]
    assert refused
    for i in refused:
        it, g0, _ = tries[i]
        retry = next(j for j in range(it + 1, res.iters + 1) if gnorms[j] <= 0.5 * g0)
        assert tries[i + 1][0] == retry and tries[i + 1][1] <= 0.5 * g0
    assert res.converged and res.iters < 512 and tries[-1][2] == "taken"
    assert abs(res.action.total - 16.122238007) < 1e-9
    assert res.morse_index == 0


@pytest.mark.parametrize("seed", [4, 5])
def test_spectral_refusals_keep_the_power_of_two_schedule(monkeypatch, seed):
    # every refusal of these gate-8 runs is spectral (seed 4's are negative
    # curvature throughout): tries come at 8, 16, 32, ... and right after
    # an accepted step, never on a halved gradient
    res, tries = newton_tries(monkeypatch, lambda: minimize(GATE8, gate8_start(seed), GATE8_CFG))
    assert res.converged and {kind for *_, kind in tries} <= {"taken", "spectral"}
    assert any(kind == "spectral" for *_, kind in tries)
    previous = None
    for it, _, kind in tries:
        assert (it >= 8 and it & (it - 1) == 0) or previous == (it - 1, "taken")
        previous = (it, kind)


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
    assert res["newton_attempts"] >= res["newton_steps"] >= 0


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


def test_multistart_ties_go_to_the_lower_start_index():
    # starts 1 and 2 are the same start and end at the same action, below
    # start 0's (winding 1): start 1 wins, and the table holds two equal results
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    cfg = DescentConfig(cutoff=4)
    starts = [StartSpec(1, seed=3), StartSpec(-1, seed=3), StartSpec(-1, seed=3)]
    out = multistart(p, cfg, starts)
    totals = [r.action.total for r in out.results]
    assert totals[1] == totals[2] < totals[0]
    assert out.best is out.results[1]
    assert out.results[2] is not out.best
    _assert_same_result(out.results[2], out.best)


def test_multistart_builds_its_table_once_when_first_read():
    # the winner is the argmin of the table, results[argmin] itself, and
    # a second read returns the same tuple
    p = SystemParams(n=4, alpha=1.0, omega=0.5)
    out = multistart(p, DescentConfig(cutoff=8), [StartSpec(-1, seed=s) for s in range(6)])
    results = out.results
    assert out.results is results and len(results) == 6
    win = min(range(6), key=lambda i: (results[i].action.total, i))
    assert out.best is results[win]
    assert sum(r is out.best for r in results) == 1


def test_multistart_builds_one_report(monkeypatch):
    # a multistart whose table is never read forms Hessians only for the
    # evaluations its Newton attempts read and for the winner's report;
    # reading the table forms one more per other start
    newton_evs, formed = [], []
    newton, hessian = optimize._newton, Evaluation.hessian

    def attempted(obj, x, ev, *args):
        newton_evs.append(ev)
        return (yield from newton(obj, x, ev, *args))

    def counted(self):
        if self._hessian is None:
            formed.append(self)
        return hessian(self)

    monkeypatch.setattr(optimize, "_newton", attempted)
    monkeypatch.setattr(Evaluation, "hessian", counted)
    p = SystemParams(n=4, alpha=1.0, omega=0.5)
    out = multistart(p, DescentConfig(cutoff=8), [StartSpec(-1, seed=s) for s in range(6)])
    assert newton_evs and all(any(ev is f for f in formed) for ev in newton_evs)
    assert len(formed) == len({id(ev) for ev in newton_evs}) + 1
    before = len(formed)
    out.results
    assert len(formed) == before + 5


def _assert_same_result(got, alone):
    """Every field of two minimize results, bit for bit."""
    assert got.as_dict() == alone.as_dict()
    assert got.history == alone.history
    assert np.array_equal(pack_coefficients(got.loop), pack_coefficients(alone.loop))
    assert got.clusters == alone.clusters
    assert repr(got.diagnostics) == repr(alone.diagnostics)  # a nan residual
    assert (got.newton_steps, got.collision_rejects) == (alone.newton_steps, alone.collision_rejects)
    assert (got.value_evals, got.grad_evals) == (alone.value_evals, alone.grad_evals)


def _multistart_against_minimize(p, cfg, starts):
    out = multistart(p, cfg, starts)
    assert len(out.results) == len(starts)
    for spec, got in zip(starts, out.results):
        init = spec
        if isinstance(spec, StartSpec):
            radius = spec.radius
            if radius is None:
                radius = circle_radius_for_winding(p.n, p.alpha, p.omega, spec.winding)
            init = init_circle(p, spec.winding, radius, spec.noise, spec.seed, cfg.cutoff)
        _assert_same_result(got, minimize(p, init, cfg))
    return out.results


def test_multistart_results_match_separate_minimize_calls(monkeypatch):
    # the lockstep rows equal separate descents in every field: rows that
    # leave the stack at different iterations, take Newton steps, escape,
    # have trials refused by the collision guard, descend on masked
    # coordinates (pinned mean, EIGHT3D), and stacks longer than one chunk
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    cfg = DescentConfig(cutoff=4, log_every=1)
    mixed = [StartSpec(-1, noise=0.02 + 0.04 * s, seed=s) for s in range(7)]
    for size in (1, 2, 7):
        results = _multistart_against_minimize(p, cfg, mixed[:size])
    assert len({r.iters for r in results}) > 1
    assert all(r.converged for r in results) and any(r.newton_steps for r in results)

    results = _multistart_against_minimize(p, DescentConfig(cutoff=4, pin_mean=True), mixed[:4])
    assert all(r.converged and np.all(r.loop.mean == 0.0) for r in results)
    eight = SystemParams(n=3, d=3, alpha=1.0)
    inits = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        size = 0.1 * (1 + seed)
        cos = rng.uniform(-size, size, (5, 3))
        sin = rng.uniform(-size, size, (5, 3))
        sin[0, 1] += 0.8
        cos[0, 2] += 0.8
        inits.append(FourierLoop(rng.uniform(-0.1, 0.1, 3), cos, sin))
    cfg_eight = DescentConfig(cutoff=5, symmetry=EIGHT3D, log_every=1)
    results = _multistart_against_minimize(eight, cfg_eight, inits)
    assert all(r.converged for r in results) and len({r.iters for r in results}) > 1

    escape = SystemParams(n=5, alpha=1.0, omega=3.0)
    cfg_escape = DescentConfig(cutoff=4, grid_size=40, escape_factor=10.0, log_every=3)
    starts = [StartSpec(-3, radius=1.2, noise=0.05, seed=s) for s in range(2)]
    results = _multistart_against_minimize(escape, cfg_escape, starts)
    assert all(r.escaped_to_infinity for r in results)

    # a guard just above the optimal circle's separation lies in the path
    # of starts of 1.3 times its radius: trials trip it
    R = circle_radius_for_winding(3, 1.0, 0.5, -1)
    monkeypatch.setattr(action, "GUARD", 1.05 * math.sqrt(3.0) * R)
    starts = [StartSpec(-1, radius=1.3 * R, noise=0.02, seed=s) for s in range(3)]
    results = _multistart_against_minimize(p, DescentConfig(cutoff=4, max_iters=300), starts)
    assert all(r.collision_rejects > 0 for r in results)
    assert {r.abort_reason for r in results} == {
        "iteration budget exhausted",
        "no feasible descent step above the minimum step size",
    }
    monkeypatch.undo()

    starts = [StartSpec(-1, noise=0.05, seed=s) for s in range(optimize._STACK_ROWS + 3)]
    _multistart_against_minimize(p, DescentConfig(cutoff=4), starts)
    monkeypatch.setattr(optimize, "_STACK_ROWS", 3)
    _multistart_against_minimize(p, cfg, mixed)


def test_multistart_shares_kernel_calls_across_starts(monkeypatch):
    # six starts of the CLI's (4, 1, 0.5) point: every start is evaluated
    # alone, then each round evaluates the trials of all starts in one call;
    # reading the table later evaluates the five other final vectors once
    calls = []
    kernel = Objective._kernel

    def counted(self, vecs):
        calls.append(1 if vecs.ndim == 1 else len(vecs))
        return kernel(self, vecs)

    monkeypatch.setattr(Objective, "_kernel", counted)
    p = SystemParams(n=4, alpha=1.0, omega=0.5)
    starts = [StartSpec(-1, seed=s) for s in range(6)]
    out = multistart(p, DescentConfig(cutoff=8), starts)
    descent, calls[:] = calls[:], []
    results = out.results
    assert sum(descent) == sum(r.value_evals for r in results)
    assert len(descent) <= 6 + max(r.value_evals for r in results)
    assert max(descent) == 6
    assert calls == [1] * 5


def test_multistart_completes_each_accepted_point_on_its_own_row(monkeypatch):
    # only the trials are stacked: every force stage of a six-start
    # multistart at (4, 1, 0.5) reads one row's lag differences (n-1, M, d),
    # and the starts' own force stages add up to the objective's
    shapes = []
    force = Objective._force

    def recorded(self, D, r2):
        shapes.append(D.shape)
        return force(self, D, r2)

    monkeypatch.setattr(Objective, "_force", recorded)
    p = SystemParams(n=4, alpha=1.0, omega=0.5)
    out = multistart(p, DescentConfig(cutoff=8), [StartSpec(-1, seed=s) for s in range(6)])
    obj = out._outcomes[0][0]  # the starts share one cutoff, so one objective
    descent = len(shapes)
    assert descent == obj.counts.grad_evals
    assert all(len(shape) == 3 for shape in shapes)
    assert sum(r.grad_evals for r in out.results) == descent


def _retained_bytes(evs) -> int:
    """Bytes of the distinct arrays that the evaluations ``evs`` keep
    alive, views counted at the size of the array they view."""
    roots = {}
    for ev in evs:
        for a in (*ev._arrays, ev._force, ev._grad):
            while isinstance(a.base, np.ndarray):
                a = a.base
            roots[id(a)] = a.nbytes
    return sum(roots.values())


def test_lockstep_rows_keep_one_row_of_arrays_each(monkeypatch):
    # a trial accepted from a stacked kernel call, alone in its round or
    # not, keeps copies of its own row: the rows, finishing at different
    # iterations from calls of different sizes, keep what descents alone
    # do.  A guard at the optimal circle's separation makes the rows
    # backtrack in different rounds.
    stacked = []
    kernel = Objective._kernel

    def kept(self, vecs):
        entries = kernel(self, vecs)
        if vecs.ndim == 2 and len(vecs) > 1:
            stacked.extend(ev for ev in entries if isinstance(ev, Evaluation))
        return entries

    monkeypatch.setattr(Objective, "_kernel", kept)
    R = circle_radius_for_winding(3, 1.0, 0.5, -1)
    monkeypatch.setattr(action, "GUARD", math.sqrt(3.0) * R)
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    cfg = DescentConfig(cutoff=4, max_iters=300)
    obj = Objective(p, cutoff=4)
    x0 = np.array([obj.pack(noisy_circle(p, -1, s, 0.02, 4, 1.3 * R)) for s in range(4)])
    outcomes = descend(obj, x0, cfg)
    assert len({out.iters for out in outcomes}) == 4
    alone = [_retained_bytes([out.ev]) for x in x0 for out in descend(obj, x[None], cfg)]
    accepted = [ev for ev in stacked if ev._grad is not None]
    assert accepted and all(_retained_bytes([ev]) == alone[0] for ev in accepted)
    assert _retained_bytes([out.ev for out in outcomes]) <= sum(alone)


def test_lockstep_stacks_shrink_on_large_grids():
    # a stack's lag arrays stay near _STACK_BYTES: 16 rows at the benchmark's
    # n = 12 point, one row where a row alone exceeds the budget
    small = Objective(SystemParams(n=12, d=3, omega=6.55), cutoff=12, grid_size=96)
    assert optimize._stack_rows(small) == optimize._STACK_ROWS == 16
    large = Objective(SystemParams(n=64, d=3), cutoff=8, grid_size=4096)
    assert optimize._stack_rows(large) == 1
    middle = Objective(SystemParams(n=16, d=2), cutoff=8, grid_size=4096)
    rows = optimize._stack_rows(middle)
    assert 1 < rows < 16 and rows * 8 * 15 * 4096 * 4 <= optimize._STACK_BYTES


def test_multistart_refuses_more_starts_than_the_cap_before_reading_one():
    class Many(Sequence):
        def __len__(self):
            return MAX_STARTS + 1

        def __getitem__(self, i):
            raise AssertionError("a start was read")

    p = SystemParams(n=3, alpha=1.0)
    with pytest.raises(ValueError, match=f"exceed the cap of {MAX_STARTS}"):
        multistart(p, DescentConfig(cutoff=4), Many())
