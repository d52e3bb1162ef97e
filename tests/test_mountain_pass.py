import importlib
import math
import warnings

import numpy as np
import pytest

from choreo.loops import EIGHT3D, FourierLoop, SystemParams
from choreo.action import CollisionError
from choreo.mountain_pass import (
    MountainPassConfig,
    _basin,
    _descend_node,
    _repair,
    _reparametrise,
    initial_path,
    mountain_pass,
)
from choreo.optimize import Objective
from choreo.spectral import circle_radius_for_winding, restricted_circle_action

TWO_PI = 2.0 * math.pi


def tied_endpoints(cutoff=16):
    R1 = circle_radius_for_winding(3, 1.0, 1.5, -1)
    R2 = circle_radius_for_winding(3, 1.0, 1.5, -2)
    return (
        FourierLoop.circle(R1, -1, dim=2, cutoff=cutoff),
        FourierLoop.circle(R2, -2, dim=2, cutoff=cutoff),
    )


def eight_endpoints(K=20):
    from choreo.bounds import bound_chain_minimum

    R = bound_chain_minimum(3, 1.0)["radius"]
    cos = np.zeros((K, 3))
    sin = np.zeros((K, 3))
    sin[0, 1] = R
    cos[0, 2] = R
    cos2 = cos.copy()
    cos2[0, 2] = -R
    return FourierLoop(np.zeros(3), cos, sin), FourierLoop(np.zeros(3), cos2, sin)


def tied_config(cutoff=16, **kw):
    bulge = FourierLoop.circle(1.0, 1, dim=2, cutoff=cutoff).shift(math.pi / 2)
    defaults = dict(
        nodes=21,
        cutoff=cutoff,
        saddle_tol=1e-6,
        bulge=bulge,
        bulge_amplitude=0.35,
        max_sweeps=800,
    )
    defaults.update(kw)
    return MountainPassConfig(**defaults)


@pytest.fixture(scope="module")
def tied_saddle():
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    end_a, end_b = tied_endpoints()
    return mountain_pass(end_a, end_b, p, tied_config()), p


# ---------------------------------------------------------------------------
# degenerate and error paths


def test_equal_endpoints_return_immediately():
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    end_a, _ = tied_endpoints()
    res = mountain_pass(end_a, end_a, p, tied_config(max_sweeps=5))
    assert res.converged
    assert res.sweeps == 0
    assert abs(res.action.total - res.endpoint_actions[0]) < 1e-12
    vals = res.path.actions
    assert max(vals) - min(vals) < 1e-12  # flat profile


def test_noncritical_endpoint_rejected():
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    end_a, end_b = tied_endpoints()
    bad = FourierLoop.circle(2.0, -1, dim=2, cutoff=16)  # wrong radius
    with pytest.raises(ValueError):
        mountain_pass(bad, end_b, p, tied_config(max_sweeps=5))


def two_body_circles(cutoff=4):
    """The winding +1 and -1 circles of n = 2, alpha = 1 at the optimal
    radius.  The straight segment's midpoint is (R cos t, 0), so the two
    bodies meet at the origin at t = pi/2."""
    R = circle_radius_for_winding(2, 1.0, 0.0, 1)
    return (
        FourierLoop.circle(R, 1, cutoff=cutoff),
        FourierLoop.circle(R, -1, cutoff=cutoff),
    )


def test_repair_moves_a_colliding_node_across_the_segment():
    obj = Objective(SystemParams(n=2, alpha=1.0), cutoff=4)
    a, b = (obj.pack(loop) for loop in two_body_circles())
    nodes = [a, 0.5 * (a + b), b]
    mid = nodes[1]
    with pytest.raises(CollisionError):
        obj.evaluate(mid)
    ev = _repair(obj, nodes, 1)
    assert nodes[0] is a and nodes[2] is b
    assert ev.value == obj.evaluate(nodes[1]).value
    # a transverse offset inside the free coordinates
    offset, seg = nodes[1] - mid, b - a
    assert np.linalg.norm(offset) > 0.0
    assert abs(offset @ seg) < 1e-12 * np.linalg.norm(offset) * np.linalg.norm(seg)
    assert np.all(offset[~obj.mask] == 0.0)


def test_saddle_search_repairs_a_colliding_initial_node(monkeypatch):
    module = importlib.import_module("choreo.mountain_pass")
    repaired = []

    def counted(obj, path, i):
        repaired.append(i)
        return _repair(obj, path, i)

    monkeypatch.setattr(module, "_repair", counted)
    end_a, end_b = two_body_circles()
    p = SystemParams(n=2, alpha=1.0)
    res = mountain_pass(end_a, end_b, p, MountainPassConfig(nodes=3, cutoff=4))
    assert repaired == [1]
    assert res.converged and res.above_endpoints
    assert res.diagnostics.min_separation > 0.1


def test_refine_retry_keeps_a_saddle_above_the_endpoints(monkeypatch):
    # the first refinement drains to an endpoint at a tiny gradient norm,
    # the retry from the top node ends above the endpoints at a larger one
    # that still meets the tolerance: the result is the retry's
    module = importlib.import_module("choreo.mountain_pass")
    starts = []

    def refine(obj, vec, cfg, ev):
        starts.append(vec)
        if len(starts) == 1:
            end = obj.pack(two_body_circles()[0])
            return end, obj.evaluate(end), 1e-12, 3
        return vec, ev, 1e-8, 5

    monkeypatch.setattr(module, "_refine", refine)
    end_a, end_b = two_body_circles()
    p = SystemParams(n=2, alpha=1.0)
    cfg = MountainPassConfig(nodes=3, cutoff=4, max_sweeps=5)
    res = mountain_pass(end_a, end_b, p, cfg)
    assert len(starts) == 2 and res.refine_iters == 8
    assert res.converged and res.above_endpoints
    obj = Objective(p, cutoff=4)
    assert np.array_equal(obj.pack(res.loop), starts[1])


def test_initial_linear_path_max_above_endpoints():
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    end_a, end_b = tied_endpoints()
    cfg = tied_config()
    obj = Objective(p, cutoff=cfg.cutoff)
    nodes = initial_path(obj, obj.pack(end_a), obj.pack(end_b), cfg)
    acts = [obj.value(v) for v in nodes]
    assert max(acts[1:-1]) > acts[0] + 0.5
    assert max(acts[1:-1]) > acts[-1] + 0.5


def test_saddle_search_evaluates_each_vector_once(monkeypatch):
    # every node keeps its evaluation: descending a node, re-scoring the
    # path after reparametrisation, the refine trigger, the basin probes of
    # nodes and the refinement never evaluate a vector a second time; the
    # rows of stacked evaluations (resampled nodes, backtracking ladders)
    # count like single ones, and a ladder rung that is never accepted is
    # still a distinct vector
    seen, repeats, calls = set(), [], []
    evaluate, evaluate_batch = Objective.evaluate, Objective.evaluate_batch

    def see(vec):
        key = vec.tobytes()
        if key in seen:
            repeats.append(key)
        seen.add(key)

    def counted(self, vec):
        see(vec)
        calls.append(1)
        return evaluate(self, vec)

    def counted_batch(self, vecs):
        for vec in vecs:
            see(vec)
        calls.append(len(vecs))
        return evaluate_batch(self, vecs)

    monkeypatch.setattr(Objective, "evaluate", counted)
    monkeypatch.setattr(Objective, "evaluate_batch", counted_batch)
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    end_a, end_b = tied_endpoints(cutoff=8)
    res = mountain_pass(end_a, end_b, p, tied_config(cutoff=8, nodes=9, max_sweeps=40))
    assert res.sweeps == 40 and res.refine_iters > 0 and res.converged
    assert len(seen) > 1000
    assert not repeats
    # the reported counts are the objective's: every row, every call
    assert res.value_evals == sum(calls) == len(seen)
    assert res.kernel_calls == len(calls) < res.value_evals
    assert 0 < res.grad_evals < res.value_evals
    assert res.path_stop == "max_sweeps"


# ---------------------------------------------------------------------------
# the stacked evaluations against the sequential loops they replace


def descend_node_rung_by_rung(obj, vec, ev, mesh, tangent, guard, ceiling):
    """The node step with one evaluation per vector: each halving of t
    evaluates the rung, then its midpoint to each guard neighbour.  Returns
    the node, its evaluation and the number of rungs tried."""
    g = ev.gradient()
    p = -obj.metric_direction(g)[0]
    that = tangent / np.linalg.norm(tangent)
    p = p - float(p @ that) * that
    slope = float(g @ p)
    if slope >= 0.0:
        return vec, ev, 0
    pnorm = float(np.linalg.norm(p))
    t = min(0.25, mesh / pnorm)
    rungs = 0
    while t * pnorm > 1e-14:
        rungs += 1
        cand = vec + t * p
        ok = True
        for v in (cand, *(0.5 * (cand + nb) for nb in guard)):
            try:
                ev_v = obj.evaluate(v)
            except CollisionError:
                ok = False
                continue
            if v is cand:
                ev_c = ev_v
                ok &= ev_v.value <= ev.value + 1e-4 * t * slope
            else:
                ok &= ev_v.value <= ceiling
        if ok:
            return cand, ev_c, rungs
        t *= 0.5
    return vec, ev, rungs


def node_step(obj, nodes, i, ev, mesh, ceiling, tried):
    """_descend_node at node i of the path, guarded by its interior
    neighbours, with the tangent and guard it was given."""
    tangent = nodes[i + 1] - nodes[i - 1]
    guard = tuple(nodes[j] for j in (i - 1, i + 1) if 0 < j < len(nodes) - 1)
    got = _descend_node(obj, nodes[i], ev, mesh, tangent, guard, ceiling, tried)
    return got, tangent, guard


@pytest.mark.parametrize("amplitude, mesh", [(0.35, 0.05), (0.35, 5.0), (0.01, 1e3)])
def test_descend_node_takes_the_first_armijo_rung(amplitude, mesh):
    # the metric step with its ladder t, t/2, ... and the midpoints of each
    # rung evaluated in stacks accepts the same rung, vector and evaluation
    # as trying the vectors one at a time; at the bulge 0.35 the guard
    # blocks the top nodes, whose ladders run past their first stack, and
    # the flat bulge puts the middle node next to a collision, where the
    # step backtracks on the Armijo test
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    obj = Objective(p, cutoff=8)
    end_a, end_b = tied_endpoints(cutoff=8)
    cfg = tied_config(cutoff=8, nodes=11, bulge_amplitude=amplitude)
    nodes = initial_path(obj, obj.pack(end_a), obj.pack(end_b), cfg)
    evs = [obj.evaluate(v) for v in nodes]
    ceiling = max(ev.value for ev in evs[1:-1])
    most_rungs = 0
    for i in range(1, 10):
        step = node_step(obj, nodes, i, evs[i], mesh, ceiling, {})
        (got, got_ev), tangent, guard = step
        want, want_ev, rungs = descend_node_rung_by_rung(
            obj, nodes[i], evs[i], mesh, tangent, guard, ceiling
        )
        most_rungs = max(most_rungs, rungs)
        assert np.array_equal(got, want)
        assert got_ev.value == want_ev.value
        assert np.array_equal(got_ev.gradient(), want_ev.gradient())
    assert most_rungs > (10 if amplitude > 0.1 else 5)


def test_blocked_node_step_is_not_evaluated_again():
    # below every midpoint's action no rung passes the guard; the same step
    # again finds every row among the rows it tried and evaluates nothing
    p = SystemParams(n=3, alpha=1.0, omega=1.5)
    obj = Objective(p, cutoff=8)
    end_a, end_b = tied_endpoints(cutoff=8)
    cfg = tied_config(cutoff=8, nodes=11)
    nodes = initial_path(obj, obj.pack(end_a), obj.pack(end_b), cfg)
    ev = obj.evaluate(nodes[5])
    tried = {}
    (vec, ev_1), _, guard = node_step(obj, nodes, 5, ev, 0.05, -math.inf, tried)
    assert ev_1 is ev and np.array_equal(vec, nodes[5]) and len(guard) == 2
    rows, calls = obj.counts.value_evals, obj.counts.kernel_calls
    assert len(tried) > 3 * 10  # more than one stack of rungs and midpoints
    (vec, ev_2), _, _ = node_step(obj, nodes, 5, ev, 0.05, -math.inf, tried)
    assert ev_2 is ev
    assert (obj.counts.value_evals, obj.counts.kernel_calls) == (rows, calls)


def second_difference(obj, vec, direction, eps=1e-4):
    """(A(x + eps v) - 2 A(x) + A(x - eps v)) / eps^2 along the unit vector
    v of ``direction`` under the mask: the curvature from values alone."""
    d = np.where(obj.mask, direction, 0.0)
    d = d / np.linalg.norm(d)
    fp, f0, fm = obj.value(vec + eps * d), obj.value(vec), obj.value(vec - eps * d)
    return (fp - 2.0 * f0 + fm) / (eps * eps)


def reparametrise_by_targets(path, pin):
    """Arclength resampling with one interpolation per target node."""

    def resample(chunk, count):
        if count <= 2 or len(chunk) < 2:
            return chunk
        pts = np.stack(chunk)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        if arc[-1] <= 0.0:
            return chunk
        out = []
        for tgt in np.linspace(0.0, arc[-1], count):
            j = int(np.searchsorted(arc, tgt, side="right") - 1)
            j = min(max(j, 0), len(chunk) - 2)
            span = arc[j + 1] - arc[j]
            w = 0.0 if span <= 0 else (tgt - arc[j]) / span
            out.append((1.0 - w) * pts[j] + w * pts[j + 1])
        out[0] = chunk[0]
        out[-1] = chunk[-1]
        return out

    left = resample(path[: pin + 1], pin + 1)
    right = resample(path[pin:], len(path) - pin)
    return left + right[1:]


def test_reparametrise_equals_per_target_loop():
    rng = np.random.default_rng(5)
    for trial in range(40):
        P = int(rng.integers(3, 12))
        path = [rng.standard_normal(10) for _ in range(P)]
        for _ in range(int(rng.integers(0, 4))):  # coincident consecutive nodes
            i = int(rng.integers(1, P))
            path[i] = path[i - 1].copy()
        if trial % 10 == 0:  # a chunk of one repeated node
            path = [path[0].copy() for _ in range(P)]
        for pin in range(1, P - 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # zero-length spans divide quietly
                got = _reparametrise(np.stack(path), pin)
            want = reparametrise_by_targets(path, pin)
            assert got.shape == (P, 10) and len(want) == P
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("case", ["tied", "eight"])
def test_basin_probe_sends_perturbed_endpoints_home(case):
    if case == "tied":
        p = SystemParams(n=3, alpha=1.0, omega=1.5)
        obj = Objective(p, cutoff=16)
        ends = tied_endpoints()
    else:
        p = SystemParams(n=3, d=3, alpha=1.0)
        obj = Objective(p, cutoff=20, symmetry=EIGHT3D)
        ends = eight_endpoints()
    va, vb = (obj.pack(e) for e in ends)
    rng = np.random.default_rng(0)
    for side, v in enumerate((va, vb)):
        for _ in range(3):
            x = v + 0.03 * np.where(obj.mask, rng.standard_normal(v.size), 0.0)
            assert _basin(obj, x, (va, vb)) == side


# ---------------------------------------------------------------------------
# the tied-circles saddle


def test_saddle_between_tied_circles(tied_saddle):
    res, p = tied_saddle
    assert res.converged
    assert res.grad_norm < 1e-6
    assert res.above_endpoints
    d = res.diagnostics
    assert d.min_separation > 0.05  # collisionless
    assert d.radius_rms > 1e-2  # decisively non-circular


def test_saddle_endpoints_unchanged(tied_saddle):
    res, p = tied_saddle
    end_a, end_b = tied_endpoints()
    obj = Objective(p, cutoff=res.path.cutoff)
    assert np.array_equal(res.path.nodes[0], obj.pack(end_a))
    assert np.array_equal(res.path.nodes[-1], obj.pack(end_b))


def test_saddle_max_history_monotone(tied_saddle):
    res, _ = tied_saddle
    hist = res.max_action_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-10


def test_saddle_signature(tied_saddle, eight_saddle):
    # both saddles report index one: one negative eigenvalue of the exact
    # Hessian; the value-only second differences confirm it independently
    for (res, p), symmetry in ((tied_saddle, None), (eight_saddle, EIGHT3D)):
        assert res.morse_index == 1
        assert res.zero_modes >= 1 and res.zero_threshold > 0.0
        obj = Objective(p, cutoff=res.path.cutoff, symmetry=symmetry)
        x = obj.pack(res.loop)
        evals, evecs = obj.evaluate(x).spectrum()
        assert evals[0] < -1e-3
        assert evals[1] > -1e-6  # index exactly one
        neg_dir = np.zeros_like(x)
        neg_dir[obj.free] = evecs[:, 0]
        assert second_difference(obj, x, neg_dir) < -1e-3
        rng = np.random.default_rng(0)
        nd = neg_dir / np.linalg.norm(neg_dir)
        for _ in range(20):
            v = rng.standard_normal(x.size)
            v = np.where(obj.mask, v, 0.0)
            v -= (v @ nd) * nd
            assert second_difference(obj, x, v) >= -1e-4


def test_profile_reports_maximum(tied_saddle):
    res, _ = tied_saddle
    im = res.path.max_interior()
    assert 0 < im < len(res.path.nodes) - 1
    assert res.path.actions[im] == max(res.path.actions[1:-1])


@pytest.mark.parametrize("case", ["tied", "eight"])
def test_midpoint_max_equals_midpoints_one_at_a_time(case, tied_saddle, eight_saddle):
    res, p = tied_saddle if case == "tied" else eight_saddle
    group = EIGHT3D if case == "eight" else None
    obj = Objective(p, cutoff=res.path.cutoff, symmetry=group)
    nodes = res.path.nodes
    mids = [obj.value(0.5 * (a + b)) for a, b in zip(nodes[:-1], nodes[1:])]
    assert res.midpoint_max == max(mids)
    assert res.as_dict()["midpoint_max"] == res.midpoint_max
    # on the resolved eight, nodes and midpoints sample the path's maximum
    # to about 4e-3 of the saddle; the tied path jumps a near-collision
    # ridge between two nodes, far above its saddle (ROADMAP item 5)
    if case == "eight":
        assert abs(res.midpoint_max - res.action.total) < 1e-2


# tied: (cutoff, nodes, bulge); eight: (nodes, bulge as a fraction of R)
ROBUST = [
    ("tied", (8, 15, 0.5), 6.26120178),
    ("tied", (12, 11, 0.2), 6.19377084),
    ("tied", (16, 31, 0.5), 6.27844954),
    ("eight", (11, 0.3), 8.12397549),
]


@pytest.mark.parametrize("case, setting, action", ROBUST)
def test_saddle_search_off_the_criterion_settings(case, setting, action):
    # other cutoffs, node counts and bulges find the saddle above the
    # endpoints too
    if case == "tied":
        K, nodes, bulge = setting
        p = SystemParams(n=3, alpha=1.0, omega=1.5)
        end_a, end_b = tied_endpoints(cutoff=K)
        cfg = tied_config(cutoff=K, nodes=nodes, bulge_amplitude=bulge)
        res = mountain_pass(end_a, end_b, p, cfg)
    else:
        res, _ = eight_search(*setting)
    assert res.converged and res.above_endpoints
    assert abs(res.action.total - action) < 1e-6


# ---------------------------------------------------------------------------
# the symmetric three-dimensional saddle (figure eight)


def eight_search(nodes=21, bulge=0.5):
    """The symmetric search between the eight's endpoints, with a bulge of
    ``bulge`` times their radius."""
    K = 20  # residual tail of the smooth saddle decays below 1e-3 by K=20
    p = SystemParams(n=3, d=3, alpha=1.0, omega=0.0)
    end_a, end_b = eight_endpoints(K)
    R = float(end_a.sin_coeffs[0, 1])
    bc = np.zeros((K, 3))
    bs = np.zeros((K, 3))
    bs[1, 0] = 1.0  # sin 2t in the first component, allowed by the group
    cfg = MountainPassConfig(
        nodes=nodes,
        cutoff=K,
        saddle_tol=1e-6,
        symmetry=EIGHT3D,
        bulge=FourierLoop(np.zeros(3), bc, bs),
        bulge_amplitude=bulge * R,
        max_sweeps=800,
    )
    return mountain_pass(end_a, end_b, p, cfg), p


@pytest.fixture(scope="module")
def eight_saddle():
    return eight_search()


def test_eight_is_planar_saddle(eight_saddle):
    res, p = eight_saddle
    assert res.converged
    assert res.grad_norm < 1e-6
    assert res.above_endpoints
    X = res.loop.sample(96)
    assert np.max(np.abs(X[:, 2])) < 1e-3  # the x3 = 0 outcome is emergent
    assert res.diagnostics.min_separation > 0.05


def test_eight_shape(eight_saddle):
    res, _ = eight_saddle
    X = res.loop.sample(96)
    x1 = X[:, 0]
    assert np.max(np.abs(x1)) > 0.1  # a genuine two-lobed shape, not a circle
    signs = np.sign(x1[np.abs(x1) > 1e-9])
    changes = int(np.sum(signs != np.roll(signs, 1)))
    assert changes == 4  # two sign changes per half-period
    # the first component is pi-periodic by construction of the group
    ts = np.linspace(0, TWO_PI, 33)
    assert np.allclose(
        res.loop.evaluate(ts)[:, 0], res.loop.evaluate(ts + math.pi)[:, 0], atol=1e-9
    )


def test_eight_newton_residual_covanishes(eight_saddle):
    # the smooth well-separated saddle has a small truncation tail
    res, _ = eight_saddle
    assert res.newton_residual < 1e-3


def test_eight_endpoint_action_is_inertial_circle_minimum(eight_saddle):
    res, _ = eight_saddle
    expected = 3.0 ** (2.0 / 3.0) * math.pi
    assert abs(res.endpoint_actions[0] - expected) < 1e-10
    assert abs(res.endpoint_actions[1] - expected) < 1e-10
