"""Minimax saddle search along discretised paths of loops.

The saddle between two local minimizers is characterised as the minimum,
over continuous paths joining them, of the maximal action along the path.
The search runs in three phases.

Path phase.  The path, one coefficient vector per row of an array with the
two endpoint rows pinned, is swept repeatedly: (1) apply one bounded,
backtracked step to the maximal interior node and its two neighbours along
p = -P^-1 g, the gradient in the H^1 metric of :mod:`optimize` (P is the
kinetic Hessian plus the identity), with p's component along the local path
tangent removed (a full step would also slide nodes along the path, and the
straight segments that reparametrisation re-bridges across the ridge can
cut below the barrier); (2) redistribute the nodes to near-uniform
coefficient spacing with the current maximal node kept as a knot, rejecting
the redistribution if it would raise the maximal action.  A node step is
guarded between nodes: a rung of its backtracking ladder is taken only if
it passes the Armijo test and its midpoints to the node's interior
neighbours are collision-free and no higher than the path's node maximum
(segments to the endpoints are not guarded).  The maximal node action is
nonincreasing across sweeps by construction.  Every node keeps its
:class:`action.Evaluation` beside it, so an unchanged node is never
evaluated again: not after reparametrisation, not for the refine trigger,
not for its basin probe.  The vectors a sweep knows it needs are evaluated
as one stack (:meth:`action.Objective.evaluate_batch`, bit for bit the
single evaluations): the ten rungs t, t/2, ..., t/2^9 of a node step with
the midpoints of each rung, of which the first that passes is taken (a step
that none passes is refused), and all nodes that reparametrisation moved.
The path phase reports why it stopped (``path_stop``: the sweep budget,
the refine trigger or stagnation).  The result keeps the final path once,
as its (P, N) array ``path`` beside the node actions ``profile``, and
reports ``midpoint_max``, the highest action at the path's segment
midpoints, from one more stacked call: node actions alone can miss the
path's maximum.

Bracket phase.  Node actions sample the path coarsely, so the barrier
crossing is located directly: of the path's segments, taken in order of
distance from the maximal node (the left one first on a tie), the first
whose two nodes' basin probes relax into different endpoint basins
brackets the basin boundary, and bisection of that segment pins a point on
the boundary to relative accuracy (its first probe starts from the
midpoint evaluation above).  A probe is
:func:`optimize.descend` in the H^1 metric, with its guarded Newton finish,
run down to gradient norm 1e-4 (at most 800 iterations), and is classified
by the nearer endpoint.

Refinement phase.  Eigenvector-following Newton from the boundary point: the
exact Hessian (:meth:`action.Evaluation.hessian`, from the point's own
evaluation) is diagonalised, the lowest eigenvalue is kept (or forced)
negative and all remaining eigenvalues are replaced by their floored
absolute values, so the step moves toward an index-1 stationary point while
symmetry zero modes stay inert; a trust region adapted on gradient-norm
decrease stabilises the far field.  Near the saddle exactly one eigenvalue
is negative, the modification is the identity and the iteration is plain
Newton with quadratic convergence.  Starting on the basin boundary matters:
started inside a basin, the same iteration can drain to a minimum, so a
refinement from the boundary point that drains or stalls is retried once
from the maximal node, and the retry is kept when it ends above the
endpoints and the first did not, or reaches a smaller gradient above them.
The result reports the Morse index of the refined point, which is 1 at
both criterion-7 saddles.

Interpolated nodes that would collide are repaired by escalating transverse
offsets; if the repair budget is exhausted the offending segment is
reported.  Endpoints are never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import CollisionError, Evaluation, Objective
from .loops import (
    FourierLoop,
    SymmetryGroup,
    SystemParams,
    check_count,
    check_discretisation,
    pack_coefficients,
)
from .optimize import DescentConfig, SearchResult, descend


class MountainPassError(RuntimeError):
    pass


@dataclass(frozen=True)
class MountainPassConfig:
    nodes: int = 21
    cutoff: int = 16
    grid_size: int | None = None
    max_sweeps: int = 1500
    saddle_tol: float = 1e-6
    symmetry: SymmetryGroup | None = None
    bulge: FourierLoop | None = None
    bulge_amplitude: float = 0.0

    def __post_init__(self) -> None:
        check_discretisation(self.cutoff, self.grid_size)
        check_count("nodes", self.nodes, 3)  # a path needs 3 nodes
        if not (math.isfinite(self.saddle_tol) and self.saddle_tol > 0):
            raise ValueError(f"saddle_tol must be finite and positive, got {self.saddle_tol}")
        check_count("max_sweeps", self.max_sweeps, 1)


# path phase: a sweep moves the top node and its neighbours by one
# Armijo-backtracked metric step t p, t at most _STEP; the phase ends when
# the top node's gradient falls below _REFINE_TRIGGER or the maximal action
# fell by less than _STAGNATION_TOL over _STAGNATION_WINDOW sweeps;
# _STEP is also the refinement's initial trust radius
_STEP = 0.25
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_LADDER = 10  # backtracking rungs (with their midpoints) of a node step
_REFINE_TRIGGER = 5e-3
_STAGNATION_WINDOW = 60
_STAGNATION_TOL = 1e-8
_REPAIR_TRIES = 6
_ENDPOINT_TOL = 1e-5  # endpoints must be critical to this gradient norm
# basin probes: the H^1 descent of optimize, down to gradient 1e-4
_PROBE = DescentConfig(grad_tol=1e-4, max_iters=800)
_BISECT_TOL = 1e-6  # relative length of the bracketing segment
_MAX_REFINE_ITERS = 120


@dataclass(frozen=True)
class SaddleResult(SearchResult):
    sweeps: int
    refine_iters: int
    # the final path, one packed vector per row with the endpoints first
    # and last, and the action of each row
    path: np.ndarray
    profile: tuple[float, ...]
    max_action_history: tuple[float, ...]
    endpoint_actions: tuple[float, float]
    # why the path phase ended: "max_sweeps", "refine_trigger" or
    # "stagnation" (None when the endpoints coincide and it never ran)
    path_stop: str | None
    # the objective's kernel calls: each evaluates one vector or a stack
    # (ladder rungs and their midpoints, resampled nodes, Hessian columns)
    kernel_calls: int
    # the highest action at the final path's segment midpoints, inf where a
    # midpoint trips the collision guard (None in as_dict)
    midpoint_max: float

    @property
    def above_endpoints(self) -> bool:
        return self.action.total > max(self.endpoint_actions) + 1e-9

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "sweeps": self.sweeps,
            "refine_iters": self.refine_iters,
            "above_endpoints": self.above_endpoints,
            "endpoint_actions": list(self.endpoint_actions),
            "profile": list(self.profile),
            "path_stop": self.path_stop,
            "kernel_calls": self.kernel_calls,
            "midpoint_max": (
                self.midpoint_max if math.isfinite(self.midpoint_max) else None
            ),
        }


# ---------------------------------------------------------------------------
# path construction


def _repair(obj: Objective, path: np.ndarray, i: int) -> Evaluation:
    """Replace a colliding interior node by the neighbour midpoint plus an
    escalating deterministic transverse offset; returns its evaluation."""
    base = 0.5 * (path[i - 1] + path[i + 1])
    seg = path[i + 1] - path[i - 1]
    norm = np.linalg.norm(seg)
    if norm == 0.0:
        norm = 1.0
    rng = np.random.default_rng(1234 + i)
    direction = rng.standard_normal(base.size)
    direction = np.where(obj.mask, direction, 0.0)
    direction -= (direction @ seg) / norm**2 * seg
    dn = np.linalg.norm(direction)
    direction = direction / dn if dn > 0 else direction
    amp = 0.05 * norm
    for _ in range(_REPAIR_TRIES):
        cand = base + amp * direction
        (ev,) = obj.evaluate_batch(cand)
        if ev is not None:
            path[i] = cand
            return ev
        amp *= 2.0
    raise MountainPassError(f"could not repair colliding path segment around node {i}")


def initial_path(
    obj: Objective,
    end_a: np.ndarray,
    end_b: np.ndarray,
    cfg: MountainPassConfig,
) -> np.ndarray:
    """Straight-line path in coefficient space with optional transverse
    bulge, one node per row; :func:`mountain_pass` evaluates it and repairs
    colliding nodes."""
    s = np.linspace(0.0, 1.0, cfg.nodes)
    path = (1.0 - s)[:, None] * end_a + s[:, None] * end_b
    if cfg.bulge is not None and cfg.bulge_amplitude > 0.0:
        direction = np.where(
            obj.mask, pack_coefficients(cfg.bulge.padded(obj.cutoff)), 0.0
        )
        nrm = np.linalg.norm(direction)
        if nrm > 0:
            direction /= nrm
        bump = [cfg.bulge_amplitude * math.sin(math.pi * si) for si in s[1:-1]]
        path[1:-1] += np.multiply.outer(bump, direction)
    return path


def _reparametrise(path: np.ndarray, pin: int) -> np.ndarray:
    """Uniform arclength resampling of the (P, N) path with node ``pin``
    kept as a knot."""

    def resample(pts: np.ndarray) -> np.ndarray:
        count = len(pts)
        if count <= 2:
            return pts
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        if arc[-1] <= 0.0:
            return pts
        targets = np.linspace(0.0, arc[-1], count)
        j = np.searchsorted(arc, targets, side="right") - 1
        j = np.clip(j, 0, count - 2)
        span = arc[j + 1] - arc[j]
        # w = 0 on zero-length spans
        w = np.divide(targets - arc[j], span, out=np.zeros(count), where=~(span <= 0))
        out = (1.0 - w)[:, None] * pts[j] + w[:, None] * pts[j + 1]
        out[0] = pts[0]
        out[-1] = pts[-1]
        return out

    return np.concatenate([resample(path[: pin + 1]), resample(path[pin:])[1:]])


# ---------------------------------------------------------------------------
# node descent


def _descend_node(
    obj: Objective,
    vec: np.ndarray,
    ev: Evaluation,
    mesh: float,
    tangent: np.ndarray,
    guard: tuple[np.ndarray, ...],
    ceiling: float,
) -> tuple[np.ndarray, Evaluation]:
    """One backtracked step along p = -P^-1 g, the gradient in the H^1
    metric, with p's component along the path tangent removed and the
    displacement capped by the mesh: the _LADDER rungs t, t/2, ... from
    t = min(_STEP, mesh / |p|), each with its midpoint to every vector in
    ``guard`` (the node's interior neighbours), in one stacked evaluation.

    ``ev`` is the node's evaluation.  The first rung that passes the Armijo
    test on the slope g^T p and whose midpoints are collision-free and no
    higher than ``ceiling`` is returned with its evaluation; a refused step
    returns ``vec`` and ``ev`` themselves, as does a node whose slope is
    not negative or whose first rung moves it by at most 1e-14.
    """
    f, g = ev.value, ev.gradient()
    p = -obj.metric_direction(g)[0]
    tn = float(np.linalg.norm(tangent))
    if tn > 0.0:
        that = tangent / tn
        p -= float(p @ that) * that
    slope = float(g @ p)
    if slope >= 0.0:
        return vec, ev
    pnorm = float(np.linalg.norm(p))
    t = min(_STEP, mesh / pnorm)
    if t * pnorm <= 1e-14:
        return vec, ev
    ladder = t * _BACKTRACK ** np.arange(_LADDER)
    cands = vec + np.multiply.outer(ladder, p)
    stack = np.stack([cands, *(0.5 * (cands + nb) for nb in guard)], axis=1)
    evs = obj.evaluate_batch(stack.reshape(-1, vec.size))
    rows = 1 + len(guard)
    for k, tk in enumerate(ladder):
        ev_c, *mids = evs[rows * k : rows * (k + 1)]
        if (
            ev_c is not None
            and ev_c.value <= f + _ARMIJO * tk * slope
            and all(m is not None and m.value <= ceiling for m in mids)
        ):
            return cands[k], ev_c
    return vec, ev


# ---------------------------------------------------------------------------
# basin probes, bracket, bisection


def _basin(
    obj: Objective,
    x: np.ndarray,
    ends: tuple[np.ndarray, np.ndarray],
    ev: Evaluation | None = None,
) -> int | None:
    """The endpoint (0 or 1) whose basin ``x`` drains to, or None.

    The probe is :func:`optimize.descend` from ``x`` (``ev``, when given,
    is its evaluation).  Plain coefficient distance to the endpoints is
    meaningful afterwards because the flow is equivariant: it does not
    drift along the rotation and time-shift orbits.
    """
    try:
        xe = descend(obj, x[None], _PROBE, None if ev is None else [ev])[0].vec
    except CollisionError:
        return None
    da = float(np.linalg.norm(xe - ends[0]))
    db = float(np.linalg.norm(xe - ends[1]))
    if da == db:
        return None
    return 0 if da < db else 1


def _bisect_to_boundary(
    obj: Objective,
    ends: tuple[np.ndarray, np.ndarray],
    p_a: np.ndarray,
    p_b: np.ndarray,
    ev_mid: Evaluation,
) -> np.ndarray | None:
    """Shrink a segment from basin 0 (``p_a``) to basin 1 (``p_b``) onto the
    basin boundary; returns the midpoint, or None if classification breaks
    down.  ``ev_mid`` is the evaluation of the segment's midpoint, the first
    point probed."""
    scale = max(1.0, float(np.linalg.norm(p_a)))
    for _ in range(80):
        if float(np.linalg.norm(p_a - p_b)) < _BISECT_TOL * scale:
            break
        mid = 0.5 * (p_a + p_b)
        side = _basin(obj, mid, ends, ev_mid)
        ev_mid = None
        if side == 0:
            p_a = mid
        elif side == 1:
            p_b = mid
        else:
            return None
    return 0.5 * (p_a + p_b)


# ---------------------------------------------------------------------------
# eigenvector-following refinement


def _refine(
    obj: Objective, vec: np.ndarray, cfg: MountainPassConfig, ev: Evaluation | None
) -> tuple[np.ndarray, Evaluation, float, int]:
    """Eigenvector-following Newton toward an index-1 stationary point.

    ``ev`` is the evaluation of ``vec`` when known; the point returned comes
    with its evaluation.  A rejected step leaves the point, and therefore
    its Hessian, unchanged.
    """
    x = vec.copy()
    if ev is None:
        ev = obj.evaluate(x)
    g = ev.gradient()
    gnorm = float(np.linalg.norm(g))
    radius = _STEP
    for it in range(1, _MAX_REFINE_ITERS + 1):
        if gnorm < cfg.saddle_tol:
            return x, ev, gnorm, it - 1
        evals, evecs = ev.spectrum()
        floor = max(1e-4 * float(np.max(np.abs(evals))), 1e-10)
        lam = evals.copy()
        lam[0] = min(lam[0], -floor)  # kept negative: move toward the saddle
        lam[1:] = np.maximum(np.abs(lam[1:]), floor)  # all others: descend
        coeff = evecs.T @ g[obj.free]
        step_r = -(evecs @ (coeff / lam))
        norm = float(np.linalg.norm(step_r))
        if norm > radius:
            step_r *= radius / norm
        step = np.zeros_like(x)
        step[obj.free] = step_r
        cand = x + step
        (ev_c,) = obj.evaluate_batch(cand)
        gcn = math.inf if ev_c is None else float(np.linalg.norm(ev_c.gradient()))
        if gcn < gnorm:
            x, ev, g, gnorm = cand, ev_c, ev_c.gradient(), gcn
            radius = min(radius * 2.0, 10.0 * _STEP)
        else:
            radius *= 0.5
            # a radius the rejected step still fits in would try it again
            while norm <= radius and radius >= 1e-12:
                radius *= 0.5
            if radius < 1e-12:
                break
    return x, ev, gnorm, _MAX_REFINE_ITERS


# ---------------------------------------------------------------------------
# the algorithm


def mountain_pass(
    end_a: FourierLoop,
    end_b: FourierLoop,
    params: SystemParams,
    cfg: MountainPassConfig,
) -> SaddleResult:
    """Saddle candidate between two local minimizers of the action.

    Preconditions: both endpoints are critical to gradient norm 1e-5.  If the
    endpoints coincide the degenerate path is returned immediately.
    """
    cutoff = max(cfg.cutoff, end_a.cutoff, end_b.cutoff)
    obj = Objective(
        params,
        cutoff=cutoff,
        grid_size=cfg.grid_size,
        symmetry=cfg.symmetry,
    )
    va = obj.pack(end_a)
    vb = obj.pack(end_b)
    ev_a, ev_b = obj.evaluate(va), obj.evaluate(vb)
    act_a, act_b = ev_a.value, ev_b.value

    if np.array_equal(va, vb):
        return SaddleResult.at(
            obj,
            va,
            ev_a,
            converged=True,
            sweeps=0,
            refine_iters=0,
            path=np.stack([va, va, vb]),
            max_action_history=(act_a,),
            profile=(act_a,) * 3,
            endpoint_actions=(act_a, act_a),
            path_stop=None,
            kernel_calls=obj.counts.kernel_calls,
            midpoint_max=act_a,
        )

    for name, ev in (("first", ev_a), ("second", ev_b)):
        gn = float(np.linalg.norm(ev.gradient()))
        if gn > _ENDPOINT_TOL:
            raise ValueError(
                f"{name} endpoint is not a critical point: gradient norm {gn:.3e} "
                f"exceeds {_ENDPOINT_TOL:.1e}"
            )

    # --- path phase -------------------------------------------------------
    # every node keeps its evaluation beside it, so no vector is evaluated
    # twice; the first and last nodes are the endpoints
    nodes = initial_path(obj, va, vb, cfg)
    interior = range(1, len(nodes) - 1)
    evs = [ev_a, *obj.evaluate_batch(nodes[1:-1]), ev_b]
    for i in interior:
        if evs[i] is None:
            evs[i] = _repair(obj, nodes, i)
    acts = np.array([ev.value for ev in evs])
    im = 1 + int(np.argmax(acts[1:-1]))  # the top node, kept current
    history: list[float] = []
    sweeps_done = 0
    path_stop = "max_sweeps"
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps_done = sweep
        mesh = 0.5 * (
            float(np.linalg.norm(nodes[im] - nodes[im - 1]))
            + float(np.linalg.norm(nodes[im + 1] - nodes[im]))
        )
        mesh = max(mesh, 1e-12)
        for idx in (im - 1, im, im + 1):
            if idx not in interior:
                continue
            guard = tuple(nodes[j] for j in (idx - 1, idx + 1) if j in interior)
            vec, ev = _descend_node(
                obj, nodes[idx], evs[idx], mesh, nodes[idx + 1] - nodes[idx - 1],
                guard, float(np.max(acts[1:-1])),
            )  # fmt: skip
            nodes[idx], evs[idx], acts[idx] = vec, ev, ev.value
        pin = 1 + int(np.argmax(acts[1:-1]))
        new_nodes = _reparametrise(nodes, pin)
        # the endpoints, the pinned node and any node left in place are
        # unchanged rows: they keep their evaluations; the moved nodes are
        # evaluated in one stacked call
        moved = np.flatnonzero(np.any(new_nodes != nodes, axis=1))
        new_evs = list(evs)
        if moved.size:
            for k, ev in zip(moved, obj.evaluate_batch(new_nodes[moved])):
                new_evs[k] = ev
        new_acts = np.array([math.inf if ev is None else ev.value for ev in new_evs])
        if float(np.max(new_acts[1:-1])) <= acts[pin] + 1e-12:
            nodes, evs, acts = new_nodes, new_evs, new_acts
        im = 1 + int(np.argmax(acts[1:-1]))
        history.append(float(acts[im]))
        if float(np.linalg.norm(evs[im].gradient())) < _REFINE_TRIGGER:
            path_stop = "refine_trigger"
            break
        w = _STAGNATION_WINDOW
        if len(history) > w and history[-w - 1] - history[-1] < _STAGNATION_TOL:
            path_stop = "stagnation"
            break

    # the path's maximum between nodes, from one stacked call
    mids = obj.evaluate_batch(0.5 * (nodes[:-1] + nodes[1:]))
    midpoint_max = max(math.inf if ev is None else ev.value for ev in mids)

    # --- bracket phase ----------------------------------------------------
    ends = (va, vb)
    sides: dict[int, int | None] = {0: 0, len(nodes) - 1: 1}

    def side_of(i: int):
        if i not in sides:
            sides[i] = _basin(obj, nodes[i], ends, evs[i])
        return sides[i]

    start, ev_start = nodes[im].copy(), evs[im]
    vec_candidate, ev_candidate = start, ev_start
    # segment k joins nodes k and k + 1; the segments are probed nearest the
    # top node first, the left one first on a tie, up to the first whose
    # nodes drain to different endpoints
    for k in sorted(range(len(nodes) - 1), key=lambda k: abs(2 * (k - im) + 1)):
        a, b = side_of(k), side_of(k + 1)
        if a is None or b is None or a == b:
            continue
        if mids[k] is not None:  # else the first bisection probe would collide
            p_a, p_b = (nodes[k], nodes[k + 1]) if a == 0 else (nodes[k + 1], nodes[k])
            boundary = _bisect_to_boundary(obj, ends, p_a, p_b, mids[k])
            if boundary is not None:
                vec_candidate, ev_candidate = boundary, None
        break
    # the refinement needs no other evaluation of the path phase: free the
    # stacked calls' arrays they hold
    del evs, mids

    # --- refinement phase ---------------------------------------------------
    top = max(act_a, act_b) + 1e-9
    refined, ev, gnorm, refine_iters = _refine(obj, vec_candidate, cfg, ev_candidate)
    if vec_candidate is not start and (gnorm >= cfg.saddle_tol or ev.value <= top):
        # drained to a minimum or stalled from the boundary point: retry once
        # from the raw max node (a start there would repeat itself bit for bit)
        alt, ev_alt, alt_gn, alt_it = _refine(obj, start, cfg, ev_start)
        refine_iters += alt_it
        if ev_alt.value > top and (ev.value <= top or alt_gn < gnorm):
            refined, ev, gnorm = alt, ev_alt, alt_gn

    return SaddleResult.at(
        obj,
        refined,
        ev,
        converged=gnorm < cfg.saddle_tol,
        sweeps=sweeps_done,
        refine_iters=refine_iters,
        path=nodes,
        max_action_history=tuple(history),
        profile=tuple(acts.tolist()),
        endpoint_actions=(act_a, act_b),
        path_stop=path_stop,
        kernel_calls=obj.counts.kernel_calls,
        midpoint_max=midpoint_max,
    )

