"""Descent over Fourier coefficients in the kinetic metric, with escape and
clusters.

The action is posed on H^1, and its kinetic operator makes it stiff: the
kinetic Hessian has eigenvalues pi (k +- omega)^2 on harmonic k, so plain
steepest descent must keep its step below about 1 / (pi (K + omega)^2) and
crawls on the low harmonics.  Each step therefore goes along the H^1
(Sobolev) gradient -P^-1 g, with
P = L^T diag(w) L + I the kinetic Hessian plus the identity (L, w from
:func:`action.velocity_map`; Neuberger, *Sobolev Gradients and Differential
Equations*, LNM 1670).  P depends only on (d, K, omega); it is restricted to
the free coordinates of the symmetry mask and the pinned mean, and factored
once per objective (:meth:`action.Objective.metric_direction`).  Armijo
backtracking uses the slope g^T P^-1 g.

The objective is :class:`action.Objective`, imported here, so
``optimize.Objective`` names the same class; it counts the work of a run.
Every search returns a :class:`SearchResult`, filled by
:meth:`SearchResult.at` from the objective, the final vector and its
evaluation: :class:`MinimizeResult` here, ``SaddleResult`` in
:mod:`mountain_pass`.

The step length t along -P^-1 g doubles after every accepted iterate with a
resolvable decrease, up to 1.  On the high harmonics, where
the kinetic term dominates, P^-1 times the Hessian is close to the identity:
t = 1 is the exact step there, and t >= 2 no longer contracts them.  Without
the bound the doubling settles on t = 2, and the winding-2 circle at
(5, 1, 2.1) needs about 1 500 iterations instead of about 130.

No momentum and no quasi-Newton acceleration: the selected minimizer should
be the one reached by the H^1 descent flow from the given start.  That flow
is not the Euclidean one, and from some starts of the non-rigid (6, 1, 1.8)
case it reaches another non-rigid state.  A metric step can be long, so its
displacement is capped at 5% of max(1, rms) of the loop; without the cap,
starts of that case jump into other basins than the flow reaches.  The cap
scales with the loop, so a minimizing sequence that escapes to infinity
grows geometrically and reaches the escape threshold in a bounded number of
iterations.  Convergence is still judged on the Euclidean norm of the
coefficient gradient.

Escape detection: non-attained infima are approached by loops whose spatial
extent diverges while the action still decreases.  A run is flagged
``escaped_to_infinity`` when the loop's rms norm about the origin exceeds
``escape_factor`` times max(1, initial rms); escaped and converged are
mutually exclusive.

Cluster detection groups bodies by time-averaged pairwise distance using the
largest relative gap in the sorted lag profile.  Adjacent sorted chords of a
circle never jump by more than a factor 2 (sin 2u / sin u < 2), so any gap
ratio above 2 indicates genuine clustering; the partition is then checked
against the arithmetic rule bodies i = m (mod j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .action import ActionValue, CollisionError, Evaluation, Objective
from .loops import (
    FourierLoop,
    LoopDiagnostics,
    SymmetryGroup,
    SystemParams,
    check_discretisation,
    diagnostics as loop_diagnostics,
    lag_differences,
    project_symmetry,
    resolve_grid_size,
)
from .spectral import circle_radius_for_winding


@dataclass(frozen=True)
class DescentConfig:
    """Knobs of the descent; defaults are the certified-run settings."""

    cutoff: int = 8
    grid_size: int | None = None
    max_iters: int = 200_000
    grad_tol: float = 1e-8
    symmetry: SymmetryGroup | None = None
    pin_mean: bool = False
    escape_factor: float = 12.0
    log_every: int = 0  # 0 disables the iteration history

    def __post_init__(self) -> None:
        check_discretisation(self.cutoff, self.grid_size)
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class ClusterReport:
    """Grouping of bodies by time-averaged distance."""

    count: int  # j, number of clusters
    size: int  # k~, bodies per cluster
    assignment: tuple[int, ...]  # body -> cluster index
    intra_lags: tuple[int, ...]  # lags h grouped as intra-cluster
    drift: tuple[float, ...]  # rms norm of each cluster centroid path
    lag_profile: tuple[float, ...]  # mean distance per lag h = 1..n-1
    matches_arithmetic_rule: bool

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "size": self.size,
            "assignment": list(self.assignment),
            "intra_lags": list(self.intra_lags),
            "drift": list(self.drift),
            "lag_profile": list(self.lag_profile),
            "matches_arithmetic_rule": self.matches_arithmetic_rule,
        }


def _norm(v: np.ndarray) -> float:
    """sqrt(v . v), what np.linalg.norm computes for a vector, bit for bit,
    without its argument handling (a descent step takes one or two)."""
    return math.sqrt(float(v @ v))


@dataclass(frozen=True)
class SearchResult:
    """What every search reports about the point it ends at.

    ``value_evals`` and ``grad_evals`` are the objective's value stages
    (collisions included) and completed gradients over the whole search.
    """

    loop: FourierLoop
    action: ActionValue
    grad_norm: float
    newton_residual: float
    converged: bool
    diagnostics: LoopDiagnostics
    value_evals: int
    grad_evals: int

    @classmethod
    def at(cls, obj: Objective, vec: np.ndarray, ev: Evaluation, **fields):
        """The record of a search on ``obj`` that ends at ``vec``, whose
        evaluation is ``ev``; ``fields`` are ``converged`` and the
        subclass's own.  A Kepler record's minimal separation is the
        evaluation's, the distance of the body to the center."""
        loop = obj.unpack(vec)
        system = obj.params or SystemParams(n=2, d=obj.dim, alpha=obj.alpha)
        diag = loop_diagnostics(loop, system, obj.grid_size)
        if obj.params is None:
            diag = replace(diag, min_separation=ev.separation)
        return cls(
            loop=loop,
            action=ActionValue(ev.kinetic, ev.potential, obj.grid_size),
            grad_norm=_norm(ev.gradient()),
            newton_residual=obj.residual(vec, ev),
            diagnostics=diag,
            value_evals=obj.counts.value_evals,
            grad_evals=obj.counts.grad_evals,
            **fields,
        )

    def as_dict(self) -> dict:
        return {
            "action": self.action.as_dict(),
            "grad_norm": self.grad_norm,
            "newton_residual": self.newton_residual,
            "converged": self.converged,
            "diagnostics": self.diagnostics.as_dict(),
            "value_evals": self.value_evals,
            "grad_evals": self.grad_evals,
        }


@dataclass(frozen=True)
class MinimizeResult(SearchResult):
    iters: int
    collision_rejects: int  # trials rejected by the collision guard
    clusters: ClusterReport | None
    escaped_to_infinity: bool
    abort_reason: str | None = None
    history: tuple[tuple[int, float, float, float], ...] = ()

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "iters": self.iters,
            "collision_rejects": self.collision_rejects,
            "clusters": self.clusters.as_dict() if self.clusters else None,
            "escaped_to_infinity": self.escaped_to_infinity,
            "abort_reason": self.abort_reason,
        }


# ---------------------------------------------------------------------------
# descent engine


# Largest displacement of one descent step, relative to max(1, rms) of the
# loop: it keeps the metric step from jumping across a ridge into another
# basin than the descent flow would reach.
_STEP_CAP = 0.05
_INITIAL_STEP = 0.25
_MAX_STEP = 1.0  # t = 1 is exact on the kinetic-dominated harmonics
_MIN_STEP = 1e-16
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_ESCAPE_WINDOW = 200  # iterations of monotone rms growth before an escape


@dataclass
class _DescentOutcome:
    vec: np.ndarray
    ev: Evaluation  # of ``vec``
    iters: int
    converged: bool
    escaped: bool
    abort_reason: str | None
    history: list


def descend(
    obj: Objective, x0: np.ndarray, cfg: DescentConfig, ev: Evaluation | None = None
) -> _DescentOutcome:
    """Armijo-backtracked descent along -P^-1 g in the kinetic metric.

    The step length t multiplies P^-1 g.  Each iteration first caps it so
    that the displacement's rms is at most 5% of max(1, rms) of the loop,
    and logs it (the ``step`` column of ``iterations.csv`` is this first
    trial step, not a step along -g); it doubles, up to 1, after a step
    whose actual decrease f - f_trial exceeds the float resolution of f.
    Convergence is the Euclidean gradient norm below ``grad_tol``.

    Escape is declared when the loop's rms norm exceeds ``escape_factor``
    times max(1, initial rms) after growing monotonically (to rounding) over
    the last 200 iterations; the action is strictly decreasing throughout
    by construction, which completes the non-attainment signature.

    Each trial is one value stage; the value and gradient at an accepted
    point are taken from its trial's evaluation, so a step completes one
    gradient and evaluates nothing twice.  ``ev`` is the evaluation of
    ``x0`` when the caller has it (a masked ``x0``); the start is then not
    evaluated again.  The work is counted in ``obj.counts`` alone.
    """
    x = np.where(obj.mask, x0, 0.0)
    if ev is None:
        ev = obj.evaluate(x)
    f, g = ev.value, ev.gradient()
    t = _INITIAL_STEP
    rms = obj.rms(x)
    escape_at = cfg.escape_factor * max(1.0, rms)
    growth_streak = 0
    history: list = []
    abort = None
    converged = escaped = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        gnorm = _norm(g)
        converged = gnorm < cfg.grad_tol
        if not converged:  # g != 0, so the direction is too
            direction, slope = obj.metric_direction(g)
            t = min(t, _STEP_CAP * max(1.0, rms) / obj.rms(direction))
        if cfg.log_every and (it % cfg.log_every == 0 or it == 1):
            history.append((it, f, gnorm, t))
        if converged:
            break
        if rms > escape_at and growth_streak >= _ESCAPE_WINDOW:
            escaped = True
            break
        # near a minimum the sufficient decrease drops below the float
        # resolution of f; allow that much slack (stays within the 1e-12
        # per-step monotonicity contract)
        noise = 1e-13 * max(1.0, abs(f))
        accepted = False
        while t >= _MIN_STEP:
            trial = x - t * direction
            try:
                trial_ev = obj.evaluate(trial)
            except CollisionError:
                trial_ev = None
            if trial_ev is not None and trial_ev.value <= f - _ARMIJO * t * slope + noise:
                accepted = True
                break
            t *= _BACKTRACK
        if not accepted:
            abort = "no feasible descent step above the minimum step size"
            break
        # the step grows only on a decrease that f resolves: the Armijo term
        # itself can sit below the noise while the actual decrease does not
        measurable = f - trial_ev.value > noise
        x, ev = trial, trial_ev
        f, g = ev.value, ev.gradient()
        new_rms = obj.rms(x)
        growth_streak = growth_streak + 1 if new_rms >= rms * (1.0 - 1e-9) else 0
        rms = new_rms
        if measurable:
            t = min(t * 2.0, _MAX_STEP)
        elif _norm(g) > gnorm:
            # noise-floor regime: an overshooting step is invisible to the
            # Armijo test, so stabilise on the gradient norm instead
            t *= _BACKTRACK
    else:
        abort = "iteration budget exhausted"
        it = cfg.max_iters
    return _DescentOutcome(x, ev, it, converged, escaped, abort, history)


# ---------------------------------------------------------------------------
# public entry points


def init_circle(
    params: SystemParams,
    winding: int,
    radius: float,
    noise: float = 0.0,
    seed: int = 0,
    cutoff: int = 8,
) -> FourierLoop:
    """Planar circle of the given winding plus seeded uniform coefficient
    noise on harmonics <= cutoff.

    At zero noise the winding must be coprime with n, otherwise two bodies
    coincide along the whole orbit; with noise the degeneracy is lifted and
    any winding not divisible by n is accepted.
    """
    m = int(winding)
    if m % params.n == 0:
        raise ValueError(f"winding {m} is divisible by n={params.n}: all bodies collide")
    g = math.gcd(abs(m), params.n)
    if noise == 0.0 and g != 1:
        raise ValueError(
            f"winding {m} shares factor {g} with n={params.n}: bodies collide "
            "pairwise at zero noise"
        )
    K = max(cutoff, abs(m))
    check_discretisation(K, None)
    loop = FourierLoop.circle(radius, m, dim=params.d, cutoff=K)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        cos = loop.cos_coeffs + rng.uniform(-noise, noise, size=(K, params.d))
        sin = loop.sin_coeffs + rng.uniform(-noise, noise, size=(K, params.d))
        loop = FourierLoop(loop.mean, cos, sin)
    return loop


def _minimize(obj: Objective, x0: np.ndarray, cfg: DescentConfig) -> MinimizeResult:
    out = descend(obj, x0, cfg)
    clusters = None
    if obj.params is not None:
        clusters = detect_clusters(obj.unpack(out.vec), obj.params, obj.grid_size)
    return MinimizeResult.at(
        obj,
        out.vec,
        out.ev,
        converged=out.converged,
        iters=out.iters,
        collision_rejects=obj.counts.collisions,
        clusters=clusters,
        escaped_to_infinity=out.escaped,
        abort_reason=out.abort_reason,
        history=tuple(out.history),
    )


def minimize(
    params: SystemParams, init: FourierLoop, cfg: DescentConfig
) -> MinimizeResult:
    """Descend the (rotating-frame) choreography action from ``init``.

    The action sequence is nonincreasing by construction; termination is by
    gradient tolerance, escape detection, step starvation or the iteration
    budget.  The symmetry projection, when a group is configured, is a
    coordinate mask, so masking the gradient keeps every iterate inside the
    constraint subspace (projected gradient descent).
    """
    obj = Objective(
        params,
        cutoff=max(cfg.cutoff, init.cutoff),
        grid_size=cfg.grid_size,
        symmetry=cfg.symmetry,
        pin_mean=cfg.pin_mean,
    )
    x0 = obj.pack(init if cfg.symmetry is None else project_symmetry(init, cfg.symmetry))
    return _minimize(obj, x0, cfg)


def kepler_minimize(
    alpha: float, init: FourierLoop, cfg: DescentConfig
) -> MinimizeResult:
    """Descend the two-body functional (zero mean pinned throughout)."""
    obj = Objective(
        None,
        cutoff=max(cfg.cutoff, init.cutoff),
        grid_size=cfg.grid_size,
        alpha=alpha,
        dim=init.dim,
    )
    return _minimize(obj, obj.pack(init), cfg)


# ---------------------------------------------------------------------------
# clusters


_GAP_THRESHOLD = 2.0


def detect_clusters(
    loop: FourierLoop, params: SystemParams, grid_size: int | None = None
) -> ClusterReport:
    """Group bodies by time-averaged pairwise distance.

    Sorts the n-1 lag-averaged distances and splits at the largest
    consecutive ratio when it exceeds the circle-safe threshold 2.  The
    intra-cluster lags must then be exactly the multiples of some divisor j
    of n; otherwise the split is rejected and a single cluster reported.
    """
    n = params.n
    M = resolve_grid_size(loop.cutoff, n, grid_size)
    diff = lag_differences(loop.sample(M), n)
    profile = np.mean(np.sqrt(np.sum(diff**2, axis=2)), axis=1)

    order = np.argsort(profile)
    vals = profile[order]
    split_at = 0
    best_ratio = 0.0
    for i in range(len(vals) - 1):
        lo = max(vals[i], 1e-300)
        ratio = vals[i + 1] / lo
        if ratio > best_ratio:
            best_ratio = ratio
            split_at = i + 1

    def single() -> ClusterReport:
        return ClusterReport(
            count=1,
            size=n,
            assignment=tuple([0] * n),
            intra_lags=(),
            drift=(float(np.linalg.norm(loop.mean)),),
            lag_profile=tuple(profile.tolist()),
            matches_arithmetic_rule=True,
        )

    if best_ratio <= _GAP_THRESHOLD:
        return single()

    intra = sorted(int(order[i]) + 1 for i in range(split_at))
    j = math.gcd(n, math.gcd(*intra) if intra else n)
    expected = set(range(j, n, j))
    if j <= 1 or j >= n or set(intra) != expected:
        return single()

    k_tilde = n // j
    assignment = tuple(i % j for i in range(n))
    bodies = [loop.shift(i * params.tau).sample(M) for i in range(n)]
    drift = []
    for c in range(j):
        members = [bodies[i] for i in range(n) if i % j == c]
        centroid = np.mean(members, axis=0) - loop.mean
        drift.append(math.sqrt(float(np.mean(np.sum(centroid**2, axis=1)))))
    return ClusterReport(
        count=j,
        size=k_tilde,
        assignment=assignment,
        intra_lags=tuple(intra),
        drift=tuple(drift),
        lag_profile=tuple(profile.tolist()),
        matches_arithmetic_rule=True,
    )


# ---------------------------------------------------------------------------
# multistart


@dataclass(frozen=True)
class StartSpec:
    """One seeded circle start; radius None picks the restricted optimum."""

    winding: int
    radius: float | None = None
    noise: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class MultistartResult:
    best: MinimizeResult
    results: tuple[MinimizeResult, ...]
    starts: tuple


def _resolve_start(params: SystemParams, cfg: DescentConfig, spec) -> FourierLoop:
    if isinstance(spec, FourierLoop):
        return spec
    radius = spec.radius
    if radius is None:
        try:
            radius = circle_radius_for_winding(
                params.n, params.alpha, params.omega, spec.winding
            )
        except ValueError:
            radius = 1.0
    return init_circle(
        params, spec.winding, radius, noise=spec.noise, seed=spec.seed, cutoff=cfg.cutoff
    )


def multistart(
    params: SystemParams,
    cfg: DescentConfig,
    starts: Sequence[StartSpec | FourierLoop],
) -> MultistartResult:
    """Run minimize() on each start in turn and return the argmin by action.

    Each result is exactly what a separate minimize() call on the same start
    returns; ties are broken by start index.  The full table is kept for
    reporting.
    """
    if not starts:
        raise ValueError("need at least one start")
    results = [minimize(params, _resolve_start(params, cfg, spec), cfg) for spec in starts]
    ordered = sorted(
        range(len(results)), key=lambda i: (results[i].action.total, i)
    )
    best = results[ordered[0]]
    return MultistartResult(best=best, results=tuple(results), starts=tuple(starts))
