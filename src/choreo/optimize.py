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

No momentum: the selected minimizer should be the one reached by the H^1
descent flow from the given start.  That flow is not the Euclidean one, and
from some starts of the non-rigid (6, 1, 1.8) case it reaches another
non-rigid state.  A metric step can be long, so its displacement is capped
at 5% of max(1, rms) of the loop; without the cap, starts of that case jump
into other basins than the flow reaches.  The cap scales with the loop, so
a minimizing sequence that escapes to infinity grows geometrically and
reaches the escape threshold in a bounded number of iterations.
Convergence is still judged on the Euclidean norm of the coefficient
gradient.

The metric step converges linearly, so the descent finishes with a guarded
Newton step on the exact Hessian (:meth:`action.Evaluation.hessian`; Simó's
Newton iteration on Fourier coefficients, safeguarded as in Nocedal &
Wright, ch. 4).  It is tried at iterations 8, 16, 32, ... where the metric
step is within its cap, after every accepted Newton step, and at the first
uncapped iteration whose gradient norm is at most half that of a try
refused at its evaluated trial (it collided, failed the Armijo test or did
not halve the gradient).  A capped metric step means the flow is still far
from its minimizer, and the Newton step must pass the same cap.  The metric
step halves the gradient in tens of iterations, so a refused trial is
retried then instead of at the next power of two: the gate-8 n = 12 run
from seed 0 converges in 298 iterations instead of 513.  A try refused by
its spectral guards (negative curvature, nothing to invert, a gradient too
large for the quadratic regime) or by the cap evaluates no trial and arms
no retry: a smaller gradient does not make the Hessian a basin's, and such
runs, the mountain-pass basin probes among them, keep the power-of-two
schedule.  The step inverts the Hessian on its
eigenvectors with eigenvalues above tau = max(1e-6 max|lam|, |g|), so zero
modes and directions flatter than the gradient are left alone.  It is taken
only where no eigenvalue lies below -tau, the gradient is at most half the
smallest eigenvalue it inverts, its displacement is within the metric
step's cap, it passes the Armijo test and it at least halves the gradient
norm; otherwise the iteration takes the metric step.  The half-eigenvalue
test keeps the step to the quadratic regime, where the flow and the Newton
iteration reach the same minimizer: without it, seed 13 of the 30
(6, 1, 1.8) K=12 starts (seeds 0-29) takes a Newton step at gradient 8.5,
where four soft modes are left out, and ends at the 10.746 state instead of
the 6.793 one that the flow reaches.  The contraction test keeps an
escaping run escaping: without it both escape runs of the benchmark settle
and never leave.

Every result reports the Morse index of its final point and the number of
zero modes, from the eigenvalues of the exact Hessian on the free
coordinates (:meth:`SearchResult.at`).

Lockstep: :func:`descend` takes a stack of starts that share one objective;
a single start is the one-row stack.  Each start's iteration is the
coroutine :func:`_descent`, which yields its trial vectors and keeps its
own step length, cap, Newton flag, escape streak, history and counts.
Only the trials are stacked: ``descend`` evaluates the trials of all
waiting starts in one kernel call per backtracking round instead of S, and
each start completes the point of a trial it accepts on its own (gradient,
metric direction, norms, rms), as a descent alone does; the last start left
evaluates its trials one call each.  A row of a stacked call evaluates bit
for bit as it does alone, so every start ends where its own descent would.
:func:`multistart` runs its starts this way and reports the lowest one.

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .action import ActionValue, CollisionError, Evaluation, KernelCounts, Objective
from .loops import (
    FourierLoop,
    LoopDiagnostics,
    SymmetryGroup,
    SystemParams,
    body_samples,
    check_count,
    check_discretisation,
    diagnostics as loop_diagnostics,
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
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        check_count("max_iters", self.max_iters, 1)
        check_count("log_every", self.log_every, 0)
        # the escape threshold is escape_factor times max(1, initial rms): at
        # or below the start's own size it cannot signal a divergence
        if not (math.isfinite(self.escape_factor) and self.escape_factor > 1):
            raise ValueError(
                f"escape_factor must be finite and greater than 1, got {self.escape_factor}"
            )


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

    ``value_evals`` and ``grad_evals`` are the search's value stages
    (collisions included) and completed gradients: all of its objective's,
    or, for a start of a lockstep stack, that start's own.
    ``morse_index`` and ``zero_modes`` count the eigenvalues of the exact
    Hessian (on the free coordinates) below -``zero_threshold`` and within
    it; the threshold is 1e-6 of the largest |eigenvalue|.  Time shifts
    are symmetries of the grid action only in steps of 2 pi / M, so the
    zero modes are counted by the threshold, not assumed.
    """

    loop: FourierLoop
    action: ActionValue
    grad_norm: float
    newton_residual: float
    converged: bool
    diagnostics: LoopDiagnostics
    value_evals: int
    grad_evals: int
    morse_index: int
    zero_modes: int
    zero_threshold: float

    @classmethod
    def at(
        cls,
        obj: Objective,
        vec: np.ndarray,
        ev: Evaluation,
        counts: KernelCounts | None = None,
        **fields,
    ):
        """The record of a search on ``obj`` that ends at ``vec``, whose
        evaluation is ``ev``; ``counts`` is the search's work, by default
        all of ``obj``'s, and ``fields`` are ``converged`` and the
        subclass's own.  The diagnostics read ``ev``'s samples and
        separation (a Kepler record's is the distance of the body to the
        center); the index and zero modes read its Hessian."""
        counts = obj.counts if counts is None else counts
        loop = obj.unpack(vec)
        evals = np.linalg.eigvalsh(ev.hessian())
        zero = _ZERO_MODE * float(np.max(np.abs(evals)))
        return cls(
            loop=loop,
            action=ActionValue(ev.kinetic, ev.potential, obj.grid_size),
            grad_norm=_norm(ev.gradient()),
            newton_residual=obj.residual(vec, ev),
            diagnostics=loop_diagnostics(ev.samples, loop.mean, ev.separation),
            value_evals=counts.value_evals,
            grad_evals=counts.grad_evals,
            morse_index=int(np.count_nonzero(evals < -zero)),
            zero_modes=int(np.count_nonzero(np.abs(evals) <= zero)),
            zero_threshold=zero,
            **fields,
        )

    def as_dict(self) -> dict:
        return {
            "action": self.action.as_dict(),
            "grad_norm": self.grad_norm,
            "newton_residual": self.newton_residual,
            "converged": self.converged,
            "value_evals": self.value_evals,
            "grad_evals": self.grad_evals,
            "morse_index": self.morse_index,
            "zero_modes": self.zero_modes,
            "zero_threshold": self.zero_threshold,
        }


@dataclass(frozen=True)
class MinimizeResult(SearchResult):
    iters: int
    newton_steps: int  # iterations that took the guarded Newton step
    newton_attempts: int  # Newton tries, taken or refused: a Hessian and an eigh each
    collision_rejects: int  # trials rejected by the collision guard
    clusters: ClusterReport | None
    escaped_to_infinity: bool
    abort_reason: str | None = None
    history: tuple[tuple[int, float, float, float], ...] = ()

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "iters": self.iters,
            "newton_steps": self.newton_steps,
            "newton_attempts": self.newton_attempts,
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
# a Newton step is tried at iterations 8, 16, 32, ... where the metric step
# is not capped, after every accepted one, and where it is not capped and
# the gradient norm has fallen to this fraction of that of a try refused at
# its evaluated trial (a spectral or cap refusal evaluates none and arms no
# retry); the gradient must be at most this fraction of the smallest
# eigenvalue it inverts, and the step must reduce the gradient norm by it
_NEWTON_FIRST = 8
_NEWTON_CONTRACTION = 0.5
# an eigenvalue of the Hessian is zero within this fraction of the largest
_ZERO_MODE = 1e-6


@dataclass
class _DescentOutcome:
    vec: np.ndarray
    ev: Evaluation | None  # of ``vec``; None once multistart releases it
    iters: int
    newton_steps: int
    newton_attempts: int
    converged: bool
    escaped: bool
    abort_reason: str | None
    history: list
    # this start's own work: its value stages (collisions included), its
    # completed gradients and its collisions, its start's among them
    counts: KernelCounts


def _point(obj: Objective, ev: Evaluation, vec: np.ndarray, tol: float):
    """What the descent reads at the accepted point ``vec``, whose
    evaluation is ``ev``: the gradient g, its norm, the rms of the vector,
    the metric direction P^-1 g, its slope g^T P^-1 g and its rms; a point
    whose gradient norm is below the tolerance ``tol`` gets no direction.
    A row of a stacked kernel call is first copied out of the call's
    arrays, so that the kept evaluation holds one row of arrays."""
    if ev._row:
        ev._detach()
    g = ev.gradient()
    gnorm = _norm(g)
    if gnorm < tol:  # converged: the descent reads no direction
        return g, gnorm, obj.rms(vec), None, None, None
    direction, slope = obj.metric_direction(g)
    return g, gnorm, obj.rms(vec), direction, slope, obj.rms(direction)


def _newton(
    obj: Objective,
    x: np.ndarray,
    ev: Evaluation,
    g: np.ndarray,
    gnorm: float,
    cap: float,
    noise: float,
    tol: float,
    counts: KernelCounts,
):
    """The guarded Newton iterate from ``x`` (evaluation ``ev``, gradient
    ``g`` of norm ``gnorm``) as (vector, evaluation, point), or None where
    a guard refuses it; a coroutine of :func:`_descent` that yields the
    trial and is sent its evaluation, and completes an accepted trial's
    point (:func:`_point`, at the descent's gradient tolerance ``tol``).

    The step is -sum (v^T g / lam) v over the eigenpairs of the Hessian on
    the free coordinates with lam > tau = max(1e-6 max|lam|, |g|): zero
    modes and directions flatter than the gradient are left to the metric
    step.  It is refused when an eigenvalue lies below -tau (not a basin),
    when the gradient norm exceeds half the smallest lam it inverts (not
    yet the quadratic regime), when its rms exceeds ``cap``, when the
    iterate collides or fails the Armijo test (with the descent's ``noise``
    slack), or when it does not halve the gradient norm.
    """
    evals, evecs = ev.spectrum()
    tau = max(_ZERO_MODE * float(np.max(np.abs(evals))), gnorm)
    keep = evals > tau
    if evals[0] < -tau or not keep.any() or gnorm > _NEWTON_CONTRACTION * evals[keep][0]:
        return None
    v = evecs[:, keep]
    step = np.zeros(x.shape)
    step[obj.free] = -(v @ ((v.T @ g[obj.free]) / evals[keep]))
    if obj.rms(step) > cap:
        return None
    trial = x + step
    trial_ev = yield trial
    counts.value_evals += 1
    if trial_ev is None:
        counts.collisions += 1
        return None
    if trial_ev.value > ev.value + _ARMIJO * float(g @ step) + noise:
        return None
    point = _point(obj, trial_ev, trial, tol)
    counts.grad_evals += 1
    if point[1] > _NEWTON_CONTRACTION * gnorm:
        return None
    return trial, trial_ev, point


def _descent(obj: Objective, x: np.ndarray, ev: Evaluation, cfg: DescentConfig):
    """The descent of one start, from ``x`` with its evaluation, as a
    coroutine: it yields each trial vector, is sent the trial's evaluation
    (None where it collides), completes each accepted point itself
    (:func:`_point`) and returns its :class:`_DescentOutcome`.
    :func:`descend` describes the iteration."""
    g, gnorm, rms, direction, slope, length = _point(obj, ev, x, cfg.grad_tol)
    f = ev.value
    t = _INITIAL_STEP
    escape_at = cfg.escape_factor * max(1.0, rms)
    growth_streak = 0
    history: list = []
    abort = None
    converged = escaped = newton = False
    newton_steps = newton_attempts = 0
    retry_at = 0.0  # gradient norm of a pending Newton retry; 0 is none
    counts = KernelCounts(value_evals=1, grad_evals=1)
    it = 0
    for it in range(1, cfg.max_iters + 1):
        converged = gnorm < cfg.grad_tol
        if not converged:  # g != 0, so the direction is too
            cap = _STEP_CAP * max(1.0, rms)
            reach = cap / length
            capped = reach < t
            t = min(t, reach)
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
        if newton or (
            not capped
            and (gnorm <= retry_at or (it >= _NEWTON_FIRST and it & (it - 1) == 0))
        ):
            newton_attempts += 1
            evaluated = counts.value_evals
            iterate = yield from _newton(obj, x, ev, g, gnorm, cap, noise, cfg.grad_tol, counts)
            newton = iterate is not None
            # only a refusal at an evaluated trial arms a retry
            refused_trial = not newton and counts.value_evals > evaluated
            retry_at = _NEWTON_CONTRACTION * gnorm if refused_trial else 0.0
        if newton:
            newton_steps += 1
            x, ev, (g, gnorm, new_rms, direction, slope, length) = iterate
            f = ev.value
        else:
            while t >= _MIN_STEP:
                trial = x - t * direction
                trial_ev = yield trial
                counts.value_evals += 1
                if trial_ev is None:
                    counts.collisions += 1
                elif trial_ev.value <= f - _ARMIJO * t * slope + noise:
                    break
                t *= _BACKTRACK
            else:
                abort = "no feasible descent step above the minimum step size"
                break
            point = _point(obj, trial_ev, trial, cfg.grad_tol)
            g, trial_gnorm, new_rms, direction, slope, length = point
            counts.grad_evals += 1
            # the step grows only on a decrease that f resolves: the Armijo
            # term itself can sit below the noise while the actual decrease
            # does not
            measurable = f - trial_ev.value > noise
            x, ev, f = trial, trial_ev, trial_ev.value
            if measurable:
                t = min(t * 2.0, _MAX_STEP)
            elif trial_gnorm > gnorm:
                # noise-floor regime: an overshooting step is invisible to
                # the Armijo test, so stabilise on the gradient norm instead
                t *= _BACKTRACK
            gnorm = trial_gnorm
        growth_streak = growth_streak + 1 if new_rms >= rms * (1.0 - 1e-9) else 0
        rms = new_rms
    else:
        abort = "iteration budget exhausted"
        it = cfg.max_iters
    return _DescentOutcome(
        x, ev, it, newton_steps, newton_attempts, converged, escaped, abort, history, counts
    )


def descend(
    obj: Objective,
    x0: np.ndarray,
    cfg: DescentConfig,
    evs: list[Evaluation] | None = None,
) -> list[_DescentOutcome]:
    """Armijo-backtracked descent along -P^-1 g in the kinetic metric, with
    a guarded Newton finish, from each row of the stack ``x0`` (S, N) in
    lockstep; one start is the one-row stack.

    The step length t multiplies P^-1 g.  Each iteration first caps it so
    that the displacement's rms is at most 5% of max(1, rms) of the loop,
    and logs it (the ``step`` column of ``iterations.csv`` is this first
    trial step, not a step along -g, also on a Newton iteration); it
    doubles, up to 1, after a metric step whose actual decrease
    f - f_trial exceeds the float resolution of f.  Convergence is the
    Euclidean gradient norm below ``grad_tol``.

    At iterations 8, 16, 32, ... where the metric step is not capped, after
    every accepted Newton step, and at the first uncapped iteration whose
    gradient norm is at most half that of a try refused at its evaluated
    trial (a collision, the Armijo or the contraction test), the iteration
    first tries the guarded Newton step of :func:`_newton`, under the same
    displacement cap; a refused one leaves the iteration to the metric
    step.  Any try clears the pending retry.  A spectral refusal (negative
    curvature, nothing to invert, not yet quadratic) and a cap refusal
    evaluate no trial and arm no retry, so such runs keep the power-of-two
    schedule.  A Newton step is one iteration, with the same rms and escape
    bookkeeping; ``newton_attempts`` counts the tries, each an exact
    Hessian and its eigendecomposition.

    Escape is declared when the loop's rms norm exceeds ``escape_factor``
    times max(1, initial rms) after growing monotonically (to rounding) over
    the last 200 iterations; the action is strictly decreasing throughout
    by construction, which completes the non-attainment signature.

    Each trial is one value stage; the value and gradient at an accepted
    point are taken from its trial's evaluation, so a metric step completes
    one gradient and evaluates nothing twice.  ``evs`` are the evaluations
    of the masked rows of ``x0`` when the caller has them; otherwise the
    starts are evaluated one by one, and a colliding start raises its
    :class:`CollisionError`.

    Lockstep: each start's iteration is the coroutine :func:`_descent`, with
    its own step length, cap, Newton flag, escape streak, history, outcome
    and counts.  Only the trials are stacked: while two rows or more wait,
    every round evaluates the trial of each waiting row (the first trials
    of rows that finished an iteration beside the backtracking trials of
    rows that did not) in one :meth:`Objective.evaluate_batch` call, and
    each row completes the point of a trial it accepts on its own (force
    stage, pullback, norms, rms and metric direction, :func:`_point`),
    copying its row out of the call's arrays first: a row keeps one row's
    arrays, whatever call its trial came from, and a call's arrays go once
    its rejected trials do.  A row that converges, escapes or aborts leaves
    the stack; the last row left evaluates its trials through
    :meth:`Objective.evaluate`, so a one-row descent makes one-row kernel
    calls.  A row of a stacked call evaluates bit for bit as it does
    alone, so each row's outcome is the one its descent alone would reach.
    Returns one :class:`_DescentOutcome` per row.
    """
    X = np.where(obj.mask, x0, 0.0)
    if evs is None:
        evs = [obj.evaluate(x) for x in X]
    rows = [_descent(obj, x, ev, cfg) for x, ev in zip(X, evs)]
    outcomes: list = [None] * len(rows)
    trials = {}  # row -> the trial it waits on

    def resume(i: int, answer) -> None:
        try:
            trials[i] = rows[i].send(answer)
        except StopIteration as stop:
            trials.pop(i, None)
            outcomes[i] = stop.value

    for i in range(len(rows)):
        resume(i, None)
    while trials:
        if len(trials) > 1:
            answers = obj.evaluate_batch(np.array(list(trials.values())))
        else:  # the last row, alone
            (trial,) = trials.values()
            try:
                answers = [obj.evaluate(trial)]
            except CollisionError:
                answers = [None]
        for i, answer in zip(list(trials), answers):
            resume(i, answer)
    return outcomes


# ---------------------------------------------------------------------------
# public entry points


# Largest start noise relative to max(|radius|, 1): ten radii of noise on
# every coefficient already leaves no circle in the start, and a noise near
# the float range overflows the draw or the action.
MAX_RELATIVE_NOISE = 10.0

# Largest |radius| of a start circle: the action grows as R^2, and a radius
# near the float range overflows it and its Hessian.
MAX_RADIUS = 1e6


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
    any winding not divisible by n is accepted.  The radius must be finite
    with |radius| <= MAX_RADIUS, the noise finite, non-negative and at most
    MAX_RELATIVE_NOISE * max(|radius|, 1).
    """
    if not (math.isfinite(radius) and abs(radius) <= MAX_RADIUS):
        raise ValueError(f"radius must be finite with |radius| <= {MAX_RADIUS:g}, got {radius}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    cap = MAX_RELATIVE_NOISE * max(abs(radius), 1.0)
    if noise > cap:
        raise ValueError(
            f"noise {noise:g} exceeds {MAX_RELATIVE_NOISE:g} * max(|radius|, 1) = {cap:g}"
        )
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
    # the circle's coefficients, as FourierLoop.circle sets them, plus the
    # noise: one loop is built and validated
    cos = np.zeros((K, params.d))
    sin = np.zeros((K, params.d))
    cos[abs(m) - 1, 0] = radius
    sin[abs(m) - 1, 1] = math.copysign(radius, m)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        cos += rng.uniform(-noise, noise, size=(K, params.d))
        sin += rng.uniform(-noise, noise, size=(K, params.d))
    return FourierLoop(np.zeros(params.d), cos, sin)


def _result(obj: Objective, out: _DescentOutcome) -> MinimizeResult:
    """The :class:`MinimizeResult` of the descent outcome ``out`` on
    ``obj``, with the outcome's own counts: its Hessian, index, residual,
    diagnostics and clusters read ``out.ev``."""
    clusters = None
    if obj.params is not None:
        clusters = detect_clusters(out.ev.samples, out.vec[: obj.dim], out.ev.r2)
    return MinimizeResult.at(
        obj,
        out.vec,
        out.ev,
        out.counts,
        converged=out.converged,
        iters=out.iters,
        newton_steps=out.newton_steps,
        newton_attempts=out.newton_attempts,
        collision_rejects=out.counts.collisions,
        clusters=clusters,
        escaped_to_infinity=out.escaped,
        abort_reason=out.abort_reason,
        history=tuple(out.history),
    )


def _objective(params: SystemParams, cutoff: int, cfg: DescentConfig) -> Objective:
    """The objective of a descent whose start has the Fourier cutoff ``cutoff``."""
    return Objective(
        params,
        cutoff=max(cfg.cutoff, cutoff),
        grid_size=cfg.grid_size,
        symmetry=cfg.symmetry,
        pin_mean=cfg.pin_mean,
    )


def minimize(
    params: SystemParams, init: FourierLoop, cfg: DescentConfig
) -> MinimizeResult:
    """Descend the (rotating-frame) choreography action from ``init``.

    The action sequence is nonincreasing by construction; termination is by
    gradient tolerance, escape detection, step starvation or the iteration
    budget.  The symmetry projection, when a group is configured, is a
    coordinate mask: ``Objective.pack`` projects ``init`` onto the constraint
    subspace, and masking the gradient keeps every iterate inside it
    (projected gradient descent).
    """
    obj = _objective(params, init.cutoff, cfg)
    (out,) = descend(obj, obj.pack(init)[None], cfg)
    return _result(obj, out)


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
    (out,) = descend(obj, obj.pack(init)[None], cfg)
    return _result(obj, out)


# ---------------------------------------------------------------------------
# clusters


_GAP_THRESHOLD = 2.0


def detect_clusters(
    samples: np.ndarray, centroid: np.ndarray, r2: np.ndarray
) -> ClusterReport:
    """Group bodies by time-averaged pairwise distance, from a loop's grid
    samples (M, d), its centroid (the mean coefficient) and the squared
    distances r2 (n-1, M) of its lag differences: a search passes its final
    evaluation's arrays.

    Sorts the n-1 lag-averaged distances and splits at the largest
    consecutive ratio when it exceeds the circle-safe threshold 2.  The
    intra-cluster lags must then be exactly the multiples of some divisor j
    of n; otherwise the split is rejected and a single cluster reported.
    """
    n = r2.shape[0] + 1
    profile = np.mean(np.sqrt(r2), axis=1)

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
            drift=(float(np.linalg.norm(centroid)),),
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
    bodies = body_samples(samples, n)
    drift = []
    for c in range(j):
        members = [bodies[i] for i in range(n) if i % j == c]
        path = np.mean(members, axis=0) - centroid
        drift.append(math.sqrt(float(np.mean(np.sum(path**2, axis=1)))))
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
    """The lowest start's result, ``best``, and the starts as given.

    ``results`` is every start's result, in start order, each equal to its
    own minimize() call; ``results[i] is best`` for the winning start i.
    The table is built when first read, from each start's kept outcome: a
    start's final vector is evaluated once more (one row, equal to its
    stacked evaluation bit for bit), so no start keeps its kernel arrays
    until then."""

    best: MinimizeResult
    starts: tuple
    # (objective, outcome) per start, outcomes without their evaluation
    _outcomes: tuple = field(repr=False, compare=False)
    _best_index: int = field(repr=False, compare=False)

    @cached_property
    def results(self) -> tuple[MinimizeResult, ...]:
        return tuple(
            self.best
            if i == self._best_index
            else _result(obj, replace(out, ev=obj.evaluate(out.vec)))
            for i, (obj, out) in enumerate(self._outcomes)
        )


def _resolve_start(
    params: SystemParams, cfg: DescentConfig, spec, radii: dict
) -> FourierLoop:
    """The start loop of ``spec``; ``radii`` memoises the restricted optimum
    radius per winding across the starts of one multistart."""
    if isinstance(spec, FourierLoop):
        return spec
    radius = spec.radius
    if radius is None:
        if spec.winding not in radii:
            try:
                radii[spec.winding] = circle_radius_for_winding(
                    params.n, params.alpha, params.omega, spec.winding
                )
            except ValueError:
                radii[spec.winding] = 1.0
        radius = radii[spec.winding]
    return init_circle(
        params, spec.winding, radius, noise=spec.noise, seed=spec.seed, cutoff=cfg.cutoff
    )


# Largest number of starts one multistart takes: each is a full descent.
MAX_STARTS = 10_000

# Rows per lockstep stack.  The cost per row and iteration falls with the
# stack's size and has mostly levelled off by 16 rows: multistarts of 32
# starts at (4, 1, 0.5) K=8, (6, 1, 1.8) K=12 and (12, 1, 6.55) d=3 K=12
# took 95, 97 and 98 us per row and iteration one row at a time, 72, 67
# and 81 in stacks of 16 and 69, 60 and 78 in one stack of 32 (whole
# multistart calls, 2000 iterations at most a start, the least of three to
# five runs; 2-core host, BLAS on one thread).  A kernel call's lag arrays are also held to about
# _STACK_BYTES, so large grids run in smaller stacks; a row keeps only its
# own arrays past the round it was accepted in (descend).
_STACK_ROWS = 16
_STACK_BYTES = 1 << 24


def _stack_rows(obj: Objective) -> int:
    """Rows per lockstep stack on ``obj``: ``_STACK_ROWS``, fewer where
    the rows' lag differences, squared distances and their powers would
    exceed ``_STACK_BYTES``, at least one."""
    row = 8 * (obj.n - 1) * obj.grid_size * (obj.dim + 2)
    return max(1, min(_STACK_ROWS, _STACK_BYTES // row))


def multistart(
    params: SystemParams,
    cfg: DescentConfig,
    starts: Sequence[StartSpec | FourierLoop],
) -> MultistartResult:
    """Descend from every start in lockstep and return the argmin by action.

    The starts that share a Fourier cutoff share one objective, and go
    through :func:`descend` as stacks of at most ``_STACK_ROWS`` rows (fewer
    on large grids, :func:`_stack_rows`): each backtracking round is one
    kernel call for the trials of all of a stack's rows, and a row leaves
    the stack when it converges, escapes or aborts.

    The winner is the start of lowest final action, ties going to the lower
    start index, picked from the descents' outcomes; only its report (exact
    Hessian, index, residual, diagnostics, clusters) is built here.  Each
    result is bit for bit what a separate minimize() call on the same start
    returns, its counts included.  The full table, ``results``, is built
    when first read.  No start keeps its kernel arrays past its stack but
    the lowest so far.  At most ``MAX_STARTS`` starts are taken, checked
    before any is built.
    """
    if not starts:
        raise ValueError("need at least one start")
    if len(starts) > MAX_STARTS:
        raise ValueError(f"{len(starts)} starts exceed the cap of {MAX_STARTS}")
    radii: dict = {}
    loops = [_resolve_start(params, cfg, spec, radii) for spec in starts]
    by_cutoff: dict[int, list[int]] = {}
    for i, loop in enumerate(loops):
        by_cutoff.setdefault(max(cfg.cutoff, loop.cutoff), []).append(i)
    outcomes: list = [None] * len(loops)
    key = best = None  # the lowest (value, start index) so far and its row
    for cutoff, indices in by_cutoff.items():
        obj = _objective(params, cutoff, cfg)
        size = _stack_rows(obj)
        for lo in range(0, len(indices), size):
            chunk = indices[lo : lo + size]
            x0 = np.array([obj.pack(loops[i]) for i in chunk])
            for i, out in zip(chunk, descend(obj, x0, cfg)):
                outcomes[i] = (obj, out)
                if key is None or (out.ev.value, i) < key:
                    if best is not None:
                        best[1].ev = None
                    key, best = (out.ev.value, i), outcomes[i]
                else:
                    out.ev = None
    report = _result(*best)
    best[1].ev = None
    return MultistartResult(report, tuple(starts), tuple(outcomes), key[1])
