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
once per objective.  Armijo backtracking uses the slope g^T P^-1 g.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .action import (
    ActionValue,
    CollisionError,
    DEFAULT_GUARD,
    Evaluation,
    KernelCounts,
    action_kernel,
    force_residual,
    potential_kernel,
    single,
    velocity_map,
)
from .loops import (
    FourierLoop,
    LoopDiagnostics,
    SymmetryGroup,
    SystemParams,
    check_discretisation,
    diagnostics as loop_diagnostics,
    lag_differences,
    pack_coefficients,
    project_symmetry,
    resolve_grid_size,
    sample_basis,
    unpack_coefficients,
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


@dataclass(frozen=True)
class MinimizeResult:
    loop: FourierLoop
    action: ActionValue
    grad_norm: float
    newton_residual: float
    iters: int
    # evaluations of the descent: value stages (the start and every trial),
    # completed gradients, and trials rejected by the collision guard
    value_evals: int
    grad_evals: int
    collision_rejects: int
    diagnostics: LoopDiagnostics
    clusters: ClusterReport | None
    converged: bool
    escaped_to_infinity: bool
    abort_reason: str | None = None
    history: tuple[tuple[int, float, float, float], ...] = ()

    def as_dict(self) -> dict:
        return {
            "action": self.action.as_dict(),
            "grad_norm": self.grad_norm,
            "newton_residual": self.newton_residual,
            "iters": self.iters,
            "value_evals": self.value_evals,
            "grad_evals": self.grad_evals,
            "collision_rejects": self.collision_rejects,
            "diagnostics": self.diagnostics.as_dict(),
            "clusters": self.clusters.as_dict() if self.clusters else None,
            "converged": self.converged,
            "escaped_to_infinity": self.escaped_to_infinity,
            "abort_reason": self.abort_reason,
        }


# ---------------------------------------------------------------------------
# packed objective


class Objective:
    """Discretised action and gradient over packed coefficient vectors.

    ``params=None`` selects the Kepler functional (one body around a fixed
    center, zero mean pinned); otherwise the rotating-frame choreography
    action at params.omega (the inertial one when omega = 0).  The choice is
    made once here: both evaluate through :func:`action.action_kernel`.
    :meth:`evaluate` returns the value stage; its ``gradient()`` completes
    the masked gradient, and ``value`` / ``value_and_grad`` wrap it.
    :meth:`evaluate_batch` evaluates the rows of a stack in one kernel call.
    ``counts`` (:class:`action.KernelCounts`) holds the kernel calls, value
    stages and force stages made so far; deterministic for a given run.
    """

    def __init__(
        self,
        params: SystemParams | None,
        cutoff: int,
        grid_size: int | None = None,
        symmetry: SymmetryGroup | None = None,
        pin_mean: bool = False,
        alpha: float | None = None,
        dim: int | None = None,
    ):
        self.params = params
        self.cutoff = int(cutoff)
        if params is None:
            if alpha is None or dim is None:
                raise ValueError("Kepler objective needs alpha and dim")
            self.alpha = float(alpha)
            self.dim = int(dim)
            self.n = 2
            self.omega = 0.0
            pin_mean = True
            self._potential = potential_kernel(None, self.alpha, DEFAULT_GUARD)
        else:
            self.alpha = params.alpha
            self.dim = params.d
            self.n = params.n
            self.omega = params.omega
            self._potential = potential_kernel(params.n, params.alpha, DEFAULT_GUARD)
        self.counts = KernelCounts()  # the kernel's work so far
        self.grid_size = resolve_grid_size(self.cutoff, self.n, grid_size)
        self.symmetry = symmetry
        self.pin_mean = pin_mean
        self._basis = sample_basis(self.cutoff, self.grid_size)
        self.mask = self._build_mask()
        # rms^2 = |mean|^2 + (|cos|^2 + |sin|^2) / 2 as one weighted dot product
        self._rms_weights = np.full(self.mask.size, 0.5)
        self._rms_weights[: self.dim] = 1.0
        self._metric = None  # factored on the first metric_direction call

    def _build_mask(self) -> np.ndarray:
        d, K = self.dim, self.cutoff
        if self.symmetry is not None:
            if self.symmetry.dim != d:
                raise ValueError(
                    f"symmetry group needs dimension {self.symmetry.dim}, run has {d}"
                )
            mmask, cmask, smask = self.symmetry.masks(K)
        else:
            mmask = np.ones(d, dtype=bool)
            cmask = np.ones((K, d), dtype=bool)
            smask = np.ones((K, d), dtype=bool)
        if self.pin_mean:
            mmask = np.zeros(d, dtype=bool)
        return np.concatenate([mmask, cmask.ravel(), smask.ravel()])

    # -- packing ------------------------------------------------------------

    def pack(self, loop: FourierLoop) -> np.ndarray:
        if loop.dim != self.dim:
            raise ValueError("loop dimension does not match the objective")
        vec = pack_coefficients(loop.padded(self.cutoff))
        return np.where(self.mask, vec, 0.0)

    def unpack(self, vec: np.ndarray) -> FourierLoop:
        return unpack_coefficients(vec, self.dim, self.cutoff)

    # -- evaluation ---------------------------------------------------------

    def _kernel(self, vecs: np.ndarray) -> list:
        X = self._basis @ vecs.reshape(vecs.shape[:-1] + (-1, self.dim))
        return action_kernel(vecs, X, self.omega, self._potential, self.counts, self.mask)

    def evaluate(self, vec: np.ndarray) -> Evaluation:
        """Value stage at ``vec``; ``.gradient()`` gives the masked gradient.
        Raises :class:`CollisionError` where the guard trips."""
        return single(self._kernel(vec))

    def evaluate_batch(self, vecs: np.ndarray) -> list[Evaluation | None]:
        """Value stages of the rows of a (P, N) stack in one kernel call:
        each row's evaluation, equal to :meth:`evaluate` of that row bit for
        bit, or None where the row trips the collision guard."""
        entries = self._kernel(vecs)
        return [None if isinstance(ev, CollisionError) else ev for ev in entries]

    def value(self, vec: np.ndarray) -> float:
        return self.evaluate(vec).value

    def value_and_grad(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        ev = self.evaluate(vec)
        return ev.value, ev.gradient()

    def rms(self, vec: np.ndarray) -> float:
        return math.sqrt(float(self._rms_weights @ (vec * vec)))

    def residual(self, vec: np.ndarray, ev: Evaluation) -> float:
        """Newton residual of the loop ``vec``, whose evaluation is ``ev``:
        its samples and force array are reused, see
        :func:`action.force_residual`."""
        return force_residual(self.unpack(vec), self.omega, ev)

    # -- the H^1 metric -----------------------------------------------------

    def metric_direction(self, g: np.ndarray) -> tuple[np.ndarray, float]:
        """(P^-1 g, g^T P^-1 g) for the kinetic metric P = L^T diag(w) L + I.

        L, w are :func:`action.velocity_map`, so x^T P x is the kinetic
        quadratic form plus the squared coefficient norm: the H^1 inner
        product of the rotating-frame loop.  P is restricted to the mask
        coordinates, so the direction is zero wherever the mask is, and
        factored (Cholesky, P = C C^T) once, on the first call.
        """
        if self._metric is None:
            idx = np.flatnonzero(self.mask)
            L, w = velocity_map(self.dim, self.cutoff, self.omega)
            Lm = L[:, idx]
            P = Lm.T @ (w[:, None] * Lm) + np.eye(idx.size)
            self._metric = idx, np.linalg.inv(np.linalg.cholesky(P))
        idx, C_inv = self._metric
        z = C_inv @ g[idx]
        direction = np.zeros(g.shape)
        direction[idx] = C_inv.T @ z
        return direction, float(z @ z)


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


def _norm(v: np.ndarray) -> float:
    """sqrt(v . v), what np.linalg.norm computes for a vector, bit for bit,
    without its argument handling (a descent step takes one or two)."""
    return math.sqrt(float(v @ v))


@dataclass
class _DescentOutcome:
    vec: np.ndarray
    ev: Evaluation  # of ``vec``
    grad_norm: float
    iters: int
    converged: bool
    escaped: bool
    abort_reason: str | None
    history: list
    value_evals: int
    grad_evals: int
    collision_rejects: int


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
    evaluated again, and its stage still counts in ``value_evals``.
    """
    x = np.where(obj.mask, x0, 0.0)
    if ev is None:
        ev = obj.evaluate(x)
    f, g = ev.value, ev.gradient()
    value_evals, grad_evals, rejects = 1, 1, 0
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
            value_evals += 1
            try:
                trial_ev = obj.evaluate(trial)
            except CollisionError:
                rejects += 1
            else:
                if trial_ev.value <= f - _ARMIJO * t * slope + noise:
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
        grad_evals += 1
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
    gnorm = _norm(g)
    return _DescentOutcome(
        vec=x,
        ev=ev,
        grad_norm=gnorm,
        iters=it,
        converged=converged,
        escaped=escaped,
        abort_reason=abort,
        history=history,
        value_evals=value_evals,
        grad_evals=grad_evals,
        collision_rejects=rejects,
    )


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


def _finish(obj: Objective, out: _DescentOutcome) -> MinimizeResult:
    loop = obj.unpack(out.vec)
    act = ActionValue(out.ev.kinetic, out.ev.potential, obj.grid_size)
    if obj.params is not None:
        diag = loop_diagnostics(loop, obj.params, obj.grid_size)
        clusters = detect_clusters(loop, obj.params, obj.grid_size)
    else:
        kepler_params = SystemParams(n=2, d=obj.dim, alpha=obj.alpha)
        diag = loop_diagnostics(loop, kepler_params, obj.grid_size)
        clusters = None
    return MinimizeResult(
        loop=loop,
        action=act,
        grad_norm=out.grad_norm,
        newton_residual=obj.residual(out.vec, out.ev),
        iters=out.iters,
        diagnostics=diag,
        clusters=clusters,
        converged=out.converged,
        escaped_to_infinity=out.escaped,
        abort_reason=out.abort_reason,
        history=tuple(out.history),
        value_evals=out.value_evals,
        grad_evals=out.grad_evals,
        collision_rejects=out.collision_rejects,
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
    return _finish(obj, descend(obj, x0, cfg))


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
    return _finish(obj, descend(obj, obj.pack(init), cfg))


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
