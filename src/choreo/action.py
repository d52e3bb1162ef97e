"""Action functionals, exact coefficient gradients, and the force residual.

Three functionals share one discretisation:

* Kepler:        A(q) = 1/2 int |q'|^2 + int dt/|q|^alpha, zero-mean q;
* choreography:  A(x) = 1/2 int |x'|^2
                       + 1/2 sum_{h=1}^{n-1} int dt / |x(t) - x(t+h tau)|^alpha;
* rotating:      same potential, kinetic 1/2 int |y' + J w P y|^2 plus the
                 plain 1/2 int |y'_perp|^2 on coordinates outside the
                 rotation plane.

Orientation convention: J is the counterclockwise quarter turn on the
rotation plane (the first two coordinates).  A rotating-frame circle
R e^{J m t} has kinetic energy pi R^2 (m + w)^2, so the slowly-moving
branch near an integer frame speed w ~ k is the winding m = -k.

Discretisation: all integrals use the uniform grid quadrature
(2 pi / M) sum_j f(t_j), which is exact for trigonometric polynomials below
the aliasing limit; in particular it is exact for the kinetic term whenever
M >= 2K + 1, so the closed-form kinetic expressions used here agree with the
grid quadrature to rounding.  The discretised action is the object that is
differentiated and optimised: gradients returned by this module are the
exact derivatives of the discretised functional, not of the continuum limit.

One evaluation path: every functional here, and the optimizer's
``Objective``, evaluates through :func:`action_kernel` -- the closed-form
kinetic term at the frame speed, plus a potential chosen once by
:func:`potential_kernel` (the Kepler term or the pair sum over lag
differences), plus the pullback of its grid force when a gradient is asked
for.  The Newton residual reuses the same force array.

Near-collisions are a hard error below the guard separation (no smoothing):
minimizers of interest are collisionless, and smoothing would corrupt the
certified values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .loops import (
    TWO_PI,
    FourierLoop,
    SystemParams,
    lag_differences,
    resolve_grid_size,
    trig_basis,
)

DEFAULT_GUARD = 1e-8


class CollisionError(RuntimeError):
    """Raised when two bodies come closer than the guard separation."""

    def __init__(self, separation: float, t: float, h: int | None = None):
        self.separation = separation
        self.t = t
        self.h = h
        where = f"t={t:.6f}" + (f", lag h={h}" if h is not None else "")
        super().__init__(f"near-collision: separation {separation:.3e} at {where}")


@dataclass(frozen=True)
class ActionValue:
    kinetic: float
    potential: float
    grid_size: int

    @property
    def total(self) -> float:
        return self.kinetic + self.potential

    def as_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "potential": self.potential,
            "total": self.total,
            "grid_size": self.grid_size,
        }


@dataclass(frozen=True)
class GradientVector:
    """Derivative of the discretised action w.r.t. every Fourier coefficient."""

    mean: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(self.mean @ self.mean)
            + float(np.sum(self.cos_coeffs**2))
            + float(np.sum(self.sin_coeffs**2))
        )


# ---------------------------------------------------------------------------
# raw-array kernels (shared with the optimizer)


def kinetic_value(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> float:
    """1/2 int |y' + J w P y|^2 (+ plain kinetic outside the plane).

    With w = 0 this reduces to the inertial 1/2 int |y'|^2 for all
    components.  Closed form in the coefficients:

        1/2 int |y'|^2          = (pi/2) sum_k k^2 (|a_k|^2 + |b_k|^2)
        w int y' . J y          = 2 pi w sum_k k (a_k x b_k)   (plane only)
        (w^2/2) int |y_P|^2     = pi w^2 (|a_0P|^2 + ...)      (plane only)

    where a x b is the 2-d cross product on the rotation plane.
    """
    K = cos.shape[0]
    k = np.arange(1, K + 1, dtype=float)
    k2 = k * k
    val = 0.5 * math.pi * float(k2 @ (np.sum(cos**2, axis=1) + np.sum(sin**2, axis=1)))
    if omega:
        ap, bp = cos[:, :2], sin[:, :2]
        cross = ap[:, 0] * bp[:, 1] - ap[:, 1] * bp[:, 0]
        val += TWO_PI * omega * float(k @ cross)
        plane_sq = float(np.sum(ap**2) + np.sum(bp**2))
        val += 0.5 * omega**2 * (
            TWO_PI * float(mean[0] ** 2 + mean[1] ** 2) + math.pi * plane_sq
        )
    return val


def kinetic_gradient(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient of :func:`kinetic_value` in (mean, cos, sin)."""
    K, d = cos.shape
    k = np.arange(1, K + 1, dtype=float)[:, None]
    g_cos = math.pi * k**2 * cos
    g_sin = math.pi * k**2 * sin
    g_mean = np.zeros(d)
    if omega:
        ap, bp = cos[:, :2], sin[:, :2]
        # d/da of 2 pi w k (a x b) is 2 pi w k (b2, -b1); d/db is (−a2, a1)
        g_cos[:, 0] += TWO_PI * omega * k[:, 0] * bp[:, 1] + math.pi * omega**2 * ap[:, 0]
        g_cos[:, 1] += -TWO_PI * omega * k[:, 0] * bp[:, 0] + math.pi * omega**2 * ap[:, 1]
        g_sin[:, 0] += -TWO_PI * omega * k[:, 0] * ap[:, 1] + math.pi * omega**2 * bp[:, 0]
        g_sin[:, 1] += TWO_PI * omega * k[:, 0] * ap[:, 0] + math.pi * omega**2 * bp[:, 1]
        g_mean[0] = TWO_PI * omega**2 * mean[0]
        g_mean[1] = TWO_PI * omega**2 * mean[1]
    return g_mean, g_cos, g_sin


def pair_potential(
    X: np.ndarray,
    n: int,
    alpha: float,
    guard: float,
    need_force: bool,
) -> tuple[float, np.ndarray | None]:
    """Discretised pair potential of a choreography sample array.

    Returns (value, dU/dX or None).  X has shape (M, d) with M a multiple
    of n; all lags are evaluated at once.  The force array is the exact
    derivative of the discretised value.
    """
    M = X.shape[0]
    diff = lag_differences(X, n)  # (n-1, M, d)
    r2 = np.einsum("hmd,hmd->hm", diff, diff)
    flat_min = int(np.argmin(r2))
    min_sep = math.sqrt(float(r2.flat[flat_min]))
    if min_sep < guard:
        h, j = divmod(flat_min, M)
        raise CollisionError(min_sep, j * TWO_PI / M, h + 1)
    value = (math.pi / M) * float(np.sum(r2 ** (-alpha / 2.0)))
    force = None
    if need_force:
        w = r2 ** (-(alpha + 2.0) / 2.0)
        force = -(TWO_PI * alpha / M) * np.einsum("hm,hmd->md", w, diff)
    return value, force


def single_potential(
    X: np.ndarray, alpha: float, guard: float, need_force: bool
) -> tuple[float, np.ndarray | None]:
    """Kepler potential int dt/|q|^alpha on the grid, with derivative."""
    M = X.shape[0]
    r2 = np.sum(X**2, axis=1)
    jmin = int(np.argmin(r2))
    sep = math.sqrt(float(r2[jmin]))
    if sep < guard:
        raise CollisionError(sep, jmin * TWO_PI / M, None)
    value = (TWO_PI / M) * float(np.sum(r2 ** (-alpha / 2.0)))
    force = None
    if need_force:
        force = -(TWO_PI * alpha / M) * (r2 ** (-(alpha + 2.0) / 2.0))[:, None] * X
    return value, force


def pullback_to_coefficients(
    force: np.ndarray, cutoff: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain rule from dU/dX on the grid to (mean, cos, sin) derivatives."""
    M = force.shape[0]
    _, C, S = trig_basis(cutoff, M)
    return force.sum(axis=0), C.T @ force, S.T @ force


# ---------------------------------------------------------------------------
# the evaluation kernel


def potential_kernel(n: int | None, alpha: float, guard: float):
    """The potential as a callable (X, need_force) -> (value, force or None):
    the Kepler term int dt/|q|^alpha when n is None, the n-body pair sum
    otherwise."""
    if n is None:
        return lambda X, need_force: single_potential(X, alpha, guard, need_force)
    return lambda X, need_force: pair_potential(X, n, alpha, guard, need_force)


def action_kernel(mean, cos, sin, X, omega: float, potential, need_grad: bool):
    """Kinetic and potential parts of the discretised action, plus its
    (mean, cos, sin) gradient when ``need_grad`` (else None).

    Every functional of this module and the optimizer's objective evaluate
    through here; X holds the grid samples of the loop (mean, cos, sin).
    """
    kin = kinetic_value(mean, cos, sin, omega)
    pot, force = potential(X, need_grad)
    if not need_grad:
        return kin, pot, None
    g_mean, g_cos, g_sin = kinetic_gradient(mean, cos, sin, omega)
    fm, fc, fs = pullback_to_coefficients(force, cos.shape[0])
    return kin, pot, (g_mean + fm, g_cos + fc, g_sin + fs)


def _loop_kernel(x: FourierLoop, omega, potential, M: int, need_grad: bool):
    return action_kernel(
        x.mean, x.cos_coeffs, x.sin_coeffs, x.sample(M), omega, potential, need_grad
    )


def _residual(x: FourierLoop, omega: float, potential, M: int) -> float:
    """L^2 norm of x'' + frame terms - (M / 2 pi) force on the grid.

    The potential's force array is dU/dX, which at each node is 2 pi / M
    times the gradient of sum_h |x - x_h|^{-alpha} (of |q|^{-alpha} for
    Kepler); the last term is therefore the force of the equations of motion.
    """
    X = x.sample(M)
    _, force = potential(X, True)
    res = x.derivative().derivative().sample(M)
    if omega:
        vel = x.derivative().sample(M)
        res[:, 0] += -2.0 * omega * vel[:, 1] - omega**2 * X[:, 0]
        res[:, 1] += 2.0 * omega * vel[:, 0] - omega**2 * X[:, 1]
    res -= (M / TWO_PI) * force
    return math.sqrt((TWO_PI / M) * float(np.sum(res**2)))


# ---------------------------------------------------------------------------
# public functionals


def kepler_action(
    q: FourierLoop,
    alpha: float,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> ActionValue:
    """Two-body action 1/2 int |q'|^2 + int dt/|q|^alpha for zero-mean q."""
    if float(np.max(np.abs(q.mean))) > 1e-12:
        raise ValueError("Kepler loops must have zero mean")
    M = resolve_grid_size(q.cutoff, 2, grid_size)
    kin, pot, _ = _loop_kernel(q, 0.0, potential_kernel(None, alpha, guard), M, False)
    return ActionValue(kin, pot, M)


def choreography_action(
    x: FourierLoop,
    params: SystemParams,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> ActionValue:
    """Inertial choreography action: :func:`rotating_action` at omega = 0."""
    return rotating_action(x, replace(params, omega=0.0), grid_size, guard)


def rotating_action(
    y: FourierLoop,
    params: SystemParams,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> ActionValue:
    """Rotating-frame action at params.omega (the inertial action when 0).

    Mutual distances are rotation invariant, so only the kinetic part
    differs from the inertial functional.
    """
    M = resolve_grid_size(y.cutoff, params.n, grid_size)
    potential = potential_kernel(params.n, params.alpha, guard)
    kin, pot, _ = _loop_kernel(y, params.omega, potential, M, False)
    return ActionValue(kin, pot, M)


def gradient(
    x: FourierLoop,
    params: SystemParams,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> GradientVector:
    """Exact derivative of the discretised action w.r.t. each coefficient.

    The kinetic part is in closed form (diagonal in the harmonic index); the
    potential part accumulates -alpha (x(t) - x(t+h tau)) / r^{alpha+2} on
    the grid and pulls it back through the shift structure and the basis
    functions.
    """
    M = resolve_grid_size(x.cutoff, params.n, grid_size)
    potential = potential_kernel(params.n, params.alpha, guard)
    _, _, grad = _loop_kernel(x, params.omega, potential, M, True)
    return GradientVector(*grad)


def kepler_gradient(
    q: FourierLoop,
    alpha: float,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> GradientVector:
    # the mean is not a Kepler degree of freedom; report its component anyway
    M = resolve_grid_size(q.cutoff, 2, grid_size)
    _, _, grad = _loop_kernel(q, 0.0, potential_kernel(None, alpha, guard), M, True)
    return GradientVector(*grad)


def newton_residual(
    x: FourierLoop,
    params: SystemParams,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> float:
    """L^2 norm of the equations of motion along body 0.

    Inertial frame:   x0'' + sum_h alpha (x0 - x_h)/|x0 - x_h|^{alpha+2};
    rotating frame:   y0'' + 2 w J y0' - w^2 y0 + same force, with the
    Coriolis and centrifugal terms acting on the rotation plane only.
    A loop is a critical point of the discretised action iff the gradient
    vanishes; this residual must co-vanish (up to the truncation tail).
    """
    M = resolve_grid_size(x.cutoff, params.n, grid_size)
    potential = potential_kernel(params.n, params.alpha, guard)
    return _residual(x, params.omega, potential, M)


def kepler_newton_residual(
    q: FourierLoop,
    alpha: float,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> float:
    """L^2 norm of q'' + alpha q / |q|^{alpha+2} on the grid."""
    M = resolve_grid_size(q.cutoff, 2, grid_size)
    return _residual(q, 0.0, potential_kernel(None, alpha, guard), M)
