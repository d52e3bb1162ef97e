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
M >= 2K + 1, so the kinetic term, computed by Parseval from the Fourier
coefficients, agrees with the grid quadrature to rounding.  The discretised
action is the object that is differentiated and optimised: gradients
returned by this module are the exact derivatives of the discretised
functional, not of the continuum limit.

Kinetic term: the rotating-frame velocity y' + w J P y is a fixed linear
map L of the packed (mean, cos, sin) vector x (:func:`velocity_map`, built
once per (d, K, w)), so the kinetic value is the weighted sum of squares
1/2 sum_i w_i (Lx)_i^2 and its gradient is L^T (w * Lx).  It is not formed
as the quadratic form 1/2 x^T Q x: at the converged (n, alpha, w) =
(5, 1, 2.1) winding-2 circle that form is off by 1.1e-13 (the sum of squares
by 2e-15), close to the Armijo test's slack of 2.5e-13 there.

One evaluation path: every functional here, and the optimizer's
``Objective``, evaluates through :func:`action_kernel`.  Its value stage
samples the loop, forms the lag differences and squared distances of the
potential chosen once by :func:`potential_kernel` (the Kepler term or the
pair sum), checks the collision guard and returns an :class:`Evaluation`;
``Evaluation.gradient`` runs only the force stage on the same arrays, its
pullback and the kinetic gradient.  A descent step therefore pays for one
value stage per trial and one force stage per accepted point.  The Newton
residual reuses the same force stage.

Near-collisions are a hard error below the guard separation (no smoothing):
minimizers of interest are collisionless, and smoothing would corrupt the
certified values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .loops import (
    TWO_PI,
    FourierLoop,
    SystemParams,
    lag_differences,
    pack_coefficients,
    resolve_grid_size,
    sample_basis,
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

# Largest packed coefficient count d (2K + 1) the dense velocity map may
# have: 4096^2 doubles are 128 MB.
MAX_COEFFICIENTS = 4096


@lru_cache(maxsize=128)
def velocity_map(d: int, K: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotating-frame velocity map L and its quadrature weights w.

    L takes the packed (mean, cos, sin) vector x of y to the Fourier
    coefficients of y' + w J P y:

        mean rows   w J m_P,
        cos rows    k b_k + w J a_k,
        sin rows   -k a_k + w J b_k,

    with J the quarter turn (u1, u2) -> (-u2, u1) on the rotation plane.
    By Parseval 1/2 int |y' + w J P y|^2 = 1/2 sum_i w_i (Lx)_i^2 with
    w_i = 2 pi on the mean rows and pi on the harmonic rows.  Built once
    per (d, K, omega); both arrays are read-only.
    """
    N = d * (2 * K + 1)
    if N > MAX_COEFFICIENTS:
        raise ValueError(
            f"{N} packed coefficients (d={d}, K={K}) exceed {MAX_COEFFICIENTS}"
        )
    L = np.zeros((N, N))
    k = np.repeat(np.arange(1.0, K + 1.0), d)
    c = d + np.arange(K * d)  # rows and columns of a_k
    s = c + K * d  # rows and columns of b_k
    L[c, s] = k
    L[s, c] = -k
    if omega:
        block = np.arange(0, N, d)  # first coordinate of mean, a_k, b_k
        L[block, block + 1] = -omega
        L[block + 1, block] = omega
    w = np.full(N, math.pi)
    w[:d] = TWO_PI
    L.flags.writeable = False
    w.flags.writeable = False
    return L, w


def _kinetic(vec: np.ndarray, d: int, K: int, omega: float):
    """(kinetic value, L, w * Lx) of a packed vector."""
    L, w = velocity_map(d, K, omega)
    v = L @ vec
    wv = w * v
    return 0.5 * float(v @ wv), L, wv


def _pack(mean, cos, sin) -> np.ndarray:
    return np.concatenate([mean, np.ravel(cos), np.ravel(sin)])


def _split(vec: np.ndarray, d: int, K: int):
    return vec[:d], vec[d : d + K * d].reshape(K, d), vec[d + K * d :].reshape(K, d)


def kinetic_value(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> float:
    """1/2 int |y' + J w P y|^2 (+ plain kinetic outside the plane).

    With w = 0 this reduces to the inertial 1/2 int |y'|^2 for all
    components.  Evaluated as the weighted sum of squares of the velocity
    coefficients, see :func:`velocity_map`.
    """
    return _kinetic(_pack(mean, cos, sin), *cos.shape[::-1], omega)[0]


def kinetic_gradient(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient L^T (w * Lx) of :func:`kinetic_value` in (mean, cos, sin)."""
    K, d = cos.shape
    _, L, wv = _kinetic(_pack(mean, cos, sin), d, K, omega)
    return _split(L.T @ wv, d, K)


def pair_potential(X: np.ndarray, n: int, alpha: float, guard: float):
    """Value stage of the discretised pair potential of a choreography
    sample array X, shape (M, d) with M a multiple of n.

    Forms every lag difference and squared distance at once, checks the
    collision guard and returns (value, force); ``force()`` is the force
    stage, the exact derivative dU/dX of the value, computed from the same
    arrays.
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

    def force() -> np.ndarray:
        w = r2 ** (-(alpha + 2.0) / 2.0)
        return -(TWO_PI * alpha / M) * np.einsum("hm,hmd->md", w, diff)

    return value, force


def single_potential(X: np.ndarray, alpha: float, guard: float):
    """Value stage of the Kepler potential int dt/|q|^alpha on the grid;
    returns (value, force) like :func:`pair_potential`."""
    M = X.shape[0]
    r2 = np.sum(X**2, axis=1)
    jmin = int(np.argmin(r2))
    sep = math.sqrt(float(r2[jmin]))
    if sep < guard:
        raise CollisionError(sep, jmin * TWO_PI / M, None)
    value = (TWO_PI / M) * float(np.sum(r2 ** (-alpha / 2.0)))

    def force() -> np.ndarray:
        return -(TWO_PI * alpha / M) * (r2 ** (-(alpha + 2.0) / 2.0))[:, None] * X

    return value, force


def pullback_to_coefficients(force: np.ndarray, cutoff: int) -> np.ndarray:
    """Chain rule from dU/dX on the grid to the packed (mean, cos, sin)
    derivative."""
    return (sample_basis(cutoff, force.shape[0]).T @ force).ravel()


# ---------------------------------------------------------------------------
# the evaluation kernel


def potential_kernel(n: int | None, alpha: float, guard: float):
    """The potential as a callable X -> (value, force stage), see
    :func:`pair_potential`: the Kepler term int dt/|q|^alpha when n is None,
    the n-body pair sum otherwise."""
    if n is None:
        return lambda X: single_potential(X, alpha, guard)
    return lambda X: pair_potential(X, n, alpha, guard)


class Evaluation:
    """The discretised action at one packed coefficient vector.

    Construction is the value stage: ``kinetic``, ``potential`` and their
    sum ``value``.  :meth:`gradient` completes it with the force stage on
    the same lag differences, its pullback and the kinetic gradient
    L^T (w * Lx), projected by ``mask`` when one is given.  The gradient is
    computed on the first call and returned as is (read-only) afterwards.
    """

    __slots__ = (
        "kinetic", "potential", "value", "_L", "_wv", "_force", "_K", "_mask", "_grad"
    )

    def __init__(self, kinetic, potential, L, wv, force, K, mask):
        self.kinetic = kinetic
        self.potential = potential
        self.value = kinetic + potential
        self._L, self._wv, self._force, self._K, self._mask = L, wv, force, K, mask
        self._grad = None

    def gradient(self) -> np.ndarray:
        if self._grad is None:
            grad = self._L.T @ self._wv + pullback_to_coefficients(self._force(), self._K)
            if self._mask is not None:
                grad = np.where(self._mask, grad, 0.0)
            grad.flags.writeable = False
            self._grad = grad
        return self._grad


def action_kernel(
    vec: np.ndarray, X: np.ndarray, omega: float, potential, mask=None
) -> Evaluation:
    """Value stage of the discretised action at the packed vector ``vec``,
    whose grid samples are X (shape (M, d)).

    Every functional of this module and the optimizer's objective evaluate
    through here.
    """
    d = X.shape[1]
    K = (vec.size // d - 1) // 2
    pot, force = potential(X)
    kin, L, wv = _kinetic(vec, d, K, omega)
    return Evaluation(kin, pot, L, wv, force, K, mask)


def _loop_kernel(x: FourierLoop, omega, potential, M: int) -> Evaluation:
    return action_kernel(pack_coefficients(x), x.sample(M), omega, potential)


def _residual(x: FourierLoop, omega: float, potential, M: int) -> float:
    """L^2 norm of x'' + frame terms - (M / 2 pi) force on the grid.

    The potential's force array is dU/dX, which at each node is 2 pi / M
    times the gradient of sum_h |x - x_h|^{-alpha} (of |q|^{-alpha} for
    Kepler); the last term is therefore the force of the equations of motion.
    """
    X = x.sample(M)
    force = potential(X)[1]()
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
    ev = _loop_kernel(q, 0.0, potential_kernel(None, alpha, guard), M)
    return ActionValue(ev.kinetic, ev.potential, M)


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
    ev = _loop_kernel(y, params.omega, potential, M)
    return ActionValue(ev.kinetic, ev.potential, M)


def gradient(
    x: FourierLoop,
    params: SystemParams,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> GradientVector:
    """Exact derivative of the discretised action w.r.t. each coefficient.

    The kinetic part is L^T (w * Lx) of the velocity map; the potential part accumulates -alpha (x(t) - x(t+h tau)) / r^{alpha+2} on
    the grid and pulls it back through the shift structure and the basis
    functions.
    """
    M = resolve_grid_size(x.cutoff, params.n, grid_size)
    potential = potential_kernel(params.n, params.alpha, guard)
    grad = _loop_kernel(x, params.omega, potential, M).gradient()
    return GradientVector(*_split(grad, x.dim, x.cutoff))


def kepler_gradient(
    q: FourierLoop,
    alpha: float,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> GradientVector:
    # the mean is not a Kepler degree of freedom; report its component anyway
    M = resolve_grid_size(q.cutoff, 2, grid_size)
    grad = _loop_kernel(q, 0.0, potential_kernel(None, alpha, guard), M).gradient()
    return GradientVector(*_split(grad, q.dim, q.cutoff))


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
