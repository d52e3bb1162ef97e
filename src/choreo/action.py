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
residual reuses the evaluation's force array.

Batches: the value stage takes coefficient vectors and samples with leading
batch axes, (..., N) and (..., M, d), and returns per row a value, a guard
result and a force stage.  A single vector is the case without leading
axes.  Every form is chosen so that a row of a stack evaluates bit for bit
as it does alone: the samples and Lx as stacks of matrix products, the
potential sum over each row's contiguous squared distances, the kinetic
value a per-row dot product.  Lx as one gemm over the stack, or the kinetic
sums as one einsum, would not keep the bits.

Near-collisions are a hard error below the guard separation (no smoothing):
minimizers of interest are collisionless, and smoothing would corrupt the
certified values.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

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
    """(kinetic value, L, w * Lx) of packed vectors of shape (..., N), row
    by row: the values have shape vec.shape[:-1].

    Lx and the kinetic value 1/2 (Lx) . (w * Lx) are stacks of
    matrix-vector and vector-vector products, so each row equals the
    products of that row alone, bit for bit.
    """
    L, w = velocity_map(d, K, omega)
    v = (L @ vec[..., None])[..., 0]
    wv = w * v
    return 0.5 * (v[..., None, :] @ wv[..., :, None])[..., 0, 0], L, wv


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
    return float(_kinetic(_pack(mean, cos, sin), *cos.shape[::-1], omega)[0])


def kinetic_gradient(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient L^T (w * Lx) of :func:`kinetic_value` in (mean, cos, sin)."""
    K, d = cos.shape
    _, L, wv = _kinetic(_pack(mean, cos, sin), d, K, omega)
    return _split(L.T @ wv, d, K)


def _guard_stage(r2: np.ndarray, alpha: float, guard: float, M: int, lags: bool):
    """Per-row sums of r2^(-alpha/2) over the last axis of the squared
    distances r2 (shape (..., S)), and the collision guard.

    Returns (sums, collision): ``collision(row)`` is the
    :class:`CollisionError` the row trips (a separation below ``guard``),
    or None.  S runs over the grid, lag-major when ``lags`` (S = (n-1) M);
    a tripped row's sum is meaningless and is formed without warnings.
    """
    sep = np.sqrt(r2.min(axis=-1, keepdims=True))  # (..., 1)
    trip = sep < guard
    quiet = np.count_nonzero(trip)
    with np.errstate(divide="ignore", over="ignore") if quiet else nullcontext():
        sums = (r2 ** (-alpha / 2.0)).sum(axis=-1)

    def collision(row: tuple) -> CollisionError | None:
        if not trip[row]:
            return None
        h, j = divmod(int(np.argmin(r2[row])), M)
        return CollisionError(float(sep[row][0]), j * TWO_PI / M, h + 1 if lags else None)

    return sums, collision


def pair_potential(X: np.ndarray, n: int, alpha: float, guard: float):
    """Value stage of the discretised pair potential of choreography sample
    arrays X, shape (..., M, d) with M a multiple of n.

    Forms every lag difference and squared distance of every row of the
    leading axes at once and returns (value, collision, force): ``value``
    holds each row's potential (shape X.shape[:-2]); ``collision(row)`` is
    the :class:`CollisionError` the row trips, or None (its value is then
    meaningless); ``force(row)`` is the row's force stage, the exact
    derivative dU/dX of its value, computed from the same arrays.  A row is
    an index tuple into the leading axes, () for a single (M, d) array.
    """
    M = X.shape[-2]
    diff = lag_differences(X, n)  # (..., n-1, M, d)
    r2 = np.einsum("...hmd,...hmd->...hm", diff, diff)
    flat = r2.reshape(r2.shape[:-2] + (-1,))  # lag-major per row
    sums, collision = _guard_stage(flat, alpha, guard, M, True)

    def force(row: tuple) -> np.ndarray:
        w = r2[row] ** (-(alpha + 2.0) / 2.0)
        return -(TWO_PI * alpha / M) * np.einsum("hm,hmd->md", w, diff[row])

    return (math.pi / M) * sums, collision, force


def single_potential(X: np.ndarray, alpha: float, guard: float):
    """Value stage of the Kepler potential int dt/|q|^alpha on the grid of
    sample arrays X, shape (..., M, d); returns (value, collision, force)
    like :func:`pair_potential`."""
    M = X.shape[-2]
    r2 = np.sum(X**2, axis=-1)
    sums, collision = _guard_stage(r2, alpha, guard, M, False)

    def force(row: tuple) -> np.ndarray:
        w = r2[row] ** (-(alpha + 2.0) / 2.0)
        return -(TWO_PI * alpha / M) * w[:, None] * X[row]

    return (TWO_PI / M) * sums, collision, force


def pullback_to_coefficients(force: np.ndarray, cutoff: int) -> np.ndarray:
    """Chain rule from dU/dX on the grid to the packed (mean, cos, sin)
    derivative."""
    return (sample_basis(cutoff, force.shape[0]).T @ force).ravel()


# ---------------------------------------------------------------------------
# the evaluation kernel


def potential_kernel(n: int | None, alpha: float, guard: float):
    """The potential as a callable X -> (value, collision, force), see
    :func:`pair_potential`: the Kepler term int dt/|q|^alpha when n is None,
    the n-body pair sum otherwise."""
    if n is None:
        return lambda X: single_potential(X, alpha, guard)
    return lambda X: pair_potential(X, n, alpha, guard)


@dataclass
class KernelCounts:
    """Work done through :func:`action_kernel`: calls, value stages (one per
    row) and force stages (one per completed gradient or force array)."""

    kernel_calls: int = 0
    value_evals: int = 0
    grad_evals: int = 0


class _Batch:
    """What the rows of one kernel call share: the samples X, the velocity
    map L, w * Lx, the force stage, the cutoff, the gradient mask and the
    counts to charge."""

    __slots__ = ("X", "L", "wv", "force", "K", "mask", "counts")

    def __init__(self, X, L, wv, force, K, mask, counts):
        self.X, self.L, self.wv, self.force = X, L, wv, force
        self.K, self.mask, self.counts = K, mask, counts


@lru_cache(maxsize=64)
def _rows(lead: tuple) -> tuple:
    """Index tuples of every row of the leading axes, in C order."""
    return tuple(product(*map(range, lead)))


class Evaluation:
    """The discretised action at one packed coefficient vector, row ``row``
    of a kernel call.

    Construction is the value stage: ``kinetic``, ``potential``, their sum
    ``value`` and the grid ``samples``.  :meth:`force` runs the force stage
    on the same lag differences, once; :meth:`gradient` completes it with
    its pullback and the kinetic gradient L^T (w * Lx), projected by the
    mask when the call has one.  Both are computed on the first call and
    returned as is (read-only gradient) afterwards.
    """

    __slots__ = ("kinetic", "potential", "value", "_batch", "_row", "_force", "_grad")

    def __init__(self, kinetic: float, potential: float, batch: _Batch, row: tuple):
        self.kinetic = kinetic
        self.potential = potential
        self.value = kinetic + potential
        self._batch, self._row = batch, row
        self._force = self._grad = None

    @property
    def samples(self) -> np.ndarray:
        return self._batch.X[self._row]

    def force(self) -> np.ndarray:
        """dU/dX on the grid, from the value stage's arrays."""
        if self._force is None:
            self._force = self._batch.force(self._row)
            self._batch.counts.grad_evals += 1
        return self._force

    def gradient(self) -> np.ndarray:
        if self._grad is None:
            b = self._batch
            grad = b.L.T @ b.wv[self._row] + pullback_to_coefficients(self.force(), b.K)
            if b.mask is not None:
                grad = np.where(b.mask, grad, 0.0)
            grad.flags.writeable = False
            self._grad = grad
        return self._grad


def action_kernel(
    vec: np.ndarray, X: np.ndarray, omega: float, potential, counts, mask=None
) -> list:
    """Value stage of the discretised action at packed vectors ``vec`` of
    shape (..., N), whose grid samples are X, shape (..., M, d).

    The leading axes are batch axes: one call samples, forms the lag
    differences and checks the guard for every row at once, and each row
    equals the evaluation of that row alone, bit for bit.  Returns one entry
    per row (C order): its :class:`Evaluation`, or the
    :class:`CollisionError` it trips.  A single vector is the case without
    leading axes, a one-entry list.  The work is charged to ``counts``, a
    :class:`KernelCounts`.  Every functional of this module and the
    optimizer's objective evaluate through here.
    """
    d = X.shape[-1]
    K = (vec.shape[-1] // d - 1) // 2
    pot, collision, force = potential(X)
    kin, L, wv = _kinetic(vec, d, K, omega)
    batch = _Batch(X, L, wv, force, K, mask, counts)
    rows = _rows(vec.shape[:-1])
    counts.kernel_calls += 1
    counts.value_evals += len(rows)
    out = []
    for row in rows:
        err = collision(row)
        if err is not None:
            out.append(err)
        else:
            out.append(Evaluation(float(kin[row]), float(pot[row]), batch, row))
    return out


def single(entries: list) -> Evaluation:
    """The one entry of an :func:`action_kernel` result, raising its
    :class:`CollisionError`."""
    (ev,) = entries
    if isinstance(ev, CollisionError):
        raise ev
    return ev


def _loop_kernel(x: FourierLoop, omega, potential, M: int) -> Evaluation:
    vec = pack_coefficients(x)
    return single(action_kernel(vec, x.sample(M), omega, potential, KernelCounts()))


def force_residual(x: FourierLoop, omega: float, ev: Evaluation) -> float:
    """L^2 norm of x'' + frame terms - (M / 2 pi) force on the grid, where
    ``ev`` is the evaluation of x: its samples and force stage are reused.

    The potential's force array is dU/dX, which at each node is 2 pi / M
    times the gradient of sum_h |x - x_h|^{-alpha} (of |q|^{-alpha} for
    Kepler); the last term is therefore the force of the equations of motion.
    """
    X = ev.samples
    M = X.shape[0]
    res = x.derivative().derivative().sample(M)
    if omega:
        vel = x.derivative().sample(M)
        res[:, 0] += -2.0 * omega * vel[:, 1] - omega**2 * X[:, 0]
        res[:, 1] += 2.0 * omega * vel[:, 0] - omega**2 * X[:, 1]
    res -= (M / TWO_PI) * ev.force()
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
    return force_residual(x, params.omega, _loop_kernel(x, params.omega, potential, M))


def kepler_newton_residual(
    q: FourierLoop,
    alpha: float,
    grid_size: int | None = None,
    guard: float = DEFAULT_GUARD,
) -> float:
    """L^2 norm of q'' + alpha q / |q|^{alpha+2} on the grid."""
    M = resolve_grid_size(q.cutoff, 2, grid_size)
    potential = potential_kernel(None, alpha, guard)
    return force_residual(q, 0.0, _loop_kernel(q, 0.0, potential, M))
