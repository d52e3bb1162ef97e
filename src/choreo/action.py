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

One evaluation path: :class:`Objective` is the only door into the value
stage.  The descent of :mod:`optimize` and the saddle search of
:mod:`mountain_pass` keep one per run; :func:`rotating_action` and
:func:`newton_residual` build one at the loop's cutoff.  The value stage
samples the loop, runs the potential stage (:func:`pair_potential`, or its
one-lag Kepler case), which returns each row's value and minimal separation
with the lag differences D and squared distances r2, checks the collision
guard and returns an :class:`Evaluation` per row that reads its row of those
arrays on demand.
Its force, -(2 pi alpha / M) sum_h r2^(-(alpha+2)/2) D, is formed only for
a gradient or a residual, so a descent step pays for one value stage per
trial and one force stage per accepted point.  The Newton residual applies
the velocity map twice, (d/dt + w J P)^2 x, and reuses the force array.
The exact Hessian (:meth:`Evaluation.hessian`) is also formed from D and r2
alone: the kinetic L^T diag(w) L plus the pullback of the block-sparse
sample-space Hessian of the potential.

Batches: the value stage takes coefficient vectors and samples with leading
batch axes, (..., N) and (..., M, d), and returns per row a value and a
separation beside the arrays of the force stage.  A single vector is the
case without leading axes.  Every form is chosen so that a row of a stack
evaluates bit for bit as it does alone: the samples and Lx as stacks of
matrix products, the potential sum over each row's contiguous squared
distances, the kinetic value a per-row dot product.  Lx as one gemm over
the stack, or the kinetic sums as one einsum, would not keep the bits.
Only the value stage is stacked: a row's gradient, metric direction and
rms norm are completed one row at a time, and an evaluation that is kept
copies its row out of the call's arrays first (:meth:`Evaluation._detach`).

Near-collisions are a hard error below the guard separation ``GUARD`` (no
smoothing): minimizers of interest are collisionless, and smoothing would
corrupt the certified values.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .loops import (
    TWO_PI,
    FourierLoop,
    SymmetryGroup,
    SystemParams,
    lag_distances,
    pack_coefficients,
    resolve_grid_size,
    sample_basis,
    unpack_coefficients,
)

# Smallest separation of two bodies (of the Kepler body and the center) that
# the value stage accepts.
GUARD = 1e-8


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


# ---------------------------------------------------------------------------
# raw-array stages

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


def _kinetic(vec: np.ndarray, L: np.ndarray, w: np.ndarray):
    """(kinetic value, w * Lx) of packed vectors of shape (..., N), row by
    row, for the velocity map (L, w): the values have shape vec.shape[:-1].

    Lx and the kinetic value 1/2 (Lx) . (w * Lx) are stacks of
    matrix-vector and vector-vector products, so each row equals the
    products of that row alone, bit for bit.
    """
    v = (L @ vec[..., None])[..., 0]
    wv = w * v
    return 0.5 * (v[..., None, :] @ wv[..., :, None])[..., 0, 0], wv


def _pack(mean, cos, sin) -> np.ndarray:
    return np.concatenate([mean, np.ravel(cos), np.ravel(sin)])


def kinetic_value(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> float:
    """1/2 int |y' + J w P y|^2 (+ plain kinetic outside the plane).

    With w = 0 this reduces to the inertial 1/2 int |y'|^2 for all
    components.  Evaluated as the weighted sum of squares of the velocity
    coefficients, see :func:`velocity_map`; the one-row case of
    :func:`kinetic_values`.
    """
    return float(kinetic_values(_pack(mean, cos, sin), cos.shape[1], omega))


def kinetic_values(vecs: np.ndarray, dim: int, omega: float) -> np.ndarray:
    """:func:`kinetic_value` of each packed vector of a stack (..., N),
    N = dim (2K + 1), row by row: shape vecs.shape[:-1]."""
    K = (vecs.shape[-1] // dim - 1) // 2
    return _kinetic(vecs, *velocity_map(dim, K, omega))[0]


def kinetic_gradient(
    mean: np.ndarray, cos: np.ndarray, sin: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradient L^T (w * Lx) of :func:`kinetic_value` in (mean, cos, sin)."""
    K, d = cos.shape
    L, w = velocity_map(d, K, omega)
    g = L.T @ _kinetic(_pack(mean, cos, sin), L, w)[1]
    return g[:d], g[d : d + K * d].reshape(K, d), g[d + K * d :].reshape(K, d)


def _power_sums(r2: np.ndarray, alpha: float):
    """(sums, separation) of squared distances r2, shape (..., H, M): each
    row's sum of r2^(-alpha/2) over its H M entries, lag-major, and its
    minimal distance.  A row whose separation is below ``GUARD`` has a
    meaningless sum, formed without warnings."""
    flat = r2.reshape(r2.shape[:-2] + (-1,))
    sep = np.sqrt(flat.min(axis=-1))
    quiet = np.count_nonzero(sep < GUARD)
    with np.errstate(divide="ignore", over="ignore") if quiet else nullcontext():
        sums = (flat ** (-alpha / 2.0)).sum(axis=-1)
    return sums, sep


def pair_potential(X: np.ndarray, n: int, alpha: float):
    """Value stage of the discretised pair potential of choreography sample
    arrays X, shape (..., M, d) with M a multiple of n.

    Forms every lag difference and squared distance of every row of the
    leading axes at once and returns (value, separation, D, r2): each row's
    potential and minimal distance (shape X.shape[:-2]), the lag
    differences D (..., n-1, M, d) and their squared norms r2 (..., n-1, M).
    A row closer than ``GUARD`` has a meaningless value.
    """
    D, r2 = lag_distances(X, n)
    sums, sep = _power_sums(r2, alpha)
    return (math.pi / X.shape[-2]) * sums, sep, D, r2


def single_potential(X: np.ndarray, alpha: float):
    """Value stage of the Kepler potential int dt/|q|^alpha on the grid of
    sample arrays X, shape (..., M, d); returns (value, separation, D, r2)
    like :func:`pair_potential`, with the one lag D = X[..., None, :, :]."""
    r2 = np.sum(X**2, axis=-1)[..., None, :]
    sums, sep = _power_sums(r2, alpha)
    return (TWO_PI / X.shape[-2]) * sums, sep, X[..., None, :, :], r2


def pullback_to_coefficients(force: np.ndarray, cutoff: int) -> np.ndarray:
    """Chain rule from dU/dX on the grid, shape (..., M, d), to the packed
    (mean, cos, sin) derivative (..., N): one matrix product per row, so a
    row of a stack equals its own call bit for bit."""
    pulled = sample_basis(cutoff, force.shape[-2]).T @ force
    return pulled.reshape(force.shape[:-2] + (-1,))


@lru_cache(maxsize=16)
def pullback_gather(cutoff: int, n: int | None) -> np.ndarray:
    """The gather that turns the lag-and-time DFT of a real
    grid weight into its Hessian block in the packed basis.  Read-only.

    For a weight J of shape (n-1, M), row h-1 the weight of lag h, the
    block is sum_{h,m} dB_h[m]^T J[h, m] dB_h[m] over the rows
    dB_h[m] = B[m] - B[m + h M/n] of the lag-differenced sample basis (in
    the Kepler case, ``n`` None, J has one row and dB is the basis
    itself).  In exponentials e^(ikt) the lag shift s_h = 2 pi h / n is
    diagonal, e^(ik s_h), so entry (k, l) of the block is

        G(k, l) = sum_h (1 - e^(-ik s_h)) (1 - e^(il s_h)) Jh_h(k - l)
                = F[0, p] + F[p, p] - F[k, p] - F[-l, p],  p = k - l,

    with Jh_h(p) the DFT of row h over the grid and F[q, p] the DFT of
    Jh(p) over the lags h = 0..n-1 (lag 0 weighs nothing), rows mod n and
    columns p + 2K for |p| <= 2K; only F[0, p] in the Kepler case.  For
    k = 0..K (rows) and l = -K..K (columns l + K), G is the sum of
    F.flat at the first two rows of the returned index less the sum at the
    last two (F.flat at its one row for Kepler).  A real J gives
    G(-k, -l) = conj G(k, l), so with S+- = G(k, l) +- G(k, -l),
    k, l >= 0, the block's entries are, k = 0 standing for the mean,

        (cos k, cos l) = Re S+ / 2,   (cos k, sin l) = Im S- / 2,
        (sin k, cos l) = -Im S+ / 2,  (sin k, sin l) = Re S- / 2.

    A block is thus a gather from a transform of the size of J, never a
    sum over the grid.
    """
    K = cutoff
    width = 4 * K + 1
    kk, ll = np.arange(K + 1)[:, None], np.arange(-K, K + 1)[None, :]
    col = kk - ll + 2 * K
    if n is None:
        index = col[None]
    else:
        rows = np.broadcast_arrays(0 * col, (kk - ll) % n, kk % n, -ll % n)
        index = np.stack(rows) * width + col
    index.flags.writeable = False
    return index


@lru_cache(maxsize=16)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinate pairs (i, j), i <= j, and the positions of i == j."""
    i, j = np.triu_indices(d)
    return i, j, np.flatnonzero(i == j)


# ---------------------------------------------------------------------------
# the objective: the one door into the value stage


@dataclass
class KernelCounts:
    """Work done through one :class:`Objective`: kernel calls, value stages
    (one per row), rows that tripped the collision guard, and force stages
    (one per completed gradient or force array)."""

    kernel_calls: int = 0
    value_evals: int = 0
    grad_evals: int = 0
    collisions: int = 0


@lru_cache(maxsize=128)
def _coordinates(
    d: int, K: int, symmetry: SymmetryGroup | None, pin_mean: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The free-coordinate mask of packed vectors, the weights that make
    rms^2 = |mean|^2 + (|cos|^2 + |sin|^2) / 2 one weighted dot product, and
    the indices of the free coordinates.  Built once per
    (d, K, symmetry, pin_mean); all three arrays are read-only."""
    if symmetry is not None:
        if symmetry.dim != d:
            raise ValueError(f"symmetry group needs dimension {symmetry.dim}, run has {d}")
        mmask, cmask, smask = symmetry.masks(K)
    else:
        mmask = np.ones(d, dtype=bool)
        cmask = np.ones((K, d), dtype=bool)
        smask = np.ones((K, d), dtype=bool)
    if pin_mean:
        mmask = np.zeros(d, dtype=bool)
    mask = np.concatenate([mmask, cmask.ravel(), smask.ravel()])
    weights = np.full(mask.size, 0.5)
    weights[:d] = 1.0
    free = np.flatnonzero(mask)
    for a in (mask, weights, free):
        a.flags.writeable = False
    return mask, weights, free


@lru_cache(maxsize=64)
def _rows(lead: tuple) -> tuple:
    """Index tuples of every row of the leading axes, in C order."""
    return tuple(product(*map(range, lead)))


class Evaluation:
    """The discretised action at one packed coefficient vector, row ``row``
    of a kernel call.

    Construction is the value stage: ``kinetic``, ``potential``, their sum
    ``value``, the grid minimum ``separation`` (of two bodies, or of the
    Kepler body and the center), the grid ``samples`` and the squared lag
    distances ``r2`` (n-1, M), the last two read from the call's arrays on
    demand.  :meth:`force` runs the force stage on the same
    lag differences, once; :meth:`gradient` completes it with its pullback
    and the kinetic gradient L^T (w * Lx), projected by the objective's
    mask.  Both are computed on the first call and returned as is
    (read-only gradient) afterwards.
    """

    __slots__ = (
        "kinetic", "potential", "value", "separation",
        "_obj", "_arrays", "_row", "_force", "_grad", "_hessian", "_spectrum",
    )

    def __init__(self, obj, arrays: tuple, row: tuple, kinetic, potential, separation):
        self.kinetic = kinetic
        self.potential = potential
        self.value = kinetic + potential
        self.separation = separation
        self._obj, self._arrays, self._row = obj, arrays, row
        self._force = self._grad = self._hessian = self._spectrum = None

    @property
    def samples(self) -> np.ndarray:
        return self._arrays[0][self._row]

    @property
    def r2(self) -> np.ndarray:
        return self._arrays[3][self._row]

    def force(self) -> np.ndarray:
        """dU/dX on the grid: -(2 pi alpha / M) sum_h r2^(-(alpha+2)/2) D,
        from the value stage's arrays."""
        if self._force is None:
            _, _, D, r2 = self._arrays
            self._force = self._obj._force(D[self._row], r2[self._row])
            self._obj.counts.grad_evals += 1
        return self._force

    def gradient(self) -> np.ndarray:
        if self._grad is None:
            self._grad = self._obj._gradient(self._arrays[1][self._row], self.force())
        return self._grad

    def _detach(self) -> None:
        """Copy this row out of its kernel call's arrays, so that keeping
        the evaluation keeps one row's arrays, not the call's."""
        row = self._row
        self._arrays = tuple([a[row].copy() for a in self._arrays])
        self._row = ()

    def hessian(self) -> np.ndarray:
        """The exact Hessian of the discretised action on the objective's
        free coordinates, (nfree, nfree) in the order of ``Objective.free``:
        the masked coordinates, where the gradient is zero, are left out.
        Formed from the value stage's D and r2, with nothing sampled again,
        as L^T diag(w) L + B^T W B.

        B is the sample basis, taken per coordinate.  W is the block-sparse
        sample-space Hessian of the potential: each lag difference D gives
        the d x d block J = c r^(-alpha-2) (I - (alpha+2) D D^T / r^2),
        c = -2 pi alpha / M, with a plus sign on the (m, m) diagonal and a
        minus sign at (m, m + h M/n); the Kepler term is the one-lag case,
        diagonal only.  Since D is linear in the coefficients, B^T W B is
        1/2 sum_{h,m} dB^T J dB over the rows dB of the lag-differenced
        basis (sum_m B^T J B for Kepler): per coordinate pair, one FFT of
        an (n, M) weight and a gather (:func:`pullback_gather`), so the
        work is O(n M log M + K^2) a pair.  The weights of the d (d+1)/2
        pairs and their DFTs over the grid take (d+1)/2 times the size of D
        each and are released once transformed; beside them only the
        pairs' transforms at |p| <= 2K, (d (d+1)/2, n, 4K + 1), and arrays
        of the result's size are formed.  Computed on the first call;
        read-only.
        """
        if self._hessian is None:
            obj = self._obj
            _, _, D, r2 = self._arrays
            D, r2 = D[self._row], r2[self._row]
            alpha, K, d, (lags, M) = obj.alpha, obj.cutoff, obj.dim, r2.shape
            kepler = obj.params is None
            index = pullback_gather(K, None if kepler else obj.n)
            pi, pj, same = _pairs(d)
            c = ((2.0 if kepler else 1.0) * -math.pi * alpha / M) * r2 ** (-(alpha + 2.0) / 2.0)
            Dt = np.moveaxis(D, -1, 0)
            J = Dt[pi]  # (pairs, lags, M), a copy
            J *= Dt[pj]
            J *= c * ((-alpha - 2.0) / r2)
            for s in same:
                J[s] += c
            # the DFT over the grid at |p| <= 2K of each pair's weight, row h
            # the lag h (row 0, lag 0, zero) or the Kepler term
            R = np.fft.rfft(J)[..., : 2 * K + 1]  # Jh(p), p = 0..2K
            del J  # the large arrays go as soon as they are used
            F = np.zeros((pi.size, lags if kepler else lags + 1, 4 * K + 1), complex)
            F[:, -lags:, 2 * K :] = R
            F[:, -lags:, : 2 * K] = np.conj(R[..., :0:-1])  # Jh(-p) = conj Jh(p)
            del R
            if not kepler:
                F = np.fft.fft(F, axis=1)
            g = np.take(F.reshape(pi.size, -1), index, axis=1)
            del F
            G = g[:, 0] if kepler else g[:, 0] + g[:, 1] - g[:, 2] - g[:, 3]
            del g
            plus = G[..., K:] + G[..., K::-1]  # S+, k and l = 0..K
            minus = G[..., K:] - G[..., K::-1]
            nb = 2 * K + 1
            blocks = np.empty((pi.size, nb, nb))
            blocks[:, : K + 1, : K + 1] = plus.real
            blocks[:, : K + 1, K + 1 :] = minus.imag[..., 1:]
            blocks[:, K + 1 :, : K + 1] = -plus.imag[:, 1:]
            blocks[:, K + 1 :, K + 1 :] = minus.real[:, 1:, 1:]
            H = np.empty((nb, d, nb, d))
            H[:, pi, :, pj] = blocks
            H[:, pj, :, pi] = np.swapaxes(blocks, 1, 2)
            H = H.reshape(nb * d, nb * d)
            if obj.free.size < H.shape[0]:
                H = H.take(obj.free, axis=0).take(obj.free, axis=1)
            H *= 0.5  # the blocks hold twice the entries
            H += obj._kinetic_hessian()
            H += H.T
            H *= 0.5
            H.flags.writeable = False
            self._hessian = H
        return self._hessian

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues in ascending order, eigenvectors as columns) of
        :meth:`hessian`; computed on the first call."""
        if self._spectrum is None:
            self._spectrum = np.linalg.eigh(self.hessian())
        return self._spectrum


class Objective:
    """Discretised action and gradient over packed coefficient vectors.

    ``params=None`` selects the Kepler functional (one body around a fixed
    center, zero mean pinned); otherwise the rotating-frame choreography
    action at params.omega (the inertial one when omega = 0).  ``symmetry``
    and ``pin_mean`` fix coordinates at zero: ``mask`` marks the free ones,
    and gradients vanish off it.

    :meth:`evaluate` is the value stage at one vector; its ``gradient()``
    completes the masked gradient, and ``value`` / ``value_and_grad`` wrap
    it.  :meth:`evaluate_batch` evaluates the rows of a stack in one kernel
    call.  ``counts`` (:class:`KernelCounts`) holds the work done so far;
    deterministic for a given run.
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
        else:
            self.alpha = params.alpha
            self.dim = params.d
            self.n = params.n
            self.omega = params.omega
        self.counts = KernelCounts()  # the kernel's work so far
        self.grid_size = resolve_grid_size(self.cutoff, self.n, grid_size)
        self._basis = sample_basis(self.cutoff, self.grid_size)
        self._L, self._w = velocity_map(self.dim, self.cutoff, self.omega)
        self.mask, self._rms_weights, self.free = _coordinates(
            self.dim, self.cutoff, symmetry, pin_mean
        )
        self._fixed = np.flatnonzero(~self.mask)  # the coordinates held at zero
        self._metric = None  # factored on the first metric_direction call
        self._kinetic = None  # built for the metric or the first Hessian

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
        """Value stage at packed vectors ``vecs`` of shape (..., N).

        The leading axes are batch axes: one call samples, forms the lag
        differences and checks the guard for every row at once, and each
        row equals the evaluation of that row alone, bit for bit.  Returns
        one entry per row (C order): its :class:`Evaluation`, or the
        :class:`CollisionError` it trips (a separation below ``GUARD``).
        The work is charged to ``counts``.  The potential stage is the
        module function at call time, so a wrapper installed on the module
        (a tracer) sees every call.
        """
        X = self._basis @ vecs.reshape(vecs.shape[:-1] + (-1, self.dim))
        if self.params is None:
            pot, sep, D, r2 = single_potential(X, self.alpha)
        else:
            pot, sep, D, r2 = pair_potential(X, self.n, self.alpha)
        kin, wv = _kinetic(vecs, self._L, self._w)
        arrays = (X, wv, D, r2)
        rows = _rows(vecs.shape[:-1])
        counts = self.counts
        counts.kernel_calls += 1
        counts.value_evals += len(rows)
        out = []
        for row in rows:
            s = float(sep[row])
            if s < GUARD:
                counts.collisions += 1
                h, j = divmod(int(np.argmin(r2[row])), self.grid_size)
                lag = None if self.params is None else h + 1
                ev = CollisionError(s, j * TWO_PI / self.grid_size, lag)
            else:
                ev = Evaluation(self, arrays, row, float(kin[row]), float(pot[row]), s)
            out.append(ev)
        return out

    def evaluate(self, vec: np.ndarray) -> Evaluation:
        """Value stage at ``vec``; ``.gradient()`` gives the masked gradient.
        Raises :class:`CollisionError` where the guard trips."""
        (ev,) = self._kernel(vec)
        if isinstance(ev, CollisionError):
            raise ev
        return ev

    def evaluate_batch(self, vecs: np.ndarray) -> list[Evaluation | None]:
        """Value stages of the rows of a (P, N) stack in one kernel call:
        each row's evaluation, equal to :meth:`evaluate` of that row bit for
        bit, or None where the row trips the collision guard.  A single
        vector of shape (N,) is a one-row stack: ``(ev,) =
        obj.evaluate_batch(vec)`` evaluates it without raising."""
        entries = self._kernel(vecs)
        return [None if isinstance(ev, CollisionError) else ev for ev in entries]

    def _force(self, D: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """The force stage of lag differences D (..., n-1, M, d) and their
        squared norms r2 (..., n-1, M), row by row: (..., M, d)."""
        alpha = self.alpha
        w = r2 ** (-(alpha + 2.0) / 2.0)
        return -(TWO_PI * alpha / r2.shape[-1]) * np.einsum("...hm,...hmd->...md", w, D)

    def _gradient(self, wv: np.ndarray, force: np.ndarray) -> np.ndarray:
        """The masked gradient L^T (w * Lx) + pullback of the force, row by
        row, from w * Lx (..., N) and the force (..., M, d); read-only."""
        grad = (self._L.T @ wv[..., None])[..., 0]
        grad += pullback_to_coefficients(force, self.cutoff)
        grad.T[self._fixed] = 0.0  # as np.where(mask, grad, 0.0), but faster
        grad.flags.writeable = False
        return grad

    def value(self, vec: np.ndarray) -> float:
        return self.evaluate(vec).value

    def value_and_grad(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        ev = self.evaluate(vec)
        return ev.value, ev.gradient()

    def rms(self, vec: np.ndarray) -> float:
        """sqrt(|mean|^2 + (|cos|^2 + |sin|^2) / 2) of a packed vector."""
        return math.sqrt(float(self._rms_weights @ (vec * vec)))

    def residual(self, vec: np.ndarray, ev: Evaluation) -> float:
        """Newton residual of the loop ``vec``, whose evaluation is ``ev``:
        the L^2 norm on the grid of (d/dt + w J P)^2 x - (M / 2 pi) force.
        The frame operator squared, x'' + 2 w J x' - w^2 P x, is the
        velocity map applied twice; the force array dU/dX is 2 pi / M times
        the force of the equations of motion at each node."""
        L, M = self._L, self.grid_size
        acc = (L @ (L @ vec)).reshape(-1, self.dim)
        res = self._basis @ acc - (M / TWO_PI) * ev.force()
        return math.sqrt((TWO_PI / M) * float(np.sum(res**2)))

    def _kinetic_hessian(self) -> np.ndarray:
        """The kinetic Hessian Lm^T diag(w) Lm on the free coordinates, Lm
        the free columns of L; the metric is this plus I.  Built once."""
        if self._kinetic is None:
            Lm = self._L[:, self.free]
            self._kinetic = Lm.T @ (self._w[:, None] * Lm)
            self._kinetic.flags.writeable = False
        return self._kinetic

    # -- the H^1 metric -----------------------------------------------------

    def metric_direction(self, g: np.ndarray):
        """(P^-1 g, g^T P^-1 g) for the kinetic metric P = L^T diag(w) L + I.

        L, w are :func:`velocity_map`, so x^T P x is the kinetic quadratic
        form plus the squared coefficient norm: the H^1 inner product of the
        rotating-frame loop.  P is restricted to the mask coordinates, so
        the direction is zero wherever the mask is, and factored (Cholesky,
        P = C C^T) once, on the first call.
        """
        idx = self.free
        if self._metric is None:
            P = self._kinetic_hessian() + np.eye(idx.size)
            self._metric = np.linalg.inv(np.linalg.cholesky(P))
        C_inv = self._metric
        z = C_inv @ g[idx]
        direction = np.zeros(g.shape)
        direction[idx] = C_inv.T @ z
        return direction, float(z @ z)


# ---------------------------------------------------------------------------
# loop-level functionals


def rotating_action(y: FourierLoop, params: SystemParams) -> ActionValue:
    """Rotating-frame action at params.omega (the inertial action when 0),
    on the default grid; only its kinetic part depends on the frame."""
    obj = Objective(params, y.cutoff)
    ev = obj.evaluate(obj.pack(y))
    return ActionValue(ev.kinetic, ev.potential, obj.grid_size)


def newton_residual(
    x: FourierLoop, params: SystemParams, grid_size: int | None = None
) -> float:
    """L^2 norm of the equations of motion along body 0, with the Coriolis
    and centrifugal terms on the rotation plane (:meth:`Objective.residual`);
    it co-vanishes with the gradient up to the truncation tail."""
    obj = Objective(params, x.cutoff, grid_size)
    vec = obj.pack(x)
    return obj.residual(vec, obj.evaluate(vec))
