"""Truncated Fourier loops in R^d and the body trajectories they generate.

Conventions used throughout the package:

* every loop is 2*pi-periodic and parametrised in radians,

      x(t) = mean + sum_{k=1..K} cos_coeffs[k-1] * cos(k t)
                              + sin_coeffs[k-1] * sin(k t),

  with coefficient rows in R^d;
* n bodies are generated from a single loop by time shifts of tau = 2*pi/n,
  body i following x(t + i*tau);
* sampling grids are uniform, t_j = 2*pi*j/M, with M a positive multiple of n
  so that a shift by h*tau is an exact roll of the sample array, and M >= 4K
  so that quantities quartic in the coefficients stay below the aliasing
  limit.

Coefficients are the natural optimization variables: shifts act on them as
exact rotations, the kinetic energy is diagonal in the harmonic index, and
square-integrable first derivatives are structural.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SystemParams:
    """Problem data: body count, space dimension, potential exponent, frame.

    ``omega`` is the angular velocity of the rotating frame; 0 selects the
    inertial frame.  The rotation always acts on the first two coordinates.
    """

    n: int
    d: int = 2
    alpha: float = 1.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two bodies, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"need dimension >= 2, got d={self.d}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.omega)):
            raise ValueError(
                f"alpha and omega must be finite, got alpha={self.alpha}, omega={self.omega}"
            )
        if not self.alpha > 0:
            raise ValueError(f"potential exponent must be positive, got {self.alpha}")
        if self.omega < 0:
            raise ValueError(f"angular velocity must be >= 0, got {self.omega}")

    @property
    def tau(self) -> float:
        """Phase lag between consecutive bodies, 2*pi/n."""
        return TWO_PI / self.n


# ---------------------------------------------------------------------------
# the loop itself


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FourierLoop:
    """A 2*pi-periodic curve in R^d as a truncated trigonometric series.

    ``mean`` has shape (d,), ``cos_coeffs`` and ``sin_coeffs`` have shape
    (K, d) with row k-1 holding the coefficients of cos(k t) / sin(k t).
    Instances are immutable; all operations return new loops.
    """

    mean: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cos = np.asarray(self.cos_coeffs, dtype=float)
        sin = np.asarray(self.sin_coeffs, dtype=float)
        if cos.ndim != 2 or sin.ndim != 2:
            raise ValueError("coefficient arrays must be 2-d, shape (K, d)")
        if cos.shape != sin.shape:
            raise ValueError(f"cos/sin shapes differ: {cos.shape} vs {sin.shape}")
        if cos.shape[1] != mean.shape[0]:
            raise ValueError(
                f"dimension mismatch: mean has d={mean.shape[0]}, "
                f"coefficients have d={cos.shape[1]}"
            )
        if cos.shape[0] < 1:
            raise ValueError("cutoff K must be >= 1")
        for name, arr in (("mean", mean), ("cos", cos), ("sin", sin)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name} coefficients")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cos_coeffs", _freeze(cos))
        object.__setattr__(self, "sin_coeffs", _freeze(sin))

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cutoff(self) -> int:
        return self.cos_coeffs.shape[0]

    @classmethod
    def zeros(cls, dim: int, cutoff: int) -> "FourierLoop":
        return cls(np.zeros(dim), np.zeros((cutoff, dim)), np.zeros((cutoff, dim)))

    @classmethod
    def circle(
        cls,
        radius: float,
        winding: int = 1,
        dim: int = 2,
        cutoff: int | None = None,
        plane: tuple[int, int] = (0, 1),
    ) -> "FourierLoop":
        """Planar circle R*(cos(m t), sin(m t)) embedded in the given plane.

        ``winding`` m may be negative (clockwise); |m| <= cutoff.
        """
        m = int(winding)
        if m == 0:
            raise ValueError("winding must be nonzero")
        K = max(abs(m), 1) if cutoff is None else int(cutoff)
        if K < abs(m):
            raise ValueError(f"cutoff {K} cannot hold winding {m}")
        loop = cls.zeros(dim, K)
        cos = loop.cos_coeffs.copy()
        sin = loop.sin_coeffs.copy()
        p, q = plane
        cos[abs(m) - 1, p] = radius
        sin[abs(m) - 1, q] = math.copysign(radius, m)
        return cls(loop.mean, cos, sin)

    # -- evaluation and calculus --------------------------------------------

    def evaluate(self, t):
        """Evaluate the series at scalar or array ``t`` (radians)."""
        t = np.asarray(t, dtype=float)
        k = np.arange(1, self.cutoff + 1)
        phases = np.multiply.outer(t, k)  # (..., K)
        out = (
            np.cos(phases) @ self.cos_coeffs
            + np.sin(phases) @ self.sin_coeffs
            + self.mean
        )
        return out

    def shift(self, s: float) -> "FourierLoop":
        """Loop evaluating to x(t + s); exact coefficient rotation."""
        k = np.arange(1, self.cutoff + 1, dtype=float)
        c = np.cos(k * s)[:, None]
        sn = np.sin(k * s)[:, None]
        cos_new = self.cos_coeffs * c + self.sin_coeffs * sn
        sin_new = -self.cos_coeffs * sn + self.sin_coeffs * c
        return FourierLoop(self.mean, cos_new, sin_new)

    def derivative(self) -> "FourierLoop":
        """Term-by-term derivative: (a_k, b_k) -> (k b_k, -k a_k), mean -> 0."""
        k = np.arange(1, self.cutoff + 1, dtype=float)[:, None]
        return FourierLoop(
            np.zeros(self.dim), k * self.sin_coeffs, -k * self.cos_coeffs
        )

    def sample(self, grid_size: int) -> np.ndarray:
        """Samples on the uniform grid t_j = 2*pi*j/M, shape (M, d)."""
        return sample_basis(self.cutoff, grid_size) @ coefficient_rows(self)

    def scaled(self, factor: float) -> "FourierLoop":
        return FourierLoop(
            factor * self.mean, factor * self.cos_coeffs, factor * self.sin_coeffs
        )

    def with_mean(self, mean) -> "FourierLoop":
        return FourierLoop(np.asarray(mean, float), self.cos_coeffs, self.sin_coeffs)

    def padded(self, cutoff: int) -> "FourierLoop":
        """Same curve with a larger cutoff (zero-padded harmonics)."""
        if cutoff < self.cutoff:
            raise ValueError("padded cutoff smaller than current cutoff")
        if cutoff == self.cutoff:
            return self
        cos = np.zeros((cutoff, self.dim))
        sin = np.zeros((cutoff, self.dim))
        cos[: self.cutoff] = self.cos_coeffs
        sin[: self.cutoff] = self.sin_coeffs
        return FourierLoop(self.mean, cos, sin)


@lru_cache(maxsize=128)
def sample_basis(cutoff: int, grid_size: int) -> np.ndarray:
    """Cached (M, 2K + 1) matrix [1 | cos kt_j | sin kt_j] of the grid samples.

    A packed coefficient vector reshaped to (2K + 1, d) has rows mean,
    a_1..a_K, b_1..b_K, so ``basis @ packed`` samples the loop and
    ``basis.T @ F`` pulls a grid array F back to the packed layout.
    """
    t = np.arange(grid_size) * (TWO_PI / grid_size)
    phases = np.outer(t, np.arange(1, cutoff + 1))
    return _freeze(np.hstack([np.ones((grid_size, 1)), np.cos(phases), np.sin(phases)]))


@lru_cache(maxsize=128)
def _shift_index(n: int) -> np.ndarray:
    """Row h-1 holds the block order of the lag-h shifted loop."""
    idx = (np.arange(n)[None, :] + np.arange(1, n)[:, None]) % n
    idx.flags.writeable = False
    return idx


def lag_differences(X: np.ndarray, n: int, lag: int | None = None) -> np.ndarray:
    """x(t_j) - x(t_j + h tau) for grid samples X of shape (..., M, d).

    Leading axes are batch axes: each sample array along them is handled
    alike.  Row h-1 of the (..., n-1, M, d) result holds lag h; given
    ``lag``, the one row of the (..., 1, M, d) result holds it, and no
    other lag is formed.
    The grid splits into n blocks of M/n samples, and the shift by h tau
    moves every block h places, so the shifted loops are gathered block by
    block.
    """
    lead, (M, d) = X.shape[:-2], X.shape[-2:]
    if M % n:
        raise ValueError(f"grid size {M} is not a multiple of n={n}")
    index = _shift_index(n) if lag is None else _shift_index(n)[lag - 1 : lag]
    blocks = X.reshape(lead + (n, M // n, d))
    shifted = np.take(blocks, index, axis=-3)  # (..., n-1 or 1, n, M/n, d)
    return (blocks[..., None, :, :, :] - shifted).reshape(lead + (len(index), M, d))


def lag_distances(
    X: np.ndarray, n: int, lag: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(D, r2): the lag differences of grid samples X, shape (..., M, d),
    and their squared norms, shape (..., n-1, M), or (..., 1, M) for the
    one ``lag``.  The one formula for r2, shared by the action kernel,
    :func:`min_separation` and the Jensen gap."""
    D = lag_differences(X, n, lag)
    return D, np.einsum("...hmd,...hmd->...hm", D, D)


def default_grid_size(cutoff: int, n: int) -> int:
    """Smallest multiple of n that is >= max(4K, 16n)."""
    target = max(4 * cutoff, 16 * n)
    return n * math.ceil(target / n)


# Largest Fourier cutoff and sample grid a run may use: the sampling basis
# is M x (2K + 1) and the kinetic velocity map is dense in the d (2K + 1)
# coefficients, so both are bounded before anything is allocated.
MAX_CUTOFF = 256
MAX_GRID_SIZE = 4096


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (a bool is not one) or is below
    ``least``; a float count would only fail later, in ``range``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_discretisation(cutoff: int, grid_size: int | None) -> None:
    """Refuse a cutoff or an explicit grid size beyond the affordable caps."""
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in 1..{MAX_CUTOFF}, got {cutoff}")
    if grid_size is not None and not 1 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid size must lie in 1..{MAX_GRID_SIZE}, got {grid_size}")


def resolve_grid_size(cutoff: int, n: int, grid_size: int | None) -> int:
    """Round a requested grid up to the module's sampling rules."""
    if grid_size is None:
        M = default_grid_size(cutoff, n)
    else:
        M = n * math.ceil(max(int(grid_size), 4 * cutoff, n) / n)
    if M > MAX_GRID_SIZE:
        raise ValueError(
            f"grid size {M} for cutoff {cutoff} and n={n} exceeds {MAX_GRID_SIZE}"
        )
    return M


# ---------------------------------------------------------------------------
# bodies


def body_trajectories(loop: FourierLoop, params: SystemParams) -> list[FourierLoop]:
    """The n body curves x_i(t) = x(t + i*tau), i = 0..n-1."""
    return [loop.shift(i * params.tau) for i in range(params.n)]


def body_samples(samples: np.ndarray, n: int) -> np.ndarray:
    """The n bodies' samples (n, M, d) from one loop's grid samples (M, d),
    M a multiple of n: body i samples x(t_j + i tau) = x(t_{j + i M/n}),
    the sample array rolled by i M/n rows."""
    M = samples.shape[0]
    rows = (np.arange(M) + (M // n) * np.arange(n)[:, None]) % M
    return samples[rows]


def rotate_winding(loop: FourierLoop, m: int) -> "FourierLoop":
    """Multiply the (0,1)-plane components by e^{J m t}, J counterclockwise.

    Used to move between rotating and inertial representations at integer
    frame speeds: if y is the rotating-frame loop at integer omega, the
    inertial loop is rotate_winding(y, omega).  Other components are kept;
    the cutoff grows by |m|.
    """
    m = int(m)
    if m == 0:
        return loop
    K = loop.cutoff
    K_out = K + abs(m)
    # complex spectrum of the plane components, index j in [-K, K]
    A = loop.cos_coeffs[:, 0] + 1j * loop.cos_coeffs[:, 1]
    B = loop.sin_coeffs[:, 0] + 1j * loop.sin_coeffs[:, 1]
    c = np.zeros(2 * K_out + 1, dtype=complex)
    c[K_out] = loop.mean[0] + 1j * loop.mean[1]
    for k in range(1, K + 1):
        c[K_out + k] = (A[k - 1] - 1j * B[k - 1]) / 2.0
        c[K_out - k] = (A[k - 1] + 1j * B[k - 1]) / 2.0
    c = np.roll(c, m)
    out = loop.padded(K_out)
    mean = out.mean.copy()
    cos = out.cos_coeffs.copy()
    sin = out.sin_coeffs.copy()
    z0 = c[K_out]
    mean[0], mean[1] = z0.real, z0.imag
    for k in range(1, K_out + 1):
        Ak = c[K_out + k] + c[K_out - k]
        Bk = 1j * (c[K_out + k] - c[K_out - k])
        cos[k - 1, 0], cos[k - 1, 1] = Ak.real, Ak.imag
        sin[k - 1, 0], sin[k - 1, 1] = Bk.real, Bk.imag
    return FourierLoop(mean, cos, sin)


# ---------------------------------------------------------------------------
# coefficient vector packing (optimization backend)


def pack_coefficients(loop: FourierLoop) -> np.ndarray:
    """Flatten (mean, cos, sin) into one vector; inverse of unpack."""
    return np.concatenate(
        [loop.mean, loop.cos_coeffs.ravel(), loop.sin_coeffs.ravel()]
    )


def unpack_coefficients(vec: np.ndarray, dim: int, cutoff: int) -> FourierLoop:
    d, K = dim, cutoff
    mean = vec[:d]
    cos = vec[d : d + K * d].reshape(K, d)
    sin = vec[d + K * d :].reshape(K, d)
    return FourierLoop(mean, cos, sin)


def coefficient_rows(loop: FourierLoop) -> np.ndarray:
    """The packed vector as (2K + 1, d) rows mean, a_1..a_K, b_1..b_K: the
    layout of a coefficient stack (S, 2K + 1, d), one loop per row."""
    return pack_coefficients(loop).reshape(-1, loop.dim)


def harmonic_energy(coeffs: np.ndarray) -> np.ndarray:
    """|a_k|^2 + |b_k|^2 for k = 1..K of coefficient rows (..., 2K + 1, d),
    shape (..., K)."""
    K = coeffs.shape[-2] // 2
    return np.sum(coeffs[..., 1 : K + 1, :] ** 2 + coeffs[..., K + 1 :, :] ** 2, axis=-1)


def pair_square_integrals(loop: FourierLoop, n: int) -> np.ndarray:
    """int_0^{2pi} |x(t) - x(t + h tau)|^2 dt for h = 1..n-1, exact; the
    one-row case of :func:`pair_square_integrals_stack`."""
    return pair_square_integrals_stack(coefficient_rows(loop)[None], n)[0]


def pair_square_integrals_stack(coeffs: np.ndarray, n: int) -> np.ndarray:
    """:func:`pair_square_integrals` of each loop of a coefficient stack
    (..., 2K + 1, d), shape (..., n-1).

    The difference loop at lag h has harmonic-k energy scaled by
    2 (1 - cos(2 pi k h / n)); the mean cancels.  A stack of
    matrix-vector products, so each row equals that loop alone bit for bit.
    """
    energy = harmonic_energy(coeffs)  # (..., K)
    k = np.arange(1, energy.shape[-1] + 1)
    h = np.arange(1, n)
    weights = 2.0 * (1.0 - np.cos(TWO_PI * np.outer(h, k) / n))  # (n-1, K)
    return (math.pi * weights @ energy[..., None])[..., 0]


# ---------------------------------------------------------------------------
# symmetry projection


@dataclass(frozen=True)
class SymmetryGroup:
    """Linear symmetry constraints as per-component coefficient masks.

    Each component rule is a triple (mean_ok, cos_mode, sin_mode) with modes
    in {"none", "all", "even", "odd"} selecting which harmonics survive the
    orthogonal projection onto the constraint subspace.
    """

    name: str
    rules: tuple[tuple[bool, str, str], ...]

    _MODES = ("none", "all", "even", "odd")

    def __post_init__(self) -> None:
        for mean_ok, cmode, smode in self.rules:
            if cmode not in self._MODES or smode not in self._MODES:
                raise ValueError(f"unknown coefficient mode in group {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.rules)

    def masks(self, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean (mean[d], cos[K,d], sin[K,d]) keep-masks."""
        d, K = self.dim, cutoff
        k = np.arange(1, K + 1)
        by_mode = {
            "none": np.zeros(K, dtype=bool),
            "all": np.ones(K, dtype=bool),
            "even": k % 2 == 0,
            "odd": k % 2 == 1,
        }
        mean = np.zeros(d, dtype=bool)
        cos = np.zeros((K, d), dtype=bool)
        sin = np.zeros((K, d), dtype=bool)
        for c, (mean_ok, cmode, smode) in enumerate(self.rules):
            mean[c] = mean_ok
            cos[:, c] = by_mode[cmode]
            sin[:, c] = by_mode[smode]
        return mean, cos, sin


#: Constraint set for the symmetric three-dimensional search: component 1 is
#: pi-periodic and odd (sine terms of even harmonics only), component 2 is
#: odd (sine terms), component 3 is even (cosine terms and mean).  A planar
#: figure eight in the x3=0 plane and a circle in the x1=0 plane both satisfy
#: it.
EIGHT3D = SymmetryGroup(
    "eight3d",
    (
        (False, "none", "even"),
        (False, "none", "all"),
        (True, "all", "none"),
    ),
)


def project_symmetry(loop: FourierLoop, group: SymmetryGroup) -> FourierLoop:
    """Orthogonal projection onto the constraint subspace of ``group``.

    Idempotent and nonexpanding in the coefficient 2-norm; raises on
    dimension mismatch.
    """
    if loop.dim != group.dim:
        raise ValueError(
            f"group {group.name!r} needs dimension {group.dim}, loop has {loop.dim}"
        )
    mmask, cmask, smask = group.masks(loop.cutoff)
    return FourierLoop(
        np.where(mmask, loop.mean, 0.0),
        np.where(cmask, loop.cos_coeffs, 0.0),
        np.where(smask, loop.sin_coeffs, 0.0),
    )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class LoopDiagnostics:
    """Measured orbit properties used to confirm or refute predictions."""

    winding: int | None
    winding_residual: float
    planarity: float
    min_separation: float
    radius: float
    radius_rms: float
    center: tuple[float, ...]
    degenerate: bool

    def as_dict(self) -> dict:
        return {
            "winding": self.winding,
            # null, not NaN, beside a null winding: artifacts stay strict JSON
            "winding_residual": None if self.winding is None else self.winding_residual,
            "planarity": self.planarity,
            "min_separation": self.min_separation,
            "radius": self.radius,
            "radius_rms": self.radius_rms,
            "center": list(self.center),
            "degenerate": self.degenerate,
        }


def min_separation(
    loop: FourierLoop, params: SystemParams, grid_size: int | None = None
) -> float:
    """min over t and h of |x(t) - x(t + h tau)| on the sampling grid; the
    ``separation`` of the action kernel on the same grid, bit for bit."""
    M = resolve_grid_size(loop.cutoff, params.n, grid_size)
    return float(grid_separation(loop.sample(M), params.n))


def grid_separation(X: np.ndarray, n: int) -> np.ndarray:
    """min over the grid and the lags of the body distances of sample
    arrays X (..., M, d), per row: shape X.shape[:-2]."""
    return np.sqrt(lag_distances(X, n)[1].min(axis=(-2, -1)))


def _fit_circle_2d(p: np.ndarray) -> tuple[np.ndarray, float]:
    """Algebraic least-squares circle through 2-d points: center, radius."""
    A = np.column_stack([2.0 * p, np.ones(len(p))])
    b = np.sum(p**2, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:2]
    r2 = sol[2] + center @ center
    return center, math.sqrt(max(r2, 0.0))


def diagnostics(
    samples: np.ndarray, centroid: np.ndarray, separation: float
) -> LoopDiagnostics:
    """Winding, planarity and circle fit of a loop from its grid samples
    (M, d) and its centroid (the mean coefficient), reported beside its grid
    ``separation``: a search passes its final evaluation's samples and
    separation, so the loop is not sampled again.

    The winding number is the total signed angle of x - centroid projected on
    the dominant plane (top two principal axes of the gyration tensor; for
    d = 2 the coordinate plane itself, so the sign convention is stable),
    divided by 2*pi and rounded to the nearest integer with the rounding
    residual recorded.  The winding is None (residual nan) where an angle
    step is not resolved: where the chord between two consecutive samples
    (or a sample itself) comes within 1e-9 of the centroid, the step is
    +-pi up to rounding and its sign is noise.  So a curve through its
    centroid, like the figure eight, has none, and neither has its mirror
    image.  Every other step lies strictly inside (-pi, pi) and its sign is
    the side on which the chord passes the centroid.

    Planarity is the smallest-to-largest singular value ratio of the
    centered sample matrix, i.e. the axis ratio of the gyration ellipsoid
    (0 for an exactly planar curve; identically 0 when d = 2).  The circle
    fit reports the least-squares radius in the dominant plane and an rms
    residual that includes the out-of-plane content.
    """
    M, d = samples.shape
    Y = samples - centroid
    scale = float(np.max(np.linalg.norm(Y, axis=1), initial=0.0))
    if scale < 1e-12:
        return LoopDiagnostics(
            winding=None,
            winding_residual=math.nan,
            planarity=0.0,
            min_separation=0.0,
            radius=0.0,
            radius_rms=0.0,
            center=tuple(centroid),
            degenerate=True,
        )

    gyration = (Y.T @ Y) / M
    evals, evecs = np.linalg.eigh(gyration)
    if d == 2:
        planarity = 0.0
        basis = np.eye(2)
    else:
        # singular values of the centered samples are the sqrt-eigenvalues
        planarity = float(math.sqrt(max(evals[0], 0.0) / evals[-1]))
        basis = evecs[:, [-1, -2]]

    P = Y @ basis  # in-plane coordinates (M, 2)
    # the distance of the centroid from each chord P[i] -> P[i + 1]
    chord = np.roll(P, -1, axis=0) - P
    c2 = np.sum(chord**2, axis=1)
    foot = np.divide(-np.sum(P * chord, axis=1), c2, out=np.zeros(M), where=c2 > 0)
    clearance = np.linalg.norm(P + np.clip(foot, 0.0, 1.0)[:, None] * chord, axis=1)
    if np.min(clearance) <= 1e-9:
        winding, residual = None, math.nan
    else:
        theta = np.arctan2(P[:, 1], P[:, 0])
        dtheta = np.diff(np.concatenate([theta, theta[:1]]))
        dtheta = (dtheta + math.pi) % TWO_PI - math.pi
        turns = float(np.sum(dtheta)) / TWO_PI
        winding = int(round(turns))
        residual = turns - winding

    center2, radius = _fit_circle_2d(P)
    in_plane_dev = np.linalg.norm(P - center2, axis=1) - radius
    out_of_plane = Y - P @ basis.T
    rms = math.sqrt(float(np.mean(in_plane_dev**2 + np.sum(out_of_plane**2, axis=1))))
    center = centroid + basis @ center2

    return LoopDiagnostics(
        winding=winding,
        winding_residual=residual,
        planarity=planarity,
        min_separation=separation,
        radius=radius,
        radius_rms=rms,
        center=tuple(center),
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(
    loop: FourierLoop,
    params: SystemParams,
    diag: LoopDiagnostics | None = None,
    extra: dict | None = None,
) -> dict:
    doc = {
        "params": {
            "n": params.n,
            "d": params.d,
            "alpha": params.alpha,
            "omega": params.omega,
        },
        "cutoff": loop.cutoff,
        "mean": loop.mean.tolist(),
        "cos": loop.cos_coeffs.tolist(),
        "sin": loop.sin_coeffs.tolist(),
        "diagnostics": diag.as_dict() if diag is not None else None,
    }
    if extra:
        doc.update(extra)
    return doc


def loop_from_json(doc: dict) -> tuple[FourierLoop, SystemParams]:
    """The loop and parameters of an orbit document (the layout of
    :func:`to_json_dict`); a missing or ill-typed field raises ValueError
    naming it."""

    def field(obj, path: str, convert):
        key = path.rsplit(".", 1)[-1]
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"orbit document has no field {path!r}")
        try:
            return convert(obj[key])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"orbit document field {path!r} is ill-typed") from None

    p = field(doc, "params", dict)
    params = SystemParams(
        n=field(p, "params.n", int),
        d=field(p, "params.d", int),
        alpha=field(p, "params.alpha", float),
        omega=field(p, "params.omega", float),
    )
    loop = FourierLoop(
        *(field(doc, key, lambda v: np.asarray(v, float)) for key in ("mean", "cos", "sin"))
    )
    if loop.cutoff != field(doc, "cutoff", int):
        raise ValueError("cutoff field does not match coefficient arrays")
    if loop.dim != params.d:
        raise ValueError("loop dimension does not match params.d")
    return loop, params


def samples_csv(
    loop: FourierLoop, params: SystemParams, grid_size: int | None = None
) -> str:
    """CSV of body samples: columns t, then x_1..x_d for every body.  Each
    value is the repr of its Python float; the table is converted once."""
    M = resolve_grid_size(loop.cutoff, params.n, grid_size)
    t = np.arange(M) * (TWO_PI / M)
    bodies = body_samples(loop.sample(M), params.n)  # (n, M, d)
    table = np.concatenate([t[:, None], bodies.transpose(1, 0, 2).reshape(M, -1)], axis=1)
    header = ["t"] + [
        f"b{i}_x{c + 1}" for i in range(params.n) for c in range(params.d)
    ]
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"
