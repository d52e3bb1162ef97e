"""Executable inequality oracles and the lower-bound chain.

Every inequality that feeds the circle certificates is implemented here as a
checkable quantity with an explicit slack, so the optimizer can be validated
against machinery that never touches the descent path:

* Poincare: int |q'|^2 >= int |q|^2 for zero-mean loops, equality exactly on
  first-harmonic loops;
* Jensen, per pair lag h: the time average of 1/r^alpha dominates the
  (-alpha/2) power of the averaged squared distance, equality iff the chord
  is constant in t;
* the trigonometric estimate 1 - cos(k x) < k^2 (1 - cos x) on (0, 2 pi);
* the constrained power-sum minimum: min sum_h s_h^{-beta} subject to
  sum mu_h s_h = 1, solved by damped Newton on the reduced strictly convex
  objective (a closed form exists and is used as the test oracle, never as
  the solver);
* the Rayleigh bound: the single-loop kinetic term dominates pi times the
  weighted pair energy, i.e. J(x) = (1/2 int |x'|^2) / (n sum mu_h xi_h)
  >= pi/n, equality exactly on unit-winding circles.

Chained, they give A(x) >= A~(x) >= A-(x) with

    A~(x) = 1/2 int |x'|^2 + c~ / y^{alpha/2},
    A-(x) = pi y + c~ / y^{alpha/2},           y = sum_h mu_h xi^x_h,

and equality throughout exactly on circles.  The kinetic coefficient pi in
A- is the calibrated constant (the unit circle realises J = pi/n); the
uncalibrated value 2 pi n is reported alongside for traceability but plays
no role in any certificate.

Stacks: each oracle on loops has a ``*_stack`` form over a coefficient
stack (S, 2K + 1, d), the rows mean, a_1..a_K, b_1..b_K of S loops
(:func:`loops.coefficient_rows`), and the one-loop function is its one-row
case, so every formula has one copy.  The chain takes A and its kinetic
term from one :meth:`Objective.evaluate_batch` and xi from one spectrum and
one stacked :func:`loops.pair_square_integrals_stack`.  Each row equals
that loop alone bit for bit: the products are stacks of matrix-vector
products, and the scalar powers of the chain and of the Jensen right side
are taken in Python floats, as an array power may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .action import GUARD, CollisionError, Objective, kinetic_values
from .loops import (
    TWO_PI,
    FourierLoop,
    SystemParams,
    coefficient_rows,
    harmonic_energy,
    lag_distances,
    pair_square_integrals_stack,
    resolve_grid_size,
    sample_basis,
)


def _stack(x: FourierLoop) -> np.ndarray:
    """One loop as a one-row coefficient stack (1, 2K + 1, d)."""
    return coefficient_rows(x)[None]


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent element by element in Python floats, so each
    equals the scalar power of that value alone (an array power may take a
    vector path that differs in the last bit)."""
    return np.array([v**exponent for v in values.tolist()])


# ---------------------------------------------------------------------------
# elementary inequalities


def poincare_ratio(q: FourierLoop) -> float:
    """int |q'|^2 / int |q|^2 for a zero-mean loop; >= 1, = 1 iff only the
    first harmonics are present.  Computed exactly from the coefficients;
    the one-row case of :func:`poincare_ratio_stack`."""
    return float(poincare_ratio_stack(_stack(q))[0])


def poincare_ratio_stack(coeffs: np.ndarray) -> np.ndarray:
    """:func:`poincare_ratio` of each loop of a coefficient stack
    (S, 2K + 1, d), shape (S,); raises if any loop has a mean or is zero."""
    if float(np.max(np.abs(coeffs[:, 0]))) > 1e-12:
        raise ValueError("Poincare ratio requires a zero-mean loop")
    energy = harmonic_energy(coeffs)
    total = np.sum(energy, axis=-1)
    if np.any(total <= 0.0):
        raise ValueError("zero loop")
    k2 = np.arange(1, energy.shape[-1] + 1, dtype=float) ** 2
    return (energy[:, None, :] @ k2[:, None])[:, 0, 0] / total


@dataclass(frozen=True)
class JensenGap:
    """The two sides of the Jensen inequality: floats for one loop, arrays
    over the rows for a stack."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
    def gap(self) -> float | np.ndarray:
        return self.lhs - self.rhs


def jensen_gap(
    x: FourierLoop,
    params: SystemParams,
    h: int,
    grid_size: int | None = None,
) -> JensenGap:
    """Convexity gap for pair lag h.

    lhs = (1/2pi) int dt / |x(t) - x(t+h tau)|^alpha,
    rhs = ((1/2pi) int |x - x_h|^2)^{-alpha/2};
    gap >= 0, and = 0 exactly when the chord length is constant in t.  The
    one-row case of :func:`jensen_gap_stack`.
    """
    gap = jensen_gap_stack(_stack(x), params, h, grid_size)
    return JensenGap(lhs=float(gap.lhs[0]), rhs=float(gap.rhs[0]))


def jensen_gap_stack(
    coeffs: np.ndarray, params: SystemParams, h: int, grid_size: int | None = None
) -> JensenGap:
    """:func:`jensen_gap` of each loop of a coefficient stack (S, 2K + 1, d):
    lhs and rhs of shape (S,), each row equal to that loop alone bit for
    bit.  Raises :class:`CollisionError` for the first row closer than
    ``GUARD`` at lag h."""
    if not 1 <= h <= params.n - 1:
        raise ValueError(f"lag h must be in 1..n-1, got {h}")
    K = coeffs.shape[-2] // 2
    M = resolve_grid_size(K, params.n, grid_size)
    r2 = lag_distances(sample_basis(K, M) @ coeffs, params.n, h)[1][:, 0]
    sep = np.sqrt(r2.min(axis=-1))
    if np.any(sep < GUARD):
        row = int(np.argmax(sep < GUARD))
        raise CollisionError(float(sep[row]), float(np.argmin(r2[row])) * TWO_PI / M, h)
    lhs = np.mean(r2 ** (-params.alpha / 2.0), axis=-1)
    xi_h = pair_square_integrals_stack(coeffs, params.n)[:, h - 1]
    return JensenGap(lhs=lhs, rhs=_powers(xi_h / TWO_PI, -params.alpha / 2.0))


@dataclass(frozen=True)
class TrigCheck:
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def trig_check(k: int, x: float) -> TrigCheck:
    """1 - cos(k x) < k^2 (1 - cos x) for integer k >= 2 and x in (0, 2 pi)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 0.0 < x < TWO_PI:
        raise ValueError("x must lie in the open interval (0, 2 pi)")
    return TrigCheck(lhs=1.0 - math.cos(k * x), rhs=k * k * (1.0 - math.cos(x)))


# ---------------------------------------------------------------------------
# constrained power-sum minimum


@dataclass(frozen=True)
class PowerMinResult:
    s: np.ndarray
    value: float  # sum 1/s_h^beta at the constrained optimum
    phi_value: float  # minimum of the scale-invariant product form (equal)
    stationarity_residual: float
    iters: int


# Relative gradient at which the power-sum Newton iteration stops, and its
# iteration cap.
_POWER_TOL = 1e-12
_POWER_MAX_ITERS = 200


def constrained_power_min(mu, beta: float) -> PowerMinResult:
    """Minimise sum_h s_h^{-beta} subject to sum_h mu_h s_h = 1, s_h > 0.

    The constraint eliminates the last variable; the reduced objective

        f(s_1..s_{K-1}) = sum_h s_h^{-beta}
                          + mu_K^beta (1 - sum_h mu_h s_h)^{-beta}

    is strictly convex and coercive on its open feasible simplex, so damped
    Newton with feasibility backtracking converges to the unique minimum.
    The stationarity relation mu_h = s_h^{-beta-1} / sum_g s_g^{-beta}
    (at constraint value 1) is returned as a residual; the scale-invariant
    product form attains the same minimum value, by homogeneity.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise ValueError("mu must be a nonempty 1-d array")
    if np.any(mu <= 0.0):
        raise ValueError("all mu entries must be positive")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    K = mu.size

    if K == 1:
        s = np.array([1.0 / mu[0]])
        val = float(mu[0] ** beta)
        return PowerMinResult(s, val, val, 0.0, 0)

    muN, muK = mu[:-1], mu[-1]

    def split(u):
        sK = (1.0 - muN @ u) / muK
        return sK

    def value(u):
        sK = split(u)
        return float(np.sum(u**-beta) + sK**-beta)

    def grad_hess(u):
        sK = split(u)
        g = -beta * u ** (-beta - 1.0) + beta * sK ** (-beta - 1.0) * muN / muK
        Hd = beta * (beta + 1.0) * u ** (-beta - 2.0)
        w = beta * (beta + 1.0) * sK ** (-beta - 2.0) / muK**2
        H = np.diag(Hd) + w * np.outer(muN, muN)
        return g, H

    u = 1.0 / (K * muN)  # interior start: constraint sum = (K-1)/K < 1
    f = value(u)
    iters = 0
    for iters in range(1, _POWER_MAX_ITERS + 1):
        g, H = grad_hess(u)
        gnorm = float(np.linalg.norm(g))
        # a relative gradient of _POWER_TOL is reachable in float arithmetic; any
        # tighter and the line search accepts rounding-level moves up to the cap
        if gnorm < _POWER_TOL * max(1.0, abs(f)):
            break
        step = np.linalg.solve(H, -g)
        t = 1.0
        moved = False
        while t > 1e-18:
            cand = u + t * step
            if np.all(cand > 0.0) and muN @ cand < 1.0:
                fc = value(cand)
                if fc <= f + 1e-4 * t * float(g @ step) + 1e-15 * abs(f):
                    moved = not np.array_equal(cand, u)
                    u, f = cand, fc
                    break
            t *= 0.5
        if not moved:
            break

    s = np.concatenate([u, [split(u)]])
    inv_sum = float(np.sum(s**-beta))
    # stationarity of the product form at constraint value 1
    resid = float(np.max(np.abs(mu - s ** (-beta - 1.0) / inv_sum)) / np.max(mu))
    return PowerMinResult(
        s=s,
        value=inv_sum,
        phi_value=inv_sum * float(mu @ s) ** beta,
        stationarity_residual=resid,
        iters=iters,
    )


# ---------------------------------------------------------------------------
# Rayleigh quotient and the chain


def _pair_energy(coeffs: np.ndarray, params: SystemParams):
    """(spectrum, xi, y) of a coefficient stack: the pair square integrals
    xi (S, n-1) and y = sum_h mu_h xi_h (S,), from one spectrum."""
    spec = spectral.circulant_spectrum(params.n, params.alpha, cross_validate=False)
    xi = pair_square_integrals_stack(coeffs, params.n)
    return spec, xi, (xi[:, None, :] @ spec.mu_bar[:, None])[:, 0, 0]


def _rayleigh(kinetic: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """J = kinetic / (n y), row by row."""
    denom = n * y
    if np.any(denom <= 0.0):
        raise ValueError("loop with no pair energy (constant loop?)")
    return kinetic / denom


def rayleigh_quotient(x: FourierLoop, params: SystemParams) -> float:
    """J(x) = (1/2 int |x'|^2) / (n sum_h mu_h xi^x_h) >= pi/n.

    The mean cancels in every pair difference and does not enter the
    numerator, so the quotient is translation invariant.  Equality holds
    exactly on circles of winding +-1; higher-winding circles realise the
    corresponding eigenbranch values.  The one-row case of
    :func:`rayleigh_quotient_stack`.
    """
    return float(rayleigh_quotient_stack(_stack(x), params)[0])


def rayleigh_quotient_stack(coeffs: np.ndarray, params: SystemParams) -> np.ndarray:
    """:func:`rayleigh_quotient` of each loop of a coefficient stack
    (S, 2K + 1, d), shape (S,).  Only the kinetic stage runs: no sampling
    and no collision guard."""
    _, _, y = _pair_energy(coeffs, params)
    kinetic = kinetic_values(coeffs.reshape(len(coeffs), -1), coeffs.shape[-1], 0.0)
    return _rayleigh(kinetic, y, params.n)


@dataclass(frozen=True)
class BoundChainReport:
    """A >= A~ >= A- evaluated on one loop, with both slacks, and the
    Rayleigh quotient J of the same kinetic term; floats for one loop,
    arrays over the rows for a stack (``xi`` then (S, n-1)).

    ``a_bar_legacy`` re-evaluates the final bound with the uncalibrated
    kinetic coefficient 2 pi n; it is reported only and asserted nowhere.
    """

    a: float | np.ndarray
    a_tilde: float | np.ndarray
    a_bar: float | np.ndarray
    a_bar_legacy: float | np.ndarray
    xi: np.ndarray
    y_value: float | np.ndarray
    rayleigh: float | np.ndarray

    @property
    def slack_first(self) -> float | np.ndarray:
        return self.a - self.a_tilde

    @property
    def slack_second(self) -> float | np.ndarray:
        return self.a_tilde - self.a_bar

    def row(self, i: int) -> "BoundChainReport":
        """The report of row i of a stack, with float fields."""
        return BoundChainReport(
            **{k: v[i] if k == "xi" else float(v[i]) for k, v in vars(self).items()}
        )

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "a_tilde": self.a_tilde,
            "a_bar": self.a_bar,
            "a_bar_legacy": self.a_bar_legacy,
            "xi": self.xi.tolist(),
            "y_value": self.y_value,
            "rayleigh": self.rayleigh,
            "slack_first": self.slack_first,
            "slack_second": self.slack_second,
        }


def bound_chain(
    x: FourierLoop, params: SystemParams, grid_size: int | None = None
) -> BoundChainReport:
    """Evaluate the full chain on one loop (inertial action).

    A  : kinetic + pair potential by quadrature;
    A~ : Jensen + product-form minimum applied to the potential;
    A- : Rayleigh bound applied to the kinetic term as well.

    The one-row case of :func:`bound_chain_stack`.
    """
    return bound_chain_stack(_stack(x), params, grid_size).row(0)


def bound_chain_stack(
    coeffs: np.ndarray, params: SystemParams, grid_size: int | None = None
) -> BoundChainReport:
    """:func:`bound_chain` of each loop of a coefficient stack (S, 2K + 1, d):
    a report of arrays over the rows, each row equal to that loop alone bit
    for bit.  A and the kinetic term come from one
    :meth:`Objective.evaluate_batch` at the inertial frame; raises
    :class:`CollisionError` for the first colliding row."""
    S, _, d = coeffs.shape
    if d != params.d:
        raise ValueError("loop dimension does not match the objective")
    inertial = SystemParams(n=params.n, d=d, alpha=params.alpha, omega=0.0)
    obj = Objective(inertial, coeffs.shape[1] // 2, grid_size)
    vecs = coeffs.reshape(S, -1)
    evs = obj.evaluate_batch(vecs)
    for vec, ev in zip(vecs, evs):
        if ev is None:
            obj.evaluate(vec)  # raises the row's CollisionError
    spec, xi, y = _pair_energy(coeffs, params)
    kinetic = np.array([ev.kinetic for ev in evs])
    potential = spec.c_tilde / _powers(y, params.alpha / 2.0)
    return BoundChainReport(
        a=np.array([ev.value for ev in evs]),
        a_tilde=kinetic + potential,
        a_bar=math.pi * y + potential,
        a_bar_legacy=TWO_PI * params.n * y + potential,
        xi=xi,
        y_value=y,
        rayleigh=_rayleigh(kinetic, y, params.n),
    )


def bound_chain_minimum(n: int, alpha: float) -> dict:
    """Closed-form minimum of A-: y* = (alpha c~ / 2 pi)^{2/(alpha+2)},
    attained on circles of radius sqrt(y*)."""
    spec = spectral.circulant_spectrum(n, alpha, cross_validate=False)
    y_star = (alpha * spec.c_tilde / TWO_PI) ** (2.0 / (alpha + 2.0))
    value = math.pi * y_star + spec.c_tilde / y_star ** (alpha / 2.0)
    return {"y_star": y_star, "radius": math.sqrt(y_star), "value": value}
