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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .action import GUARD, CollisionError, kinetic_value, rotating_action
from .loops import (
    TWO_PI,
    FourierLoop,
    SystemParams,
    lag_differences,
    pair_square_integrals,
    resolve_grid_size,
)


# ---------------------------------------------------------------------------
# elementary inequalities


def poincare_ratio(q: FourierLoop) -> float:
    """int |q'|^2 / int |q|^2 for a zero-mean loop; >= 1, = 1 iff only the
    first harmonics are present.  Computed exactly from the coefficients."""
    if float(np.max(np.abs(q.mean))) > 1e-12:
        raise ValueError("Poincare ratio requires a zero-mean loop")
    energy = np.sum(q.cos_coeffs**2 + q.sin_coeffs**2, axis=1)
    total = float(np.sum(energy))
    if total <= 0.0:
        raise ValueError("zero loop")
    k2 = np.arange(1, q.cutoff + 1, dtype=float) ** 2
    return float(k2 @ energy) / total


@dataclass(frozen=True)
class JensenGap:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
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
    gap >= 0, and = 0 exactly when the chord length is constant in t.
    """
    if not 1 <= h <= params.n - 1:
        raise ValueError(f"lag h must be in 1..n-1, got {h}")
    M = resolve_grid_size(x.cutoff, params.n, grid_size)
    diff = lag_differences(x.sample(M), params.n)[h - 1]
    r2 = np.sum(diff**2, axis=1)
    sep = math.sqrt(float(np.min(r2)))
    if sep < GUARD:
        raise CollisionError(sep, float(np.argmin(r2)) * TWO_PI / M, h)
    lhs = float(np.mean(r2 ** (-params.alpha / 2.0)))
    xi_h = float(pair_square_integrals(x, params.n)[h - 1])
    rhs = (xi_h / TWO_PI) ** (-params.alpha / 2.0)
    return JensenGap(lhs=lhs, rhs=rhs)


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


def kinetic_integral(x: FourierLoop) -> float:
    """1/2 int |x'|^2 dt, exact from the coefficients."""
    return kinetic_value(x.mean, x.cos_coeffs, x.sin_coeffs, 0.0)


def rayleigh_quotient(x: FourierLoop, params: SystemParams) -> float:
    """J(x) = (1/2 int |x'|^2) / (n sum_h mu_h xi^x_h) >= pi/n.

    The mean cancels in every pair difference and does not enter the
    numerator, so the quotient is translation invariant.  Equality holds
    exactly on circles of winding +-1; higher-winding circles realise the
    corresponding eigenbranch values.
    """
    spec = spectral.circulant_spectrum(params.n, params.alpha, cross_validate=False)
    xi = pair_square_integrals(x, params.n)
    denom = params.n * float(spec.mu_bar @ xi)
    if denom <= 0.0:
        raise ValueError("loop with no pair energy (constant loop?)")
    return kinetic_integral(x) / denom


@dataclass(frozen=True)
class BoundChainReport:
    """A >= A~ >= A- evaluated on one loop, with both slacks.

    ``a_bar_legacy`` re-evaluates the final bound with the uncalibrated
    kinetic coefficient 2 pi n; it is reported only and asserted nowhere.
    """

    a: float
    a_tilde: float
    a_bar: float
    a_bar_legacy: float
    xi: np.ndarray
    y_value: float

    @property
    def slack_first(self) -> float:
        return self.a - self.a_tilde

    @property
    def slack_second(self) -> float:
        return self.a_tilde - self.a_bar

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "a_tilde": self.a_tilde,
            "a_bar": self.a_bar,
            "a_bar_legacy": self.a_bar_legacy,
            "xi": self.xi.tolist(),
            "y_value": self.y_value,
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
    """
    inertial = SystemParams(n=params.n, d=params.d, alpha=params.alpha, omega=0.0)
    a = rotating_action(x, inertial, grid_size=grid_size).total
    spec = spectral.circulant_spectrum(params.n, params.alpha, cross_validate=False)
    xi = pair_square_integrals(x, params.n)
    y = float(spec.mu_bar @ xi)
    kin = kinetic_integral(x)
    a_tilde = kin + spec.c_tilde / y ** (params.alpha / 2.0)
    a_bar = math.pi * y + spec.c_tilde / y ** (params.alpha / 2.0)
    a_bar_legacy = TWO_PI * params.n * y + spec.c_tilde / y ** (params.alpha / 2.0)
    return BoundChainReport(
        a=a, a_tilde=a_tilde, a_bar=a_bar, a_bar_legacy=a_bar_legacy, xi=xi, y_value=y
    )


def bound_chain_minimum(n: int, alpha: float) -> dict:
    """Closed-form minimum of A-: y* = (alpha c~ / 2 pi)^{2/(alpha+2)},
    attained on circles of radius sqrt(y*)."""
    spec = spectral.circulant_spectrum(n, alpha, cross_validate=False)
    y_star = (alpha * spec.c_tilde / TWO_PI) ** (2.0 / (alpha + 2.0))
    value = math.pi * y_star + spec.c_tilde / y_star ** (alpha / 2.0)
    return {"y_star": y_star, "radius": math.sqrt(y_star), "value": value}
