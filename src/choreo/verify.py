"""Seeded verification suites behind ``choreo verify``.

Three suites, each a list of named checks with pass/fail and a detail
string:

* ``spectral``     -- eigenvalue identities, dense-matrix agreement,
                      multiplicity pattern, eigenvector residuals, weight
                      normalisation and the chord-sum identity, swept over
                      n = 2..50 and four exponents;
* ``inequalities`` -- Poincare, Jensen, the trigonometric estimate and the
                      constrained power-sum stationarity on seeded random
                      data;
* ``chain``        -- A >= A~ >= A- with nonnegative slacks on random
                      collision-free loops, the Rayleigh bound, and the
                      equality certificates on circles.

All randomness is seeded; a fixed seed gives bitwise identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, spectral
from .loops import FourierLoop, SystemParams, min_separation

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckOutcome:
    suite: str
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# random loop generation


# Noise amplitude of a random loop, the separation it must keep, and the
# draws (each with 0.7 times the noise of the last) before giving up.
_NOISE = 0.35
_MIN_SEP = 1e-3
_MAX_TRIES = 64


def random_loop(
    rng: np.random.Generator,
    params: SystemParams,
    cutoff: int = 6,
    zero_mean: bool = False,
) -> FourierLoop:
    """Collision-free random loop: a unit circle plus decaying noise.

    The base winding is +-1 so the loop stays separated for moderate noise;
    retries shrink the noise if a near-collision slips through.
    """
    for attempt in range(_MAX_TRIES):
        amp = _NOISE * (0.7**attempt)
        winding = 1 if rng.integers(0, 2) else -1
        radius = float(rng.uniform(0.6, 1.4))
        loop = FourierLoop.circle(radius, winding, dim=params.d, cutoff=cutoff)
        k = np.arange(1, cutoff + 1, dtype=float)[:, None]
        decay = k**-1.5
        cos = loop.cos_coeffs + amp * decay * rng.standard_normal((cutoff, params.d))
        sin = loop.sin_coeffs + amp * decay * rng.standard_normal((cutoff, params.d))
        mean = (
            np.zeros(params.d)
            if zero_mean
            else 0.2 * amp * rng.standard_normal(params.d)
        )
        loop = FourierLoop(mean, cos, sin)
        if min_separation(loop, params) > _MIN_SEP:
            return loop
    raise RuntimeError("could not draw a collision-free random loop")


# ---------------------------------------------------------------------------
# spectral suite


# Largest n of the spectral suite.
_SPECTRAL_MAX_N = 50


def suite_spectral() -> list[CheckOutcome]:
    alphas = (0.5, 1.0, 2.0, 3.0)
    worst_delta1 = 0.0
    worst_dense = 0.0
    worst_vec = 0.0
    worst_weight = 0.0
    worst_chord = 0.0
    bound_ok = True
    mult_ok = True
    for n in range(2, _SPECTRAL_MAX_N + 1):
        for alpha in alphas:
            spec = spectral.circulant_spectrum(n, alpha, cross_validate=False)
            worst_delta1 = max(worst_delta1, abs(spec.deltas[1] - 1.0 / TWO_PI))
            if spec.deltas[0] != 0.0:
                bound_ok = False
            for l in range(2, n // 2 + 1):
                if not spec.deltas[l] < l * l / TWO_PI:
                    bound_ok = False
            if spec.multiplicities != spectral._multiplicities(n):
                mult_ok = False
            dense = spectral.dense_operator(spec.mu_bar, n)
            ev = np.sort(np.linalg.eigvalsh(dense))
            closed = np.sort(np.repeat(spec.deltas, spec.multiplicities))
            worst_dense = max(worst_dense, float(np.max(np.abs(ev - closed))))
            i = np.arange(n)
            for l in range(1, n // 2 + 1):
                for vec in (np.cos(TWO_PI * i * l / n), np.sin(TWO_PI * i * l / n)):
                    if np.linalg.norm(vec) < 1e-9:
                        continue
                    resid = dense @ vec - spec.deltas[l] * vec
                    worst_vec = max(
                        worst_vec,
                        float(np.linalg.norm(resid) / np.linalg.norm(vec)),
                    )
            worst_weight = max(
                worst_weight, abs(float(spec.mu_bar @ spec.xi_bar) - 1.0)
            )
            worst_chord = max(
                worst_chord,
                abs(spec.c_tilde - spectral.chord_sum(n, alpha, 1))
                / max(spec.c_tilde, 1.0),
            )
    checks = [
        ("delta0_zero_delta_bound", bound_ok, "delta_0 = 0 and delta_l < l^2/(2 pi)"),
        (
            "delta1_value",
            worst_delta1 < 1e-12,
            f"max |delta_1 - 1/(2 pi)| = {worst_delta1:.3e}",
        ),
        (
            "dense_matrix_agreement",
            worst_dense < 1e-10,
            f"max closed-form vs dense deviation = {worst_dense:.3e}",
        ),
        ("multiplicity_pattern", mult_ok, "1, 2, ..., 2 (+1 at n/2 for even n)"),
        (
            "eigenvector_residual",
            worst_vec < 1e-10,
            f"max |D v - delta v| / |v| = {worst_vec:.3e}",
        ),
        (
            "weight_normalisation",
            worst_weight < 1e-12,
            f"max |sum mu xi - 1| = {worst_weight:.3e}",
        ),
        (
            "chord_sum_identity",
            worst_chord < 1e-12,
            f"max relative |c~ - pi sum (2 sin)^(-alpha)| = {worst_chord:.3e}",
        ),
    ]
    return [CheckOutcome("spectral", n_, bool(ok), d) for n_, ok, d in checks]


# ---------------------------------------------------------------------------
# inequality suite


def suite_inequalities(seeds: int = 200, seed: int = 0) -> list[CheckOutcome]:
    rng = np.random.default_rng(seed)
    out: list[CheckOutcome] = []

    # Poincare on zero-mean loops
    worst = math.inf
    params = SystemParams(n=3, d=2)
    for _ in range(seeds):
        q = random_loop(rng, params, zero_mean=True)
        worst = min(worst, bounds.poincare_ratio(q))
    out.append(
        CheckOutcome(
            "inequalities",
            "poincare",
            worst >= 1.0 - 1e-12,
            f"min ratio over {seeds} loops = {worst:.12f}",
        )
    )

    # Jensen per lag
    worst_gap = math.inf
    for _ in range(seeds):
        n = int(rng.integers(2, 7))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        p = SystemParams(n=n, d=2, alpha=alpha)
        x = random_loop(rng, p)
        h = int(rng.integers(1, n))
        worst_gap = min(worst_gap, bounds.jensen_gap(x, p, h).gap)
    out.append(
        CheckOutcome(
            "inequalities",
            "jensen",
            worst_gap >= -1e-10,
            f"min gap over {seeds} draws = {worst_gap:.3e}",
        )
    )

    # trigonometric estimate on a grid
    xs = np.arange(0.01, TWO_PI - 0.005, 0.01)
    worst_margin = math.inf
    for k in range(2, 13):
        margins = k * k * (1.0 - np.cos(xs)) - (1.0 - np.cos(k * xs))
        worst_margin = min(worst_margin, float(np.min(margins)))
    out.append(
        CheckOutcome(
            "inequalities",
            "trig",
            worst_margin > 0.0,
            f"min margin on the grid = {worst_margin:.3e}",
        )
    )

    # constrained power-sum: stationarity + closed-form + random feasible
    worst_stat = 0.0
    worst_gap2 = math.inf
    worst_closed = 0.0
    for _ in range(max(seeds // 10, 5)):
        K = int(rng.integers(1, 8))
        mu = rng.uniform(0.2, 2.0, size=K)
        beta = float(rng.uniform(0.3, 2.5))
        res = bounds.constrained_power_min(mu, beta)
        worst_stat = max(worst_stat, res.stationarity_residual)
        s_closed = mu ** (-1.0 / (beta + 1.0))
        s_closed /= mu @ s_closed
        worst_closed = max(
            worst_closed, float(np.max(np.abs(s_closed - res.s)) / np.max(s_closed))
        )
        for _ in range(100):
            raw = rng.uniform(0.05, 3.0, size=K)
            feas = raw / (mu @ raw)
            worst_gap2 = min(worst_gap2, float(np.sum(feas**-beta)) - res.value)
    out.append(
        CheckOutcome(
            "inequalities",
            "power_min_stationarity",
            worst_stat < 1e-10,
            f"max stationarity residual = {worst_stat:.3e}",
        )
    )
    out.append(
        CheckOutcome(
            "inequalities",
            "power_min_closed_form",
            worst_closed < 1e-9,
            f"max deviation from the closed form = {worst_closed:.3e}",
        )
    )
    out.append(
        CheckOutcome(
            "inequalities",
            "power_min_beats_random",
            worst_gap2 >= -1e-10,
            f"min (random feasible - optimum) = {worst_gap2:.3e}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# chain suite


def suite_chain(seeds: int = 200, seed: int = 1) -> list[CheckOutcome]:
    rng = np.random.default_rng(seed)
    out: list[CheckOutcome] = []
    worst_first = math.inf
    worst_second = math.inf
    worst_rayleigh = math.inf
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, d=2, alpha=alpha)
            for _ in range(max(seeds // 12, 4)):
                x = random_loop(rng, p)
                rep = bounds.bound_chain(x, p)
                worst_first = min(worst_first, rep.slack_first)
                worst_second = min(worst_second, rep.slack_second)
                worst_rayleigh = min(
                    worst_rayleigh, bounds.rayleigh_quotient(x, p) - math.pi / n
                )
    out.append(
        CheckOutcome(
            "chain",
            "ordering_first",
            worst_first >= -1e-10,
            f"min slack A - A~ = {worst_first:.3e}",
        )
    )
    out.append(
        CheckOutcome(
            "chain",
            "ordering_second",
            worst_second >= -1e-10,
            f"min slack A~ - A- = {worst_second:.3e}",
        )
    )
    out.append(
        CheckOutcome(
            "chain",
            "rayleigh_bound",
            worst_rayleigh >= -1e-10,
            f"min J - pi/n = {worst_rayleigh:.3e}",
        )
    )

    # equality certificates on circles (optimal and non-optimal radii)
    worst_eq = 0.0
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, d=2, alpha=alpha)
            r_star = bounds.bound_chain_minimum(n, alpha)["radius"]
            for radius in (r_star, 1.0, 1.7):
                circle = FourierLoop.circle(radius, 1, dim=2, cutoff=4)
                rep = bounds.bound_chain(circle, p)
                worst_eq = max(worst_eq, abs(rep.slack_first), abs(rep.slack_second))
    out.append(
        CheckOutcome(
            "chain",
            "circle_equality",
            worst_eq < 1e-9,
            f"max |slack| on circles = {worst_eq:.3e}",
        )
    )
    return out


SUITES = {
    "spectral": lambda seeds: suite_spectral(),
    "inequalities": lambda seeds: suite_inequalities(seeds=seeds),
    "chain": lambda seeds: suite_chain(seeds=seeds),
}


def run_suites(names, seeds: int = 200) -> tuple[list[CheckOutcome], bool]:
    if "all" in names:
        names = list(SUITES)
    results: list[CheckOutcome] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](seeds))
    return results, all(r.passed for r in results)
