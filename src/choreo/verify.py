"""Seeded verification suites behind ``choreo verify``.

Three suites, each a list of named checks with pass/fail and a detail
string:

* ``spectral``     -- eigenvalue identities, dense-matrix agreement,
                      multiplicity pattern, eigenvector residuals, weight
                      normalisation and the chord-sum identity, swept over
                      n = 2..50 and four exponents, one array pass per n;
                      the dense matrices are built entry-wise from the
                      weights and solved densely, and the multiplicities
                      are counted from the eigenvectors themselves;
* ``inequalities`` -- Poincare, Jensen, the trigonometric estimate and the
                      constrained power-sum stationarity on seeded random
                      data;
* ``chain``        -- A >= A~ >= A- with nonnegative slacks on random
                      collision-free loops, the Rayleigh bound, and the
                      equality certificates on circles.

The random loops are drawn one after another, in the order of
:func:`random_loop`, as coefficient rows (2K + 1, d) without building a
``FourierLoop``, and each group of loops (one (n, alpha), or one
(n, alpha, h) for Jensen) is bounded as one coefficient stack through the
stacked forms of :mod:`bounds`; the 100 feasible points of a power-sum
problem are one (100, K) draw.  Groups are drawn and bounded in chunks of
at most _CHUNK loops, so memory does not grow with ``seeds``, which is
capped at MAX_SEEDS.

All randomness is seeded; a fixed seed gives bitwise identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, spectral
from .loops import (
    FourierLoop,
    SystemParams,
    grid_separation,
    resolve_grid_size,
    sample_basis,
    unpack_coefficients,
)

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


def _draw(rng: np.random.Generator, params: SystemParams, cutoff: int, zero_mean: bool):
    """One :func:`random_loop` as coefficient rows (2K + 1, d), no loop built:
    winding, radius, cos noise, sin noise, then the mean are drawn."""
    d = params.d
    decay = np.arange(1, cutoff + 1, dtype=float)[:, None] ** -1.5
    basis = sample_basis(cutoff, resolve_grid_size(cutoff, params.n, None))
    for attempt in range(_MAX_TRIES):
        amp = _NOISE * (0.7**attempt)
        winding = 1 if rng.integers(0, 2) else -1
        radius = float(rng.uniform(0.6, 1.4))
        rows = np.zeros((2 * cutoff + 1, d))
        # the circle R (cos t, winding sin t) in the first two coordinates
        rows[1, 0], rows[cutoff + 1, 1] = radius, winding * radius
        rows[1 : cutoff + 1] += amp * decay * rng.standard_normal((cutoff, d))
        rows[cutoff + 1 :] += amp * decay * rng.standard_normal((cutoff, d))
        if not zero_mean:
            rows[0] = 0.2 * amp * rng.standard_normal(d)
        if grid_separation(basis @ rows, params.n) > _MIN_SEP:
            return rows
    raise RuntimeError("could not draw a collision-free random loop")


def random_loop(
    rng: np.random.Generator,
    params: SystemParams,
    cutoff: int = 6,
    zero_mean: bool = False,
) -> FourierLoop:
    """Collision-free random loop: a unit circle plus decaying noise.

    The base winding is +-1 so the loop stays separated for moderate noise;
    retries shrink the noise if a near-collision slips through.  The
    one-draw case of the suites' draws.
    """
    return unpack_coefficients(_draw(rng, params, cutoff, zero_mean).ravel(), params.d, cutoff)


# Largest number of seeded draws a run may ask for, and the most loops drawn
# and bounded as one stack, so memory does not grow with the count.
MAX_SEEDS = 100_000
_CHUNK = 256


def _stacks(rng, params: SystemParams, count: int, zero_mean: bool = False):
    """``count`` successive draws (cutoff 6) in stacks of at most _CHUNK."""
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        yield np.array([_draw(rng, params, 6, zero_mean) for _ in range(size)])


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
        # one pass per n: the four exponents are stacked along axis 0
        specs = [spectral.circulant_spectrum(n, a, cross_validate=False) for a in alphas]
        deltas = np.array([spec.deltas for spec in specs])
        ls = np.arange(n // 2 + 1)
        bound_ok &= bool(np.all(deltas[:, 0] == 0.0))
        bound_ok &= bool(np.all(deltas[:, 2:] < ls[2:] ** 2 / TWO_PI))
        worst_delta1 = max(worst_delta1, float(np.max(np.abs(deltas[:, 1] - 1.0 / TWO_PI))))
        dense = np.array([spectral.dense_operator(spec.mu_bar, n) for spec in specs])
        ev = np.sort(np.linalg.eigvalsh(dense), axis=-1)
        closed = np.sort([np.repeat(sp.deltas, sp.multiplicities) for sp in specs], axis=-1)
        worst_dense = max(worst_dense, float(np.max(np.abs(ev - closed))))
        # columns: the cos, then the sin eigenvector of each l; the
        # multiplicity of delta_l counts its columns that do not vanish
        phase = TWO_PI * np.arange(n)[:, None] * ls / n
        V = np.concatenate((np.cos(phase), np.sin(phase)), axis=1)
        norms = np.linalg.norm(V, axis=0)
        keep = norms >= 1e-9
        V, norms, col_l = V[:, keep], norms[keep], np.concatenate((ls, ls))[keep]
        counts = tuple(np.bincount(col_l, minlength=n // 2 + 1).tolist())
        mult_ok &= all(counts == spec.multiplicities for spec in specs)
        resid = np.linalg.norm(dense @ V - V * deltas[:, None, col_l], axis=1)
        worst_vec = max(worst_vec, float(np.max(resid / norms)))
        for alpha, spec in zip(alphas, specs):
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
        ("multiplicity_pattern", mult_ok, "eigenvectors per l: 1, 2, ..., 2 (1 at n/2)"),
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

    # Poincare on zero-mean loops
    worst = math.inf
    for coeffs in _stacks(rng, SystemParams(n=3, d=2), seeds, zero_mean=True):
        worst = min(worst, float(np.min(bounds.poincare_ratio_stack(coeffs))))

    # Jensen per lag: each chunk's draws in order, bounded per (n, alpha, h)
    worst_gap = math.inf
    for start in range(0, seeds, _CHUNK):
        groups: dict[tuple, list] = {}
        for _ in range(min(_CHUNK, seeds - start)):
            n = int(rng.integers(2, 7))
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            p = SystemParams(n=n, d=2, alpha=alpha)
            x = _draw(rng, p, 6, False)
            groups.setdefault((p, int(rng.integers(1, n))), []).append(x)
        for (p, h), xs in groups.items():
            gap = bounds.jensen_gap_stack(np.array(xs), p, h).gap
            worst_gap = min(worst_gap, float(np.min(gap)))

    # trigonometric estimate on a grid
    xs = np.arange(0.01, TWO_PI - 0.005, 0.01)
    worst_margin = math.inf
    for k in range(2, 13):
        margins = k * k * (1.0 - np.cos(xs)) - (1.0 - np.cos(k * xs))
        worst_margin = min(worst_margin, float(np.min(margins)))

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
        # 100 random feasible points, one per row
        raw = rng.uniform(0.05, 3.0, size=(100, K))
        feas = raw / (raw[:, None, :] @ mu[:, None])[:, 0]
        worst_gap2 = min(worst_gap2, float(np.min(np.sum(feas**-beta, axis=-1) - res.value)))
    checks = [
        ("poincare", worst >= 1.0 - 1e-12, f"min ratio over {seeds} loops = {worst:.12f}"),
        ("jensen", worst_gap >= -1e-10, f"min gap over {seeds} draws = {worst_gap:.3e}"),
        ("trig", worst_margin > 0.0, f"min margin on the grid = {worst_margin:.3e}"),
        (
            "power_min_stationarity",
            worst_stat < 1e-10,
            f"max stationarity residual = {worst_stat:.3e}",
        ),
        (
            "power_min_closed_form",
            worst_closed < 1e-9,
            f"max deviation from the closed form = {worst_closed:.3e}",
        ),
        (
            "power_min_beats_random",
            worst_gap2 >= -1e-10,
            f"min (random feasible - optimum) = {worst_gap2:.3e}",
        ),
    ]
    return [CheckOutcome("inequalities", name, ok, d) for name, ok, d in checks]


# ---------------------------------------------------------------------------
# chain suite


def suite_chain(seeds: int = 200, seed: int = 1) -> list[CheckOutcome]:
    rng = np.random.default_rng(seed)
    worst_first = math.inf
    worst_second = math.inf
    worst_rayleigh = math.inf
    worst_eq = 0.0
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, d=2, alpha=alpha)
            for coeffs in _stacks(rng, p, max(seeds // 12, 4)):
                rep = bounds.bound_chain_stack(coeffs, p)
                worst_first = min(worst_first, float(np.min(rep.slack_first)))
                worst_second = min(worst_second, float(np.min(rep.slack_second)))
                worst_rayleigh = min(worst_rayleigh, float(np.min(rep.rayleigh - math.pi / n)))
            # equality certificates on the circles R (cos t, sin t), cutoff 4,
            # of optimal and non-optimal radii
            circles = np.zeros((3, 9, 2))
            circles[:, 1, 0] = circles[:, 5, 1] = (
                bounds.bound_chain_minimum(n, alpha)["radius"], 1.0, 1.7
            )
            rep = bounds.bound_chain_stack(circles, p)
            worst_eq = max(worst_eq, float(np.max(np.abs((rep.slack_first, rep.slack_second)))))
    checks = [
        ("ordering_first", worst_first >= -1e-10, f"min slack A - A~ = {worst_first:.3e}"),
        ("ordering_second", worst_second >= -1e-10, f"min slack A~ - A- = {worst_second:.3e}"),
        ("rayleigh_bound", worst_rayleigh >= -1e-10, f"min J - pi/n = {worst_rayleigh:.3e}"),
        ("circle_equality", worst_eq < 1e-9, f"max |slack| on circles = {worst_eq:.3e}"),
    ]
    return [CheckOutcome("chain", name, ok, d) for name, ok, d in checks]


SUITES = {
    "spectral": lambda seeds: suite_spectral(),
    "inequalities": lambda seeds: suite_inequalities(seeds=seeds),
    "chain": lambda seeds: suite_chain(seeds=seeds),
}


def run_suites(names, seeds: int = 200) -> tuple[list[CheckOutcome], bool]:
    # a check over no draws would pass on nothing
    if not 1 <= seeds <= MAX_SEEDS:
        raise ValueError(f"seeds must lie in 1..{MAX_SEEDS}, got {seeds}")
    if "all" in names:
        names = list(SUITES)
    results: list[CheckOutcome] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](seeds))
    return results, all(r.passed for r in results)
