import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from choreo.bounds import (
    bound_chain,
    bound_chain_minimum,
    constrained_power_min,
    jensen_gap,
    kinetic_integral,
    poincare_ratio,
    rayleigh_quotient,
    trig_check,
)
from choreo.loops import FourierLoop, SystemParams
from choreo.spectral import admissible_lambdas, circulant_spectrum
from choreo.verify import random_loop

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Poincare


def test_poincare_first_harmonic_equality():
    cos = np.array([[0.3, -1.1]])
    sin = np.array([[0.7, 0.2]])
    q = FourierLoop(np.zeros(2), cos, sin)
    assert abs(poincare_ratio(q) - 1.0) < 1e-14


def test_poincare_single_second_harmonic():
    cos = np.zeros((2, 1))
    cos[1, 0] = 1.0
    q = FourierLoop(np.zeros(1), cos, np.zeros((2, 1)))
    assert abs(poincare_ratio(q) - 4.0) < 1e-14


def test_poincare_mixed_harmonics_parseval_arithmetic():
    # q = cos t + (1/2) cos 3t: ratio = (1 + 9/4)/(1 + 1/4) = 2.6
    cos = np.zeros((3, 1))
    cos[0, 0] = 1.0
    cos[2, 0] = 0.5
    q = FourierLoop(np.zeros(1), cos, np.zeros((3, 1)))
    assert abs(poincare_ratio(q) - 2.6) < 1e-14


def test_poincare_rejects_mean_and_zero():
    with pytest.raises(ValueError):
        poincare_ratio(FourierLoop(np.ones(2), np.zeros((1, 2)), np.zeros((1, 2))))
    with pytest.raises(ValueError):
        poincare_ratio(FourierLoop.zeros(2, 3))


@given(st.integers(0, 2**32 - 1))
def test_poincare_bound_random(seed):
    rng = np.random.default_rng(seed)
    q = random_loop(rng, SystemParams(n=3), zero_mean=True)
    assert poincare_ratio(q) >= 1.0 - 1e-12


def test_poincare_equality_set_is_first_harmonic():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_loop(rng, SystemParams(n=3), zero_mean=True)
        ratio = poincare_ratio(q)
        higher = float(
            np.sum(q.cos_coeffs[1:] ** 2) + np.sum(q.sin_coeffs[1:] ** 2)
        )
        if higher > 1e-12:
            assert ratio > 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Jensen


def test_jensen_zero_gap_on_circles():
    p = SystemParams(n=4, alpha=1.0)
    for h in (1, 2, 3):
        gap = jensen_gap(FourierLoop.circle(1.2, 1, cutoff=4), p, h)
        assert abs(gap.gap) < 1e-12


def test_jensen_positive_on_ellipse():
    cos = np.zeros((1, 2))
    sin = np.zeros((1, 2))
    cos[0, 0] = 2.0
    sin[0, 1] = 1.0
    p = SystemParams(n=2, alpha=1.0)
    gap = jensen_gap(FourierLoop(np.zeros(2), cos, sin), p, 1)
    assert gap.gap > 1e-3


def test_jensen_scaling_homogeneity(rng):
    p = SystemParams(n=3, alpha=1.5)
    x = random_loop(rng, p)
    lam = 1.7
    g1 = jensen_gap(x, p, 1)
    g2 = jensen_gap(x.scaled(lam), p, 1)
    s = lam ** (-p.alpha)
    assert abs(g2.lhs - s * g1.lhs) < 1e-10 * g1.lhs
    assert abs(g2.rhs - s * g1.rhs) < 1e-10 * g1.rhs


def test_jensen_lag_validation(rng):
    p = SystemParams(n=3, alpha=1.0)
    x = random_loop(rng, p)
    with pytest.raises(ValueError):
        jensen_gap(x, p, 0)
    with pytest.raises(ValueError):
        jensen_gap(x, p, 3)


# ---------------------------------------------------------------------------
# trigonometric estimate


def test_trig_spot_values():
    c = trig_check(2, math.pi / 2)
    assert abs(c.lhs - 2.0) < 1e-14
    assert abs(c.rhs - 4.0) < 1e-14
    c = trig_check(3, math.pi)
    assert abs(c.lhs - 2.0) < 1e-14
    assert abs(c.rhs - 18.0) < 1e-14


def test_trig_margin_grid():
    for k in range(2, 13):
        xs = np.arange(0.01, TWO_PI - 0.005, 0.01)
        margins = k * k * (1 - np.cos(xs)) - (1 - np.cos(k * xs))
        assert np.min(margins) > 0.0


def test_trig_margin_vanishes_at_origin():
    # both sides ~ k^2 x^2 / 2: the margin is o(x^2)
    m1 = trig_check(3, 1e-3).margin
    m2 = trig_check(3, 1e-4).margin
    assert m1 < 1e-8
    assert m2 < m1


def test_trig_validation():
    with pytest.raises(ValueError):
        trig_check(1, 1.0)
    with pytest.raises(ValueError):
        trig_check(2, 0.0)


# ---------------------------------------------------------------------------
# constrained power-sum minimum


def test_power_min_single_variable():
    res = constrained_power_min(np.array([0.4]), beta=1.3)
    assert abs(res.s[0] - 2.5) < 1e-12
    assert abs(res.value - 0.4**1.3) < 1e-12


def test_power_min_symmetric_two_variables():
    res = constrained_power_min(np.array([0.5, 0.5]), beta=1.0)
    assert np.allclose(res.s, [1.0, 1.0], atol=1e-10)
    assert abs(res.phi_value - 2.0) < 1e-10


def test_power_min_reproduces_circle_weights():
    # with the spectral weights and beta = alpha/2 the optimum is the unit
    # circle's pair data and the product-form value is the spectral constant
    spec = circulant_spectrum(4, 1.0)
    res = constrained_power_min(spec.mu_bar, beta=0.5)
    ratio = res.s / spec.xi_bar
    assert np.max(ratio) - np.min(ratio) < 1e-9 * np.max(ratio)
    assert abs(res.phi_value - spec.c) < 1e-10


def test_power_min_stationarity_identity(rng):
    # mu_h = s_h^{-beta-1} / sum s^{-beta} at the constrained optimum
    for _ in range(20):
        K = int(rng.integers(1, 9))
        mu = rng.uniform(0.1, 3.0, K)
        beta = float(rng.uniform(0.2, 3.0))
        res = constrained_power_min(mu, beta)
        assert res.stationarity_residual < 1e-10
        assert abs(float(mu @ res.s) - 1.0) < 1e-10


def test_power_min_beats_random_feasible(rng):
    mu = rng.uniform(0.3, 2.0, 5)
    beta = 0.8
    res = constrained_power_min(mu, beta)
    for _ in range(100):
        raw = rng.uniform(0.05, 3.0, 5)
        feas = raw / float(mu @ raw)
        assert float(np.sum(feas**-beta)) >= res.value - 1e-10


def test_power_min_closed_form_oracle(rng):
    # Lagrange multiplier calculus: s_h proportional to mu_h^{-1/(beta+1)}
    mu = rng.uniform(0.2, 2.5, 6)
    beta = 1.7
    res = constrained_power_min(mu, beta)
    s = mu ** (-1.0 / (beta + 1.0))
    s /= float(mu @ s)
    assert np.allclose(res.s, s, rtol=1e-9)


def test_power_min_stops_within_twenty_iterations():
    # the stopping test is reachable in float arithmetic, so Newton ends
    # after its quadratic tail instead of crawling to the iteration cap
    rng = np.random.default_rng(7)
    for _ in range(300):
        K = int(rng.integers(2, 8))
        mu = rng.uniform(0.1, 3.0, K)
        beta = float(rng.uniform(0.3, 2.5))
        res = constrained_power_min(mu, beta)
        assert res.iters <= 20
        assert res.stationarity_residual < 1e-10


def test_power_min_validation():
    with pytest.raises(ValueError):
        constrained_power_min(np.array([1.0, -0.1]), 1.0)
    with pytest.raises(ValueError):
        constrained_power_min(np.array([1.0]), 0.0)


# ---------------------------------------------------------------------------
# Rayleigh quotient


def test_rayleigh_circle_equality():
    for n in (2, 3, 5, 8):
        p = SystemParams(n=n, alpha=1.0)
        for R in (0.5, 1.0, 2.3):
            J = rayleigh_quotient(FourierLoop.circle(R, 1, cutoff=3), p)
            assert abs(J - math.pi / n) < 1e-12


def test_rayleigh_winding_two_matches_eigenbranch():
    # higher-winding circles realise lambda(l=2, kappa=2)/(2n)
    n = 5
    p = SystemParams(n=n, alpha=1.0)
    spec = circulant_spectrum(n, 1.0)
    J = rayleigh_quotient(FourierLoop.circle(1.0, 2, cutoff=3), p)
    lam = [b for b in admissible_lambdas(spec, 0.0) if b.kappa == 2][0].value
    assert abs(J - lam / (2 * n)) < 1e-12


def test_rayleigh_monte_carlo_bound(rng):
    p = SystemParams(n=5, alpha=1.0)
    strict = 0
    for _ in range(200):
        x = random_loop(rng, p)
        J = rayleigh_quotient(x, p)
        assert J >= math.pi / p.n - 1e-10
        if J > math.pi / p.n + 1e-6:
            strict += 1
    assert strict > 150  # generic loops are strictly above the bound


def test_rayleigh_translation_invariance(rng):
    p = SystemParams(n=4, alpha=1.0)
    x = random_loop(rng, p)
    moved = x.with_mean(x.mean + np.array([2.0, -1.0]))
    assert abs(rayleigh_quotient(x, p) - rayleigh_quotient(moved, p)) < 1e-12


# ---------------------------------------------------------------------------
# the chain


def test_chain_equality_at_optimal_circle():
    for n, alpha in ((3, 1.0), (5, 2.0)):
        p = SystemParams(n=n, alpha=alpha)
        ref = bound_chain_minimum(n, alpha)
        rep = bound_chain(FourierLoop.circle(ref["radius"], 1, cutoff=4), p)
        assert abs(rep.slack_first) < 1e-9
        assert abs(rep.slack_second) < 1e-9
        assert abs(rep.a - ref["value"]) < 1e-9


def test_chain_equality_at_any_circle_radius():
    # the chain is tight on every circle; only the final bound's minimum
    # selects the radius
    p = SystemParams(n=3, alpha=1.0)
    rep = bound_chain(FourierLoop.circle(1.0, 1, cutoff=4), p)
    expected = math.pi + TWO_PI / math.sqrt(3.0)
    assert abs(rep.a - expected) < 1e-12
    assert abs(rep.slack_first) < 1e-10
    assert abs(rep.slack_second) < 1e-10
    ref = bound_chain_minimum(3, 1.0)
    assert rep.a_bar > ref["value"] - 1e-12


def test_chain_strict_on_random_loops(rng):
    p = SystemParams(n=3, alpha=1.0)
    strict = 0
    for _ in range(50):
        x = random_loop(rng, p)
        rep = bound_chain(x, p)
        assert rep.slack_first >= -1e-10
        assert rep.slack_second >= -1e-10
        if rep.slack_first > 1e-6 and rep.slack_second > 1e-6:
            strict += 1
    assert strict > 30


def test_chain_kinetic_term_is_exact(rng):
    p = SystemParams(n=4, alpha=1.0)
    x = random_loop(rng, p)
    from choreo.action import choreography_action

    assert abs(kinetic_integral(x) - choreography_action(x, p).kinetic) < 1e-10


def test_chain_minimum_matches_circle_prediction():
    from choreo.spectral import predicted_circle

    for n, alpha in ((2, 1.0), (3, 1.0), (5, 2.0), (8, 0.5)):
        ref = bound_chain_minimum(n, alpha)
        pred = predicted_circle(n, alpha, 0.0)
        assert abs(ref["radius"] - pred.radius) < 1e-12
        assert abs(ref["value"] - pred.action) < 1e-12


def test_legacy_bound_reported():
    p = SystemParams(n=3, alpha=1.0)
    rep = bound_chain(FourierLoop.circle(1.0, 1, cutoff=4), p)
    assert rep.a_bar_legacy > rep.a_bar  # 2 pi n > pi
