import math
from math import gcd

import numpy as np
import pytest

from choreo.spectral import (
    CONTINUUM_OMEGA_N,
    INERTIAL_CIRCLE,
    INF_NOT_ATTAINED_CLUSTER,
    NO_MINIMUM_COPRIME_INT,
    NONRIGID_WINDING_K,
    ROTATING_CIRCLE,
    UNDETERMINED,
    admissible_lambdas,
    chord_sum,
    circle_radius_for_winding,
    circulant_spectrum,
    classify,
    dense_operator,
    kepler_circle,
    min2_check,
    omega_star,
    predicted_circle,
    restricted_circle_action,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# circulant spectrum


def test_three_body_alpha_one_closed_forms():
    spec = circulant_spectrum(3, 1.0)
    assert np.allclose(spec.xi_bar, [6 * math.pi, 6 * math.pi], atol=1e-12)
    assert abs(spec.c - 2.0 / math.sqrt(6 * math.pi)) < 1e-14
    assert abs(spec.deltas[1] - 1.0 / TWO_PI) < 1e-14


def test_two_bodies_single_distance_class():
    spec = circulant_spectrum(2, 0.7)
    assert spec.deltas.shape == (2,)
    assert spec.deltas[0] == 0.0
    assert abs(spec.deltas[1] - 1.0 / TWO_PI) < 1e-14
    assert spec.multiplicities == (1, 1)


def test_four_body_alpha_two_against_dense_oracle():
    spec = circulant_spectrum(4, 2.0)
    assert np.allclose(spec.xi_bar, [4 * math.pi, 8 * math.pi, 4 * math.pi])
    assert abs(spec.c - 5.0 / (8 * math.pi)) < 1e-14
    # delta_2 = 4/(5 pi), strictly below the bound 4/(2 pi)
    assert abs(spec.deltas[2] - 4.0 / (5 * math.pi)) < 1e-14
    dense = np.sort(np.linalg.eigvalsh(dense_operator(spec.mu_bar, 4)))
    closed = np.sort(np.repeat(spec.deltas, spec.multiplicities))
    assert np.max(np.abs(dense - closed)) < 1e-12


def test_weight_normalisation_and_chord_identity():
    for n in (2, 5, 12):
        for alpha in (0.5, 1.0, 3.0):
            spec = circulant_spectrum(n, alpha)
            assert abs(float(spec.mu_bar @ spec.xi_bar) - 1.0) < 1e-12
            assert abs(spec.c_tilde - chord_sum(n, alpha, 1)) < 1e-12 * spec.c_tilde


def test_eigenvectors_of_dense_operator():
    n, alpha = 9, 1.0
    spec = circulant_spectrum(n, alpha)
    D = dense_operator(spec.mu_bar, n)
    i = np.arange(n)
    for l in range(1, n // 2 + 1):
        for vec in (np.cos(TWO_PI * i * l / n), np.sin(TWO_PI * i * l / n)):
            if np.linalg.norm(vec) < 1e-12:
                continue
            resid = D @ vec - spec.deltas[l] * vec
            assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(vec)


def test_variant_requires_coprime():
    with pytest.raises(ValueError):
        circulant_spectrum(6, 1.0, k=2)
    with pytest.raises(ValueError):
        circulant_spectrum(6, 1.0, k=3)


def test_variant_rearranges_spectrum():
    # the variant operator's eigenvalue multiset equals the base one, and
    # the branch of spatial index k carries 1/(2 pi)
    n, alpha, k = 5, 1.0, 2
    base = circulant_spectrum(n, alpha)
    var = circulant_spectrum(n, alpha, k=k)
    assert np.allclose(np.sort(base.deltas), np.sort(var.deltas), atol=1e-12)
    assert abs(var.delta_for(k) - 1.0 / TWO_PI) < 1e-13


# ---------------------------------------------------------------------------
# the array passes against the per-element loops they replace


def _dense_by_lag_loop(mu, n):
    """The dense operator assembled lag by lag."""
    D = np.zeros((n, n))
    idx = np.arange(n)
    for h in range(1, n):
        D[idx, idx] += 2.0 * mu[h - 1]
        D[idx, (idx + h) % n] -= mu[h - 1]
        D[idx, (idx - h) % n] -= mu[h - 1]
    return D


def test_dense_operator_equals_the_lag_loop_bit_for_bit():
    for n in range(2, 61):
        for alpha in (0.5, 1.0, 3.0):
            mu = circulant_spectrum(n, alpha, cross_validate=False).mu_bar
            assert np.array_equal(dense_operator(mu, n), _dense_by_lag_loop(mu, n))
    # weights without the h <-> n - h symmetry of the pair data
    rng = np.random.default_rng(3)
    for n in (2, 3, 6, 11, 60):
        mu = rng.uniform(0.1, 2.0, n - 1)
        assert np.array_equal(dense_operator(mu, n), _dense_by_lag_loop(mu, n))


def _deltas_by_index_loop(spec):
    """delta_l as one np.sum per spatial index l."""
    n, h = spec.n, np.arange(1, spec.n)
    sums = [
        float(np.sum(spec.mu_bar * (1.0 - np.cos(TWO_PI * h * l / n))))
        for l in range(n // 2 + 1)
    ]
    deltas = 2.0 * np.array(sums)
    deltas[0] = 0.0
    return deltas


def test_deltas_equal_per_index_sums_bit_for_bit():
    for n in range(2, 61):
        for k in range(1, 6):
            if gcd(k, n) != 1:
                continue
            for alpha in (0.5, 1.7):
                spec = circulant_spectrum(n, alpha, k=k, cross_validate=False)
                assert np.array_equal(spec.deltas, _deltas_by_index_loop(spec))
    # tables of several row blocks, up to the largest body count
    for n in (1000, 4096):
        spec = circulant_spectrum(n, 1.0, k=3, cross_validate=False)
        assert np.array_equal(spec.deltas, _deltas_by_index_loop(spec))
        h = np.arange(1, n)
        for q in (1, 7, n - 1):
            chords = 2.0 * np.abs(np.sin(math.pi * q * h / n))
            assert chord_sum(n, 1.0, q) == math.pi * float(np.sum(chords**-1.0))


def _predicted_by_winding_scan(n, alpha, omega):
    """(windings, radius, action, chord sum) of the best circles, each
    winding with its own chord sum; None when a winding cancels omega."""
    h, best = np.arange(1, n), []
    for m in range(-(math.ceil(omega) + 2 * n + 2), 2 * n + 3):
        if m == 0 or gcd(abs(m), n) != 1:
            continue
        if abs(m + omega) < 1e-12:
            return None
        chords = 2.0 * np.abs(np.sin(math.pi * (abs(m) % n) * h / n))
        P = math.pi * float(np.sum(chords ** (-alpha)))
        R = (alpha * P / (TWO_PI * (m + omega) ** 2)) ** (1.0 / (alpha + 2.0))
        A = math.pi * R**2 * (m + omega) ** 2 + P / R**alpha
        best.append((A, abs(m), m, R, P))
    best.sort()
    tied = [t for t in best if t[0] <= best[0][0] * (1.0 + 1e-12)]
    return tuple(t[2] for t in tied), tied[0][3], best[0][0], tied[0][4]


def test_predicted_circle_equals_the_winding_scan():
    rng = np.random.default_rng(18)
    grid = [(3, 1.0, 1.5), (5, 1.0, 3.0), (4, 1.0, 9.3), (3, 2.0, 7.5), (7, 0.5, 7.0)]
    for _ in range(120):
        n = int(rng.integers(2, 13))
        grid.append((n, float(rng.choice([0.5, 1.0, 2.0])), float(rng.uniform(0, 3 * n))))
    for n, alpha, omega in grid:
        pred = predicted_circle(n, alpha, omega)
        scan = _predicted_by_winding_scan(n, alpha, omega)
        if scan is None:
            assert pred is None
            continue
        assert (pred.windings, pred.radius, pred.action, pred.chord_sum) == scan
    assert predicted_circle(3, 1.0, 1.5).windings == (-1, -2)  # the tie
    assert predicted_circle(5, 1.0, 3.0) is None  # integer omega coprime with n


# ---------------------------------------------------------------------------
# admissible branches


def test_inertial_minimum_branch_is_two_pi():
    spec = circulant_spectrum(7, 1.0)
    branches = admissible_lambdas(spec, 0.0)
    assert abs(branches[0].value - TWO_PI) < 1e-10
    assert abs(branches[0].kappa) == 1


def test_half_integer_tie_for_three_bodies():
    spec = circulant_spectrum(3, 1.0)
    branches = admissible_lambdas(spec, 1.5)
    assert abs(branches[0].value - branches[1].value) < 1e-12
    assert {branches[0].kappa, branches[1].kappa} == {1, 2}


def test_branch_enumeration_oracle():
    # brute force over (l, r) grids reproduces the sorted minimum
    n, alpha, omega = 5, 1.0, 2.1
    spec = circulant_spectrum(n, alpha)
    best = math.inf
    best_l = None
    for l in range(1, n):
        for r in (-1, 0, 1):
            val = (omega - (l + r * n)) ** 2 / spec.delta_for(l)
            if val < best:
                best, best_l = val, l
    branches = admissible_lambdas(spec, omega)
    assert abs(branches[0].value - best) < 1e-12
    assert branches[0].l == best_l == 2


# ---------------------------------------------------------------------------
# omega*, min2


def test_omega_star_value():
    assert abs(omega_star() - 4.0 / 3.0) < 1e-15


def test_omega_star_probe_inside():
    # at omega = 1.3: (w-1)^2 = 0.09 <= (w-2)^2/4 = 0.1225
    assert (1.3 - 1) ** 2 <= (1.3 - 2) ** 2 / 4
    assert 1.3 < omega_star()


def test_omega_star_probe_outside():
    # at omega = 1.4: 0.16 > 0.09
    assert (1.4 - 1) ** 2 > (1.4 - 2) ** 2 / 4
    assert 1.4 > omega_star()


def test_min2_three_bodies_full_width():
    res = min2_check(3, 1.0, 2)
    assert res.holds
    assert abs(res.epsilon - 0.5) < 1e-14
    assert abs(res.delta_max - 1.0 / TWO_PI) < 1e-14


def test_min2_validation():
    with pytest.raises(ValueError):
        min2_check(6, 1.0, 2)  # shares a factor
    with pytest.raises(ValueError):
        min2_check(5, 1.0, 1)  # out of range


def test_min2_matches_quadratic_inequality_oracle():
    # scan |w - k| and verify the closed form against the raw inequality
    n, alpha, k = 12, 1.0, 5
    res = min2_check(n, alpha, k)
    dmax = res.delta_max
    grid = np.linspace(1e-4, 0.5, 2000)
    ok = TWO_PI * grid**2 * dmax <= (1.0 - grid) ** 2
    boundary = grid[ok][-1]
    assert abs(boundary - res.epsilon) < 1e-3


# ---------------------------------------------------------------------------
# circle-restricted optimum


def test_inertial_three_body_prediction():
    pred = predicted_circle(3, 1.0, 0.0)
    # force-balance oracle: R^3 = 1/sqrt(3)
    assert abs(pred.radius - 3.0 ** (-1.0 / 6.0)) < 1e-12
    assert abs(pred.action - 3.0 ** (2.0 / 3.0) * math.pi) < 1e-12
    assert set(pred.windings) == {-1, 1}


def test_inertial_two_body_prediction():
    pred = predicted_circle(2, 1.0, 0.0)
    # A(R) = pi R^2 + pi/(2R): calculus gives R = 4^{-1/3}
    assert abs(pred.radius - 4.0 ** (-1.0 / 3.0)) < 1e-12


def test_kepler_circle_closed_form():
    for alpha in (0.5, 1.0, 2.0):
        kc = kepler_circle(alpha)
        R = kc["radius"]
        assert abs(R - alpha ** (1.0 / (alpha + 2.0))) < 1e-14
        # stationarity of pi R^2 + 2 pi R^-alpha
        assert abs(2 * math.pi * R - alpha * TWO_PI * R ** (-alpha - 1.0)) < 1e-10
    assert abs(kepler_circle(1.0)["norm_integral"] - TWO_PI) < 1e-14


def test_prediction_none_at_coprime_integer():
    assert predicted_circle(5, 1.0, 3.0) is None


def test_prediction_skips_colliding_windings():
    pred = predicted_circle(6, 1.0, 1.8)
    for m in pred.windings:
        assert gcd(abs(m), 6) == 1


def test_prediction_scaling_consistency():
    # doubling alpha moves the radius per the closed form
    for n in (3, 5):
        for omega in (0.0, 0.4):
            a1 = predicted_circle(n, 1.0, omega)
            a2 = predicted_circle(n, 2.0, omega)
            m = a1.winding
            r_expected = (
                2.0 * chord_sum(n, 2.0, m) / (TWO_PI * (m + omega) ** 2)
            ) ** (1.0 / 4.0)
            assert abs(a2.radius - r_expected) < 1e-12


def test_restricted_action_matches_rotating_action():
    from choreo.action import rotating_action
    from choreo.loops import FourierLoop, SystemParams

    n, alpha, omega, m = 3, 1.0, 1.5, -1
    R = circle_radius_for_winding(n, alpha, omega, m)
    p = SystemParams(n=n, alpha=alpha, omega=omega)
    av = rotating_action(FourierLoop.circle(R, m, cutoff=4), p)
    assert abs(av.total - restricted_circle_action(n, alpha, omega, m, R)) < 1e-12


def test_legacy_constants_reported_but_different():
    pred = predicted_circle(3, 1.0, 0.0)
    legacy = pred.legacy_constants["radius_inertial"]
    assert abs(legacy - pred.radius) > 1e-2  # uncalibrated value differs


# ---------------------------------------------------------------------------
# classifier


@pytest.mark.parametrize(
    "n,alpha,omega,regime",
    [
        (3, 1.0, 0.5, ROTATING_CIRCLE),
        (6, 1.0, 2.0, INF_NOT_ATTAINED_CLUSTER),
        (5, 1.0, 3.0, NO_MINIMUM_COPRIME_INT),
        (6, 1.0, 1.8, NONRIGID_WINDING_K),
        (4, 1.0, 4.0, CONTINUUM_OMEGA_N),
        (5, 1.0, 2.1, ROTATING_CIRCLE),
        (3, 1.0, 0.0, INERTIAL_CIRCLE),
        (12, 1.0, 6.55, UNDETERMINED),
    ],
)
def test_classify_regimes(n, alpha, omega, regime):
    assert classify(n, alpha, omega).regime == regime


def test_classify_refuses_unresolvable_omega():
    # at 1e300 the float spacing of omega dwarfs the integer tolerance, so
    # the reduced frame speed would be rounding noise
    with pytest.raises(ValueError, match="too large"):
        classify(3, 1.0, 1e300)


@pytest.mark.parametrize("alpha, omega", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.5)])
def test_classify_refuses_non_finite_input(alpha, omega):
    with pytest.raises(ValueError, match="must be finite"):
        classify(3, alpha, omega)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_classify_and_prediction_refuse_fewer_than_two_bodies(n):
    # n = 1 used to end in a ZeroDivisionError from the winding scan, and
    # n = 0 in one from the reduction omega // n
    for call in (classify, predicted_circle):
        with pytest.raises(ValueError, match="n >= 2"):
            call(n, 1.0, 0.5)


def test_classify_cluster_shapes():
    r = classify(6, 1.0, 2.0)
    assert r.cluster_shape == (3, 2)
    r = classify(6, 1.0, 1.8)
    assert r.cluster_shape == (3, 2)
    assert r.predicted_winding == 2
    r = classify(24, 1.0, 6.1)
    assert r.regime == NONRIGID_WINDING_K
    assert r.cluster_shape == (4, 6)


def test_classify_half_integer_tie():
    r = classify(3, 1.0, 1.5)
    assert r.regime == ROTATING_CIRCLE
    assert r.tied_windings is not None
    assert sorted(abs(m) for m in r.tied_windings) == [1, 2]


def test_classify_rotating_circle_prediction():
    r = classify(5, 1.0, 2.1)
    assert r.predicted_winding == 2
    assert abs(r.predicted_radius - circle_radius_for_winding(5, 1.0, 2.1, -2)) < 1e-12
    assert abs(r.predicted_period - math.pi) < 1e-12


def test_classify_periodicity_up_to_reduction():
    for n, alpha, omega in ((3, 1.0, 0.5), (5, 1.0, 2.1), (6, 1.0, 1.8)):
        low = classify(n, alpha, omega)
        high = classify(n, alpha, omega + n)
        assert high.regime == low.regime
        assert high.reduction[1] == 1
        assert abs(high.reduction[0] - omega) < 1e-9


def test_classify_reduction_winding_grows():
    low = classify(5, 1.0, 2.1)
    high = classify(5, 1.0, 2.1 + 5)
    assert high.predicted_winding == low.predicted_winding + 5


def test_classify_undetermined_carries_hypothesis():
    r = classify(12, 1.0, 6.55)
    assert r.hypothesis is not None
    assert r.predicted_radius is None


def test_classify_evidence_populated():
    r = classify(6, 1.0, 1.8)
    assert any("margin" in e for e in r.evidence)


def test_classify_near_n_band():
    n = 4
    eps = min(0.5, 1.0 / (1.0 + math.sqrt(TWO_PI * circulant_spectrum(n, 1.0).delta_max)))
    r = classify(n, 1.0, n - eps / 2)
    assert r.regime == "NEAR_N_TRANSLATED_CIRCLE"


def test_classify_serialises():
    doc = classify(5, 1.0, 2.1).as_dict()
    assert doc["regime"] == ROTATING_CIRCLE
    assert isinstance(doc["evidence"], list)
    import json

    json.dumps(doc)
