import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from choreo.action import (
    CollisionError,
    KernelCounts,
    choreography_action,
    gradient,
    kepler_action,
    kepler_gradient,
    kepler_newton_residual,
    kinetic_gradient,
    kinetic_value,
    newton_residual,
    rotating_action,
    velocity_map,
)
from choreo.loops import (
    EIGHT3D,
    FourierLoop,
    SystemParams,
    pack_coefficients,
    rotate_winding,
)
from choreo.optimize import Objective
from choreo.verify import random_loop

TWO_PI = 2.0 * math.pi


def circle(radius, winding=1, dim=2, cutoff=4):
    return FourierLoop.circle(radius, winding, dim=dim, cutoff=cutoff)


# ---------------------------------------------------------------------------
# Kepler functional


def test_kepler_unit_circle():
    av = kepler_action(circle(1.0), 1.0)
    assert abs(av.kinetic - math.pi) < 1e-12
    assert abs(av.potential - TWO_PI) < 1e-12
    assert abs(av.total - 3 * math.pi) < 1e-12


def test_kepler_radius_two():
    # speed 2 circle: kinetic pi R^2 = 4 pi, potential 2 pi / 2 = pi
    av = kepler_action(circle(2.0), 1.0)
    assert abs(av.kinetic - 4 * math.pi) < 1e-12
    assert abs(av.potential - math.pi) < 1e-12


@given(st.floats(0.5, 2.0))
def test_kepler_scaling_homogeneity(lam):
    alpha = 1.4
    q = circle(1.0)
    base = kepler_action(q, alpha)
    scaled = kepler_action(q.scaled(lam), alpha)
    assert abs(scaled.kinetic - lam**2 * base.kinetic) < 1e-10
    assert abs(scaled.potential - lam ** (-alpha) * base.potential) < 1e-10


def test_kepler_rejects_nonzero_mean():
    q = circle(1.0).with_mean([0.1, 0.0])
    with pytest.raises(ValueError):
        kepler_action(q, 1.0)


# ---------------------------------------------------------------------------
# choreography functional


def lagrange_radius():
    # 1-d calculus oracle: minimize pi R^2 + (2 pi / sqrt(3)) / R
    # => R^3 = 1/sqrt(3)
    return 3.0 ** (-1.0 / 6.0)


def test_choreography_three_body_circle_formula():
    p = SystemParams(n=3, alpha=1.0)
    for R in (0.7, 1.0, lagrange_radius()):
        av = choreography_action(circle(R), p)
        expected = math.pi * R**2 + TWO_PI / (math.sqrt(3.0) * R)
        assert abs(av.total - expected) < 1e-12 * max(1.0, expected)
    minimum = choreography_action(circle(lagrange_radius()), p)
    assert abs(minimum.total - 3.0 ** (2.0 / 3.0) * math.pi) < 1e-12


def test_choreography_two_body_circle_formula():
    p = SystemParams(n=2, alpha=1.0)
    R = 1.3
    av = choreography_action(circle(R), p)
    assert abs(av.total - (math.pi * R**2 + math.pi / (2 * R))) < 1e-12


def test_choreography_scaling_law(rng):
    p = SystemParams(n=4, alpha=2.0)
    x = random_loop(rng, p)
    lam = 1.37
    base = choreography_action(x, p)
    scaled = choreography_action(x.scaled(lam), p)
    assert abs(scaled.kinetic - lam**2 * base.kinetic) < 1e-10 * base.kinetic
    assert (
        abs(scaled.potential - lam ** (-p.alpha) * base.potential)
        < 1e-10 * base.potential
    )


def test_collision_guard_reports_lag():
    p = SystemParams(n=4, alpha=1.0)
    with pytest.raises(CollisionError) as err:
        choreography_action(circle(1.0, winding=2), p)  # bodies 0 and 2 coincide
    assert err.value.h in (1, 2, 3)
    assert err.value.separation < 1e-8


# ---------------------------------------------------------------------------
# rotating functional


def test_rotating_reduces_to_inertial_at_zero_omega(rng):
    p = SystemParams(n=3, alpha=1.0, omega=0.0)
    x = random_loop(rng, p)
    a = rotating_action(x, p)
    b = choreography_action(x, p)
    assert a.kinetic == b.kinetic
    assert a.potential == b.potential


def test_rotating_circle_kinetic_formula():
    for m, omega, R in ((1, 0.5, 1.2), (-2, 1.5, 0.8), (-1, 2.5, 2.0)):
        p = SystemParams(n=3, alpha=1.0, omega=omega)
        av = rotating_action(circle(R, m), p)
        assert abs(av.kinetic - math.pi * R**2 * (m + omega) ** 2) < 1e-12


def test_rotating_mean_contributes_centrifugal_term():
    p = SystemParams(n=3, alpha=1.0, omega=2.0)
    x = circle(1.0).with_mean([0.3, -0.4])
    base = rotating_action(circle(1.0), p)
    offset = rotating_action(x, p)
    assert abs((offset.kinetic - base.kinetic) - math.pi * 2.0**2 * 0.25) < 1e-12


def test_frame_consistency_at_multiples_of_n(rng):
    # unwinding the frame maps the rotating action onto the inertial one
    # exactly when the frame speed is a multiple of n (only then does the
    # rotation commute with the body shifts: the chord picks up a factor
    # e^{J w h tau} otherwise)
    n = 3
    omega = n
    p_rot = SystemParams(n=n, alpha=1.0, omega=float(omega))
    p_in = SystemParams(n=n, alpha=1.0, omega=0.0)
    y = random_loop(rng, p_rot, cutoff=5)
    x = rotate_winding(y, omega)
    a = rotating_action(y, p_rot, grid_size=120)
    b = choreography_action(x, p_in, grid_size=120)
    assert abs(a.total - b.total) < 1e-9 * max(1.0, b.total)


def test_frame_kinetic_consistency_any_integer_omega(rng):
    # the kinetic identity 1/2 int |x'|^2 = 1/2 int |y' + J w y|^2 holds for
    # every integer frame speed even when the potential does not transport
    omega = 2
    p_rot = SystemParams(n=3, alpha=1.0, omega=float(omega))
    y = random_loop(rng, p_rot, cutoff=5)
    x = rotate_winding(y, omega)
    a = rotating_action(y, p_rot, grid_size=96)
    b = choreography_action(x, SystemParams(n=3, alpha=1.0), grid_size=96)
    assert abs(a.kinetic - b.kinetic) < 1e-10 * max(1.0, b.kinetic)


def test_potential_rotation_translation_invariance(rng):
    p = SystemParams(n=4, alpha=1.5)
    x = random_loop(rng, p)
    theta = 0.77
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    moved = FourierLoop(
        x.mean @ R.T + np.array([0.4, -1.1]), x.cos_coeffs @ R.T, x.sin_coeffs @ R.T
    )
    a = choreography_action(x, p)
    b = choreography_action(moved, p)
    assert abs(a.potential - b.potential) <= 1e-12 * a.potential


# ---------------------------------------------------------------------------
# gradients


def test_kinetic_gradient_matches_parseval_differentiation(rng):
    # independent oracle: central differences through the closed form
    K, d = 5, 2
    mean = rng.normal(size=d)
    cos = rng.normal(size=(K, d))
    sin = rng.normal(size=(K, d))
    for omega in (0.0, 1.7):
        gm, gc, gs = kinetic_gradient(mean, cos, sin, omega)
        eps = 1e-7
        for arr, g in ((mean, gm), (cos, gc), (sin, gs)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                arr[idx] += eps
                up = kinetic_value(mean, cos, sin, omega)
                arr[idx] -= 2 * eps
                dn = kinetic_value(mean, cos, sin, omega)
                arr[idx] += eps
                fd = (up - dn) / (2 * eps)
                assert abs(fd - g[idx]) < 1e-6 * max(1.0, abs(fd))


def test_kinetic_only_gradient_coefficient():
    # single harmonic a_k: d(1/2 int |x'|^2)/da_k = pi k^2 a_k
    K = 4
    cos = np.zeros((K, 2))
    cos[2, 0] = 0.9  # k = 3
    _, gc, _ = kinetic_gradient(np.zeros(2), cos, np.zeros((K, 2)), 0.0)
    assert abs(gc[2, 0] - math.pi * 9 * 0.9) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("omega", [0.0, 1.7])
def test_velocity_map_kinetic_matches_closed_form(rng, d, omega):
    # independent closed form: (pi/2) sum k^2 (|a|^2 + |b|^2)
    # + 2 pi w sum k (a x b) + (w^2 / 2) (2 pi |m_P|^2 + pi sum |a_P|^2 + |b_P|^2)
    K = 6
    mean = rng.normal(size=d)
    cos = rng.normal(size=(K, d))
    sin = rng.normal(size=(K, d))
    k = np.arange(1, K + 1)
    cross = cos[:, 0] * sin[:, 1] - cos[:, 1] * sin[:, 0]
    plane = np.sum(cos[:, :2] ** 2) + np.sum(sin[:, :2] ** 2)
    closed = (
        0.5 * math.pi * float(np.sum(k**2 * (np.sum(cos**2, 1) + np.sum(sin**2, 1))))
        + TWO_PI * omega * float(k @ cross)
        + 0.5 * omega**2 * (TWO_PI * float(mean[:2] @ mean[:2]) + math.pi * plane)
    )
    val = kinetic_value(mean, cos, sin, omega)
    assert abs(val - closed) <= 1e-13 * abs(closed)
    # the gradient against central differences (exact for a quadratic, up
    # to rounding)
    grads = kinetic_gradient(mean, cos, sin, omega)
    eps = 1e-6
    for arr, g in zip((mean, cos, sin), grads):
        for idx in np.ndindex(arr.shape):
            arr[idx] += eps
            up = kinetic_value(mean, cos, sin, omega)
            arr[idx] -= 2 * eps
            dn = kinetic_value(mean, cos, sin, omega)
            arr[idx] += eps
            fd = (up - dn) / (2 * eps)
            assert abs(fd - g[idx]) < 1e-7 * max(1.0, abs(fd))


@pytest.mark.parametrize("omega", [0.0, 1.7])
def test_velocity_map_gives_rotating_frame_velocity(rng, omega):
    # L x are the coefficients of y' + w J P y, built here from the
    # term-by-term derivative and the quarter turn (u1, u2) -> (-u2, u1)
    d, K = 3, 5
    y = FourierLoop(rng.normal(size=d), rng.normal(size=(K, d)), rng.normal(size=(K, d)))
    L, w = velocity_map(d, K, omega)
    expect = pack_coefficients(y.derivative()).reshape(-1, d)
    coeffs = pack_coefficients(y).reshape(-1, d)
    expect[:, 0] -= omega * coeffs[:, 1]
    expect[:, 1] += omega * coeffs[:, 0]
    np.testing.assert_allclose(L @ pack_coefficients(y), expect.ravel(), rtol=0, atol=1e-13)
    assert not L.flags.writeable and not w.flags.writeable
    assert velocity_map(d, K, omega)[0] is L


def test_evaluation_gradient_equals_value_and_grad_bitwise(rng):
    p = SystemParams(n=4, d=3, alpha=1.0, omega=1.3)
    obj = Objective(p, cutoff=6, pin_mean=True)
    kepler = Objective(None, cutoff=5, alpha=1.3, dim=2)
    for ob, loop in ((obj, random_loop(rng, p, cutoff=6)), (kepler, circle(1.1, cutoff=5))):
        v = ob.pack(loop)
        f, g = ob.value_and_grad(v)
        ev = ob.evaluate(v)
        assert ev.value == f == ob.value(v)
        assert np.array_equal(ev.gradient(), g)
        assert np.array_equal(ev.gradient(), g)  # a second completion repeats


# kernel points (n, d, K, M) of the benchmark's per-layer report
KERNEL_POINTS = [(3, 2, 6, 48), (6, 2, 12, 96), (12, 3, 12, 96), (3, 2, 16, 66)]


def _assert_same_evaluation(ev, ref):
    assert ev.value == ref.value
    assert ev.kinetic == ref.kinetic
    assert ev.potential == ref.potential
    assert np.array_equal(ev.gradient(), ref.gradient())


@pytest.mark.parametrize("point", [*KERNEL_POINTS, "kepler"])
def test_evaluate_batch_equals_evaluate_bitwise(rng, point):
    # one stacked kernel call gives each row exactly what a call on that
    # row alone gives: value, kinetic, potential and gradient
    if point == "kepler":
        obj = Objective(None, cutoff=6, alpha=1.3, dim=2)
        loops = [circle(float(rng.uniform(0.7, 1.4)), cutoff=6) for _ in range(5)]
    else:
        n, d, K, M = point
        p = SystemParams(n=n, d=d, alpha=1.0, omega=0.7)
        obj = Objective(p, cutoff=K, grid_size=M)
        assert obj.grid_size == M
        loops = [random_loop(rng, p, cutoff=K) for _ in range(5)]
    stack = np.stack([obj.pack(loop) for loop in loops])
    for rows in (stack[:1], stack[:3], stack):
        evs = obj.evaluate_batch(rows)
        assert len(evs) == len(rows)
        for ev, vec in zip(evs, rows):
            _assert_same_evaluation(ev, obj.evaluate(vec))


@pytest.mark.parametrize("kepler", [False, True])
def test_evaluate_batch_colliding_row_is_none(rng, kepler):
    # the zero vector puts every body (or the Kepler body) on the origin;
    # its row alone trips the guard, quietly, and the others are unchanged
    if kepler:
        obj = Objective(None, cutoff=5, alpha=1.0, dim=2)
        good = [obj.pack(circle(r, cutoff=5)) for r in (0.8, 1.2)]
    else:
        p = SystemParams(n=3, alpha=1.0, omega=1.5)
        obj = Objective(p, cutoff=6)
        good = [obj.pack(random_loop(rng, p, cutoff=6)) for _ in range(2)]
    bad = np.zeros_like(good[0])
    with pytest.raises(CollisionError):
        obj.evaluate(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evs = obj.evaluate_batch(np.stack([good[0], bad, good[1]]))
    assert evs[1] is None
    for ev, vec in ((evs[0], good[0]), (evs[2], good[1])):
        _assert_same_evaluation(ev, obj.evaluate(vec))


def test_objective_counts_kernel_work(rng):
    p = SystemParams(n=3, alpha=1.0)
    obj = Objective(p, cutoff=6)
    stack = np.stack([obj.pack(random_loop(rng, p, cutoff=6)) for _ in range(4)])
    obj.evaluate(stack[0]).gradient()
    evs = obj.evaluate_batch(stack)
    evs[1].gradient()
    evs[1].gradient()  # cached: no second force stage
    assert obj.counts == KernelCounts(kernel_calls=2, value_evals=5, grad_evals=2)


def test_gradient_finite_difference_full(rng):
    p = SystemParams(n=5, alpha=1.0)
    x = random_loop(rng, p, cutoff=8)
    obj = Objective(p, cutoff=8)
    v = obj.pack(x)
    _, g = obj.value_and_grad(v)
    eps = 1e-6
    worst = 0.0
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = eps
        fd = (obj.value(v + e) - obj.value(v - e)) / (2 * eps)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    assert worst < 1e-5


def test_gradient_directional_derivative(rng):
    p = SystemParams(n=3, alpha=1.0, omega=1.2)
    x = random_loop(rng, p, cutoff=6)
    obj = Objective(p, cutoff=6)
    v = obj.pack(x)
    f0, g = obj.value_and_grad(v)
    eps = 1e-6
    for _ in range(20):
        d = rng.standard_normal(v.size)
        d /= np.linalg.norm(d)
        fd = (obj.value(v + eps * d) - obj.value(v - eps * d)) / (2 * eps)
        assert abs(fd - g @ d) < 1e-6 * max(1.0, abs(fd))


def test_gradient_vanishes_at_lagrange_circle():
    p = SystemParams(n=3, alpha=1.0)
    g = gradient(circle(lagrange_radius(), cutoff=4), p, grid_size=96)
    assert g.norm < 1e-8


def test_kepler_gradient_finite_difference(rng):
    # central differences of kepler_action on every harmonic coefficient;
    # the mean is pinned, not a degree of freedom, and reported as 0
    alpha = 1.3
    q = circle(1.1, cutoff=5)
    cos = q.cos_coeffs + rng.uniform(-0.05, 0.05, (5, 2))
    sin = q.sin_coeffs + rng.uniform(-0.05, 0.05, (5, 2))
    g = kepler_gradient(FourierLoop(np.zeros(2), cos, sin), alpha)
    assert np.all(g.mean == 0.0)
    eps = 1e-6
    for arr, grad in ((cos, g.cos_coeffs), (sin, g.sin_coeffs)):
        for idx in np.ndindex(arr.shape):
            arr[idx] += eps
            up = kepler_action(FourierLoop(np.zeros(2), cos, sin), alpha).total
            arr[idx] -= 2 * eps
            dn = kepler_action(FourierLoop(np.zeros(2), cos, sin), alpha).total
            arr[idx] += eps
            fd = (up - dn) / (2 * eps)
            assert abs(fd - grad[idx]) < 1e-6 * max(1.0, abs(fd))


def fd_hessian_by_columns(obj, vec, h):
    """Central differences one gradient at a time: +e_0, -e_0, +e_1, ...,
    on the free coordinates."""
    idx = np.flatnonzero(obj.mask)
    H = np.zeros((idx.size, idx.size))
    for col, i in enumerate(idx):
        e = np.zeros_like(vec)
        e[i] = h
        _, gp = obj.value_and_grad(vec + e)
        _, gm = obj.value_and_grad(vec - e)
        H[:, col] = (gp - gm)[idx] / (2.0 * h)
    return 0.5 * (H + H.T)


# (n, d, alpha, omega, cutoff, symmetry); n = None is the Kepler term
HESSIAN_CASES = [
    (3, 2, 1.0, 0.0, 6, None),
    (5, 2, 1.0, 2.1, 6, None),
    (4, 3, 2.0, 0.0, 5, None),  # n even: the lag n/2 meets each pair twice
    (6, 3, 1.0, 1.8, 4, None),
    (3, 2, 2.0, 1.5, 8, None),
    (None, 2, 1.0, 0.0, 5, None),
    (None, 3, 2.0, 0.0, 4, None),
    (3, 3, 1.0, 0.0, 8, EIGHT3D),
    (32, 2, 1.0, 0.7, 6, None),  # more lags than harmonics
    (17, 3, 1.0, 0.7, 5, None),
    (4, 2, 1.0, 0.7, 40, None),  # far more harmonics than lags
]


def test_hessian_equals_central_differences(rng):
    # the exact Hessian against central differences of the exact gradient,
    # on the free coordinates; symmetric, read-only, and formed from the
    # value stage's arrays without another kernel call
    for n, d, alpha, omega, K, symmetry in HESSIAN_CASES:
        if n is None:
            obj = Objective(None, cutoff=K, alpha=alpha, dim=d)
            loop = circle(1.0, dim=d, cutoff=K)
        else:
            p = SystemParams(n=n, d=d, alpha=alpha, omega=omega)
            obj = Objective(p, cutoff=K, symmetry=symmetry)
            loop = random_loop(rng, p, cutoff=K)
        vec = obj.pack(loop)
        vec += 0.02 * np.where(obj.mask, rng.standard_normal(vec.size), 0.0)
        ev = obj.evaluate(vec)
        calls = obj.counts.kernel_calls
        H = ev.hessian()
        assert obj.counts.kernel_calls == calls
        assert ev.hessian() is H and not H.flags.writeable
        assert H.shape == (obj.free.size,) * 2 and np.array_equal(H, H.T)
        ref = fd_hessian_by_columns(obj, vec, 1e-5)
        err = float(np.max(np.abs(H - ref)))
        assert err <= 1e-7 * float(np.max(np.abs(ref))), (n, d, alpha, omega, err)
        evals, evecs = ev.spectrum()
        assert np.allclose(evecs @ np.diag(evals) @ evecs.T, H, atol=1e-10 * evals.max())


# ---------------------------------------------------------------------------
# Newton residual


def _frame_residual(x, omega, ev):
    """The Newton residual with the rotating frame written out by hand:
    x'' and x' from the term-by-term derivative, the Coriolis and
    centrifugal terms on the rotation plane, and the evaluation's force."""
    X = ev.samples
    M = X.shape[0]
    res = x.derivative().derivative().sample(M)
    if omega:
        vel = x.derivative().sample(M)
        res[:, 0] += -2.0 * omega * vel[:, 1] - omega**2 * X[:, 0]
        res[:, 1] += 2.0 * omega * vel[:, 0] - omega**2 * X[:, 1]
    res -= (M / TWO_PI) * ev.force()
    return math.sqrt((TWO_PI / M) * float(np.sum(res**2)))


@pytest.mark.parametrize("kepler", [False, True])
def test_residual_matches_hand_written_frame_terms(rng, kepler):
    # (d/dt + w J P)^2 applied as the velocity map twice equals
    # x'' + 2 w J x' - w^2 P x; d = 3 has rows outside the rotation plane
    for i in range(8):
        if kepler:
            alpha = 0.6 + 0.2 * i
            x = random_loop(rng, SystemParams(n=2, d=2 + i % 2), zero_mean=True)
            obj = Objective(None, cutoff=x.cutoff, alpha=alpha, dim=x.dim)
            got = kepler_newton_residual(x, alpha)
        else:
            p = SystemParams(n=3 + i % 3, d=3, alpha=0.6 + 0.2 * i, omega=0.35 + 0.4 * i)
            x = random_loop(rng, p)
            obj = Objective(p, cutoff=x.cutoff)
            got = newton_residual(x, p)
        ref = _frame_residual(x, obj.omega, obj.evaluate(obj.pack(x)))
        assert abs(got - ref) <= 1e-12 * ref


def test_residual_vanishes_at_lagrange_circle():
    # force balance: R^3 = 1/sqrt(3) for n=3, alpha=1
    p = SystemParams(n=3, alpha=1.0)
    res = newton_residual(circle(lagrange_radius(), cutoff=4), p, grid_size=192)
    assert res < 1e-8


def test_residual_rotating_circle():
    p = SystemParams(n=5, alpha=1.0, omega=2.1)
    from choreo.spectral import circle_radius_for_winding

    R = circle_radius_for_winding(5, 1.0, 2.1, -2)
    res = newton_residual(circle(R, -2, cutoff=4), p, grid_size=200)
    assert res < 1e-8


def test_residual_nonzero_off_critical(rng):
    p = SystemParams(n=3, alpha=1.0)
    x = random_loop(rng, p)
    assert newton_residual(x, p) > 1e-2


def test_kepler_residual_unit_circle():
    assert kepler_newton_residual(circle(1.0, cutoff=4), 1.0, grid_size=192) < 1e-10


def test_residual_covanishes_with_gradient():
    # discrete critical point of the rotating functional: exact circle
    p = SystemParams(n=3, alpha=1.0, omega=0.5)
    from choreo.spectral import circle_radius_for_winding

    R = circle_radius_for_winding(3, 1.0, 0.5, -1)
    x = circle(R, -1, cutoff=4)
    g = gradient(x, p)
    res = newton_residual(x, p)
    assert g.norm < 1e-10
    assert res < 1e-8
