import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from choreo.loops import (
    EIGHT3D,
    FourierLoop,
    SystemParams,
    body_samples,
    body_trajectories,
    diagnostics,
    lag_differences,
    loop_from_json,
    min_separation,
    pack_coefficients,
    pair_square_integrals,
    project_symmetry,
    resolve_grid_size,
    rotate_winding,
    samples_csv,
    to_json_dict,
    unpack_coefficients,
)

TWO_PI = 2.0 * math.pi


def random_loop(rng, d=2, K=8, amp=0.3):
    k = np.arange(1, K + 1, dtype=float)[:, None]
    decay = k**-1.2
    return FourierLoop(
        rng.normal(0, 0.2, d),
        amp * decay * rng.standard_normal((K, d)),
        amp * decay * rng.standard_normal((K, d)),
    )


# ---------------------------------------------------------------------------
# evaluation


def test_unit_circle_at_zero():
    loop = FourierLoop.circle(1.0, 1)
    assert np.allclose(loop.evaluate(0.0), [1.0, 0.0])


def test_zero_loop_everywhere():
    loop = FourierLoop.zeros(3, 4)
    for t in (0.0, 0.7, -13.0):
        assert np.all(loop.evaluate(t) == 0.0)


def test_second_harmonic_at_quarter_period():
    # a_2 = (1, 0) only: x(pi/2) = (cos pi, 0) = (-1, 0)
    cos = np.zeros((2, 2))
    cos[1, 0] = 1.0
    loop = FourierLoop(np.zeros(2), cos, np.zeros((2, 2)))
    assert np.allclose(loop.evaluate(math.pi / 2), [-1.0, 0.0])


def test_params_tau_roundtrip():
    for n in (2, 3, 7, 50):
        p = SystemParams(n=n)
        assert abs(p.tau * n - TWO_PI) <= 4 * np.finfo(float).eps * TWO_PI


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n=1)
    with pytest.raises(ValueError):
        SystemParams(n=3, d=1)
    with pytest.raises(ValueError):
        SystemParams(n=3, alpha=0.0)
    with pytest.raises(ValueError):
        SystemParams(n=3, omega=-0.1)
    for field in ("alpha", "omega"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                SystemParams(n=3, **{field: value})


# ---------------------------------------------------------------------------
# shift


def test_shift_full_period_identity():
    rng = np.random.default_rng(0)
    loop = random_loop(rng)
    shifted = loop.shift(TWO_PI)
    assert np.allclose(shifted.cos_coeffs, loop.cos_coeffs, atol=1e-12)
    assert np.allclose(shifted.sin_coeffs, loop.sin_coeffs, atol=1e-12)


def test_shift_quarter_turn():
    loop = FourierLoop.circle(1.0, 1)
    assert np.allclose(loop.shift(math.pi / 2).evaluate(0.0), [0.0, 1.0], atol=1e-15)


def test_shift_n_times_tau_is_identity():
    rng = np.random.default_rng(7)
    loop = random_loop(rng, K=16)
    n = 7
    out = loop
    for _ in range(n):
        out = out.shift(TWO_PI / n)
    assert np.allclose(out.cos_coeffs, loop.cos_coeffs, atol=1e-10)
    assert np.allclose(out.sin_coeffs, loop.sin_coeffs, atol=1e-10)


@given(st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
def test_shift_inverse_roundtrip(s, seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(rng, K=12)
    back = loop.shift(s).shift(-s)
    assert np.allclose(back.cos_coeffs, loop.cos_coeffs, atol=1e-12)
    assert np.allclose(back.sin_coeffs, loop.sin_coeffs, atol=1e-12)


def test_shift_evaluates_to_time_shift(rng):
    loop = random_loop(rng)
    s = 0.8137
    ts = np.linspace(0, TWO_PI, 17)
    assert np.allclose(loop.shift(s).evaluate(ts), loop.evaluate(ts + s), atol=1e-12)


# ---------------------------------------------------------------------------
# bodies


def test_two_bodies_antipodal():
    p = SystemParams(n=2)
    bodies = body_trajectories(FourierLoop.circle(1.0, 1), p)
    ts = np.linspace(0, TWO_PI, 9)
    assert np.allclose(bodies[1].evaluate(ts), -bodies[0].evaluate(ts), atol=1e-14)


def test_body_indices_wrap(rng):
    p = SystemParams(n=3)
    loop = random_loop(rng)
    bodies = body_trajectories(loop, p)
    wrapped = bodies[0].shift(3 * p.tau)
    assert np.allclose(wrapped.cos_coeffs, bodies[0].cos_coeffs, atol=1e-12)


def test_half_lag_distance_series_is_pi_periodic(rng):
    # h = n/2 pairs: |x(t) - x(t+pi)| has period pi
    p = SystemParams(n=4)
    loop = random_loop(rng, K=8)
    M = 64
    X = loop.sample(M)
    diff = np.linalg.norm(X - np.roll(X, -M // 2, axis=0), axis=1)
    assert np.allclose(diff, np.roll(diff, M // 2), atol=1e-12)


def test_pair_distance_independent_of_body_index(rng):
    p = SystemParams(n=5)
    loop = random_loop(rng, K=8)
    bodies = body_trajectories(loop, p)
    M = resolve_grid_size(loop.cutoff, p.n, None)
    h = 2
    vals = []
    for i in range(p.n):
        xi = bodies[i].sample(M)
        xj = bodies[(i + h) % p.n].sample(M)
        vals.append(np.sum((xi - xj) ** 2) * TWO_PI / M)
    assert max(vals) - min(vals) <= 1e-10 * max(vals)


# ---------------------------------------------------------------------------
# derivative and Parseval


def test_unit_circle_unit_speed():
    loop = FourierLoop.circle(1.0, 1)
    speeds = np.linalg.norm(loop.derivative().sample(64), axis=1)
    assert np.allclose(speeds, 1.0, atol=1e-14)


def test_constant_loop_derivative_zero():
    loop = FourierLoop(np.array([1.0, -2.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    assert np.linalg.norm(pack_coefficients(loop.derivative())) == 0.0


def test_third_harmonic_parseval_by_quadrature():
    cos = np.zeros((3, 2))
    cos[2, 0] = 0.7
    loop = FourierLoop(np.zeros(2), cos, np.zeros((3, 2)))
    M = 64
    dx = loop.derivative().sample(M)
    x = loop.sample(M)
    kinetic = np.sum(dx**2) * TWO_PI / M
    position = np.sum(x**2) * TWO_PI / M
    assert abs(kinetic - 9.0 * position) <= 1e-10 * kinetic


def test_parseval_quadrature_matches_closed_form(rng):
    loop = random_loop(rng, K=10)
    M = resolve_grid_size(loop.cutoff, 2, None)
    quad = float(np.sum(loop.sample(M) ** 2)) * TWO_PI / M
    # int |x|^2 = 2 pi |mean|^2 + pi sum_k (|a_k|^2 + |b_k|^2)
    exact = TWO_PI * float(loop.mean @ loop.mean) + math.pi * float(
        np.sum(loop.cos_coeffs**2) + np.sum(loop.sin_coeffs**2)
    )
    assert abs(quad - exact) <= 1e-10 * max(1.0, quad)


def test_pair_square_integrals_match_quadrature(rng):
    n = 5
    loop = random_loop(rng, K=6)
    M = resolve_grid_size(loop.cutoff, n, None)
    X = loop.sample(M)
    xi = pair_square_integrals(loop, n)
    for h in range(1, n):
        direct = float(np.sum((X - np.roll(X, -h * M // n, axis=0)) ** 2)) * TWO_PI / M
        assert abs(direct - xi[h - 1]) <= 1e-10 * max(1.0, direct)


# ---------------------------------------------------------------------------
# symmetry projection


def test_circle_in_x1_zero_plane_is_fixed():
    cos = np.zeros((4, 3))
    sin = np.zeros((4, 3))
    sin[0, 1] = 1.3
    cos[0, 2] = 1.3
    circle = FourierLoop(np.zeros(3), cos, sin)
    proj = project_symmetry(circle, EIGHT3D)
    assert np.allclose(proj.cos_coeffs, circle.cos_coeffs)
    assert np.allclose(proj.sin_coeffs, circle.sin_coeffs)


def test_planar_eight_is_fixed():
    cos = np.zeros((4, 3))
    sin = np.zeros((4, 3))
    sin[1, 0] = 1.0  # sin 2t in component 1
    sin[0, 1] = 1.0  # sin t in component 2
    eight = FourierLoop(np.zeros(3), cos, sin)
    proj = project_symmetry(eight, EIGHT3D)
    assert np.allclose(proj.sin_coeffs, eight.sin_coeffs)


@given(st.integers(0, 2**32 - 1))
def test_projection_idempotent_and_nonexpanding(seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(rng, d=3, K=8)
    once = project_symmetry(loop, EIGHT3D)
    twice = project_symmetry(once, EIGHT3D)
    assert np.allclose(pack_coefficients(twice), pack_coefficients(once), atol=1e-14)
    norm = np.linalg.norm
    assert norm(pack_coefficients(once)) <= norm(pack_coefficients(loop)) + 1e-14


def test_projected_loop_satisfies_constraints(rng):
    loop = project_symmetry(random_loop(rng, d=3, K=8), EIGHT3D)
    ts = np.linspace(0, TWO_PI, 37)
    X = loop.evaluate(ts)
    Xneg = loop.evaluate(-ts)
    Xpi = loop.evaluate(ts + math.pi)
    assert np.allclose(X[:, 0], Xpi[:, 0], atol=1e-12)  # component 1 pi-periodic
    assert np.allclose(X[:, 0], -Xneg[:, 0], atol=1e-12)  # odd
    assert np.allclose(X[:, 1], -Xneg[:, 1], atol=1e-12)  # odd
    assert np.allclose(X[:, 2], Xneg[:, 2], atol=1e-12)  # even


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        project_symmetry(FourierLoop.circle(1.0, 1, dim=2), EIGHT3D)


# ---------------------------------------------------------------------------
# diagnostics


def loop_diagnostics(loop, p):
    """The diagnostics of ``loop`` from its samples on the default grid."""
    M = resolve_grid_size(loop.cutoff, p.n, None)
    return diagnostics(loop.sample(M), loop.mean, min_separation(loop, p, M))


def test_unit_circle_diagnostics():
    p = SystemParams(n=3)
    d = loop_diagnostics(FourierLoop.circle(1.0, 1, cutoff=4), p)
    assert d.winding == 1
    assert d.planarity == 0.0
    # chord oracle: 2 sin(pi/3) = sqrt(3)
    assert abs(d.min_separation - math.sqrt(3.0)) < 1e-12
    assert d.radius_rms < 1e-12
    assert abs(d.radius - 1.0) < 1e-12


def test_doubled_circle_winding():
    p = SystemParams(n=3)
    d = loop_diagnostics(FourierLoop.circle(1.0, 2, cutoff=4), p)
    assert d.winding == 2


def test_winding_sign_for_clockwise():
    p = SystemParams(n=3)
    d = loop_diagnostics(FourierLoop.circle(1.0, -1, cutoff=4), p)
    assert d.winding == -1


def test_tilted_circle_in_3d():
    cos = np.zeros((2, 3))
    sin = np.zeros((2, 3))
    sin[0, 1] = 0.9
    cos[0, 2] = 0.9
    p = SystemParams(n=3, d=3)
    d = loop_diagnostics(FourierLoop(np.zeros(3), cos, sin), p)
    assert abs(d.winding) == 1
    assert d.planarity < 1e-12
    assert abs(d.radius - 0.9) < 1e-12


def test_degenerate_loop_flagged():
    p = SystemParams(n=2)
    tiny = FourierLoop(np.array([1.0, 1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    d = loop_diagnostics(tiny, p)
    assert d.degenerate
    assert d.winding is None


def test_figure_eight_has_no_winding():
    # lemniscate-like loop through its own centroid: the angle about the
    # centroid is undefined at the crossing, so no winding is reported
    cos = np.zeros((2, 2))
    sin = np.zeros((2, 2))
    sin[1, 0] = 0.6  # x1 = 0.6 sin 2t
    sin[0, 1] = 1.0  # x2 = sin t
    p = SystemParams(n=3)
    d = loop_diagnostics(FourierLoop(np.zeros(2), cos, sin), p)
    assert d.winding is None and math.isnan(d.winding_residual)
    assert d.as_dict()["winding_residual"] is None
    assert not d.degenerate
    assert d.radius_rms > 1e-2  # decisively non-circular


def test_chord_through_the_centroid_has_no_winding():
    # the lemniscate sampled half a step off its crossing: no sample is near
    # the centroid, but the chord across the crossing runs through it, so
    # that angle step is +-pi up to rounding; nor has the mirror image one
    t = (np.arange(48) + 0.5) * (TWO_PI / 48)
    X = np.stack([0.6 * np.sin(2 * t), np.sin(t)], axis=1)
    assert np.min(np.linalg.norm(X, axis=1)) > 1e-2
    for Y in (X, X * np.array([-1.0, 1.0])):
        assert diagnostics(Y, np.zeros(2), 1.0).winding is None


def test_winding_of_a_curve_near_its_centroid():
    # a unit circle passing 0.01 from the centroid, half a step off a
    # sample: the chord there turns by 0.92 pi, which is resolved, so the
    # count is 1 on every grid and -1 for the mirror image
    for M in (48, 96, 480):
        t = (np.arange(M) + 0.5) * (TWO_PI / M)
        X = np.stack([0.99 + np.cos(t), np.sin(t)], axis=1)
        assert diagnostics(X, np.zeros(2), 1.0).winding == 1
        assert diagnostics(X * np.array([-1.0, 1.0]), np.zeros(2), 1.0).winding == -1


# ---------------------------------------------------------------------------
# grids, sampling, serialization


def test_default_grid_rules():
    assert resolve_grid_size(8, 3, None) % 3 == 0
    assert resolve_grid_size(8, 3, None) >= max(32, 48)
    assert resolve_grid_size(4, 5, 7) % 5 == 0
    assert resolve_grid_size(4, 5, 7) >= 16


def test_grid_rules_on_requested_sizes(rng):
    # a requested grid is rounded up to a multiple of n above the 4K margin
    assert resolve_grid_size(4, 3, 17) == 18  # not a multiple of n
    assert resolve_grid_size(4, 3, 6) == 18  # below the 4K margin
    loop = random_loop(rng, K=4)
    with pytest.raises(ValueError):
        lag_differences(loop.sample(17), 3)  # not a multiple of n


def test_lag_differences_are_exact_rolls(rng):
    # on a grid of a multiple of n samples, the lag-h loop is the sample
    # array rolled by h M/n rows, and its samples are those of the shifted
    # loop to rounding
    n, loop = 3, random_loop(rng, K=4)
    M = resolve_grid_size(loop.cutoff, n, None)
    X = loop.sample(M)
    D = lag_differences(X, n)
    assert D.shape == (n - 1, M, 2)
    for h in range(1, n):
        assert np.array_equal(D[h - 1], X - np.roll(X, -h * M // n, axis=0))
        shifted = loop.shift(h * TWO_PI / n).sample(M)
        assert np.allclose(D[h - 1], X - shifted, atol=1e-13)


def test_rotate_winding_matches_pointwise(rng):
    loop = random_loop(rng, K=5)
    m = 2
    rotated = rotate_winding(loop, m)
    ts = np.linspace(0, TWO_PI, 23)
    X = loop.evaluate(ts)
    R = rotated.evaluate(ts)
    z = X[:, 0] + 1j * X[:, 1]
    expected = z * np.exp(1j * m * ts)
    assert np.allclose(R[:, 0] + 1j * R[:, 1], expected, atol=1e-12)


def test_json_roundtrip(rng):
    p = SystemParams(n=4, d=3, alpha=1.5, omega=0.25)
    loop = random_loop(rng, d=3, K=5)
    doc = to_json_dict(loop, p, loop_diagnostics(loop, p))
    back, params = loop_from_json(doc)
    assert params == p
    assert np.allclose(back.cos_coeffs, loop.cos_coeffs)
    assert np.allclose(back.sin_coeffs, loop.sin_coeffs)


def test_samples_csv_shape():
    p = SystemParams(n=2)
    text = samples_csv(FourierLoop.circle(1.0, 1, cutoff=2), p, grid_size=16)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + p.n * p.d
    assert len(lines) == 1 + 16


def samples_csv_by_element(loop, params, grid_size=None):
    """The element-by-element formatter samples_csv replaced: repr(float(v))
    of each sample, row by row."""
    M = resolve_grid_size(loop.cutoff, params.n, grid_size)
    t = np.arange(M) * (2.0 * math.pi / M)
    bodies = body_samples(loop.sample(M), params.n)
    header = ["t"] + [f"b{i}_x{c + 1}" for i in range(params.n) for c in range(params.d)]
    lines = [",".join(header)]
    for j in range(M):
        row = [repr(float(t[j]))]
        for body in bodies:
            row.extend(repr(float(v)) for v in body[j])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [2, 3])
def test_samples_csv_equals_the_element_by_element_formatter(rng, d):
    # the table is converted to Python floats once; every value keeps its
    # repr, so the file is the same byte for byte
    for n in range(2, 13):
        loop = random_loop(rng, d=d, K=int(rng.integers(1, 9)))
        p = SystemParams(n=n, d=d)
        assert samples_csv(loop, p) == samples_csv_by_element(loop, p)
    p = SystemParams(n=5, d=d)
    loop = random_loop(rng, d=d, K=3)
    assert samples_csv(loop, p, grid_size=40) == samples_csv_by_element(loop, p, 40)


def test_artifacts_sample_each_loop_once(rng, monkeypatch):
    # samples.csv and the svg plots sample each loop once and take body i
    # as the samples rolled by i M/n rows: body 0 is the loop's samples bit
    # for bit, every body the shifted loop's samples to rounding
    from choreo import svgplot

    calls = []
    sample = FourierLoop.sample

    def counted(self, M):
        calls.append(M)
        return sample(self, M)

    p = SystemParams(n=3)
    loop, other = random_loop(rng, K=4), random_loop(rng, K=4)
    M = resolve_grid_size(loop.cutoff, p.n, None)
    X = loop.sample(M)
    bodies = body_samples(X, p.n)
    assert bodies.shape == (p.n, M, 2) and np.array_equal(bodies[0], X)
    for i, shifted in enumerate(body_trajectories(loop, p)):
        assert np.allclose(bodies[i], shifted.sample(M), atol=1e-13)
    rows = [line.split(",") for line in samples_csv(loop, p).splitlines()[1:]]
    assert np.array_equal(np.array(rows, float)[:, 1:].reshape(M, p.n, 2), bodies.swapaxes(0, 1))
    monkeypatch.setattr(FourierLoop, "sample", counted)
    samples_csv(loop, p)
    svgplot.orbit_svg(loop, p)
    assert calls == [M, M]
    svgplot.saddle_svg(loop, (other, other), p)
    assert calls == [M] * 5


def test_pack_unpack_roundtrip(rng):
    loop = random_loop(rng, d=3, K=6)
    vec = pack_coefficients(loop)
    back = unpack_coefficients(vec, 3, 6)
    assert np.allclose(back.mean, loop.mean)
    assert np.allclose(back.cos_coeffs, loop.cos_coeffs)
    assert np.allclose(back.sin_coeffs, loop.sin_coeffs)


def test_min_separation_is_the_kernel_separation():
    # one formula for the squared lag distances: the reported separation is
    # the one the collision guard tests, bit for bit
    from choreo.action import Objective

    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        for d in (2, 3):
            p = SystemParams(n=n, d=d)
            for _ in range(60):
                loop = random_loop(rng, d=d, K=6)
                obj = Objective(p, loop.cutoff)
                ev = obj.evaluate(obj.pack(loop))
                assert min_separation(loop, p, obj.grid_size) == ev.separation


def test_min_separation_on_circle():
    p = SystemParams(n=4)
    sep = min_separation(FourierLoop.circle(2.0, 1, cutoff=4), p)
    assert abs(sep - 2 * 2.0 * math.sin(math.pi / 4)) < 1e-12
