"""The array-at-once suites against loop references written here.

The references are the per-loop forms the suites replaced: one draw, one
``FourierLoop`` and one bound per loop, with the formulas written out.  Every
stacked draw and every row of every stacked bound must equal them bit for
bit, and the suites must report the same outcomes, detail strings included.
"""

import math

import numpy as np
import pytest

from choreo import cli, verify
from choreo.action import CollisionError, kinetic_value, rotating_action
from choreo.bounds import (
    bound_chain,
    bound_chain_minimum,
    bound_chain_stack,
    constrained_power_min,
    jensen_gap,
    jensen_gap_stack,
    poincare_ratio,
    poincare_ratio_stack,
    rayleigh_quotient,
    rayleigh_quotient_stack,
)
from choreo.loops import (
    FourierLoop,
    SystemParams,
    coefficient_rows,
    lag_distances,
    min_separation,
    pair_square_integrals,
    pair_square_integrals_stack,
    resolve_grid_size,
    unpack_coefficients,
)
from choreo.spectral import circulant_spectrum

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# loop references


def ref_random_loop(rng, params, cutoff=6, zero_mean=False, attempts=None):
    """One draw as one FourierLoop, checked by min_separation; the attempt
    that succeeded is appended to ``attempts``."""
    decay = np.arange(1, cutoff + 1, dtype=float)[:, None] ** -1.5
    for attempt in range(64):
        amp = 0.35 * (0.7**attempt)
        winding = 1 if rng.integers(0, 2) else -1
        radius = float(rng.uniform(0.6, 1.4))
        circle = np.zeros((2, cutoff, params.d))
        circle[0, 0, 0], circle[1, 0, 1] = radius, winding * radius
        cos = circle[0] + amp * decay * rng.standard_normal((cutoff, params.d))
        sin = circle[1] + amp * decay * rng.standard_normal((cutoff, params.d))
        mean = np.zeros(params.d) if zero_mean else 0.2 * amp * rng.standard_normal(params.d)
        loop = FourierLoop(mean, cos, sin)
        if min_separation(loop, params) > 1e-3:
            if attempts is not None:
                attempts.append(attempt)
            return loop
    raise RuntimeError("could not draw a collision-free random loop")


def ref_pair_square_integrals(loop, n):
    k = np.arange(1, loop.cutoff + 1)
    h = np.arange(1, n)
    weights = 2.0 * (1.0 - np.cos(TWO_PI * np.outer(h, k) / n))
    energy = np.sum(loop.cos_coeffs**2 + loop.sin_coeffs**2, axis=1)
    return math.pi * weights @ energy


def ref_poincare_ratio(q):
    energy = np.sum(q.cos_coeffs**2 + q.sin_coeffs**2, axis=1)
    k2 = np.arange(1, q.cutoff + 1, dtype=float) ** 2
    return float(k2 @ energy) / float(np.sum(energy))


def ref_jensen_gap(x, params, h):
    M = resolve_grid_size(x.cutoff, params.n, None)
    r2 = lag_distances(x.sample(M), params.n, h)[1][0]
    lhs = float(np.mean(r2 ** (-params.alpha / 2.0)))
    xi_h = float(ref_pair_square_integrals(x, params.n)[h - 1])
    return lhs - (xi_h / TWO_PI) ** (-params.alpha / 2.0)


def ref_y(x, params):
    spec = circulant_spectrum(params.n, params.alpha, cross_validate=False)
    return spec, float(spec.mu_bar @ ref_pair_square_integrals(x, params.n))


def ref_rayleigh_quotient(x, params):
    _, y = ref_y(x, params)
    return kinetic_value(x.mean, x.cos_coeffs, x.sin_coeffs, 0.0) / (params.n * y)


def ref_bound_chain(x, params):
    """(a, a_tilde, a_bar, a_bar_legacy, y) from rotating_action."""
    inertial = SystemParams(n=params.n, d=params.d, alpha=params.alpha, omega=0.0)
    action = rotating_action(x, inertial)
    spec, y = ref_y(x, params)
    pot = spec.c_tilde / y ** (params.alpha / 2.0)
    return (
        action.total,
        action.kinetic + pot,
        math.pi * y + pot,
        TWO_PI * params.n * y + pot,
        y,
    )


def ref_suite_inequalities(seeds, seed):
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(seeds):
        q = ref_random_loop(rng, SystemParams(n=3, d=2), zero_mean=True)
        worst = min(worst, ref_poincare_ratio(q))
    out = [("poincare", worst >= 1.0 - 1e-12, f"min ratio over {seeds} loops = {worst:.12f}")]
    worst_gap = math.inf
    for _ in range(seeds):
        n = int(rng.integers(2, 7))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        p = SystemParams(n=n, d=2, alpha=alpha)
        x = ref_random_loop(rng, p)
        h = int(rng.integers(1, n))
        worst_gap = min(worst_gap, ref_jensen_gap(x, p, h))
    out.append(("jensen", worst_gap >= -1e-10, f"min gap over {seeds} draws = {worst_gap:.3e}"))
    xs = np.arange(0.01, TWO_PI - 0.005, 0.01)
    worst_margin = math.inf
    for k in range(2, 13):
        margins = k * k * (1.0 - np.cos(xs)) - (1.0 - np.cos(k * xs))
        worst_margin = min(worst_margin, float(np.min(margins)))
    out.append(("trig", worst_margin > 0.0, f"min margin on the grid = {worst_margin:.3e}"))
    worst_stat, worst_gap2, worst_closed = 0.0, math.inf, 0.0
    for _ in range(max(seeds // 10, 5)):
        K = int(rng.integers(1, 8))
        mu = rng.uniform(0.2, 2.0, size=K)
        beta = float(rng.uniform(0.3, 2.5))
        res = constrained_power_min(mu, beta)
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
    out += [
        ("power_min_stationarity", worst_stat < 1e-10,
         f"max stationarity residual = {worst_stat:.3e}"),
        ("power_min_closed_form", worst_closed < 1e-9,
         f"max deviation from the closed form = {worst_closed:.3e}"),
        ("power_min_beats_random", worst_gap2 >= -1e-10,
         f"min (random feasible - optimum) = {worst_gap2:.3e}"),
    ]  # fmt: skip
    return [("inequalities",) + row for row in out]


def ref_suite_chain(seeds, seed):
    rng = np.random.default_rng(seed)
    worst_first = worst_second = worst_rayleigh = math.inf
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, d=2, alpha=alpha)
            for _ in range(max(seeds // 12, 4)):
                x = ref_random_loop(rng, p)
                a, a_tilde, a_bar, _, _ = ref_bound_chain(x, p)
                worst_first = min(worst_first, a - a_tilde)
                worst_second = min(worst_second, a_tilde - a_bar)
                worst_rayleigh = min(worst_rayleigh, ref_rayleigh_quotient(x, p) - math.pi / n)
    worst_eq = 0.0
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n=n, d=2, alpha=alpha)
            for radius in (bound_chain_minimum(n, alpha)["radius"], 1.0, 1.7):
                circle = FourierLoop.circle(radius, 1, dim=2, cutoff=4)
                a, a_tilde, a_bar, _, _ = ref_bound_chain(circle, p)
                worst_eq = max(worst_eq, abs(a - a_tilde), abs(a_tilde - a_bar))
    out = [
        ("ordering_first", worst_first >= -1e-10, f"min slack A - A~ = {worst_first:.3e}"),
        ("ordering_second", worst_second >= -1e-10, f"min slack A~ - A- = {worst_second:.3e}"),
        ("rayleigh_bound", worst_rayleigh >= -1e-10, f"min J - pi/n = {worst_rayleigh:.3e}"),
        ("circle_equality", worst_eq < 1e-9, f"max |slack| on circles = {worst_eq:.3e}"),
    ]
    return [("chain",) + row for row in out]


def outcomes(checks):
    return [(c.suite, c.name, c.passed, c.detail) for c in checks]


def loops_of(coeffs):
    _, rows, d = coeffs.shape
    return [unpack_coefficients(c.ravel(), d, rows // 2) for c in coeffs]


# ---------------------------------------------------------------------------
# draws


def test_stacked_draws_equal_successive_random_loops_with_a_retry():
    # n = 30 from seed 0 redraws once in 300 draws, and 300 draws span two
    # stacks
    p = SystemParams(n=30)
    a, b, c = (np.random.default_rng(0) for _ in range(3))
    stacks = list(verify._stacks(a, p, 300))
    assert [s.shape for s in stacks] == [(256, 13, 2), (44, 13, 2)]
    attempts = []
    for row in np.concatenate(stacks):
        assert np.array_equal(row, coefficient_rows(ref_random_loop(b, p, attempts=attempts)))
        assert np.array_equal(row, coefficient_rows(verify.random_loop(c, p)))
    assert len(attempts) == 300 and sum(attempts) == 1
    assert a.integers(1 << 30) == b.integers(1 << 30) == c.integers(1 << 30)


# ---------------------------------------------------------------------------
# stacked bounds, row by row


def stack_for(params, count, seed, zero_mean=False):
    rng = np.random.default_rng(seed)
    return np.concatenate(list(verify._stacks(rng, params, count, zero_mean)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_stacked_chain_rows_equal_the_loop_references(n, alpha):
    p = SystemParams(n=n, d=2, alpha=alpha)
    coeffs = stack_for(p, 9, seed=10 * n + int(4 * alpha))
    rep = bound_chain_stack(coeffs, p)
    J = rayleigh_quotient_stack(coeffs, p)
    xi = pair_square_integrals_stack(coeffs, n)
    assert rep.a.shape == J.shape == (9,) and xi.shape == (9, n - 1)
    for i, x in enumerate(loops_of(coeffs)):
        a, a_tilde, a_bar, legacy, y = ref_bound_chain(x, p)
        row = rep.row(i)
        assert (row.a, row.a_tilde, row.a_bar, row.a_bar_legacy, row.y_value) == (
            a, a_tilde, a_bar, legacy, y,
        )  # fmt: skip
        assert row.rayleigh == J[i] == ref_rayleigh_quotient(x, p)
        assert np.array_equal(xi[i], ref_pair_square_integrals(x, n))
        assert np.array_equal(row.xi, xi[i])
        one = bound_chain(x, p)
        assert all(np.array_equal(v, getattr(row, k)) for k, v in vars(one).items())
        assert rayleigh_quotient(x, p) == J[i]
        assert np.array_equal(pair_square_integrals(x, n), xi[i])


def test_stacked_circle_rows_equal_the_loop_references():
    for n, alpha in ((2, 0.5), (3, 1.0), (8, 2.0)):
        p = SystemParams(n=n, d=2, alpha=alpha)
        radii = (bound_chain_minimum(n, alpha)["radius"], 1.0, 1.7)
        circles = [FourierLoop.circle(r, 1, dim=2, cutoff=4) for r in radii]
        rep = bound_chain_stack(np.array([coefficient_rows(c) for c in circles]), p)
        for i, circle in enumerate(circles):
            a, a_tilde, a_bar, _, _ = ref_bound_chain(circle, p)
            assert (rep.a[i], rep.a_tilde[i], rep.a_bar[i]) == (a, a_tilde, a_bar)


def test_stacked_poincare_rows_equal_the_loop_references():
    coeffs = stack_for(SystemParams(n=3, d=2), 40, seed=5, zero_mean=True)
    ratios = poincare_ratio_stack(coeffs)
    for i, q in enumerate(loops_of(coeffs)):
        assert ratios[i] == ref_poincare_ratio(q) == poincare_ratio(q)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_stacked_jensen_rows_equal_the_loop_references(n):
    for alpha in (0.5, 1.0, 2.0):
        p = SystemParams(n=n, d=2, alpha=alpha)
        coeffs = stack_for(p, 12, seed=n)
        for h in range(1, n):
            gap = jensen_gap_stack(coeffs, p, h)
            for i, x in enumerate(loops_of(coeffs)):
                one = jensen_gap(x, p, h)
                assert (one.lhs, one.rhs) == (gap.lhs[i], gap.rhs[i])
                assert gap.gap[i] == one.gap == ref_jensen_gap(x, p, h)


# ---------------------------------------------------------------------------
# guards


def _collider(n, cutoff=4):
    """A circle of winding n: all n bodies sit on one point."""
    return FourierLoop.circle(1.0, n, dim=2, cutoff=cutoff)


def test_chain_and_jensen_still_refuse_a_collision_in_any_row():
    p = SystemParams(n=3, alpha=1.0)
    good = coefficient_rows(FourierLoop.circle(1.0, 1, dim=2, cutoff=4))
    bad = coefficient_rows(_collider(3))
    with pytest.raises(CollisionError) as one:
        bound_chain(_collider(3), p)
    with pytest.raises(CollisionError) as stacked:
        bound_chain_stack(np.array([good, bad, good]), p)
    assert str(stacked.value) == str(one.value)
    with pytest.raises(CollisionError) as one:
        jensen_gap(_collider(3), p, 2)
    with pytest.raises(CollisionError) as stacked:
        jensen_gap_stack(np.array([good, good, bad]), p, 2)
    assert str(stacked.value) == str(one.value) and stacked.value.h == 2


def test_rayleigh_and_poincare_keep_their_guards():
    # no collision guard: the segment x(t) = (cos t, 0) has its two bodies
    # meet at t = pi/2, and still a quotient
    segment = FourierLoop(np.zeros(2), np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    p2 = SystemParams(n=2, alpha=1.0)
    with pytest.raises(CollisionError):
        bound_chain(segment, p2)
    J = rayleigh_quotient(segment, p2)
    assert math.isfinite(J) and J == ref_rayleigh_quotient(segment, p2)
    p = SystemParams(n=3, alpha=1.0)
    with pytest.raises(ValueError, match="pair energy"):
        rayleigh_quotient(FourierLoop.zeros(2, 3), p)
    with pytest.raises(ValueError, match="zero-mean"):
        poincare_ratio_stack(np.array([np.zeros((7, 2)), np.ones((7, 2))]))
    with pytest.raises(ValueError, match="zero loop"):
        poincare_ratio_stack(np.zeros((2, 7, 2)))
    with pytest.raises(ValueError, match="lag"):
        jensen_gap_stack(np.zeros((1, 7, 2)), p, 3)


# ---------------------------------------------------------------------------
# suites against the per-loop references


@pytest.mark.parametrize("seeds", [200, 24, 1])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_suites_equal_the_per_loop_references(seeds, seed):
    inequalities = outcomes(verify.suite_inequalities(seeds, seed))
    assert inequalities == ref_suite_inequalities(seeds, seed)
    assert outcomes(verify.suite_chain(seeds, seed)) == ref_suite_chain(seeds, seed)


def test_suites_do_not_depend_on_the_stack_size(monkeypatch):
    whole = outcomes(verify.suite_inequalities(40, 2)) + outcomes(verify.suite_chain(60, 2))
    monkeypatch.setattr(verify, "_CHUNK", 3)
    chunked = outcomes(verify.suite_inequalities(40, 2)) + outcomes(verify.suite_chain(60, 2))
    assert chunked == whole


# ---------------------------------------------------------------------------
# the seeds cap


def test_run_suites_refuses_seeds_above_the_cap_before_any_work(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {"chain": lambda seeds: ran.append(seeds) or []})
    for seeds in (verify.MAX_SEEDS + 1, 10**9):
        with pytest.raises(ValueError, match="seeds"):
            verify.run_suites(["chain"], seeds=seeds)
    assert ran == []
    assert verify.run_suites(["chain"], seeds=verify.MAX_SEEDS) == ([], True)
    assert ran == [verify.MAX_SEEDS]


def test_cli_verify_refuses_seeds_above_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_draw", None)  # any draw would fail loudly
    code = cli.main(["verify", "--suite", "all", "--seeds", "1000000000"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: seeds ") and str(verify.MAX_SEEDS) in err
    assert len(err.strip().splitlines()) == 1
