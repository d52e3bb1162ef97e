"""Correctness oracles that do not go through choreo's own diagnostics.

Every check here is written from the mathematics, not from stored output:
the circle-restricted optimum is solved in closed form, loops are sampled
and measured with the benchmark's own trigonometric evaluation, spectra are
checked against a dense circulant matrix built here, and saddles are
classified by the Morse index of a central-difference Hessian.

Each check returns a list of failure strings; an empty list means pass.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
OMEGA_STAR = 4.0 / 3.0  # universal low-speed threshold: below it the minimum is a circle


# ---------------------------------------------------------------------------
# circle-restricted optimum


def chord_power_sum(n: int, alpha: float, m: int) -> float:
    """S = sum_h (2 |sin(pi m h / n)|)^(-alpha); inf when a pair collides."""
    if m % n == 0 or math.gcd(abs(m), n) != 1:
        return math.inf
    h = np.arange(1, n)
    return float(np.sum((2.0 * np.abs(np.sin(math.pi * m * h / n))) ** -alpha))


def circle_optimum(n: int, alpha: float, omega: float, m: int) -> tuple[float, float]:
    """(R, A) of the winding-m circle: R^(alpha+2) = alpha S / (2 (m+w)^2),
    A = pi R^2 (m+w)^2 + pi S R^-alpha."""
    S = chord_power_sum(n, alpha, m)
    w2 = (m + omega) ** 2
    R = (alpha * S / (2.0 * w2)) ** (1.0 / (alpha + 2.0))
    return R, math.pi * R * R * w2 + math.pi * S * R**-alpha


def best_circles(n: int, alpha: float, omega: float) -> list[tuple[float, int, float]]:
    """Restricted optima (A, m, R) over every admissible winding, best first.

    Windings beyond |m| = ceil(omega) + 2n + 2 have a kinetic term that
    outgrows any gain in the potential, so the range is exhaustive.
    """
    span = 2 * n + 2
    out = []
    for m in range(-(math.ceil(omega) + span), span + 1):
        if m == 0 or math.gcd(abs(m), n) != 1 or (m + omega) == 0.0:
            continue
        R, A = circle_optimum(n, alpha, omega, m)
        out.append((A, m, R))
    out.sort()
    return out


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# loop geometry from raw coefficients


def sample(mean, cos, sin, M: int, derivative: bool = False) -> np.ndarray:
    """Loop (or its derivative) on t_j = 2 pi j / M, shape (M, d)."""
    cos = np.asarray(cos, float)
    sin = np.asarray(sin, float)
    k = np.arange(1, cos.shape[0] + 1, dtype=float)
    ph = np.outer(TWO_PI * np.arange(M) / M, k)
    if derivative:
        return np.sin(ph) @ (-k[:, None] * cos) + np.cos(ph) @ (k[:, None] * sin)
    return np.asarray(mean, float) + np.cos(ph) @ cos + np.sin(ph) @ sin


def grid_for(n: int, cutoff: int) -> int:
    """A grid that is a multiple of n and resolves 4 K harmonics."""
    return n * max(64, math.ceil(8 * cutoff / n))


def geometry(mean, cos, sin, n: int) -> dict:
    """Winding, mean radius and radius spread on the dominant plane of the
    sampled loop, and the minimal pair separation."""
    M = grid_for(n, np.asarray(cos).shape[0])
    X = sample(mean, cos, sin, M)
    Y = X - X.mean(axis=0)
    d = X.shape[1]
    if d == 2:
        basis = np.eye(2)
    else:
        _, _, vt = np.linalg.svd(Y, full_matrices=False)
        basis = vt[:2].T
    P = Y @ basis
    r = np.linalg.norm(P, axis=1)
    theta = np.arctan2(P[:, 1], P[:, 0])
    dtheta = (np.diff(np.concatenate([theta, theta[:1]])) + math.pi) % TWO_PI - math.pi
    stride = M // n
    sep = min(
        float(np.min(np.linalg.norm(X - np.roll(X, -h * stride, axis=0), axis=1)))
        for h in range(1, n)
    )
    return {
        "winding": int(round(float(np.sum(dtheta)) / TWO_PI)),
        "radius": float(np.mean(r)),
        "radius_spread": float(np.max(r) - np.min(r)),
        "min_separation": sep,
    }


def action(mean, cos, sin, n: int, alpha: float, omega: float) -> float:
    """Rotating-frame action by quadrature on the benchmark's own grid:
    int 1/2 |y' + w J y_P|^2 + 1/2 sum_h |y - y_h|^-alpha dt."""
    M = grid_for(n, np.asarray(cos).shape[0])
    X = sample(mean, cos, sin, M)
    V = sample(mean, cos, sin, M, derivative=True)
    V[:, 0] -= omega * X[:, 1]
    V[:, 1] += omega * X[:, 0]
    stride = M // n
    pot = sum(
        np.sum(np.linalg.norm(X - np.roll(X, -h * stride, axis=0), axis=1) ** -alpha)
        for h in range(1, n)
    )
    return (TWO_PI / M) * 0.5 * (float(np.sum(V * V)) + float(pot))


def lag_profile(X: np.ndarray, n: int) -> np.ndarray:
    """Time-averaged distance between body 0 and body h, h = 1..n-1."""
    stride = X.shape[0] // n
    return np.array(
        [
            float(np.mean(np.linalg.norm(X - np.roll(X, -h * stride, axis=0), axis=1)))
            for h in range(1, n)
        ]
    )


# ---------------------------------------------------------------------------
# descent outcomes


def check_circle(result, n, alpha, omega, m, grad_tol, signed: bool) -> list[str]:
    """A descent that must land on the winding-m restricted optimum."""
    fails = []
    if not (result.converged and result.grad_norm < grad_tol):
        fails.append(f"not converged: grad {result.grad_norm:.2e}, {result.abort_reason}")
    R, A = circle_optimum(n, alpha, omega, m)
    loop = result.loop
    g = geometry(loop.mean, loop.cos_coeffs, loop.sin_coeffs, n)
    want = m if signed else abs(m)
    got = g["winding"] if signed else abs(g["winding"])
    if got != want:
        fails.append(f"winding {g['winding']} != {m}")
    if abs(g["radius"] - R) >= 1e-4 or g["radius_spread"] >= 1e-4:
        fails.append(f"radius {g['radius']:.8f} (spread {g['radius_spread']:.1e}) vs {R:.8f}")
    if rel_err(result.action.total, A) >= 1e-6:
        fails.append(f"action {result.action.total:.10f} vs {A:.10f}")
    return fails


def check_escape(result, start_action: float) -> list[str]:
    fails = []
    if not result.escaped_to_infinity or result.converged:
        fails.append(
            f"escaped={result.escaped_to_infinity} converged={result.converged}"
        )
    a = result.action.total
    if not 0.0 < a < start_action:
        fails.append(f"final action {a:.6f} not in (0, start {start_action:.6f})")
    return fails


def check_clusters(result, n, grad_tol, winding, shape) -> list[str]:
    """Non-rigid minimizer: converged, winding, not a circle, and the body
    partition recomputed from lag-averaged distances on loop.sample."""
    fails = []
    if not (result.converged and result.grad_norm < grad_tol):
        fails.append(f"not converged: grad {result.grad_norm:.2e}, {result.abort_reason}")
    loop = result.loop
    g = geometry(loop.mean, loop.cos_coeffs, loop.sin_coeffs, n)
    if abs(g["winding"]) != winding:
        fails.append(f"winding {g['winding']} != +-{winding}")
    if g["radius_spread"] <= 1e-2:
        fails.append("rigid circle, expected a non-rigid minimizer")
    profile = lag_profile(loop.sample(grid_for(n, loop.cutoff)), n)
    order = np.argsort(profile)
    ratios = profile[order][1:] / np.maximum(profile[order][:-1], 1e-300)
    cut = int(np.argmax(ratios)) + 1
    intra = sorted(int(h) + 1 for h in order[:cut])
    count, size = shape
    if float(np.max(ratios)) <= 2.0 or intra != list(range(count, n, count)):
        fails.append(f"intra-cluster lags {intra} (gap {float(np.max(ratios)):.2f})")
    elif n // count != size:
        fails.append(f"partition {count}x{n // count} != {count}x{size}")
    return fails


# ---------------------------------------------------------------------------
# saddles


def morse_index(obj, vec: np.ndarray, h: float = 1e-5) -> tuple[int, np.ndarray]:
    """Negative eigenvalues of the central-difference Hessian of
    ``obj.value_and_grad`` on the free coordinates.  Eigenvalues within
    1e-6 of the spectral radius of zero are symmetry zero modes."""
    idx = np.flatnonzero(obj.mask)
    H = np.empty((idx.size, idx.size))
    for col, i in enumerate(idx):
        e = np.zeros_like(vec)
        e[i] = h
        H[:, col] = (obj.value_and_grad(vec + e)[1] - obj.value_and_grad(vec - e)[1])[
            idx
        ] / (2.0 * h)
    ev = np.linalg.eigvalsh(0.5 * (H + H.T))
    tol = 1e-6 * float(np.max(np.abs(ev)))
    return int(np.sum(ev < -tol)), ev


def check_saddle(obj, vec, loop, converged, grad_norm, action_total, end_action, n):
    """Converged index-1 critical point above both (equal) endpoint actions.
    Returns (failures, geometry)."""
    fails = []
    if not (converged and grad_norm < 1e-6):
        fails.append(f"not converged: grad {grad_norm:.2e}")
    if not action_total > end_action + 1e-9:
        fails.append(f"action {action_total:.8f} not above endpoints {end_action:.8f}")
    index, ev = morse_index(obj, vec)
    if index != 1:
        fails.append(f"Morse index {index} (lowest eigenvalues {ev[:3]})")
    return fails, geometry(loop.mean, loop.cos_coeffs, loop.sin_coeffs, n)


# ---------------------------------------------------------------------------
# certificates


def check_regime(n, alpha, omega, doc: dict) -> list[str]:
    """Consistency of a classify verdict (RegimeReport.as_dict() layout)
    with the restricted optimum and the universal threshold 4/3."""
    if math.ulp(omega) > 1e-6:
        # omega_bar is rounding noise at this size: no certificate can hold
        if doc["regime"] != "UNDETERMINED":
            return [f"certificate {doc['regime']} asserted at omega={omega:g}"]
        return []
    fails = []
    regime = doc["regime"]
    wbar, l = doc["reduction"]["omega_bar"], doc["reduction"]["l"]
    if not (0.0 <= wbar < n and abs(wbar + l * n - omega) <= 1e-9 * max(1.0, omega)):
        fails.append(f"reduction {wbar} + {l}*{n} != {omega}")
    integer = abs(wbar - round(wbar)) < 1e-12
    best = best_circles(n, alpha, omega)
    A0, m0, R0 = best[0]
    if wbar < OMEGA_STAR and not integer and regime not in (
        "ROTATING_CIRCLE",
        "INERTIAL_CIRCLE",
    ):
        fails.append(f"{regime} below the threshold 4/3")
    if regime in ("ROTATING_CIRCLE", "INERTIAL_CIRCLE"):
        if doc["predicted_winding"] != abs(m0):
            fails.append(f"winding {doc['predicted_winding']} != {abs(m0)}")
        if rel_err(doc["predicted_radius"], R0) > 1e-9:
            fails.append(f"radius {doc['predicted_radius']} != {R0}")
        if rel_err(doc["predicted_action"], A0) > 1e-9:
            fails.append(f"action {doc['predicted_action']} != {A0}")
    elif regime == "NONRIGID_WINDING_K":
        k = int(round(wbar))
        g = math.gcd(k, n)
        if not (g > 1 and abs(wbar - k) < 0.5):
            fails.append(f"non-rigid verdict at omega_bar {wbar} (k={k}, gcd {g})")
        elif tuple(doc["cluster_shape"]) != (n // g, g):
            fails.append(f"cluster shape {doc['cluster_shape']} != {(n // g, g)}")
        elif doc["predicted_winding"] != k + l * n:
            fails.append(f"winding {doc['predicted_winding']} != {k + l * n}")
    elif regime == "NEAR_N_TRANSLATED_CIRCLE":
        R1, A1 = circle_optimum(n, alpha, 0.0, 1)
        if round(wbar) != n or rel_err(doc["predicted_radius"], R1) > 1e-9:
            fails.append(f"near-n verdict at omega_bar {wbar}, radius {doc['predicted_radius']}")
    elif regime == "UNDETERMINED":
        hyp = doc["hypothesis"]
        if hyp is None or rel_err(hyp["action"], A0) > 1e-9 or rel_err(hyp["radius"], R0) > 1e-9:
            fails.append(f"hypothesis {hyp} is not the restricted optimum")
    elif not integer:
        fails.append(f"{regime} asserted at non-integer omega_bar {wbar}")
    return fails


def check_spectrum(n, mu_bar, deltas, multiplicities) -> list[str]:
    """Dense circulant built here from mu_bar against the closed form."""
    mu = np.asarray(mu_bar, float)
    c = np.zeros(n)
    c[0] = 2.0 * float(np.sum(mu))
    for h in range(1, n):
        c[h] -= mu[h - 1]
        c[(-h) % n] -= mu[h - 1]
    i = np.arange(n)
    D = c[(i[None, :] - i[:, None]) % n]
    dense = np.sort(np.linalg.eigvalsh(D))
    closed = np.sort(np.repeat(np.asarray(deltas, float), multiplicities))
    fails = []
    if dense.shape != closed.shape:
        return [f"{closed.size} eigenvalues for n={n}"]
    err = float(np.max(np.abs(dense - closed)))
    if err > 1e-10:
        fails.append(f"dense deviation {err:.2e}")
    if abs(deltas[1] - 1.0 / TWO_PI) > 1e-12 or deltas[0] != 0.0:
        fails.append(f"delta_0 {deltas[0]}, delta_1 {deltas[1]} != 1/(2 pi)")
    return fails


def check_power_min(mu, beta, res) -> list[str]:
    """Closed form of min sum s^-beta subject to mu . s = 1:
    s proportional to mu^(-1/(beta+1))."""
    s = mu ** (-1.0 / (beta + 1.0))
    s /= mu @ s
    err = float(np.max(np.abs(res.s - s)) / np.max(s))
    if err > 1e-9 or rel_err(res.value, float(np.sum(s**-beta))) > 1e-10:
        return [f"power-min deviation {err:.2e}"]
    return []
