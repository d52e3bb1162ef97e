"""Circulant spectra, admissible eigenbranches and the regime classifier.

The kinetic lower bound behind every circle certificate comes from the
weighted second-difference operator on the body cycle,

    (D x)_i = sum_{h=1}^{n-1} mu_h (2 x_i - x_{i+h} - x_{i-h}),

with weights built from the unit circle's pair data

    xi_h = 8 pi sin^2(pi h / n),     mu_h = 1 / (c xi_h^{alpha/2+1}),
    c    = sum_h xi_h^{-alpha/2}.

D is circulant: its eigenvalues are

    delta_l = 2 sum_h mu_h (1 - cos(2 pi h l / n)),   l = 0..floor(n/2),

with delta_0 = 0 (constant vector), delta_1 = 1/(2 pi) exactly, and
delta_l < l^2/(2 pi) for l >= 2.  Eigenvectors are the discrete cosine and
sine vectors, giving multiplicity 2 except for l = 0 and, for even n,
l = n/2.  A variant operator replaces xi_h by 8 pi sin^2(pi k h / n) for
integer k coprime with n; its eigenvalue multiset is a rearrangement of the
base one.

Under the choreography constraint, loop eigenmodes pair a spatial index l
with a time frequency kappa = l + r n (r integer), so periodic solutions of
the constrained eigenproblem exist exactly at lambda = (w - kappa)^2 /
delta_{l}.  The minimal admissible lambda decides which circle (if any)
carries the energy lower bound at frame speed w; how that plays out over w
is what :func:`classify` reports.

Calibration note: all quantitative predictions exposed here (radius, action)
come from the closed-form circle-restricted functional

    A(R, m) = pi R^2 (m + w)^2 + P_{|m|} / R^alpha,
    P_q = pi sum_h (2 |sin(pi q h / n)|)^{-alpha},

whose optimum is cross-checked elsewhere by force balance and by descent.
An older normalisation of the same constants (kinetic coefficient 2 pi n
and radius (alpha c~ / (4 pi n))^{1/(alpha+2)}) fails the circle equality
test; it is reported in ``legacy_constants`` fields for traceability and is
never used in predictions.

Each table is one array pass: the delta_l and the P_q are row sums of one
(rows, n - 1) array, the dense operator is gathered from its first row, and
the winding scan reads P_q from one table over the residues q coprime with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd

import numpy as np

TWO_PI = 2.0 * math.pi

# Regime labels for :func:`classify`.
INERTIAL_CIRCLE = "INERTIAL_CIRCLE"
ROTATING_CIRCLE = "ROTATING_CIRCLE"
NO_MINIMUM_COPRIME_INT = "NO_MINIMUM_COPRIME_INT"
CONTINUUM_OMEGA_N = "CONTINUUM_OMEGA_N"
INF_NOT_ATTAINED_CLUSTER = "INF_NOT_ATTAINED_CLUSTER"
NONRIGID_WINDING_K = "NONRIGID_WINDING_K"
NEAR_N_TRANSLATED_CIRCLE = "NEAR_N_TRANSLATED_CIRCLE"
UNDETERMINED = "UNDETERMINED"

ALL_REGIMES = (
    INERTIAL_CIRCLE,
    ROTATING_CIRCLE,
    NO_MINIMUM_COPRIME_INT,
    CONTINUUM_OMEGA_N,
    INF_NOT_ATTAINED_CLUSTER,
    NONRIGID_WINDING_K,
    NEAR_N_TRANSLATED_CIRCLE,
    UNDETERMINED,
)

_INTEGER_TOL = 1e-12


# ---------------------------------------------------------------------------
# spectrum


@dataclass(frozen=True)
class CirculantSpectrum:
    """Pair weights and the full eigenstructure of the cycle operator."""

    n: int
    alpha: float
    k: int
    xi_bar: np.ndarray  # (n-1,)
    mu_bar: np.ndarray  # (n-1,)
    c: float
    c_tilde: float
    deltas: np.ndarray  # (floor(n/2)+1,)
    multiplicities: tuple[int, ...]
    delta_max: float

    def delta_for(self, l: int) -> float:
        """Eigenvalue of the spatial index l (folded modulo n)."""
        l = abs(int(l)) % self.n
        l = min(l, self.n - l)
        return float(self.deltas[l])

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "k": self.k,
            "xi_bar": self.xi_bar.tolist(),
            "mu_bar": self.mu_bar.tolist(),
            "c": self.c,
            "c_tilde": self.c_tilde,
            "deltas": self.deltas.tolist(),
            "multiplicities": list(self.multiplicities),
            "delta_max": self.delta_max,
        }


def dense_operator(mu: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix of the second-difference operator with weights mu:
    circulant, entry (i, j) is the first row's entry (j - i) mod n."""
    first = np.concatenate((np.cumsum(2.0 * mu)[-1:], -(mu + mu[::-1])))
    idx = np.arange(n)
    return first[(idx[None, :] - idx[:, None]) % n]


def _multiplicities(n: int) -> tuple[int, ...]:  # 1, 2, ..., 2 (1 at l = n/2)
    return (1,) + (2,) * ((n - 1) // 2) + (1,) * (1 - n % 2)


# Entries of one row block of the delta_l and P_q tables: O(n) memory.
_BLOCK = 1 << 16


def _row_sums(term, rows: np.ndarray, n: int) -> np.ndarray:
    """sum_{h=1}^{n-1} term(r, h) for each r in rows: np.sum's pairwise sum."""
    h, step = np.arange(1, n), max(1, _BLOCK // n)
    return np.concatenate(
        [np.sum(term(rows[i : i + step, None], h), axis=-1) for i in range(0, len(rows), step)]
    )


# Largest body count with a spectrum (the eigenvalue sums cost O(n^2)), and
# largest one whose closed form is cross-checked against the dense n x n
# eigensolve (O(n^3)).
MAX_BODIES = 4096
DENSE_CHECK_MAX_N = 256


def circulant_spectrum(
    n: int, alpha: float, k: int = 1, cross_validate: bool = True
) -> CirculantSpectrum:
    """Weights, constants and eigenvalues for body count n and exponent alpha.

    ``k`` selects the variant operator built from the winding-k circle's
    pair data; it must be coprime with n (otherwise some xi^k_h vanish and
    the weights are undefined).  When ``cross_validate`` is set and
    n <= DENSE_CHECK_MAX_N, the closed form is checked against a dense
    eigensolve to 1e-10.
    """
    if not 2 <= n <= MAX_BODIES:
        raise ValueError(f"need 2 <= n <= {MAX_BODIES}, got n={n}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    k = int(k)
    if k < 1:
        raise ValueError("variant index k must be >= 1")
    if gcd(k, n) != 1:
        raise ValueError(
            f"variant k={k} shares a factor with n={n}: some pair distances "
            "vanish and the operator weights are undefined"
        )
    h = np.arange(1, n)
    xi = 8.0 * math.pi * np.sin(math.pi * k * h / n) ** 2
    c = float(np.sum(xi ** (-alpha / 2.0)))
    mu = 1.0 / (c * xi ** (alpha / 2.0 + 1.0))
    c_tilde = 0.5 * (TWO_PI) ** (alpha / 2.0 + 1.0) * c

    ls = np.arange(n // 2 + 1)
    deltas = 2.0 * _row_sums(lambda l, h: mu * (1.0 - np.cos(TWO_PI * h * l / n)), ls, n)
    deltas[0] = 0.0
    mult = _multiplicities(n)

    if cross_validate and n <= DENSE_CHECK_MAX_N:
        dense = np.sort(np.linalg.eigvalsh(dense_operator(mu, n)))
        closed = np.sort(np.repeat(deltas, mult))
        err = float(np.max(np.abs(dense - closed)))
        if err > 1e-10:
            raise AssertionError(
                f"closed-form spectrum disagrees with dense eigensolve by {err:.3e}"
            )

    return CirculantSpectrum(
        n=n, alpha=float(alpha), k=k, xi_bar=xi, mu_bar=mu, c=c, c_tilde=c_tilde,
        deltas=deltas, multiplicities=mult, delta_max=float(np.max(deltas)),
    )


# ---------------------------------------------------------------------------
# admissible eigenbranches


@dataclass(frozen=True)
class Lambda:
    """One admissible branch: spatial index l, repetition r, frequency
    kappa = l + r n, and the branch value (w - kappa)^2 / delta_l."""

    l: int
    r: int
    kappa: int
    delta: float
    value: float


def admissible_lambdas(spec: CirculantSpectrum, omega: float) -> list[Lambda]:
    """All branches (l, r) with l = 1..n-1 and r = -3..3, sorted ascending
    by value.

    Ties are preserved in the ordering (stable sort on (value, kappa)) and
    never broken: equal-value branches are genuinely tied minima.
    """
    out = []
    for l in range(1, spec.n):
        delta = spec.delta_for(l)
        if delta <= 0.0:
            continue
        for r in range(-3, 4):
            kappa = l + r * spec.n
            value = (omega - kappa) ** 2 / delta
            out.append(Lambda(l=l, r=r, kappa=kappa, delta=delta, value=value))
    out.sort(key=lambda b: (b.value, b.kappa))
    return out


def omega_star() -> float:
    """Largest frame speed below which the l = 1 branch is always minimal.

    Computed as min over integers k >= 2 of the crossing point of
    (w - 1)^2 against (w - k)^2 / k^2, i.e. min_k 2k/(k+1); the binding
    integer is k = 2, giving 4/3.
    """
    return min(2.0 * k / (k + 1.0) for k in range(2, 64))


@dataclass(frozen=True)
class Min2Result:
    holds: bool
    epsilon: float
    delta_max: float


def min2_check(n: int, alpha: float, k: int) -> Min2Result:
    """Certified half-width of the circle window around integer k.

    The winding-k circle branch is minimal whenever

        2 pi (w - k)^2 delta_max <= (1 - |w - k|)^2,

    where delta_max is the largest eigenvalue of the variant operator.
    Solving for |w - k| gives the half-width

        eps = min(1/2, 1 / (1 + sqrt(2 pi delta_max))),

    which equals 1/2 exactly when delta_max = 1/(2 pi) (n = 3) and is
    strictly smaller when a larger eigenvalue exists.
    """
    k = int(k)
    if not (2 <= k <= n - 1):
        raise ValueError(f"k must lie in [2, n-1], got k={k} for n={n}")
    if gcd(k, n) != 1:
        raise ValueError(f"k={k} must be coprime with n={n}")
    spec = circulant_spectrum(n, alpha, k=k, cross_validate=False)
    eps = _half_width(spec)
    return Min2Result(holds=eps > 0.0, epsilon=eps, delta_max=spec.delta_max)


def _half_width(spec: CirculantSpectrum) -> float:
    """The window half-width of :func:`min2_check` from ``spec``'s delta_max
    (the base spectrum where the variant operator is undefined)."""
    return min(0.5, 1.0 / (1.0 + math.sqrt(TWO_PI * spec.delta_max)))


# ---------------------------------------------------------------------------
# circle-restricted optimum


def _chord_sums(n: int, alpha: float, q: np.ndarray) -> np.ndarray:
    """P_q for an array of residues q coprime with n: one row sum each."""
    return math.pi * _row_sums(
        lambda q, h: (2.0 * np.abs(np.sin(math.pi * q * h / n))) ** (-alpha), q, n
    )


def chord_sum(n: int, alpha: float, q: int) -> float:
    """P_q = pi sum_h (2 |sin(pi q h / n)|)^{-alpha}; infinite if gcd(q,n)>1."""
    q = abs(int(q)) % n  # gcd(0, n) = n: q = 0 collides too
    return float(_chord_sums(n, alpha, np.array([q]))[0]) if gcd(q, n) == 1 else math.inf


def _circle(alpha, omega, m, P, R=None) -> tuple[float, float]:
    """(R, A(R, m)) given the chord sum P; R defaults to the optimal radius."""
    if R is None:
        R = (alpha * P / (TWO_PI * (m + omega) ** 2)) ** (1.0 / (alpha + 2.0))
    return R, math.pi * R**2 * (m + omega) ** 2 + P / R**alpha


def circle_radius_for_winding(n: int, alpha: float, omega: float, m: int) -> float:
    """Optimal radius of the winding-m circle: stationarity of A(R, m)."""
    P = chord_sum(n, alpha, m)
    if not math.isfinite(P):
        raise ValueError(f"winding {m} collides for n={n}")
    if (m + omega) ** 2 == 0.0:
        raise ValueError("winding cancels the frame speed: no optimal radius")
    return _circle(alpha, omega, m, P)[0]


def restricted_circle_action(
    n: int, alpha: float, omega: float, m: int, radius: float
) -> float:
    """A(R, m) = pi R^2 (m + w)^2 + P_{|m|} / R^alpha."""
    return _circle(alpha, omega, m, chord_sum(n, alpha, m), radius)[1]


@dataclass(frozen=True)
class CirclePrediction:
    """Best circles of the restricted action; ties carried as a tuple."""

    windings: tuple[int, ...]  # signed rotating-frame windings, tied set
    radius: float
    action: float
    chord_sum: float
    legacy_constants: dict = field(default_factory=dict)

    @property
    def winding(self) -> int:
        return self.windings[0]

    @property
    def period(self) -> float:
        return TWO_PI / abs(self.windings[0])

    def as_dict(self) -> dict:
        return {
            "windings": list(self.windings),
            "radius": self.radius,
            "action": self.action,
            "chord_sum": self.chord_sum,
            "period": self.period,
            "legacy_constants": self.legacy_constants,
        }


def predicted_circle(n: int, alpha: float, omega: float) -> CirclePrediction | None:
    """Minimise the circle-restricted action over the integer windings
    -(ceil(w) + 2n + 2) <= m <= 2n + 2.

    Windings m with gcd(|m|, n) > 1 carry colliding circles (infinite
    potential) and never compete.  Returns None when an admissible winding
    cancels the frame speed exactly (m + w = 0): the restricted infimum is
    then 0, approached by ever larger circles and not attained.
    """
    if n < 2 or alpha <= 0:
        raise ValueError(f"need n >= 2 and alpha > 0, got n={n}, alpha={alpha}")
    span = 2 * n + 2
    ms = [m for m in range(-(math.ceil(omega) + span), span + 1) if gcd(abs(m) % n, n) == 1]
    if any(abs(m + omega) < _INTEGER_TOL for m in ms):
        return None
    qs = sorted({abs(m) % n for m in ms})
    P = dict(zip(qs, _chord_sums(n, alpha, np.array(qs)).tolist()))
    best = [(m, *_circle(alpha, omega, m, P[abs(m) % n])) for m in ms]
    best.sort(key=lambda t: (t[2], abs(t[0]), t[0]))
    a_min = best[0][2]
    tied = [t for t in best if t[2] <= a_min * (1.0 + 1e-12)]
    windings = tuple(t[0] for t in tied)
    spec = circulant_spectrum(n, alpha, cross_validate=False)
    k_near = max(int(round(omega)), 1)
    e, rot = 1.0 / (alpha + 2.0), 2.0 * n * TWO_PI * max((omega - k_near) ** 2, 1e-300)
    legacy = {
        "radius_inertial": (alpha * spec.c_tilde / (4.0 * math.pi * n)) ** e,
        "radius_rotating": (alpha * spec.c_tilde / rot) ** e,
        "kinetic_coefficient": TWO_PI * n,
    }
    return CirclePrediction(
        windings=windings,
        radius=tied[0][1],
        action=a_min,
        chord_sum=P[abs(windings[0]) % n],
        legacy_constants=legacy,
    )


def kepler_circle(alpha: float) -> dict:
    """Closed-form optimum of the two-body functional on circles.

    pi R^2 + 2 pi / R^alpha is minimal at R = alpha^{1/(alpha+2)}, where the
    squared-norm integral equals 2 pi alpha^{2/(alpha+2)}.
    """
    R = alpha ** (1.0 / (alpha + 2.0))
    return {
        "radius": R,
        "action": math.pi * R**2 + TWO_PI / R**alpha,
        "norm_integral": TWO_PI * alpha ** (2.0 / (alpha + 2.0)),
    }


# ---------------------------------------------------------------------------
# regime classification


@dataclass(frozen=True)
class RegimeReport:
    """Verdict for (n, alpha, omega): minimizer type and predictions.

    ``reduction`` records (omega_bar, l) with omega = omega_bar + l*n; the
    regime structure is n-periodic in omega up to winding bookkeeping.
    Predicted fields are populated exactly when the regime predicts a circle;
    for UNDETERMINED the circle-restricted optimum is attached separately as
    a hypothesis, not a conclusion.
    """

    n: int
    alpha: float
    omega: float
    regime: str
    predicted_winding: int | None = None
    predicted_radius: float | None = None
    predicted_action: float | None = None
    predicted_period: float | None = None
    cluster_shape: tuple[int, int] | None = None
    reduction: tuple[float, int] = (0.0, 0)
    tied_windings: tuple[int, ...] | None = None
    circle: CirclePrediction | None = None
    hypothesis: CirclePrediction | None = None
    evidence: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "omega": self.omega,
            "regime": self.regime,
            "predicted_winding": self.predicted_winding,
            "predicted_radius": self.predicted_radius,
            "predicted_action": self.predicted_action,
            "predicted_period": self.predicted_period,
            "cluster_shape": list(self.cluster_shape) if self.cluster_shape else None,
            "reduction": {"omega_bar": self.reduction[0], "l": self.reduction[1]},
            "tied_windings": list(self.tied_windings) if self.tied_windings else None,
            "circle": self.circle.as_dict() if self.circle else None,
            "hypothesis": self.hypothesis.as_dict() if self.hypothesis else None,
            "evidence": list(self.evidence),
        }


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) < _INTEGER_TOL


def classify(n: int, alpha: float, omega: float) -> RegimeReport:
    """Regime of the rotating-frame action at frame speed omega >= 0.

    Decision order: reduce omega >= n to omega_bar in [0, n); handle exact
    integers; the low-speed band omega_bar < 4/3 (always a circle); the
    certified windows around integers (circle when coprime with n, non-rigid
    clustering when sharing a factor); the band just below n (translated
    counter-rotating circles); otherwise UNDETERMINED with the restricted
    circle attached as a hypothesis.
    """
    if not (math.isfinite(omega) and math.isfinite(alpha)):
        raise ValueError(f"omega and alpha must be finite, got omega={omega}, alpha={alpha}")
    if n < 2 or omega < 0:
        raise ValueError(f"need n >= 2 and omega >= 0, got n={n}, omega={omega}")
    if math.ulp(omega) > _INTEGER_TOL:
        # omega_bar and the integer tests would be rounding noise
        raise ValueError(
            f"omega={omega:g} is too large: its float spacing {math.ulp(omega):.1e} "
            f"exceeds the integer tolerance {_INTEGER_TOL:g}"
        )
    evidence: list[str] = []

    l_red = int(omega // n) if omega >= n else 0
    omega_bar = omega - l_red * n
    if l_red:
        evidence.append(
            f"reduced frame speed: omega = {omega_bar:.12g} + {l_red}*{n}"
        )
    red = (omega_bar, l_red)

    def report(regime, **kw):
        return RegimeReport(
            n=n,
            alpha=alpha,
            omega=omega,
            regime=regime,
            reduction=red,
            evidence=tuple(evidence),
            **kw,
        )

    def circle_report(regime, prediction, extra_evidence=()):
        evidence.extend(extra_evidence)
        tied = prediction.windings if len(prediction.windings) > 1 else None
        return report(
            regime,
            predicted_winding=abs(prediction.winding),
            predicted_radius=prediction.radius,
            predicted_action=prediction.action,
            predicted_period=prediction.period,
            tied_windings=tied,
            circle=prediction,
        )

    # exact multiples of n (incl. omega = 0)
    if _is_integer(omega_bar) and int(round(omega_bar)) in (0, n):
        if l_red == 0 and omega_bar < 0.5:
            evidence.append("inertial frame: absolute minimum is the unit-period circle")
            pred = predicted_circle(n, alpha, 0.0)
            return circle_report(INERTIAL_CIRCLE, pred)
        evidence.append(
            "frame speed is an exact multiple of n: inertial circles of every "
            "center re-read as rotating-frame loops; minima form a continuum"
        )
        pred = predicted_circle(n, alpha, 0.0)
        return report(
            CONTINUUM_OMEGA_N,
            predicted_radius=pred.radius if pred else None,
            predicted_action=pred.action if pred else None,
            circle=pred,
        )

    # other exact integers
    if _is_integer(omega_bar):
        k = int(round(omega_bar))
        g = gcd(k, n)
        if g == 1:
            evidence.append(
                f"integer frame speed {k} coprime with n: circles of winding "
                f"-{k + l_red * n} have vanishing kinetic term, the infimum 0 "
                "is approached by growing radii and never attained"
            )
            return report(NO_MINIMUM_COPRIME_INT)
        j, k_t = n // g, g
        evidence.append(
            f"integer frame speed {k} shares factor {g} with n: the system "
            f"splits into {j} subsystems of {k_t} bodies whose mutual "
            "interaction decays only at infinite separation; infimum not attained"
        )
        return report(INF_NOT_ATTAINED_CLUSTER, cluster_shape=(j, k_t))

    # exact half-integer ties, certified only when both adjacent windows
    # have full half-width (delta_max = 1/(2 pi), i.e. n = 3)
    half = omega_bar - 0.5
    if _is_integer(half):
        k = int(round(half))
        if 1 <= k <= n - 2 and gcd(k, n) == 1 and gcd(k + 1, n) == 1:
            eps = _half_width(circulant_spectrum(n, alpha, cross_validate=False))
            if eps >= 0.5 - _INTEGER_TOL:
                pred = predicted_circle(n, alpha, omega)
                if pred is not None and len(pred.windings) > 1:
                    return circle_report(
                        ROTATING_CIRCLE,
                        pred,
                        extra_evidence=[
                            f"exact half-integer frame speed between certified "
                            f"windows of windings {k + l_red * n} and "
                            f"{k + 1 + l_red * n}: tied circle families",
                        ],
                    )

    w_star = omega_star()
    if omega_bar < w_star:
        pred = predicted_circle(n, alpha, omega)
        return circle_report(
            ROTATING_CIRCLE if omega > 0 else INERTIAL_CIRCLE,
            pred,
            extra_evidence=[
                f"frame speed below the universal threshold {w_star:.6f}: the "
                "unit spatial branch is minimal and the minimum is a circle"
            ],
        )
    evidence.append(f"frame speed above the universal threshold {w_star:.6f}")

    k = int(round(omega_bar))
    if 2 <= k <= n - 1:
        g = gcd(k, n)
        dist = abs(omega_bar - k)
        if g == 1:
            cert = min2_check(n, alpha, k)
            if dist < cert.epsilon:
                pred = predicted_circle(n, alpha, omega)
                return circle_report(
                    ROTATING_CIRCLE,
                    pred,
                    extra_evidence=[
                        f"|omega_bar - {k}| = {dist:.6f} inside the certified "
                        f"window of half-width {cert.epsilon:.6f} "
                        f"(largest eigenvalue {cert.delta_max:.6f})"
                    ],
                )
            evidence.append(
                f"|omega_bar - {k}| = {dist:.6f} outside the certified "
                f"half-width {cert.epsilon:.6f}"
            )
        else:
            eps = _half_width(circulant_spectrum(n, alpha, cross_validate=False))
            if 0 < dist < eps:
                j, k_t = n // g, g
                evidence.append(
                    f"|omega_bar - {k}| = {dist:.6f} inside the margin "
                    f"{eps:.6f} around integer {k} sharing factor {g} with n: "
                    f"non-rigid planar minimizer of winding {k + l_red * n}, "
                    f"{j} clusters of {k_t} bodies"
                )
                return report(
                    NONRIGID_WINDING_K,
                    predicted_winding=k + l_red * n,
                    cluster_shape=(j, k_t),
                )
            evidence.append(
                f"|omega_bar - {k}| = {dist:.6f} outside the margin {eps:.6f} "
                f"around the shared-factor integer {k}"
            )

    if k == n:
        eps = _half_width(circulant_spectrum(n, alpha, cross_validate=False))
        dist = n - omega_bar
        if 0 < dist < eps:
            pred0 = predicted_circle(n, alpha, 0.0)  # the limiting inertial circle
            evidence.append(
                f"omega_bar within {dist:.6f} of n: minima approach translated "
                "unit circles counter-rotated at rate n"
            )
            return report(
                NEAR_N_TRANSLATED_CIRCLE,
                predicted_radius=pred0.radius if pred0 else None,
                predicted_action=pred0.action if pred0 else None,
                circle=pred0,
            )
        evidence.append(
            f"omega_bar is {dist:.6f} below n, outside the margin {eps:.6f}"
        )

    hyp = predicted_circle(n, alpha, omega)
    evidence.append(
        "no certificate applies: circle-restricted optimum attached as a "
        "hypothesis only"
    )
    return report(UNDETERMINED, hypothesis=hyp)
