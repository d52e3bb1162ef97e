"""Choreographic n-body action minimization with spectral certificates.

The package works with simple choreographies: n equal unit masses follow a
single 2*pi-periodic curve, body i delayed by i*tau with tau = 2*pi/n, under
an attractive pair potential 1/r^alpha.  It provides:

* ``loops`` -- truncated Fourier loops, body trajectories, symmetry
  projection and orbit diagnostics;
* ``action`` -- Kepler, inertial and rotating-frame action functionals with
  exact coefficient gradients and a force-balance residual, all evaluated
  through one ``Objective`` over packed Fourier coefficients;
* ``spectral`` -- the circulant second-difference operator on the body
  cycle, its eigenvalues, admissible eigenbranches, the circle-restricted
  optimum and the regime classifier over the frame angular velocity;
* ``bounds`` -- executable inequality oracles (Poincare, Jensen, the
  trigonometric estimate, the constrained power-sum minimum, the Rayleigh
  bound) and the two-step lower-bound chain with equality certificates;
* ``optimize`` -- Armijo descent in the H^1 kinetic metric over Fourier
  coefficients, with escape detection and cluster diagnostics;
* ``mountain_pass`` -- a path-based minimax saddle search between two local
  minimizers;
* ``cli`` -- the ``choreo`` command line front end.
"""

from .loops import (
    EIGHT3D,
    FourierLoop,
    LoopDiagnostics,
    SymmetryGroup,
    SystemParams,
    body_trajectories,
    diagnostics,
    project_symmetry,
)
from .action import (
    ActionValue,
    CollisionError,
    GradientVector,
    choreography_action,
    gradient,
    kepler_action,
    newton_residual,
    rotating_action,
)
from .spectral import (
    CirculantSpectrum,
    CirclePrediction,
    RegimeReport,
    admissible_lambdas,
    circulant_spectrum,
    classify,
    min2_check,
    omega_star,
    predicted_circle,
)
from .bounds import (
    BoundChainReport,
    bound_chain,
    constrained_power_min,
    jensen_gap,
    poincare_ratio,
    rayleigh_quotient,
    trig_check,
)
from .optimize import (
    DescentConfig,
    MinimizeResult,
    detect_clusters,
    init_circle,
    kepler_minimize,
    minimize,
    multistart,
)
from .mountain_pass import (
    LoopPath,
    MountainPassConfig,
    SaddleResult,
    mountain_pass,
)

__version__ = "0.1.0"

__all__ = [
    "ActionValue",
    "BoundChainReport",
    "CirclePrediction",
    "CirculantSpectrum",
    "CollisionError",
    "DescentConfig",
    "EIGHT3D",
    "FourierLoop",
    "GradientVector",
    "LoopDiagnostics",
    "LoopPath",
    "MinimizeResult",
    "MountainPassConfig",
    "RegimeReport",
    "SaddleResult",
    "SymmetryGroup",
    "SystemParams",
    "admissible_lambdas",
    "body_trajectories",
    "bound_chain",
    "choreography_action",
    "circulant_spectrum",
    "classify",
    "constrained_power_min",
    "detect_clusters",
    "diagnostics",
    "gradient",
    "init_circle",
    "jensen_gap",
    "kepler_action",
    "kepler_minimize",
    "min2_check",
    "minimize",
    "mountain_pass",
    "multistart",
    "newton_residual",
    "omega_star",
    "poincare_ratio",
    "predicted_circle",
    "project_symmetry",
    "rayleigh_quotient",
    "rotating_action",
    "trig_check",
]
