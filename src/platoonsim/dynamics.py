"""Car-following acceleration laws for human-driven and automated vehicles.

Two models are provided: a nonlinear intelligent-driver law (used for human
drivers) and a linear constant-time-gap law with relative-speed feedback
(used for automated vehicles). Both map the local state (spacing, relative
speed, own speed) to an acceleration and expose their equilibria and
rational-driving sign properties for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Union

import numpy as np
from numpy import add, divide, maximum, multiply, power, subtract

from .errors import DomainError, NoEquilibriumError

__all__ = [
    "IdmParams",
    "OvrvParams",
    "ModelKind",
    "operands",
    "equilibrium_spacing",
    "rdc_check",
    "RdcReport",
    "RdcViolation",
]


def _require_finite(**values: float) -> None:
    for name, val in values.items():
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")


@dataclass(frozen=True)
class IdmParams:
    """Intelligent-driver parameters.

    a: maximum acceleration (m/s^2); b: comfortable deceleration (m/s^2);
    v0: free-flow speed (m/s); s0: jam spacing (m); T: time headway (s);
    delta: speed exponent; length: vehicle length (m).
    """

    a: float
    b: float
    v0: float
    s0: float
    T: float
    delta: float
    length: float

    def __post_init__(self):
        for name in ("a", "b", "v0", "s0", "T", "delta", "length"):
            val = getattr(self, name)
            _require_finite(**{name: val})
            if val <= 0:
                raise DomainError(f"IdmParams.{name} must be positive, got {val}")

    @property
    def two_sqrt_ab(self) -> float:
        """2*sqrt(a*b), the desired spacing's braking scale."""
        return 2.0 * math.sqrt(self.a * self.b)


@dataclass(frozen=True)
class OvrvParams:
    """Linear gap-and-relative-speed parameters.

    k1: spacing gain (1/s^2); k2: relative-speed gain (1/s); eta: constant
    spacing offset (m); tau: desired time gap (s); length: vehicle length (m).
    """

    k1: float
    k2: float
    eta: float
    tau: float
    length: float

    def __post_init__(self):
        for name in ("k1", "k2", "eta", "tau", "length"):
            _require_finite(**{name: getattr(self, name)})
        if self.k1 <= 0 or self.k2 <= 0 or self.tau <= 0 or self.length <= 0:
            raise DomainError("OvrvParams k1, k2, tau, length must be positive")
        if self.eta < 0:
            raise DomainError(f"OvrvParams.eta must be non-negative, got {self.eta}")


# One concrete car-following law; dispatch is by parameter type.
ModelKind = Union[IdmParams, OvrvParams]

_ZERO, _ONE = np.array(0.0), np.array(1.0)  # 0-d: NumPy applies them faster than floats


def operands(p: ModelKind, dtype=float) -> SimpleNamespace:
    """The fields of `p`, and an IDM's `two_sqrt_ab`, as 0-d arrays of
    `dtype`: a twin that the laws read as they read `p`, with the same bits."""
    names = [f.name for f in fields(p)] + (["two_sqrt_ab"] if isinstance(p, IdmParams) else [])
    return SimpleNamespace(**{name: np.array(getattr(p, name), dtype) for name in names})


def idm_accel_arrays(s, dv, v, p: IdmParams, out=None, tmp=None):
    """Vectorized intelligent-driver acceleration (no input validation).

    The desired spacing is floored at the jam spacing term, and the
    free-road term reads the speed floored at 0, as the state is: a negative
    RK4 stage speed has no real power (v/v0)**delta. The power is NumPy's
    for any state, so floats and 0-d arrays in `p` give one result. Arrays
    `out` and `tmp` of the state's shape take the result and its scratch."""
    brake = divide(multiply(v, dv, tmp), p.two_sqrt_ab, tmp)
    gap = maximum(_ZERO, subtract(multiply(v, p.T, out), brake, out), out=out)
    free = divide(maximum(v, _ZERO, out=tmp), p.v0, tmp)
    free = subtract(_ONE, power(free, p.delta, tmp), tmp)
    ratio = divide(add(p.s0, gap, out), s, out)  # sstar / s
    ratio **= 2  # NumPy's square on arrays, the power of `** 2` on scalars
    return multiply(p.a, subtract(free, ratio, out), out)


def ovrv_accel_arrays(s, dv, v, p: OvrvParams):
    """Vectorized linear-law acceleration (no input validation)."""
    return p.k1 * (s - p.eta - p.tau * v) + p.k2 * dv


def equilibrium_spacing(model: ModelKind, v: float) -> float:
    """Spacing at which the model holds speed v behind an equally fast leader.

    Closed forms are used for both models.
    """
    _require_finite(v=v)
    if v < 0:
        raise DomainError(f"speed must be non-negative, got {v}")
    if isinstance(model, OvrvParams):
        return model.eta + model.tau * v
    if not isinstance(model, IdmParams):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    ratio = (v / model.v0) ** model.delta
    if ratio >= 1.0:
        raise NoEquilibriumError(
            f"no equilibrium spacing at v={v}: at or above free speed {model.v0}"
        )
    return float((model.s0 + v * model.T) / math.sqrt(1.0 - ratio))


@dataclass(frozen=True)
class RdcViolation:
    condition: str
    s: float
    dv: float
    v: float
    value: float


@dataclass(frozen=True)
class RdcReport:
    """Result of the rational-driving sign audit.

    Holds at most one violation (the first found) per partial derivative.
    """

    passed: bool
    violations: tuple[RdcViolation, ...]

    def __bool__(self) -> bool:
        return self.passed


# the sign audit's state box, (lo, hi) of s (m), dv (m/s) and v (m/s), its
# points per axis, its central-difference step and its slack
_RDC_BOX = ((5.0, 100.0), (-5.0, 5.0), (0.0, 30.0))
_RDC_N, _RDC_H, _RDC_TOL = 15, 1e-4, 1e-9


def rdc_check(model: ModelKind) -> RdcReport:
    """Verify the rational-driving sign conditions on a fixed state grid.

    Central finite differences estimate the partials of acceleration at every
    grid point; the check requires d/ds >= 0, d/ddv >= 0, d/dv <= 0 (within
    `_RDC_TOL`). Sample points are inset by the step `_RDC_H` so the stencil
    stays inside the physical box (s > 0, v >= 0).
    """
    h, tol = _RDC_H, _RDC_TOL
    S, D, V = np.meshgrid(
        *(np.linspace(lo + h, hi - h, _RDC_N) for lo, hi in _RDC_BOX), indexing="ij"
    )

    if isinstance(model, IdmParams):
        f = lambda s, dv, v: idm_accel_arrays(s, dv, v, model)  # noqa: E731
    elif isinstance(model, OvrvParams):
        f = lambda s, dv, v: ovrv_accel_arrays(s, dv, v, model)  # noqa: E731
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    d_s = (f(S + h, D, V) - f(S - h, D, V)) / (2 * h)
    d_dv = (f(S, D + h, V) - f(S, D - h, V)) / (2 * h)
    d_v = (f(S, D, V + h) - f(S, D, V - h)) / (2 * h)

    violations = []
    for name, deriv, bad in (
        ("d_accel/d_spacing >= 0", d_s, d_s < -tol),
        ("d_accel/d_relative_speed >= 0", d_dv, d_dv < -tol),
        ("d_accel/d_speed <= 0", d_v, d_v > tol),
    ):
        if bad.any():
            idx = np.unravel_index(np.argmax(bad), bad.shape)
            violations.append(
                RdcViolation(
                    condition=name,
                    s=float(S[idx]),
                    dv=float(D[idx]),
                    v=float(V[idx]),
                    value=float(deriv[idx]),
                )
            )
    return RdcReport(passed=not violations, violations=tuple(violations))
