"""Gains, sigmoid kernels and admissibility checks of the AV controllers.

The primary controller adds u = beta * sigmoid(gamma * s * dv) to the AV's
base car-following acceleration: it nudges the AV toward a softened copy of
its predecessor's speed, is odd in the relative speed, and is bounded by
beta times the sigmoid's supremum, which yields an explicit safety envelope
on beta. The sigmoid is arctan by default; tanh and erf are built in too.
The inputs themselves, this one and the baseline that additionally needs
the equilibrium traffic speed, are evaluated by `PlatoonEngine.control_input`.
`validate_controller_conditions` samples one fixed box whose `dv` axis
holds 0 exactly; its detail lines name any failing point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "SigmoidKernel",
    "SIGMOID_KERNELS",
    "ControllerParams",
    "beta_upper_bound",
    "validate_controller_conditions",
    "ConditionReport",
    "ConditionResult",
]


@dataclass(frozen=True)
class SigmoidKernel:
    """A bounded odd shaping function with derivative and supremum."""

    fn: Callable
    deriv: Callable
    sup: float


def _erf(w):
    # SciPy is imported on first use, so only erf-kernel runs pay for loading it.
    try:
        from scipy.special import erf
    except ImportError as err:
        raise DomainError("the erf kernel needs SciPy (the 'erf' extra)") from err
    return erf(w)


SIGMOID_KERNELS: dict[str, SigmoidKernel] = {
    "arctan": SigmoidKernel(np.arctan, lambda w: 1.0 / (1.0 + w * w), math.pi / 2),
    "tanh": SigmoidKernel(np.tanh, lambda w: 1.0 - np.tanh(w) ** 2, 1.0),
    "erf": SigmoidKernel(
        _erf, lambda w: (2.0 / math.sqrt(math.pi)) * np.exp(-(w * w)), 1.0
    ),
}


def get_kernel(name: str) -> SigmoidKernel:
    try:
        return SIGMOID_KERNELS[name]
    except KeyError:
        raise DomainError(
            f"unknown sigmoid kernel {name!r}; known: {sorted(SIGMOID_KERNELS)}"
        ) from None


@dataclass(frozen=True)
class ControllerParams:
    """Gains of the additive controller: output scale beta, argument gain gamma."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise DomainError("controller gains must be finite")
        if self.beta < 0 or self.gamma < 0:
            raise DomainError(
                f"controller gains must be non-negative, got beta={self.beta}, "
                f"gamma={self.gamma}"
            )


def beta_upper_bound(s0_av: float, min_safe: float, t_f: float, sup: float) -> float:
    """Largest beta whose worst case keeps spacing safe.

    Equals (s0_av - min_safe) / (sup * t_f), `sup` the kernel's supremum:
    the control magnitude is below beta*sup, so spacing cannot drain below
    min_safe within t_f. Zero slack means zero control authority.
    """
    if not (s0_av >= min_safe):
        raise DomainError(
            f"need initial spacing {s0_av} >= min safe spacing {min_safe}"
        )
    if t_f <= 0:
        raise DomainError(f"horizon must be positive, got {t_f}")
    return (s0_av - min_safe) / (sup * t_f)


# --- numerical verification of the controller-class conditions -------------


# the (s, dv) sampling box of the checks; the dv axis holds 0.0 exactly
_S_GRID = np.linspace(1.0, 150.0, 40)
_DV_GRID = np.linspace(-6.0, 6.0, 41)
_TOL = 1e-12  # slack of the monotonicity and boundedness comparisons
# largest growth of the sampled time-differences under dt halving
_RATIO_LIMIT = 1.6


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    detail: str  # names the failing sample point, if any


@dataclass(frozen=True)
class ConditionReport:
    monotonicity: ConditionResult
    sign: ConditionResult
    smoothness: ConditionResult
    boundedness: ConditionResult

    @property
    def all_passed(self) -> bool:
        return all(
            r.passed
            for r in (self.monotonicity, self.sign, self.smoothness, self.boundedness)
        )

    def __bool__(self) -> bool:
        return self.all_passed


def _check_monotonicity(S, D, U) -> ConditionResult:
    # increasing in dv at fixed s; increasing in s in the direction that
    # increases s*dv (equivalently, increasing in s for dv > 0 and
    # decreasing for dv < 0)
    ddv = np.diff(U, axis=1)
    if (ddv < -_TOL).any():
        i, j = np.unravel_index(np.argmin(ddv), ddv.shape)
        return ConditionResult(
            False, f"u not increasing in dv near (s={S[i, j]:.3f}, dv={D[i, j]:.3f})"
        )
    ds = np.diff(U, axis=0) * np.sign(D[:-1, :])
    if (ds < -_TOL).any():
        i, j = np.unravel_index(np.argmin(ds), ds.shape)
        return ConditionResult(
            False,
            f"u not monotone in s along sign(dv) near (s={S[i, j]:.3f}, "
            f"dv={D[i, j]:.3f})",
        )
    return ConditionResult(True, "monotone in dv and in s along sign(dv)")


def _check_sign(S, D, U) -> ConditionResult:
    at_zero = np.abs(U[:, D[0] == 0.0])
    if at_zero.size and at_zero.max() > 0.0:
        i = int(np.argmax(at_zero[:, 0]))
        return ConditionResult(
            False, f"u != 0 at dv=0 (s={S[i, 0]:.3f}, u={at_zero[i, 0]:.3e})"
        )
    off = D != 0.0
    prod = U[off] * D[off]
    if (prod <= 0.0).any():
        k = int(np.argmin(prod))
        return ConditionResult(False, f"u*dv <= 0 at (s={S[off][k]:.3f}, dv={D[off][k]:.3f})")
    return ConditionResult(True, "u*dv > 0 off dv=0 and u(., 0) = 0")


def _check_smoothness(u_fn) -> ConditionResult:
    # Sample u along smooth synthetic trajectories and compare max first/second
    # time-differences under dt refinement: they stabilize for a smooth
    # controller but scale like 1/dt (1/dt^2) across a jump. The dt pair must
    # resolve the steepest transition a saturating controller can have on the
    # box, so it sits well below the sweep time scales used here.
    s_mid = 0.5 * (_S_GRID[0] + _S_GRID[-1])
    s_amp = 0.45 * (_S_GRID[-1] - _S_GRID[0])

    def trajectory_maxdiffs(dt):
        t = np.arange(0.0, 40.0, dt)
        s = s_mid + s_amp * np.sin(0.37 * t)
        dv = 2.5 * np.sin(0.23 * t + 0.4)
        u = u_fn(s, dv)
        d1 = np.diff(u) / dt
        d2 = np.diff(u, 2) / dt**2
        return np.abs(d1).max(), np.abs(d2).max()

    d1a, d2a = trajectory_maxdiffs(0.002)
    d1b, d2b = trajectory_maxdiffs(0.001)
    if not all(map(math.isfinite, (d1a, d2a, d1b, d2b))):
        return ConditionResult(False, "non-finite sampled time-differences")
    r1 = d1b / d1a if d1a > 0 else 1.0
    r2 = d2b / d2a if d2a > 0 else 1.0
    if r1 > _RATIO_LIMIT or r2 > _RATIO_LIMIT:
        return ConditionResult(
            False,
            f"time-differences grow under dt refinement (ratios {r1:.2f}, "
            f"{r2:.2f}): derivative appears unbounded",
        )
    return ConditionResult(
        True, f"sampled du/dt <= {d1b:.3g}, d2u/dt2 <= {d2b:.3g}, stable under refinement"
    )


def _check_boundedness(S, D, U, alpha_claim) -> ConditionResult:
    U = np.abs(U)
    sup = float(U.max())
    if sup > alpha_claim + _TOL:
        i, j = np.unravel_index(np.argmax(U), U.shape)
        return ConditionResult(
            False,
            f"sup |u| = {sup:.6g} exceeds claimed bound {alpha_claim:.6g} at "
            f"(s={S[i, j]:.3f}, dv={D[i, j]:.3f})",
        )
    return ConditionResult(True, f"sup |u| = {sup:.6g} <= {alpha_claim:.6g}")


def validate_controller_conditions(ctrl: Callable, alpha_claim: float) -> ConditionReport:
    """Check the four admissibility conditions of the additive controller class.

    `ctrl(s, dv)` must accept numpy arrays. The conditions, each verified
    numerically on the fixed box s in [1, 150] m (40 points), dv in [-6, 6]
    m/s (41 points): (1) monotone increasing in dv and in s along the
    direction that increases s*dv; (2) u*dv > 0 for dv != 0 and u = 0 at
    dv = 0; (3) bounded sampled first/second time-differences along smooth
    test trajectories; (4) sup |u| <= alpha_claim.
    """
    u_fn = lambda s, dv: np.asarray(ctrl(s, dv), dtype=float)  # noqa: E731
    # conditions (1), (2) and (4) read one sample of u over the (s, dv) grid
    S, D = np.meshgrid(_S_GRID, _DV_GRID, indexing="ij")
    U = u_fn(S, D)
    return ConditionReport(
        monotonicity=_check_monotonicity(S, D, U),
        sign=_check_sign(S, D, U),
        smoothness=_check_smoothness(u_fn),
        boundedness=_check_boundedness(S, D, U, alpha_claim),
    )
