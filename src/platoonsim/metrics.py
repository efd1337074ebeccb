"""Mobility and energy metrics over simulated trajectories.

Average speed variation (ASV) measures how far a vehicle's speed strays from
a reference speed over a time window. Fuel consumption uses a log-polynomial
regression in instantaneous speed and acceleration with separate coefficient
matrices for the acceleration and deceleration regimes; the coefficient table
ships as a data file whose header declares its unit convention.

Both are computed by one batched fold of the metric window, `WindowSums`,
which `run` (through `summarize`), `sweep` and `grid` share; its
`saturated` counts each lane's follower samples whose fuel exponent hit the
cap. The module writes no file.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError
from .simulator import Scenario, Trajectory, window_slice

__all__ = [
    "FuelCoefficients",
    "MetricsReport",
    "load_fuel_coefficients",
    "default_fuel_coefficients",
    "log_fuel_exponents",
    "WindowSums",
    "summarize",
]

# exponent cap: beyond this the regression is far outside its fitted range,
# so the rate saturates and the report flags it
_MAX_EXPONENT = 80.0

# accelerations below rounding noise must not flip the regime choice, since
# the two matrices disagree slightly at a = 0
_ACCEL_DEADBAND = 1e-10

_UNIT_SCALES = {
    # speed multiplier, acceleration multiplier (from m/s and m/s^2)
    "kmh": (3.6, 3.6),
    "ms": (1.0, 1.0),
}


@dataclass(frozen=True)
class FuelCoefficients:
    """4x4 log-rate coefficient matrices for each acceleration regime.

    `units` declares the speed/acceleration convention the matrices were
    fitted in: "kmh" (km/h and km/h/s) or "ms" (m/s and m/s^2). Rates are
    liters per second before the milliliter conversion in `WindowSums`.
    """

    k_accel: np.ndarray
    k_decel: np.ndarray
    units: str = "kmh"

    def __post_init__(self):
        for name in ("k_accel", "k_decel"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (4, 4) or not np.isfinite(mat).all():
                raise DomainError(f"{name} must be a finite 4x4 matrix")
            object.__setattr__(self, name, mat)
        if self.units not in _UNIT_SCALES:
            raise DomainError(
                f"unknown unit convention {self.units!r}; known: "
                f"{sorted(_UNIT_SCALES)}"
            )


def load_fuel_coefficients(path) -> FuelCoefficients:
    """Parse a coefficient file: a units header plus two labelled 4x4 blocks, each given once."""
    units = None
    blocks: dict[str, list[list[float]]] = {}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("units:"):
                if units is not None:
                    raise DomainError(f"coefficient file repeats its units: {line!r}")
                units = line.split(":", 1)[1].strip()
            elif line.startswith("regimes:"):
                continue
            elif line.startswith("regime:"):
                current = line.split(":", 1)[1].strip()
                if current in blocks:
                    raise DomainError(f"coefficient file repeats regime {current!r}")
                blocks[current] = []
            else:
                if current is None:
                    raise DomainError(f"coefficient row before any regime: {line!r}")
                blocks[current].append([float(tok) for tok in line.split()])
    if units is None or set(blocks) != {"accel", "decel"}:
        raise DomainError(
            "coefficient file must declare units and both accel/decel regimes"
        )
    return FuelCoefficients(
        k_accel=np.array(blocks["accel"]),
        k_decel=np.array(blocks["decel"]),
        units=units,
    )


def default_fuel_coefficients() -> FuelCoefficients:
    """The bundled composite-vehicle coefficient table."""
    ref = resources.files("platoonsim").joinpath("data/vt_micro_fuel.txt")
    with resources.as_file(ref) as path:
        return load_fuel_coefficients(path)


def _regime_exponents(vp, k, ap, shape):
    """sum_ij (vp[i] * k[i, j]) * ap[j], accumulated in C order of (i, j).

    vp[0] and ap[0] stand for 1, so their products are skipped; multiplying
    by 1 is exact, and the sum equals `einsum("...i,ij,...j->...")` bit for
    bit at a fraction of its cost.
    """
    acc = np.full(shape, k[0, 0])
    term = np.empty(shape)
    for i in range(4):
        for j in range(4):
            if i and j:
                np.multiply(vp[i], k[i, j], out=term)
                term *= ap[j]
            elif i or j:
                np.multiply(vp[i] if i else ap[j], k[i, j], out=term)
            else:
                continue
            acc += term
    return acc


def log_fuel_exponents(v, a, coeffs: FuelCoefficients):
    """Exponents of the fuel model for speed/accel arrays in m/s, m/s^2."""
    sv, sa = _UNIT_SCALES[coeffs.units]
    v = np.asarray(v, dtype=float) * sv
    a = np.asarray(a, dtype=float) * sa
    a = np.where(np.abs(a) < _ACCEL_DEADBAND, 0.0, a)
    shape = np.broadcast_shapes(v.shape, a.shape)
    vp = (None, v, v**2, v**3)
    # NumPy's a**3 is slow on negative bases; a**2 * a is within 1 ULP of it
    a2 = a**2
    ap = (None, a, a2, a2 * a)
    return np.where(
        a >= 0,
        _regime_exponents(vp, coeffs.k_accel, ap, shape),
        _regime_exponents(vp, coeffs.k_decel, ap, shape),
    )


class WindowSums:
    """Per-lane ASV and fuel over a metric window, folded block by block.

    Call it with consecutive blocks `(t, {"v": ..., "a": ...})` of the
    window's samples, as `PlatoonEngine.run(fold=...)` hands them over:
    leading time axis, then the lane axes, `v` with the leader column. It
    keeps the trapezoid sums of |v - v*| and of the fuel rate for every
    follower and carries the last sample's integrands across the seam, so
    each exponent is computed once. The sums continue NumPy's sequential
    axis-0 reduction, so any blocking gives the bits of one `np.trapezoid`
    over the whole window.
    """

    def __init__(self, scenario: Scenario, coeffs: FuelCoefficients):
        self.v_star = scenario.v_star
        t1, t2 = scenario.metric_window
        self.span = t2 - t1
        self.coeffs = coeffs
        self.sums = None  # (2, *lanes, n): ASV and fuel trapezoids
        # per lane: follower samples whose fuel exponent exceeded the cap
        self.saturated = None
        self._t = None  # time of the last sample folded
        self._g = None  # its integrands, (2, *lanes, n)

    def __call__(self, t, fields) -> None:
        v = fields["v"][..., 1:]
        expo = log_fuel_exponents(v, fields["a"], self.coeffs)
        over = np.count_nonzero(expo > _MAX_EXPONENT, axis=(0, -1))
        # row 0 is the previous block's last sample, or unused on the first
        g = np.empty((len(t) + 1, 2) + expo.shape[1:])
        np.abs(v - self.v_star, out=g[1:, 0])
        np.exp(np.minimum(expo, _MAX_EXPONENT), out=g[1:, 1])
        g[1:, 1] *= 1e3
        if self._t is None:
            self.sums = np.zeros(g.shape[1:])
            self.saturated = over
            g, times = g[1:], t
        else:
            self.saturated += over
            g[0] = self._g
            times = np.concatenate(([self._t], t))
        if not len(times):
            return
        # row 0 carries the running sums, so the reduction continues them
        terms = np.empty_like(g)
        terms[0] = self.sums
        d = np.diff(times).reshape((-1,) + (1,) * (g.ndim - 1))
        np.add(g[1:], g[:-1], out=terms[1:])
        terms[1:] *= d
        terms[1:] /= 2.0
        self.sums = np.add.reduce(terms, axis=0)
        self._t, self._g = times[-1], g[-1].copy()

    def per_vehicle(self):
        """ASV (m/s) and FC (ml) of every follower, shaped (*lanes, n)."""
        return self.sums[0] / self.span, self.sums[1]

    def platoon(self):
        """Platoon-mean ASV (m/s) and FC (ml) per lane."""
        asv_veh, fc_veh = self.per_vehicle()
        return asv_veh.mean(axis=-1), fc_veh.mean(axis=-1)


@dataclass(frozen=True)
class MetricsReport:
    """Per-follower (shaped (n,)) and platoon-aggregated metrics over one
    window, and `saturated`, `WindowSums`' count of the follower samples
    whose fuel rate was capped."""

    per_vehicle_asv: np.ndarray
    per_vehicle_fc: np.ndarray
    platoon_asv: float
    platoon_fc: float
    saturated: int = 0


def summarize(traj: Trajectory, scenario: Scenario, coeffs: FuelCoefficients) -> MetricsReport:
    """ASV and fuel for every follower plus platoon averages.

    The leader is excluded; the reference speed defaults to the scenario's
    initial lead speed. The metric window is folded by `WindowSums` as one
    block, as `sweep` and `grid` fold theirs.
    """
    keep = window_slice(traj.t, scenario.metric_window)
    sums = WindowSums(scenario, coeffs)
    sums(traj.t[keep], {"v": traj.v[keep], "a": traj.a[keep, 1:]})
    asv_m, fc_m = sums.platoon()
    return MetricsReport(
        *sums.per_vehicle(),
        platoon_asv=float(asv_m),
        platoon_fc=float(fc_m),
        saturated=int(sums.saturated),
    )

