import numpy as np
import pytest

from platoonsim.dynamics import IdmParams, OvrvParams
from platoonsim.metrics import default_fuel_coefficients
from platoonsim.simulator import ControllerConfig, LeadProfile, Scenario, simulate

IDM_1 = IdmParams(a=0.6, b=2.5, v0=35.0, s0=2.0, T=1.5, delta=4.0, length=5.0)
IDM_2 = IdmParams(a=0.6, b=5.2, v0=44.1, s0=6.3, T=2.2, delta=15.5, length=5.0)
OVRV_1 = OvrvParams(k1=0.02, k2=0.13, eta=21.51, tau=1.71, length=5.0)

PAPER_LEAD = LeadProfile(
    (0.0, 100.0, 120.0, 140.0, 160.0), (21.0, 21.0, 18.0, 18.0, 21.0)
)
FLAT_LEAD = LeadProfile((0.0,), (21.0,))

# compressed version of the braking event for fast tests
SHORT_LEAD = LeadProfile((0.0, 10.0, 20.0, 30.0, 40.0), (21.0, 21.0, 18.0, 18.0, 21.0))

# the lead stops within 4 s, so the followers' speeds undershoot 0
STOP_LEAD = LeadProfile((0.0, 5.0, 9.0), (21.0, 21.0, 0.0))

TUNED_1 = (0.0642, 1.0011)
TUNED_2 = (0.0642, 1.0017)


def unclamped_idm(s, dv, v, p, out=None, tmp=None):
    """A test double of `idm_accel_arrays` whose free-road term reads the
    raw speed: at a negative RK4 stage speed a non-integer delta makes
    (v/v0)**delta NaN, a blow-up at a known vehicle and time. As the law,
    it writes its result into `out` when given (`tmp` is scratch)."""
    sstar = p.s0 + np.maximum(0.0, v * p.T - v * dv / p.two_sqrt_ab)
    return np.multiply(p.a, 1.0 - np.power(v / p.v0, p.delta) - (sstar / s) ** 2, out)


def unclamped_idm_floats(p):
    """`unclamped_idm` on Python floats, as `idm_accel_floats(p)` is the
    law's: the double of a float lane, with the bits of `unclamped_idm`."""
    def accel(s, dv, v):
        gap = v * p.T - v * dv / p.two_sqrt_ab
        sstar = p.s0 + (0.0 if gap < 0.0 else gap)  # np.maximum(0.0, gap), which keeps NaN
        ratio = float(np.divide(sstar, s))  # NumPy's: a spacing of 0 gives inf
        return p.a * (1.0 - float(np.power(v / p.v0, p.delta)) - ratio * ratio)

    return accel


def window_mask(t, window):
    """The metric-window rule as a boolean mask: samples within 1e-9 s of
    [t1, t2]. The independent reference for `window_slice`."""
    return (t >= window[0] - 1e-9) & (t <= window[1] + 1e-9)


def make_scenario(
    hv=IDM_1,
    mpr=0.0,
    kind="none",
    beta=0.0,
    gamma=1.0,
    lead=PAPER_LEAD,
    t_f=500.0,
    window=(100.0, 250.0),
    dt=0.1,
    envelope_s0=52.42,
    **kw,
):
    controller = ControllerConfig(
        kind=kind,
        beta=beta,
        gamma=gamma,
        envelope_s0=envelope_s0,
        phi2=0.1 if hv is IDM_1 else 0.04,
    )
    return Scenario(
        n_followers=10,
        mpr=mpr,
        hv_model=hv,
        av_model=OVRV_1,
        controller=controller,
        lead=lead,
        t_f=t_f,
        dt=dt,
        metric_window=window,
        min_safe_spacing=2.0,
        **kw,
    )


def make_short_scenario(mpr=0.1, kind="ts-ops", beta=0.03, gamma=0.5, **kw):
    kw.setdefault("lead", SHORT_LEAD)
    kw.setdefault("t_f", 50.0)
    kw.setdefault("window", (10.0, 40.0))
    return make_scenario(mpr=mpr, kind=kind, beta=beta, gamma=gamma, **kw)


@pytest.fixture(scope="session")
def fuel_coeffs():
    return default_fuel_coefficients()


@pytest.fixture(scope="session")
def s1_mpr0_traj():
    return simulate(make_scenario(mpr=0.0))


@pytest.fixture(scope="session")
def s1_mpr1_ops_traj():
    return simulate(make_scenario(mpr=1.0, kind="ts-ops", beta=TUNED_1[0], gamma=TUNED_1[1]))


@pytest.fixture(scope="session")
def s2_mpr0_traj():
    return simulate(make_scenario(hv=IDM_2, mpr=0.0, window=(100.0, 300.0)))


@pytest.fixture(scope="session")
def s2_mpr1_ops_traj():
    return simulate(
        make_scenario(
            hv=IDM_2,
            mpr=1.0,
            kind="ts-ops",
            beta=TUNED_2[0],
            gamma=TUNED_2[1],
            window=(100.0, 300.0),
        )
    )
