import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platoonsim.dynamics import (
    IdmParams,
    OvrvParams,
    equilibrium_spacing,
    idm_accel_arrays,
    ovrv_accel_arrays,
    rdc_check,
)
from platoonsim.errors import DomainError, NoEquilibriumError

from conftest import IDM_1, IDM_2, OVRV_1


def idm_equilibrium_oracle(p, v):
    # independent closed form: solve accel=0 at dv=0 for s
    return (p.s0 + v * p.T) / math.sqrt(1.0 - (v / p.v0) ** p.delta)


class TestIdmAccel:
    def test_stationary_at_jam_spacing(self):
        assert idm_accel_arrays(IDM_1.s0, 0.0, 0.0, IDM_1) == 0.0

    def test_equilibrium_scenario1(self):
        s_eq = idm_equilibrium_oracle(IDM_1, 21.0)
        assert s_eq == pytest.approx(35.907, abs=1e-3)
        assert abs(idm_accel_arrays(s_eq, 0.0, 21.0, IDM_1)) < 1e-6

    def test_equilibrium_scenario2(self):
        s_eq = idm_equilibrium_oracle(IDM_2, 21.0)
        assert s_eq == pytest.approx(52.50, abs=5e-3)
        assert abs(idm_accel_arrays(s_eq, 0.0, 21.0, IDM_2)) < 1e-6

    def test_desired_spacing_clamp(self):
        # large opening relative speed clamps the dynamic term to zero,
        # leaving the jam-spacing floor
        large_dv = 2.0 * math.sqrt(IDM_1.a * IDM_1.b) * IDM_1.T + 1.0
        acc = idm_accel_arrays(50.0, large_dv, 10.0, IDM_1)
        expected = IDM_1.a * (1 - (10.0 / IDM_1.v0) ** 4 - (IDM_1.s0 / 50.0) ** 2)
        assert acc == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_inputs(self):
        # the laws themselves are unchecked array code; the equilibrium that
        # seeds every run validates its speed
        with pytest.raises(DomainError):
            equilibrium_spacing(IDM_1, -0.1)
        with pytest.raises(DomainError):
            equilibrium_spacing(IDM_1, math.nan)
        with pytest.raises(DomainError):
            equilibrium_spacing(OVRV_1, math.inf)

    def test_elementwise_over_arrays(self):
        s = np.array([[10.0, 35.0], [60.0, 120.0]])
        dv = np.array([[-2.0, 0.0], [1.5, 9.0]])
        v = np.array([[3.0, 21.0], [18.0, 30.0]])
        for law, p in ((idm_accel_arrays, IDM_2), (ovrv_accel_arrays, OVRV_1)):
            acc = law(s, dv, v, p)
            assert acc.shape == s.shape
            for idx in np.ndindex(s.shape):
                assert acc[idx] == law(s[idx], dv[idx], v[idx], p)


class TestOvrvAccel:
    def test_equilibrium(self):
        # equilibrium spacing eta + tau*v
        acc = ovrv_accel_arrays(57.42, 0.0, 21.0, OVRV_1)
        assert acc == pytest.approx(0.0, abs=1e-12)

    def test_zero_speed_fixed_point(self):
        assert ovrv_accel_arrays(OVRV_1.eta, 0.0, 0.0, OVRV_1) == 0.0

    def test_one_meter_surplus(self):
        acc = ovrv_accel_arrays(58.42, 0.0, 21.0, OVRV_1)
        assert acc == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.5, 2.0, -3.0])
    def test_linearity_in_spacing(self, delta):
        base = ovrv_accel_arrays(40.0, 1.2, 19.0, OVRV_1)
        shifted = ovrv_accel_arrays(40.0 + delta, 1.2, 19.0, OVRV_1)
        assert shifted - base == pytest.approx(OVRV_1.k1 * delta, rel=1e-9)


class TestModelParams:
    def test_idm_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            IdmParams(a=0.0, b=2.5, v0=35.0, s0=2.0, T=1.5, delta=4.0, length=5.0)

    def test_ovrv_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            OvrvParams(k1=-0.02, k2=0.13, eta=21.51, tau=1.71, length=5.0)
        with pytest.raises(DomainError):
            OvrvParams(k1=0.02, k2=0.13, eta=-1.0, tau=1.71, length=5.0)

    def test_dispatch(self):
        # equilibria and the sign audit dispatch on the parameter type
        assert equilibrium_spacing(OVRV_1, 21.0) == OVRV_1.eta + OVRV_1.tau * 21.0
        assert equilibrium_spacing(IDM_1, 0.0) == IDM_1.s0
        with pytest.raises(TypeError):
            equilibrium_spacing((0.02, 0.13), 21.0)
        with pytest.raises(TypeError):
            rdc_check((0.02, 0.13))


class TestEquilibriumSpacing:
    def test_ovrv_table1(self):
        assert equilibrium_spacing(OVRV_1, 21.0) == pytest.approx(57.42, abs=1e-9)

    def test_idm_at_rest(self):
        assert equilibrium_spacing(IDM_1, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_idm_scenario2(self):
        assert equilibrium_spacing(IDM_2, 21.0) == pytest.approx(52.50, abs=5e-3)

    def test_matches_bisection(self):
        from scipy.optimize import brentq

        for params, v in ((IDM_1, 21.0), (IDM_2, 21.0), (IDM_1, 5.0)):
            s_root = brentq(
                lambda s: idm_accel_arrays(s, 0.0, v, params), 1e-3, 1e4, xtol=1e-10
            )
            assert equilibrium_spacing(params, v) == pytest.approx(s_root, abs=1e-6)

    def test_no_equilibrium_at_free_speed(self):
        with pytest.raises(NoEquilibriumError):
            equilibrium_spacing(IDM_1, IDM_1.v0)
        with pytest.raises(NoEquilibriumError):
            equilibrium_spacing(IDM_1, IDM_1.v0 + 5.0)

    @pytest.mark.parametrize("model", [IDM_1, IDM_2, OVRV_1], ids=["idm1", "idm2", "ovrv"])
    def test_strictly_increasing_in_speed(self, model):
        speeds = np.linspace(0.0, 30.0, 25)
        spacings = [equilibrium_spacing(model, v) for v in speeds]
        assert all(b > a for a, b in zip(spacings, spacings[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        v0=st.floats(0.1, 100.0),
        s0=st.floats(1e-2, 100.0),
        T=st.floats(1e-2, 10.0),
        delta=st.floats(0.1, 1e3),
        frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_idm_closed_form_is_a_fixed_point(self, a, b, v0, s0, T, delta, frac):
        # the closed form has no fallback, so it must leave no residual
        # acceleration anywhere below the free speed
        p = IdmParams(a=a, b=b, v0=v0, s0=s0, T=T, delta=delta, length=5.0)
        v = frac * v0
        assume((v / v0) ** delta < 1.0)
        s_eq = equilibrium_spacing(p, v)
        assert abs(idm_accel_arrays(s_eq, 0.0, v, p)) <= 1e-9

    @pytest.mark.parametrize("v", np.linspace(0.0, 0.95 * IDM_1.v0, 12))
    def test_idm_residual_over_speed_range(self, v):
        s_eq = equilibrium_spacing(IDM_1, float(v))
        assert abs(idm_accel_arrays(s_eq, 0.0, float(v), IDM_1)) < 1e-6


class TestRdcCheck:
    def test_idm_table1_passes(self):
        report = rdc_check(IDM_1)
        assert report.passed and not report.violations

    def test_idm_table2_passes(self):
        assert rdc_check(IDM_2).passed

    def test_ovrv_passes(self):
        assert rdc_check(OVRV_1).passed

    def test_sign_flip_fails(self):
        broken = OvrvParams(k1=0.02, k2=0.13, eta=21.51, tau=1.71, length=5.0)
        object.__setattr__(broken, "k1", -0.02)
        report = rdc_check(broken)
        assert not report.passed
        assert any("spacing" in v.condition for v in report.violations)
