import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim.controller import (
    SIGMOID_KERNELS,
    ControllerParams,
    SamplingBox,
    beta_upper_bound,
    validate_controller_conditions,
)
from platoonsim.errors import DomainError
from platoonsim.optimizer import project_feasible
from platoonsim.simulator import ControllerConfig, PlatoonEngine, Scenario

PAPER_GAINS = ControllerParams(beta=0.0642, gamma=1.0011)


def control(s, dv, v_prev=21.0, kind="ts-ops", **ctrl):
    """The input `u` of `PlatoonEngine.control_input` for a one-AV platoon,
    elementwise."""
    if kind == "ts-ops":
        ctrl = {"beta": PAPER_GAINS.beta, "gamma": PAPER_GAINS.gamma, **ctrl}
    sc = Scenario(n_followers=1, mpr=1.0, controller=ControllerConfig(kind=kind, **ctrl))
    s, dv, v_prev = (np.asarray(x, dtype=float)[..., None] for x in (s, dv, v_prev))
    return PlatoonEngine(sc).control_input(s, dv, v_prev)[..., 0]


class TestAdditiveInput:
    def test_zero_at_zero_relative_speed(self):
        assert control(50.0, 0.0) == 0.0

    def test_direct_evaluation(self):
        u = control(50.0, 1.0)
        assert u == pytest.approx(0.0642 * math.atan(50.055), rel=1e-12)
        assert u == pytest.approx(0.09957, abs=5e-5)

    def test_odd_symmetry(self):
        assert control(50.0, -1.0) == -control(50.0, 1.0)

    @pytest.mark.parametrize("s", [1.0, 20.0, 300.0])
    @pytest.mark.parametrize("dv", [-8.0, -0.3, 0.7, 15.0])
    def test_bounded_and_signed(self, s, dv):
        u = control(s, dv)
        assert abs(u) < PAPER_GAINS.beta * math.pi / 2
        assert u * dv > 0

    def test_alternate_kernels(self):
        # tanh/erf saturate to 1.0 in floating point at large arguments
        for kernel, sup in (("tanh", 1.0), ("erf", 1.0)):
            u = control(100.0, 5.0, kernel=kernel)
            assert 0 < u <= PAPER_GAINS.beta * sup

    @settings(max_examples=100, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        beta=st.floats(1e-4, 0.2),
        gamma=st.floats(1e-2, 5.0),
        points=st.lists(
            st.tuples(st.floats(0.5, 300.0), st.floats(1e-3, 20.0), st.booleans()),
            min_size=1,
            max_size=20,
        ),
    )
    def test_class_properties_for_every_kernel(self, kernel, beta, gamma, points):
        # bounded by beta*sup, signed like dv, zero at dv = 0, odd in dv
        s = np.array([p[0] for p in points])
        dv = np.array([-p[1] if p[2] else p[1] for p in points])
        gains = {"beta": beta, "gamma": gamma, "kernel": kernel}
        u = control(s, dv, **gains)
        assert (np.abs(u) <= beta * SIGMOID_KERNELS[kernel].sup).all()
        assert (u * dv > 0).all()
        assert not control(s, np.zeros_like(dv), **gains).any()
        assert np.array_equal(control(s, -dv, **gains), -u)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            ControllerParams(beta=math.inf, gamma=1.0)
        with pytest.raises(DomainError):
            ControllerParams(beta=-0.1, gamma=1.0)
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-ops", gamma=-1.0)
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-ops", kernel="sigmoid")


class TestSigmoidKernels:
    # signed zeros, subnormals, erf's saturation edge near |w| = 5.9, huge,
    # infinite and NaN arguments
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, -0.5, 2.0, 5.9, -5.9, 6.0,
             27.0, -27.0, 1e300, -1e300, math.inf, -math.inf, math.nan]

    def test_erf_kernel_is_scipy_erf(self):
        from scipy.special import erf

        fn = SIGMOID_KERNELS["erf"].fn
        w = np.array(self.EDGES)
        for arg in (w, np.stack([w, -w[::-1]])):
            assert fn(arg).shape == arg.shape
            assert fn(arg).tobytes() == erf(arg).tobytes()
        for x in self.EDGES:
            assert type(fn(x)) is type(erf(x))
            assert np.float64(fn(x)).tobytes() == np.float64(erf(x)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(w=st.floats(allow_nan=True, allow_infinity=True))
    @example(w=-0.0)
    def test_erf_kernel_bits_on_any_float(self, w):
        from scipy.special import erf

        assert np.float64(SIGMOID_KERNELS["erf"].fn(w)).tobytes() == erf(w).tobytes()


class TestVirtualSpeed:
    # the AV tracks the virtual speed v_prev + u of its predecessor

    def test_equals_predecessor_when_matched(self):
        assert 21.0 + control(57.42, 0.0) == 21.0

    def test_offset_by_control(self):
        v = 18.0 + control(50.0, 1.0, v_prev=18.0)
        assert v == pytest.approx(18.0 + 0.0642 * math.atan(50.055), rel=1e-12)
        assert v == pytest.approx(18.09957, abs=5e-5)

    def test_zero_beta_disables_control(self):
        assert 21.0 + control(50.0, -2.0, beta=0.0, gamma=1.0) == 21.0


ARCTAN_SUP = SIGMOID_KERNELS["arctan"].sup


class TestBetaUpperBound:
    @settings(max_examples=200, deadline=None)
    @given(
        s_min=st.floats(0.1, 50.0),
        slack=st.floats(0.0, 200.0),
        t_f=st.floats(1.0, 5000.0),
    )
    @example(s_min=2.0, slack=50.42, t_f=500.0)
    def test_arctan_bound_keeps_its_bits(self, s_min, slack, t_f):
        # (s0 - s_min) / ((pi/2) t_f) and 2 (s0 - s_min) / (pi t_f) scale the
        # same quotient by an exact factor 2, so they round alike
        s0 = s_min + slack
        assert beta_upper_bound(s0, s_min, t_f, ARCTAN_SUP) == (
            2.0 * (s0 - s_min) / (math.pi * t_f)
        )

    @pytest.mark.parametrize("kernel", sorted(SIGMOID_KERNELS))
    def test_scenario_bound_reads_the_kernels_supremum(self, kernel):
        # tanh and erf are bounded by 1, so their bound is pi/2 times arctan's
        sc = Scenario(t_f=500.0, controller=ControllerConfig(
            kind="ts-ops", kernel=kernel, envelope_s0=52.42))
        assert sc.beta_bound() == (52.42 - 2.0) / (SIGMOID_KERNELS[kernel].sup * 500.0)

    def test_paper_value(self):
        assert beta_upper_bound(52.42, 2.0, 500.0, ARCTAN_SUP) == pytest.approx(0.0642, abs=5e-5)

    def test_zero_slack(self):
        assert beta_upper_bound(30.0, 30.0, 100.0, ARCTAN_SUP) == 0.0

    def test_ovrv_equilibrium_spacing(self):
        assert beta_upper_bound(57.42, 2.0, 500.0, ARCTAN_SUP) == pytest.approx(0.07056, abs=1e-5)

    def test_rejects_negative_slack(self):
        with pytest.raises(DomainError):
            beta_upper_bound(1.0, 2.0, 500.0, ARCTAN_SUP)
        with pytest.raises(DomainError):
            beta_upper_bound(52.42, 2.0, 0.0, ARCTAN_SUP)


class TestSafetyEnvelope:
    def test_bound_gives_exact_envelope(self):
        # at the bound, the engine's largest input drains exactly the slack
        beta_max = beta_upper_bound(52.42, 2.0, 500.0, ARCTAN_SUP)
        u_sup = control(1e3, 1e3, beta=beta_max, gamma=1e12)
        assert u_sup == pytest.approx((52.42 - 2.0) / 500.0, rel=1e-12)

    def test_rejects_excess_alpha(self):
        # a beta above the bound can drain the slack within the horizon; the
        # projected descent never leaves it there
        beta_max = beta_upper_bound(52.42, 2.0, 500.0, ARCTAN_SUP)
        excess = 1.01 * beta_max
        assert 52.42 - excess * math.pi / 2 * 500.0 < 2.0
        assert project_feasible((excess, 1.0), beta_max).beta == beta_max

    def test_worst_case_drain_stays_safe(self):
        # sustained control at the supremum drains spacing linearly; any
        # beta below the bound keeps the worst case above the safe minimum
        s0, s_min, t_f = 52.42, 2.0, 500.0
        beta_max = beta_upper_bound(s0, s_min, t_f, ARCTAN_SUP)
        for frac in (0.25, 0.6, 1.0):
            alpha = frac * beta_max * math.pi / 2
            t = np.linspace(0.0, t_f, 2001)
            worst_spacing = s0 - alpha * t
            assert worst_spacing.min() >= s_min - 1e-9


class TestTsTrc:
    def test_inactive_at_equilibrium(self):
        assert control(40.0, 0.0, 21.0, kind="ts-trc", v_star=21.0) == 0.0

    def test_scenario1_config(self):
        u = control(50.0, 0.0, 18.0, kind="ts-trc", phi2=0.1, v_star=21.0)
        assert u == pytest.approx(0.1 * math.atan(1.5), rel=1e-12)
        assert u == pytest.approx(0.09828, abs=5e-5)

    def test_scenario2_config(self):
        u = control(50.0, 0.0, 18.0, kind="ts-trc", phi2=0.04, v_star=21.0)
        assert u == pytest.approx(0.03931, abs=5e-5)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-trc", phi1=-1.0)
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-trc", phi3=-0.01)
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-trc", v_star=0.0)


def arctan_controller(beta, gamma):
    return lambda s, dv: beta * np.arctan(gamma * s * dv)


class TestConditionSuite:
    def test_arctan_passes_all(self):
        beta = 0.0642
        report = validate_controller_conditions(
            arctan_controller(beta, 1.0), alpha_claim=beta * math.pi / 2
        )
        assert report.all_passed, report

    def test_constant_fails_sign(self):
        report = validate_controller_conditions(
            lambda s, dv: np.full_like(np.asarray(s, dtype=float), 0.1),
            alpha_claim=0.2,
        )
        assert not report.sign.passed
        assert report.boundedness.passed

    def test_too_small_bound_fails_boundedness(self):
        beta = 0.0642
        report = validate_controller_conditions(
            arctan_controller(beta, 1.0), alpha_claim=beta
        )
        assert not report.boundedness.passed
        assert report.sign.passed

    def test_decreasing_controller_fails_monotonicity(self):
        report = validate_controller_conditions(
            lambda s, dv: -0.01 * np.asarray(dv, dtype=float), alpha_claim=10.0
        )
        assert not report.monotonicity.passed

    def test_discontinuous_controller_fails_smoothness(self):
        report = validate_controller_conditions(
            lambda s, dv: 0.1 * np.sign(dv), alpha_claim=0.1
        )
        assert not report.smoothness.passed

    def test_custom_box(self):
        box = SamplingBox(s=(5.0, 80.0, 20), dv=(-3.0, 3.0, 21))
        report = validate_controller_conditions(
            arctan_controller(0.05, 2.0), alpha_claim=0.05 * math.pi / 2, box=box
        )
        assert report.all_passed
