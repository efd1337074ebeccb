import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim import metrics
from platoonsim.cli import _platoon_metrics_batch
from platoonsim.errors import DomainError
from platoonsim.config import build_scenario, load_config
from platoonsim.metrics import (
    FuelCoefficients,
    WindowSums,
    default_fuel_coefficients,
    load_fuel_coefficients,
    log_fuel_exponents,
    summarize,
)
from platoonsim.simulator import PlatoonEngine, Trajectory, av_mask_for, simulate

from conftest import FLAT_LEAD, IDM_2, make_scenario, make_short_scenario, window_mask


def speed_trajectory(t, v_profile_per_vehicle, a=None):
    t = np.asarray(t, dtype=float)
    v = np.column_stack(v_profile_per_vehicle)
    a_arr = np.zeros_like(v) if a is None else np.column_stack(a)
    nans = np.full_like(v[:, 1:], np.nan)
    return Trajectory(
        t=t, x=np.zeros_like(v), v=v, a=a_arr, s=nans, dv=nans,
        u=np.zeros_like(nans), kinds=("lead",) + ("hv",) * (v.shape[1] - 1),
    )


def fuel_rate(v, a, coeffs):
    """Fuel rate in ml/s at one (v, a) point, as `WindowSums` computes it."""
    expo = log_fuel_exponents(v, a, coeffs)
    return float(np.exp(np.minimum(expo, metrics._MAX_EXPONENT))) * 1e3


def report_for(traj, window, coeffs):
    """`summarize` over `window` with the 21 m/s reference speed."""
    return summarize(traj, make_scenario(window=window), coeffs)


class TestAsv:
    def test_zero_at_reference_speed(self, fuel_coeffs):
        t = np.linspace(0, 100, 201)
        traj = speed_trajectory(t, [np.full(201, 21.0)] * 2)
        assert report_for(traj, (10.0, 90.0), fuel_coeffs).per_vehicle_asv[0] == 0.0

    def test_unit_offset(self, fuel_coeffs):
        t = np.linspace(0, 100, 201)
        traj = speed_trajectory(t, [np.full(201, 21.0), np.full(201, 22.0)])
        asv_1 = report_for(traj, (10.0, 90.0), fuel_coeffs).per_vehicle_asv[0]
        assert asv_1 == pytest.approx(1.0, rel=1e-12)

    def test_window_outside_span_rejected(self, fuel_coeffs):
        t = np.linspace(0, 100, 201)
        traj = speed_trajectory(t, [np.full(201, 21.0)] * 2)
        with pytest.raises(DomainError):
            report_for(traj, (50.0, 150.0), fuel_coeffs)

    def test_time_shift_invariance(self, fuel_coeffs):
        t = np.linspace(0, 100, 501)
        wave = 21.0 + np.sin(0.2 * t)
        traj = speed_trajectory(t, [np.full(501, 21.0), wave])
        shifted = speed_trajectory(t + 37.0, [np.full(501, 21.0), wave])
        a0 = report_for(traj, (10.0, 90.0), fuel_coeffs).per_vehicle_asv[0]
        a1 = report_for(shifted, (47.0, 127.0), fuel_coeffs).per_vehicle_asv[0]
        assert a1 == pytest.approx(a0, rel=1e-12)

    def test_instability_raises_upstream_asv(self, fuel_coeffs, s1_mpr0_traj):
        per_vehicle = report_for(s1_mpr0_traj, (100.0, 250.0), fuel_coeffs).per_vehicle_asv
        assert per_vehicle[9] > per_vehicle[0]  # follower 10 against follower 1


class TestFuelRate:
    def test_idle_constant_term(self, fuel_coeffs):
        rate = fuel_rate(0.0, 0.0, fuel_coeffs)
        assert rate == pytest.approx(math.exp(fuel_coeffs.k_accel[0, 0]) * 1e3, rel=1e-12)

    def test_continuous_in_speed_within_regime(self, fuel_coeffs):
        r1 = fuel_rate(15.0, 0.5, fuel_coeffs)
        r2 = fuel_rate(15.0 + 1e-7, 0.5, fuel_coeffs)
        assert r2 == pytest.approx(r1, rel=1e-5)

    def test_acceleration_burns_more_than_deceleration(self, fuel_coeffs):
        assert fuel_rate(15.0, 1.0, fuel_coeffs) > fuel_rate(15.0, -1.0, fuel_coeffs)


def einsum_exponents(v, a, coeffs):
    """The fuel exponents as the two einsums the explicit sum replaced."""
    sv, sa = metrics._UNIT_SCALES[coeffs.units]
    v = np.asarray(v, dtype=float) * sv
    a = np.asarray(a, dtype=float) * sa
    a = np.where(np.abs(a) < metrics._ACCEL_DEADBAND, 0.0, a)
    vp = np.stack([np.ones_like(v), v, v**2, v**3], axis=-1)
    ap = np.stack([np.ones_like(a), a, a**2, a**2 * a], axis=-1)
    expo_acc = np.einsum("...i,ij,...j->...", vp, coeffs.k_accel, ap)
    expo_dec = np.einsum("...i,ij,...j->...", vp, coeffs.k_decel, ap)
    return np.where(a >= 0, expo_acc, expo_dec)


class TestLogFuelExponents:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 7), max_size=3).map(tuple),
        units=st.sampled_from(["kmh", "ms"]),
        table=st.sampled_from(["default", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_einsum_bit_for_bit(self, shape, units, table, seed):
        rng = np.random.default_rng(seed)
        if table == "default":
            base = default_fuel_coefficients()
            k_accel, k_decel = base.k_accel, base.k_decel
        else:
            k_accel, k_decel = rng.normal(0.0, 1e-2, (2, 4, 4))
        coeffs = FuelCoefficients(k_accel, k_decel, units)
        v = rng.uniform(0.0, 40.0, shape)
        a = rng.normal(0.0, 1.5, shape)
        # about a third of the accelerations inside the dead band, both signs
        dead = rng.random(shape) < 1 / 3
        scale = metrics._UNIT_SCALES[units][1]
        a = np.where(dead, rng.uniform(-1.0, 1.0, shape) * 1e-10 / scale, a)
        got = log_fuel_exponents(v, a, coeffs)
        assert got.shape == shape
        assert np.array_equal(got, einsum_exponents(v, a, coeffs))

    def test_scalar_inputs(self, fuel_coeffs):
        for v, a in ((0.0, 0.0), (21.0, 0.7), (13.0, -1.2), (5.0, 3e-11)):
            got = log_fuel_exponents(v, a, fuel_coeffs)
            assert np.array_equal(got, einsum_exponents(v, a, fuel_coeffs))


def pow_cube_exponents(v, a, coeffs, magnitudes=False):
    """The exponents with NumPy's `a**3` as the cube, summed as
    `log_fuel_exponents` sums them: the definition before `a**2 * a`.

    With `magnitudes`, every power and coefficient enters by its absolute
    value, which gives the sum of the terms' magnitudes.
    """
    sv, sa = metrics._UNIT_SCALES[coeffs.units]
    v = np.asarray(v, dtype=float) * sv
    a = np.asarray(a, dtype=float) * sa
    a = np.where(np.abs(a) < metrics._ACCEL_DEADBAND, 0.0, a)
    accelerating = a >= 0
    k_accel, k_decel = coeffs.k_accel, coeffs.k_decel
    if magnitudes:
        v, a = np.abs(v), np.abs(a)
        k_accel, k_decel = np.abs(k_accel), np.abs(k_decel)
    shape = np.broadcast_shapes(v.shape, a.shape)
    vp = (None, v, v**2, v**3)
    ap = (None, a, a**2, a**3)
    return np.where(
        accelerating,
        metrics._regime_exponents(vp, k_accel, ap, shape),
        metrics._regime_exponents(vp, k_decel, ap, shape),
    )


class TestCube:
    # the cube is `a**2 * a`: NumPy's `a**3` takes about 76 ns per negative
    # base; the product is within 1 ULP of it

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 7), max_size=3).map(tuple),
        units=st.sampled_from(["kmh", "ms"]),
        table=st.sampled_from(["default", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_moves_the_exponents_by_a_few_ulps(self, shape, units, table, seed):
        rng = np.random.default_rng(seed)
        if table == "default":
            base = default_fuel_coefficients()
            k_accel, k_decel = base.k_accel, base.k_decel
        else:
            k_accel, k_decel = rng.normal(0.0, 1e-2, (2, 4, 4))
        coeffs = FuelCoefficients(k_accel, k_decel, units)
        v = rng.uniform(0.0, 40.0, shape)
        a = rng.normal(0.0, 1.5, shape)
        a_scaled = a * metrics._UNIT_SCALES[units][1]
        cube = a_scaled**3
        assert (np.abs(a_scaled**2 * a_scaled - cube) <= np.spacing(np.abs(cube))).all()
        # near a cancelling sum the exponent's own ULP is no measure, so the
        # bound is in ULPs of the sum of the terms' magnitudes (at most 4
        # seen over 8.8 million draws)
        scale = pow_cube_exponents(v, a, coeffs, magnitudes=True)
        drift = np.abs(log_fuel_exponents(v, a, coeffs) - pow_cube_exponents(v, a, coeffs))
        assert (drift <= 8 * np.spacing(scale)).all()

    def test_grid_window_drift(self, fuel_coeffs, monkeypatch):
        # the 256-lane scenario 2 grid of the benchmark: at most 2 ULPs in any
        # exponent, 1.8e-16 in any follower's FC and none in any platoon FC
        sc = build_scenario(load_config("scenario2"))
        betas, gammas = np.meshgrid(
            np.linspace(0.0, 0.0642, 16), np.linspace(0.25, 1.5, 16), indexing="ij"
        )
        new, old = WindowSums(sc, fuel_coeffs), WindowSums(sc, fuel_coeffs)
        worst = []

        def fold(t, fields):
            v, a = fields["v"][..., 1:], fields["a"]
            expo = log_fuel_exponents(v, a, fuel_coeffs)
            expo_pow = pow_cube_exponents(v, a, fuel_coeffs)
            worst.append(np.max(np.abs(expo - expo_pow) / np.spacing(np.abs(expo_pow)), initial=0))
            new(t, fields)
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "log_fuel_exponents", pow_cube_exponents)
                old(t, fields)

        engine = PlatoonEngine(sc, beta=betas.reshape(-1, 1), gamma=gammas.reshape(-1, 1))
        engine.run(record=("v", "a"), fold=fold)
        assert max(worst) <= 2
        fc_new, fc_old = new.per_vehicle()[1], old.per_vehicle()[1]
        assert (np.abs(fc_new - fc_old) <= 1.8e-16 * fc_old).all()
        assert np.array_equal(new.platoon()[1], old.platoon()[1])
        assert np.array_equal(new.per_vehicle()[0], old.per_vehicle()[0])


@functools.lru_cache(maxsize=None)
def batched_record():
    """A three-lane record over the whole horizon of a short scenario."""
    sc = make_short_scenario(window=(10.0, 40.0))
    raw = PlatoonEngine(sc, av_mask=av_mask_for(10, [0.0, 0.5, 1.0])).run(
        record=("v", "a")
    )
    return sc, raw


def trapezoid_per_lane(sc, raw, coeffs):
    """Platoon ASV and FC of each lane with one `np.trapezoid` per integrand."""
    t1, t2 = sc.metric_window
    mask = window_mask(raw["t"], sc.metric_window)
    tm = raw["t"][mask]
    out = []
    for lane in range(raw["v"].shape[1]):
        v_fol = raw["v"][mask, lane, 1:]
        a_fol = raw["a"][mask, lane]
        asv_veh = np.trapezoid(np.abs(v_fol - sc.v_star), tm, axis=0) / (t2 - t1)
        expo = einsum_exponents(v_fol, a_fol, coeffs)
        rate = np.exp(np.minimum(expo, metrics._MAX_EXPONENT)) * 1e3
        fc_veh = np.trapezoid(rate, tm, axis=0)
        out.append((asv_veh.mean(), fc_veh.mean()))
    return np.array(out).T


class TestWindowSums:
    def test_whole_record_equals_trapezoids(self, fuel_coeffs):
        sc, raw = batched_record()
        asv_lanes, fc_lanes = _platoon_metrics_batch(sc, raw, fuel_coeffs)
        expected = trapezoid_per_lane(sc, raw, fuel_coeffs)
        assert np.array_equal(asv_lanes, expected[0])
        assert np.array_equal(fc_lanes, expected[1])
        assert asv_lanes[2] < asv_lanes[0]  # full penetration smooths the wave

    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 301))
    def test_any_blocking_gives_the_whole_window_bits(self, block):
        sc, raw = batched_record()
        coeffs = default_fuel_coefficients()
        keep = np.flatnonzero(window_mask(raw["t"], sc.metric_window))
        assert keep.size == 301
        sums = WindowSums(sc, coeffs)
        for k0 in range(0, keep.size, block):
            idx = keep[k0 : k0 + block]
            sums(raw["t"][idx], {"v": raw["v"][idx], "a": raw["a"][idx]})
        sums(raw["t"][:0], {"v": raw["v"][:0], "a": raw["a"][:0]})
        asv_whole, fc_whole = _platoon_metrics_batch(sc, raw, coeffs)
        asv_lanes, fc_lanes = sums.platoon()
        assert np.array_equal(asv_lanes, asv_whole)
        assert np.array_equal(fc_lanes, fc_whole)
        assert sums.saturated.tolist() == [0, 0, 0]

    def test_unbatched_record(self, fuel_coeffs):
        sc = make_short_scenario()
        raw = PlatoonEngine(sc).run(record=("v", "a"))
        asv_m, fc_m = _platoon_metrics_batch(sc, raw, fuel_coeffs)
        report = summarize(simulate(sc), sc, fuel_coeffs)
        assert asv_m.shape == fc_m.shape == ()
        # `summarize` is the same fold over the same samples
        assert asv_m == report.platoon_asv
        assert fc_m == report.platoon_fc

    def test_counts_saturated_samples_per_lane(self, fuel_coeffs):
        sc, raw = batched_record()
        k_accel = fuel_coeffs.k_accel.copy()
        k_accel[0, 0] = 100.0  # every accelerating sample saturates
        coeffs = FuelCoefficients(k_accel, fuel_coeffs.k_decel, fuel_coeffs.units)
        sums = WindowSums(sc, coeffs)
        keep = window_mask(raw["t"], sc.metric_window)
        for half in np.array_split(np.flatnonzero(keep), 2):
            sums(raw["t"][half], {"v": raw["v"][half], "a": raw["a"][half]})
        expo = log_fuel_exponents(raw["v"][keep][..., 1:], raw["a"][keep], coeffs)
        expected = (expo > metrics._MAX_EXPONENT).sum(axis=(0, 2))
        assert sums.saturated.tolist() == expected.tolist()
        assert expected.min() > 0


class TestTotalFuel:
    def test_zero_length_window(self, fuel_coeffs):
        # a window between two samples holds none, so nothing is integrated
        t = np.linspace(0, 100, 201)
        traj = speed_trajectory(t, [np.full(201, 21.0), np.full(201, 25.0)])
        report = report_for(traj, (50.1, 50.4), fuel_coeffs)
        assert report.per_vehicle_fc.tolist() == [0.0]
        assert report.per_vehicle_asv.tolist() == [0.0]

    def test_constant_cruise(self, fuel_coeffs):
        t = np.linspace(0, 100, 201)
        traj = speed_trajectory(t, [np.full(201, 20.0)] * 2)
        total = report_for(traj, (10.0, 90.0), fuel_coeffs).per_vehicle_fc[0]
        assert total == pytest.approx(fuel_rate(20.0, 0.0, fuel_coeffs) * 80.0, rel=1e-9)


def trapezoid_per_vehicle(traj, sc, coeffs):
    """Per-follower ASV and FC with one 1-D `np.trapezoid` per vehicle."""
    t1, t2 = sc.metric_window
    mask = window_mask(traj.t, sc.metric_window)
    tm = traj.t[mask]
    asv_veh, fc_veh = {}, {}
    for i in range(1, traj.n_vehicles):
        dev = np.abs(traj.v[mask, i] - sc.v_star)
        asv_veh[i] = float(np.trapezoid(dev, tm) / (t2 - t1))
        expo = einsum_exponents(traj.v[mask, i], traj.a[mask, i], coeffs)
        rate = np.exp(np.minimum(expo, metrics._MAX_EXPONENT)) * 1e3
        fc_veh[i] = float(np.trapezoid(rate, tm))
    return asv_veh, fc_veh


@functools.lru_cache(maxsize=None)
def preset_run(name):
    sc = build_scenario(load_config(name))
    return sc, simulate(sc)


class TestSummarizeOracle:
    def assert_matches_oracle(self, traj, sc, coeffs):
        report = summarize(traj, sc, coeffs)
        asv_veh, fc_veh = trapezoid_per_vehicle(traj, sc, coeffs)
        # follower i is entry i - 1
        assert report.per_vehicle_asv.shape == report.per_vehicle_fc.shape == (len(asv_veh),)
        for i in asv_veh:
            assert report.per_vehicle_asv[i - 1] == pytest.approx(asv_veh[i], rel=1e-12, abs=0)
            assert report.per_vehicle_fc[i - 1] == pytest.approx(fc_veh[i], rel=1e-12, abs=0)
        assert report.platoon_asv == pytest.approx(np.mean(list(asv_veh.values())), rel=1e-12)
        assert report.platoon_fc == pytest.approx(np.mean(list(fc_veh.values())), rel=1e-12)

    def test_single_follower(self, fuel_coeffs):
        t = np.linspace(0, 100, 1001)
        wave = 21.0 + 2.0 * np.sin(0.3 * t)
        accel = 0.6 * np.cos(0.3 * t)
        traj = speed_trajectory(t, [np.full(1001, 21.0), wave], a=[0.0 * t, accel])
        sc = make_scenario(t_f=100.0, window=(12.3, 87.6))
        self.assert_matches_oracle(traj, sc, fuel_coeffs)
        with pytest.raises(DomainError):
            summarize(traj, make_scenario(t_f=200.0, window=(50.0, 100.1)), fuel_coeffs)

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_presets(self, name, fuel_coeffs):
        sc, traj = preset_run(name)
        self.assert_matches_oracle(traj, sc, fuel_coeffs)
        with pytest.raises(DomainError):
            summarize(traj, replace(sc, t_f=600.0, metric_window=(100.0, 550.0)), fuel_coeffs)


class TestSummarize:
    def test_equilibrium_run(self, fuel_coeffs):
        sc = make_scenario(mpr=0.0, lead=FLAT_LEAD, t_f=120.0, window=(10.0, 110.0))
        traj = simulate(sc)
        report = summarize(traj, sc, fuel_coeffs)
        assert report.platoon_asv == pytest.approx(0.0, abs=1e-9)
        cruise = fuel_rate(21.0, 0.0, fuel_coeffs) * 100.0
        assert report.platoon_fc == pytest.approx(cruise, rel=1e-6)
        assert not report.saturated
        assert report.per_vehicle_asv.shape == (10,)

    def test_leader_excluded(self, s1_mpr0_traj, fuel_coeffs):
        sc = make_scenario(mpr=0.0)
        report = summarize(s1_mpr0_traj, sc, fuel_coeffs)
        assert report.per_vehicle_asv.shape == (s1_mpr0_traj.n_vehicles - 1,)

    def test_smoothing_improves_both_metrics(
        self, s1_mpr0_traj, s1_mpr1_ops_traj, fuel_coeffs
    ):
        sc = make_scenario(mpr=0.0)
        base = summarize(s1_mpr0_traj, sc, fuel_coeffs)
        smooth = summarize(s1_mpr1_ops_traj, sc, fuel_coeffs)
        assert smooth.platoon_asv < base.platoon_asv
        assert smooth.platoon_fc < base.platoon_fc

    def test_scenario2_improves_both_metrics(
        self, s2_mpr0_traj, s2_mpr1_ops_traj, fuel_coeffs
    ):
        sc = make_scenario(hv=IDM_2, mpr=0.0, window=(100.0, 300.0))
        base = summarize(s2_mpr0_traj, sc, fuel_coeffs)
        smooth = summarize(s2_mpr1_ops_traj, sc, fuel_coeffs)
        assert smooth.platoon_asv < base.platoon_asv
        assert smooth.platoon_fc < base.platoon_fc


class TestCoefficientFile:
    def test_default_table(self, fuel_coeffs):
        assert fuel_coeffs.units == "kmh"
        assert fuel_coeffs.k_accel.shape == (4, 4)
        assert fuel_coeffs.k_decel.shape == (4, 4)
        # cruise at 21 m/s lands near the documented scale of ~1.6 ml/s
        assert 1.0 < fuel_rate(21.0, 0.0, fuel_coeffs) < 2.5

    def test_roundtrip(self, tmp_path, fuel_coeffs):
        path = tmp_path / "coeffs.txt"
        with open(path, "w") as fh:
            fh.write("units: kmh\nregimes: accel decel\n")
            for name, mat in (("accel", fuel_coeffs.k_accel), ("decel", fuel_coeffs.k_decel)):
                fh.write(f"regime: {name}\n")
                for row in mat:
                    fh.write(" ".join(f"{val:.12g}" for val in row) + "\n")
        loaded = load_fuel_coefficients(path)
        assert np.allclose(loaded.k_accel, fuel_coeffs.k_accel)
        assert np.allclose(loaded.k_decel, fuel_coeffs.k_decel)

    def test_bad_files_rejected(self, tmp_path):
        p1 = tmp_path / "bad1.txt"
        p1.write_text("regime: accel\n1 2 3 4\n")
        with pytest.raises(DomainError):
            load_fuel_coefficients(p1)
        p2 = tmp_path / "bad2.txt"
        p2.write_text("units: kmh\nregime: accel\n1 2 3\n" * 4)
        with pytest.raises(DomainError):
            load_fuel_coefficients(p2)

    def test_validation(self):
        with pytest.raises(DomainError):
            FuelCoefficients(np.zeros((3, 4)), np.zeros((4, 4)))
        with pytest.raises(DomainError):
            FuelCoefficients(np.zeros((4, 4)), np.zeros((4, 4)), units="mph")
