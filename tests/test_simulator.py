import csv
import logging
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim import optimizer, simulator
from platoonsim.controller import SIGMOID_KERNELS
from platoonsim.dynamics import (
    IdmParams,
    OvrvParams,
    equilibrium_spacing,
    idm_accel_arrays,
    ovrv_accel_arrays,
)
from platoonsim.errors import DomainError, NumericalBlowupError
from platoonsim.metrics import WindowSums
from platoonsim.optimizer import _z_terms
from platoonsim.stepping import rk4_slots, rk4_step, step_coefficients
from platoonsim.simulator import (
    ControllerConfig,
    LeadProfile,
    PlatoonEngine,
    Scenario,
    Trajectory,
    check_safety,
    av_mask_for,
    place_avs,
    simulate,
    write_trajectory_csv,
)

from conftest import (
    FLAT_LEAD,
    IDM_1,
    IDM_2,
    OVRV_1,
    PAPER_LEAD,
    SHORT_LEAD,
    STOP_LEAD,
    TUNED_1,
    make_scenario,
    make_short_scenario,
    unclamped_idm,
    window_mask,
)


class TestLeadProfile:
    def test_cruise_phase(self):
        assert PAPER_LEAD.speed(50.0) == 21.0

    def test_ramp_midpoint(self):
        assert PAPER_LEAD.speed(110.0) == pytest.approx(19.5)

    def test_low_plateau(self):
        assert PAPER_LEAD.speed(140.0) == 18.0

    def test_constant_extrapolation(self):
        assert PAPER_LEAD.speed(400.0) == 21.0

    def test_domain_errors(self):
        # the profile is only sampled on a scenario's time grid [0, t_f]
        with pytest.raises(DomainError):
            make_scenario(dt=0.0)
        with pytest.raises(DomainError):
            make_scenario(t_f=-1.0)

    def test_invalid_profiles(self):
        with pytest.raises(DomainError):
            LeadProfile((5.0, 10.0), (21.0, 18.0))  # must start at 0
        with pytest.raises(DomainError):
            LeadProfile((0.0, 10.0, 10.0), (21.0, 18.0, 19.0))
        with pytest.raises(DomainError):
            LeadProfile((0.0, 10.0), (21.0, -1.0))

    @pytest.mark.parametrize(
        "times, speeds",
        [
            ((0.0, 100.0), (21.0, math.inf)),
            ((0.0, math.inf), (21.0, 18.0)),
            ((0.0, math.nan), (21.0, 18.0)),  # NaN passes the ordering test
            ((0.0, 100.0), (21.0, math.nan)),  # and the sign test
            ((0.0, 100.0), (-math.inf, 18.0)),
        ],
    )
    def test_non_finite_knots_rejected(self, times, speeds):
        with pytest.raises(DomainError, match="knots must be finite"):
            LeadProfile(times, speeds)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.05, 30.0), min_size=0, max_size=6),
        speeds=st.lists(st.floats(0.0, 40.0), min_size=7, max_size=7),
        dt=st.floats(0.001, 2.0),
        steps=st.integers(1, 300),
    )
    def test_stage_speeds_equal_scalar_speed(self, gaps, speeds, dt, steps):
        # the table must hold exactly what a scalar stepper evaluates at
        # t_k, t_k + dt/2 (RK4 stages 2 and 3) and t_k + dt (t_k = k*dt),
        # not at t_{k+1}
        times = tuple(np.cumsum([0.0] + gaps).tolist())
        profile = LeadProfile(times, tuple(speeds[: len(times)]))
        at_t, at_mid, at_mid3, at_end = profile.stage_speeds(dt, steps)
        assert at_mid3 is at_mid
        assert len(at_t) == steps + 1 and len(at_mid) == len(at_end) == steps
        for k in range(steps + 1):
            t = k * dt
            assert at_t[k] == float(profile.speed(t))
            if k < steps:
                assert at_mid[k] == float(profile.speed(t + dt / 2))
                assert at_end[k] == float(profile.speed(t + dt))

    def test_slope(self):
        assert PAPER_LEAD.slope(50.0) == 0.0
        assert PAPER_LEAD.slope(110.0) == pytest.approx(-0.15)
        assert PAPER_LEAD.slope(150.0) == pytest.approx(0.15)
        assert PAPER_LEAD.slope(300.0) == 0.0


class TestPlaceAvs:
    def test_none(self):
        assert place_avs(10, 0.0) == ()

    def test_single_av_in_middle(self):
        assert place_avs(10, 0.1) == (5,)

    def test_full_penetration(self):
        assert place_avs(10, 1.0) == tuple(range(1, 11))

    def test_even_spread(self):
        assert place_avs(10, 0.2) == (3, 7)
        assert place_avs(10, 0.5) == (1, 3, 5, 7, 9)

    def test_validation(self):
        with pytest.raises(DomainError):
            place_avs(0, 0.5)
        with pytest.raises(DomainError):
            place_avs(10, 1.5)


class TestAvMask:
    def test_scalar_matches_place_avs(self):
        mask = av_mask_for(10, 0.2)
        assert mask.shape == (10,) and mask.dtype == bool
        assert tuple(np.flatnonzero(mask) + 1) == place_avs(10, 0.2)

    def test_sequence_stacks_one_row_per_mpr(self):
        mprs = [0.0, 0.1, 0.5, 1.0]
        masks = av_mask_for(10, mprs)
        assert masks.shape == (4, 10)
        for row, mpr in zip(masks, mprs):
            assert np.array_equal(row, av_mask_for(10, mpr))

    def test_engine_default_mask(self):
        sc = make_short_scenario(mpr=0.3)
        assert np.array_equal(PlatoonEngine(sc).av_mask, av_mask_for(10, 0.3))


# a metric window between two samples at dt 0.1, so it holds none
NO_SAMPLE = (12.34, 12.36)

# a lead that slows from 21 to 17 m/s over 4 s and speeds up again
DIP_LEAD = LeadProfile((0.0, 4.0, 8.0), (21.0, 17.0, 21.0))


class TestEngine:
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("start", [0, 1, 67, 250])
    def test_resumed_run_equals_the_full_run(self, caplog, integrator, start):
        # behind the stopping lead speeds clamp from about 9 s on; a run
        # resumed at step `start` from the state a run of the first `start`
        # steps reached records the full run's rows from there, and the two
        # runs' clamp counts add up to the full run's; before any clamp, the
        # resumed run logs the full run's line. Three lanes (MPR 0, 0.5,
        # 1.0) and one unbatched run.
        sc = make_scenario(lead=STOP_LEAD, t_f=25.0, window=(0.0, 25.0), kind="ts-ops",
                           beta=0.05, mpr=0.5, integrator=integrator)
        for mask in (av_mask_for(10, [0.0, 0.5, 1.0]), None):
            full_engine = PlatoonEngine(sc, av_mask=mask)
            with caplog.at_level(logging.WARNING, logger="platoonsim.simulator"):
                caplog.clear()
                full = full_engine.run()
                full_log = caplog.text
                hits = 0
                if start:
                    early = PlatoonEngine(sc, av_mask=mask)
                    early.run(record=(), end=start)
                    hits = early.lane_floor_hits
                engine = PlatoonEngine(sc, av_mask=mask)
                caplog.clear()
                resumed = engine.run(
                    initial=(full["x"][start], full["v"][start, ..., 1:]), start=start
                )
            assert set(resumed) == set(full)
            for name, arr in resumed.items():
                assert arr.tobytes() == full[name][start:].tobytes(), name
            counts = hits + engine.lane_floor_hits
            assert counts.tobytes() == full_engine.lane_floor_hits.tobytes()
            assert full_engine.floor_hits > 0
            assert caplog.text == ("" if np.any(hits) and mask is None else full_log)
            assert np.any(hits) == (start == 250)
            # a fold of the window (10-20 s) sees its samples from `start` on
            seen = []
            windowed = PlatoonEngine(replace(sc, metric_window=(10.0, 20.0)), av_mask=mask)
            windowed.run(record=("v",), initial=(full["x"][start], full["v"][start, ..., 1:]),
                         start=start, fold=lambda t, fields: seen.append(
                             fields["v"].copy()))
            assert np.concatenate(seen).tobytes() == full["v"][max(start, 100):201].tobytes()

    def test_resumed_run_fails_as_the_full_run(self, monkeypatch):
        # scenario 2's IDM behind the stopping lead, under the unclamped
        # law: NaN at a negative RK4 stage speed, the same vehicle and time
        # from any start before it
        monkeypatch.setattr(simulator, "idm_accel_arrays", unclamped_idm)
        sc = make_scenario(hv=IDM_2, mpr=0.5, kind="ts-ops", beta=0.03, lead=STOP_LEAD,
                           t_f=25.0, window=(0.0, 25.0))
        errors = []
        with np.errstate(invalid="ignore"):
            early = PlatoonEngine(sc).run(end=120)
            for start in (0, 120):
                with pytest.raises(NumericalBlowupError) as err:
                    PlatoonEngine(sc).run(
                        initial=(early["x"][start], early["v"][start, 1:]), start=start
                    )
                errors.append((err.value.vehicle, err.value.time, err.value.lane))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (2, pytest.approx(19.4, abs=1e-9))

    @settings(max_examples=30, deadline=None)
    @given(
        hv=st.sampled_from([IDM_1, IDM_2]),
        # one lane, or two lanes of their own masks
        mprs=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, (0.1, 0.7)]),
        m=st.integers(1, 10),
        end=st.integers(0, 250),
        integrator=st.sampled_from(["rk4", "euler"]),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        spacing=st.none() | st.lists(st.floats(20.0, 60.0), min_size=10, max_size=10).map(tuple),
        # scenario 2's IDM under the unclamped law fails behind the stopping lead
        unclamped=st.booleans(),
    )
    # a blow-up of follower 2 at step 194: seen by followers 1..3 to step
    # 200, and by neither follower 1 nor the steps to 150
    @example(hv=IDM_2, mprs=0.5, m=3, end=200, integrator="rk4", lead=STOP_LEAD, spacing=None,
             unclamped=True)
    @example(hv=IDM_2, mprs=0.5, m=1, end=150, integrator="rk4", lead=STOP_LEAD, spacing=None,
             unclamped=True)
    def test_mask_slice_and_end_cut_the_platoons_run(
        self, hv, mprs, m, end, integrator, lead, spacing, unclamped
    ):
        # followers 1..m depend on no follower behind them, and steps 0..e
        # on no later step: an engine of the mask slice mask[:m], run to
        # step e, records those columns and rows of the whole platoon's run
        # to the horizon bit for bit, counts their clamps (the floor mask of
        # a stage pass over the whole run) and fails at their first
        # non-finite speed, vehicle, time and lane
        sc = make_scenario(hv=hv, mpr=mprs if np.ndim(mprs) == 0 else 0.5, kind="ts-ops",
                           beta=0.05, lead=lead, t_f=25.0, window=(0.0, 25.0),
                           integrator=integrator, init_spacing=spacing)
        mask = av_mask_for(10, mprs)

        def outcome(engine, **kw):
            try:
                return engine.run(**kw), None
            except NumericalBlowupError as err:
                return None, (err.vehicle, err.time, err.lane)

        law = unclamped_idm if unclamped else idm_accel_arrays
        # spacings of 20 m behind the stopping lead close to 0: overflows
        with mock.patch.object(simulator, "idm_accel_arrays", law), np.errstate(all="ignore"):
            whole = PlatoonEngine(sc, av_mask=mask)
            full, failure = outcome(whole)
            if failure is None:
                # (vehicle, step, lane): the speeds each step floors, from
                # one stage pass per lane
                table = sc.lead.stage_speeds(sc.dt, sc.steps)
                lanes = mask.reshape(-1, 10)
                x, v = (full[name].reshape(sc.steps + 1, len(lanes), 11) for name in ("x", "v"))
                floored = np.stack([np.concatenate([f for *_, f in PlatoonEngine(
                    sc, av_mask=row).stage_blocks(table, {"x": x[:, i], "v": v[:, i]})], axis=1)
                    for i, row in enumerate(lanes)], axis=-1)
                hits = floored.sum(axis=(0, 1)).reshape(whole.lane_floor_hits.shape)
                assert hits.tobytes() == whole.lane_floor_hits.tobytes()
            for width, e in ((m, None), (10, end), (m, end)):
                engine = PlatoonEngine(sc, av_mask=mask[..., :width])
                raw, error = outcome(engine, end=e)
                last = sc.steps if e is None else e
                if failure is None:
                    assert error is None
                    assert set(raw) == set(full)
                    for name, arr in raw.items():
                        ref = full[name][: last + 1]
                        if name != "t":  # x and v hold the leader's column too
                            ref = ref[..., : width + (name in ("x", "v"))]
                        assert arr.tobytes() == ref.tobytes(), name
                    hits = floored[:width, :last].sum(axis=(0, 1)).reshape(np.shape(hits))
                    assert engine.lane_floor_hits.tobytes() == hits.tobytes()
                    continue
                vehicle, time = failure[:2]
                if round(time / sc.dt) > last:
                    assert error is None
                elif vehicle <= width:
                    assert error == failure
                else:
                    # followers 1..width stay finite until then at least
                    assert error is None or error[1] >= time

    def test_a_mask_wider_than_the_platoon_is_a_domain_error(self):
        sc = make_short_scenario()
        with pytest.raises(DomainError, match="av_mask covers 11 of the platoon's 10 followers"):
            PlatoonEngine(sc, av_mask=np.zeros(11, bool))
        with pytest.raises(DomainError, match="covers 12 of the platoon's 10"):
            PlatoonEngine(sc, av_mask=av_mask_for(12, [0.1, 0.5]))

    @pytest.mark.parametrize("start, end", [(0, 501), (5, 4), (0, -1)])
    def test_a_run_end_outside_start_and_horizon_is_a_domain_error(self, start, end):
        engine = PlatoonEngine(make_short_scenario())  # 500 steps
        x, v = engine.initial_arrays()
        with pytest.raises(DomainError, match=rf"run end {end} is outside steps {start}\.\.500"):
            engine.run(initial=(x, v), start=start, end=end)

    @settings(max_examples=20, deadline=None)
    @given(
        delta=st.floats(0.01, 40.0),
        mpr=st.sampled_from([0.0, 0.1, 0.5]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    @example(delta=15.5, mpr=0.5, integrator="rk4")  # the unclamped law's NaN
    def test_stopping_lead_run_stays_finite_for_any_delta(self, delta, mpr, integrator):
        # behind the stopping lead RK4 stage speeds go negative; the IDM's
        # free-road term reads them floored at 0, so no power is NaN
        sc = make_scenario(hv=replace(IDM_2, delta=delta), mpr=mpr, kind="ts-ops", beta=0.03,
                           lead=STOP_LEAD, t_f=25.0, window=(0.0, 25.0), integrator=integrator)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            raw = PlatoonEngine(sc).run()
        for name, arr in raw.items():
            assert np.isfinite(arr).all(), name

    # inside the horizon, the whole horizon, and a window holding no sample,
    # which the scenario rejects
    @pytest.mark.parametrize("window", [(10.0, 40.0), (0.0, 50.0), NO_SAMPLE])
    def test_window_equals_slice_of_full_run(self, window):
        # a folded run sees exactly the metric window's samples of a full run
        if window == NO_SAMPLE:
            with pytest.raises(DomainError, match="holds fewer than 2 samples"):
                make_short_scenario(mpr=0.5, window=window)
            return
        sc = make_short_scenario(mpr=0.5, window=window)
        full = PlatoonEngine(sc).run()
        parts = []
        PlatoonEngine(sc).run(fold=lambda t, fields: parts.append(
            {"t": t.copy(), **{name: buf.copy() for name, buf in fields.items()}}))
        keep = window_mask(full["t"], window)
        assert set(parts[0]) == set(full)
        for name in full:
            got = np.concatenate([part[name] for part in parts])
            assert np.array_equal(got, full[name][keep]), name

    @pytest.mark.parametrize("window", [(10.0, 40.0), (0.0, 50.0), NO_SAMPLE])
    @pytest.mark.parametrize("budget", [1, 3 * 21 * 7, 1 << 16])
    def test_fold_sees_the_window_record_in_blocks(self, monkeypatch, window, budget):
        # budget 1 gives one-sample blocks, 3 lanes x 21 values x 7 seven
        monkeypatch.setattr(simulator, "_FOLD_VALUES", budget)
        if window == NO_SAMPLE:
            with pytest.raises(DomainError, match="holds fewer than 2 samples"):
                make_short_scenario(window=window)
            return
        sc = make_short_scenario(window=window)
        mask = av_mask_for(10, [0.0, 0.5, 1.0])
        whole = PlatoonEngine(sc, av_mask=mask).run(record=("v", "a"))
        keep = simulator.window_slice(whole["t"], window)
        block = max(1, budget // (3 * 21))
        seen = []

        def fold(t, fields):
            assert set(fields) == {"v", "a"}
            seen.append((t.copy(), fields["v"].copy(), fields["a"].copy()))

        engine = PlatoonEngine(sc, av_mask=mask)
        assert engine.run(record=("v", "a"), fold=fold) is None
        sizes = [len(t) for t, _, _ in seen]
        assert all(size == block for size in sizes[:-1]) and sizes[-1] < block
        for k, name in enumerate(("t", "v", "a")):
            got = np.concatenate([part[k] for part in seen])
            assert np.array_equal(got, whole[name][keep]), name

    def test_window_outside_span_fails_before_the_first_step(self, monkeypatch):
        # dt 0.7 ends the grid at 499.8 s, so a window up to 500 s leaves it;
        # a Scenario refuses such a window, and a folded run checks it again
        sc = make_scenario(dt=0.7, t_f=499.8)
        object.__setattr__(sc, "metric_window", (100.0, 500.0))
        engine = PlatoonEngine(sc)
        monkeypatch.setattr(engine, "advance", None)  # any step would fail
        with pytest.raises(DomainError, match="outside trajectory span"):
            engine.run(fold=lambda t, fields: None)

    def test_window_after_the_run_end_fails_before_the_first_step(self, monkeypatch):
        # a folded run must reach the window's last sample, step 2500 here
        engine = PlatoonEngine(make_scenario())
        monkeypatch.setattr(engine, "advance", None)  # any step would fail
        with pytest.raises(DomainError, match=r"\(100.0, 250.0\) ends after run end 2499"):
            engine.run(fold=lambda t, fields: None, end=2499)

    @settings(max_examples=12, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=10, max_size=10),
                st.floats(0.0, 0.0642),
                st.floats(0.0, 2.0),
            ),
            min_size=1,
            max_size=3,
        ),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        t2_step=st.integers(31, 300),
        kind=st.sampled_from(["ts-ops", "ts-trc"]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    def test_windowed_run_equals_run_to_t2(
        self, fuel_coeffs, lanes, lead, t2_step, kind, integrator
    ):
        # a windowed run stops at the window's last sample: its sums and
        # floor hits are those of the same scenario integrated to t_f = t2
        t2 = t2_step * 0.1
        sc = make_short_scenario(kind=kind, window=(3.0, t2), integrator=integrator,
                                 lead=lead, t_f=30.0)
        gains = {
            "av_mask": np.array([mask for mask, _, _ in lanes]),
            "beta": np.array([[beta] for _, beta, _ in lanes]),
            "gamma": np.array([[gamma] for _, _, gamma in lanes]),
        }
        windowed = PlatoonEngine(sc, **gains)
        folded = WindowSums(sc, fuel_coeffs)
        windowed.run(record=("v", "a"), fold=folded)

        cut = replace(sc, t_f=t2)
        whole = PlatoonEngine(cut, **gains)
        raw = whole.run(record=("v", "a"))
        assert raw["t"][-1] == t2
        sums = WindowSums(cut, fuel_coeffs)
        keep = simulator.window_slice(raw["t"], cut.metric_window)
        sums(raw["t"][keep], {"v": raw["v"][keep], "a": raw["a"][keep]})
        assert np.array_equal(folded.sums, sums.sums)
        assert np.array_equal(folded.saturated, sums.saturated)
        assert np.array_equal(windowed.lane_floor_hits, whole.lane_floor_hits)

    def test_windowed_run_ignores_clamps_after_t2(self):
        # the lead brakes to a stop between 5 s and 9 s; the followers clamp
        # at 0 m/s only after a window that ends at 8 s
        sc = make_scenario(lead=STOP_LEAD, t_f=40.0, window=(0.0, 8.0),
                           kind="ts-ops", beta=0.05, mpr=0.5)
        windowed = PlatoonEngine(sc, av_mask=av_mask_for(10, [0.0, 0.5]))
        seen = []
        windowed.run(record=("v",), fold=lambda t, fields: seen.extend(t))
        assert seen[-1] == 8.0
        assert windowed.floor_hits == 0
        full = PlatoonEngine(sc, av_mask=av_mask_for(10, [0.0, 0.5]))
        full.run(record=())
        assert (full.lane_floor_hits > 0).all()

    @settings(max_examples=12, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=10, max_size=10),
                st.floats(0.0, 0.0642),
                st.floats(0.0, 2.0),
            ),
            min_size=1,
            max_size=4,
        ),
        shape=st.sampled_from(["lane", "follower", "0-d"]),
        complex_gains=st.booleans(),
        kind=st.sampled_from(["ts-ops", "ts-trc"]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    # 64 lanes that share one mask: evenly spaced AVs (a slice of the
    # vehicle axis) and unevenly spaced ones (a position array)
    @example(lanes=[(list(av_mask_for(10, 0.3)), 0.001 * k, 0.03 * k) for k in range(64)],
             shape="lane", complex_gains=False, kind="ts-ops", integrator="rk4")
    @example(lanes=[(list(av_mask_for(10, 0.6)), 0.001 * k, 0.03 * k) for k in range(64)],
             shape="follower", complex_gains=True, kind="ts-ops", integrator="rk4")
    def test_every_lane_equals_its_unbatched_run(
        self, lanes, shape, complex_gains, kind, integrator
    ):
        # every lane equals its own unbatched run bit for bit, with gains one
        # per lane `(lanes, 1)`, one per follower `(lanes, n)` or one 0-d
        # pair for every lane, real or complex as a closed-loop run's are
        sc = make_short_scenario(kind=kind, t_f=20.0, window=(0.0, 20.0),
                                 integrator=integrator)
        masks = np.array([mask for mask, _, _ in lanes])
        beta = np.array([[beta] for _, beta, _ in lanes])
        gamma = np.array([[gamma] for _, _, gamma in lanes])
        if shape == "follower":
            ramp = np.linspace(0.5, 1.0, 10)
            beta, gamma = beta * ramp, gamma * ramp[::-1]
        elif shape == "0-d":
            beta, gamma = beta[0, 0], gamma[0, 0]
        if complex_gains:
            beta, gamma = beta + 1j * optimizer._H, gamma + 2j * optimizer._H
        beta, gamma = np.asarray(beta), np.asarray(gamma)
        batched = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=masks)
        whole = batched.run()
        for lane, (mask, _, _) in enumerate(lanes):
            single = PlatoonEngine(sc, beta=beta if beta.ndim == 0 else beta[lane],
                                   gamma=gamma if gamma.ndim == 0 else gamma[lane],
                                   av_mask=np.array(mask))
            raw = single.run()
            for name in ALL_FIELDS:
                assert whole[name][:, lane].tobytes() == raw[name].tobytes(), (lane, name)
            assert batched.lane_floor_hits[lane] == single.floor_hits

    @settings(max_examples=12, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.sampled_from([SHORT_LEAD, STOP_LEAD, FLAT_LEAD, DIP_LEAD]),
                st.lists(st.booleans(), min_size=10, max_size=10),
                st.floats(0.0, 0.0642),
                st.floats(0.0, 2.0),
            ),
            min_size=2,
            max_size=4,
        ),
        integrator=st.sampled_from(["rk4", "euler"]),
        start=st.integers(0, 140),
        fold=st.booleans(),
    )
    @example(lanes=[(STOP_LEAD, [True] * 10, 0.05, 1.0), (SHORT_LEAD, [False] * 10, 0.0, 1.0)],
             integrator="rk4", start=60, fold=True)
    def test_every_lane_follows_its_own_lead(self, lanes, integrator, start, fold):
        # the leads' stage tables stacked along a last lane axis drive one
        # lane each: every lane's record, folds and clamps equal those of
        # its own unbatched run behind that lead, resumed at `start` from
        # the state its run from step 0 reached
        sc = make_short_scenario(t_f=15.0, window=(3.0, 12.0), integrator=integrator)
        singles = []
        for lead, mask, beta, gamma in lanes:
            engine = PlatoonEngine(replace(sc, lead=lead), beta=beta, gamma=gamma,
                                   av_mask=np.array(mask))
            full = engine.run(record=("x", "v"))
            singles.append((engine, (full["x"][start], full["v"][start, 1:])))
        tables = [lead.stage_speeds(sc.dt, sc.steps) for lead, *_ in lanes]
        table = tuple(np.stack(stage, axis=-1) for stage in zip(*tables))
        masks, betas, gammas = (np.array(col) for col in zip(*(lane[1:] for lane in lanes)))
        batched = PlatoonEngine(sc, beta=betas[:, None], gamma=gammas[:, None], av_mask=masks)
        initial = tuple(np.stack(col) for col in zip(*(init for _, init in singles)))

        def outcome(engine, table, initial):
            raw, blocks, error, hits, _ = run_outcome(engine, table, initial, start,
                                                      ALL_FIELDS, fold)
            assert error is None
            if fold:
                raw = {name: np.concatenate([f[name] for _, f in blocks]) for name in ALL_FIELDS}
            return raw, hits

        with mock.patch.object(simulator, "_FOLD_VALUES", 700):  # folds of several blocks
            raw, hits = outcome(batched, table, initial)
            for lane, (engine, init) in enumerate(singles):
                ref, ref_hits = outcome(engine, None, init)
                for name in ALL_FIELDS:
                    assert raw[name][:, lane].tobytes() == ref[name].tobytes(), (lane, name)
                assert hits[lane] == ref_hits

    def test_lane_floor_hits_match_single_runs(self):
        mprs = [0.0, 0.5, 1.0]
        sc = make_scenario(lead=STOP_LEAD, t_f=40.0, window=(0.0, 40.0),
                           kind="ts-ops", beta=0.05)
        batched = PlatoonEngine(sc, av_mask=av_mask_for(10, mprs))
        batched.run(record=())
        singles = []
        for mpr in mprs:
            engine = PlatoonEngine(make_scenario(
                lead=STOP_LEAD, t_f=40.0, window=(0.0, 40.0), kind="ts-ops",
                beta=0.05, mpr=mpr))
            engine.run(record=())
            singles.append(engine.floor_hits)
        assert batched.lane_floor_hits.shape == (3,)
        assert batched.lane_floor_hits.tolist() == singles
        assert all(hits > 0 for hits in singles)
        assert batched.floor_hits == sum(singles)
        assert isinstance(batched.floor_hits, int)

    def test_blowup_names_first_lane(self, monkeypatch):
        monkeypatch.setattr(
            simulator, "ovrv_accel_arrays", lambda s, dv, v, p: np.full(np.shape(s), np.nan)
        )
        sc = make_short_scenario()
        with pytest.raises(NumericalBlowupError) as batched:
            PlatoonEngine(sc, av_mask=av_mask_for(10, [0.0, 0.0, 0.3, 1.0])).run()
        assert batched.value.lane == 2
        assert batched.value.vehicle == 2  # first AV of the 0.3 lane
        with pytest.raises(NumericalBlowupError) as single:
            PlatoonEngine(sc).run()
        assert single.value.lane is None
        assert single.value.vehicle == 5


FLOOR_LINE = "speed floor at 0 m/s engaged %d times during the run"
ALL_FIELDS = ("x", "v", "a", "s", "dv", "u")


def run_outcome(engine, table, initial, start, record, fold):
    """What a run shows: its record (or its folds' blocks), its blow-up as
    (vehicle, time, lane), its clamps and its `logger.warning` calls."""
    raw, error, blocks = None, None, []

    def keep(t, fields):
        blocks.append((t.copy(), {name: arr.copy() for name, arr in fields.items()}))

    # the array path warns of the overflow of a blow-up start
    with mock.patch.object(simulator.logger, "warning") as warn, np.errstate(all="ignore"):
        try:
            raw = engine.run(record=record, fold=keep if fold else None, lead=table,
                             initial=initial, start=start)
        except NumericalBlowupError as err:
            error = (err.vehicle, err.time, err.lane)
    return raw, blocks, error, engine.lane_floor_hits, warn.call_args_list


class TestFloatLane:
    # one unbatched real lane whose one follower is an AV steps on Python
    # floats; the same run with gains shaped (1, 1) is batched, so it steps
    # its arrays, and its lane equals its unbatched run bit for bit
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        kernel=st.sampled_from(["arctan", "tanh", "erf"]),
        integrator=st.sampled_from(["rk4", "euler"]),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        gains=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 3.0)),
        shape=st.sampled_from([(), (1,)]),
        start=st.integers(0, 150),
        window=st.tuples(st.integers(0, 100), st.integers(1, 100)),
        record=st.sampled_from([ALL_FIELDS, ("x", "v"), ("v", "a", "u")]),
        fold=st.booleans(),
        blowup=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # behind the stopping lead the AV clamps from about 9 s on
    @example(kind="ts-ops", kernel="arctan", integrator="rk4", lead=STOP_LEAD,
             gains=(0.1, 1.0), shape=(1,), start=0, window=(0, 100), record=ALL_FIELDS,
             fold=False, blowup=False, seed=0)
    @example(kind="none", kernel="arctan", integrator="euler", lead=STOP_LEAD,
             gains=(0.0, 1.0), shape=(), start=95, window=(60, 40), record=("v", "a", "u"),
             fold=True, blowup=False, seed=1)
    @example(kind="ts-trc", kernel="tanh", integrator="rk4", lead=SHORT_LEAD,
             gains=(0.05, 1.0), shape=(), start=30, window=(0, 100), record=ALL_FIELDS,
             fold=False, blowup=True, seed=2)
    def test_float_lane_equals_its_array_lane(
        self, kind, kernel, integrator, lead, gains, shape, start, window, record, fold,
        blowup, seed,
    ):
        t1, samples = window
        sc = Scenario(
            n_followers=1, mpr=1.0, hv_model=IDM_1, av_model=OVRV_1,
            controller=ControllerConfig(kind=kind, beta=gains[0], gamma=gains[1], kernel=kernel),
            lead=lead, t_f=20.0, dt=0.1, integrator=integrator,
            metric_window=(t1 * 0.1, min(t1 + samples, 200) * 0.1),
        )
        # stage 3's leader speeds differ from stage 2's, as in a table
        # rebuilt from a recorded vehicle (`avblock`)
        table = list(sc.lead.stage_speeds(sc.dt, sc.steps))
        table[2] = table[2] + np.random.default_rng(seed).uniform(-0.5, 0.5, sc.steps)
        oracle = PlatoonEngine(sc, beta=np.full((1, 1), gains[0]), gamma=np.full((1, 1), gains[1]))
        full = oracle.run(record=("x", "v"), lead=table)
        initial = full["x"][start, 0], full["v"][start, 0, 1:]
        if blowup:  # a spacing that overflows at the first rate
            initial = np.array([1e308, -1e308]), initial[1]
        engine = PlatoonEngine(sc, beta=np.full(shape, gains[0]), gamma=np.full(shape, gains[1]))
        assert engine._floats and not oracle._floats
        with mock.patch.object(simulator, "_FOLD_VALUES", 37):  # blocks of 4 samples at most
            raw, blocks, error, hits, log = run_outcome(engine, table, initial, start, record, fold)
            ref, ref_blocks, ref_error, ref_hits, _ = run_outcome(
                oracle, table, initial, start, record, fold)

        assert error == (ref_error and ref_error[:2] + (None,))
        # a folded run ends at the window's last sample, maybe before a step
        if blowup and not fold:
            assert error[:2] == (1, pytest.approx(start * 0.1 + 0.1))
        assert hits.shape == () and hits == ref_hits[0]
        assert log == ([mock.call(FLOOR_LINE, int(hits))] if hits else [])
        if fold:  # the blocks folded up to a blow-up too
            assert raw is ref is None and len(blocks) == len(ref_blocks)
            pairs = list(zip(blocks, ref_blocks))
        else:
            pairs = [] if error else [((raw["t"], raw), (ref["t"], ref))]
        for (t, fields), (t_ref, fields_ref) in pairs:
            assert t.tobytes() == t_ref.tobytes()
            assert set(fields) - {"t"} == set(record)
            for name in record:
                assert fields[name].tobytes() == fields_ref[name][:, 0].tobytes(), name

    def test_the_stopping_lead_clamps_the_lane(self):
        # so the first example above checks the clamp and its count
        sc = Scenario(n_followers=1, mpr=1.0, hv_model=IDM_1, av_model=OVRV_1,
                      controller=ControllerConfig(kind="ts-ops", beta=0.1),
                      lead=STOP_LEAD, t_f=20.0, dt=0.1, metric_window=(0.0, 20.0))
        engine = PlatoonEngine(sc)
        engine.run(record=())
        assert engine._floats and engine.floor_hits > 0

    def test_descent_at_mpr_01_steps_no_array_after_its_seeding_lane(self):
        # every run of the default descent's AV block at MPR 0.1 is one AV
        # behind a tabulated leader, so every `advance` call after the
        # seeding lane's, the all-HV prefix's, steps a float lane, one per
        # step of those runs: the block's runs to its head's end, then one
        # `AvBlock.run` per iteration
        sc = make_short_scenario(mpr=0.1)
        calls, runs, seeded = [], [], []
        advance, run, av_block = PlatoonEngine.advance, PlatoonEngine.run, optimizer.av_block

        def spy_advance(self, *args):
            calls.append(self._floats)
            return advance(self, *args)

        def spy_run(self, *args, start=0, **kw):
            runs.append((self._floats, self.scenario.steps - start))
            return run(self, *args, start=start, **kw)

        def spy_block(*args, **kw):
            out = av_block(*args, **kw)
            seeded.append((len(calls), len(runs)))
            return out

        with mock.patch.object(PlatoonEngine, "advance", spy_advance), \
                mock.patch.object(PlatoonEngine, "run", spy_run), \
                mock.patch.object(optimizer, "av_block", spy_block):
            _, trace = optimizer.optimize(sc, optimizer.OptimizerConfig(sc.beta_bound(), n_max=4))
        assert len(trace) == 4
        [(seed_calls, seed_runs)] = seeded
        (prefix_floats, prefix_steps), *head_runs = runs[:seed_runs]
        assert not prefix_floats and prefix_steps == sc.steps
        assert not any(calls[:prefix_steps]) and all(calls[prefix_steps:seed_calls])
        assert head_runs and all(floats for floats, _ in head_runs)
        block_runs = runs[seed_runs:]
        assert len(block_runs) == 4 and all(floats for floats, _ in block_runs)
        assert all(calls[seed_calls:])
        assert len(calls) - seed_calls == sum(steps for _, steps in block_runs)


def vehicles_first(arr):
    """A record-layout array (vehicles last) in the engine's layout."""
    return np.moveaxis(arr, -1, 0)


def vehicles_last(arr):
    """An engine-layout array (vehicles first) in the record's layout."""
    return np.moveaxis(arr, 0, -1)


def full_width_u(engine, u, s):
    """The AV-entry input `u` of an `rhs` tuple spread over the vehicle
    axis of its `s`, +0.0 on every HV, in the engine's layout."""
    out = np.zeros_like(s)
    if engine._a is not None:
        out[engine._a] = u
    return out


class TestStageRebuild:
    # `PlatoonEngine.stage_blocks` rebuilds a recorded run's steps in an
    # engine whose first batch axis is the step index, in front of any
    # lanes; every stage's rhs tuple and the state after each step must keep
    # the bytes of the loop, which evaluates one step at a time, and each
    # step's floor mask must be the one `advance` counts with. The lanes
    # must share one AV mask.

    @settings(max_examples=15, deadline=None)
    @given(
        form=st.sampled_from(["slice", "positions", "all"]),
        gains=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                       min_size=1, max_size=4),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        integrator=st.sampled_from(["rk4", "euler"]),
        block=st.integers(1, 70),
    )
    # three lanes with their own gains behind the stopping lead, where
    # speeds clamp and each lane's clamp count must come out of the masks
    @example(form="slice", gains=[(0.0, 1.0), (0.05, 1.0), (0.0642, 2.0)], lead=STOP_LEAD,
             kind="ts-ops", integrator="rk4", block=64)
    def test_step_batched_rebuild_equals_the_loop(self, form, gains, lead, kind, integrator,
                                                   block):
        sc = make_short_scenario(kind=kind, lead=lead, t_f=15.0, window=(0.0, 15.0),
                                 integrator=integrator)
        n = sc.n_followers
        mask = av_mask_form(form, None)
        beta, gamma = (np.array(gain)[:, None] for gain in zip(*gains))
        engine = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=mask)
        raw = engine.run(record=("x", "v"))
        x, v = raw["x"], raw["v"][..., 1:]
        table = sc.lead.stage_speeds(sc.dt, sc.steps)

        clamps = 0
        with mock.patch.object(simulator, "_STAGE_BLOCK", block):
            blocks = list(engine.stage_blocks(table, raw))
        assert blocks[-1][1] == sc.steps  # no block starts at the last sample
        for k0, k1, stages, floored in blocks:
            for k in range(k0, k1):
                x_k, v_k = vehicles_first(x[k]), vehicles_first(v[k])
                loop = [engine.rhs(table[0][k], x_k, v_k)]
                y_next = engine.step(np.concatenate([x_k, v_k]), loop[0][0],
                                     [s[k] for s in table[1:]], loop)
                assert len(stages) == len(loop) == (4 if integrator == "rk4" else 1)
                for got, ref in zip(stages, loop):
                    # rhs tuples of the rebuild (column k - k0 of a block,
                    # behind the vehicle axis) and of the loop; u is a 0-d
                    # 0.0 without a controller
                    for part, (a, b) in enumerate(zip(got, ref)):
                        a = a[:, k - k0] if np.ndim(a) else a
                        assert a.tobytes() == b.tobytes(), part
                assert floored[:, k - k0].tobytes() == engine.floored(y_next).tobytes()
                assert raw["v"][k + 1, ..., 1:].tobytes() == vehicles_last(np.maximum(
                    y_next[n + 1 :], 0.0)).tobytes()
            clamps = clamps + floored.sum(axis=(0, 1))
        assert np.array_equal(clamps, engine.lane_floor_hits)

    def test_lanes_of_different_masks_are_refused(self):
        # the step-batched engine has one mask for every lane, so a rebuild
        # of lanes whose masks differ would give their AVs the IDM's law
        sc = make_short_scenario(kind="ts-ops", t_f=15.0, window=(0.0, 15.0))
        engine = PlatoonEngine(sc, av_mask=av_mask_for(10, (0.1, 0.7)))
        raw = engine.run(record=("x", "v"))
        table = sc.lead.stage_speeds(sc.dt, sc.steps)
        with pytest.raises(DomainError, match=r"one av_mask for all lanes, got \[\[False, False"):
            next(engine.stage_blocks(table, raw))

    @settings(max_examples=40, deadline=None)
    @given(
        form=st.sampled_from(["slice", "positions", "per-lane", "none", "all", "float"]),
        rows=st.lists(st.lists(st.booleans(), min_size=10, max_size=10), min_size=2, max_size=4),
        gains=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                       min_size=4, max_size=4),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        integrator=st.sampled_from(["rk4", "euler"]),
        start=st.integers(0, 150),
        fold=st.none() | st.integers(1, 20000),
        block=st.integers(1, 200),
    )
    @example(form="per-lane", rows=[[True] * 10] * 3, gains=[(0.05, 1.0)] * 4, lead=STOP_LEAD,
             kind="ts-ops", integrator="rk4", start=0, fold=None, block=128)
    @example(form="float", rows=[[True] * 10] * 2, gains=[(0.1, 1.0)] * 4, lead=STOP_LEAD,
             kind="ts-ops", integrator="rk4", start=40, fold=3000, block=7)
    def test_run_record_equals_the_loop(self, form, rows, gains, lead, kind, integrator, start,
                                        fold, block):
        # `run` records x, v and a, and rebuilds s, dv and u from its record
        # of x and v; each must equal the loop's rhs tuple at its sample, bit
        # for bit, with u +0.0 on every HV
        sc = make_short_scenario(kind=kind, lead=lead, t_f=15.0, window=(3.0, 12.0),
                                 integrator=integrator)
        if form == "float":  # one unbatched AV: the lane steps on floats
            sc = replace(sc, n_followers=1, mpr=1.0)
            engine = PlatoonEngine(sc, *gains[0])
            assert engine._floats
        else:
            beta, gamma = (np.array(gain)[:, None] for gain in zip(*gains[: len(rows)]))
            engine = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=av_mask_form(form, rows))
        n = sc.n_followers
        full = engine.run(record=("x", "v"))
        initial = full["x"][start], full["v"][start, ..., 1:]
        blocks = []

        def keep(t, fields):
            blocks.append((t.copy(), {name: arr.copy() for name, arr in fields.items()}))

        with mock.patch.object(simulator, "_STAGE_BLOCK", block), \
                mock.patch.object(simulator, "_FOLD_VALUES", fold or simulator._FOLD_VALUES):
            raw = engine.run(record=ALL_FIELDS, fold=fold and keep, initial=initial, start=start)
        if fold:
            raw = {"t": np.concatenate([t for t, _ in blocks])} | {
                name: np.concatenate([fields[name] for _, fields in blocks]) for name in ALL_FIELDS
            }
        table = sc.lead.stage_speeds(sc.dt, sc.steps)
        for j, k in enumerate(np.rint(raw["t"] / sc.dt).astype(int)):
            assert raw["x"][j].tobytes() == full["x"][k].tobytes()
            f, s, dv, u = engine.rhs(table[0][k], vehicles_first(raw["x"][j]),
                                     vehicles_first(raw["v"][j, ..., 1:]))
            assert raw["a"][j].tobytes() == vehicles_last(f[n + 1 :]).tobytes()
            for name, ref in (("s", s), ("dv", dv), ("u", full_width_u(engine, u, s))):
                assert raw[name][j].tobytes() == vehicles_last(ref).tobytes(), (name, k)
        hv = ~np.broadcast_to(engine.av_mask, raw["u"].shape[1:])
        assert not np.signbit(raw["u"][:, hv]).any() and not raw["u"][:, hv].any()


def stepped_by_hand(engine):
    """`run`'s record of x, v and a and its clamps, from a loop that calls
    `rhs` and `step` without a work set and floors the speeds by their real
    part, as `advance` does."""
    sc, n = engine.scenario, engine.n
    lead = sc.lead.stage_speeds(sc.dt, sc.steps)
    x, v = engine.initial_arrays()
    y = np.concatenate([vehicles_first(x), vehicles_first(v)]).astype(engine.dtype)
    rows, clamps = [], np.zeros(engine.batch_shape, dtype=np.int64)
    for k in range(sc.steps + 1):
        f = engine.rhs(lead[0][k], y[: n + 1], y[n + 1 :])[0]
        rows.append([vehicles_last(part) for part in (y[: n + 1], f[: n + 1], f[n + 1 :])])
        if k < sc.steps:
            y = engine.step(y, f, [stage[k] for stage in lead[1:]])
            speed = y[n + 1 :]
            floored = (speed.real < 0) & (speed.real != -np.inf)
            clamps += floored.sum(axis=0)
            speed[floored] = 0.0
    return {name: np.stack(parts) for name, parts in zip("xva", zip(*rows))}, clamps


class TestRunBuffers:
    # `run` steps an array lane in buffers and views that it makes once;
    # its record and clamps must equal, byte for byte, those of a loop that
    # makes fresh arrays at every stage, and a second run of the same engine
    # must repeat the first (no buffer holds a stale value)

    @settings(max_examples=60, deadline=None)
    @given(
        form=st.sampled_from(["unbatched", "slice", "positions", "per-lane", "all", "none"]),
        mpr=st.sampled_from([0.1, 0.5, 0.7]),
        rows=st.lists(st.lists(st.booleans(), min_size=10, max_size=10), min_size=2, max_size=3),
        gains=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                       min_size=3, max_size=3),
        step=st.sampled_from([0.0, 1e-20, 1e-3]),  # the imaginary part of beta
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        hv=st.sampled_from([IDM_1, IDM_2]),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    @example(form="positions", mpr=0.7, rows=[[True] * 10] * 2, gains=[(0.0642, 1.0)] * 3,
             step=1e-20, lead=STOP_LEAD, hv=IDM_2, kind="ts-ops", kernel="arctan",
             integrator="rk4")
    def test_run_equals_a_loop_without_buffers(self, form, mpr, rows, gains, step, lead, hv,
                                               kind, kernel, integrator):
        sc = make_short_scenario(hv=hv, mpr=mpr, kind=kind, lead=lead, t_f=15.0,
                                 window=(0.0, 15.0), integrator=integrator)
        sc = replace(sc, controller=replace(sc.controller, kernel=kernel))
        beta, gamma = (np.array(gain)[: len(rows), None] for gain in zip(*gains))
        beta = beta + 1j * step if step else beta
        if form == "unbatched":
            engine = PlatoonEngine(sc, beta=beta[0, 0], gamma=gamma[0, 0])
        else:
            mask = av_mask_for(10, 0.7) if form == "positions" else av_mask_form(form, rows)
            engine = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=mask)
        assert not engine._floats
        ref, clamps = stepped_by_hand(engine)
        raw = engine.run(record=("x", "v", "a"))
        assert np.array_equal(engine.lane_floor_hits, clamps)
        for name, arr in ref.items():
            assert raw[name].tobytes() == arr.tobytes(), name
        again = engine.run(record=("x", "v", "a"))
        for name, arr in raw.items():
            assert again[name].tobytes() == arr.tobytes(), name


def one_av_scenario(**kw):
    """Leader, AV and HV (mpr 0.5 of two followers puts the AV first)."""
    return Scenario(
        n_followers=2,
        mpr=0.5,
        hv_model=IDM_1,
        av_model=OVRV_1,
        controller=ControllerConfig(kind="ts-ops", beta=0.05, gamma=1.0),
        lead=LeadProfile((0.0, 10.0), (20.0, 16.0)),
        t_f=1.0,
        dt=0.1,
        metric_window=(0.0, 1.0),
        **kw,
    )


def full_width_input(engine, s, dv, v_prev, beta, gamma):
    """The control input of every follower as if every one were an AV."""
    ctrl = engine.scenario.controller
    if ctrl.kind == "ts-ops":
        return beta * SIGMOID_KERNELS[ctrl.kernel].fn(gamma * s * dv)
    if ctrl.kind == "ts-trc":
        v_star = engine.scenario.v_star
        return ctrl.phi1 * (dv + ctrl.phi2 * np.arctan(ctrl.phi3 * s * (v_star - v_prev)))
    return np.zeros_like(s)


def av_mask_form(form, rows):
    """A mask of the named index form: `rows` are drawn per-lane rows."""
    if form == "slice":  # shared, evenly spaced AVs (MPR 0.3)
        return av_mask_for(10, 0.3)
    if form == "positions":  # shared, unevenly spaced AVs (MPR 0.6)
        return av_mask_for(10, 0.6)
    if form == "none":
        return np.zeros(10, dtype=bool)
    if form == "all":
        return np.ones(10, dtype=bool)
    # per lane: an AV-free first lane and an AV in the second make the rows differ
    masks = np.array(rows)
    masks[0] = False
    masks[1, 4] = True
    return masks


# IDM parameters whose free speed lies above the leads' 21 m/s, and OVRV
# parameters, as (a, b, v0, s0, T, delta) and (k1, k2, eta, tau)
IDM_DRAWS = st.tuples(
    st.floats(0.3, 2.0), st.floats(1.0, 6.0), st.floats(25.0, 45.0),
    st.floats(1.0, 8.0), st.floats(0.8, 2.5), st.sampled_from([1.0, 2.0, 4.0, 15.5]) | st.floats(2.0, 16.0),
)
OVRV_DRAWS = st.tuples(
    st.floats(0.005, 0.1), st.floats(0.05, 0.5), st.floats(0.0, 30.0), st.floats(0.5, 2.5),
)


class TestAvEntries:
    # the AV law, its input and the sensitivity terms are evaluated at the
    # AV entries only, through a slice, a position array or per-lane index
    # arrays; every follower's derivative must equal a full-width evaluation
    # of both laws that keeps the AV law on the AV entries

    @settings(max_examples=60, deadline=None)
    @given(
        form=st.sampled_from(["slice", "positions", "per-lane", "none", "all"]),
        rows=st.lists(st.lists(st.booleans(), min_size=10, max_size=10), min_size=2, max_size=4),
        gains=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                       min_size=4, max_size=4),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        integrator=st.sampled_from(["rk4", "euler"]),
        seed=st.integers(0, 2**32 - 1),
        idm=IDM_DRAWS,
        ovrv=OVRV_DRAWS,
    )
    def test_rhs_equals_a_full_width_reference(
        self, form, rows, gains, kind, kernel, integrator, seed, idm, ovrv
    ):
        # the engine evaluates the laws with 0-d operand twins of the drawn
        # parameters; the reference calls them with the dataclasses
        sc = make_short_scenario(kind=kind, t_f=20.0, window=(0.0, 20.0),
                                 integrator=integrator)
        sc = replace(sc, controller=replace(sc.controller, kernel=kernel),
                     hv_model=IdmParams(*idm, length=5.0), av_model=OvrvParams(*ovrv, length=5.0))
        mask = av_mask_form(form, rows)
        lanes = len(rows)
        beta = np.array([[b] for b, _ in gains[:lanes]])
        gamma = np.array([[g] for _, g in gains[:lanes]])
        engine = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=mask)
        index = engine._a
        if form == "none":
            assert index is None
        elif form == "per-lane":
            assert all(isinstance(i, np.ndarray) for i in index)
        else:
            assert isinstance(index[-1], slice if form != "positions" else np.ndarray)

        # a perturbed state, so that spacings and relative speeds differ
        rng = np.random.default_rng(seed)
        x, v = engine.initial_arrays()
        x[..., 1:] += rng.uniform(-3.0, 3.0, x[..., 1:].shape)
        v += rng.uniform(-2.0, 2.0, v.shape)
        f = vehicles_last(engine.rhs(19.5, vehicles_first(x), vehicles_first(v))[0])
        v_prev = np.concatenate([np.full(v.shape[:-1] + (1,), 19.5), v[..., :-1]], axis=-1)
        s = x[..., :-1] - x[..., 1:] - vehicles_last(engine.front_lengths)
        dv = v_prev - v
        u = full_width_input(engine, s, dv, v_prev, beta, gamma)
        acc = np.where(
            mask,
            ovrv_accel_arrays(s, dv, v, sc.av_model) + u,
            idm_accel_arrays(s, dv, v, sc.hv_model),
        )
        assert f[..., sc.n_followers + 1 :].tobytes() == acc.tobytes()
        assert f[..., 1 : sc.n_followers + 1].tobytes() == v.tobytes()

        # the recorded input: the AV law's on the AV entries, +0.0 on the HVs
        raw = engine.run(record=("v", "s", "dv", "u"))
        u_ref = full_width_input(engine, raw["s"], raw["dv"], raw["v"][..., :-1], beta, gamma)
        assert raw["u"].tobytes() == np.where(mask, u_ref, 0.0).tobytes()
        hv = np.broadcast_to(~mask, raw["u"].shape)
        assert not np.signbit(raw["u"][hv]).any()

    @settings(max_examples=40, deadline=None)
    @given(
        form=st.sampled_from(["slice", "positions", "all"]),
        gains=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sensitivity_forcing_equals_a_full_width_reference(
        self, form, gains, kernel, seed
    ):
        # the optimizer's sensitivity rate at an `rhs` tuple, read at the AV
        # entries, against one evaluated over every follower
        sc = make_short_scenario(beta=gains[0], gamma=gains[1])
        sc = replace(sc, controller=replace(sc.controller, kernel=kernel))
        mask = av_mask_form(form, None)
        engine = PlatoonEngine(sc, av_mask=mask)
        rng = np.random.default_rng(seed)
        n = sc.n_followers
        x, v = engine.initial_arrays()
        x[1:] += rng.uniform(-3.0, 3.0, n)
        v += rng.uniform(-2.0, 2.0, n)
        z = rng.uniform(-2.0, 2.0, (2, n))
        beta, gamma = gains
        kern = SIGMOID_KERNELS[kernel]
        cols = np.flatnonzero(mask)
        _, s, dv, _ = engine.rhs(19.5, x, v)
        drdv, forcing = _z_terms(s[cols], dv[cols], beta, gamma, kern, sc.av_model)
        zdot = drdv[:, None] * z[:, cols].T + np.stack([forcing.real, forcing.imag], axis=-1)

        # zdot = (dr/dv) z + dr/dtheta over every follower, kept on the AVs
        v_prev = np.concatenate([[19.5], v[:-1]])
        s = x[:-1] - x[1:] - engine.front_lengths
        dv = v_prev - v
        w = gamma * s * dv
        kp = kern.deriv(w)
        beta_gamma = beta * gamma
        drdv = -sc.av_model.k1 * sc.av_model.tau - (sc.av_model.k2 + beta_gamma * s * kp)
        expected = np.stack([kern.fn(w), beta * s * dv * kp]) + drdv * z
        assert zdot.tobytes() == np.ascontiguousarray(expected[:, cols].T).tobytes()

    def test_all_av_run_skips_the_idm(self, monkeypatch):
        # behind STOP_LEAD the RK4 stage speeds go negative, where scenario
        # 2's delta = 15.5 makes the unclamped IDM's (v/v0)**delta NaN; with
        # no HV the IDM is never called, so no warning, and since the AV law
        # wrote over every entry the run keeps its bits
        calls = []

        def idm(*args, **buffers):
            calls.append(args)
            return unclamped_idm(*args, **buffers)

        monkeypatch.setattr(simulator, "idm_accel_arrays", idm)
        sc = make_scenario(hv=IDM_2, mpr=1.0, kind="ts-ops", beta=0.05, lead=STOP_LEAD,
                           t_f=25.0, window=(0.0, 25.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = PlatoonEngine(sc).run()
        assert not calls
        with_idm = PlatoonEngine(sc)
        with_idm._all_av = False
        with pytest.warns(RuntimeWarning, match="invalid value encountered in power"):
            reference = with_idm.run()
        for name, arr in raw.items():
            assert arr.tobytes() == reference[name].tobytes(), name


    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 10]),
        lanes=st.sampled_from([None, 3]),
        gains=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                       min_size=3, max_size=3),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        integrator=st.sampled_from(["rk4", "euler"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_all_av_rhs_equals_the_indexed_path(
        self, n, lanes, gains, kind, kernel, integrator, seed
    ):
        # with every follower an AV, rhs evaluates the AV law and u on the
        # whole arrays; an engine forced onto the views through `_a` must
        # give the same bytes in every part of rhs's tuple and of a run
        sc = make_short_scenario(mpr=1.0, kind=kind, t_f=20.0, window=(0.0, 20.0),
                                 integrator=integrator)
        sc = replace(sc, n_followers=n, controller=replace(sc.controller, kernel=kernel))
        if lanes is None:  # one pair as 1-element arrays, as the optimizer passes it
            beta, gamma = np.reshape(gains[0], (2, 1))
        else:
            beta, gamma = (np.array(g)[:, None] for g in zip(*gains))
        whole = PlatoonEngine(sc, beta=beta, gamma=gamma)
        indexed = PlatoonEngine(sc, beta=beta, gamma=gamma)
        indexed._all_av = False
        assert whole._all_av and isinstance(indexed._a[-1], slice)

        rng = np.random.default_rng(seed)
        x, v = whole.initial_arrays()
        x[..., 1:] += rng.uniform(-3.0, 3.0, x[..., 1:].shape)
        v += rng.uniform(-2.0, 2.0, v.shape)
        x, v = vehicles_first(x), vehicles_first(v)
        got, ref = whole.rhs(19.5, x, v), indexed.rhs(19.5, x, v)
        for part, (a, b) in enumerate(zip(got, ref)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), part
        raw, reference = whole.run(), indexed.run()
        for name, arr in raw.items():
            assert arr.tobytes() == reference[name].tobytes(), name


class TestStep:
    @settings(max_examples=40, deadline=None)
    @given(
        idm=st.tuples(
            st.floats(0.3, 2.0), st.floats(1.0, 6.0), st.floats(25.0, 45.0),
            st.floats(1.0, 8.0), st.floats(0.8, 2.5), st.floats(2.0, 16.0),
        ),
        ovrv=st.tuples(
            st.floats(0.005, 0.1), st.floats(0.05, 0.5), st.floats(0.0, 30.0),
            st.floats(0.5, 2.5),
        ),
        mpr=st.sampled_from([round(0.1 * k, 1) for k in range(11)]),
        kind=st.sampled_from(["none", "ts-ops", "ts-trc"]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    def test_equilibrium_is_fixed_point(self, idm, ovrv, mpr, kind, integrator):
        # every follower starts at its model's equilibrium behind a leader
        # cruising below the IDM free speed: advance keeps speeds and spacings
        v0 = 0.6 * idm[2]
        sc = make_scenario(
            hv=IdmParams(*idm, length=5.0), mpr=mpr, kind=kind, beta=0.05,
            lead=LeadProfile((0.0,), (v0,)), t_f=1.0, window=(0.0, 1.0),
            integrator=integrator,
        )
        engine = PlatoonEngine(replace(sc, av_model=OvrvParams(*ovrv, length=4.0)))
        x0, v_init = engine.initial_arrays()
        y = np.concatenate([x0, v_init])
        for _ in range(10):
            f1 = engine.rhs(v0, y[: sc.n_followers + 1], y[sc.n_followers + 1 :])[0]
            y = engine.advance(y, f1, (v0, v0, v0))
        x, v = y[: sc.n_followers + 1], y[sc.n_followers + 1 :]
        assert np.abs(v - v0).max() < 1e-8
        assert np.abs(np.diff(x) - np.diff(x0)).max() < 1e-8
        assert engine.floor_hits == 0

    @settings(max_examples=12, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.lists(st.booleans(), min_size=10, max_size=10), st.floats(0.0, 5.0)),
            min_size=1,
            max_size=4,
        ),
        kernel=st.sampled_from(["arctan", "tanh", "erf"]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    @example(lanes=[(list(av_mask_for(10, 0.5)), 2.0)], kernel="arctan", integrator="rk4")
    def test_zero_beta_matches_uncontrolled(self, lanes, kernel, integrator):
        # beta = 0 switches the ts-ops input off whatever gamma and kernel
        sc = make_scenario(kind="none", t_f=60.0, window=(10, 50), lead=SHORT_LEAD,
                           integrator=integrator)
        sc_zero = replace(sc, controller=ControllerConfig(kind="ts-ops", kernel=kernel))
        masks = np.array([mask for mask, _ in lanes])
        gammas = np.array([[gamma] for _, gamma in lanes])
        plain = PlatoonEngine(sc, av_mask=masks).run(record=("x", "v", "s", "dv"))
        zero = PlatoonEngine(sc_zero, beta=0.0, gamma=gammas, av_mask=masks).run(
            record=("x", "v", "s", "dv")
        )
        for name in ("x", "v", "s", "dv"):
            assert np.array_equal(plain[name], zero[name]), name

    def test_euler_step_matches_hand_computation(self):
        # leader + AV + HV with hand-set perturbed speeds; one explicit-Euler
        # update of the flat state [x | v] recomputed here from the raw model
        # formulas
        engine = PlatoonEngine(one_av_scenario(integrator="euler"))
        x = np.array([0.0, -40.0, -85.0])
        v = np.array([18.0, 19.0])
        f1 = engine.rhs(20.0, x, v)[0]
        new = engine.advance(np.concatenate([x, v]), f1, (19.98, 19.98, 19.96))

        s1 = 0.0 - (-40.0) - 5.0
        dv1 = 20.0 - 18.0
        acc1 = (
            0.02 * (s1 - 21.51 - 1.71 * 18.0)
            + 0.13 * dv1
            + 0.05 * math.atan(1.0 * s1 * dv1)
        )
        s2 = -40.0 - (-85.0) - 5.0
        dv2 = 18.0 - 19.0
        sstar = 2.0 + max(0.0, 19.0 * 1.5 - 19.0 * dv2 / (2 * math.sqrt(0.6 * 2.5)))
        acc2 = 0.6 * (1 - (19.0 / 35.0) ** 4 - (sstar / s2) ** 2)

        assert new.shape == (5,)
        assert new[0] == pytest.approx(0.0 + 0.1 * 20.0, rel=1e-12)
        assert new[1] == pytest.approx(-40.0 + 0.1 * 18.0, rel=1e-12)
        assert new[2] == pytest.approx(-85.0 + 0.1 * 19.0, rel=1e-12)
        assert new[3] == pytest.approx(18.0 + 0.1 * acc1, rel=1e-12)
        assert new[4] == pytest.approx(19.0 + 0.1 * acc2, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1e-30j])
    @pytest.mark.parametrize("speed", [0.1, 0.05])
    def test_complex_lane_floors_by_the_real_part(self, monkeypatch, beta, speed):
        # one Euler step at a = -1 from speeds 0.1 lands on 0.0, from 0.05 on
        # -0.05; a complex lane's speed is 0 - eps*j or -0.05 - eps*j, which
        # NumPy orders below 0. Only the real part is floored and counted, so
        # the lane clamps as its real run does and keeps the sensitivity of a
        # speed it does not clamp
        monkeypatch.setattr(simulator, "ovrv_accel_arrays", lambda s, dv, v, p: -1.0)
        sc = replace(make_scenario(mpr=1.0, kind="ts-ops", integrator="euler", t_f=10.0,
                                   window=(0.0, 10.0)), n_followers=2)
        engine = PlatoonEngine(sc, beta=np.array([[beta]]))
        x = vehicles_first(engine.initial_arrays()[0])
        v = np.full((2, 1), speed)
        new = engine.advance(np.concatenate([x, v]), engine.rhs(0.0, x, v)[0], ())
        clamped = speed < 0.1
        assert engine.lane_floor_hits.tolist() == [2 if clamped else 0]
        assert (new[3:].real == 0.0).all()
        # the first follower's imaginary part, 0.1 * eps * arctan(gamma * s *
        # -0.1), is below 0 unless clamped; the second's dv and input are 0
        assert np.signbit(new[3].imag) == (bool(beta) and not clamped)
        assert not new[4].imag.any()

    def test_advance_leaves_minus_inf_to_the_finite_check(self):
        # an Euler step with a = -inf gives a speed of -inf: a blow-up for
        # `_check_finite`, not a speed to clamp to 0 and count; a finite
        # negative speed in the other lane is clamped and counted
        # two lanes, one column each in the engine's layout
        engine = PlatoonEngine(one_av_scenario(integrator="euler"), beta=np.full((2, 1), 0.05))
        y = np.array([[0.0, -40.0, -85.0, 18.0, 19.0]] * 2).T
        f1 = np.array([[20.0, 18.0, 19.0, -np.inf, -1.0], [20.0, 18.0, 19.0, -1.0, -300.0]]).T
        new = engine.advance(y, f1, ())
        assert new[3, 0] == -np.inf and new[4, 0] == 19.0 - 0.1
        assert new[3, 1] == 18.0 - 0.1 and new[4, 1] == 0.0
        assert engine.lane_floor_hits.tolist() == [0, 1]
        with pytest.raises(NumericalBlowupError) as err:
            engine._check_finite(new, 0.1)
        assert (err.value.vehicle, err.value.lane) == (1, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        shape=st.sampled_from([(), (1,), (3,), (2, 2)]),
        complex_state=st.booleans(),
        data=st.data(),
    )
    def test_a_step_floors_and_fails_as_an_entrywise_check_does(
        self, n, shape, complex_state, data
    ):
        # `advance` (its step drawn) then `_check_finite`, as the run loop
        # calls them, on speeds that are NaN, +-inf, negative or so large
        # that one reduction over them overflows, real and complex, in float
        # and array lanes: the clamps, the clamped state and the failure
        # are those of the entrywise rule each check states
        sc = Scenario(n_followers=n, mpr=1.0 if n == 1 else 0.5, hv_model=IDM_1,
                      av_model=OVRV_1, controller=ControllerConfig(kind="ts-ops", beta=0.05),
                      t_f=1.0, metric_window=(0.0, 1.0))
        dtype = complex if complex_state else float
        engine = PlatoonEngine(sc, beta=np.full((*shape, 1), 0.05, dtype))
        size = (2 * n + 1) * math.prod(shape)
        special = [math.nan, math.inf, -math.inf, -0.5, -1e-300, 0.0, 1.7e308, -1.7e308]
        value = st.one_of(st.floats(0.0, 30.0), st.sampled_from(special))
        parts = [data.draw(st.lists(value, min_size=size, max_size=size)) for _ in range(2)]
        y_new = np.zeros((2 * n + 1, *shape), dtype)
        y_new.real = np.reshape(parts[0], y_new.shape)
        if complex_state:
            y_new.imag = np.reshape(parts[1], y_new.shape)
        # the entrywise rules: a real part below 0 but -inf is clamped to 0
        # and counted; the failure is the lowest vehicle of the first lane
        # that holds a non-finite speed
        v = y_new[n + 1 :]
        floored = (v.real < 0) & (v.real != -math.inf)
        expected = y_new.copy()
        expected[n + 1 :][floored] = 0.0
        finite = np.isfinite(expected[n + 1 :]).reshape(n, -1)
        failure = None
        if not finite.all():
            lane = int(np.argmin(finite.all(axis=0)))
            failure = int(np.argmin(finite[:, lane])) + 1, lane if shape else None

        engine.step = lambda *args: tuple(y_new.tolist()) if engine._floats else y_new.copy()
        assert engine._floats == (n == 1 and not shape and not complex_state)
        with np.errstate(over="ignore", invalid="ignore"):
            new = engine.advance(None, None, ())
            try:
                engine._check_finite(new, 0.1)
                outcome = None
            except NumericalBlowupError as err:
                assert err.time == 0.1
                outcome = err.vehicle, err.lane
        assert np.array(new).tobytes() == expected.tobytes()
        assert engine.lane_floor_hits.tobytes() == floored.sum(axis=0).tobytes()
        assert outcome == failure

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_finite_speeds_whose_sum_overflows_are_no_failure(self, complex_state):
        # the one reduction overflows; the entrywise search finds nothing
        dtype = complex if complex_state else float
        engine = PlatoonEngine(one_av_scenario(), beta=np.full((3, 1), 0.05, dtype))
        y = np.full((5, 3), 1.7e308, dtype)
        with np.errstate(over="ignore"):
            assert not math.isfinite(abs(y[3:].sum()))
            engine._check_finite(y, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.floats(1e-3, 1.0),
        shape=st.sampled_from([None, (3,), (4, 7)]),
        complex_state=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        # a float lane's slot: None draws a finite value from the seed
        special=st.tuples(*[st.sampled_from([None] * 5 + [math.inf, -math.inf, math.nan])] * 3),
    )
    def test_rk4_step_takes_float_or_0d_coefficients(
        self, dt, shape, complex_state, seed, special
    ):
        # the engine passes `step_coefficients` as 0-d arrays and the
        # sensitivity post-pass as floats (on float states); both give the
        # bits of the classic step written out with dt
        rng = np.random.default_rng(seed)
        d, e, g = rng.normal(size=3).tolist()
        y = float(rng.normal()) if shape is None else rng.normal(size=shape)
        if complex_state and shape is not None:
            y = y + 1j * 10.0 ** rng.integers(-35, 1) * rng.normal(size=shape)

        def rate(i, y_i):
            return d * y_i + e * y_i * y_i + g

        f1 = rate(0, y)
        f2 = rate(1, y + dt / 2 * f1)
        f3 = rate(2, y + dt / 2 * f2)
        f4 = rate(3, y + dt * f3)
        written = y + dt / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
        for c in (step_coefficients(dt), tuple(map(np.array, step_coefficients(dt)))):
            got = rk4_step(y, c, f1, rate)
            assert np.asarray(got).tobytes() == np.asarray(written).tobytes()

        # `rk4_slots` on a float lane's tuple, against `rk4_step` on the
        # (3,) array of its values, with the engine's 0-d coefficients; the
        # rates mix the slots and read the stage. Finite slots of mixed
        # magnitudes, 16 states an example, keep the increments' last bits
        # in some sums
        def slot_rates(i, p, q, r):
            return d * q + g * i, e * r * r + p, d * p * q + e

        finite = rng.normal(size=(16, 3)) * 10.0 ** rng.integers(-8, 1, size=(16, 3))
        for row in finite.tolist():
            slots = tuple(f if v is None else v for f, v in zip(row, special))
            with np.errstate(all="ignore"):  # inf and nan slots
                got = rk4_slots(slots, step_coefficients(dt), slot_rates(0, *slots),
                                lambda i, y_i: slot_rates(i, *y_i))
                ref = rk4_step(np.array(slots), tuple(map(np.array, step_coefficients(dt))),
                               np.array(slot_rates(0, *slots)),
                               lambda i, y_i: np.array(slot_rates(i, *y_i)))
            assert type(got) is tuple and all(type(slot) is float for slot in got)
            assert np.array(got).tobytes() == ref.tobytes()

    def test_state_rejects_overlap(self):
        # a follower placed on (or into) its predecessor is rejected before
        # any run; equilibrium spacings are positive by construction
        for gap in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="init_spacing"):
                one_av_scenario(init_spacing=(30.0, gap))


class TestSimulate:
    def test_flat_profile_keeps_speeds_constant(self):
        sc = make_scenario(mpr=0.3, kind="ts-ops", beta=0.06, lead=FLAT_LEAD, t_f=60.0, window=(10, 50))
        traj = simulate(sc)
        assert np.abs(traj.v - 21.0).max() < 1e-9
        # recorded control stays at rounding noise while dv does
        assert np.abs(traj.u).max() < 1e-12

    def test_string_instability_amplifies_upstream(self, s1_mpr0_traj):
        undershoot = 21.0 - s1_mpr0_traj.v.min(axis=0)
        assert all(
            undershoot[i + 1] > undershoot[i] for i in range(1, 10)
        ), undershoot

    def test_full_penetration_damps_wave(self, s1_mpr0_traj, s1_mpr1_ops_traj):
        under0 = 21.0 - s1_mpr0_traj.v[:, 10].min()
        under1 = 21.0 - s1_mpr1_ops_traj.v[:, 10].min()
        assert under1 < under0

    def test_determinism(self):
        sc = make_scenario(mpr=0.5, kind="ts-ops", beta=TUNED_1[0], gamma=TUNED_1[1], t_f=40.0, window=(5, 35), lead=SHORT_LEAD)
        t1 = simulate(sc)
        t2 = simulate(sc)
        for name in ("t", "x", "v", "a", "s", "dv", "u"):
            a1, a2 = getattr(t1, name), getattr(t2, name)
            assert np.array_equal(a1, a2, equal_nan=True)

    def test_spacing_consistent_with_positions(self, s1_mpr0_traj):
        traj = s1_mpr0_traj
        lengths = np.array([5.0] * 10)
        s_check = traj.x[:, :-1] - traj.x[:, 1:] - lengths
        assert traj.s.shape == s_check.shape
        assert np.allclose(traj.s, s_check, atol=1e-12)

    def test_ordering_preserved_when_safe(self, s1_mpr0_traj):
        assert not check_safety(s1_mpr0_traj, 2.0)
        assert (np.diff(s1_mpr0_traj.x, axis=1) < 0).all()

    def test_integrator_order(self):
        # halving dt shrinks the error (vs a dt/8 reference) ~16x for RK4 and
        # ~2x for Euler; the ramp is kept gentle so the desired-spacing clamp
        # stays inactive and the dynamics smooth
        def endpoint(dt, integrator):
            sc = make_scenario(
                mpr=0.5,
                kind="ts-ops",
                beta=0.05,
                gamma=1.0,
                lead=LeadProfile((0.0, 5.0, 15.0, 25.0), (21.0, 21.0, 19.0, 21.0)),
                t_f=40.0,
                window=(5.0, 35.0),
                dt=dt,
                integrator=integrator,
            )
            return simulate(sc).v[-1, 1:]

        for integrator, band in (("rk4", (10.0, 40.0)), ("euler", (1.7, 2.7))):
            ref = endpoint(0.025, integrator)
            err_coarse = np.abs(endpoint(0.2, integrator) - ref).max()
            err_fine = np.abs(endpoint(0.1, integrator) - ref).max()
            ratio = err_coarse / err_fine
            assert band[0] < ratio < band[1], (integrator, ratio)


def assert_slice_matches_mask(t, window):
    """`window_slice` selects the mask's samples, or rejects an out-of-span window."""
    if window[0] < t[0] - 1e-9 or window[1] > t[-1] + 1e-9:
        with pytest.raises(DomainError, match="outside trajectory span"):
            simulator.window_slice(t, window)
        return
    keep = simulator.window_slice(t, window)
    assert np.array_equal(np.arange(len(t))[keep], np.flatnonzero(window_mask(t, window)))


class TestWindowSlice:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.integers(1, 60),
        dt=st.sampled_from([0.1, 0.05, 0.7, 0.25]),
        ends=st.tuples(st.integers(0, 60), st.integers(0, 60)),
        shifts=st.tuples(*[st.sampled_from([-1e-10, 0.0, 1e-10, 0.5])] * 2),
    )
    def test_equals_the_boolean_mask_on_a_grid(self, steps, dt, ends, shifts):
        # windows on grid points and 1e-10 s around them, as the engine's
        # t_k = k*dt grid gives them
        t = np.arange(steps + 1) * dt
        k1, k2 = sorted(min(k, steps) for k in ends)
        window = (k1 * dt + shifts[0], k2 * dt + shifts[1])
        assert_slice_matches_mask(t, window)

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
        start=st.floats(-50.0, 50.0),
        picks=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        shifts=st.tuples(*[st.sampled_from([-1e-10, 0.0, 1e-10])] * 2),
        between=st.floats(0.0, 1.0),
    )
    def test_equals_the_boolean_mask_on_uneven_times(self, gaps, start, picks, shifts, between):
        t = start + np.concatenate(([0.0], np.cumsum(gaps)))
        i1, i2 = sorted(min(i, len(t) - 1) for i in picks)
        t2 = t[i2] + shifts[1]
        # the lower end either near a sample or between two samples
        t1 = t[i1] + shifts[0] if i1 == i2 else t[i1] + between * (t[i1 + 1] - t[i1])
        window = (min(t1, t2), t2)
        assert_slice_matches_mask(t, window)


class TestScenarioValidation:
    def test_bad_metric_window(self):
        with pytest.raises(DomainError):
            make_scenario(window=(250.0, 100.0))
        with pytest.raises(DomainError):
            make_scenario(t_f=200.0, window=(100.0, 250.0))

    def test_bad_mpr_and_integrator(self):
        with pytest.raises(DomainError):
            make_scenario(mpr=1.2)
        with pytest.raises(DomainError):
            make_scenario(integrator="rk45")

    def test_window_must_hold_on_the_grid(self):
        # dt 0.7 ends a 500 s grid at 499.8 s: the horizon fails when the
        # scenario is built, before any run, and before its window
        with pytest.raises(DomainError, match=r"t_f 500.0 is not a whole number of dt 0.7"):
            make_scenario(dt=0.7, window=(100.0, 500.0))
        assert make_scenario(dt=0.7, t_f=499.8, window=(100.0, 499.8)).steps == 714

    @pytest.mark.parametrize("t_f, window", [(20.0, (0.0, 15.0)), (10.0, (0.0, 10.0))])
    def test_t_f_must_be_a_whole_number_of_steps(self, t_f, window):
        # round(t_f / dt) steps of 0.3 s would end the run at 20.1 s or 9.9 s
        with pytest.raises(DomainError) as err:
            make_scenario(t_f=t_f, dt=0.3, window=window)
        assert str(err.value) == f"t_f {t_f} is not a whole number of dt 0.3 steps"
        # the presets' 500 s in steps of 0.1 s misses 5000 steps by round-off only
        assert make_scenario(t_f=500.0, dt=0.1).steps == 5000

    def test_init_spacing_length_checked(self):
        with pytest.raises(DomainError):
            make_scenario(init_spacing=(30.0, 30.0))

    def test_envelope_uses_the_engines_initial_spacing(self):
        # the beta bound's s0 is the smallest AV entry of the spacings the
        # engine starts from
        sc = replace(make_scenario(mpr=0.3), controller=ControllerConfig(kind="ts-ops"))
        assert sc.envelope_s0_effective() == equilibrium_spacing(OVRV_1, 21.0)
        x, _ = PlatoonEngine(sc).initial_arrays()
        gaps = x[:-1] - x[1:] - 5.0
        av_gaps = gaps[np.subtract(sc.av_indices, 1)]
        assert sc.envelope_s0_effective() == pytest.approx(av_gaps.min())
        custom = replace(sc, init_spacing=tuple(float(k) for k in range(30, 40)))
        assert custom.envelope_s0_effective() == 30.0 + min(custom.av_indices) - 1
        with pytest.raises(DomainError):
            replace(sc, mpr=0.0).envelope_s0_effective()

    def test_controller_config_validation(self):
        with pytest.raises(DomainError):
            ControllerConfig(kind="pid")
        with pytest.raises(DomainError):
            ControllerConfig(kind="ts-ops", beta=-0.1)
        for field in ("beta", "gamma", "phi1", "phi2", "phi3"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError, match="finite"):
                    ControllerConfig(kind="ts-ops", **{field: value})
        for field in ("v_star", "envelope_s0"):
            for value in (math.nan, math.inf, 0.0, -1.0):
                with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
                    ControllerConfig(kind="ts-ops", **{field: value})

    # NaN passes a `<= 0` test: a NaN min_safe_spacing would switch the
    # safety audit off
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["dt", "t_f", "min_safe_spacing"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            replace(make_scenario(), **{field: value})


class TestCheckSafety:
    def test_clean_run_is_empty(self, s1_mpr0_traj):
        assert check_safety(s1_mpr0_traj, 2.0) == []

    def test_overlap_detected_with_indices(self):
        t = np.array([0.0, 1.0])
        x = np.array([[0.0, -10.0, -16.0], [0.0, -10.0, -16.5]])
        v = np.zeros((2, 3))
        s = x[:, :-1] - x[:, 1:] - 5.0
        traj = Trajectory(
            t=t, x=x, v=v, a=np.zeros((2, 3)), s=s, dv=np.full((2, 2), np.nan), u=np.zeros((2, 2)),
            kinds=("lead", "hv", "hv"),
        )
        violations = check_safety(traj, min_safe=2.0)
        assert [(v.vehicle, v.time) for v in violations] == [(2, 0.0), (2, 1.0)]
        assert violations[0].spacing == pytest.approx(1.0)


class TestTrajectoryCsv:
    def test_format_and_roundtrip(self, tmp_path):
        sc = make_scenario(mpr=0.5, kind="ts-ops", beta=0.05, t_f=2.0, window=(0, 2), lead=FLAT_LEAD, dt=0.5)
        traj = simulate(sc)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "vehicle", "kind", "x", "v", "a", "s", "dv", "u"]
        assert len(rows) == 1 + len(traj.t) * traj.n_vehicles
        first = rows[1]
        assert first[1] == "0" and first[2] == "lead"
        assert first[6] == "nan"  # leader has no spacing
        # all numeric fields carry exactly six decimals
        for row in rows[1:]:
            for tok in row[3:]:
                if tok != "nan":
                    assert len(tok.split(".")[-1]) == 6
        v_back = float(rows[2][4])
        assert v_back == pytest.approx(traj.v[0, 1], abs=1e-6)
