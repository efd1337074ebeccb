import csv
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim import simulator
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
from platoonsim.stepping import rk4_step, stage_blocks, step_coefficients
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


class TestEngine:
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("start", [0, 1, 67, 250])
    def test_resumed_run_equals_the_full_run(self, caplog, integrator, start):
        # behind the stopping lead speeds clamp from about 9 s on; a run
        # resumed at step `start` from the state and clamp counts a run of
        # the first `start` steps reached records the full run's rows from
        # there and ends with its counts and log line. Three lanes (MPR 0,
        # 0.5, 1.0) and one unbatched run.
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
                    t_start = start * sc.dt
                    early = PlatoonEngine(
                        replace(sc, t_f=t_start, metric_window=(0.0, t_start)), av_mask=mask
                    )
                    early.run(record=())
                    hits = early.lane_floor_hits
                engine = PlatoonEngine(sc, av_mask=mask)
                caplog.clear()
                resumed = engine.run(
                    initial=(full["x"][start], full["v"][start, ..., 1:]), start=start, hits=hits
                )
            assert set(resumed) == set(full)
            for name, arr in resumed.items():
                assert arr.tobytes() == full[name][start:].tobytes(), name
            assert engine.lane_floor_hits.tobytes() == full_engine.lane_floor_hits.tobytes()
            assert full_engine.floor_hits > 0
            assert caplog.text == full_log
            # a fold of the window (10-20 s) sees its samples from `start` on
            seen = []
            windowed = PlatoonEngine(replace(sc, metric_window=(10.0, 20.0)), av_mask=mask)
            windowed.run(record=("v",), initial=(full["x"][start], full["v"][start, ..., 1:]),
                         start=start, hits=hits, fold=lambda t, fields: seen.append(
                             fields["v"].copy()))
            assert np.concatenate(seen).tobytes() == full["v"][max(start, 100):201].tobytes()

    def test_resumed_run_fails_as_the_full_run(self):
        # scenario 2's IDM behind the stopping lead: NaN at a negative RK4
        # stage speed, the same vehicle and time from any start before it
        sc = make_scenario(hv=IDM_2, mpr=0.5, kind="ts-ops", beta=0.03, lead=STOP_LEAD,
                           t_f=25.0, window=(0.0, 25.0))
        errors = []
        with np.errstate(invalid="ignore"):
            early = PlatoonEngine(replace(sc, t_f=12.0, metric_window=(0.0, 12.0))).run()
            for start in (0, 120):
                with pytest.raises(NumericalBlowupError) as err:
                    PlatoonEngine(sc).run(
                        initial=(early["x"][start], early["v"][start, 1:]), start=start
                    )
                errors.append((err.value.vehicle, err.value.time, err.value.lane))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (2, pytest.approx(19.4, abs=1e-9))

    # inside the horizon, the whole horizon, and a window holding no sample
    @pytest.mark.parametrize("window", [(10.0, 40.0), (0.0, 50.0), (12.34, 12.36)])
    def test_window_equals_slice_of_full_run(self, window):
        # a folded run sees exactly the metric window's samples of a full run
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

    @pytest.mark.parametrize("window", [(10.0, 40.0), (0.0, 50.0), (12.34, 12.36)])
    @pytest.mark.parametrize("budget", [1, 3 * 21 * 7, 1 << 16])
    def test_fold_sees_the_window_record_in_blocks(self, monkeypatch, window, budget):
        # budget 1 gives one-sample blocks, 3 lanes x 21 values x 7 seven
        monkeypatch.setattr(simulator, "_FOLD_VALUES", budget)
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
        sc = make_scenario(dt=0.7)
        object.__setattr__(sc, "metric_window", (100.0, 500.0))
        engine = PlatoonEngine(sc)
        monkeypatch.setattr(engine, "advance", None)  # any step would fail
        with pytest.raises(DomainError, match="outside trajectory span"):
            engine.run(fold=lambda t, fields: None)

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
        kind=st.sampled_from(["ts-ops", "ts-trc"]),
        integrator=st.sampled_from(["rk4", "euler"]),
    )
    def test_every_lane_equals_its_unbatched_run(self, lanes, kind, integrator):
        sc = make_short_scenario(kind=kind, t_f=20.0, window=(0.0, 20.0),
                                 integrator=integrator)
        masks = np.array([mask for mask, _, _ in lanes])
        betas = np.array([[beta] for _, beta, _ in lanes])
        gammas = np.array([[gamma] for _, _, gamma in lanes])
        batched = PlatoonEngine(sc, beta=betas, gamma=gammas, av_mask=masks)
        whole = batched.run()
        for lane, (mask, beta, gamma) in enumerate(lanes):
            single = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=np.array(mask))
            raw = single.run()
            for name in ("x", "v", "a", "s", "dv", "u"):
                assert np.array_equal(whole[name][:, lane], raw[name]), (lane, name)
            assert batched.lane_floor_hits[lane] == single.floor_hits

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


class TestStageRebuild:
    # `run` records x, v and a, and rebuilds s, dv and u with `stage_blocks`,
    # whose engine takes the sample index as a leading batch axis of length
    # 1 in front of any lanes. With per-lane masks that axis must not be read
    # as a lane axis: every stage's rhs tuple and the state after each step
    # must keep the bytes of the loop, which evaluates one sample at a time.

    @settings(max_examples=15, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=10, max_size=10),
                st.floats(0.0, 0.0642),
                st.floats(0.0, 2.0),
            ),
            min_size=2,
            max_size=4,
        ),
        lead=st.sampled_from([SHORT_LEAD, STOP_LEAD]),
        kind=st.sampled_from(["ts-ops", "ts-trc", "none"]),
        integrator=st.sampled_from(["rk4", "euler"]),
        block=st.integers(1, 70),
    )
    # three lanes with different masks behind the stopping lead, whose
    # clamp counts once came out wrong from a step-batched rebuild
    @example(lanes=[(list(av_mask_for(10, mpr)), 0.05, 1.0) for mpr in (0.0, 0.5, 1.0)],
             lead=STOP_LEAD, kind="ts-ops", integrator="rk4", block=64)
    def test_step_batched_rebuild_equals_the_loop(self, lanes, lead, kind, integrator, block):
        sc = make_short_scenario(kind=kind, lead=lead, t_f=15.0, window=(0.0, 15.0),
                                 integrator=integrator)
        n = sc.n_followers
        masks = np.array([mask for mask, _, _ in lanes])
        beta = np.array([[b] for _, b, _ in lanes])
        gamma = np.array([[g] for _, _, g in lanes])
        engine = PlatoonEngine(sc, beta=beta, gamma=gamma, av_mask=masks)
        raw = engine.run()
        x, v = raw["x"], raw["v"][..., 1:]
        table = sc.lead.stage_speeds(sc.dt, sc.steps)
        stepwise = PlatoonEngine(sc, beta=beta[None], gamma=gamma[None], av_mask=masks[None])

        def check_sample(k, got, ref):
            # rhs tuples of the rebuild (row k of a block) and of the loop
            for part, (a, b) in enumerate(zip(got[:3], ref[:3])):
                assert a[k].tobytes() == b.tobytes(), part
            u_got = stepwise._full_width_u(got[3], got[1])
            assert u_got[k].tobytes() == engine._full_width_u(ref[3], ref[1]).tobytes()

        clamps = 0
        for k0, k1, stages, y_new in stage_blocks(stepwise, table, x, v, block):
            for k in range(k0, k1):
                loop = [engine.rhs(table[0][k], x[k], v[k])]
                y_next = engine.step(np.concatenate([x[k], v[k]], axis=-1), loop[0][0],
                                     [s[k] for s in table[1:]], loop)
                assert len(stages) == len(loop) == (4 if integrator == "rk4" else 1)
                for got, ref in zip(stages, loop):
                    check_sample(k - k0, got, ref)
                assert y_new[k - k0].tobytes() == y_next.tobytes()
                # the record holds the loop's diagnostics and clamped state
                f, s, dv, u = loop[0]
                assert raw["a"][k].tobytes() == f[..., n + 1 :].tobytes()
                for name, ref in (("s", s), ("dv", dv), ("u", engine._full_width_u(u, s))):
                    assert raw[name][k].tobytes() == ref.tobytes(), name
                assert raw["v"][k + 1, ..., 1:].tobytes() == np.maximum(
                    y_next[..., n + 1 :], 0.0).tobytes()
            clamps = clamps + (y_new[..., n + 1 :] < 0).sum(axis=(0, -1))
        assert np.array_equal(clamps, engine.lane_floor_hits)
        # the last sample, which no step starts from
        f, s, dv, u = engine.rhs(table[0][-1], x[-1], v[-1])
        for name, ref in (("a", f[..., n + 1 :]), ("s", s), ("dv", dv),
                          ("u", engine._full_width_u(u, s))):
            assert raw[name][-1].tobytes() == ref.tobytes(), name


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
        f = engine.rhs(19.5, x, v)[0]
        v_prev = np.concatenate([np.full(v.shape[:-1] + (1,), 19.5), v[..., :-1]], axis=-1)
        s = x[..., :-1] - x[..., 1:] - engine.front_lengths
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
        drdv, forcing = _z_terms(
            engine.rhs(19.5, x, v), beta, gamma, kern, sc.av_model, cols
        )
        zdot = drdv[:, None] * z[:, cols].T + forcing

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

    def test_all_av_run_skips_the_idm(self):
        # behind STOP_LEAD the RK4 stage speeds go negative, where scenario
        # 2's delta = 15.5 makes the IDM's (v/v0)**delta NaN; with no HV the
        # IDM is not evaluated, so no warning, and since the AV law wrote
        # over every entry the run keeps its bits
        sc = make_scenario(hv=IDM_2, mpr=1.0, kind="ts-ops", beta=0.05, lead=STOP_LEAD,
                           t_f=25.0, window=(0.0, 25.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = PlatoonEngine(sc).run()
        with_idm = PlatoonEngine(sc)
        with_idm._hv = True
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

    def test_advance_leaves_minus_inf_to_the_finite_check(self):
        # an Euler step with a = -inf gives a speed of -inf: a blow-up for
        # `_check_finite`, not a speed to clamp to 0 and count; a finite
        # negative speed in the other lane is clamped and counted
        engine = PlatoonEngine(one_av_scenario(integrator="euler"), beta=np.full((2, 1), 0.05))
        y = np.array([[0.0, -40.0, -85.0, 18.0, 19.0]] * 2)
        f1 = np.array([[20.0, 18.0, 19.0, -np.inf, -1.0], [20.0, 18.0, 19.0, -1.0, -300.0]])
        new = engine.advance(y, f1, ())
        assert new[0, 3] == -np.inf and new[0, 4] == 19.0 - 0.1
        assert new[1, 3] == 18.0 - 0.1 and new[1, 4] == 0.0
        assert engine.lane_floor_hits.tolist() == [0, 1]
        with pytest.raises(NumericalBlowupError) as err:
            engine._check_finite(new, 0.1)
        assert (err.value.vehicle, err.value.lane) == (1, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.floats(1e-3, 1.0),
        shape=st.sampled_from([None, (3,), (4, 7)]),
        complex_state=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rk4_step_takes_float_or_0d_coefficients(self, dt, shape, complex_state, seed):
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
        assert np.allclose(traj.s[:, 1:], s_check, atol=1e-12)

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
        # dt 0.7 ends the 500 s grid at 499.8 s: the window fails when the
        # scenario is built, before any run
        with pytest.raises(DomainError, match=r"outside trajectory span \(0.0, 499.7"):
            make_scenario(dt=0.7, window=(100.0, 500.0))
        assert make_scenario(dt=0.7, window=(100.0, 499.8)).steps == 714

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
        empty = np.zeros((2, 3))
        s = np.full((2, 3), np.nan)
        s[:, 1:] = x[:, :-1] - x[:, 1:] - 5.0
        traj = Trajectory(
            t=t, x=x, v=v, a=empty, s=s, dv=np.full((2, 3), np.nan), u=empty,
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
