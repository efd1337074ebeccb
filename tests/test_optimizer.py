import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim import avblock, optimizer, simulator
from platoonsim.cli import main
from platoonsim.config import apply_overrides, build_scenario, load_config
from platoonsim.controller import SIGMOID_KERNELS, ControllerParams
from platoonsim.errors import DomainError, NumericalBlowupError
from platoonsim.optimizer import (
    OptimizerConfig,
    _descent_terms,
    _sensitivities,
    _z_terms,
    descent_direction,
    objective_j,
    optimize,
    project_feasible,
    replayed_objective,
    simulate_with_sensitivity,
)
from platoonsim.simulator import (
    PlatoonEngine,
    Trajectory,
    assemble_trajectory,
    av_mask_for,
    simulate,
    start_spacings,
)

from conftest import (
    FLAT_LEAD,
    IDM_1,
    IDM_2,
    OVRV_1,
    PAPER_LEAD,
    SHORT_LEAD,
    STOP_LEAD,
    make_scenario,
    make_short_scenario,
    unclamped_idm,
    unclamped_idm_floats,
)

# control envelopes whose beta ceilings over the short scenarios' 50 s are
# the presets' 0.0642 (theirs over 500 s) and 0.05, so a descent can meet them
S0_0642 = 2.0 + 50.42 / 10
S0_05 = 2.0 + 0.05 * math.pi / 2 * 50.0


def toy_trajectory(t, v_columns):
    """Minimal trajectory carrying only the time grid and speed columns."""
    t = np.asarray(t, dtype=float)
    v = np.column_stack([np.asarray(col, dtype=float) for col in v_columns])
    zeros = np.zeros_like(v)
    nans = np.full_like(v[:, 1:], np.nan)
    return Trajectory(
        t=t, x=zeros, v=v, a=zeros, s=nans, dv=nans, u=zeros[:, 1:],
        kinds=("lead",) + ("av",) * (v.shape[1] - 1),
    )


class TestObjective:
    def test_equilibrium_is_zero(self):
        t = np.linspace(0, 10, 11)
        traj = toy_trajectory(t, [np.full(11, 21.0), np.full(11, 21.0)])
        assert objective_j(traj, (1,)) == 0.0

    def test_constant_gap(self):
        t = np.linspace(0, 10, 21)
        traj = toy_trajectory(t, [np.full(21, 21.0), np.full(21, 22.0)])
        assert objective_j(traj, (1,)) == pytest.approx(5.0, rel=1e-12)

    def test_empty_av_set_rejected(self):
        t = np.linspace(0, 10, 11)
        traj = toy_trajectory(t, [np.full(11, 21.0), np.full(11, 21.0)])
        with pytest.raises(DomainError):
            objective_j(traj, ())

    def test_smaller_at_tuned_gains(self):
        sc_ref = make_short_scenario(beta=0.0, gamma=1.0)
        sc_opt = make_short_scenario(beta=0.0642, gamma=1.0011)
        j_ref = objective_j(simulate(sc_ref), sc_ref.av_indices)
        j_opt = objective_j(simulate(sc_opt), sc_opt.av_indices)
        assert j_opt < j_ref


def stage_zdot(z_av, dv, beta=0.05, gamma=1.0, s=50.0):
    """The post-pass's sensitivity rate (dbeta, dgamma) of the one arctan AV
    of an MPR 0.1 platoon, at spacing `s` and relative speed `dv` behind a
    21 m/s predecessor, with `z_av` in both of its entries."""
    sc = make_short_scenario(mpr=0.1, beta=beta, gamma=gamma)
    engine = PlatoonEngine(sc)
    x, v = engine.initial_arrays()
    av = sc.av_indices[0]
    x[av:] -= s - (x[av - 1] - x[av] - 5.0)
    v[av - 1] = 21.0 - dv
    _, s_all, dv_all, _ = engine.rhs(21.0, x, v)
    drdv, forcing = _z_terms(
        s_all[av - 1], dv_all[av - 1], beta, gamma, SIGMOID_KERNELS["arctan"], OVRV_1
    )
    return drdv * np.asarray(z_av, dtype=float) + np.array([forcing.real, forcing.imag])


class TestSensitivityRhs:
    def test_zero_forcing_at_zero_relative_speed(self):
        assert not stage_zdot(0.0, dv=0.0).any()

    def test_hand_evaluated_partials(self):
        drdb, drdg = stage_zdot(0.0, dv=1.0)
        assert drdb == pytest.approx(math.atan(50.0), rel=1e-12)
        assert drdb == pytest.approx(1.55080, abs=1e-5)
        # d/dgamma of beta*arctan(gamma*s*dv) carries the beta factor
        assert drdg == pytest.approx(0.05 * 50.0 / 2501.0, rel=1e-12)

    def test_linear_term(self):
        # zdot = (dr/dv) z + dr/dtheta: the rates at z = (1, 2) and at z = 0
        # differ by (dr/dv, 2 dr/dv)
        drdv = -OVRV_1.k1 * OVRV_1.tau - OVRV_1.k2 - 0.05 * 50.0 / 2501.0
        zdot = [stage_zdot(z, dv=1.0) for z in (0.0, (1.0, 2.0))]
        assert zdot[1] - zdot[0] == pytest.approx([drdv, 2 * drdv], rel=1e-12)


def av_block(sc, end=None):
    """The AV block of `sc` up to its last AV, as the descent builds it, to
    step `end` (by default the horizon's)."""
    return avblock.av_block(sc, sc.av_indices[-1], end=end)[0]


def block_initial(block):
    """The AV block's initial state: the first row of its head."""
    return block.rows["x"][0], block.rows["v"][0, 1:]


def per_follower_gains(sc, theta):
    """(beta, gamma) rows over the followers: theta on the AVs, 0 on the HVs."""
    gains = np.zeros((2, sc.n_followers))
    gains[:, np.subtract(sc.av_indices, 1)] = np.reshape(theta, (2, 1))
    return gains


def co_integrated_z(sc, gains, mode):
    """Reference sensitivities: one flat state [x | v | z | zs] integrated
    step by step, with z = [z_beta | z_gamma] over every follower, the HV
    rows held at 0 and zs only for "coupled". Returns z per sample, shaped
    (n_samples, 2, n)."""
    n = sc.n_followers
    engine = PlatoonEngine(sc, beta=gains[0], gamma=gains[1])
    mask = av_mask_for(n, sc.mpr)
    kern = SIGMOID_KERNELS[sc.controller.kernel]
    p = sc.av_model
    beta, gamma = gains
    coupled = mode == "coupled"
    X, V = slice(0, n + 1), slice(n + 1, 2 * n + 1)
    Z, ZS = slice(2 * n + 1, 4 * n + 1), slice(4 * n + 1, 6 * n + 1)

    def deriv(v_lead, y):
        f, s, dv = engine.rhs(v_lead, y[X], y[V])[:3]
        w = gamma * s * dv
        kp = kern.deriv(w)
        drdv = -p.k1 * p.tau - (p.k2 + beta * gamma * s * kp)
        zdot = drdv * y[Z].reshape(2, n) + np.stack([kern.fn(w), beta * s * dv * kp])
        if not coupled:
            return np.concatenate([f, np.where(mask, zdot, 0.0).ravel()])
        zdot = zdot + (p.k1 + beta * gamma * dv * kp) * y[ZS].reshape(2, n)
        return np.concatenate([f, np.where(mask, zdot, 0.0).ravel(), -y[Z]])

    dt = sc.dt
    lead_t, lead_mid, _, lead_end = sc.lead.stage_speeds(dt, sc.steps)
    y = np.zeros(6 * n + 1 if coupled else 4 * n + 1)
    y[X], y[V] = engine.initial_arrays()
    out = [y[Z].reshape(2, n).copy()]
    for k in range(sc.steps):
        f1 = deriv(lead_t[k], y)
        if sc.integrator == "euler":
            y = y + dt * f1
        else:
            f2 = deriv(lead_mid[k], y + dt / 2 * f1)
            f3 = deriv(lead_mid[k], y + dt / 2 * f2)
            f4 = deriv(lead_end[k], y + dt * f3)
            y = y + dt / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
        below = y[V] < 0
        y[V] = np.maximum(y[V], 0.0)
        y[Z].reshape(2, n)[:, below] = 0.0
        out.append(y[Z].reshape(2, n).copy())
    return np.array(out)


def assert_near_co_integration(z, sc, reference):
    """z (n_samples, n_av, 2) within 1e-12 of each (AV, gain) series'
    largest modulus in the AV rows of `co_integrated_z`'s `reference`: the
    post-pass applies each step's affine map zeta -> a*zeta + b, which
    rounds otherwise than the co-integrated step (by at most about 3e-15
    of that modulus). Below the smallest normal float, where a gamma of
    5e-324 puts a whole series, rounding is absolute, so the bound is at
    least that float."""
    reference = reference[:, :, np.subtract(sc.av_indices, 1)].transpose(0, 2, 1)
    tolerance = np.maximum(1e-12 * np.abs(reference).max(axis=0), np.finfo(float).tiny)
    assert (np.abs(z - reference) <= tolerance).all()


def complex_gains(theta):
    """(beta, gamma) of a closed-loop run's two lanes: lane g holds the pair
    with gain g stepped by i*h. Each is shaped (lanes, 1)."""
    return (np.reshape(theta, (2, 1)) + 1j * optimizer._H * np.eye(2))[..., None]


class TestSimulateWithSensitivity:
    THETA = (0.045, 1.3)

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("mode", ["exogenous", "closed-loop"])
    def test_trajectory_equals_engine_run(self, mode, integrator):
        # the sensitivities never feed back into the platoon, so the
        # trajectory is the plain run's bit for bit, here one whose
        # per-follower gains hold the shared pair on the AVs and 0 on the HVs
        sc = make_short_scenario(mpr=0.3, integrator=integrator)
        traj, z = simulate_with_sensitivity(sc, self.THETA, mode=mode)
        beta, gamma = per_follower_gains(sc, self.THETA)
        plain = assemble_trajectory(
            sc,
            PlatoonEngine(sc, beta=beta, gamma=gamma).run(),
        )
        for name in ("t", "x", "v", "a", "s", "dv", "u"):
            assert np.array_equal(
                getattr(traj, name), getattr(plain, name), equal_nan=True
            ), name
        assert z.shape == (len(traj.t), 3, 2)
        assert np.isfinite(z).all()
        assert not z[0].any() and z[-1].all()

    @pytest.mark.parametrize("mode", ["exogenous", "closed-loop"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("mpr", [0.1, 0.3, 0.5, 0.6, 1.0])
    def test_z_is_the_descents(self, mpr, integrator, mode):
        # the descent's AV block ends at the last AV; one that ends at the
        # last follower, as `grid`'s does, gives the same z bit for bit, as
        # nothing behind an AV reaches it
        sc = make_short_scenario(mpr=mpr, integrator=integrator)
        _, z = simulate_with_sensitivity(sc, self.THETA, mode)
        block = avblock.av_block(sc, sc.n_followers)[0]
        assert block.first + block.av[-1] < sc.n_followers or mpr == 1.0
        descent = _descent_terms(block, self.THETA, mode)[2]
        assert z.tobytes() == descent.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        integrator=st.sampled_from(["rk4", "euler"]),
        # either preset's platoon behind a lead that stops (speeds clamp at
        # 0, and scenario 2's RK4 stage speeds go negative) or a braking one
        case=st.sampled_from([(IDM_1, STOP_LEAD), (IDM_1, SHORT_LEAD), (IDM_2, SHORT_LEAD),
                              (IDM_2, STOP_LEAD)]),
        # 0.6-0.8 put the AVs at positions, not a slice
        mpr=st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0]),
        theta=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
        # 250 steps: blocks that leave a partial last one, or exceed the run
        block=st.integers(1, 400).filter(lambda b: 250 % b),
    )
    def test_post_pass_equals_co_integration(
        self, kernel, integrator, case, mpr, theta, block
    ):
        hv, lead = case
        sc = make_scenario(
            hv=hv, mpr=mpr, kind="ts-ops", beta=theta[0], gamma=theta[1],
            lead=lead, t_f=25.0, window=(0.0, 25.0), integrator=integrator,
        )
        sc = replace(sc, controller=replace(sc.controller, kernel=kernel))
        with mock.patch.object(simulator, "_block_rows", lambda values: block):
            _, z = simulate_with_sensitivity(sc, theta)
        # each step's map reads that step's stages only, so the block
        # length leaves z's bits alone
        assert z.tobytes() == simulate_with_sensitivity(sc, theta)[1].tobytes()
        reference = co_integrated_z(sc, per_follower_gains(sc, theta), "exogenous")
        assert_near_co_integration(z, sc, reference)

    @pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
    def test_one_av_block_rebuilds_alike_in_128_rows(self, preset):
        # at the presets' MPR 0.1 the block is one AV, whose rebuild rows
        # hold 3 values and come in blocks of more than 128 rows; over the
        # whole horizon, blocks of 128 give z the same bits
        sc = build_scenario(load_config(preset))
        block = avblock.av_block(sc, sc.av_indices[-1])[0]
        assert block.av == (1,) and simulator._block_rows(3) > 128
        z = _descent_terms(block, [0.05, 1.0], "exogenous")[2]
        with mock.patch.object(simulator, "_block_rows", lambda values: 128):
            assert z.tobytes() == _descent_terms(block, [0.05, 1.0], "exogenous")[2].tobytes()
        assert len(z) == sc.steps + 1 and z[-1].all()

    def test_speed_floor_counted_and_clamped_z_zeroed(self, monkeypatch):
        sc = make_scenario(lead=STOP_LEAD, t_f=40.0, window=(0.0, 40.0),
                           kind="ts-ops", beta=0.05, mpr=0.5)
        plain = PlatoonEngine(sc)
        plain.run(record=())
        assert plain.floor_hits > 0
        engines, run = [], PlatoonEngine.run

        def spy_run(engine, *args, **kw):
            engines.append(engine)
            return run(engine, *args, **kw)

        monkeypatch.setattr(PlatoonEngine, "run", spy_run)
        traj, z = simulate_with_sensitivity(sc, [0.05, 1.0])
        # its first run, the trajectory's, counts the plain run's clamps
        assert engines[0].lane_floor_hits == plain.floor_hits
        # d max(v, 0)/dv = 0: a clamped AV speed carries no sensitivity
        clamped_any = False
        for row, i in enumerate(sc.av_indices):
            clamped = traj.v[1:, i] == 0.0
            clamped_any |= clamped.any()
            assert not z[1:][clamped, row].any()
        assert clamped_any

    def test_rejects_unsupported_sensitivity_runs(self, monkeypatch):
        # each is rejected before the platoon is integrated: every engine
        # of `simulate` and `av_block` integrates through `run`
        def run(*args, **kwargs):
            raise AssertionError("a rejected call integrated the platoon")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", run)
        sc = make_short_scenario(mpr=0.3)
        with pytest.raises(DomainError):
            simulate_with_sensitivity(sc, [0.03, 0.5], mode="adjoint")
        with pytest.raises(DomainError):
            simulate_with_sensitivity(make_short_scenario(mpr=0.0), [0.03, 0.5])
        with pytest.raises(DomainError, match="ts-ops"):
            simulate_with_sensitivity(make_short_scenario(kind="ts-trc"), [0.03, 0.5])
        # every AV shares one pair: several rows, or not a pair
        for theta in ([[0.03, 0.5]] * 3, [[0.03, 0.5], [0.05, 1.0]], [0.03], [0.03, 0.5, 1.0]):
            with pytest.raises(DomainError, match=r"one \(beta, gamma\) pair"):
                simulate_with_sensitivity(sc, theta)

    @pytest.mark.parametrize("mode", ["exogenous", "closed-loop"])
    def test_hv_rows_stay_zero(self, mode):
        # the block's engines spread the shared pair over every follower,
        # the HVs too; those gains must not reach the sensitivities
        sc = make_short_scenario(mpr=0.3, beta=0.05, gamma=1.0)
        # the AV block is followers 2-8, with HVs at 3, 4, 6 and 7
        block = av_block(sc)
        assert (block.first, block.av) == (1, (1, 4, 7))
        z = _descent_terms(block, (0.05, 1.0), mode)[2]
        assert z[-1].all()
        if mode == "closed-loop":
            # complex lanes with 0 on the HVs; the HVs behind an AV still
            # respond to the gains through the loop, so only their gains are 0
            gains = np.zeros((2, 2, block.av_mask.size), dtype=complex)
            gains[..., np.subtract(block.av, 1)] = complex_gains((0.05, 1.0))
            v_c = PlatoonEngine(
                block.scenario, beta=gains[0], gamma=gains[1], av_mask=block.av_mask
            ).run(record=("v",), lead=block.lead, initial=block_initial(block))["v"]
            reference = v_c[..., list(block.av)].imag.swapaxes(1, 2) / optimizer._H
            assert z.tobytes() == reference.tobytes()
            return
        # the co-integrated reference's HV rows, whose gains are 0, stay 0
        engine = PlatoonEngine(block.scenario, av_mask=block.av_mask)
        raw = engine.run(record=("x", "v"), lead=block.lead, initial=block_initial(block))
        assert z.tobytes() == _sensitivities(block, engine, raw).tobytes()
        reference = co_integrated_z(sc, per_follower_gains(sc, (0.05, 1.0)), "exogenous")
        av = np.subtract(sc.av_indices, 1)
        assert not np.delete(reference, av, axis=2).any()
        assert_near_co_integration(z, sc, reference)

    def test_blowup_names_the_follower_whose_z_failed(self, monkeypatch):
        # a NaN in the kernel derivative of the third and fifth AVs
        # (followers 5 and 9 at MPR 0.5) at step 110 leaves every speed
        # finite and only their z rows non-finite from t = 11.1 s on; the
        # derivative is evaluated at the AV entries only, once over the four
        # RK4 stages of each 100-step block from the end of the gain-free
        # head, step 100
        sc = make_short_scenario(mpr=0.5, envelope_s0=S0_0642)
        assert sc.av_indices == (1, 3, 5, 7, 9)
        assert av_block(sc).head == 100
        kernel = SIGMOID_KERNELS["arctan"]
        calls = []

        def deriv(w):
            calls.append(w.shape)
            out = kernel.deriv(w)
            if len(calls) == 1:  # the first block, steps 100-199
                out[0, [2, 4], 10] = np.nan  # stage 1's AV rows, one column per step
            return out

        monkeypatch.setitem(SIGMOID_KERNELS, "arctan", replace(kernel, deriv=deriv))
        monkeypatch.setattr(simulator, "_block_rows", lambda values: 100)
        with pytest.raises(NumericalBlowupError) as err:
            simulate_with_sensitivity(sc, [0.03, 0.5])
        assert calls[0] == (4, 5, 100)
        assert err.value.vehicle == 5
        assert err.value.time == pytest.approx(11.1, abs=1e-12)
        assert err.value.lane is None

        # inside the descent it stops the run with reason "blow-up"
        calls.clear()
        cfg = OptimizerConfig(theta0=ControllerParams(0.03, 0.5))
        theta, trace = optimize(sc, cfg)
        assert theta is None
        assert str(trace.failure) == str(err.value)
        assert trace.reason == "blow-up"
        assert len(trace) == 0


def seeded_block(sc, gains, last, end):
    """The AV block's head, rows, leader table and prefix clamps from one
    run of the platoon's followers 1..`last` with `gains` to step `end`
    and one stage pass over its whole record."""
    first = sc.av_indices[0] - 1
    mask = av_mask_for(sc.n_followers, sc.mpr)[:last]
    raw = PlatoonEngine(sc, *gains, av_mask=mask).run(record=("x", "v"), end=end)
    x, v = (raw[name].reshape(end + 1, -1) for name in ("x", "v"))
    lead = sc.lead.stage_speeds(sc.dt, end)
    moved, clamps, later = [], 0, ([], [], [])
    for _, _, stages, floored in PlatoonEngine(sc, av_mask=mask).stage_blocks(
            lead, {"x": x, "v": v}):
        moved.append(floored[first:].any(axis=0))
        for _, _, dv, _ in stages:
            moved[-1] |= (dv[np.subtract(sc.av_indices, 1)] != 0).any(axis=0)
        clamps += int(floored[:first].sum())
        for out, (f, *_) in zip(later, stages[1:]):
            out.append(f[first])
    moved = np.concatenate(moved)
    head = int(np.argmax(moved)) if moved.any() else end
    if first:
        lead = (v[:, first], *(np.concatenate(out) for out in later if out))
    rows = {"t": raw["t"][: head + 1], "x": x[: head + 1, first:], "v": v[: head + 1, first:]}
    return head, rows, lead, clamps


class TestAvBlock:
    @settings(max_examples=40, deadline=None)
    @given(
        hv=st.sampled_from([IDM_1, IDM_2]),
        # 0.1 and 0.2 leave an all-HV prefix (followers 1-4, and 1-2), the
        # others none; 0.2 and 0.7 put HVs inside the block
        mpr=st.sampled_from([0.1, 0.2, 0.5, 0.7, 1.0]),
        integrator=st.sampled_from(["rk4", "euler"]),
        # a flat lead leaves every AV's dv at 0 (a head of the whole run);
        # the stopping one floors speeds
        lead=st.sampled_from([SHORT_LEAD, FLAT_LEAD, STOP_LEAD]),
        theta=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
        lanes=st.booleans(),
        to_last_av=st.booleans(),
        end=st.none() | st.integers(1, 300),
        # a follower that starts off its equilibrium spacing ends the head
        # at once, by its dv if it is or leads an AV, and, close enough, by
        # its clamped speed
        perturbed=st.none() | st.tuples(st.integers(0, 9), st.sampled_from([0.01, 0.5, 2.0])),
        # runs and stage passes of a few steps, of the head search's 128,
        # or of the whole run
        block=st.sampled_from([1, 7, 128, 1000]),
    )
    @example(hv=IDM_1, mpr=0.1, integrator="rk4", lead=FLAT_LEAD, theta=(0.05, 1.0),
             lanes=False, to_last_av=True, end=None, perturbed=None, block=128)
    @example(hv=IDM_2, mpr=0.5, integrator="euler", lead=STOP_LEAD, theta=(0.0642, 2.0),
             lanes=True, to_last_av=False, end=150, perturbed=None, block=7)
    @example(hv=IDM_1, mpr=0.1, integrator="rk4", lead=SHORT_LEAD, theta=(0.03, 0.5),
             lanes=False, to_last_av=True, end=None, perturbed=(3, 0.5), block=128)
    # behind a flat lead, follower 7 (behind the AV at 5) clamps at step 0
    @example(hv=IDM_1, mpr=0.1, integrator="rk4", lead=FLAT_LEAD, theta=(0.03, 1.0),
             lanes=True, to_last_av=False, end=None, perturbed=(6, 0.01), block=7)
    def test_block_equals_the_one_a_whole_platoon_run_seeds(
        self, hv, mpr, integrator, lead, theta, lanes, to_last_av, end, perturbed, block
    ):
        # `av_block` integrates the prefix and the block's head only, with
        # no gains; its head, rows, leader table and clamps are those of one
        # run of the followers up to `last` at any drawn gains and one stage
        # pass over its record, bit for bit, and it fails only as its
        # prefix's own run does
        spacing = None
        if perturbed is not None:
            follower, scale = perturbed
            spacing = start_spacings(make_short_scenario(mpr=mpr, hv=hv), av_mask_for(10, mpr))
            spacing = spacing.copy()
            spacing[follower] *= scale
            spacing = tuple(spacing.tolist())
        sc = make_scenario(hv=hv, mpr=mpr, kind="ts-ops", beta=0.05, integrator=integrator,
                           lead=lead, t_f=30.0, window=(0.0, 30.0), init_spacing=spacing)
        last = sc.av_indices[-1] if to_last_av else sc.n_followers
        gains = np.reshape(theta, (2, 1, 1) if lanes else (2, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                mock.patch.object(simulator, "_block_rows", lambda values: block), \
                mock.patch.object(avblock, "_STAGE_BLOCK", block):
            try:
                reference = seeded_block(sc, gains, last, end or sc.steps)
            except NumericalBlowupError as err:
                reference = err
            try:
                got = avblock.av_block(sc, last, end=end)
            except NumericalBlowupError as err:
                # the prefix's own error, which the platoon's run meets no later
                mask = av_mask_for(sc.n_followers, sc.mpr)[: sc.av_indices[0] - 1]
                with pytest.raises(NumericalBlowupError) as prefix:
                    PlatoonEngine(sc, av_mask=mask).run((), end=end)
                assert (err.vehicle, err.time) == (prefix.value.vehicle, prefix.value.time)
                assert isinstance(reference, NumericalBlowupError)
                assert reference.time <= err.time
                return
        block, raw, hits = got
        if isinstance(reference, NumericalBlowupError):
            # the platoon's run failed behind the prefix, past the head's end
            assert reference.vehicle > block.first and reference.time > block.head * sc.dt
            return
        head, rows, lead_table, clamps = reference
        assert block.head == head
        if perturbed == (6, 0.01) and lead is FLAT_LEAD and mpr == 0.1 and not to_last_av:
            engine = block.engine(*gains)
            block.run(engine, 0, ("v",))
            assert head == 0 and engine.lane_floor_hits.all()
        assert block.first == sc.av_indices[0] - 1 and (raw is None) == (block.first == 0)
        for name in ("t", "x", "v"):
            assert block.rows[name].tobytes() == np.ascontiguousarray(rows[name]).tobytes()
        assert len(block.lead) == len(lead_table)
        for ours, theirs in zip(block.lead, lead_table):
            assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()
        assert int(np.sum(hits)) == clamps

    def test_builds_no_scenario(self, monkeypatch):
        # every engine of `av_block` runs the platoon's own scenario: mask
        # slices choose its followers and `end` each run's last step. Both
        # callers' calls, behind a prefix (followers 1-4) and spacings off
        # the equilibrium: `tune`'s to the last AV and the horizon, and
        # `grid`'s of every follower to the window's end (step 400 of 500)
        sc = make_short_scenario(mpr=0.1, init_spacing=tuple(30.0 + i for i in range(10)))
        built = []
        post_init = simulator.Scenario.__post_init__
        monkeypatch.setattr(simulator.Scenario, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        tune = (sc.av_indices[-1],)
        grid = sc.n_followers, ("x", "v", "a"), 400
        for args, end in ((tune, sc.steps), (grid, 400)):
            block, raw, _ = avblock.av_block(sc, *args)
            assert block.scenario is sc and block.first == 4
            assert len(raw["t"]) == len(block.lead[0]) == end + 1
        assert built == []

    @pytest.mark.parametrize("mpr", [0.1, 0.5])
    def test_a_block_built_to_an_end_runs_to_it(self, mpr):
        # behind a prefix (followers 1-4 at MPR 0.1) and without one (MPR
        # 0.5), a block built to step 300 of 500 runs to step 300 by default:
        # its leader table ends there
        sc = make_short_scenario(mpr=mpr)
        block = av_block(sc, end=300)
        gains = np.reshape((sc.controller.beta, sc.controller.gamma), (2, 1))
        raw = block.run(block.engine(*gains), block.head, ("x", "v"))
        whole = PlatoonEngine(sc).run(record=("x", "v"), end=300)
        cols = slice(block.first, sc.av_indices[-1] + 1)
        for name in ("x", "v"):
            assert len(raw[name]) == 301
            assert raw[name].tobytes() == np.ascontiguousarray(whole[name][:, cols]).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        mpr=st.floats(0.1, 1.0),
        hv=st.sampled_from([IDM_1, IDM_2]),
        integrator=st.sampled_from(["rk4", "euler"]),
        mode=st.sampled_from(["exogenous", "closed-loop"]),
        theta=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
        spacing=st.none() | st.lists(st.floats(30.0, 70.0), min_size=10, max_size=10),
    )
    # the first AV is follower 1, so the prefix is empty
    @example(mpr=0.5, hv=IDM_2, integrator="rk4", mode="exogenous", theta=(0.03, 0.5),
             spacing=None)
    @example(mpr=1.0, hv=IDM_1, integrator="euler", mode="closed-loop", theta=(0.0642, 1.0),
             spacing=None)
    # the paper's single AV at follower 5, behind set spacings
    @example(mpr=0.1, hv=IDM_2, integrator="rk4", mode="exogenous", theta=(0.05, 1.0),
             spacing=[40.0, 55.0, 35.0, 60.0, 45.0, 50.0, 38.0, 65.0, 42.0, 58.0])
    def test_descent_terms_equal_the_whole_platoon(
        self, mpr, hv, integrator, mode, theta, spacing
    ):
        # J and lambda from a run of the AV block alone, behind the prefix's
        # rebuilt stage speeds, against the whole platoon's run
        init = None if spacing is None else tuple(spacing)
        sc = make_short_scenario(mpr=mpr, hv=hv, integrator=integrator, init_spacing=init)
        traj, z = simulate_with_sensitivity(sc, theta, mode=mode)
        av_indices = sc.av_indices
        j_ref = optimizer._objective(traj.t, traj.v, av_indices)
        if mode == "closed-loop":
            # Im J / h of the whole platoon's complex lanes; its prefix rounds
            # complex arithmetic where the block's leader table holds the
            # real run's, so the two agree to rounding, not bit for bit
            gains = complex_gains(theta)
            v_c = PlatoonEngine(sc, beta=gains[0], gamma=gains[1]).run(record=("v",))["v"]
            lam_ref = optimizer._objective(traj.t, v_c, av_indices).imag / optimizer._H
        else:
            lam_ref = np.stack(
                [optimizer._direction(traj.t, traj.v, z[:, row], i)
                 for row, i in enumerate(av_indices)]
            ).sum(axis=0)
        block = av_block(sc)
        assert block.first == av_indices[0] - 1
        j_val, lam = _descent_terms(block, np.array(theta), mode)[:2]
        assert j_val == j_ref
        if mode == "closed-loop":
            assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0)
        else:
            assert lam.tobytes() == lam_ref.tobytes()
        # the block's record is the platoon's columns from the block's leader
        raw = block.run(block.engine(*np.reshape(theta, (2, 1))), block.head, ("x", "v"))
        cols = slice(block.first, av_indices[-1] + 1)
        for name in ("x", "v"):
            whole = np.ascontiguousarray(getattr(traj, name)[:, cols])
            assert raw[name].tobytes() == whole.tobytes(), name

    @pytest.mark.parametrize("where", ["run", "z"])
    def test_errors_name_the_platoon_vehicle(self, monkeypatch, where):
        # the one AV of MPR 0.1 is follower 5, follower 1 of its block; a
        # NaN in its acceleration during the block's run, or in its z in the
        # post-pass's second block of steps, is reported as vehicle 5
        sc = make_short_scenario(mpr=0.1)
        block = av_block(sc)
        assert (block.first, block.av) == (4, (1,))
        kernel = SIGMOID_KERNELS["arctan"]
        fn = simulator.ovrv_accel_arrays if where == "run" else kernel.deriv
        # the calls left clean: the run's first step's four stages, or the
        # post-pass's first block of 128 steps, whose four stages are one call
        clean = 4 if where == "run" else 1
        monkeypatch.setattr(simulator, "_block_rows", lambda values: 128)
        calls = []

        def poisoned(*args):
            calls.append(None)
            return fn(*args) * (np.nan if len(calls) > clean else 1.0)

        if where == "run":
            monkeypatch.setattr(simulator, "ovrv_accel_arrays", poisoned)
        else:
            monkeypatch.setitem(SIGMOID_KERNELS, "arctan", replace(kernel, deriv=poisoned))
        with pytest.raises(NumericalBlowupError) as err:
            _descent_terms(block, np.array([0.03, 0.5]), "exogenous")
        assert err.value.vehicle == 5


def block_run(block, theta, start=0):
    """A run of the AV block recording every field, from step 0 or resumed
    from its row at step `start`: ("ran", record, clamps per lane) or
    ("failed", vehicle, time, lane)."""
    beta, gamma = np.reshape(theta, (2, 1))
    engine = PlatoonEngine(block.scenario, beta=beta, gamma=gamma, av_mask=block.av_mask)
    initial = block.rows["x"][start], block.rows["v"][start, 1:]
    try:
        with np.errstate(invalid="ignore"):
            raw = engine.run(record=RECORD, lead=block.lead, initial=initial, start=start)
    except NumericalBlowupError as err:
        return "failed", err.vehicle, err.time, err.lane
    return "ran", raw, engine.lane_floor_hits


def descent_outcome(block, theta, mode):
    """J and lambda of `_descent_terms` as bytes, or the failure."""
    try:
        with np.errstate(invalid="ignore"):
            j_val, lam = _descent_terms(block, np.array(theta), mode)[:2]
    except NumericalBlowupError as err:
        return "failed", err.vehicle, err.time, err.lane
    return "ran", j_val.tobytes(), lam.tobytes()


RECORD = ("x", "v", "a", "s", "dv", "u")


class TestHead:
    """The gain-free head: the steps before any AV's dv is nonzero at any
    stage and before any speed of the block is floored, which the descent
    integrates once per call."""

    SCENARIOS = {
        "short": dict(lead=SHORT_LEAD, t_f=50.0, window=(10.0, 40.0)),
        # the paper's dip from 100 s on, which every head ends before
        "paper": dict(lead=PAPER_LEAD, t_f=130.0, window=(100.0, 130.0)),
        # speeds clamp at 0; scenario 2's IDM blows up at MPR 0.5 with RK4
        "stop": dict(lead=STOP_LEAD, t_f=25.0, window=(0.0, 25.0)),
    }

    @settings(max_examples=20, deadline=None)
    @given(
        hv=st.sampled_from([IDM_1, IDM_2]),
        mpr=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        integrator=st.sampled_from(["rk4", "euler"]),
        kernel=st.sampled_from(sorted(SIGMOID_KERNELS)),
        lead=st.sampled_from(sorted(SCENARIOS)),
        mode=st.sampled_from(["exogenous", "closed-loop"]),
        thetas=st.lists(st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
                        min_size=2, max_size=2),
    )
    @example(hv=IDM_2, mpr=0.5, integrator="rk4", kernel="arctan", lead="stop",
             mode="closed-loop", thetas=[(0.03, 1.0), (0.0642, 1.7)])
    @example(hv=IDM_1, mpr=0.5, integrator="euler", kernel="tanh", lead="stop",
             mode="exogenous", thetas=[(0.05, 1.0), (0.0, 0.0)])
    @example(hv=IDM_2, mpr=0.1, integrator="rk4", kernel="erf", lead="paper",
             mode="exogenous", thetas=[(0.05, 1.0), (0.0642, 1.7)])
    def test_gains_cannot_change_the_head(
        self, hv, mpr, integrator, kernel, lead, mode, thetas
    ):
        sc = make_scenario(hv=hv, mpr=mpr, kind="ts-ops", beta=0.05, integrator=integrator,
                           **self.SCENARIOS[lead])
        sc = replace(sc, controller=replace(sc.controller, kernel=kernel))
        with np.errstate(invalid="ignore"):  # a failed run ends the head
            block = av_block(sc)
        k = block.head

        # a resumed run equals the full run: every field from the head's end
        # on, the head's rows before it, the clamp counts, or the failure
        full = []
        for theta in thetas:
            whole, resumed = block_run(block, theta), block_run(block, theta, k)
            assert whole[0] == resumed[0]
            if whole[0] == "failed":
                assert whole == resumed
                assert whole[2] > k * sc.dt
                continue
            for name in RECORD:
                assert resumed[1][name].tobytes() == whole[1][name][k:].tobytes(), name
            for name in ("t", "x", "v"):
                assert block.rows[name].tobytes() == whole[1][name][: k + 1].tobytes()
            assert resumed[2].tobytes() == whole[2].tobytes()
            full.append(whole[1])
        # two gain pairs agree through the head: the states up to its end,
        # and the stage-1 values of the steps before it
        if len(full) == 2:
            for name in RECORD:
                rows = k + 1 if name in ("x", "v", "s", "dv") else k
                assert full[0][name][:rows].tobytes() == full[1][name][:rows].tobytes(), name

        # J and lambda of the descent, resumed from the head (the real and
        # the complex lanes alike), against runs from step 0 with a head of
        # no steps
        zero = replace(block, head=0, rows={name: arr[:1] for name, arr in block.rows.items()})
        for theta in thetas:
            assert descent_outcome(block, theta, mode) == descent_outcome(zero, theta, mode)

    @pytest.mark.parametrize("hv", [IDM_1, IDM_2], ids=["idm1", "idm2"])
    def test_complex_lanes_resume_at_the_head(self, monkeypatch, hv):
        # a closed-loop descent runs its complex lanes from the one real
        # head's end, with the head's row, and builds no complex
        # engine other than those lanes' (no step-batched rebuild of them)
        sc = make_short_scenario(mpr=0.5, hv=hv, envelope_s0=S0_0642)
        blocks, built, runs = [], [], []
        build_block = optimizer.av_block
        init, run = PlatoonEngine.__init__, PlatoonEngine.run

        def spy_block(*args):
            blocks.append(build_block(*args))
            return blocks[-1]

        def spy_init(engine, *args, **kw):
            init(engine, *args, **kw)
            built.append(engine)

        def spy_run(engine, *args, **kw):
            runs.append((engine, kw))
            return run(engine, *args, **kw)

        monkeypatch.setattr(optimizer, "av_block", spy_block)
        monkeypatch.setattr(PlatoonEngine, "__init__", spy_init)
        monkeypatch.setattr(PlatoonEngine, "run", spy_run)
        cfg = OptimizerConfig(n_max=4, sensitivity="closed-loop")
        _, trace = optimize(sc, cfg)
        [(block, _, _)] = blocks
        k = block.head
        assert k > 0
        complex_runs = [(e, kw) for e, kw in runs if e.dtype.kind == "c"]
        assert len(complex_runs) == len(trace) > 1
        for engine, kw in complex_runs:
            assert kw["start"] == k
            x, v = kw["initial"]
            assert x.tobytes() == block.rows["x"][k].tobytes()
            assert v.tobytes() == block.rows["v"][k, 1:].tobytes()
        assert [e for e in built if e.dtype.kind == "c"] == [e for e, _ in complex_runs]

    # behind a flat lead the AV (follower 5) never sees a dv, but followers
    # behind it that start off equilibrium clamp: follower 7 starting 0.5 m
    # behind follower 6 at step 0; under Euler, with follower 7 starting 2 m
    # and follower 8 3 m behind their predecessors, at step 1
    @pytest.mark.parametrize("integrator, gaps, step", [
        ("rk4", {7: 0.5}, 0), ("euler", {7: 0.5}, 0), ("euler", {7: 2.0, 8: 3.0}, 1),
    ], ids=["rk4", "euler", "euler-step-1"])
    def test_head_ends_at_the_first_floored_step(self, integrator, gaps, step):
        sc = make_scenario(lead=FLAT_LEAD, t_f=40.0, window=(0.0, 40.0), kind="ts-ops",
                           mpr=0.1, integrator=integrator)
        assert sc.av_indices == (5,)
        spacing = start_spacings(sc, av_mask_for(10, 0.1)).copy()
        for follower, gap in gaps.items():
            spacing[follower - 1] = gap
        sc = replace(sc, init_spacing=tuple(spacing))
        block, _, hits = avblock.av_block(sc, sc.n_followers)
        # a floored speed is 0 after its step, here in the platoon's run
        raw = PlatoonEngine(sc, beta=0.03).run(record=("v",))
        floored = (raw["v"][1:, block.first + 1 :] == 0).any(axis=1)
        assert block.head == step == np.argmax(floored)
        # each lane's clamps, resumed at the head's end, are those of its
        # run from step 0, all behind the prefix, which clamps none
        betas = np.array([[0.0], [0.03], [0.0642]])
        lanes = block.engine(betas, np.ones((3, 1)))
        block.run(lanes, block.head, ("v",))
        resumed = lanes.lane_floor_hits
        engine = PlatoonEngine(sc, beta=betas)
        engine.run(record=("v",))
        assert hits == 0 and resumed.all() and (engine.lane_floor_hits == resumed).all()

    def test_a_clamp_at_step_0_leaves_no_head(self, tmp_path, capsys):
        # scenario 1 under Euler at MPR 0.5, whose first AV is follower 1,
        # with follower 4 starting 0.5 m behind follower 3: it clamps at
        # step 0, so the head is empty and each run of the block counts
        # every clamp of its run from step 0, which `tune` prints per iteration
        sets = ["scenario.t_f=40", "scenario.metric_window=0 40", "scenario.mpr=0.5",
                "scenario.integrator=euler"]
        cp = load_config("scenario1")
        apply_overrides(cp, sets)
        spacing = start_spacings(build_scenario(cp), av_mask_for(10, 0.5)).tolist()
        spacing[3] = 0.5
        sets.append("scenario.init_spacing=" + " ".join(map(repr, spacing)))
        apply_overrides(cp, sets[-1:])
        sc = build_scenario(cp)
        # the descent's block: no prefix lane, so no clamps come with it
        block, raw, hits = avblock.av_block(sc, sc.av_indices[-1])
        assert (block.first, block.head, raw, hits) == (0, 0, None, 0)
        engine = block.engine(0.05, 1.0)
        block.run(engine, block.head, ("x", "v"))
        assert engine.lane_floor_hits == 86
        assert main(["tune", "--scenario", "scenario1", "--out", str(tmp_path),
                     *(arg for item in sets for arg in ("--set", item)),
                     "--set", "optimizer.n_max=3"]) == 0
        assert capsys.readouterr().err == (
            "iter=1: speed floor engaged 86 times\n"
            "iter=2: speed floor engaged 83 times\n"
            "iter=3: speed floor engaged 79 times\n")

    @pytest.mark.parametrize("mpr", [0.1, 0.5, 1.0])
    def test_head_is_empty_when_an_av_sees_dv_at_step_0(self, mpr):
        # spacings off equilibrium: every follower accelerates at once, so
        # an AV's dv is nonzero from the first stages on and the descent runs
        # every step, as without a head
        sc = make_short_scenario(mpr=mpr, init_spacing=(40.0, 55.0) * 5)
        block = av_block(sc)
        assert block.head == 0
        assert block.rows["x"].shape[0] == 1
        # with the paper's equilibrium start the head is not empty
        assert av_block(make_short_scenario(mpr=mpr)).head > 0


class TestClosedLoop:
    """The closed-loop gradient against the simulated objective itself."""

    THETA = (0.03, 1.0)
    # the central FD steps of the printed study, one row per gain. Down to
    # the middle column the FD's truncation error falls as h^2, and below
    # it rounding lifts the error again; there the worst error over MPR
    # 0.1, 0.5 and 1.0 with RK4 and Euler was 1.1e-9 (beta) and 1.9e-8
    # (gamma) relative, which FD_RTOL bounds with a margin of 5
    FD_STEPS = ((1e-4, 1e-5, 1e-6, 1e-7, 1e-8), (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    FD_RTOL = 1e-7

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("mpr", [0.1, 0.5, 1.0])
    def test_direction_matches_central_differences(self, mpr, integrator, capsys):
        sc = make_short_scenario(mpr=mpr, integrator=integrator)
        block = av_block(sc)
        theta = np.array(self.THETA)
        lam = _descent_terms(block, theta, "closed-loop")[1]
        # every FD point theta +- h e_g is a lane of one run of the platoon
        h = np.array(self.FD_STEPS)
        step = h[..., None] * np.eye(2)[:, None]
        points = np.concatenate([theta + step, theta - step]).reshape(-1, 2)
        raw = PlatoonEngine(sc, beta=points[:, :1], gamma=points[:, 1:]).run(record=("v",))
        j_up, j_down = optimizer._objective(raw["t"], raw["v"], sc.av_indices).reshape(2, 2, -1)
        fd = (j_up - j_down) / (2 * h)
        error = (lam[:, None] - fd) / np.abs(fd)
        # a measurement, not a bound: how far the exogenous direction is off
        bias = (_descent_terms(block, theta, "exogenous")[1] - fd[:, 2]) / np.abs(fd[:, 2])
        with capsys.disabled():
            print(f"\nMPR {mpr} {integrator}: closed-loop vs FD at steps {h.tolist()}:\n"
                  f"  {np.array2string(error, precision=1)}\n  exogenous bias {bias}")
        assert (np.abs(error[:, 2]) <= self.FD_RTOL).all()

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("lead", [SHORT_LEAD, STOP_LEAD], ids=["brake", "stop"])
    def test_one_av_equals_the_coupled_reference(self, lead, integrator):
        # with one AV behind HVs, only its own spacing and speed respond to
        # the gains: the [z, zs] system the reference co-integrates
        sc = make_scenario(mpr=0.1, kind="ts-ops", beta=0.03, lead=lead, t_f=30.0,
                           window=(0.0, 30.0), integrator=integrator)
        traj, z = simulate_with_sensitivity(sc, self.THETA, mode="closed-loop")
        av = sc.av_indices[0]
        reference = co_integrated_z(sc, per_follower_gains(sc, self.THETA), "coupled")
        reference = reference[:, :, [av - 1]].transpose(0, 2, 1)
        scale = np.abs(reference).max(axis=(0, 1))
        assert (np.abs(z - reference) <= 8 * np.finfo(float).eps * scale).all()
        # behind the stopping lead the AV's speed clamps, and its z with it
        clamped = traj.v[1:, av] == 0.0
        assert clamped.any() == (lead is STOP_LEAD)
        assert not z[1:][clamped].any()

    @settings(max_examples=10, deadline=None)
    @given(
        mpr=st.floats(0.1, 1.0),
        integrator=st.sampled_from(["rk4", "euler"]),
        theta=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 2.0)),
    )
    def test_objective_keeps_its_bits(self, mpr, integrator, theta):
        # J comes from the real run in both modes
        block = av_block(make_short_scenario(mpr=mpr, integrator=integrator))
        j_exo, j_closed = (
            _descent_terms(block, np.array(theta), mode)[0]
            for mode in ("exogenous", "closed-loop")
        )
        assert j_closed.tobytes() == j_exo.tobytes()

    def test_blowup_is_the_real_runs_in_both_modes(self, monkeypatch):
        # scenario 2 behind the stopping lead: RK4 stage speeds go negative,
        # where the unclamped law's (v/v0)**delta is NaN in real arithmetic
        monkeypatch.setattr(simulator, "idm_accel_arrays", unclamped_idm)
        monkeypatch.setattr(simulator, "idm_accel_floats", unclamped_idm_floats)
        sc = make_scenario(hv=IDM_2, mpr=0.5, kind="ts-ops", beta=0.03, lead=STOP_LEAD,
                           t_f=25.0, window=(0.0, 25.0))
        # every run of this platoon blows up, which ends the gain-free head
        # first; the first AV is follower 1, so the block's leader is the
        # lead profile itself
        block = av_block(sc)
        assert block.first == 0 and block.head < 150
        errors = []
        with np.errstate(invalid="ignore"):
            for mode in ("exogenous", "closed-loop"):
                with pytest.raises(NumericalBlowupError) as err:
                    _descent_terms(block, np.array(self.THETA), mode)
                errors.append((err.value.vehicle, err.value.time, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (2, pytest.approx(19.4, abs=1e-9))
        # a complex power of a negative speed is finite, so the complex
        # lanes alone would run to the end: the real run must stay
        gains = complex_gains(self.THETA)
        v_c = PlatoonEngine(
            block.scenario, beta=gains[0], gamma=gains[1], av_mask=block.av_mask
        ).run(record=("v",), lead=block.lead, initial=block_initial(block))["v"]
        assert np.isfinite(v_c).all()


class TestDescentDirection:
    def test_equilibrium_gives_zero(self):
        t = np.linspace(0, 10, 11)
        traj = toy_trajectory(t, [np.full(11, 21.0), np.full(11, 21.0)])
        lam = descent_direction(traj, np.ones((11, 2)), 1)
        assert lam == pytest.approx([0.0, 0.0])

    def test_constant_integrand(self):
        t = np.linspace(0, 10, 41)
        traj = toy_trajectory(t, [np.full(41, 21.0), np.full(41, 22.0)])
        lam = descent_direction(traj, np.ones((41, 2)), 1)
        assert lam == pytest.approx([10.0, 10.0], rel=1e-12)

    def test_grid_mismatch_rejected(self):
        t = np.linspace(0, 10, 11)
        traj = toy_trajectory(t, [np.full(11, 21.0), np.full(11, 22.0)])
        with pytest.raises(DomainError):
            descent_direction(traj, np.ones((7, 2)), 1)

    # the leader, whose gap would wrap onto the last vehicle, and one past
    # the last vehicle, as `objective_j` rejects them
    @pytest.mark.parametrize("av_index", [0, 3, -1])
    def test_av_index_out_of_range_rejected(self, av_index):
        t = np.linspace(0, 10, 11)
        traj = toy_trajectory(t, [np.full(11, 21.0), np.full(11, 22.0), np.full(11, 23.0)])
        with pytest.raises(DomainError, match="out of range"):
            descent_direction(traj, np.ones((11, 2)), av_index)


class TestProjectFeasible:
    def test_clamps_beta(self):
        out = project_feasible(ControllerParams(0.1, 1.0), beta_max=0.0642)
        assert (out.beta, out.gamma) == (0.0642, 1.0)

    def test_clamps_negative_raw_update(self):
        out = project_feasible((-0.01, -0.5), beta_max=0.0642)
        assert (out.beta, out.gamma) == (0.0, 0.0)

    def test_interior_point_unchanged(self):
        p = ControllerParams(0.05, 2.0)
        assert project_feasible(p, beta_max=0.0642) == p

    # the box's ceiling is `Scenario.beta_bound()`'s, which refuses one that
    # is not above 0: NaN passes a `<= 0` test, and min(5.0, nan) is 5.0, so
    # nothing would be clamped
    @pytest.mark.parametrize("beta_max", [math.nan, 0.0, -1.0])
    def test_rejects_a_bound_that_is_not_positive(self, beta_max, monkeypatch):
        monkeypatch.setattr(simulator, "beta_upper_bound", lambda *args: beta_max)
        with pytest.raises(DomainError, match="leaves no margin over min_safe_spacing"):
            make_short_scenario(mpr=0.1).beta_bound()


def short_scenario_with(kernel):
    sc = make_short_scenario(beta=0.03, gamma=0.5)
    return replace(sc, controller=replace(sc.controller, kernel=kernel))


class TestGradientOracle:
    # the replay integrates the scenario's kernel: under arctan on a tanh or
    # erf scenario its J is 13% off and its gradient 27-80%
    @pytest.mark.parametrize("kernel", sorted(SIGMOID_KERNELS))
    def test_matches_replayed_finite_differences(self, kernel):
        # central finite differences of the frozen-signal objective are the
        # independent reference for the sensitivity-based direction
        sc = short_scenario_with(kernel)
        theta = np.array([[0.03, 0.5]])
        traj, z_series = simulate_with_sensitivity(sc, theta)
        av = sc.av_indices[0]
        lam = descent_direction(traj, z_series[:, 0, :], av)

        h = (1e-6, 1e-4)
        fd = np.empty(2)
        for j in range(2):
            up = theta[0].copy()
            dn = theta[0].copy()
            up[j] += h[j]
            dn[j] -= h[j]
            j_up = replayed_objective(traj, sc, av, ControllerParams(*up))
            j_dn = replayed_objective(traj, sc, av, ControllerParams(*dn))
            fd[j] = (j_up - j_dn) / (2 * h[j])
        assert abs(lam[0] - fd[0]) <= 0.02 * abs(fd[0])
        assert abs(lam[1] - fd[1]) <= 0.02 * abs(fd[1])

    @pytest.mark.parametrize("kernel", sorted(SIGMOID_KERNELS))
    def test_replay_reproduces_nominal_speed_objective(self, kernel):
        # replay interpolates the frozen signals at half-steps, so it tracks
        # the coupled objective to O(dt^2), not bitwise
        sc = short_scenario_with(kernel)
        traj = simulate(sc)
        av = sc.av_indices[0]
        j_replay = replayed_objective(traj, sc, av, ControllerParams(0.03, 0.5))
        assert j_replay == pytest.approx(objective_j(traj, (av,)), rel=1e-3)


class TestOptimize:
    def test_flat_profile_is_stationary(self):
        sc = make_short_scenario(lead=FLAT_LEAD, window=(10.0, 40.0), envelope_s0=S0_0642)
        cfg = OptimizerConfig(theta0=ControllerParams(0.03, 0.5))
        theta, trace = optimize(sc, cfg)
        assert len(trace) == 1
        assert trace.reason == "converged"
        assert trace.lambdas[0] == pytest.approx([0.0, 0.0])
        assert (theta.beta, theta.gamma) == (0.03, 0.5)

    def test_short_run_converges_and_stays_feasible(self):
        sc = make_short_scenario(beta=0.03, gamma=1.0, envelope_s0=S0_05)
        bound = sc.beta_bound()
        assert bound == pytest.approx(0.05, rel=1e-15)
        cfg = OptimizerConfig(theta0=ControllerParams(0.03, 1.0), epsilon=1e-4, n_max=40)
        theta, trace = optimize(sc, cfg)
        assert len(trace) <= 40
        assert (trace.thetas[:, 0] >= 0).all()
        assert (trace.thetas[:, 0] <= bound).all()
        assert (trace.thetas[:, 1] >= 0).all()
        assert trace.objectives[-1] <= trace.objectives[0]
        # beta gradient pushes outward, so beta rises toward its cap
        assert theta.beta > 0.03
        if theta.beta == bound:
            # active bound: the descent direction keeps pointing outward
            assert trace.lambdas[-1][0] < 0

    def test_requires_av_and_tunable_controller(self):
        # `Scenario.beta_bound()` refuses them before any run
        with pytest.raises(DomainError, match="no AV to tune"):
            optimize(make_short_scenario(mpr=0.0), OptimizerConfig())
        with pytest.raises(DomainError, match="only the 'ts-ops' controller is tunable"):
            optimize(make_short_scenario(kind="ts-trc"), OptimizerConfig())

    def test_several_avs_share_one_pair(self):
        # two AVs at mpr 0.2: one ControllerParams, one (beta, gamma) row and
        # one AV-summed direction per iteration
        sc = make_short_scenario(mpr=0.2, beta=0.03, gamma=1.0, envelope_s0=S0_05)
        cfg = OptimizerConfig(theta0=ControllerParams(0.03, 1.0), epsilon=1e-4, n_max=5)
        theta, trace = optimize(sc, cfg)
        assert len(sc.av_indices) == 2
        assert isinstance(theta, ControllerParams)
        assert trace.thetas.shape == trace.lambdas.shape == (len(trace), 2)
        traj, z = simulate_with_sensitivity(sc, trace.thetas[0])
        lam = sum(descent_direction(traj, z[:, row], i) for row, i in enumerate(sc.av_indices))
        assert trace.lambdas[0] == pytest.approx(lam, rel=1e-12)
        assert (theta.beta, theta.gamma) == tuple(trace.thetas[trace.best_index])

    def test_blowup_returns_the_completed_trace_and_the_error(self, monkeypatch):
        # the third iteration's run raises: the descent returns no gains and
        # its two completed iterations, with the raised object itself
        class LaneError(NumericalBlowupError):
            pass

        raised = LaneError(4, 12.3)
        terms, calls = optimizer._descent_terms, []

        def failing_terms(*args):
            calls.append(args)
            if len(calls) == 3:
                raise raised
            return terms(*args)

        monkeypatch.setattr(optimizer, "_descent_terms", failing_terms)
        cfg = OptimizerConfig(theta0=ControllerParams(0.03, 1.0), epsilon=1e-4, n_max=5)
        sc = make_short_scenario(envelope_s0=S0_0642)
        theta, trace = optimize(sc, cfg)
        assert theta is None
        assert len(trace) == 2 and trace.reason == "blow-up"
        assert trace.failure is raised
        assert trace.thetas.shape == trace.lambdas.shape == (2, 2)
        assert optimize(sc, replace(cfg, n_max=2))[1].failure is None

    def test_closed_loop_sensitivity_mode_runs(self):
        sc = make_short_scenario(beta=0.03, gamma=0.5)
        traj, z = simulate_with_sensitivity(sc, np.array([[0.03, 0.5]]), mode="closed-loop")
        assert np.isfinite(z).all()
        assert z.shape == (len(traj.t), 1, 2)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(epsilon=1.5)
        with pytest.raises(DomainError):
            OptimizerConfig(phi=0.0)
        with pytest.raises(DomainError):
            OptimizerConfig(sensitivity="adjoint")
        # the hand-derived "coupled" mode is gone; its message names both modes
        with pytest.raises(DomainError, match="'exogenous' or 'closed-loop', got 'coupled'"):
            OptimizerConfig(sensitivity="coupled")
        # NaN passes a `<= 0` test; with phi = NaN the descent never converges
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match="phi"):
                OptimizerConfig(phi=value)
