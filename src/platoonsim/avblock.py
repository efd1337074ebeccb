"""The AV block: the part of a platoon's run that the ts-ops gains can change.

No gains change the all-HV followers ahead of the first AV (the prefix) or
the steps before any AV sees a nonzero relative speed (the head, which
also ends where a speed of the block is floored), so a caller of many
gain pairs over one AV mask integrates those once. `av_block` builds the
block in one call, integrating only those: the prefix as an all-HV lane
of its own, and the block behind it until its head ends. `AvBlock.run`
resumes the block from a state and a step. `last`, the last follower the
caller reads, ends the block: the last AV for `tune` and
`simulate_with_sensitivity`, whose J and z read nothing behind it, and
every follower for `grid`, which reads the prefix lane's record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalBlowupError
from .simulator import _STAGE_BLOCK, PlatoonEngine, Scenario, av_mask_for, logger


@dataclass
class AvBlock:
    """The followers from the first AV to the last one read, as a platoon of
    their own, which runs as those columns of the platoon's run bit for bit.

    `av_block` builds it. `scenario` holds its followers only (its `mpr`
    the platoon's, so each engine of the block is given `av_mask`, the
    block's columns of the platoon's mask); `first` is the platoon index of
    its leader, the first AV's predecessor, whose four-stage speed table is
    `lead`; `av` lists the AV followers, block-relative. `head` is the
    gain-free head's length in steps (`av_block`: u = beta*k(gamma*s*0) = 0
    and z = 0 through it, and no speed is floored), `rows` the record rows
    0..head (`t`, and `x` and `v` with the leader column), whose first is
    the block's initial state. A run resumed at the head's end, real or
    complex, gives the J, direction and clamps of its run from step 0 bit
    for bit (`TestHead` checks it).
    """

    scenario: Scenario
    first: int
    av: tuple[int, ...]
    lead: tuple[np.ndarray, ...]
    av_mask: np.ndarray
    head: int
    rows: dict

    def run(self, beta, gamma, start: int, record, fold=None):
        """`PlatoonEngine.run` of the block with these gains, resumed from
        its row at step `start`, at most the head's end; errors number
        platoon vehicles. Returns the record of `record`, led by the rows
        before `start` broadcast over the run's lanes (None with `fold`),
        and each lane's clamps, which no step before the head's end adds.
        """
        engine = PlatoonEngine(self.scenario, beta=beta, gamma=gamma, av_mask=self.av_mask)
        initial = self.rows["x"][start], self.rows["v"][start, 1:]
        try:
            raw = engine.run(record=record, fold=fold, lead=self.lead, initial=initial, start=start)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(self.first + err.vehicle, err.time, err.lane) from None
        for name, arr in (raw or {}).items():
            rows = self.rows[name][:start]
            # the run's lane axes sit between the time and vehicle axes
            rows = np.expand_dims(rows, tuple(range(1, arr.ndim - rows.ndim + 1)))
            raw[name] = np.concatenate([np.broadcast_to(rows, (start, *arr.shape[1:])), arr])
        return raw, engine.lane_floor_hits


def av_block(scenario: Scenario, beta, gamma, last: int, record=("x", "v"), end=None):
    """The AV block of `scenario`, which has an AV, up to follower `last`,
    at least its last AV, to step `end` (by default the horizon's). Returns
    the block, the prefix lane's record of `record` (with `x` and `v`; None
    when the first AV is follower 1, and there is no prefix) and its clamps.

    The prefix runs as an all-HV lane to `end`; under RK4 one step-batched
    `stage_blocks` pass over its record gives its last follower's speeds at
    stages 2, 3 and 4, the block leader's table. The block runs behind it
    with the gains `beta` and `gamma`, `_STAGE_BLOCK` steps per `run`, each
    resumed where the last ended and stage-passed, until the head ends: at
    the first step where any AV has a nonzero dv at any stage, by exact
    comparison (a dv of 0 leaves u at 0 for every gain pair), or where a
    speed of the block is floored, so a run resumed there counts every
    clamp. Those runs log no clamps (past the head they are the gains').
    Each lane builds its start as the platoon does: `cumsum` adds the
    spacings in order, so its positions are the platoon's bit for bit.
    """
    av = scenario.av_indices
    first = av[0] - 1
    spacing = scenario.init_spacing
    part = replace(scenario, n_followers=last, init_spacing=spacing and spacing[:last])
    if end is not None:
        part = replace(part, t_f=end * scenario.dt, metric_window=(0.0, end * scenario.dt))
    steps = part.steps
    mask = av_mask_for(scenario.n_followers, scenario.mpr)[:last]
    x, v = PlatoonEngine(part, av_mask=mask).initial_arrays()
    lead = scenario.lead.stage_speeds(scenario.dt, scenario.steps)
    raw, hits = None, 0
    if first:
        prefix = replace(part, n_followers=first, init_spacing=spacing and spacing[:first])
        engine = PlatoonEngine(prefix, beta=beta, gamma=gamma, av_mask=mask[:first])
        try:
            raw = engine.run(record=record)
        except NumericalBlowupError:
            # the prefix fails every run, the platoon's maybe earlier behind it
            PlatoonEngine(part, beta=beta, gamma=gamma, av_mask=mask).run(record=())
            raise
        hits = engine.lane_floor_hits
        # the prefix lane is one lane, batched or not
        xp, vp = (raw[name].reshape(steps + 1, -1) for name in ("x", "v"))
        later = [np.empty(steps) for _ in range(3)] if scenario.integrator == "rk4" else []
        stage = PlatoonEngine(prefix, av_mask=mask[None, :first])
        for k0, k1, stages, _ in stage.stage_blocks(lead, xp, vp[:, 1:]) if later else ():
            # the x rows of the later stages' rates are the speeds there
            for out, (f, *_) in zip(later, stages[1:]):
                out[k0:k1] = f[first]
        lead = (vp[:, first].copy(), *later)

    # step 0's row; each run's record holds the rows to its end
    rows = {"t": np.zeros(1), "x": x[None, first:], "v": np.append(lead[0][0], v[first:])[None]}
    block = AvBlock(replace(scenario, n_followers=last - first, init_spacing=None), first,
                    tuple(i - first for i in av), lead, mask[first:], steps, rows)
    # the step index is the stage engine's batch axis; the runs take one
    # unbatched lane of the gains, so their records are the block's rows
    stage = PlatoonEngine(block.scenario, av_mask=mask[None, first:])
    pair = np.ravel(beta)[:1], np.ravel(gamma)[:1]
    quiet, logger.disabled = logger.disabled, True
    try:
        for k in range(0, steps, _STAGE_BLOCK):
            k1 = min(k + _STAGE_BLOCK, steps)
            cut = replace(block.scenario, t_f=k1 * part.dt, metric_window=(0.0, k1 * part.dt))
            block.rows = replace(block, scenario=cut).run(*pair, k, ("x", "v"))[0]
            x, v = block.rows["x"], block.rows["v"][:, 1:]
            # steps k..k1-1 that floor a speed or give an AV a dv, at any stage
            moved = np.concatenate([floored.any(axis=0) | np.any(
                [dv[np.subtract(block.av, 1)] != 0 for _, _, dv, _ in stages], axis=(0, 1))
                for _, _, stages, floored in stage.stage_blocks(lead, x, v, k)])
            if moved.any():
                block.head = k + int(np.argmax(moved))
                break
    finally:
        logger.disabled = quiet
    block.rows = {name: arr[: block.head + 1] for name, arr in block.rows.items()}
    return block, raw, hits
