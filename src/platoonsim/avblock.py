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

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowupError
from .simulator import _STAGE_BLOCK, PlatoonEngine, Scenario, av_mask_for, logger


@dataclass
class AvBlock:
    """The followers from the first AV to the last one read, as a platoon of
    their own, which runs as those columns of the platoon's run bit for bit.

    `av_block` builds it. `scenario` is the platoon's, and `av_mask`, the
    block's columns of its mask, chooses the followers; `first` is the
    platoon index of its leader, the first AV's predecessor, whose
    four-stage speed table is `lead`; `av` lists the AV followers,
    block-relative. `head` is the gain-free head's length in steps
    (`av_block`: u = beta*k(gamma*s*0) = 0 and z = 0 through it, and no
    speed is floored), `rows` the record rows 0..head (`t`, and `x` and `v`
    with the leader column), whose first is the block's initial state. A
    run resumed at the head's end, real or complex, gives the J, direction
    and clamps of its run from step 0 bit for bit (`TestHead` checks it).
    """

    scenario: Scenario
    first: int
    av: tuple[int, ...]
    lead: tuple[np.ndarray, ...]
    av_mask: np.ndarray
    head: int
    rows: dict

    def run(self, beta, gamma, start: int, record, fold=None, end=None):
        """`PlatoonEngine.run` of the block with these gains over steps
        `start`..`end` (by default `lead`'s last), `start` at most the
        head's end; errors number platoon vehicles. Returns the record of
        `record`, led by the rows before `start` broadcast over the run's
        lanes (None with `fold`), and the engine that ran it, whose
        `lane_floor_hits` no step before the head's end adds to.
        """
        engine = PlatoonEngine(self.scenario, beta=beta, gamma=gamma, av_mask=self.av_mask)
        initial = self.rows["x"][start], self.rows["v"][start, 1:]
        try:
            raw = engine.run(record, fold=fold, lead=self.lead, initial=initial, start=start, end=end)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(self.first + err.vehicle, err.time, err.lane) from None
        for name, arr in (raw or {}).items():
            rows = self.rows[name][:start]
            # the run's lane axes sit between the time and vehicle axes
            rows = np.expand_dims(rows, tuple(range(1, arr.ndim - rows.ndim + 1)))
            raw[name] = np.concatenate([np.broadcast_to(rows, (start, *arr.shape[1:])), arr])
        return raw, engine


def av_block(scenario: Scenario, beta, gamma, last: int, record=("x", "v"), end=None):
    """The AV block of `scenario`, which has an AV, up to follower `last`,
    at least its last AV, to step `end` (by default the horizon's). Returns
    the block, the prefix lane's record of `record` (with `x` and `v`; None
    when the first AV is follower 1, and there is no prefix) and its clamps.

    Every engine runs `scenario`, its followers chosen by a mask slice,
    behind a table that ends at `end`. The prefix, `mask[:first]`, runs as
    an all-HV lane; under RK4 its engine's `stage_blocks` pass over its
    record gives its last follower's speeds at stages 2, 3 and 4, the
    block leader's table. The block, `mask[first:last]`, runs behind it
    with the gains `beta` and `gamma`, `_STAGE_BLOCK` steps per `run`, each
    resumed where the last ended and stage-passed by its engine, until the
    head ends: at the first step where any AV has a nonzero dv at any
    stage, by exact comparison (a dv of 0 leaves u at 0 for every gain
    pair), or where a speed of the block is floored, so a run resumed there
    counts every clamp. Those runs log no clamps (past the head they are
    the gains'). The start, `mask[:last]`'s, adds the spacings in order
    (`cumsum`), as the platoon's does, so its positions are the platoon's
    bit for bit.
    """
    av = scenario.av_indices
    first = av[0] - 1
    steps = scenario.steps if end is None else end
    mask = av_mask_for(scenario.n_followers, scenario.mpr)
    x, v = PlatoonEngine(scenario, av_mask=mask[:last]).initial_arrays()
    lead = scenario.lead.stage_speeds(scenario.dt, steps)
    raw, hits = None, 0
    if first:
        engine = PlatoonEngine(scenario, beta=beta, gamma=gamma, av_mask=mask[:first])
        try:
            raw = engine.run(record=record, lead=lead)
        except NumericalBlowupError:
            # the prefix fails every run, the platoon's maybe earlier behind it
            PlatoonEngine(scenario, beta=beta, gamma=gamma, av_mask=mask[:last]).run((), lead=lead)
            raise
        hits = engine.lane_floor_hits
        # the prefix lane is one lane, batched or not
        one = {name: raw[name].reshape(steps + 1, -1) for name in ("x", "v")}
        later = [np.empty(steps) for _ in range(3)] if scenario.integrator == "rk4" else []
        stage = PlatoonEngine(scenario, av_mask=mask[:first])
        for k0, k1, stages, _ in stage.stage_blocks(lead, one) if later else ():
            # the x rows of the later stages' rates are the speeds there
            for out, (f, *_) in zip(later, stages[1:]):
                out[k0:k1] = f[first]
        lead = (one["v"][:, first].copy(), *later)

    # step 0's row; each run's record holds the rows to its end
    rows = {"t": np.zeros(1), "x": x[None, first:], "v": np.append(lead[0][0], v[first:])[None]}
    block = AvBlock(scenario, first, tuple(i - first for i in av), lead, mask[first:last],
                    steps, rows)
    # one unbatched lane of the gains: the runs' records are the block's rows
    pair = np.ravel(beta)[:1], np.ravel(gamma)[:1]
    quiet, logger.disabled = logger.disabled, True
    try:
        for k in range(0, steps, _STAGE_BLOCK):
            block.rows, engine = block.run(*pair, k, ("x", "v"), end=min(k + _STAGE_BLOCK, steps))
            # the run's steps that floor a speed or give an AV a dv, at any stage
            moved = np.concatenate([floored.any(axis=0) | np.any(
                [dv[np.subtract(block.av, 1)] != 0 for _, _, dv, _ in stages], axis=(0, 1))
                for _, _, stages, floored in engine.stage_blocks(lead, block.rows, k)])
            if moved.any():
                block.head = k + int(np.argmax(moved))
                break
    finally:
        logger.disabled = quiet
    block.rows = {name: arr[: block.head + 1] for name, arr in block.rows.items()}
    return block, raw, hits
