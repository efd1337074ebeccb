"""The AV block: the part of a platoon's run that the ts-ops gains can change.

No gains change the all-HV followers ahead of the first AV (the prefix) or
the steps before any AV sees a nonzero relative speed (the head, which
also ends where a speed of the block is floored), so a caller of many
gain pairs over one AV mask integrates those once. `av_block` builds the
block in one call, from a seeding lane of its own, and `AvBlock.run`
resumes it from a state and a step. `last`, the last follower the caller
reads, ends the block: the last AV for `tune` and
`simulate_with_sensitivity`, whose J and z read nothing behind it, and
every follower for `grid`, which reads the seeding lane's whole record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalBlowupError
from .simulator import PlatoonEngine, Scenario, av_mask_for


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

    def columns(self, raw: dict) -> dict:
        """The block's `t`, `x` and `v` from a record of the platoon that
        covers at least the block's followers, as arrays of their own, so
        the platoon's record can be freed."""
        cols = slice(self.first, self.first + self.scenario.n_followers + 1)
        return {
            "t": raw["t"],
            **{name: np.ascontiguousarray(raw[name][:, cols]) for name in ("x", "v")},
        }

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
    at least its last AV, from a seeding lane: one run of the followers up
    to `last` with the gains `beta` and `gamma`, those columns of the
    platoon's run, to step `end` (by default the horizon's). The lane
    builds its own start: `cumsum` adds the spacings in order, so the first
    `last` followers' positions are the platoon's bit for bit. Returns the
    block, the lane's record of `record` (with `x` and `v`) and its clamps.

    One step-batched `stage_blocks` pass over the record gives the head and,
    under RK4 behind an all-HV prefix, the prefix's last follower's speeds at
    stages 2, 3 and 4, which no gains change either. The head ends at the
    first step where any AV has a nonzero dv at any stage, by exact
    comparison (a dv of 0 leaves u at 0 for every gain pair), or where a
    speed of the block is floored, so a run resumed there counts every
    clamp. The pass stops at the head's end unless the stage table needs
    the whole run.
    """
    av = scenario.av_indices
    first = av[0] - 1
    spacing = scenario.init_spacing
    part = replace(scenario, n_followers=last, init_spacing=spacing and spacing[:last])
    if end is not None:
        part = replace(part, t_f=end * scenario.dt, metric_window=(0.0, end * scenario.dt))
    mask = av_mask_for(scenario.n_followers, scenario.mpr)[:last]
    engine = PlatoonEngine(part, beta=beta, gamma=gamma, av_mask=mask)
    raw = engine.run(record=record)
    # the seeding lane is one lane, batched or not
    x, v = (raw[name].reshape(len(raw["t"]), -1) for name in ("x", "v"))
    lead = scenario.lead.stage_speeds(scenario.dt, scenario.steps)
    # the step index is the stage engine's batch axis
    stage = PlatoonEngine(part, av_mask=mask[None])
    steps, head = len(x) - 1, None
    # the stage table of a prefix's last follower: its later RK4 stages' speeds
    later = [np.empty(steps) for _ in range(3)] if first and scenario.integrator == "rk4" else []
    for k0, k1, stages, floored in stage.stage_blocks(lead, x, v[:, 1:]):
        # vehicle rows, one column per step
        if head is None:
            moved = floored[first:].any(axis=0)
            for _, _, dv, _ in stages:
                moved |= (dv[np.subtract(av, 1)] != 0).any(axis=0)
            head = k0 + int(np.argmax(moved)) if moved.any() else None
        # the x rows of the later stages' rates are the speeds there
        for out, (f, *_) in zip(later, stages[1:]):
            out[k0:k1] = f[first]
        if head is not None and not later:
            break
    head = steps if head is None else head
    if first:
        lead = (v[:, first].copy(), *later)
    rows = {"t": raw["t"][: head + 1]}
    for name, arr in (("x", x), ("v", v)):
        rows[name] = np.ascontiguousarray(arr[: head + 1, first:])
    block = AvBlock(
        replace(scenario, n_followers=last - first, init_spacing=None), first,
        tuple(i - first for i in av), lead, mask[first:], head, rows,
    )
    return block, raw, engine.lane_floor_hits
