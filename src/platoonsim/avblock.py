"""The AV block: the part of a platoon's run that the ts-ops gains can change.

No gains change the all-HV followers ahead of the first AV (the prefix) or
the steps before any AV sees a nonzero relative speed (the head), so a
caller of many gain pairs over one AV mask integrates those once.
`av_block` builds the block in one call, from a seeding lane of its own.
`last`, the last follower the caller reads, ends the block: the last AV for
`tune`, whose J reads nothing behind it, and every follower for `grid` and
`simulate_with_sensitivity`, which read the seeding lane's whole record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalBlowupError
from .simulator import PlatoonEngine, Scenario, av_mask_for
from .stepping import stage_blocks


@dataclass(frozen=True)
class Head:
    """The first `steps` steps of the AV block's runs, the same in all: while
    every AV's dv is 0 at every stage, u = beta*k(gamma*s*0) = 0 and z = 0.
    `rows` holds the record rows 0..steps (`t`, and `x` and `v` with the
    leader column), `hits` the speed clamps before step `steps`.
    """

    steps: int
    rows: dict
    hits: np.ndarray


@dataclass
class AvBlock:
    """The followers from the first AV to the last one read, as a platoon of
    their own, which runs as those columns of the platoon's run bit for bit.

    `av_block` builds it. `scenario` holds its followers only (its `mpr`
    the platoon's, so each engine of the block is given `av_mask`, the
    block's columns of the platoon's mask); `first` is the platoon index of
    its leader, the first AV's predecessor, whose four-stage speed table is
    `lead`; `av` lists the AV followers, block-relative. `head` is the gain-free head, whose first
    row is the block's initial state and whose end every run resumes at,
    real or complex: a complex lane's J and direction from there equal
    those of its run from step 0 bit for bit (`TestHead` checks it).
    """

    scenario: Scenario
    first: int
    av: tuple[int, ...]
    lead: tuple[np.ndarray, ...]
    av_mask: np.ndarray
    head: Head

    def columns(self, raw: dict) -> dict:
        """The block's `t`, `x` and `v` from a record of the platoon that
        covers at least the block's followers, as arrays of their own, so
        the platoon's record can be freed."""
        cols = slice(self.first, self.first + self.scenario.n_followers + 1)
        return {
            "t": raw["t"],
            **{name: np.ascontiguousarray(raw[name][:, cols]) for name in ("x", "v")},
        }

    def run(self, beta, gamma, record) -> dict:
        """A run of the block with these gains, resumed at the end of its
        head, whose rows, broadcast over the run's lanes, lead the record."""
        k = self.head.steps
        raw = self._run(beta, gamma, k, record=record, hits=self.head.hits)[0]
        out = {}
        for name, arr in raw.items():
            rows = self.head.rows[name][:k]
            # the run's lane axes sit between the time and vehicle axes
            rows = np.expand_dims(rows, tuple(range(1, arr.ndim - rows.ndim + 1)))
            out[name] = np.concatenate([np.broadcast_to(rows, (k, *arr.shape[1:])), arr])
        return out

    def fold(self, beta, gamma, fold, start: int) -> np.ndarray:
        """A run of the block folding `v` and `a` into `fold`, resumed at
        step `start`, at most the head's end; each lane's clamps since."""
        return self._run(beta, gamma, start, record=("v", "a"), fold=fold)[1]

    def _run(self, beta, gamma, k: int, **kw):
        """`PlatoonEngine.run` of the block from step `k` and the head's row
        there, and its clamps per lane; errors number platoon vehicles."""
        x, v = self.head.rows["x"][k], self.head.rows["v"][k, 1:]
        engine = PlatoonEngine(self.scenario, beta=beta, gamma=gamma, av_mask=self.av_mask)
        try:
            raw = engine.run(lead=self.lead, initial=(x, v), start=k, **kw)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(self.first + err.vehicle, err.time, err.lane) from None
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
    comparison; a dv of 0 leaves u at 0 for every gain pair. Its clamps are
    those of the block's followers before its end. The pass stops at the
    head's end unless the stage table needs the whole run.
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
    steps, head, hits = len(x) - 1, None, 0
    # the stage table of a prefix's last follower: its later RK4 stages' speeds
    later = [np.empty(steps) for _ in range(3)] if first and scenario.integrator == "rk4" else []
    for k0, k1, stages, y_new in stage_blocks(stage, lead, x, v[:, 1:]):
        if head is None:
            moved = np.logical_or.reduce([dv[:, np.subtract(av, 1)] != 0 for _, _, dv, _ in stages])
            stop = k0 + int(np.argmax(moved.any(axis=1))) if moved.any() else k1
            # the clamps `advance` counts, in the steps before the head's end
            hits = hits + (y_new[: stop - k0, last + 1 + first :] < 0).sum()
            head = stop if stop < k1 else None
        # the x slots of the later stages' rates are the speeds there
        for out, (f, *_) in zip(later, stages[1:]):
            out[k0:k1] = f[:, first]
        if head is not None and not later:
            break
    steps = steps if head is None else head
    if first:
        lead = (v[:, first].copy(), *later)
    rows = {"t": raw["t"][: steps + 1]}
    for name, arr in (("x", x), ("v", v)):
        rows[name] = np.ascontiguousarray(arr[: steps + 1, first:])
    block = AvBlock(
        replace(scenario, n_followers=last - first, init_spacing=None), first,
        tuple(i - first for i in av), lead, mask[first:], Head(steps, rows, hits),
    )
    return block, raw, engine.lane_floor_hits
