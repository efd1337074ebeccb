"""The AV block: the part of a platoon's run that the ts-ops gains can change.

No gains change the all-HV followers ahead of the first AV (the prefix) or
the steps before any AV sees a nonzero relative speed (the head), so a
caller of many gain pairs over one AV mask integrates those once. `last`,
the last follower the caller reads, ends the block: the last AV for `tune`,
whose J reads nothing behind it, and every follower for `grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalBlowupError
from .simulator import PlatoonEngine, Scenario, av_mask_for
from .stepping import stage_blocks

# steps per block of the pass over a seeding record; bounds its stage arrays
_SCAN_BLOCK = 128


@dataclass(frozen=True)
class Head:
    """The first `steps` steps of the AV block's runs, the same in all: while
    every AV's dv is 0 at every stage, u = beta*k(gamma*s*0) = 0 and z = 0.
    `rows` holds the record rows 0..steps (`t`, and `x` and `v` with the
    leader column), `hits` the speed clamps before step `steps`, per lane.
    """

    steps: int
    rows: dict
    hits: np.ndarray


@dataclass
class AvBlock:
    """The followers from the first AV to the last one read, as a platoon of
    their own, which runs as those columns of the platoon's run bit for bit.

    `scenario` holds its followers only (its `mpr` the platoon's, so each
    engine of the block is given `av_mask`, the block's columns of the
    platoon's mask); `first` is the platoon index of its leader, the first
    AV's predecessor, whose four-stage speed table is `lead`; `av` lists the
    AV followers, block-relative. `head` is the gain-free head, whose first
    row is the block's initial state; `head_c` the complex lanes' own, found
    by the first closed-loop run, as complex arithmetic may round the real
    parts differently.
    """

    scenario: Scenario
    first: int
    av: tuple[int, ...]
    lead: tuple[np.ndarray, ...]
    av_mask: np.ndarray
    head: Head
    head_c: Head | None = None

    def columns(self, raw: dict) -> dict:
        """The block's `t`, `x` and `v` from a record of the platoon that
        covers at least the block's followers, as arrays of their own, so
        the platoon's record can be freed."""
        cols = slice(self.first, self.first + self.scenario.n_followers + 1)
        return {
            "t": raw["t"],
            **{name: np.ascontiguousarray(raw[name][:, cols]) for name in ("x", "v")},
        }

    def run(self, beta, gamma, record, head: Head | None = None) -> dict:
        """A run of the block with these gains, from step 0 or resumed at
        the end of `head`, whose rows then lead the record."""
        if head is None:
            return self._run(beta, gamma, self.head, 0, record=record)[0]
        k = head.steps
        raw = self._run(beta, gamma, head, k, record=record, hits=head.hits)[0]
        return {name: np.concatenate([head.rows[name][:k], arr]) for name, arr in raw.items()}

    def fold(self, beta, gamma, fold, start: int) -> np.ndarray:
        """A run of the block folding `v` and `a` into `fold`, resumed at
        step `start`, at most the head's end; each lane's clamps since."""
        return self._run(beta, gamma, self.head, start, record=("v", "a"), fold=fold)[1]

    def _run(self, beta, gamma, head: Head, k: int, **kw):
        """`PlatoonEngine.run` of the block from step `k` and `head`'s row
        there, and its clamps per lane; errors number platoon vehicles."""
        x, v = head.rows["x"][k], head.rows["v"][k, ..., 1:]
        engine = PlatoonEngine(self.scenario, beta=beta, gamma=gamma, av_mask=self.av_mask)
        try:
            raw = engine.run(lead=self.lead, initial=(x, v), start=k, **kw)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(self.first + err.vehicle, err.time, err.lane) from None
        return raw, engine.lane_floor_hits


def head_rows(raw: dict, cols, steps: int, hits) -> Head:
    """A `Head` of `steps` steps from the record `raw`, in columns `cols`."""
    rows = {"t": raw["t"][: steps + 1]}
    for name in ("x", "v"):
        rows[name] = np.ascontiguousarray(raw[name][: steps + 1, ..., cols])
    return Head(steps, rows, hits)


def scan(engine: PlatoonEngine, lead, x, v, av, counted, column=None):
    """One `stage_blocks` pass over a recorded run, in blocks of
    `_SCAN_BLOCK` steps: its gain-free head and, with `column`, that
    vehicle's speeds at RK4 stages 2, 3 and 4. `engine` has the step index
    as its first batch axis.

    The head ends at the first step where any AV follower (`av`, indices of
    the follower axis) has a nonzero dv at any stage, by exact comparison;
    a dv of 0 leaves u at 0 for every gain pair. Returns the head's length
    in steps, the speed clamps of the followers `counted` (a slice of the
    follower axis) before its end, per lane, and the three stage columns
    (empty without `column`). The pass stops at the head's end unless the
    stage columns need the whole run.
    """
    steps = len(x) - 1
    n = engine.n
    head, hits = None, 0
    later = [] if column is None else [np.empty(steps, x.dtype) for _ in range(3)]
    for k0, k1, stages, y_new in stage_blocks(engine, lead, x, v, _SCAN_BLOCK):
        if head is None:
            moved = np.logical_or.reduce([stage[2][..., av] != 0 for stage in stages])
            moved = moved.any(axis=tuple(range(1, moved.ndim)))
            end = k0 + int(np.argmax(moved)) if moved.any() else k1
            # the clamps `advance` counts, in the steps before the end
            v_new = y_new[: end - k0, ..., n + 1 :][..., counted]
            hits = hits + (v_new < 0).sum(axis=(0, -1))
            head = end if end < k1 else None
        # the x slots of the later stages' rates are the speeds there
        for out, stage in zip(later, stages[1:]):
            out[k0:k1] = stage[0][:, column]
        if head is not None and not later:
            break
    return steps if head is None else head, hits, later


def seeding_run(scenario: Scenario, beta, gamma, last: int, record=("x", "v"), end=None):
    """The record of `record` and the clamps per lane of a run of the
    followers up to `last`, those columns of the platoon's run with the
    gains `beta` and `gamma`, to step `end` (by default the horizon's)."""
    platoon = PlatoonEngine(scenario)
    x0, v0 = platoon.initial_arrays()
    part = replace(scenario, n_followers=last, init_spacing=None)
    if end is not None:
        part = replace(part, t_f=end * scenario.dt, metric_window=(0.0, end * scenario.dt))
    engine = PlatoonEngine(part, beta=beta, gamma=gamma, av_mask=platoon.av_mask[:last])
    raw = engine.run(record=record, initial=(x0[: last + 1], v0[:last]))
    return raw, engine.lane_floor_hits


def av_block(scenario: Scenario, raw: dict, last: int) -> AvBlock:
    """The AV block of `scenario`, which has an AV, up to follower `last`,
    at least its last AV, from `raw`: an unbatched record from step 0 of `x`
    and `v` of the platoon, or of its followers up to `last`, at any gains.
    One step-batched pass over it (`scan`) gives the head and the stage
    speeds of the prefix's last follower, which no gains change either.
    """
    av = scenario.av_indices
    first = av[0] - 1
    mask = av_mask_for(scenario.n_followers, scenario.mpr)[:last]
    lead = scenario.lead.stage_speeds(scenario.dt, scenario.steps)
    rk4 = scenario.integrator == "rk4"
    x, v = raw["x"][:, : last + 1], raw["v"][:, 1 : last + 1]
    steps, hits, later = scan(
        PlatoonEngine(replace(scenario, n_followers=last, init_spacing=None), av_mask=mask[None]),
        lead, x, v, np.subtract(av, 1), slice(first, None), first if first and rk4 else None,
    )
    if first:
        lead = (raw["v"][:, first].copy(), *later)
    cols = slice(first, last + 1)
    return AvBlock(
        replace(scenario, n_followers=last - first, init_spacing=None), first,
        tuple(i - first for i in av), lead, mask[first:], head_rows(raw, cols, steps, hits),
    )
