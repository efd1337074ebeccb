"""Fixed-step integration shared by the engine and the optimizer: the RK4
step, its coefficients, and the rebuild of a recorded run's stages."""

from __future__ import annotations

import numpy as np


# rows per block of a rebuild (`stage_blocks`, `PlatoonEngine.run`'s record
# of s, dv and u); bounds its arrays. Blocks change no bits: the rebuilt
# values are elementwise per row, and their callers visit the blocks in order.
_STAGE_BLOCK = 128


def stage_blocks(engine, lead, x, v, start: int = 0):
    """Rebuild a recorded run's steps from `start` in blocks of `_STAGE_BLOCK`.

    `x` and `v` are the record's states (`v` without the leader column),
    `lead` the leader's four-stage table; `engine` takes the step index as
    its first batch axis, any lanes after it. Yields each block's first and
    end step, the list of `rhs`'s tuples at its steps' RK4 stages (stage 1
    alone under Euler) and each step's floor mask (`PlatoonEngine.floored`).
    """
    end = len(x) - 1
    # the leader's speeds, one per step, against any lane axis
    shape = (-1,) + (1,) * (x.ndim - 2)
    for k0 in range(start, end, _STAGE_BLOCK):
        k1 = min(k0 + _STAGE_BLOCK, end)
        stages = [engine.rhs(lead[0][k0:k1].reshape(shape), x[k0:k1], v[k0:k1])]
        y = np.concatenate([x[k0:k1], v[k0:k1]], axis=-1)
        lead_later = [s[k0:k1].reshape(shape) for s in lead[1:]]
        floored = engine.floored(engine.step(y, stages[0][0], lead_later, stages))
        yield k0, k1, stages, floored


def step_coefficients(dt: float) -> tuple[float, ...]:
    """`rk4_step`'s coefficients of the step dt; an Euler step takes dt."""
    return dt / 2, dt, dt / 6, 2.0


class FloatState(tuple):
    """A one-AV lane's state (x_lead, x, v), or its rate, as Python floats
    that step as an array does, bit for bit: `+` adds slot by slot, `k *` scales each slot."""

    def __add__(self, other):
        (a, b, c), (x, y, z) = self, other
        return tuple.__new__(FloatState, (a + x, b + y, c + z))

    def __rmul__(self, k):
        a, b, c = self
        return tuple.__new__(FloatState, (k * a, k * b, k * c))


def rk4_step(y, c, f1, rate):
    """One classic RK4 step from the state y, whose derivative is f1.

    `c` holds `step_coefficients(dt)`, as 0-d arrays in the engine and as
    floats in `FloatState` steps, the sensitivity post-pass and the
    `replayed_objective` oracle, so the stage formulas exist once.
    `rate(i, y_i)` is the derivative at the stage state y_i, for i = 1 and 2
    (the half step) and 3 (the full step).
    """
    half, full, sixth, two = c
    f2 = rate(1, y + half * f1)
    f3 = rate(2, y + half * f2)
    f4 = rate(3, y + full * f3)
    return y + sixth * (f1 + two * f2 + two * f3 + f4)
