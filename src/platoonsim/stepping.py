"""Fixed-step integration shared by the engine and the optimizer: the RK4
step, its coefficients, and the rebuild of a recorded run's stages."""

from __future__ import annotations

import numpy as np


def stage_blocks(engine, lead, x, v, block: int, start: int = 0, later=True):
    """Rebuild a recorded run's samples from `start` in blocks of `block`.

    `x` and `v` are the record's states (`v` without the leader column),
    `lead` the leader's four-stage table (stage 1 alone without `later`);
    `engine` takes the sample index as its first batch axis, any lanes
    after it. Yields each block's first and end sample, the list of `rhs`'s
    tuples at its samples and None; with `later` the blocks cover the steps
    (not the last sample), the later RK4 stages' tuples join the list and
    the unclamped states after the steps replace None."""
    end = len(x) - 1 if later else len(x)
    # the leader's speeds, one per sample, against any lane axis
    shape = (-1,) + (1,) * (x.ndim - 2)
    for k0 in range(start, end, block):
        k1 = min(k0 + block, end)
        stages = [engine.rhs(lead[0][k0:k1].reshape(shape), x[k0:k1], v[k0:k1])]
        y_new = None
        if later:
            y = np.concatenate([x[k0:k1], v[k0:k1]], axis=-1)
            y_new = engine.step(y, stages[0][0], [s[k0:k1].reshape(shape) for s in lead[1:]], stages)
        yield k0, k1, stages, y_new


def step_coefficients(dt: float) -> tuple[float, ...]:
    """`rk4_step`'s coefficients of the step dt; an Euler step takes dt."""
    return dt / 2, dt, dt / 6, 2.0


def rk4_step(y, c, f1, rate):
    """One classic RK4 step from the state y, whose derivative is f1.

    `c` holds `step_coefficients(dt)`, as 0-d arrays in the engine and as
    floats in the optimizer's sensitivity post-pass, so the stage formulas
    exist once; the `replayed_objective` oracle keeps its own loop.
    `rate(i, y_i)` is the derivative at the stage state y_i, for i = 1 and 2
    (the half step) and 3 (the full step).
    """
    half, full, sixth, two = c
    f2 = rate(1, y + half * f1)
    f3 = rate(2, y + half * f2)
    f4 = rate(3, y + full * f3)
    return y + sixth * (f1 + two * f2 + two * f3 + f4)
