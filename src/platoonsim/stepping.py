"""Fixed-step integration shared by the engine and the optimizer: the RK4
step of an array or scalar state (`rk4_step`) and its coefficients. A
float lane takes the same operations in `PlatoonEngine._float_run`.

Every array lane of the engine and the `replayed_objective` oracle take
`rk4_step`, and so does the exogenous sensitivity post-pass, on arrays over
a block's AVs and steps, to build each step's affine map. With `ys` and
`out` (not `y`) it writes every stage state and partial sum into those two
arrays and adds the rates in the formula's order as they come, so one
buffer can hold the rates of stages 2 to 4; without them each operation
makes a fresh array or scalar, as the oracle's floats need.
`tests/test_simulator.py::TestStep::test_rk4_step_takes_float_or_0d_coefficients`
pins its bits, with float and 0-d coefficients, to the classic step
written out. The module knows nothing of the engine's layout."""

from __future__ import annotations

from numpy import add, multiply


def step_coefficients(dt: float) -> tuple[float, ...]:
    """`rk4_step`'s coefficients of the step dt; an Euler step takes dt."""
    return dt / 2, dt, dt / 6, 2.0


def rk4_step(y, c, f1, rate, ys=None, out=None):
    """One classic RK4 step from the state y, whose derivative is f1.

    `c` holds `step_coefficients(dt)`, as 0-d arrays in the engine and as
    floats in the `replayed_objective` oracle: the formula of every state
    that is an array or a scalar.
    `rate(i, y_i)` is the derivative at the stage state y_i, for i = 1 and 2
    (the half step) and 3 (the full step). Arrays `ys` and `out` (not y),
    when given, take the stage states and the sum, which is formed in its
    order as the rates come, so each rate may overwrite the last.
    """
    half, full, sixth, two = c
    f = rate(1, add(y, multiply(half, f1, ys), ys))
    acc = add(f1, multiply(two, f, ys), out)
    f = rate(2, add(y, multiply(half, f, ys), ys))
    acc = add(acc, multiply(two, f, ys), out)
    f = rate(3, add(y, multiply(full, f, ys), ys))
    return add(y, multiply(sixth, add(acc, f, out), out), out)

