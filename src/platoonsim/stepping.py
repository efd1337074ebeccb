"""Fixed-step integration shared by the engine and the optimizer: the RK4
step of an array or scalar state (`rk4_step`), the same step slot by slot
for a one-AV float lane's tuple (`rk4_slots`), and their coefficients."""

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


def rk4_slots(y, c, f1, rate):
    """`rk4_step` on a one-AV float lane's state `(x_lead, x, v)` and its
    rates, as tuples of scalars: `rk4_step`'s operations in its order, slot
    by slot, so the `(3,)` array step's bits (`TestStep` pins the two)."""
    half, full, sixth, two = c
    p, q, r = y
    a1, b1, c1 = f1
    a2, b2, c2 = rate(1, (p + half * a1, q + half * b1, r + half * c1))
    a3, b3, c3 = rate(2, (p + half * a2, q + half * b2, r + half * c2))
    a4, b4, c4 = rate(3, (p + full * a3, q + full * b3, r + full * c3))
    return (
        p + sixth * (a1 + two * a2 + two * a3 + a4),
        q + sixth * (b1 + two * b2 + two * b3 + b4),
        r + sixth * (c1 + two * c2 + two * c3 + c4),
    )
