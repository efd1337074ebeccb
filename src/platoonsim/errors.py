"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition (non-finite, out of range)."""


class NoEquilibriumError(DomainError):
    """No equilibrium spacing exists for the requested speed."""


class ConfigError(ValueError):
    """A scenario config file or override could not be parsed or validated."""


class NumericalBlowupError(RuntimeError):
    """Integration produced a non-finite state.

    Carries the first offending vehicle index and the simulation time so the
    failure can be reported precisely; the message reads them. `lane` is the
    lane of a batched run that failed (flat index over the batch shape; see
    `PlatoonEngine.lane_failures`), or None when the run is unbatched.
    """

    def __init__(self, vehicle: int, time: float, lane: int | None = None):
        self.vehicle = vehicle
        self.time = time
        self.lane = lane

    def __str__(self):
        return f"non-finite state for vehicle {self.vehicle} at t={self.time:.3f} s"

