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
    failure can be reported precisely. `lane` is the first non-finite lane of
    a batched run (flat index over the batch shape), or None when the run is
    unbatched.
    """

    def __init__(self, vehicle: int, time: float, lane: int | None = None):
        self.vehicle = vehicle
        self.time = time
        self.lane = lane
        super().__init__(
            f"non-finite state for vehicle {vehicle} at t={time:.3f} s"
        )


class OptimizeError(RuntimeError):
    """Optimization aborted mid-run; `.trace` holds the iterations so far."""

    def __init__(self, message: str, trace):
        self.trace = trace
        super().__init__(message)
