"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all domain-level failures raised by this package.

    ``best_infidelity`` is the lowest infidelity the failed search or sweep
    saw, nan where none applies.
    """

    def __init__(self, message: str, best_infidelity: float = float("nan")):
        super().__init__(message)
        self.best_infidelity = best_infidelity


class CapacityError(SimulationError):
    """A sector is too large to enumerate or store."""


class DegenerateGapError(SimulationError):
    """E1 - E0 is numerically zero, so gap-based schedules are undefined."""


class PropagationError(SimulationError):
    """Krylov propagation failed to converge within its subspace budget."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class StepRefinementError(SimulationError):
    """Ramp step doubling hit its cap before the infidelity stabilized."""


class RampSearchError(SimulationError):
    """No ramp duration below the cap reached the requested infidelity."""


class RodeoAnnihilationError(SimulationError):
    """All spectral weight was projected away (input orthogonal to target)."""


class PurificationError(SimulationError):
    """The superiteration sweep hit its cap before reaching the target."""
