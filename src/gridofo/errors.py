"""Exception types shared across the package."""


class GridOfoError(Exception):
    """Base class for all package-specific errors."""


class GridDataError(GridOfoError):
    """Malformed or inconsistent grid/scenario input data."""


class DegenerateLineError(GridDataError):
    """An in-service line has zero series impedance."""


class PowerFlowDivergenceError(GridOfoError):
    """Newton-Raphson did not converge within the iteration budget."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power flow diverged: residual {residual:.3e} after {iterations} iterations"
        )


class IslandingError(GridOfoError):
    """A topology change disconnected part of the grid."""

    def __init__(self, buses):
        self.buses = tuple(buses)
        super().__init__(f"grid islanded; disconnected buses: {sorted(self.buses)}")


class MachineInitError(GridOfoError):
    """No machine equilibrium consistent with the terminal conditions."""


class SimulationBlowupError(GridOfoError):
    """A dynamic state left the physically meaningful range."""


class NetworkSolveError(GridOfoError):
    """The network solve of a topology is not finite or fails its residual check."""


class VoltageCollapseProximityError(GridOfoError):
    """The power-flow Jacobian is singular at the operating point."""


class OfoStepError(GridOfoError):
    """The controller's projection QP has non-finite data or gave no optimal
    step, even softened."""
