"""Exception classes shared across the package.

The CLI maps these to distinct exit codes, so keep the hierarchy flat and
the classes specific.
"""


class ConfigError(ValueError):
    """A configuration file failed to parse or violated an invariant."""


class PlacementError(RuntimeError):
    """Sensor/actuator placement makes the requested design infeasible."""


class SingularControllabilityError(PlacementError):
    """Pole placement met a mode it cannot move or see, named by number."""


class NoFeasibleGainError(PlacementError):
    """Gain tuning found no admissible candidate on the decay-rate grid."""


class UnstableMatrixError(RuntimeError):
    """An operation required a Hurwitz matrix and got one with Re(lambda) >= 0."""


class InternalConsistencyError(RuntimeError):
    """Closed-form placement factors and the per-mode Kalman determinants of
    A, B, C disagreed outside the ill-conditioned band, or A couples two
    modes; indicates a bug rather than a bad input."""


class DivergenceError(RuntimeError):
    """Simulated state became non-finite, or, the state still finite, one
    of the series derived from it (V, y, a norm) overflowed; ``what`` names
    them."""

    def __init__(self, step, time, what="state"):
        self.step = step
        self.time = time
        self.what = what
        super().__init__(
            f"{what} became non-finite at step {step} (t = {time:.6g})"
        )
