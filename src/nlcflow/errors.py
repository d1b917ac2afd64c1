"""Exception hierarchy for nlcflow.

Everything raised on purpose derives from :class:`FlowError`, so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class FlowError(Exception):
    """Base class for all nlcflow errors."""


# --- field / grid layer -----------------------------------------------------

class GridMismatch(FlowError):
    """Operands live on different grids."""


class ParityMismatch(FlowError):
    """Operands carry incompatible boundary parities."""


class NonZeroMean(FlowError):
    """Neumann Poisson problem fed a right-hand side with nonzero mean."""


# --- constitutive layer -----------------------------------------------------

class NegativeInput(FlowError):
    """A quantity that must be >= 0 (density, temperature) was negative."""


class NonPositiveInput(FlowError):
    """A quantity that must be > 0 was zero or negative."""


class NonPositiveTemperature(NonPositiveInput):
    """Temperature must be strictly positive for this functional."""


# --- solver layer -----------------------------------------------------------

class SolverFailure(FlowError):
    """Base class for time-stepping failures."""


class PositivityLoss(SolverFailure):
    """A substep would push density or temperature meaningfully negative."""


class NonFiniteState(SolverFailure):
    """A substep met NaN or infinite values.  Never retried with a smaller
    dt; the message names the substep and, once known, the step's t and dt."""

    def __init__(self, substep, t=None, dt=None):
        self.substep, self.t, self.dt = substep, t, dt
        msg = f"non-finite values in the {substep} substep"
        if t is not None:
            msg += f" of the step from t={t:.17g} with dt={dt:.17g}"
        super().__init__(msg)


class PicardDivergence(SolverFailure):
    """The per-step Picard coupling loop did not reach tolerance."""


class StepUnderflow(SolverFailure):
    """Time step was halved too many times without an accepted step."""


class SingularMassMatrix(SolverFailure):
    """Galerkin mass matrix lost definiteness (density floor breach)."""


class InvalidInitialData(FlowError):
    """Initial data violate positivity/compatibility requirements."""


# --- diagnostics / continuation ---------------------------------------------

class MismatchedSnapshots(FlowError):
    """Runs being compared do not share snapshot times or grids."""


# --- config / io ------------------------------------------------------------

class ParseError(FlowError):
    """Config file is syntactically malformed (reports line and key)."""


class ValidationError(FlowError):
    """Config parsed but violates a model invariant."""


class IOFailure(FlowError):
    """Missing, unreadable, or corrupt input/output artifact."""
