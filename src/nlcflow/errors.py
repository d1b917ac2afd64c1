"""Exception hierarchy for nlcflow.

Everything raised on purpose derives from :class:`FlowError`, so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class FlowError(Exception):
    """Base class for all nlcflow errors."""


# --- field / grid layer -----------------------------------------------------

class GridMismatch(FlowError):
    """Operands live on different grids."""


# --- constitutive layer -----------------------------------------------------

class NegativeInput(FlowError):
    """A quantity that must be >= 0 (density, temperature) was negative."""


class NonPositiveTemperature(FlowError):
    """Temperature must be strictly positive for this functional."""


# --- solver layer -----------------------------------------------------------

class SolverFailure(FlowError):
    """Base class for time-stepping failures.  One raised inside the time
    loop carries the index ``step`` of the step it ended, named in its
    message (the run's first step is 1).  One raised inside a continuation
    study also carries ``entry``, the schedule entry it ended, named at the
    end of its message."""

    step = None
    entry = None

    def __str__(self):
        msg = self._what()
        return msg if self.entry is None else f"{msg}, in {self.entry}"

    def _what(self):
        msg = super().__str__()
        return msg if self.step is None else f"{msg} (step {self.step})"


class PositivityLoss(SolverFailure):
    """A substep would push density or temperature meaningfully negative;
    ``substep`` names which."""

    def __init__(self, substep, what):
        self.substep = substep
        super().__init__(what)


class StepFailure(SolverFailure):
    """A failure that ends the run instead of halving dt.

    It names the ``substep`` it stopped in, the last increment or residual
    (``residual``) where an iteration ran out, and the ``t`` and ``dt`` of
    the step, which the time stepper sets once known.
    """

    t = dt = None

    def __init__(self, substep, what, residual=None):
        self.substep, self.what, self.residual = substep, what, residual
        super().__init__(what)

    def _what(self):
        if self.t is None:
            return super()._what()
        step = "the step" if self.step is None else f"step {self.step}"
        return (f"{self.what} of {step} from t={self.t:.17g} "
                f"with dt={self.dt:.17g}")


class NonFiniteState(StepFailure):
    """A substep met NaN or infinite values."""

    def __init__(self, substep):
        super().__init__(
            substep, f"non-finite values in the {substep} substep")


class PicardDivergence(StepFailure):
    """The per-step Picard coupling loop did not reach tolerance; the
    residual is the last relative velocity increment."""

    def __init__(self, sweeps, increment):
        super().__init__(
            "picard", f"the picard velocity iterates did not settle in "
            f"{sweeps} sweeps (last relative increment {increment:.3e})",
            increment)


class IterationStall(StepFailure):
    """An inner iteration of a substep (the director fixed point, the heat
    conjugate gradients) used up its iterations; ``measure`` names what
    the residual is."""

    def __init__(self, substep, iters, residual, measure):
        super().__init__(
            substep, f"the {substep} iteration did not settle in {iters} "
            f"iterations (last {measure} {residual:.3e})", residual)


class StepUnderflow(StepFailure):
    """Time step was halved too many times without an accepted step; the
    substep is the one whose positivity check rejected the last try, and
    ``dt`` the step size of that try."""

    def __init__(self, substep, halvings, last):
        super().__init__(
            substep, f"the step was rejected after {halvings} dt halvings "
            f"(last: {last})")


class SingularMassMatrix(StepFailure):
    """Galerkin mass matrix lost definiteness (density floor breach)."""

    def __init__(self, min_eig):
        super().__init__(
            "momentum", f"the velocity mass matrix is near-singular (min "
            f"eig {min_eig:.3e})")


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


class TooManyModes(ValidationError):
    """A Galerkin basis asked for more modes than its grid admits.  The
    message names ``key``, the config key that set the count; a
    continuation study sets its own key and ``entry``, the schedule entry
    it ended."""

    key = "reg.n_modes"
    entry = None

    def __init__(self, n_modes, admissible, shape):
        super().__init__(n_modes, admissible, shape)
        self.n_modes, self.admissible, self.shape = n_modes, admissible, shape

    def __str__(self):
        msg = (f"{self.key} = {self.n_modes} exceeds the {self.admissible} "
               f"admissible modes on a {'x'.join(map(str, self.shape))}"
               f"-node grid")
        return msg if self.entry is None else f"{msg}, in {self.entry}"


class IOFailure(FlowError):
    """Missing, unreadable, or corrupt input/output artifact."""
