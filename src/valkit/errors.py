"""Exception taxonomy shared by all valkit modules."""


class ValkitError(Exception):
    """Base class for all valkit errors."""


class EmptySequenceError(ValkitError):
    """A value sequence with no terms was supplied where one is required."""


class InconclusiveError(ValkitError):
    """The question could not be decided within the configured probe budget.

    This is deliberately an error rather than a guess: exceeding a budget
    never silently turns into a verdict.
    """


class BackendMismatchError(ValkitError):
    """Two field elements from different backends (or primes) were combined."""


class NonMonicBaseError(ValkitError):
    """A base polynomial that must be monic is not."""


class StabilizationBudgetExceededError(ValkitError):
    """No family member up to the budget certified the value; `trace` has the
    values at those evaluated, None at an exact zero."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class NoWitnessError(ValkitError):
    """No key of admissible degree attains the full value within budget."""


class ValueNotRepresentableError(ValkitError):
    """No field element with the requested valuation exists in this backend."""


class LawMismatchError(ValkitError):
    """A claimed closed-form value law disagrees with exact computation."""


class HypothesisViolatedError(ValkitError):
    """A structural hypothesis of the requested criterion does not hold."""


class ScenarioDataError(ValkitError):
    """Scenario data violates an invariant that valid inputs always satisfy."""


class ConfigError(ValkitError):
    """A scenario configuration is malformed."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field

