"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: parse errors exit 1,
precondition violations exit 2, exhausted budgets exit 3 and internal
invariant violations exit 4.
"""


class AmzError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ParseError(AmzError):
    """Malformed input (JSON shape, option values)."""

    exit_code = 1


class PreconditionError(AmzError):
    """Input violates a documented precondition (non-essential arrangement,
    prime too small, non-generic parameter, ...)."""

    exit_code = 2


class BudgetExceededError(AmzError):
    """An enumeration would exceed the configured work budget."""

    exit_code = 3


class InvariantError(AmzError):
    """An internal consistency guarantee failed; always a bug or a broken
    hypothesis, never a user error."""

    exit_code = 4


class NotDivisibleError(ArithmeticError):
    """Signal raised by exact division when no exact quotient exists.

    Deliberately not an AmzError: callers use it as a decision signal and
    must either handle it or wrap it into an InvariantError.
    """


class UnsupportedDenominatorError(InvariantError):
    """A rational function would need a denominator outside its supported
    family: c * x^e * prod Phi_d^k (cyclotomic Phi_d) in one variable,
    q^e1 * t^e2 * prod (q^a - t)^mu with a >= 1 in two."""
