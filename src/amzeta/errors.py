"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: parse errors exit 1,
precondition violations exit 2, exhausted budgets exit 3 and internal
invariant violations exit 4.
"""

import math


class AmzError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ParseError(AmzError):
    """Malformed input (JSON shape, option values)."""

    exit_code = 1


def parse_int(value, what: str) -> int:
    """An integer read from outside input: a JSON integer or a decimal
    string.  Anything else, a float included, is a ParseError; nothing is
    truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what}: {value!r} is not an integer")


def is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def parse_list(value, what: str) -> list:
    """A list read from outside input: a JSON array.  A string is a
    ParseError too, so "12" is never read as the entries 1 and 2."""
    if isinstance(value, list):
        return value
    raise ParseError(f"{what}: {value!r} is not a list")


class PreconditionError(AmzError):
    """Input violates a documented precondition (non-essential arrangement,
    prime too small, non-generic parameter, ...)."""

    exit_code = 2


class BudgetExceededError(AmzError):
    """An enumeration would exceed the configured work budget."""

    exit_code = 3


# the one work budget: every stage of a call charges its steps against it
DEFAULT_BUDGET = 10 ** 9


def charge(what: str, steps: int, budget: int):
    """Refuse, before any work, an enumeration of more steps than budget."""
    if steps > budget:
        raise BudgetExceededError(
            f"{what} needs {steps} steps, budget allows {budget}")


def _charge_running(what: str, steps: int, budget: int):
    """Refuse a walk whose running count of steps has passed budget.  The
    walk stops there, so its whole cost is only known to be at least
    steps."""
    if steps > budget:
        raise BudgetExceededError(
            f"{what} needs at least {steps} steps, budget allows {budget}")


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
