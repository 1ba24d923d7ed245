"""Exception taxonomy shared by all modules.

The CLI maps each AmzError class onto an exit code: parse errors exit 1,
precondition violations exit 2, exhausted budgets exit 3 and invariant
violations, a failed exact division among them, exit 4.  The helpers
every layer shares live here too: input parsing, the primality test, the
partition enumerator and the budget charges, which read the one work
budget ``BUDGET``.
"""


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


# psi_13 (OEIS A014233): the least odd composite that is a strong
# probable prime to every prime base 2..41 (Sorenson and Webster, Math.
# Comp. 2017), so below it those 13 bases decide primality
PRIME_TEST_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41, proven for
    p < PRIME_TEST_BOUND; a larger p is a ValueError."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"{p} is not below {PRIME_TEST_BOUND}")
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def partitions(n: int, max_part=None):
    """Weakly decreasing tuples summing to n, lexicographically descending."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


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


def require_depth(alpha: int):
    """Refuse a depth below 1, before any work."""
    if alpha < 1:
        raise PreconditionError("depth must be >= 1")


class BudgetExceededError(AmzError):
    """An enumeration would exceed the configured work budget."""

    exit_code = 3


# the one work budget: every stage of a call charges its steps against
# BUDGET, which ``amz --budget`` sets for the length of one call and a
# library caller may set itself; only the two charges below read it
DEFAULT_BUDGET = 10 ** 9
BUDGET = DEFAULT_BUDGET


def charge(what: str, steps: int):
    """Refuse, before any work, an enumeration of more steps than BUDGET."""
    if steps > BUDGET:
        raise BudgetExceededError(
            f"{what} needs {steps} steps, budget allows {BUDGET}")


def _charge_running(what: str, steps: int):
    """Refuse a walk whose running count of steps has passed BUDGET.  The
    walk stops there, so its whole cost is only known to be at least
    steps."""
    if steps > BUDGET:
        raise BudgetExceededError(
            f"{what} needs at least {steps} steps, budget allows {BUDGET}")


class InvariantError(AmzError):
    """An internal consistency guarantee failed; always a bug or a broken
    hypothesis, never a user error."""

    exit_code = 4


class UnsupportedDenominatorError(InvariantError):
    """A rational function would need a denominator outside its supported
    family: c * x^e * prod Phi_d^k (cyclotomic Phi_d) in one variable,
    q^e1 * t^e2 * prod (q^a - t)^mu with a >= 1 in two."""
