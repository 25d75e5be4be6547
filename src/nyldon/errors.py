"""Domain errors shared across the package."""


class NyldonError(Exception):
    """Base class for domain errors raised by this package."""


class AlphabetMismatchError(NyldonError):
    """Two words from different alphabets were combined or compared."""


class NotPrimitiveError(NyldonError):
    """A primitive word was required.

    Carries the minimal period so callers can report it.
    """

    def __init__(self, word, period):
        self.word = word
        self.period = period
        super().__init__(f"word is periodic (period {period})")


class PolicyViolationError(NyldonError):
    """A generated set violated the Nyldon-like condition under its policy."""

    def __init__(self, message, f=None, g=None):
        self.f = f
        self.g = g
        super().__init__(message)


class BudgetExceededError(NyldonError):
    """A scan would visit, or holds, more words than its budget allows."""


# The one budget: the words a scan visits or holds before it raises
# BudgetExceededError. Every scan checks its count against it through
# check_budget; a scan with a `budget=` parameter takes it as the default.
DEFAULT_WORD_BUDGET = 2_000_000


def check_budget(count: int, budget: int | None, what: str, *args, unit="words") -> int:
    """Return `count`, the words (or other `unit`) a scan visits or holds;
    raise BudgetExceededError above `budget` (None: no limit). The message is
    `what.format(*args)`, the count, the unit and the budget. It is formatted
    only on the raise, so a check made once per step costs one call."""
    if budget is not None and count > budget:
        raise BudgetExceededError(f"{what.format(*args)} {count} {unit} (budget {budget})")
    return count


def check_word_budget(
    what: str, alphabet_size: int, max_len: int, budget: int | None
) -> int:
    """The number of words of length 1..max_len, which a scan named `what`
    would visit, checked against `budget` before the scan starts."""
    total = sum(alphabet_size**n for n in range(1, max_len + 1))
    return check_budget(total, budget, "{} would visit", what)


class InvariantError(NyldonError):
    """An internal invariant or a proven bound failed: a bug, or malformed
    state handed in by the caller. Raised explicitly so the check survives
    ``python -O``."""
