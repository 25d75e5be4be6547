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
    """An enumeration or scan exceeded its configured budget."""


# Words a scan visits, or snapshots hold, before BudgetExceededError by default.
DEFAULT_WORD_BUDGET = 2_000_000


def check_word_budget(
    what: str, alphabet_size: int, max_len: int, budget: int | None
) -> int:
    """The number of words of length 1..max_len, which a scan named `what`
    would visit; raises BudgetExceededError above `budget` (None: no limit)."""
    total = sum(alphabet_size**n for n in range(1, max_len + 1))
    if budget is not None and total > budget:
        raise BudgetExceededError(f"{what} would visit {total} words (budget {budget})")
    return total


class InvariantError(NyldonError):
    """An internal invariant or a proven bound failed: a bug, or malformed
    state handed in by the caller. Raised explicitly so the check survives
    ``python -O``."""
