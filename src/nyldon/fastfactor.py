"""Linear-time factorization into nondecreasing Nyldon factors.

The algorithm scans the word right to left, prepending each letter as a new
factor and merging the two leftmost factors while the first compares
lexicographically greater than the second. It needs at most 2|w|-1 substring
comparisons.

The stack holds factor ends only: the incoming factor is always immediately
left of the stack's top factor, so the top factor starts where the incoming
one ends. A comparison first tests the two factors' first letters inline;
only when they tie does it go through `ComparisonEngine`, which compares
slices of the word's letters (as bytes when the alphabet allows) and touches
only the first min(|u|, |v|) letters of the two factors. Either way it counts
as one comparison.

Equal adjacent factors of a factorization share one `Word`: 0^k 1 yields k
references to a single `0` and one `1`. Words are immutable and compare by
value, so the sharing changes no output, equality or hash, and a pickle
(smaller, as it stores a shared Word once) loads equal.
"""

from __future__ import annotations

from .words import Factorization, Word, _unchecked_word


class ComparisonEngine:
    """Lexicographic comparison of index ranges of a fixed base word.

    The letters are stored as `bytes` when every letter is below 256, so a
    comparison is a C-level slice compare; larger alphabets keep the tuple.
    Bytes order equals tuple order on such letters.
    """

    def __init__(self, letters: tuple[int, ...]):
        try:
            self.letters: bytes | tuple[int, ...] = bytes(letters)
        except ValueError:
            self.letters = tuple(letters)

    def compare(self, a1: int, b1: int, a2: int, b2: int) -> int:
        """Three-way compare of letters[a1:b1] vs letters[a2:b2]."""
        len1 = b1 - a1
        len2 = b2 - a2
        common = len1 if len1 < len2 else len2
        letters = self.letters
        u = letters[a1 : a1 + common]
        v = letters[a2 : a2 + common]
        if u != v:
            return -1 if u < v else 1
        if len1 == len2:
            return 0
        return -1 if len1 < len2 else 1


def factor_ranges(letters: tuple[int, ...]):
    """(start, end) factor ranges left to right, plus the comparison count."""
    engine = ComparisonEngine(letters)
    compare = engine.compare
    text = engine.letters
    # ends[-1] is the end of the leftmost factor, whose start is always b1,
    # the end of the incoming range; merging extends the incoming range over
    # its right neighbours before its end is pushed.
    ends: list[int] = []
    pop, push = ends.pop, ends.append
    n = len(letters)
    emptied = 0  # loops that ran out of factors instead of stopping at one
    for a1 in range(n - 1, -1, -1):
        first = text[a1]
        b1 = a1 + 1
        while ends:
            other = text[b1]
            if first < other:
                break
            if first == other and compare(a1, b1, b1, ends[-1]) <= 0:
                break
            b1 = pop()
        else:
            emptied += 1
        push(b1)
    # One comparison per merge (n - len(ends) of them) and one per loop that
    # stopped at a factor.
    comparisons = (n - len(ends)) + (n - emptied)
    ends.reverse()
    return list(zip([0] + ends[:-1], ends)), comparisons


def factorize_with_stats(word: Word) -> tuple[Factorization, int]:
    ranges, comparisons = factor_ranges(word.letters)
    letters, alphabet = word.letters, word.alphabet
    # Nondecreasing factors put equal ones next to each other, so one Word
    # per run of equal slices serves the whole run.
    factors = []
    push = factors.append
    previous = ()
    for a, b in ranges:
        current = letters[a:b]
        if current != previous:
            previous = current
            factor = _unchecked_word(current, alphabet)
        push(factor)
    return Factorization(tuple(factors)), comparisons


def nyldon_factorize(word: Word) -> Factorization:
    return factorize_with_stats(word)[0]


def is_nyldon(word: Word) -> bool:
    ranges, _ = factor_ranges(word.letters)
    return len(ranges) == 1
