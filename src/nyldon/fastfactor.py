"""Linear-time factorization into nondecreasing Nyldon factors.

The algorithm scans the word right to left, prepending each letter as a new
factor and merging the two leftmost factors while the first compares
lexicographically greater than the second. It needs at most 2|w|-1 substring
comparisons.

Every comparison goes through `ComparisonEngine`, which compares slices of
the word's letters (as bytes when the alphabet allows) and touches only the
first min(|u|, |v|) letters of the two factors.
"""

from __future__ import annotations

from .words import Factorization, Word


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
    compare = ComparisonEngine(letters).compare
    # stack[-1] is the leftmost factor; merging extends the incoming range
    # over its right neighbours before it is pushed.
    stack: list[tuple[int, int]] = []
    comparisons = 0
    for a1 in range(len(letters) - 1, -1, -1):
        b1 = a1 + 1
        while stack:
            comparisons += 1
            a2, b2 = stack[-1]
            if compare(a1, b1, a2, b2) > 0:
                stack.pop()
                b1 = b2
            else:
                break
        stack.append((a1, b1))
    stack.reverse()
    return stack, comparisons


def factorize_with_stats(word: Word) -> tuple[Factorization, int]:
    ranges, comparisons = factor_ranges(word.letters)
    factors = tuple(Word(word.letters[a:b], word.alphabet) for a, b in ranges)
    return Factorization(factors), comparisons


def nyldon_factorize(word: Word) -> Factorization:
    return factorize_with_stats(word)[0]


def is_nyldon(word: Word) -> bool:
    ranges, _ = factor_ranges(word.letters)
    return len(ranges) == 1
