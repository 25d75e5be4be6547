"""Factorization into nondecreasing Nyldon factors by a right-to-left stack.

The algorithm scans the word right to left, prepending each letter as a new
factor and merging the two leftmost factors while the first compares
lexicographically greater than the second. It needs at most 2|w|-1 substring
comparisons: one per merge and one per letter that stops the merging.

The stack holds factor ends only: the incoming factor is always immediately
left of the stack's top factor, so the top factor starts where the incoming
one ends. A comparison first tests the two factors' first letters. While the
incoming factor is one letter, that test decides: a tie means it is a prefix
of the top factor, so not greater. Only a longer factor's tie compares
slices of the word's letters (as bytes when the alphabet allows), and only
the first min(|u|, |v|) letters of each factor. The loop does this inline;
`ComparisonEngine` chooses the letters' storage, whose slices are also the
contraction engine's lex keys.

Once the loop has read a suffix, its stack is that suffix's factorization:
what it does next depends only on the stack and the letters to the left.
So `factor_ranges(letters, suffixes=cuts)` reads the word in segments, one
per cut, and copies the stack at each cut. One loop gives the factorization
of the word and of its suffixes at `cuts`; the power scan reads those of
w^k and w^(k+1) from one scan of w^(k+2).

The comparison bound makes the loop linear in comparisons, not in letters.
The letters the tie slices copy are at most n log2 n per side for the ties
that merge: each copied letter of the shorter factor ends in a factor at
least twice as long, and factors never split. The ties that stop the merging
have no such bound. One long factor v can stop a whole chain of incoming
factors u, each the last one plus a short block, and every stop copies
min(|u|, |v|) letters. Such a word is v = 1 0 1^m (m = n/2) with b-letter
blocks prepended, tried in increasing order and each kept when the word
still factors as u v. With b = 12 it copies 1.2, 3.7 and 4.3 n log2 n at
n = 10^3, 4*10^3 and 1.2*10^4; with b = 14 and 15, 17 and 27 n log2 n at
n = 3.6*10^4 and 8.3*10^4. At 8.3*10^4 letters (2 cores, Python 3.11) this
loop takes 28 ms on bytes and 250 ms on tuples (a 300-letter alphabet),
against 15 and 16 ms on a random word. On the benchmark's families the
copies per side are measured at n = 10^3, 4*10^3 and 1.6*10^4: 0 on 0^k 1,
1^k 0 and 1 0^k; about one per letter on (10)^k, (1 0^99)^k and
1 0 1 00 1 000 ...; 6.4, 8.1 and 9.7 per letter on Fibonacci words, 6.8, 8.9
and 11.0 on Thue-Morse words and 4.8, 7.0 and 8.6 on a seeded random binary
word, that is 0.5-0.8 n log2 n. The tests pin those three at n log2 n or
less.

Equal adjacent factors of a factorization share one `Word`: 0^k 1 yields k
references to a single `0` and one `1`. Words are immutable and compare by
value, so the sharing changes no output, equality or hash, and a pickle
(smaller, as it stores a shared Word once) loads equal.
"""

from __future__ import annotations

from .words import Factorization, Word, _unchecked_word


class ComparisonEngine:
    """A word's letters held by `words._storage`'s rule keyed on its largest
    letter, as only slices of one engine meet; `bytes()` checks that in C."""

    def __init__(self, letters: tuple[int, ...]):
        try:
            self.letters: bytes | tuple[int, ...] = bytes(letters)
        except ValueError:
            self.letters = tuple(letters)


def factor_ranges(letters: tuple[int, ...], *, suffixes=()):
    """(start, end) factor ranges left to right, plus the comparison count.

    With `suffixes`, a sequence of offsets c in range(len(letters)), a third
    element lists for each c, in the order given, the ranges of letters[c:]:
    the stack the loop holds once it has read that suffix, counted from c.
    Each equals `factor_ranges(letters[c:])[0]` and costs a copy of the
    stack.
    """
    cuts = sorted(set(suffixes), reverse=True) if suffixes else ()
    n = len(letters)
    if cuts and not (cuts[0] < n and cuts[-1] >= 0):
        raise ValueError("suffix offsets must lie in range(len(letters))")
    if not n:
        return [], 0
    text = ComparisonEngine(letters).letters
    # The last letter finds the stack empty: it is the last suffix's factor.
    ends = [n]
    emptied = 1  # loops that ran out of factors instead of stopping at one
    hi = n - 1
    snapshots = {}
    for c in cuts:
        emptied += _prepend(text, ends, c, hi)
        snapshots[c] = _suffix_ranges(ends, c)
        hi = c
    emptied += _prepend(text, ends, 0, hi)
    # One comparison per merge (n - len(ends) of them) and one per loop that
    # stopped at a factor.
    comparisons = (n - len(ends)) + (n - emptied)
    ends.reverse()
    ranges = list(zip([0] + ends[:-1], ends))
    if suffixes:
        return ranges, comparisons, [snapshots[c] for c in suffixes]
    return ranges, comparisons


def _suffix_ranges(ends: list[int], start: int) -> list[tuple[int, int]]:
    """The stack's factors, left to right, counted from `start`."""
    ends = [end - start for end in reversed(ends)]
    return list(zip([0] + ends[:-1], ends))


def _prepend(text, ends: list[int], lo: int, hi: int) -> int:
    """Read text[lo:hi] right to left onto `ends`, the stack of text[hi:]'s
    factorization, which then holds text[lo:]'s. Returns the loops that ran
    out of factors."""
    if lo == hi:
        return 0
    # ends[-1] is the end of the leftmost factor, whose start is always b1,
    # the end of the incoming range; merging extends the incoming range over
    # its right neighbours before its end is pushed.
    pop, push = ends.pop, ends.append
    emptied = 0
    # The incoming letter text[a1] = first, with b1 = a1 + 1 and
    # text[b1] = after, from text[hi - 1] down to text[lo].
    firsts = text[hi - 1 : lo - 1 : -1] if lo else text[hi - 1 :: -1]
    for b1, first, after in zip(range(hi, lo, -1), firsts, text[hi:lo:-1]):
        # A one-letter factor is <= any factor that starts with a letter
        # >= its own, so the first test alone decides it.
        if first <= after:
            push(b1)
            continue
        a1 = b1 - 1
        b1 = pop()
        while ends:
            other = text[b1]
            if first < other:
                break
            if first == other:
                # u = text[a1:b1] is <= v = text[b1:end] iff its first
                # min(|u|, |v|) letters are <= v's, or, when v is shorter,
                # strictly below all of v (v a prefix of u means u > v).
                end = ends[-1]
                size = b1 - a1
                if size <= end - b1:
                    if text[a1:b1] <= text[b1 : b1 + size]:
                        break
                elif text[a1 : a1 + end - b1] < text[b1:end]:
                    break
            b1 = pop()
        else:
            emptied += 1
        push(b1)
    return emptied


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
    """One factor: the stack's depth, without `factor_ranges`' range list."""
    letters = word.letters
    n = len(letters)
    ends = [n]
    _prepend(ComparisonEngine(letters).letters, ends, 0, n - 1)
    return len(ends) == 1
