"""The right Lazard elimination procedure, truncated at a maximum length.

Starting from the alphabet, each step removes the lexicographically least word
u from the working set and appends every suffix-power extension x u^j (j >= 1)
that still fits under the length bound. The sequence of removed words
enumerates the members in increasing lexicographic order; the run stops when
the working set is reduced to a single word.

One driver runs the procedure, over byte-encoded words (letter tuples for
alphabets above 256 letters). Its working set is one set per length, beside
a heap of the words added. `lazard_report` streams it and keeps only the
removed words, encoded as `_eliminate` holds them; its `chosen` Words are
built on the first read, so a caller that needs only the summary builds one
Word, the stop word. Its length-n words are inert: they extend nothing and
are extended by nothing, so they skip the heap and the sets for a list that
one sort puts in order (52 377 of the 111 013 words of binary 20).
`lazard_run` keeps a log of the driver's run, not a snapshot per step: every
added Word, built once, the step that removes each, and the number added
before each step. Its `LazardRun` builds a step's state when it is read, and
an iteration replays the log, each state the previous one minus the removed
word plus the words added since.
`materialize_y` replays a removal history through the same elimination step.
The driver checks the words it holds against the word budget after every step
that adds some, so all three stop at the step where a run outgrows it.

The finishing step of a complete run is the first step whose removed-so-far
words together with the working set already cover every word the run will ever
remove: the step after the last one whose removal adds a word. The driver
returns it, so `lazard_report` and `lazard_run` carry the value it counted,
and `finishing_step(run)` reads it off the run. The word removed immediately
before it, that last one, is the stop word. By the standard factorization of
a right Hall set (Reutenauer, *Free Lie Algebras*, 1993, ch. 4), the right
standard factor of a member w with |w| >= 2 is its longest proper suffix
that is a member; the stop word is the lex-largest such factor among the
removed words. That is checked, not proved, at binary n <= 20, ternary
n <= 11 and quaternary n <= 8. Closed forms for the stop word and for the
number of steps after it are provided, each with the length regime it covers
(the even-length count is the paper's form, which undercounts).

`kraft_sums` reads a report's removed words once: the star-closure
recurrence on counts per length follows the working set from step to step.
"""

from __future__ import annotations

import bisect
import sys
from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import compress, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DEFAULT_WORD_BUDGET, InvariantError
from .errors import check_budget, check_word_budget
from .words import Alphabet, Word, _Frozen, _field_repr, _storage, _unchecked_word

if TYPE_CHECKING:
    from fractions import Fraction

# LazardRun.removed_at of a word no step has removed yet (a complete run
# removes every word): an int, so `step.__le__` answers True or False, where
# float("inf") would make it return NotImplemented, which is truthy
_NEVER = sys.maxsize


class LazardState(_Frozen):
    """A step's state at its start, before its word is removed:
    `chosen` holds the words removed at earlier steps, in order, `current`
    the working set truncated at n, and `chosen_word` the word this step
    removes (the least of `current`)."""

    __slots__ = ("alphabet", "n", "step", "chosen", "current", "chosen_word")


class _ChosenCache(_Frozen):
    # LazardReport.chosen once read; in a base class, as a class's own
    # __slots__ are its fields
    __slots__ = ("_chosen",)


class LazardReport(_ChosenCache):
    """`encoded` holds every removed word in removal order, encoded as
    `_eliminate` holds it; `chosen` holds them as Words."""

    __slots__ = ("alphabet", "n", "total_steps", "finishing_step", "stop_word",
                 "words_after_stop", "encoded")

    def __repr__(self) -> str:
        # without `encoded`: a binary-20 report removes 111 013 words
        return _field_repr(self, self.__slots__[:-1])

    @property
    def chosen(self) -> tuple[Word, ...]:
        """Every removed word, in removal order; built on the first read."""
        try:
            return self._chosen
        except AttributeError:
            alphabet = self.alphabet
            chosen = tuple(_unchecked_word(tuple(x), alphabet) for x in self.encoded)
            object.__setattr__(self, "_chosen", chosen)
            return chosen

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "max_len": self.n,
            "total_steps": self.total_steps,
            "finishing_step": self.finishing_step,
            "stop_word": None if self.stop_word is None else str(self.stop_word),
            "words_after_stop": self.words_after_stop,
        }


class CodeCheck(_Frozen):
    """When not ok, `witness` parses `count` ways."""

    __slots__ = ("ok", "witness", "count")

    def __bool__(self) -> bool:
        return self.ok


def _eliminate(
    alphabet: Alphabet, n: int, budget: int | None, on_step=None, history=None
):
    """The procedure truncated at n, over words held by `words._storage`.

    The working set is held as one set per length, `by_len[length]`, and,
    when no history is given, beside a heap of every word ever added. Each
    step removes the least word u of the working set, or the next word of
    `history` up to length n when one is given, then adds every x u^j
    (j >= 1) that fits under the bound.
    `on_step(step, u, present, added)` is called before each removal, with
    the number of words in the working set and the words added since the
    previous call (the letters at step 1), so a caller can follow the working
    set as the previous one minus the removed word plus `added`. Returns the
    removed words, the finishing step (the step after the last one that adds
    a word) and the final working set. Raises BudgetExceededError once the
    words seen (removed or present) exceed `budget`, naming the step.

    Without a history the removed words are not kept. There u is the least
    word present, so every x present is greater than u and, being greater,
    not a prefix of it; hence x u^j > u, while every word removed so far is
    at most u. An extension at most u would be a removed word coming back,
    and raises InvariantError. A history may remove words in any order, and
    a replay at a larger bound meets extensions below u legitimately, so
    that mode keeps the removed words and checks against them.

    Without a history, an extension added twice raises InvariantError too:
    (Y minus {u}) u* is a code, so every x u^j is new. A run with neither a
    history nor `on_step` keeps its length-n words inert, in a list that one
    sort at the end merges into the removed words, and checks it for
    duplicates there; a step is then counted as in a run that pops every
    word.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    encode = _storage(alphabet.size)
    # the words added since the last on_step call: the letters at step 1
    added = [encode((c,)) for c in range(alphabet.size)]
    by_len = [set() for _ in range(n + 1)]
    by_len[1].update(added)
    inert: list = []  # the length-n extensions of a run that reports no step
    top = n if on_step is None and history is None else n + 1  # n + 1: none inert
    if history is None:
        heap = list(added)  # the encoding keeps the letters in order

        def pops():  # the least word, until the heap runs dry
            while heap:
                yield heappop(heap)
        removals, removed = pops(), None
    else:
        removals = (encode(u.letters) for u in history if len(u) <= n)
        removed = set()
    chosen: list = []
    last, finishing, seen = None, 1, len(added)  # last: the last word that added one

    def at(u) -> int:  # u's step in a run that pops every word
        return step + sum(1 for w in inert if w < u)
    for step, u in enumerate(removals, 1):
        if on_step is not None:
            on_step(step, u, seen - step + 1, added)
        try:
            by_len[len(u)].remove(u)
        except KeyError:
            raise InvariantError(
                f"history removes {Word(tuple(u), alphabet)}, which is not present"
            ) from None
        if removed is not None:
            removed.add(u)
        room = n - len(u)  # the longest word that u can still extend
        stop = top - len(u)  # extend while shorter: room, or room + 1
        chosen.append(u)
        added = []
        # Longest x first: an extension is longer than its x, so each length
        # is read before this step adds to it.
        for q in range(room, 0, -1):
            for x in by_len[q]:
                ext = x
                while len(ext) < stop:
                    ext = ext + u
                    bucket = by_len[len(ext)]
                    if ext in bucket:
                        if removed is None:
                            raise _twice(ext, alphabet)
                        continue  # a replay keeps set semantics
                    if removed is None:
                        if ext <= u:
                            raise _regenerated(ext, alphabet, at(u))
                        heappush(heap, ext)
                    elif ext in removed:
                        raise _regenerated(ext, alphabet, step)
                    bucket.add(ext)
                    added.append(ext)
                if len(ext) == room:  # only where top is n: ext u is inert
                    ext = ext + u
                    if ext <= u:
                        raise _regenerated(ext, alphabet, at(u))
                    inert.append(ext)
                    added.append(ext)
        if added:
            last, finishing = u, step + 1
            seen += len(added)
            if budget is not None and seen > budget:
                what = "the run truncated at {} holds, at step {},"
                check_budget(seen, budget, what, n, at(u))
    if inert:
        inert.sort()
        for a, b in zip(inert, inert[1:]):
            if a == b:
                raise _twice(a, alphabet)
        finishing += bisect.bisect_left(inert, last)  # inert words removed before it
        chosen += inert
        chosen.sort()  # two sorted runs: one merge
    return chosen, finishing, set().union(*by_len)


def _twice(ext, alphabet: Alphabet) -> InvariantError:
    return InvariantError(f"word {Word(tuple(ext), alphabet)} was added twice")


def _regenerated(ext, alphabet: Alphabet, step: int) -> InvariantError:
    return InvariantError(
        f"removed word {Word(tuple(ext), alphabet)} was regenerated at step {step + 1}"
    )


class LazardRun(_Frozen, Sequence):
    """The states of a complete run, as a read-only sequence over the
    driver's log: every added Word in order (`words`), the number added
    before each step (`before`), the step that removes each word
    (`removed_at`), the removed Words in order (`chosen`) and the driver's
    `finishing_step`. Each state is built when it is read; `run[i]` filters
    the words added before its step to those not yet removed. Iteration
    replays the log once, each state the previous one minus the removed
    word plus the words added since."""

    __slots__ = ("alphabet", "n", "words", "before", "removed_at", "chosen",
                 "finishing_step")

    def __repr__(self) -> str:
        # the log without its words: a binary-13 run adds 1 377
        return f"LazardRun(alphabet={self.alphabet!r}, n={self.n}, steps={len(self)})"

    def __len__(self) -> int:
        return len(self.chosen)

    def __getitem__(self, index):
        try:
            i = range(len(self.chosen))[index]  # negatives and slices as a list's
        except IndexError:
            raise IndexError("LazardRun index out of range") from None
        if isinstance(i, range):
            return [self[j] for j in i]
        step, added = i + 1, self.before[i]
        present = map(step.__le__, islice(self.removed_at, added))
        current = frozenset(compress(self.words, present))
        return LazardState(
            self.alphabet, self.n, step, self.chosen[:i], current, self.chosen[i]
        )

    def __iter__(self) -> Iterator[LazardState]:
        alphabet, n, words, chosen = self.alphabet, self.n, self.words, self.chosen
        live: set[Word] = set()
        added = 0
        for i, upto in enumerate(self.before):
            if i:
                live.remove(chosen[i - 1])
            live.update(words[added:upto])
            added = upto
            yield LazardState(alphabet, n, i + 1, chosen[:i], frozenset(live), chosen[i])


def lazard_run(alphabet: Alphabet, n: int) -> LazardRun:
    """Run the procedure keeping a log from which every step's state is
    built when read. Raises BudgetExceededError once a full iteration would
    build more than DEFAULT_WORD_BUDGET words in total, counting each
    state's working set and its `chosen` prefix (binary n <= 13 fits).

    The log builds each Word once, after the run, and keeps the driver's
    finishing step, so the run is always complete."""
    added_words: list = []  # encoded, in the order the driver adds them
    before: list[int] = []
    removals: list = []  # encoded, in removal order
    held = 0

    def log(step: int, u, present: int, added: list) -> None:
        nonlocal held
        held += present + step - 1
        what = "the snapshots of the run truncated at {} hold, at step {},"
        check_budget(held, DEFAULT_WORD_BUDGET, what, n, step)
        added_words.extend(added)
        before.append(len(added_words))
        removals.append(u)

    _, fs, _ = _eliminate(alphabet, n, DEFAULT_WORD_BUDGET, log)
    words = tuple(map(_unchecked_word, map(tuple, added_words), repeat(alphabet)))
    position = dict(zip(added_words, range(len(words))))
    removed = list(map(position.__getitem__, removals))  # each step's word
    removed_at = [_NEVER] * len(words)
    for step, i in enumerate(removed, 1):
        removed_at[i] = step
    chosen = tuple(map(words.__getitem__, removed))
    return LazardRun(alphabet, n, words, tuple(before), tuple(removed_at), chosen, fs)


def _report(alphabet: Alphabet, n: int, encoded: tuple, fs: int) -> LazardReport:
    """The summary of a complete run with these encoded removed words and
    finishing step. Only the stop word is built as a Word here."""
    stop = _unchecked_word(tuple(encoded[fs - 2]), alphabet) if fs >= 2 else None
    return LazardReport(alphabet, n, len(encoded), fs, stop, len(encoded) - (fs - 1), encoded)


def finishing_step(run: LazardRun) -> LazardReport:
    """The report of a run, with the finishing step its driver counted."""
    encode = _storage(run.alphabet.size)
    encoded = tuple(encode(w.letters) for w in run.chosen)
    return _report(run.alphabet, run.n, encoded, run.finishing_step)


def lazard_report(alphabet: Alphabet, n: int) -> LazardReport:
    """Run the procedure without keeping states: binary 20 (111 013 steps)
    takes about 0.13 s on 2 cores with Python 3.11."""
    encoded, fs, _ = _eliminate(alphabet, n, DEFAULT_WORD_BUDGET)
    return _report(alphabet, n, tuple(encoded), fs)


def kraft_sums(report: LazardReport, max_len: int) -> list[Fraction]:
    """The exact partial Kraft sum of each step's working set over lengths
    <= max_len, in step order: the sum of s^-|w| over the words present
    before the step's removal. One pass over the removed words' lengths
    keeps the count of each length by the star-closure recurrence: removing
    u of length p turns Y into (Y minus {u}) u*, so counts[p] drops by one
    and counts[l] gains counts[l - p] for l = p ... max_len (index 0 unused).
    Raises InvariantError when a removal finds no word of its length."""
    from fractions import Fraction

    s = report.alphabet.size
    counts = [0] * (max_len + 1)
    if max_len >= 1:
        counts[1] = s
    scale = s**max_len
    sums = []
    for i, p in enumerate(map(len, report.encoded)):
        total = 0
        for count in counts:  # base-s digits over s^L; counts[0] is 0
            total = total * s + count
        sums.append(Fraction(total, scale))
        if p > max_len:
            continue
        counts[p] -= 1
        if counts[p] < 0:
            u = _unchecked_word(tuple(report.encoded[i]), report.alphabet)
            raise InvariantError(f"removed word {u} was not counted present")
        for length in range(p, max_len + 1):
            counts[length] += counts[length - p]
    return sums


def materialize_y(
    state: LazardState, max_len: int, budget: int | None = DEFAULT_WORD_BUDGET
) -> frozenset[Word]:
    """Replay the removal history to list the working set up to max_len; the
    words the replay holds count against `budget`."""
    _, _, current = _eliminate(state.alphabet, max_len, budget, history=state.chosen)
    return frozenset(_unchecked_word(tuple(x), state.alphabet) for x in current)


def code_check(
    words: Iterable[Word], max_len: int, budget: int | None = DEFAULT_WORD_BUDGET
) -> CodeCheck:
    """Unique decodability: no word of length <= max_len parses two ways;
    the witness of a failure is the shortlex-least word that does.

    One `oracle.parse_sweep` visits every word once, at O(t) codeword
    lookups for a word of length t."""
    from .oracle import parse_sweep

    pool = sorted(set(words))
    if not pool:
        return CodeCheck(True, None, None)
    alphabet = pool[0].alphabet
    for w in pool:
        if w.alphabet != alphabet:
            raise ValueError("code words must share one alphabet")
        if len(w) == 0:
            raise ValueError("code words must be nonempty")
    codewords = frozenset(w.letters for w in pool)

    check_word_budget("decodability sweep", alphabet.size, max_len, budget)
    for tup, count in parse_sweep(
        alphabet.size, max_len, codewords, None, lambda count: count > 1, least=True
    ):
        return CodeCheck(False, Word(tup, alphabet), count)
    return CodeCheck(True, None, None)


def lazard_code_check(
    state: LazardState, max_len: int = 10, budget: int | None = DEFAULT_WORD_BUDGET
) -> CodeCheck:
    """Unique decodability of the step's working set, truncated at max_len."""
    return code_check(materialize_y(state, max_len), max_len, budget=budget)


def predicted_stop_word(alphabet: Alphabet, length: int) -> Word:
    """Closed form for the stop word of a run truncated at `length`.

    Exact for odd lengths >= 5 and for even lengths 6 and >= 10; with top
    letter m and second letter m' the word is m m' m^((length-5)/2) for odd
    lengths and m m' m^((length-6)/2) m' for even ones. Length 8 is excluded:
    there the even form is the square (m m')^2, which is not primitive and so
    never removed (binary runs stop after 101, ternary ones after 2120).
    """
    m = alphabet.size - 1
    if length % 2 == 1:
        if length < 5:
            raise ValueError("closed form needs odd length >= 5")
        return Word((m, m - 1) + (m,) * ((length - 5) // 2), alphabet)
    if length < 6 or length == 8:
        raise ValueError("closed form needs even length 6 or >= 10")
    return Word((m, m - 1) + (m,) * ((length - 6) // 2) + (m - 1,), alphabet)


def count_words_after_stop(alphabet: Alphabet, length: int) -> int:
    """Closed form for total_steps - (finishing_step - 1).

    The odd form is exact for lengths 2n+1 with n >= 7 (binary 15: 492, as
    lazard_report measures). The even form, for lengths 2n with n >= 9, is
    the paper's and undercounts: at binary 18 it gives 477 where
    lazard_report measures 2004, and at binary 20 it gives 989 against 4052.
    Outside the odd regime, measure with lazard_report instead.
    """
    s = alphabet.size
    if length % 2 == 1:
        n = (length - 1) // 2
        if n < 7:
            raise ValueError(
                "closed form needs length 2n+1 with n >= 7; use lazard_report"
            )
        return (s ** (n + 2) - s) // (s - 1) - (s**3 + s**2 + 2 * s + 2)
    n = length // 2
    if n < 9:
        raise ValueError(
            "closed form needs length 2n with n >= 9; use lazard_report"
        )
    return (s**n - s) // (s - 1) - (s**4 + s**3 + s**2 + s + 3)
