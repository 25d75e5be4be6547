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
`lazard_run` adds a per-step snapshot of the working set, built from the
previous snapshot minus the removed word plus the words the driver reports
as added, so each word is converted and hashed once.
`materialize_y` replays a removal history through the same elimination step.
The driver checks the words it holds against the word budget after every step
that adds some, so all three stop at the step where a run outgrows it.

The finishing step of a complete run is the first step whose removed-so-far
words together with the working set already cover every word the run will ever
remove: the step after the last one whose removal adds a word. The word
removed immediately before it, that last one, is the stop word; closed
forms for it and for the number of steps after it are provided, each with the
length regime it covers (the even-length count is the paper's form, which
undercounts).
"""

from __future__ import annotations

import bisect
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable

from .errors import DEFAULT_WORD_BUDGET, InvariantError
from .errors import check_budget, check_word_budget
from .words import Alphabet, Word, _Frozen, _field_repr, _storage, _unchecked_word

if TYPE_CHECKING:
    from fractions import Fraction


class LazardState(_Frozen):
    """Snapshot taken at the start of a step, before its word is removed:
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

    A run with neither a history nor `on_step` keeps its length-n words
    inert, in a list that one sort at the end merges into the removed words;
    a step is then counted as in a run that pops every word. A duplicate
    there raises InvariantError: (Y minus {u}) u* is a code.
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
                        continue  # set semantics: the extension exists
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
                raise InvariantError(f"word {Word(tuple(a), alphabet)} was added twice")
        finishing += bisect.bisect_left(inert, last)  # inert words removed before it
        chosen += inert
        chosen.sort()  # two sorted runs: one merge
    return chosen, finishing, set().union(*by_len)


def _regenerated(ext, alphabet: Alphabet, step: int) -> InvariantError:
    return InvariantError(
        f"removed word {Word(tuple(ext), alphabet)} was regenerated at step {step + 1}"
    )


def lazard_run(alphabet: Alphabet, n: int) -> list[LazardState]:
    """Run the procedure keeping a snapshot of every step. Raises
    BudgetExceededError once the snapshots would hold more than
    DEFAULT_WORD_BUDGET words in total, counting each snapshot's working set
    and its `chosen` prefix (binary n <= 13 fits).

    Each snapshot is the previous one minus the word removed there plus the
    words the driver added since, so each Word is built and hashed once, when
    it first appears, and copied into later snapshots with its stored hash."""
    words: dict = {}  # encoded word -> Word
    live: set[Word] = set()  # the working set at the latest snapshot
    chosen: list[Word] = []
    states: list[LazardState] = []
    held = 0

    def snapshot(step: int, u, present: int, added: list) -> None:
        nonlocal held
        held += present + len(chosen)
        what = "the snapshots of the run truncated at {} hold, at step {},"
        check_budget(held, DEFAULT_WORD_BUDGET, what, n, step)
        if chosen:
            live.remove(chosen[-1])
        for x in added:
            w = words[x] = _unchecked_word(tuple(x), alphabet)
            live.add(w)
        states.append(
            LazardState(alphabet, n, step, tuple(chosen), frozenset(live), words[u])
        )
        chosen.append(words[u])

    _eliminate(alphabet, n, DEFAULT_WORD_BUDGET, snapshot)
    return states


def _report(alphabet: Alphabet, n: int, encoded: tuple, fs: int) -> LazardReport:
    """The summary of a complete run with these encoded removed words and
    finishing step. Only the stop word is built as a Word here."""
    stop = _unchecked_word(tuple(encoded[fs - 2]), alphabet) if fs >= 2 else None
    return LazardReport(alphabet, n, len(encoded), fs, stop, len(encoded) - (fs - 1), encoded)


def finishing_step(states: list[LazardState]) -> LazardReport:
    """Report for a complete run: the finishing step is the least step whose
    removed-plus-current words already cover the run's whole output."""
    if not states or len(states[-1].current) != 1:
        raise ValueError("finishing_step needs the states of a complete run")
    last = states[-1]
    chosen = last.chosen + (last.chosen_word,)
    final_members = set(chosen)

    def covers(st: LazardState) -> bool:
        return final_members <= (set(st.chosen) | set(st.current))

    if not covers(last):
        raise InvariantError("a complete run must cover its own output")
    # coverage never goes away once reached, so the least covering step bisects
    fs = states[bisect.bisect_left(states, True, key=covers)].step
    encode = _storage(last.alphabet.size)
    return _report(last.alphabet, last.n, tuple(encode(w.letters) for w in chosen), fs)


def lazard_report(alphabet: Alphabet, n: int) -> LazardReport:
    """Run the procedure without keeping states: binary 20 (111 013 steps)
    takes about 0.13 s on 2 cores with Python 3.11."""
    encoded, fs, _ = _eliminate(alphabet, n, DEFAULT_WORD_BUDGET)
    return _report(alphabet, n, tuple(encoded), fs)


def kraft_counts(state: LazardState, max_len: int) -> list[int]:
    """Number of working-set words per length up to max_len, by the exact
    star-closure recurrence on counts (index 0 unused)."""
    counts = [0] * (max_len + 1)
    if max_len >= 1:
        counts[1] = state.alphabet.size
    for u in state.chosen:
        p = len(u)
        if p > max_len:
            continue
        counts[p] -= 1
        if counts[p] < 0:
            raise InvariantError(f"removed word {u} was not counted present")
        for length in range(p, max_len + 1):
            counts[length] += counts[length - p]
    return counts


def kraft_sum(state: LazardState, max_len: int) -> Fraction:
    """Exact partial Kraft sum of the working set over lengths <= max_len."""
    from fractions import Fraction

    counts = kraft_counts(state, max_len)
    s = state.alphabet.size
    return sum(
        (Fraction(counts[length], s**length) for length in range(1, max_len + 1)),
        Fraction(0),
    )


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
