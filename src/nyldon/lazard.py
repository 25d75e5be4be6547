"""The right Lazard elimination procedure, truncated at a maximum length.

Starting from the alphabet, each step removes the lexicographically least word
u from the working set and appends every suffix-power extension x u^j (j >= 1)
that still fits under the length bound. The sequence of removed words
enumerates the members in increasing lexicographic order; the run stops when
the working set is reduced to a single word.

Two drivers are provided: `lazard_run` keeps every intermediate state (useful
for small bounds and for inspecting the working sets), while `lazard_report`
streams the same procedure with byte-encoded words and a lazy-deletion heap so
that bounds around 18 letters complete quickly.

The finishing step of a complete run is the first step whose removed-so-far
words together with the working set already cover every word the run will ever
remove. The word removed immediately before that step is the stop word; closed
forms for it and for the number of steps after it are provided for the length
regimes where they are exact.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BudgetExceededError, InvariantError
from .words import Alphabet, Word

DEFAULT_WORD_BUDGET = 2_000_000


@dataclass(frozen=True)
class LazardState:
    """Snapshot taken at the start of a step, before its word is removed."""

    alphabet: Alphabet
    n: int
    step: int
    chosen: tuple[Word, ...]  # words removed at earlier steps, in order
    current: frozenset[Word]  # working set at this step, truncated at n
    chosen_word: Word  # the word this step removes (least of current)


@dataclass(frozen=True)
class LazardReport:
    alphabet: Alphabet
    n: int
    total_steps: int
    finishing_step: int
    stop_word: Word | None
    words_after_stop: int
    chosen: tuple[Word, ...]  # every removed word, in removal order

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "max_len": self.n,
            "total_steps": self.total_steps,
            "finishing_step": self.finishing_step,
            "stop_word": None if self.stop_word is None else str(self.stop_word),
            "words_after_stop": self.words_after_stop,
        }


@dataclass(frozen=True)
class CodeCheck:
    ok: bool
    witness: Word | None = None
    count: int | None = None  # number of parses of the witness

    def __bool__(self) -> bool:
        return self.ok


def lazard_run(alphabet: Alphabet, n: int) -> list[LazardState]:
    """Run the procedure keeping full state snapshots (small n only)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    current: set[Word] = {Word((c,), alphabet) for c in range(alphabet.size)}
    chosen: list[Word] = []
    states: list[LazardState] = []
    step = 0
    while current:
        step += 1
        u = min(current)
        states.append(
            LazardState(alphabet, n, step, tuple(chosen), frozenset(current), u)
        )
        chosen.append(u)
        current.remove(u)
        if not current:
            break
        additions: list[Word] = []
        for x in current:
            ext = x
            while len(ext) + len(u) <= n:
                ext = ext + u
                additions.append(ext)
        current.update(additions)
    return states


def finishing_step(states: list[LazardState]) -> LazardReport:
    """Report for a complete run: the finishing step is the least step whose
    removed-plus-current words already cover the run's whole output."""
    if not states or len(states[-1].current) != 1:
        raise ValueError("finishing_step needs the states of a complete run")
    last = states[-1]
    chosen = last.chosen + (last.chosen_word,)
    final_members = set(chosen)
    fs = None
    for st in states:
        if final_members <= (set(st.chosen) | set(st.current)):
            fs = st.step
            break
    if fs is None:
        raise InvariantError("a complete run must cover its own output")
    stop = chosen[fs - 2] if fs >= 2 else None
    return LazardReport(
        alphabet=last.alphabet,
        n=last.n,
        total_steps=len(states),
        finishing_step=fs,
        stop_word=stop,
        words_after_stop=len(states) - (fs - 1),
        chosen=chosen,
    )


def lazard_report(alphabet: Alphabet, n: int) -> LazardReport:
    """Run the procedure without keeping states; fast for n up to ~20."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if alphabet.size > 256:
        raise ValueError("streaming driver encodes letters as single bytes")

    in_y: set[bytes] = set()
    by_len: dict[int, set[bytes]] = defaultdict(set)
    heap: list[bytes] = []
    first_seen: dict[bytes, int] = {}
    chosen: list[bytes] = []

    def add(word: bytes, step: int) -> None:
        if word in first_seen:
            if word in in_y:
                return  # set semantics: the extension already exists
            raise InvariantError(
                f"removed word {word!r} was regenerated at step {step}"
            )
        first_seen[word] = step
        in_y.add(word)
        by_len[len(word)].add(word)
        heapq.heappush(heap, word)

    for c in range(alphabet.size):
        add(bytes([c]), 1)

    step = 0
    while in_y:
        step += 1
        while heap[0] not in in_y:
            heapq.heappop(heap)
        u = heapq.heappop(heap)
        chosen.append(u)
        in_y.remove(u)
        by_len[len(u)].remove(u)
        if not in_y:
            break
        p = len(u)
        for q in range(1, n - p + 1):
            for x in list(by_len[q]):
                ext = x
                while len(ext) + p <= n:
                    ext = ext + u
                    add(ext, step + 1)

    if len(first_seen) != len(chosen):
        raise InvariantError("every word seen must get removed")
    total = step
    fs = max(first_seen.values())
    stop = chosen[fs - 2] if fs >= 2 else None
    return LazardReport(
        alphabet=alphabet,
        n=n,
        total_steps=total,
        finishing_step=fs,
        stop_word=None if stop is None else Word(tuple(stop), alphabet),
        words_after_stop=total - (fs - 1),
        chosen=tuple(Word(tuple(b), alphabet) for b in chosen),
    )


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
    counts = kraft_counts(state, max_len)
    s = state.alphabet.size
    return sum(
        (Fraction(counts[length], s**length) for length in range(1, max_len + 1)),
        Fraction(0),
    )


def materialize_y(
    state: LazardState, max_len: int, budget: int | None = 500_000
) -> frozenset[Word]:
    """Replay the removal history to list the working set up to max_len."""
    alphabet = state.alphabet
    current: set[tuple[int, ...]] = {(c,) for c in range(alphabet.size)}
    for u in state.chosen:
        ut = u.letters
        p = len(ut)
        if p > max_len:
            continue
        if ut not in current:
            raise InvariantError(f"history removes {u}, which is not present")
        current.remove(ut)
        additions: list[tuple[int, ...]] = []
        for x in current:
            ext = x
            while len(ext) + p <= max_len:
                ext = ext + ut
                additions.append(ext)
        current.update(additions)
        if budget is not None and len(current) > budget:
            raise BudgetExceededError(
                f"materialized set exceeds {budget} words at step {state.step}"
            )
    return frozenset(Word(t, alphabet) for t in current)


def code_check(
    words: Iterable[Word], max_len: int, budget: int | None = DEFAULT_WORD_BUDGET
) -> CodeCheck:
    """Unique decodability: no word of length <= max_len parses two ways."""
    pool = sorted(set(words))
    if not pool:
        return CodeCheck(True)
    alphabet = pool[0].alphabet
    for w in pool:
        if w.alphabet != alphabet:
            raise ValueError("code words must share one alphabet")
        if len(w) == 0:
            raise ValueError("code words must be nonempty")
    codewords = {w.letters for w in pool}

    total = sum(alphabet.size**n for n in range(1, max_len + 1))
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"decodability sweep would visit {total} words (budget {budget})"
        )

    def parse_count(tup: tuple[int, ...]) -> int:
        n = len(tup)
        memo: list[int | None] = [None] * (n + 1)

        def rec(pos: int) -> int:
            if pos == n:
                return 1
            if memo[pos] is not None:
                return memo[pos]
            total = 0
            for t in range(pos + 1, n + 1):
                if tup[pos:t] in codewords:
                    total += rec(t)
            memo[pos] = total
            return total

        return rec(0)

    for n in range(1, max_len + 1):
        for tup in itertools.product(range(alphabet.size), repeat=n):
            count = parse_count(tup)
            if count > 1:
                return CodeCheck(False, Word(tup, alphabet), count)
    return CodeCheck(True)


def lazard_code_check(
    state: LazardState, max_len: int = 10, budget: int | None = DEFAULT_WORD_BUDGET
) -> CodeCheck:
    """Unique decodability of the step's working set, truncated at max_len."""
    return code_check(materialize_y(state, max_len), max_len, budget=budget)


def largest_member_upto(alphabet: Alphabet, length: int) -> Word:
    """Lexicographically greatest member among all lengths <= length."""
    if length < 1:
        raise ValueError("length must be at least 1")
    m = alphabet.size - 1
    if length == 1:
        return Word((m,), alphabet)
    return Word((m, m - 1) + (m,) * (length - 2), alphabet)


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

    Exact for odd lengths 2n+1 with n >= 7 and even lengths 2n with n >= 9;
    outside those regimes, measure with lazard_report instead.
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
