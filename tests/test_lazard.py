"""Elimination procedure: reference table, reports, code sums, predictions."""

import hashlib
import heapq
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from nyldon import (
    BINARY,
    TERNARY,
    Alphabet,
    BudgetExceededError,
    InvariantError,
    LazardReport,
    LazardState,
    Word,
    code_check,
    count_words_after_stop,
    enumerate_nyldon,
    finishing_step,
    kraft_sums,
    lazard,
    lazard_code_check,
    lazard_report,
    lazard_run,
    materialize_y,
    predicted_stop_word,
)
from nyldon.acceptance import TABLE2_ROWS
from nyldon.errors import DEFAULT_WORD_BUDGET


def test_reference_rows_and_chosen_words():
    states = lazard_run(BINARY, 5)
    assert len(states) == 14
    for st, (members, chosen) in zip(states, TABLE2_ROWS):
        assert frozenset(str(w) for w in st.current) == members
        assert str(st.chosen_word) == chosen


def test_chosen_words_are_sorted_members(binary10, ternary6):
    for alphabet, members, lengths in (
        (BINARY, binary10, range(2, 11)),
        (TERNARY, ternary6, range(2, 7)),
    ):
        for n in lengths:
            chosen = [st.chosen_word for st in lazard_run(alphabet, n)]
            assert chosen == sorted(w for w in members.words() if len(w) <= n)


def _reference_elimination(size: int, n: int):
    """The procedure by its definition, on a plain set of letter tuples:
    Y <- (Y minus {u}) u*, truncated at n, with u = min Y. Yields u and the
    live Y before each removal. Shares no code with `lazard._eliminate`."""
    y = {(c,) for c in range(size)}
    heap = sorted(y)  # the words of Y, to read min Y from
    while heap:
        u = heapq.heappop(heap)
        yield u, y
        y.remove(u)
        if len(u) == n:
            continue  # no extension fits; spares a scan of Y per step
        new = {
            x + u * j
            for x in y
            if len(x) + len(u) <= n
            for j in range(1, (n - len(x)) // len(u) + 1)
        } - y
        y |= new
        for w in new:
            heapq.heappush(heap, w)


def _reference_finishing_step(size: int, n: int) -> tuple[list, int]:
    """The removal order, and the least step whose removed-so-far words and
    Y cover every word the run removes."""
    order = [u for u, _ in _reference_elimination(size, n)]
    uncovered = set(order)  # the run's output minus the words removed so far
    for step, (u, y) in enumerate(_reference_elimination(size, n), 1):
        if uncovered <= y:
            return order, step
        uncovered.remove(u)
    raise AssertionError("a complete run covers its own output")


@pytest.mark.parametrize(
    "alphabet, lengths",
    [(BINARY, range(1, 11)), (TERNARY, range(1, 7)), (Alphabet(257), (2,))],
    ids=["binary", "ternary", "257"],
)
def test_report_matches_the_reference_elimination(alphabet, lengths):
    for n in lengths:
        order, fs = _reference_finishing_step(alphabet.size, n)
        report = lazard_report(alphabet, n)
        assert [tuple(u) for u in report.encoded] == order
        assert report.finishing_step == fs


def test_snapshots_match_the_reference_elimination():
    for alphabet, lengths in ((BINARY, range(1, 11)), (TERNARY, range(1, 7))):
        for n in lengths:
            states = lazard_run(alphabet, n)
            reference = _reference_elimination(alphabet.size, n)
            for st, (u, y) in zip(states, reference, strict=True):
                assert st.chosen_word.letters == u
                assert {w.letters for w in st.current} == y


def test_indexing_builds_the_iterated_states():
    # run[i] filters the log; iteration replays it, as the eager build did
    for size, lengths in ((2, range(1, 11)), (3, range(1, 7)), (4, range(1, 6))):
        for n in lengths:
            run = lazard_run(Alphabet(size), n)
            states = list(run)
            assert len(run) == len(states)
            for i in range(-len(states), len(states)):
                assert run[i] == states[i]
            assert run[:6] == states[:6]
            assert run[1:] == states[1:]
            assert run[::-1] == states[::-1] == list(reversed(run))
            for bad in (len(run), -len(run) - 1):
                with pytest.raises(IndexError):
                    run[bad]


def test_run_keeps_a_log_not_the_states():
    # the eager snapshots of binary 13 peaked at 38 MB under tracemalloc
    tracemalloc.start()
    try:
        run = lazard_run(BINARY, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run) == 1377
    assert peak < 4 * 2**20


def test_budget_stops_where_the_reference_outgrows_it():
    # held[s]: the removed-plus-present words after step s, for s from 0 up
    # to the last step K exclusive; step K removes the one word left, so the
    # count stays put. The report's run pops no length-n word, so its error
    # names the step that the reference reaches by popping every word.
    for alphabet, n, steps in ((BINARY, 10, 226), (TERNARY, 6, 196)):
        held = [
            step - 1 + len(y)
            for step, (_, y) in enumerate(_reference_elimination(alphabet.size, n), 1)
        ]
        assert max(held) == len(held) == steps  # budgets from `steps` on let it finish
        for budget in range(2, steps + 75):
            step = next((s for s in range(1, len(held)) if held[s] > budget), None)
            if step is None:
                assert len(lazard._eliminate(alphabet, n, budget)[0]) == steps
                continue
            with pytest.raises(BudgetExceededError) as excinfo:
                lazard._eliminate(alphabet, n, budget)
            assert str(excinfo.value) == (
                f"the run truncated at {n} holds, at step {step}, {held[step]} "
                f"words (budget {budget})"
            )


# (size, n): total_steps, finishing_step, stop_word, words_after_stop and the
# first 16 hex digits of the sha256 of the removed words joined by "|"
PINNED_RUNS = {
    (2, 16): (8800, 7820, "10111110", 981, "73f0ab0227c2ff43"),
    (2, 18): (31042, 29039, "101111110", 2004, "a56253e40c28be3e"),
    (2, 20): (111013, 106962, "1011111110", 4052, "f737dd3855b389c0"),
    (3, 11): (25486, 24436, "21222", 1051, "c0b5603d455c6bb2"),
    (4, 8): (11464, 10803, "3231", 662, "f1f36fcac4063bdd"),
    (5, 6): (3409, 3133, "433", 277, "fe604e2b79864b78"),
}


@pytest.mark.parametrize("size, n", list(PINNED_RUNS), ids=lambda v: str(v))
def test_removal_order_matches_the_pinned_digest(size, n):
    # pinned from the run that popped every word, length n included
    report = lazard_report(Alphabet(size), n)
    digest = hashlib.sha256(b"|".join(bytes(x) for x in report.encoded)).hexdigest()
    assert (
        report.total_steps, report.finishing_step, str(report.stop_word),
        report.words_after_stop, digest[:16],
    ) == PINNED_RUNS[size, n]


def test_report_agrees_with_state_replay():
    # the two driver modes: the states' run pops every word, length n
    # included, and the report sorts its inert length-n words in at the end;
    # the two reports are equal as values, each holding its own encoding
    for alphabet, lengths in ((BINARY, range(1, 14)), (TERNARY, range(1, 9))):
        for n in lengths:
            from_states = finishing_step(lazard_run(alphabet, n))
            streamed = lazard_report(alphabet, n)
            assert from_states == streamed
            assert hash(from_states) == hash(streamed)
            assert from_states.chosen == streamed.chosen


def _largest_right_standard_factor(encoded: tuple):
    """The lex-largest right standard factor among the removed words: the
    right standard factor of a member w with |w| >= 2 is its longest proper
    suffix that is a member. Shares no code with `lazard._eliminate`."""
    members = set(encoded)
    factors = (
        next(w[i:] for i in range(1, len(w)) if w[i:] in members)
        for w in encoded
        if len(w) >= 2
    )
    return max(factors)


STANDARD_FACTOR_RUNS = [(2, n) for n in range(2, 17)] + [(3, n) for n in range(2, 10)]
STANDARD_FACTOR_RUNS += [
    pytest.param(size, n, marks=pytest.mark.slow)
    for size, lengths in ((2, range(17, 21)), (3, range(10, 12)), (4, range(2, 9)))
    for n in lengths
]


@pytest.mark.parametrize("size, n", STANDARD_FACTOR_RUNS, ids=lambda v: str(v))
def test_stop_word_is_the_largest_right_standard_factor(size, n):
    # the standard factorization of a right Hall set names the stop word
    # without the driver's bookkeeping of which step last added a word
    report = lazard_report(Alphabet(size), n)
    factor = _largest_right_standard_factor(report.encoded)
    assert report.stop_word.letters == tuple(factor)
    assert report.encoded.index(factor) + 2 == report.finishing_step


def test_chosen_is_a_tuple_of_the_sorted_members(binary10):
    report = lazard_report(BINARY, 10)
    chosen = report.chosen
    assert type(chosen) is tuple
    assert all(type(w) is Word for w in chosen)
    assert list(chosen) == sorted(binary10.words())
    assert report.chosen is chosen  # built once, on the first read


def test_report_builds_only_the_stop_word_until_chosen_is_read(monkeypatch):
    built = []
    unchecked = lazard._unchecked_word

    def counted(letters, alphabet):
        built.append(letters)
        return unchecked(letters, alphabet)

    monkeypatch.setattr(lazard, "_unchecked_word", counted)
    report = lazard_report(BINARY, 14)
    assert built == [report.stop_word.letters]
    assert len(report.chosen) == report.total_steps == 2538


def test_report_repr_leaves_out_the_removed_words():
    assert repr(lazard_report(BINARY, 5)) == (
        "LazardReport(alphabet=Alphabet(size=2), n=5, total_steps=14, "
        "finishing_step=4, stop_word=Word('10', size=2), words_after_stop=11)"
    )


def test_report_pickles_round_trip():
    report = lazard_report(BINARY, 10)
    for _ in range(2):  # before and after `chosen` is read
        back = pickle.loads(pickle.dumps(report))
        assert back == report
        assert back.chosen == report.chosen


def test_kraft_sums_match_the_iterated_states():
    # kraft_sums follows the removal list by a count recurrence alone, so it
    # checks every state without sharing code with the driver; its sums at
    # L = 1 ... n fix the count of each length
    for alphabet, lengths in ((BINARY, range(1, 11)), (TERNARY, range(1, 7))):
        s = alphabet.size
        for n in lengths:
            states = list(lazard_run(alphabet, n))
            report = lazard_report(alphabet, n)
            for L in range(1, n + 1):
                sums = kraft_sums(report, L)
                assert len(sums) == len(states)
                for st, value in zip(states, sums):
                    lengths_present = [len(w) for w in st.current if len(w) <= L]
                    assert value == sum(Fraction(1, s**p) for p in lengths_present)


def test_kraft_sums_past_n_match_replays():
    # past the run's bound the recurrence counts words no state holds; a
    # replay of each state's history truncated at L lists them
    report = lazard_report(BINARY, 5)
    for L in (8, 14):
        for st, value in zip(lazard_run(BINARY, 5), kraft_sums(report, L)):
            assert value == sum(Fraction(1, 2 ** len(w)) for w in materialize_y(st, L))


def test_every_snapshot_matches_a_replay_of_its_history():
    # materialize_y rebuilds the working set from the removal history alone,
    # never from the words the driver reports as added at each step
    for alphabet, lengths in ((BINARY, range(2, 11)), (TERNARY, range(2, 7))):
        for n in lengths:
            for st in lazard_run(alphabet, n):
                assert st.current == materialize_y(st, n)


def test_replayed_words_equal_the_checked_build():
    # materialize_y builds its Words without the per-letter range check
    for st in lazard_run(BINARY, 10):
        _, _, current = lazard._eliminate(BINARY, 10, None, history=st.chosen)
        assert materialize_y(st, 10) == frozenset(Word(tuple(x), BINARY) for x in current)


def test_snapshots_stop_at_the_word_budget():
    with pytest.raises(BudgetExceededError) as excinfo:
        lazard_run(BINARY, 14)
    # a full iteration builds each state's working set and `chosen` prefix
    assert str(excinfo.value) == (
        "the snapshots of the run truncated at 14 hold, at step 1203, 2002133 "
        f"words (budget {DEFAULT_WORD_BUDGET})"
    )
    assert lazard_report(BINARY, 14).total_steps == 2538


def test_large_alphabets_run_on_letter_tuples():
    # 257 letters do not fit in bytes; the members up to length 2 are the
    # letters and the pairs ab with a > b, removed in lex order
    alphabet = Alphabet(257)
    report = lazard_report(alphabet, 2)
    expected = sorted(
        [Word((a,), alphabet) for a in range(257)]
        + [Word((a, b), alphabet) for a in range(257) for b in range(a)]
    )
    assert list(report.chosen) == expected
    assert report.total_steps == 257 + 257 * 256 // 2


def test_reference_run_summary():
    report = lazard_report(BINARY, 5)
    assert report.total_steps == 14
    assert report.finishing_step == 4
    assert str(report.stop_word) == "10"
    assert report.words_after_stop == 11
    d = report.to_dict()
    assert d["finishing_step"] == 4
    assert d["stop_word"] == "10"


def test_predicted_stop_words_match_measured():
    for alphabet, lengths in ((BINARY, range(5, 17)), (TERNARY, range(5, 11))):
        for n in lengths:
            measured = lazard_report(alphabet, n).stop_word
            if n == 8:
                # outside the stated domain: the even form would be (m m')^2
                assert str(measured) == ("101" if alphabet is BINARY else "2120")
                with pytest.raises(ValueError):
                    predicted_stop_word(alphabet, n)
            else:
                assert measured == predicted_stop_word(alphabet, n)
    assert str(predicted_stop_word(BINARY, 18)) == "101111110"
    with pytest.raises(ValueError):
        predicted_stop_word(BINARY, 4)


def test_count_formula_regimes():
    # odd regime: 2n+1 with n >= 7, i.e. length >= 15
    assert count_words_after_stop(BINARY, 15) == 492
    assert count_words_after_stop(TERNARY, 15) == 9796
    # even regime: 2n with n >= 9, i.e. length >= 18
    assert count_words_after_stop(BINARY, 18) == (2**9 - 2) - 33
    # below the regimes (odd needs length >= 15, even >= 18) the closed
    # forms do not apply
    for bad in (5, 13, 16):
        with pytest.raises(ValueError):
            count_words_after_stop(BINARY, bad)
    assert count_words_after_stop(BINARY, 17) > 0  # odd regime includes 17


def test_odd_count_formula_matches_measurement():
    report = lazard_report(BINARY, 15)
    assert report.words_after_stop == count_words_after_stop(BINARY, 15) == 492


def test_even_count_form_undercounts_measurement():
    # the paper's even-length form, kept as it is: it falls far short of
    # what the run measures
    assert lazard_report(BINARY, 18).words_after_stop == 2004
    assert count_words_after_stop(BINARY, 18) == 477


def test_replaying_a_malformed_history_raises():
    # removing the word 0 three times: the third removal has nothing to remove
    st = lazard_run(BINARY, 5)[0]
    zero = Word.parse("0")
    bad = LazardState(BINARY, 5, 4, (zero, zero, zero), st.current, zero)
    with pytest.raises(InvariantError):
        materialize_y(bad, 4)
    encoded = lazard_report(BINARY, 1).encoded[:1] * 3  # 0, 0, 0
    by_hand = LazardReport(BINARY, 5, 3, 1, None, 3, encoded)
    with pytest.raises(InvariantError, match="removed word 0 was not counted present"):
        kraft_sums(by_hand, 4)


def test_kraft_sum_step1_is_exactly_one():
    report = lazard_report(BINARY, 5)
    for L in (1, 5, 40):
        assert kraft_sums(report, L)[0] == Fraction(1)


def test_kraft_sums_below_one_and_monotone():
    report = lazard_report(BINARY, 5)
    columns = [kraft_sums(report, L) for L in (8, 16, 24, 32)]
    for sums in list(zip(*columns))[1:]:
        assert all(s < 1 for s in sums)
        assert list(sums) == sorted(sums)


def test_all_steps_decode_uniquely():
    for st in lazard_run(BINARY, 5):
        assert lazard_code_check(st, 10)


def test_code_check_witness():
    bad = [Word.parse(t) for t in ("0", "00")]
    verdict = code_check(bad, 4)
    assert not verdict
    assert str(verdict.witness) == "00"  # 00 = (0)(0) = (00)
    assert verdict.count == 2
    good = [Word.parse(t) for t in ("1", "10")]
    assert code_check(good, 6)
    # depth first meets 001 = (0)(0)(1) = (001) before 10 = (1)(0) = (10);
    # the witness is the shortlex-least of the two
    verdict = code_check([Word.parse(t) for t in ("0", "1", "001", "10")], 3)
    assert (str(verdict.witness), verdict.count) == ("10", 2)


def test_ternary_run_smoke():
    report = lazard_report(TERNARY, 5)
    assert report.total_steps == sum(
        enumerate_nyldon(TERNARY, 5).counts_by_length().values()
    )
    assert report.stop_word == predicted_stop_word(TERNARY, 5)
