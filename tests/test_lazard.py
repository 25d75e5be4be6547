"""Elimination procedure: reference table, reports, code sums, predictions."""

from fractions import Fraction

import pytest

from nyldon import (
    BINARY,
    TERNARY,
    InvariantError,
    LazardState,
    Word,
    code_check,
    count_words_after_stop,
    enumerate_nyldon,
    finishing_step,
    kraft_sum,
    lazard_code_check,
    lazard_report,
    lazard_run,
    materialize_y,
    predicted_stop_word,
)
from nyldon.acceptance import TABLE2_ROWS
from nyldon.lazard import kraft_counts, largest_member_upto


def test_reference_rows_and_chosen_words():
    states = lazard_run(BINARY, 5)
    assert len(states) == 14
    for st, (members, chosen) in zip(states, TABLE2_ROWS):
        assert frozenset(str(w) for w in st.current) == members
        assert str(st.chosen_word) == chosen


def test_chosen_words_are_sorted_members():
    states = lazard_run(BINARY, 7)
    chosen = [st.chosen_word for st in states]
    assert chosen == sorted(chosen)
    expected = sorted(enumerate_nyldon(BINARY, 7).words())
    assert chosen == expected


def test_report_agrees_with_state_replay():
    for n in range(2, 10):
        states = lazard_run(BINARY, n)
        from_states = finishing_step(states)
        streamed = lazard_report(BINARY, n)
        assert from_states.finishing_step == streamed.finishing_step
        assert from_states.stop_word == streamed.stop_word
        assert from_states.words_after_stop == streamed.words_after_stop
        assert from_states.total_steps == streamed.total_steps
        assert from_states.chosen == streamed.chosen


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


def test_kraft_counts_match_materialization():
    states = lazard_run(BINARY, 5)
    for st in states[:6]:
        counts = kraft_counts(st, 14)
        mat = materialize_y(st, 14)
        for length in range(1, 15):
            assert counts[length] == sum(1 for w in mat if len(w) == length)


def test_replaying_a_malformed_history_raises():
    # removing the word 0 three times: the third removal has nothing to remove
    st = lazard_run(BINARY, 5)[0]
    zero = Word.parse("0")
    bad = LazardState(BINARY, 5, 4, (zero, zero, zero), st.current, zero)
    with pytest.raises(InvariantError):
        kraft_counts(bad, 4)
    with pytest.raises(InvariantError):
        materialize_y(bad, 4)


def test_kraft_sum_step1_is_exactly_one():
    st = lazard_run(BINARY, 5)[0]
    for L in (1, 5, 40):
        assert kraft_sum(st, L) == Fraction(1)


def test_kraft_sums_below_one_and_monotone():
    states = lazard_run(BINARY, 5)
    for st in states[1:]:
        sums = [kraft_sum(st, L) for L in (8, 16, 24, 32)]
        assert all(s < 1 for s in sums)
        assert sums == sorted(sums)


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


def test_largest_member_upto():
    assert str(largest_member_upto(BINARY, 1)) == "1"
    assert str(largest_member_upto(BINARY, 7)) == "1011111"
    assert str(largest_member_upto(TERNARY, 4)) == "2122"
    # it really is the lex-greatest member within the bound
    top = max(enumerate_nyldon(BINARY, 9).words())
    assert top == largest_member_upto(BINARY, 9)


def test_ternary_run_smoke():
    report = lazard_report(TERNARY, 5)
    assert report.total_steps == sum(
        enumerate_nyldon(TERNARY, 5).counts_by_length().values()
    )
    assert report.stop_word == predicted_stop_word(TERNARY, 5)
