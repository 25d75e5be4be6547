"""Contraction algorithm: conjugates, factorization variant, traces, policies."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    Alphabet,
    LEX,
    RLEX,
    NotPrimitiveError,
    Word,
    conjugate,
    conjugates,
    contraction_trace,
    factorize,
    is_nyldon,
    lyndon_words,
    nyldon_factorize,
    words_up_to,
)
from nyldon.melancon import _ENGINE_MIN, _PHASE_MAX
from nyldon.order import CountingPolicy
from nyldon.words import is_lyndon, is_primitive

primitive_st = (
    st.lists(st.integers(0, 1), min_size=2, max_size=40)
    .map(tuple)
    .map(lambda t: Word(t, BINARY))
    .filter(is_primitive)
)


def test_worked_example_conjugate():
    w = Word.parse("10001011010101")
    assert str(conjugate(w)) == "10110101011000"


def test_worked_example_factorization():
    f = factorize(Word.parse("10001011010101"))
    assert tuple(str(x) for x in f.factors) == ("1000", "1011010101")


@given(primitive_st)
def test_conjugate_is_rotation_invariant(w):
    base = conjugate(w)
    assert base in conjugates(w)
    assert is_nyldon(base)
    for c in conjugates(w):
        assert conjugate(c) == base


def test_single_letter_conjugate():
    assert conjugate(Word.parse("0")) == Word.parse("0")


def test_imprimitive_rejected():
    with pytest.raises(NotPrimitiveError):
        conjugate(Word.parse("1010"))
    with pytest.raises(NotPrimitiveError):
        contraction_trace(Word.parse("11"), LEX, mode="circular")


def test_factorize_agrees_with_stack():
    for w in words_up_to(BINARY, 11):
        assert factorize(w).factors == nyldon_factorize(w).factors


@pytest.mark.parametrize(
    "letters",
    [
        (1,) + (0,) * 1999,
        (0,) * 1999 + (1,),
        (1,) * 1999 + (0,),
    ],
    ids=["1 0^k", "0^k 1", "1^k 0"],
)
def test_long_runs_of_equal_blocks_stay_n_log_n(letters):
    # Equal blocks must pop first in, first out; popped in heap order, each
    # pop walked a whole run of equal blocks (over 10^6 comparisons here).
    w = Word(letters, BINARY)
    n = len(w)
    bound = 3 * n * math.ceil(math.log2(n))
    for run in (conjugate, factorize):
        policy = CountingPolicy(LEX)
        run(w, policy, variant="pq")
        assert policy.calls <= bound, (run.__name__, policy.calls)


def _families(n):
    """The benchmark's nine binary families at n letters (random is seeded)."""
    rng = random.Random(n)
    prev, fib = [1], [1, 0]
    while len(fib) < n:
        prev, fib = fib, fib + prev
    growing, k = [], 1
    while len(growing) < n:
        growing += [1] + [0] * k
        k += 1
    return {
        "random": [rng.randrange(2) for _ in range(n)],
        "1 0^k": [1] + [0] * (n - 1),
        "0^k 1": [0] * (n - 1) + [1],
        "(10)^k": ([1, 0] * n)[:n],
        "fibonacci": fib[:n],
        "thue-morse": [bin(i).count("1") & 1 for i in range(n)],
        "sparse": (([1] + [0] * 99) * (n // 100 + 1))[:n],
        "1^k 0": [1] * (n - 1) + [0],
        "growing blocks": growing[:n],
    }


def _engines_agree(w, policy):
    """The default engine, "pq" and "phases" give equal results on w."""
    facts = {factorize(w, policy, variant=v).factors for v in (None, "pq", "phases")}
    assert len(facts) == 1, (w, policy)
    if is_primitive(w):
        conjs = {conjugate(w, policy, variant=v) for v in (None, "pq", "phases")}
        assert len(conjs) == 1, (w, policy)


def test_conjugate_variants_agree():
    # Short words run on the phase engine by default and long ones on the
    # priority queue; all three choices must give equal results.
    for policy in (LEX, RLEX):
        for rep in lyndon_words(BINARY, 12):
            _engines_agree(rep, policy)
            _engines_agree(rep.rotate(len(rep) // 2), policy)
            if policy is LEX:
                assert is_nyldon(conjugate(rep))
    for n in (_PHASE_MAX - 1, _PHASE_MAX):
        for name, letters in _families(n).items():
            assert len(letters) == n, name
            w = Word(tuple(letters), BINARY)
            if not is_primitive(w):
                w = Word(tuple(letters[:-1]) + (1 - letters[-1],), BINARY)
            for policy in (LEX, RLEX):
                _engines_agree(w, policy)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 299), min_size=1, max_size=2 * _PHASE_MAX).map(tuple))
def test_engines_agree_on_large_alphabets(letters):
    # Many distinct letters mean many phases: the reason for the cutoff.
    _engines_agree(Word(letters, Alphabet(300)), LEX)


def test_growth_check_passes_under_lex():
    assert LEX.assume_nyldon_like  # so every contraction checks fg > f > g
    for w in words_up_to(BINARY, 10):
        factorize(w, LEX)
    for rep in lyndon_words(BINARY, 10):
        if len(rep) >= 2:
            conjugate(rep, LEX, variant="pq")
            conjugate(rep, LEX, variant="phases")


def test_rlex_policy_yields_lyndon_conjugates():
    for rep in lyndon_words(BINARY, 8):
        if len(rep) < 2:
            continue
        for c in conjugates(rep):
            got = conjugate(c, RLEX)
            assert is_lyndon(got)
            assert got == rep  # the Lyndon rotation is lex-least, FKM emits it


@settings(max_examples=60)
@given(
    st.integers(2, 3), st.integers(_ENGINE_MIN // 2 - 2, _ENGINE_MIN + 2), st.data()
)
def test_bounded_comparator_matches_policy_slices(k, n, data):
    # Bases of _ENGINE_MIN letters or more (the doubled word, for conjugate)
    # compare through the bounded comparator under lex and rlex; a
    # CountingPolicy always compares slices through its base policy. The
    # lengths put both bases on both sides of the cutoff.
    letters = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    w = Word(tuple(letters), Alphabet(k))
    for policy in (LEX, RLEX):
        sliced = CountingPolicy(policy)
        assert factorize(w, policy).factors == factorize(w, sliced).factors
        if is_primitive(w):
            assert conjugate(w, policy) == conjugate(w, sliced)
    if is_primitive(w):
        assert conjugate(w, RLEX) == min(conjugates(w))  # the Lyndon rotation


def test_circular_trace_matches_reference():
    tr = contraction_trace(Word.parse("10001011010101"), LEX, mode="circular")
    assert tr.mode == "circular"
    assert [", ".join(str(w) for w in snap) for snap in tr.snapshots] == [
        "1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1",
        "1000, 10, 1, 10, 10, 10, 1",
        "1000, 101, 10, 10, 101",
        "1000, 1011010, 101",
        "1011010, 1011000",
        "10110101011000",
    ]
    assert str(tr.conjugate) == "10110101011000"
    assert tr.factorization is None


def test_linear_trace_matches_reference():
    tr = contraction_trace(Word.parse("10001011010101"), LEX, mode="linear")
    assert tr.mode == "linear"
    assert [", ".join(str(w) for w in snap) for snap in tr.snapshots] == [
        "1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1",
        "1000, 10, 1, 10, 10, 10, 1",
        "1000, 101, 10, 10, 101",
        "1000, 1011010, 101",
        "1011010, 101",
        "1011010101",
    ]
    assert tr.conjugate is None
    assert tuple(str(x) for x in tr.factorization.factors) == (
        "1000",
        "1011010101",
    )


def test_trace_sequence_protocol():
    tr = contraction_trace(Word.parse("100"), LEX, mode="circular")
    assert len(tr) == len(tr.snapshots)
    assert list(iter(tr)) == list(tr.snapshots)
    assert tr == contraction_trace(Word.parse("100"), LEX, mode="circular")
    assert tr != contraction_trace(Word.parse("100"), LEX, mode="linear")
    assert repr(tr) == (
        "ContractionTrace(mode='circular', snapshots=[[Word('1', size=2), "
        "Word('0', size=2), Word('0', size=2)], [Word('100', size=2)]], "
        "conjugate=Word('100', size=2), factorization=None)"
    )
