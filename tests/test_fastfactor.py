"""Stack factorizer: oracle agreement, comparison bound, comparator correctness."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    TERNARY,
    Alphabet,
    Factorization,
    Word,
    factorize,
    factorize_with_stats,
    is_nyldon,
    is_nyldon_bruteforce,
    nyldon_factorization_bruteforce,
    nyldon_factorize,
    words_up_to,
)
from nyldon.fastfactor import ComparisonEngine, factor_ranges
from nyldon.words import _unchecked_word

letters_st = st.lists(st.integers(0, 1), min_size=1, max_size=60).map(tuple)


def test_agrees_with_oracle_exhaustively():
    for alphabet, max_len in ((BINARY, 11), (TERNARY, 7)):
        for w in words_up_to(alphabet, max_len):
            assert (
                nyldon_factorize(w).factors
                == nyldon_factorization_bruteforce(w).factors
            )


@given(letters_st)
def test_agrees_with_oracle_random(t):
    w = Word(t, BINARY)
    assert nyldon_factorize(w).factors == nyldon_factorization_bruteforce(w).factors


@settings(max_examples=30)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=5000).map(tuple))
def test_comparison_bound(t):
    w = Word(t, BINARY)
    _, comparisons = factorize_with_stats(w)
    assert comparisons <= 2 * len(w) - 1


def test_long_words_stay_in_bound():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1024, 4096)
        w = Word(tuple(rng.randrange(2) for _ in range(n)), BINARY)
        f, comparisons = factorize_with_stats(w)
        assert comparisons <= 2 * n - 1
        assert f.word == w
        assert f.verify(w)


binary_st = st.lists(st.integers(0, 1), min_size=1, max_size=80)
# a 300-letter alphabet; the leading 299 forces the tuple-storage path
wide_st = st.lists(st.integers(0, 299), max_size=80).map(lambda t: [299] + t)


@settings(max_examples=50)
@given(st.one_of(binary_st, wide_st), st.randoms(use_true_random=False))
def test_comparator_matches_tuple_order(letters, rng):
    t = tuple(letters)
    engine = ComparisonEngine(t)
    assert isinstance(engine.letters, bytes) == (max(t) < 256)
    n = len(t)
    for _ in range(200):
        a1, a2 = rng.randrange(n), rng.randrange(n)
        b1 = rng.randint(a1, n)
        b2 = rng.randint(a2, n)
        u, v = t[a1:b1], t[a2:b2]
        assert engine.compare(a1, b1, a2, b2) == (u > v) - (u < v)


def _slice_stack_ranges(t):
    """factor_ranges' result, from the stack loop on plain tuple slices."""
    stack = []
    comparisons = 0
    for a in range(len(t) - 1, -1, -1):
        b = a + 1
        while stack:
            comparisons += 1
            c, d = stack[-1]
            if t[a:b] <= t[c:d]:
                break
            stack.pop()
            b = d
        stack.append((a, b))
    return stack[::-1], comparisons


ternary_st = st.lists(st.integers(0, 2), min_size=1, max_size=80)
# letters above 255 keep the comparator on tuples; the few repeated letters
# make first-letter ties common there too
wide_tie_st = st.lists(
    st.one_of(st.sampled_from((0, 256, 299)), st.integers(0, 299)), max_size=80
).map(lambda t: [299] + t)


@settings(max_examples=200)
@given(st.one_of(binary_st, ternary_st, wide_tie_st))
def test_factor_ranges_match_slice_stack(letters):
    t = tuple(letters)
    assert factor_ranges(t) == _slice_stack_ranges(t)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 64])
def test_factor_ranges_match_slice_stack_on_prefix_families(k):
    for t in (
        (1, 0) * k,
        (1,) + (0,) * k + (1,) + (0,) * (k + 1),
        (0,) * k + (1,),
        (1, 0, 0) * k + (1, 0) * k,
        (299, 256) * k,
        (299,) + (256,) * k + (299,) + (256,) * (k + 1),
    ):
        assert factor_ranges(t) == _slice_stack_ranges(t), t


def test_families_agree_with_contraction():
    n = 2000
    prev, fib = [1], [1, 0]
    while len(fib) < n:
        prev, fib = fib, fib + prev
    families = {
        "1 0^k": [1] + [0] * (n - 1),
        "0^k 1": [0] * (n - 1) + [1],
        "1^k 0": [1] * (n - 1) + [0],
        "(10)^k": [1, 0] * (n // 2),
        "fibonacci": fib[:n],
        "thue-morse": [bin(i).count("1") & 1 for i in range(n)],
    }
    for name, letters in families.items():
        w = Word(tuple(letters), BINARY)
        assert nyldon_factorize(w).factors == factorize(w).factors, name


def test_is_nyldon_examples():
    assert is_nyldon(Word.parse("1011111"))
    # the worked example: the rotation is a member, the original is not
    assert is_nyldon(Word.parse("10110101011000"))
    assert not is_nyldon(Word.parse("10001011010101"))


def test_member_iff_single_factor():
    for w in words_up_to(BINARY, 10):
        assert is_nyldon(w) == (len(nyldon_factorize(w)) == 1)
        assert is_nyldon(w) == is_nyldon_bruteforce(w)


def test_factors_nondecreasing_and_members():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 200)
        w = Word(tuple(rng.randrange(3) for _ in range(n)), TERNARY)
        f = nyldon_factorize(w)
        assert f.verify(w)
        assert all(is_nyldon(x) for x in f.factors)


@settings(max_examples=200)
@given(
    st.one_of(
        binary_st.map(lambda t: (BINARY, t)),
        ternary_st.map(lambda t: (TERNARY, t)),
        wide_tie_st.map(lambda t: (Alphabet(300), t)),
    )
)
def test_shared_factors_equal_a_word_per_factor(case):
    alphabet, letters = case
    w = Word(tuple(letters), alphabet)
    ranges, _ = factor_ranges(w.letters)
    one_each = Factorization(
        tuple(_unchecked_word(w.letters[a:b], alphabet) for a, b in ranges)
    )
    shared = nyldon_factorize(w)
    assert shared == one_each
    assert hash(shared) == hash(one_each)
    for left, right in zip(shared.factors, shared.factors[1:]):
        assert (left is right) == (left == right)


@pytest.mark.parametrize(
    "letters, factors",
    [
        ((0,) * 10**4 + (1,), ["0"] * 10**4 + ["1"]),
        ((1,) * 10**4 + (0,), ["1"] * 9999 + ["10"]),
    ],
    ids=["0^k 1", "1^k 0"],
)
def test_runs_of_equal_factors_hold_one_word(letters, factors):
    f = nyldon_factorize(Word(letters, BINARY))
    assert [str(x) for x in f.factors] == factors
    assert len({id(x) for x in f.factors}) == 2
    loaded = pickle.loads(pickle.dumps(f))
    assert loaded == f
    assert hash(loaded) == hash(f)
