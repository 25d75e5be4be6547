"""Stack factorizer: oracle agreement, comparison bound, comparator correctness."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    TERNARY,
    Word,
    factorize,
    factorize_with_stats,
    is_nyldon,
    is_nyldon_bruteforce,
    nyldon_factorization_bruteforce,
    nyldon_factorize,
    words_up_to,
)
from nyldon.fastfactor import ComparisonEngine

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
