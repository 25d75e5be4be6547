"""Stack factorizer: oracle agreement, comparison bound, comparator correctness."""

import math
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
        # the slices of the storage order as the tuple slices do
        x, y = engine.letters[a1:b1], engine.letters[a2:b2]
        assert (x < y, x == y) == (u < v, u == v)


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


@settings(max_examples=200)
@given(st.one_of(binary_st, ternary_st, wide_tie_st), st.randoms(use_true_random=False))
def test_suffix_snapshots_match_separate_scans(letters, rng):
    # the stack after reading a suffix is that suffix's factorization
    t = tuple(letters)
    n = len(t)
    cuts = rng.sample(range(n), rng.randint(0, min(n, 6))) + [n - 1, 0]
    rng.shuffle(cuts)
    ranges, comparisons, snapshots = factor_ranges(t, suffixes=cuts)
    assert (ranges, comparisons) == factor_ranges(t) == _slice_stack_ranges(t)
    assert len(snapshots) == len(cuts)
    for c, snapshot in zip(cuts, snapshots):
        assert snapshot == factor_ranges(t[c:])[0], c


def test_suffix_offsets_must_lie_in_the_word():
    t = (1, 0, 1)
    # 101 is one factor, its suffix 01 two
    assert factor_ranges(t, suffixes=[2, 1]) == ([(0, 3)], 3, [[(0, 1)], [(0, 1), (1, 2)]])
    for cuts in ([3], [-1], [0, 3]):
        with pytest.raises(ValueError):
            factor_ranges(t, suffixes=cuts)
    with pytest.raises(ValueError):
        factor_ranges((), suffixes=[0])


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


# The benchmark's nine word families (perfbench/inputs.py), copied so that the
# tests do not import the benchmark.
def _fibonacci(n, rng):
    a, b = [1], [1, 0]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _growing_blocks(n, rng):
    out = []
    k = 1
    while len(out) < n:
        out += [1] + [0] * k
        k += 1
    return out[:n]


FAMILIES = {
    "random": lambda n, rng: [rng.randrange(2) for _ in range(n)],
    "one_zeros": lambda n, rng: [1] + [0] * (n - 1),
    "zeros_one": lambda n, rng: [0] * (n - 1) + [1],
    "alternating": lambda n, rng: [1, 0] * (n // 2),
    "fibonacci": _fibonacci,
    "thue_morse": lambda n, rng: [bin(i).count("1") & 1 for i in range(n)],
    "sparse": lambda n, rng: ([1] + [0] * 99) * (n // 100),
    "ones_zero": lambda n, rng: [1] * (n - 1) + [0],
    "growing_blocks": _growing_blocks,
}


def _family(name, n):
    return tuple(FAMILIES[name](n, random.Random(1)))


def _wide(t):
    """The same word over letters 256 and 299: same order, tuple storage."""
    return tuple(256 + 43 * x for x in t)


def test_factor_ranges_of_the_empty_word():
    assert factor_ranges(()) == ([], 0)
    assert factor_ranges(()) == _slice_stack_ranges(())


@pytest.mark.parametrize("wide", [False, True], ids=["bytes", "tuple"])
@pytest.mark.parametrize(
    "text, factors",
    [
        # u = 10 is a proper prefix of v = 100: the tie stops the loop
        ("10100", ["10", "100"]),
        # v = 10 is a proper prefix of u = 100: the tie merges
        ("10010", ["10010"]),
        # u = v = 10: the tie stops the loop
        ("1010", ["10", "10"]),
        # the same three after longer merges
        ("1001010010", ["10010", "10010"]),
        ("100101001010", ["10010", "1001010"]),
        ("10010101001", ["10010101001"]),
    ],
)
def test_ties_after_a_merge(text, factors, wide):
    t = tuple(map(int, text))
    if wide:
        t = _wide(t)
    ranges, comparisons = factor_ranges(t)
    assert [b - a for a, b in ranges] == [len(f) for f in factors]
    assert (ranges, comparisons) == _slice_stack_ranges(t)


@pytest.mark.parametrize("wide", [False, True], ids=["bytes", "tuple"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_factor_ranges_match_slice_stack_on_benchmark_families(name, wide):
    t = _family(name, 2000)
    if wide:
        t = _wide(t)
    assert factor_ranges(t) == _slice_stack_ranges(t)


def _counting_stack_ranges(t):
    """factor_ranges' loop, counting its comparisons where they happen and
    the letters its tie slices copy from each factor."""
    n = len(t)
    if not n:
        return [], 0, 0
    ends = [n]
    comparisons = copied = 0
    for a1 in range(n - 2, -1, -1):
        first = t[a1]
        b1 = a1 + 1
        comparisons += 1
        if first <= t[b1]:
            ends.append(b1)
            continue
        b1 = ends.pop()
        while ends:
            comparisons += 1
            other = t[b1]
            if first < other:
                break
            if first == other:
                end = ends[-1]
                size = b1 - a1
                if size <= end - b1:
                    copied += size
                    if t[a1:b1] <= t[b1 : b1 + size]:
                        break
                else:
                    copied += end - b1
                    if t[a1 : a1 + end - b1] < t[b1:end]:
                        break
            b1 = ends.pop()
        ends.append(b1)
    ends.reverse()
    return list(zip([0] + ends[:-1], ends)), comparisons, copied


@pytest.mark.parametrize("name", ["fibonacci", "thue_morse", "random"])
def test_tie_letters_stay_within_n_log_n(name):
    # The comparison bound is proven. The letters the tie slices copy have
    # no n log n bound in general (see the fastfactor docstring); on these
    # words they measure 0.5-0.8 n log2 n.
    for n in (1000, 4000, 16000):
        t = _family(name, n)
        ranges, comparisons, copied = _counting_stack_ranges(t)
        assert (ranges, comparisons) == factor_ranges(t)
        assert 0 < copied <= n * math.log2(n), (n, copied)


@pytest.mark.parametrize("name", ["zeros_one", "ones_zero", "one_zeros"])
def test_first_letter_decides_every_comparison_on_runs(name):
    t = _family(name, 16000)
    ranges, comparisons, copied = _counting_stack_ranges(t)
    assert (ranges, comparisons) == factor_ranges(t)
    assert copied == 0
