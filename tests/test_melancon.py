"""Contraction: conjugates, the linear factorization, traces, policies."""

import hashlib
import math
import random
import tracemalloc
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    TERNARY,
    Alphabet,
    LEX,
    RLEX,
    NotPrimitiveError,
    OrderPolicy,
    PolicyViolationError,
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
from nyldon.melancon import _sort_key
from nyldon.oracle import is_nyldon_bruteforce
from nyldon.order import CountingPolicy
from nyldon.words import duval_lyndon_factorization, is_lyndon, is_primitive

# The lengths of the removed engine cutoffs: words below 32 letters ran on a
# phase engine, and bases of 64 letters or more compared through a bounded
# comparator. The tests keep them as inputs.
OLD_PHASE_CUTOFF = 32
OLD_COMPARATOR_CUTOFF = 64


def _colex(u, v):
    """Lex order on the reversed words: the colex order."""
    u, v = u[::-1], v[::-1]
    return (u > v) - (u < v)


COLEX = OrderPolicy("colex", _colex)

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
        run(w, policy)
        assert policy.calls <= bound, (run.__name__, policy.calls)


@pytest.mark.parametrize(
    "letters",
    [
        (1,) + (0,) * 9999,
        (0,) * 9999 + (1,),
        (1,) * 9999 + (0,),
    ],
    ids=["1 0^k", "0^k 1", "1^k 0"],
)
def test_grown_blocks_are_not_copied_per_growth(letters):
    # A block that grows is pushed once per phase with its final key; pushed
    # on every growth, each stale entry kept a copy of the grown block (51 MB
    # on 1 0^k at this length, against about 3 MB).
    w = Word(letters, BINARY)
    tracemalloc.start()
    try:
        conjugate(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


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


def _reversed(w):
    return Word(w.letters[::-1], w.alphabet)


def _check_references(w, policy, oracle_max=0):
    """`factorize` and `conjugate` under a policy equal references that share
    no code with the contraction: under lex the stack factorizer (and, up to
    `oracle_max` letters, the definitional oracle), under rlex Duval's
    algorithm and the least rotation, under colex the same on the reversed
    word."""
    fact = factorize(w, policy).factors
    conj = conjugate(w, policy) if is_primitive(w) else None
    if policy.id == COLEX.id:
        rw = _reversed(w)
        lyndon = duval_lyndon_factorization(rw).factors
        assert fact == tuple(map(_reversed, reversed(lyndon))), w
        assert conj is None or conj == _reversed(min(conjugates(rw)))
    elif policy is RLEX:
        assert fact == duval_lyndon_factorization(w).factors, w
        assert conj is None or conj == min(conjugates(w)), w
    else:
        assert fact == nyldon_factorize(w).factors, (w, policy)
        if conj is not None:
            assert [c for c in conjugates(w) if is_nyldon(c)] == [conj], (w, policy)
            assert len(w) > oracle_max or is_nyldon_bruteforce(conj), w


def test_contraction_matches_references():
    for policy in (LEX, RLEX, COLEX):
        for rep in lyndon_words(BINARY, 12):
            _check_references(rep, policy, oracle_max=12)
            _check_references(rep.rotate(len(rep) // 2), policy, oracle_max=12)
    for n in (OLD_PHASE_CUTOFF - 1, OLD_PHASE_CUTOFF):
        for name, letters in _families(n).items():
            assert len(letters) == n, name
            w = Word(tuple(letters), BINARY)
            if not is_primitive(w):
                w = Word(tuple(letters[:-1]) + (1 - letters[-1],), BINARY)
            for policy in (LEX, RLEX, CountingPolicy(LEX), COLEX):
                _check_references(w, policy)


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 299), min_size=1, max_size=2 * OLD_PHASE_CUTOFF).map(tuple)
)
def test_large_alphabets_match_references(letters):
    # Above 256 letters the lex and rlex keys are tuples, not bytes, and rlex
    # closes each key with the letter 300.
    w = Word(letters, Alphabet(300))
    for policy in (LEX, RLEX):
        _check_references(w, policy)


def test_growth_check_passes_under_lex():
    assert LEX.assume_nyldon_like  # so every contraction checks fg > f > g
    for w in words_up_to(BINARY, 10):
        factorize(w, LEX)
    for rep in lyndon_words(BINARY, 10):
        if len(rep) >= 2:
            conjugate(rep, LEX)


@pytest.mark.parametrize("run", [conjugate, factorize])
def test_growth_check_reports_the_blocks_as_words(run):
    # The rlex order fails f < fg; a policy that claims the growth property
    # under it must fail the live check on the first contraction, 0 <- 1.
    claimed = OrderPolicy("rlex-as-nyldon-like", RLEX.compare, assume_nyldon_like=True)
    with pytest.raises(PolicyViolationError) as failure:
        run(Word.parse("01"), claimed)
    assert (failure.value.f, failure.value.g) == (Word.parse("0"), Word.parse("1"))


def test_sort_keys_order_like_the_policy():
    words = [()] + [w.letters for w in words_up_to(TERNARY, 5)]
    for policy in (LEX, RLEX, COLEX):
        keys = {t: _sort_key(t, policy, 3)(0, len(t)) for t in words}
        by_key = sorted(words, key=keys.__getitem__)
        assert by_key == sorted(words, key=cmp_to_key(policy.compare)), policy


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
    st.integers(2, 3),
    st.integers(OLD_COMPARATOR_CUTOFF // 2 - 2, OLD_COMPARATOR_CUTOFF + 2),
    st.data(),
)
def test_key_paths_match_references(k, n, data):
    # Lex and rlex keys are byte slices; CountingPolicy and colex compare
    # tuple slices through the policy. The lengths put the word and the
    # doubled word on both sides of the old 64-letter comparator cutoff.
    letters = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    w = Word(tuple(letters), Alphabet(k))
    for policy in (LEX, RLEX, CountingPolicy(LEX), COLEX):
        _check_references(w, policy)


# sha256 of every snapshot list below, computed with the phase engine that
# `contraction_trace` ran on before the heap engine served traces.
TRACE_DIGEST = "abec54f7aa7f46d14473941b8e499add152973765a8ca7f60f504bb32e2b3186"


def test_traces_match_the_pinned_digest():
    rng = random.Random(2019)
    randoms = [
        Word(tuple(rng.randrange(2) for _ in range(rng.randint(11, 40))), BINARY)
        for _ in range(200)
    ]
    digest = hashlib.sha256()
    cases = 0
    for policy in (LEX, RLEX):
        for w in [*words_up_to(BINARY, 10), *words_up_to(TERNARY, 6), *randoms]:
            for mode in ("linear", "circular"):
                if mode == "circular" and not is_primitive(w):
                    continue
                trace = contraction_trace(w, policy, mode)
                rows = " | ".join(", ".join(map(str, snap)) for snap in trace)
                digest.update(f"{policy.id} {mode} {w}: {rows}\n".encode())
                cases += 1
    assert cases == 13090
    assert digest.hexdigest() == TRACE_DIGEST


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
