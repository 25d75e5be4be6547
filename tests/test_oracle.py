"""Definitional oracles: membership, factorization, enumeration, counts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    LEX,
    BudgetExceededError,
    Word,
    code_check,
    generate,
    enumerate_members,
    enumerate_nyldon,
    is_member_bruteforce,
    is_nyldon_bruteforce,
    longest_nyldon_suffix,
    nyldon_factorization_bruteforce,
    primitive_necklace_count,
    words_up_to,
)
from nyldon.acceptance import TABLE1_COUNTS, TABLE1_WORDS
from nyldon.hallsets import verify_factorization_property
from nyldon.oracle import parse_count, parse_sweep
from nyldon.order import RLEX
from nyldon.words import is_lyndon


def test_membership_smoke():
    assert is_nyldon_bruteforce(Word.parse("0"))
    assert is_nyldon_bruteforce(Word.parse("10"))
    assert is_nyldon_bruteforce(Word.parse("101"))
    assert not is_nyldon_bruteforce(Word.parse("01"))
    assert not is_nyldon_bruteforce(Word.parse("11"))
    assert not is_nyldon_bruteforce(Word.parse("110"))


def test_no_member_starts_with_two_top_letters(binary10):
    assert all(w.letters[:2] != (1, 1) for w in binary10.words() if len(w) >= 2)


def test_reference_word_list():
    got = tuple(str(w) for w in enumerate_nyldon(BINARY, 7).words())
    assert got == TABLE1_WORDS


def test_counts_match_primitive_necklaces(binary10, ternary6):
    for gset, size in ((binary10, 2), (ternary6, 3)):
        counts = gset.counts_by_length()
        for n, c in counts.items():
            assert c == primitive_necklace_count(size, n)


def test_necklace_count_values():
    assert [primitive_necklace_count(2, n) for n in range(1, 8)] == [
        2, 1, 2, 3, 6, 9, 18,
    ]
    assert primitive_necklace_count(3, 4) == 18


@pytest.mark.parametrize("bad", [0, -1])
def test_lengths_below_one_are_rejected(bad):
    with pytest.raises(ValueError):
        enumerate_members(BINARY, bad, RLEX)
    with pytest.raises(ValueError):
        enumerate_nyldon(BINARY, bad)
    with pytest.raises(ValueError):
        primitive_necklace_count(2, bad)


def test_factorization_is_unique_and_nondecreasing(binary10_tuples):
    for w in words_up_to(BINARY, 9):
        f = nyldon_factorization_bruteforce(w)
        assert f.word == w
        assert all(x.letters in binary10_tuples for x in f.factors)
        assert all(a <= b for a, b in zip(f.factors, f.factors[1:]))
        # single factor exactly for members
        assert (len(f) == 1) == (w.letters in binary10_tuples)


def test_factorization_examples():
    f = nyldon_factorization_bruteforce(Word.parse("10001011010101"))
    assert tuple(str(x) for x in f.factors) == ("1000", "1011010101")
    f2 = nyldon_factorization_bruteforce(Word.parse("11"))
    assert tuple(str(x) for x in f2.factors) == ("1", "1")


def test_longest_member_suffix():
    assert str(longest_nyldon_suffix(Word.parse("11011"))) == "1011"
    assert str(longest_nyldon_suffix(Word.parse("00"))) == "0"


def test_generated_set_protocol(binary10):
    words = binary10.words()
    assert list(words) == sorted(words, key=lambda w: (len(w), w.letters))
    assert sum(binary10.counts_by_length().values()) == len(words)


def test_enumerate_members_rlex_gives_lyndon_like_set():
    gset = enumerate_members(BINARY, 6, RLEX)
    assert all(is_lyndon(w) for w in gset.words())
    assert is_member_bruteforce(Word.parse("0011"), gset)
    assert not is_member_bruteforce(Word.parse("0101"), gset)


def _lyndon_counts(size, max_len):
    """L(n) for n = 0..max_len by the divisor recurrence: each word of length
    n is u^(n/d) for one primitive u of length d | n, and the primitive words
    of length d are the d rotations of each of the L(d) Lyndon words, so
    size^n is the sum of d * L(d) over those d."""
    counts = [0] * (max_len + 1)
    for n in range(1, max_len + 1):
        proper = sum(d * counts[d] for d in range(1, n) if n % d == 0)
        counts[n] = (size**n - proper) // n
    return counts


def test_necklace_count_matches_divisor_recurrence():
    for size in (2, 3, 4, 5):
        expected = _lyndon_counts(size, 30)[1:]
        assert [primitive_necklace_count(size, n) for n in range(1, 31)] == expected


def test_counts_reference():
    assert [
        TABLE1_COUNTS[n - 1] for n in range(1, 8)
    ] == [primitive_necklace_count(2, n) for n in range(1, 8)]


def test_length_cap():
    with pytest.raises(ValueError):
        nyldon_factorization_bruteforce(Word((0,) * 65, BINARY))
    long = nyldon_factorization_bruteforce(Word((0,) * 65, BINARY), length_cap=70)
    assert len(long) == 65


def test_generated_set_save_load_roundtrip(tmp_path, binary10):
    path = tmp_path / "members.txt"
    binary10.save(path)
    loaded = type(binary10).load(path)
    assert loaded.member_tuples == binary10.member_tuples
    assert loaded.policy_id == binary10.policy_id
    assert loaded.max_len == binary10.max_len
    assert Word.parse("1011") in loaded
    assert Word.parse("1101") not in loaded
    # a tampered count is rejected
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        type(binary10).load(path)


def test_ternary_members_smoke(ternary6):
    tuples = {w.letters for w in ternary6.words()}
    assert (2, 0) in tuples
    assert (2, 1) in tuples
    assert (2, 0, 2) in tuples
    # 102 factors as 10 . 2, a nondecreasing pair of members
    assert (1, 0, 2) not in tuples
    assert (0, 1) not in tuples


def _parse_count_bruteforce(letters, members, compare):
    """Count over all 2^(n-1) ways to cut `letters` into factors."""
    n = len(letters)
    count = 0
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0] + [i for i, cut in enumerate(cuts, 1) if cut] + [n]
        factors = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
        if all(f in members for f in factors) and (
            compare is None
            or all(compare(g, f) >= 0 for f, g in zip(factors, factors[1:]))
        ):
            count += 1
    return count


_NON_CODE = frozenset({(0,), (0, 0), (1,)})
_LEX8 = generate(LEX, BINARY, 8).member_tuples


@st.composite
def member_sets(draw):
    """An alphabet size and a member set over it: random, or a fixed binary
    set that is not a code, or the lex members up to length 8."""
    kind = draw(st.sampled_from(["random", "non-code", "lex8"]))
    if kind != "random":
        return 2, _NON_CODE if kind == "non-code" else _LEX8
    size = draw(st.sampled_from([2, 3]))
    pool = [t for n in (1, 2, 3) for t in itertools.product(range(size), repeat=n)]
    return size, frozenset(draw(st.sets(st.sampled_from(pool))))


@st.composite
def words_and_members(draw):
    size, members = draw(member_sets())
    letters = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=9))
    return tuple(letters), members


def _colex(u, v):
    """The `colex-test` order of tests/test_hallsets.py: reversed tuples in
    lex order."""
    ru, rv = u[::-1], v[::-1]
    if ru == rv:
        return 0
    return -1 if ru < rv else 1


@pytest.mark.parametrize(
    "compare", [None, LEX.compare, RLEX.compare], ids=["none", "lex", "rlex"]
)
@settings(max_examples=150)
@given(words_and_members())
def test_parse_count_matches_every_cut(compare, case):
    letters, members = case
    expected = _parse_count_bruteforce(letters, members, compare)
    assert parse_count(letters, members, compare) == expected


@pytest.mark.parametrize(
    "compare",
    [None, LEX.compare, RLEX.compare, _colex],
    ids=["none", "lex", "rlex", "colex"],
)
@settings(max_examples=25)
@given(member_sets())
def test_sweep_counts_match_every_cut(compare, case):
    size, members = case
    bound = 6 if size == 2 else 4
    assert parse_sweep(size, 0, members, compare, lambda count: True) == []
    swept = parse_sweep(size, bound, members, compare, lambda count: True)
    words = [word for word, _ in swept]
    # every word once, in lex order within a length (the sort is stable)
    every = [t for n in range(1, bound + 1) for t in itertools.product(range(size), repeat=n)]
    assert sorted(words, key=len) == every
    for word, count in swept:
        assert count == _parse_count_bruteforce(word, members, compare)
        assert count == parse_count(word, members, compare)
    # with least=True, the shortlex-least failure of each predicate
    for fails in (lambda c: c != 1, lambda c: c > 1, lambda c: c == 0):
        failures = sorted(((w, c) for w, c in swept if fails(c)), key=lambda f: len(f[0]))
        assert parse_sweep(size, bound, members, compare, fails, least=True) == failures[:1]


@pytest.mark.parametrize(
    "scan, message",
    [
        (
            lambda: verify_factorization_property(generate(LEX, BINARY, 3), budget=10),
            "sweep would visit 14 words (budget 10)",
        ),
        (
            lambda: enumerate_members(BINARY, 3, LEX, budget=10),
            "enumeration would visit 14 words (budget 10)",
        ),
        (
            lambda: code_check([Word.parse("0"), Word.parse("1")], 3, budget=10),
            "decodability sweep would visit 14 words (budget 10)",
        ),
    ],
    ids=["sweep", "enumeration", "decodability"],
)
def test_word_budget_messages(scan, message):
    with pytest.raises(BudgetExceededError) as info:
        scan()
    assert str(info.value) == message
